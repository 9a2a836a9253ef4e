//! 2-D convolution: the workhorse of the ODEBlock.
//!
//! The paper's blocks only ever use 3×3 kernels with stride 1 (pad 1) or
//! stride 2 (pad 1, the downsample blocks); the kernels here accept any
//! odd kernel size but are tuned for that case.
//!
//! The forward pass is generic over [`Scalar`]: with `f32` it is the PS
//! software path, with [`qfixed::Q20`] it computes exactly what the PL
//! multiply–add array computes (double-width accumulation, one truncation
//! per output element — see [`crate::scalar`]).
//!
//! Layout: input `(N, I, H, W)`, weights `(O, I, K, K)`, output
//! `(N, O, OH, OW)` with `OH = (H + 2·pad − K)/stride + 1`. Convolutions
//! are bias-free, as in the paper (batch norm immediately follows every
//! convolution, so a bias would be redundant).
//!
//! # Fast path
//!
//! [`conv2d`] dispatches the paper's hot case — 3×3, pad 1, stride 1 or 2
//! — to an im2col + blocked micro-GEMM kernel ([`conv2d_im2col_3x3`])
//! whose inner loops carry **zero bounds checks**: each im2col row is
//! packed as `zero border | contiguous interior copy | zero border`, and
//! the GEMM walks fixed-size slices. Every other geometry (and
//! [`set_force_reference`]) falls back to the original scalar kernel,
//! retained verbatim as [`conv2d_reference`].
//!
//! Both paths are **bit-identical**, for every [`Scalar`]. The argument
//! has two halves, one per kind of accumulator; the per-item GEMM is the
//! [`Scalar::gemm_item`] hook, so each scalar type runs the kernel its
//! half of the argument covers.
//!
//! * **`f32`, by K order.** The default GEMM keeps the K-dimension
//!   accumulation in the reference's `(i, ky, kx)` order and blocks only
//!   over output channels / output pixels (independent accumulator
//!   chains). Padded taps contribute `acc + (±0.0)`, a bitwise no-op
//!   because the accumulator can never hold `-0.0` (it starts at `+0.0`,
//!   and IEEE-754 addition only produces `-0.0` from two negative zeros).
//! * **Fixed point, by a modular identity.** The accumulator is a
//!   wrapping `i64`, and [`Scalar::acc_finish`] reads only `acc mod 2^64`,
//!   so any summation order gives the same output, overflow included;
//!   padded taps add an exact `w·0 = 0`. This lets the fixed-point types
//!   run an *offset-binary* GEMM: flipping each word's sign bit maps it to
//!   `v_u = v + 2^31` in `u32`, and
//!   `Σ w·x ≡ Σ w_u·x_u − 2^31·Σ x_u − 2^31·Σ w_u + K·2^62 (mod 2^64)`.
//!   The `u32 × u32 → u64` products vectorize on baseline x86_64 (SSE2
//!   `pmuludq`), where the signed `i64` product of the `f32`-shaped loop
//!   does not; the two correction sums cost one pass over the packed
//!   matrix and one over the weights.
//!
//! The equivalence is pinned by unit tests here and proptests in
//! `tensor/tests/props.rs` across shapes × strides × scalar types,
//! including raw fixed-point words from the whole `i32` range that make
//! the accumulator wrap.

use crate::{par, Scalar, Shape4, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};

/// Stride / padding configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Spatial stride (1 in ODE blocks, 2 in the downsample blocks).
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl Conv2dParams {
    /// 3×3, stride 1, pad 1 — shape preserving.
    pub const fn same_3x3() -> Self {
        Conv2dParams { stride: 1, pad: 1 }
    }

    /// 3×3, stride 2, pad 1 — halves the feature map.
    pub const fn down_3x3() -> Self {
        Conv2dParams { stride: 2, pad: 1 }
    }

    /// Output spatial extent for an input extent and kernel size.
    pub fn out_extent(&self, extent: usize, k: usize) -> usize {
        assert!(
            extent + 2 * self.pad >= k,
            "kernel larger than padded input"
        );
        (extent + 2 * self.pad - k) / self.stride + 1
    }
}

/// Output shape of a convolution.
pub fn conv2d_out_shape(x: Shape4, w: Shape4, p: Conv2dParams) -> Shape4 {
    assert_eq!(
        x.c, w.c,
        "input channels {} != weight input channels {}",
        x.c, w.c
    );
    assert_eq!(w.h, w.w, "only square kernels are supported");
    Shape4::new(x.n, w.n, p.out_extent(x.h, w.h), p.out_extent(x.w, w.w))
}

/// When set, [`conv2d`] always takes the scalar reference path — used by
/// the hot-path benches and `repro -- hotpath` to measure the fast kernel
/// against its baseline without duplicating the call sites. Numerics are
/// identical either way; only wall-clock differs.
static FORCE_REFERENCE: AtomicBool = AtomicBool::new(false);

/// Route all [`conv2d`] calls through [`conv2d_reference`] (`true`) or
/// restore fast-path dispatch (`false`). Process-global; intended for
/// benchmarking, not concurrent toggling mid-inference.
pub fn set_force_reference(force: bool) {
    FORCE_REFERENCE.store(force, Ordering::SeqCst);
}

/// Whether [`set_force_reference`] currently pins the reference path.
pub fn force_reference() -> bool {
    FORCE_REFERENCE.load(Ordering::SeqCst)
}

/// Forward convolution, generic over the scalar type.
///
/// Dispatches 3×3 / pad 1 / stride 1-or-2 (the only geometries the
/// paper's networks use) to the im2col fast path; everything else runs
/// the scalar reference kernel. Both produce bit-identical outputs.
pub fn conv2d<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, p: Conv2dParams) -> Tensor<S> {
    let ws = w.shape();
    let hot = ws.h == 3 && ws.w == 3 && p.pad == 1 && (p.stride == 1 || p.stride == 2);
    if hot && !force_reference() {
        conv2d_im2col_3x3(x, w, p)
    } else {
        conv2d_reference(x, w, p)
    }
}

/// The original scalar convolution kernel, kept verbatim as the reference
/// implementation: any kernel size, per-tap bounds checks, one `(n, o)`
/// output plane per parallel chunk. The fast path is pinned bit-identical
/// to this.
pub fn conv2d_reference<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, p: Conv2dParams) -> Tensor<S> {
    let xs = x.shape();
    let ws = w.shape();
    let os = conv2d_out_shape(xs, ws, p);
    let mut out = Tensor::<S>::zeros(os);
    let k = ws.h;
    let plane = os.plane();
    let wsl = w.as_slice();

    // One chunk = one (n, o) output plane; disjoint, so freely parallel.
    par_chunks_mut(&mut out, plane, xs.c * k * k, |chunk_idx, oplane| {
        let n = chunk_idx / os.c;
        let o = chunk_idx % os.c;
        for oy in 0..os.h {
            for ox in 0..os.w {
                let mut acc = S::acc_zero();
                for i in 0..xs.c {
                    let xplane = x.plane(n, i);
                    let wbase = ((o * ws.c + i) * k) * k;
                    let wk = &wsl[wbase..wbase + k * k];
                    for ky in 0..k {
                        let y = (oy * p.stride + ky) as isize - p.pad as isize;
                        if y < 0 || y >= xs.h as isize {
                            continue;
                        }
                        let xrow = &xplane[(y as usize) * xs.w..(y as usize + 1) * xs.w];
                        let wrow = &wk[ky * k..(ky + 1) * k];
                        for (kx, &wv) in wrow.iter().enumerate() {
                            let xcol = (ox * p.stride + kx) as isize - p.pad as isize;
                            if xcol < 0 || xcol >= xs.w as isize {
                                continue;
                            }
                            acc = S::mac(acc, wv, xrow[xcol as usize]);
                        }
                    }
                }
                oplane[oy * os.w + ox] = S::acc_finish(acc);
            }
        }
    });
    out
}

/// Output-channel block height of the micro-GEMM (register-tiled rows).
const GEMM_MB: usize = 4;
/// Output-pixel block width of the micro-GEMM; 128 f32 lanes fit easily
/// in L1 alongside the weight broadcasts.
const GEMM_NB: usize = 128;

/// im2col + blocked micro-GEMM fast path for 3×3 / pad 1 / stride 1 or 2.
///
/// Per batch item the input is packed into a `K × (OH·OW)` column matrix
/// (`K = C·9`, rows ordered `(i, ky, kx)` — the reference kernel's tap
/// order), then multiplied by the `(O × K)` weight matrix through
/// [`Scalar::gemm_item`]: in reference K order for `f32`, with the
/// offset-binary kernel for fixed point. Padded taps are packed as
/// explicit zeros, which leave every accumulator bit-unchanged (see the
/// module docs). The packed rows are built from
/// precomputed interior ranges — `copy_from_slice` for stride 1, a
/// `step_by(2)` zip for stride 2 — so neither packing nor GEMM performs a
/// per-element bounds check.
pub fn conv2d_im2col_3x3<S: Scalar>(x: &Tensor<S>, w: &Tensor<S>, p: Conv2dParams) -> Tensor<S> {
    let xs = x.shape();
    let ws = w.shape();
    assert_eq!(ws.h, 3, "fast path is 3x3 only");
    assert_eq!(p.pad, 1, "fast path needs pad 1");
    assert!(p.stride == 1 || p.stride == 2, "fast path needs stride 1/2");
    let os = conv2d_out_shape(xs, ws, p);
    let mut out = Tensor::<S>::zeros(os);
    let kdim = xs.c * 9; // GEMM K: taps per output, (i, ky, kx) order.
    let nc = os.h * os.w; // GEMM N: output pixels of one plane.
    let wsl = w.as_slice();

    // The packed column matrix is reused across batch items; batch-level
    // parallelism lives a layer up (Engine::infer_batch), so packing
    // sequentially here wastes nothing.
    let mut cols = vec![S::ZERO; kdim * nc];
    for n in 0..xs.n {
        for i in 0..xs.c {
            let xplane = x.plane(n, i);
            for ky in 0..3 {
                for kx in 0..3 {
                    let row = (i * 9 + ky * 3 + kx) * nc;
                    pack_row_3x3(
                        &mut cols[row..row + nc],
                        xplane,
                        xs.h,
                        xs.w,
                        os.h,
                        os.w,
                        p.stride,
                        ky,
                        kx,
                    );
                }
            }
        }

        S::gemm_item(wsl, &cols, kdim, nc, out.item_mut(n));
    }
    out
}

/// The K-ordered micro-GEMM: [`Scalar::gemm_item`]'s default, which the
/// `f32` path runs.
///
/// Each worker takes a block of `GEMM_MB` output-channel rows and walks
/// it in `GEMM_NB`-pixel strips. K stays outermost-sequential, so every
/// `(m, j)` accumulator sees taps in the reference `(i, ky, kx)` order.
pub(crate) fn gemm_k_ordered<S: Scalar>(
    w: &[S],
    cols: &[S],
    kdim: usize,
    nc: usize,
    out: &mut [S],
) {
    par::par_chunks_mut(out, GEMM_MB * nc, kdim, |blk, chunk| {
        let m0 = blk * GEMM_MB;
        let rows = chunk.len() / nc;
        let mut acc = [S::acc_zero(); GEMM_MB * GEMM_NB];
        let mut j0 = 0;
        while j0 < nc {
            let nb = GEMM_NB.min(nc - j0);
            for a in acc[..rows * GEMM_NB].iter_mut() {
                *a = S::acc_zero();
            }
            for r in 0..kdim {
                let crow = &cols[r * nc + j0..r * nc + j0 + nb];
                for m in 0..rows {
                    let wv = w[(m0 + m) * kdim + r];
                    let arow = &mut acc[m * GEMM_NB..m * GEMM_NB + nb];
                    for (a, &c) in arow.iter_mut().zip(crow) {
                        *a = S::mac(*a, wv, c);
                    }
                }
            }
            for m in 0..rows {
                let orow = &mut chunk[m * nc + j0..m * nc + j0 + nb];
                let arow = &acc[m * GEMM_NB..m * GEMM_NB + nb];
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = S::acc_finish(a);
                }
            }
            j0 += nb;
        }
    });
}

/// The offset-binary micro-GEMM behind the fixed-point
/// [`Scalar::gemm_item`] overrides; `bits` reads a word's
/// two's-complement value.
///
/// Each word is mapped to `u32` by flipping its sign bit,
/// `v_u = bits(v) ^ 2^31`, so `v = v_u − 2^31`. Then, modulo 2^64,
///
/// `Σ_r w·x ≡ Σ_r w_u·x_u − 2^31·Σ_r x_u[r][j] − (2^31·Σ_r w_u[m][r] − K·2^62)`.
///
/// The inner loop is a `u32 × u32 → u64` multiply-add, which LLVM lowers
/// to SSE2 `pmuludq`; the signed `i64` product of the K-ordered loop has
/// no SSE2 form. The column term is one read pass over `cols`, the row
/// term one over each block's weights. The sign flip is done inline, so
/// no second `kdim × nc` buffer is allocated. Since [`Scalar::acc_finish`]
/// of a fixed-point type reads the wrapping `i64` accumulator, that is
/// `acc mod 2^64`, every output equals the K-ordered sum for every input,
/// wraparound included. (The `K·2^62` term only reaches bits 62–63, which
/// a 32-bit format's truncation never reads; the saturating 16-bit
/// write-back does.)
pub(crate) fn gemm_offset_binary<S: Scalar<Acc = i64>>(
    w: &[S],
    cols: &[S],
    kdim: usize,
    nc: usize,
    out: &mut [S],
    bits: impl Fn(S) -> i32 + Sync,
) {
    let flip = |v: S| u64::from(bits(v) as u32 ^ 0x8000_0000);
    // 2^31·Σ_r x_u[r][j]: the column correction, shared by every row.
    let mut col_corr = vec![0u64; nc];
    for crow in cols.chunks_exact(nc) {
        for (s, &c) in col_corr.iter_mut().zip(crow) {
            *s = s.wrapping_add(flip(c));
        }
    }
    for s in col_corr.iter_mut() {
        *s <<= 31;
    }
    let k_term = (kdim as u64).wrapping_mul(1 << 62);

    par::par_chunks_mut(out, GEMM_MB * nc, kdim, |blk, chunk| {
        let m0 = blk * GEMM_MB;
        let rows = chunk.len() / nc;
        // 2^31·Σ_r w_u[m][r] − K·2^62: the row correction.
        let mut row_corr = [0u64; GEMM_MB];
        for (m, rc) in row_corr[..rows].iter_mut().enumerate() {
            let wrow = &w[(m0 + m) * kdim..(m0 + m + 1) * kdim];
            let sum = wrow.iter().fold(0u64, |s, &v| s.wrapping_add(flip(v)));
            *rc = (sum << 31).wrapping_sub(k_term);
        }
        let mut j0 = 0;
        while j0 < nc {
            let nb = GEMM_NB.min(nc - j0);
            let mut acc = [[0u64; GEMM_NB]; GEMM_MB];
            for r in 0..kdim {
                let crow = &cols[r * nc + j0..r * nc + j0 + nb];
                let wv: [u64; GEMM_MB] = core::array::from_fn(|m| {
                    if m < rows {
                        flip(w[(m0 + m) * kdim + r])
                    } else {
                        0
                    }
                });
                let [a0, a1, a2, a3] = &mut acc;
                for ((((&c, x0), x1), x2), x3) in crow
                    .iter()
                    .zip(a0.iter_mut())
                    .zip(a1.iter_mut())
                    .zip(a2.iter_mut())
                    .zip(a3.iter_mut())
                {
                    let c = flip(c);
                    *x0 = x0.wrapping_add(wv[0] * c);
                    *x1 = x1.wrapping_add(wv[1] * c);
                    *x2 = x2.wrapping_add(wv[2] * c);
                    *x3 = x3.wrapping_add(wv[3] * c);
                }
            }
            for m in 0..rows {
                let orow = &mut chunk[m * nc + j0..m * nc + j0 + nb];
                let arow = &acc[m][..nb];
                let crow = &col_corr[j0..j0 + nb];
                for ((o, &a), &cc) in orow.iter_mut().zip(arow).zip(crow) {
                    let wide = a.wrapping_sub(cc).wrapping_sub(row_corr[m]);
                    *o = S::acc_finish(wide as i64);
                }
            }
            j0 += nb;
        }
    });
}

/// Pack one im2col row: the values tap `(ky, kx)` reads for every output
/// pixel, zero-filled where the tap falls in the padding border.
///
/// For output column `ox`, the tap reads
/// `x[oy·stride + ky − 1][ox·stride + kx − 1]`. With pad 1 and
/// `kx ∈ {0,1,2}` the in-bounds `ox` range is a single contiguous
/// interval `[lo, hi)` computed up front, so the borders are bulk
/// zero-fills and the interior is a straight copy (stride 1) or a
/// strided gather (stride 2) — no per-element branches.
#[allow(clippy::too_many_arguments)]
fn pack_row_3x3<S: Scalar>(
    dst: &mut [S],
    xplane: &[S],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    ky: usize,
    kx: usize,
) {
    // In-bounds ox interval: ox·stride + kx − 1 ∈ [0, w).
    let lo = if kx == 0 { 1 } else { 0 };
    let hi = if w < kx {
        0
    } else {
        ow.min((w - kx) / stride + 1)
    }
    .max(lo);
    let x0 = lo * stride + kx - 1; // first in-bounds x column
    for oy in 0..oh {
        let drow = &mut dst[oy * ow..(oy + 1) * ow];
        let y = (oy * stride + ky) as isize - 1;
        if y < 0 || y >= h as isize {
            drow.fill(S::ZERO);
            continue;
        }
        let xrow = &xplane[(y as usize) * w..(y as usize + 1) * w];
        drow[..lo].fill(S::ZERO);
        drow[hi..].fill(S::ZERO);
        if stride == 1 {
            drow[lo..hi].copy_from_slice(&xrow[x0..x0 + (hi - lo)]);
        } else {
            for (d, &v) in drow[lo..hi].iter_mut().zip(xrow[x0..].iter().step_by(2)) {
                *d = v;
            }
        }
    }
}

fn par_chunks_mut<S: Scalar>(
    t: &mut Tensor<S>,
    chunk: usize,
    cost: usize,
    f: impl Fn(usize, &mut [S]) + Sync,
) {
    par::par_chunks_mut(t.as_mut_slice(), chunk, cost, f);
}

/// Gradient of the loss w.r.t. the convolution **input**.
///
/// `gout` has the output shape; the result has shape `x_shape`.
pub fn conv2d_backward_input(
    gout: &Tensor<f32>,
    w: &Tensor<f32>,
    x_shape: Shape4,
    p: Conv2dParams,
) -> Tensor<f32> {
    let os = gout.shape();
    let ws = w.shape();
    assert_eq!(
        os.c, ws.n,
        "gout channels must match weight output channels"
    );
    assert_eq!(
        x_shape.c, ws.c,
        "x channels must match weight input channels"
    );
    let k = ws.h;
    let mut gx = Tensor::<f32>::zeros(x_shape);
    let plane = x_shape.plane();
    let wsl = w.as_slice();

    // One chunk = one (n, i) input-gradient plane.
    par_chunks_mut(&mut gx, plane, os.c * k * k, |chunk_idx, gplane| {
        let n = chunk_idx / x_shape.c;
        let i = chunk_idx % x_shape.c;
        for o in 0..os.c {
            let gout_plane = gout.plane(n, o);
            let wbase = ((o * ws.c + i) * k) * k;
            let wk = &wsl[wbase..wbase + k * k];
            for oy in 0..os.h {
                for ox in 0..os.w {
                    let g = gout_plane[oy * os.w + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..k {
                        let y = (oy * p.stride + ky) as isize - p.pad as isize;
                        if y < 0 || y >= x_shape.h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let xcol = (ox * p.stride + kx) as isize - p.pad as isize;
                            if xcol < 0 || xcol >= x_shape.w as isize {
                                continue;
                            }
                            gplane[(y as usize) * x_shape.w + xcol as usize] += wk[ky * k + kx] * g;
                        }
                    }
                }
            }
        }
    });
    gx
}

/// Gradient of the loss w.r.t. the convolution **weights**.
pub fn conv2d_backward_weights(
    gout: &Tensor<f32>,
    x: &Tensor<f32>,
    w_shape: Shape4,
    p: Conv2dParams,
) -> Tensor<f32> {
    let os = gout.shape();
    let xs = x.shape();
    assert_eq!(os.c, w_shape.n);
    assert_eq!(xs.c, w_shape.c);
    let k = w_shape.h;
    let mut gw = Tensor::<f32>::zeros(w_shape);
    let per_o = w_shape.c * k * k;

    // One chunk = all weights of one output channel.
    par_chunks_mut(&mut gw, per_o, os.n * os.plane(), |o, gw_o| {
        for n in 0..os.n {
            let gout_plane = gout.plane(n, o);
            for (i, gw_oi) in gw_o.chunks_mut(k * k).enumerate() {
                let xplane = x.plane(n, i);
                for oy in 0..os.h {
                    for ox in 0..os.w {
                        let g = gout_plane[oy * os.w + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ky in 0..k {
                            let y = (oy * p.stride + ky) as isize - p.pad as isize;
                            if y < 0 || y >= xs.h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let xcol = (ox * p.stride + kx) as isize - p.pad as isize;
                                if xcol < 0 || xcol >= xs.w as isize {
                                    continue;
                                }
                                gw_oi[ky * k + kx] +=
                                    xplane[(y as usize) * xs.w + xcol as usize] * g;
                            }
                        }
                    }
                }
            }
        }
    });
    gw
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfixed::{Q8x16, Q16, Q20};

    fn seq_tensor(shape: Shape4, scale: f32) -> Tensor<f32> {
        let mut k = 0.0f32;
        Tensor::from_fn(shape, |_, _, _, _| {
            k += 1.0;
            (k % 7.0 - 3.0) * scale
        })
    }

    #[test]
    fn identity_kernel_passes_through() {
        let x = seq_tensor(Shape4::new(1, 1, 5, 5), 0.5);
        let mut w = Tensor::<f32>::zeros(Shape4::new(1, 1, 3, 3));
        w.set(0, 0, 1, 1, 1.0); // centre tap
        let y = conv2d(&x, &w, Conv2dParams::same_3x3());
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_small_case() {
        // 1x1x3x3 input, all-ones 3x3 kernel, pad 1: centre output = sum of
        // all inputs, corner output = sum of its 2x2 neighbourhood.
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 1, 3, 3), |_, _, h, w| (h * 3 + w) as f32);
        let w = Tensor::<f32>::full(Shape4::new(1, 1, 3, 3), 1.0);
        let y = conv2d(&x, &w, Conv2dParams::same_3x3());
        assert_eq!(y.get(0, 0, 1, 1), 36.0);
        assert_eq!(y.get(0, 0, 0, 0), 0.0 + 1.0 + 3.0 + 4.0);
        assert_eq!(y.get(0, 0, 2, 2), 4.0 + 5.0 + 7.0 + 8.0);
    }

    #[test]
    fn multi_channel_sums_inputs() {
        let x = Tensor::<f32>::full(Shape4::new(1, 4, 4, 4), 1.0);
        let mut w = Tensor::<f32>::zeros(Shape4::new(2, 4, 3, 3));
        for i in 0..4 {
            w.set(0, i, 1, 1, 1.0);
            w.set(1, i, 1, 1, 2.0);
        }
        let y = conv2d(&x, &w, Conv2dParams::same_3x3());
        assert_eq!(y.get(0, 0, 2, 2), 4.0);
        assert_eq!(y.get(0, 1, 2, 2), 8.0);
    }

    #[test]
    fn stride2_shapes_and_values() {
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 1, 6, 6), |_, _, h, w| (h * 6 + w) as f32);
        let mut w = Tensor::<f32>::zeros(Shape4::new(1, 1, 3, 3));
        w.set(0, 0, 1, 1, 1.0);
        let y = conv2d(&x, &w, Conv2dParams::down_3x3());
        assert_eq!(y.shape(), Shape4::new(1, 1, 3, 3));
        // Centre taps at stride 2 pick x[0,0], x[0,2], ...
        assert_eq!(y.get(0, 0, 0, 0), 0.0);
        assert_eq!(y.get(0, 0, 0, 1), 2.0);
        assert_eq!(y.get(0, 0, 1, 0), 12.0);
    }

    #[test]
    fn conv_is_linear() {
        let p = Conv2dParams::same_3x3();
        let x1 = seq_tensor(Shape4::new(1, 2, 6, 6), 0.3);
        let x2 = seq_tensor(Shape4::new(1, 2, 6, 6), -0.7);
        let w = seq_tensor(Shape4::new(3, 2, 3, 3), 0.1);
        let sum = x1.zip_map(&x2, |a, b| a + b);
        let y_sum = conv2d(&sum, &w, p);
        let y1 = conv2d(&x1, &w, p);
        let y2 = conv2d(&x2, &w, p);
        let y12 = y1.zip_map(&y2, |a, b| a + b);
        assert!(y_sum.max_abs_diff(&y12) < 1e-4);
    }

    #[test]
    fn q20_matches_f32_on_dyadic_values() {
        // Weights and inputs representable exactly in Q20; products and sums
        // stay exact, so both paths must agree to the last bit.
        let xs = Shape4::new(1, 3, 5, 5);
        let ws = Shape4::new(4, 3, 3, 3);
        let xf = Tensor::<f32>::from_fn(xs, |_, c, h, w| ((c + h + w) % 5) as f32 * 0.25 - 0.5);
        let wf = Tensor::<f32>::from_fn(ws, |o, i, kh, kw| {
            ((o + 2 * i + kh + kw) % 7) as f32 * 0.125 - 0.375
        });
        let yf = conv2d(&xf, &wf, Conv2dParams::same_3x3());
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&xf);
        let wq: Tensor<Q20> = Tensor::from_f32_tensor(&wf);
        let yq = conv2d(&xq, &wq, Conv2dParams::same_3x3());
        assert_eq!(yq.to_f32().as_slice(), yf.as_slice());
    }

    /// Central-difference gradient check for both backward kernels.
    #[test]
    fn gradients_match_finite_differences() {
        let p = Conv2dParams::same_3x3();
        let xs = Shape4::new(2, 2, 4, 4);
        let ws = Shape4::new(3, 2, 3, 3);
        let x = seq_tensor(xs, 0.17);
        let w = seq_tensor(ws, 0.09);
        // Loss = sum(conv(x, w) * r) for a fixed random-ish r.
        let os = conv2d_out_shape(xs, ws, p);
        let r = seq_tensor(os, 0.23);
        let loss = |x: &Tensor<f32>, w: &Tensor<f32>| -> f32 {
            conv2d(x, w, p)
                .as_slice()
                .iter()
                .zip(r.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let gx = conv2d_backward_input(&r, &w, xs, p);
        let gw = conv2d_backward_weights(&r, &x, ws, p);
        let eps = 1e-2f32;
        for probe in [0usize, 7, 23, xs.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[probe]).abs() < 1e-2,
                "gx[{probe}] analytic {} vs numeric {num}",
                gx.as_slice()[probe]
            );
        }
        for probe in [0usize, 11, ws.len() - 1] {
            let mut wp = w.clone();
            wp.as_mut_slice()[probe] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[probe] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.as_slice()[probe]).abs() < 1e-1,
                "gw[{probe}] analytic {} vs numeric {num}",
                gw.as_slice()[probe]
            );
        }
    }

    #[test]
    fn backward_input_transposes_stride2() {
        // Shape sanity for the downsample case.
        let p = Conv2dParams::down_3x3();
        let xs = Shape4::new(1, 2, 8, 8);
        let ws = Shape4::new(4, 2, 3, 3);
        let os = conv2d_out_shape(xs, ws, p);
        assert_eq!(os, Shape4::new(1, 4, 4, 4));
        let gout = Tensor::<f32>::full(os, 1.0);
        let w = Tensor::<f32>::full(ws, 0.5);
        let gx = conv2d_backward_input(&gout, &w, xs, p);
        assert_eq!(gx.shape(), xs);
        // Every input pixel receives at least one contribution.
        assert!(gx.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn one_by_one_kernels_are_channel_mixing() {
        // 1×1 convolution with pad 0 = per-pixel channel mix.
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 2, 3, 3), |_, c, h, w| {
            (c * 9 + h * 3 + w) as f32
        });
        let mut w = Tensor::<f32>::zeros(Shape4::new(1, 2, 1, 1));
        w.set(0, 0, 0, 0, 1.0);
        w.set(0, 1, 0, 0, 10.0);
        let y = conv2d(&x, &w, Conv2dParams { stride: 1, pad: 0 });
        assert_eq!(y.shape(), Shape4::new(1, 1, 3, 3));
        assert_eq!(y.get(0, 0, 1, 1), 4.0 + 10.0 * 13.0);
    }

    #[test]
    fn five_by_five_kernels_supported() {
        let x = Tensor::<f32>::full(Shape4::new(1, 1, 7, 7), 1.0);
        let w = Tensor::<f32>::full(Shape4::new(1, 1, 5, 5), 1.0);
        let y = conv2d(&x, &w, Conv2dParams { stride: 1, pad: 2 });
        assert_eq!(y.shape(), Shape4::new(1, 1, 7, 7));
        // Centre sees the full 25-tap window; corner sees 3×3 of it.
        assert_eq!(y.get(0, 0, 3, 3), 25.0);
        assert_eq!(y.get(0, 0, 0, 0), 9.0);
    }

    #[test]
    fn batch_dimension_independent() {
        let p = Conv2dParams::same_3x3();
        let a = seq_tensor(Shape4::new(1, 2, 4, 4), 0.2);
        let b = seq_tensor(Shape4::new(1, 2, 4, 4), -0.4);
        let w = seq_tensor(Shape4::new(2, 2, 3, 3), 0.1);
        // Concatenate a and b into one batch; outputs must match the
        // separate runs exactly.
        let mut joint = Tensor::<f32>::zeros(Shape4::new(2, 2, 4, 4));
        joint.item_mut(0).copy_from_slice(a.as_slice());
        joint.item_mut(1).copy_from_slice(b.as_slice());
        let yj = conv2d(&joint, &w, p);
        let ya = conv2d(&a, &w, p);
        let yb = conv2d(&b, &w, p);
        assert_eq!(yj.item(0), ya.as_slice());
        assert_eq!(yj.item(1), yb.as_slice());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let x = Tensor::<f32>::zeros(Shape4::new(1, 3, 4, 4));
        let w = Tensor::<f32>::zeros(Shape4::new(2, 4, 3, 3));
        let _ = conv2d(&x, &w, Conv2dParams::same_3x3());
    }

    #[test]
    fn fast_path_matches_reference_f32() {
        // Geometry sweep over both hot strides, odd/even extents, and a
        // border-dominated 4×4 map; outputs must be bit-identical.
        for (c, o, h, w) in [(1, 1, 4, 4), (3, 5, 7, 9), (16, 16, 8, 8), (2, 3, 1, 1)] {
            for p in [Conv2dParams::same_3x3(), Conv2dParams::down_3x3()] {
                let x = seq_tensor(Shape4::new(2, c, h, w), 0.13);
                let wt = seq_tensor(Shape4::new(o, c, 3, 3), 0.07);
                let fast = conv2d_im2col_3x3(&x, &wt, p);
                let reference = conv2d_reference(&x, &wt, p);
                assert_eq!(
                    fast.as_slice(),
                    reference.as_slice(),
                    "c={c} o={o} h={h} w={w} stride={}",
                    p.stride
                );
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_fixed_point() {
        let x = seq_tensor(Shape4::new(1, 4, 6, 5), 0.21);
        let wt = seq_tensor(Shape4::new(3, 4, 3, 3), 0.11);
        for p in [Conv2dParams::same_3x3(), Conv2dParams::down_3x3()] {
            let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
            let wq: Tensor<Q20> = Tensor::from_f32_tensor(&wt);
            assert_eq!(
                conv2d_im2col_3x3(&xq, &wq, p).as_slice(),
                conv2d_reference(&xq, &wq, p).as_slice()
            );
            let x16: Tensor<Q16> = Tensor::from_f32_tensor(&x);
            let w16: Tensor<Q16> = Tensor::from_f32_tensor(&wt);
            assert_eq!(
                conv2d_im2col_3x3(&x16, &w16, p).as_slice(),
                conv2d_reference(&x16, &w16, p).as_slice()
            );
        }
    }

    /// Raw fixed-point words from the whole `i32` range, extremes first,
    /// in a fixed scrambled order.
    fn raw_words(len: usize, salt: u32) -> Vec<i32> {
        const EXTREMES: [i32; 6] = [i32::MIN, i32::MAX, -1, 0, i16::MIN as i32, i16::MAX as i32];
        (0..len as u32)
            .map(|k| {
                let h = (k ^ salt).wrapping_mul(0x9E37_79B9).rotate_left(13);
                match h % 4 {
                    0 => EXTREMES[(h as usize / 4) % EXTREMES.len()],
                    _ => h.wrapping_mul(0x85EB_CA6B) as i32,
                }
            })
            .collect()
    }

    #[test]
    fn fast_path_matches_reference_on_wrapping_fixed_point() {
        // Raw bit patterns make the wide accumulator wrap, so a wrong
        // correction term in the offset-binary GEMM cannot hide. O = 5
        // leaves a 1-row block, and 12×12 = 144 pixels a 16-pixel strip.
        for p in [Conv2dParams::same_3x3(), Conv2dParams::down_3x3()] {
            let (xs, ws) = (Shape4::new(2, 3, 12, 12), Shape4::new(5, 3, 3, 3));
            let xw = raw_words(xs.len(), 1);
            let ww = raw_words(ws.len(), 2);
            let xq = Tensor::from_vec(xs, xw.iter().map(|&b| Q20::from_bits(b)).collect());
            let wq = Tensor::from_vec(ws, ww.iter().map(|&b| Q20::from_bits(b)).collect());
            assert_eq!(
                conv2d_im2col_3x3(&xq, &wq, p).as_slice(),
                conv2d_reference(&xq, &wq, p).as_slice(),
                "Q20 stride {}",
                p.stride
            );
            let x16 =
                Tensor::from_vec(xs, xw.iter().map(|&b| Q8x16::from_bits(b as i16)).collect());
            let w16 =
                Tensor::from_vec(ws, ww.iter().map(|&b| Q8x16::from_bits(b as i16)).collect());
            assert_eq!(
                conv2d_im2col_3x3(&x16, &w16, p).as_slice(),
                conv2d_reference(&x16, &w16, p).as_slice(),
                "Q8x16 stride {}",
                p.stride
            );
        }
        // All-`i32::MIN` words: every product is 2^62, so the 36-tap
        // centre sum is 9·2^64 and wraps to exactly zero.
        let x = Tensor::<Q20>::full(Shape4::new(1, 4, 3, 3), Q20::from_bits(i32::MIN));
        let w = Tensor::<Q20>::full(Shape4::new(1, 4, 3, 3), Q20::from_bits(i32::MIN));
        let y = conv2d_im2col_3x3(&x, &w, Conv2dParams::same_3x3());
        assert_eq!(y.get(0, 0, 1, 1), Q20::ZERO);
        assert_eq!(
            y.as_slice(),
            conv2d_reference(&x, &w, Conv2dParams::same_3x3()).as_slice()
        );
    }

    #[test]
    fn force_reference_toggle_routes_dispatch() {
        // Both routes are bit-identical, so this only checks the toggle
        // round-trips and conv2d still works under it.
        let x = seq_tensor(Shape4::new(1, 2, 5, 5), 0.3);
        let w = seq_tensor(Shape4::new(2, 2, 3, 3), 0.2);
        let fast = conv2d(&x, &w, Conv2dParams::same_3x3());
        set_force_reference(true);
        assert!(force_reference());
        let slow = conv2d(&x, &w, Conv2dParams::same_3x3());
        set_force_reference(false);
        assert!(!force_reference());
        assert_eq!(fast.as_slice(), slow.as_slice());
    }
}
