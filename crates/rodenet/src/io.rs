//! Weight checkpointing: a small self-describing binary format so trained
//! networks survive the process (the deployment flow is train once,
//! predict many times — the weights must be persistable without pulling
//! in a serialization framework).
//!
//! Format (all little-endian):
//!
//! ```text
//! magic   "RODN"            4 bytes
//! version u32                = 1
//! variant u32                (index into Variant::ALL)
//! n       u32
//! classes u32
//! seedless param blob: for every parameter group in visit_params order:
//!   len   u32
//!   data  len × f32
//! ```
//!
//! Running statistics are saved as additional trailing groups in a fixed
//! order so that `BnMode::Running` inference reproduces exactly.

use crate::arch::{NetSpec, Variant};
use crate::model::Network;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"RODN";
const VERSION: u32 = 1;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_f32s(w: &mut impl Write, data: &[f32]) -> io::Result<()> {
    write_u32(w, data.len() as u32)?;
    for v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s(r: &mut impl Read, expect_len: usize) -> io::Result<Vec<f32>> {
    let len = read_u32(r)? as usize;
    if len != expect_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("parameter group length {len} does not match the architecture ({expect_len})"),
        ));
    }
    let mut out = Vec::with_capacity(len);
    let mut b = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

/// Collect the running statistics groups in a fixed traversal order.
fn running_stats(net: &mut Network) -> Vec<Vec<f32>> {
    let mut groups = Vec::new();
    groups.push(net.pre.bn_running().0.to_vec());
    groups.push(net.pre.bn_running().1.to_vec());
    for stage in &net.stages {
        for block in &stage.blocks {
            groups.push(block.bn1.running_mean.clone());
            groups.push(block.bn1.running_var.clone());
            groups.push(block.bn2.running_mean.clone());
            groups.push(block.bn2.running_var.clone());
        }
    }
    groups
}

/// Serialize the network's weights (and running statistics) to a writer.
pub fn save(net: &mut Network, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    let variant_idx = Variant::ALL
        .iter()
        .position(|&v| v == net.spec.variant)
        .expect("variant is always one of the seven") as u32;
    write_u32(w, variant_idx)?;
    write_u32(w, net.spec.n as u32)?;
    write_u32(w, net.spec.classes as u32)?;
    let mut groups: Vec<Vec<f32>> = Vec::new();
    net.visit_params(&mut |p| groups.push(p.w.to_vec()));
    for g in &groups {
        write_f32s(w, g)?;
    }
    for g in running_stats(net) {
        write_f32s(w, &g)?;
    }
    Ok(())
}

/// Deserialize a network saved by [`save`].
pub fn load(r: &mut impl Read) -> io::Result<Network> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a RODN checkpoint",
        ));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let variant = Variant::ALL
        .get(read_u32(r)? as usize)
        .copied()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad variant index"))?;
    let n = read_u32(r)? as usize;
    let classes = read_u32(r)? as usize;
    let spec = NetSpec::try_new(variant, n, classes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut net = Network::new(spec, 0);
    // Parameters.
    let mut err: Option<io::Error> = None;
    net.visit_params(&mut |p| {
        if err.is_some() {
            return;
        }
        match read_f32s(r, p.w.len()) {
            Ok(vals) => p.w.copy_from_slice(&vals),
            Err(e) => err = Some(e),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    // Running statistics, same order as `running_stats`.
    {
        let (m, v) = net.pre.bn_running_mut();
        let mv = read_f32s(r, m.len())?;
        m.copy_from_slice(&mv);
        let vv = read_f32s(r, v.len())?;
        v.copy_from_slice(&vv);
    }
    for stage in &mut net.stages {
        for block in &mut stage.blocks {
            let g = read_f32s(r, block.bn1.running_mean.len())?;
            block.bn1.running_mean.copy_from_slice(&g);
            let g = read_f32s(r, block.bn1.running_var.len())?;
            block.bn1.running_var.copy_from_slice(&g);
            let g = read_f32s(r, block.bn2.running_mean.len())?;
            block.bn2.running_mean.copy_from_slice(&g);
            let g = read_f32s(r, block.bn2.running_var.len())?;
            block.bn2.running_var.copy_from_slice(&g);
        }
    }
    Ok(net)
}

/// Save to a file path.
pub fn save_file(net: &mut Network, path: impl AsRef<Path>) -> io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    save(net, &mut f)
}

/// Load from a file path.
pub fn load_file(path: impl AsRef<Path>) -> io::Result<Network> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    load(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BnMode;
    use tensor::{Shape4, Tensor};

    fn probe_net() -> Network {
        Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(7), 99)
    }

    #[test]
    fn roundtrip_preserves_outputs_exactly() {
        let mut net = probe_net();
        let mut buf = Vec::new();
        save(&mut net, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice()).unwrap();
        let x = Tensor::<f32>::from_fn(Shape4::new(1, 3, 16, 16), |_, c, h, w| {
            ((c * 31 + h * 7 + w) % 13) as f32 * 0.1 - 0.6
        });
        let a = net.forward(&x, BnMode::OnTheFly);
        let b = loaded.forward(&x, BnMode::OnTheFly);
        assert_eq!(a.as_slice(), b.as_slice(), "bit-identical after reload");
        assert_eq!(loaded.spec, net.spec);
    }

    #[test]
    fn roundtrip_preserves_running_stats() {
        let mut net = probe_net();
        // Perturb running stats so the test is not vacuous.
        net.stages[0].blocks[0].bn1.running_mean[3] = 1.25;
        net.stages[0].blocks[0].bn2.running_var[5] = 9.5;
        let mut buf = Vec::new();
        save(&mut net, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.stages[0].blocks[0].bn1.running_mean[3], 1.25);
        assert_eq!(loaded.stages[0].blocks[0].bn2.running_var[5], 9.5);
    }

    #[test]
    fn rejects_bad_magic() {
        match load(&mut &b"XXXX0000"[..]) {
            Ok(_) => panic!("bad magic must be rejected"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn rejects_truncated() {
        let mut net = probe_net();
        let mut buf = Vec::new();
        save(&mut net, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        if load(&mut buf.as_slice()).is_ok() {
            panic!("truncated checkpoint must be rejected");
        }
    }

    #[test]
    fn invalid_header_is_an_error_not_a_panic() {
        let mut net = probe_net();
        let mut buf = Vec::new();
        save(&mut net, &mut buf).unwrap();
        // Header: magic, version, variant, then `n` at 12 and `classes`
        // at 16. Depth 15 fails the divisibility rule, 13 the minimum,
        // and one class the classifier rule. Depth 1208 passes every
        // divisibility rule but exceeds MAX_DEPTH, and u32::MAX classes
        // (a 1 TiB classifier) exceeds MAX_CLASSES.
        for (offset, value) in [(12, 15u32), (12, 13), (16, 1), (12, 1208), (16, u32::MAX)] {
            let mut bad = buf.clone();
            bad[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            match load(&mut bad.as_slice()) {
                Ok(_) => panic!("header field {offset} = {value} must be rejected"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            }
        }
    }

    /// Mutation test: truncations of a valid checkpoint (at every header
    /// byte, then at random points) and random single-byte corruptions, load as an `io::Error` or a network
    /// of bounded size — never a panic. Truncations must always fail. A
    /// corrupted weight is still a well-formed checkpoint (the format has
    /// no checksum), so a flip may load; a flip in a header or length
    /// field must not panic or allocate past the spec limits.
    #[test]
    fn corrupted_checkpoints_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut net = probe_net();
        let mut buf = Vec::new();
        save(&mut net, &mut buf).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let cuts = (0..64).chain((0..300).map(|_| rng.random_range(64..buf.len())));
        for len in cuts.collect::<Vec<_>>() {
            assert!(
                load(&mut &buf[..len]).is_err(),
                "a checkpoint truncated to {len} bytes must be rejected"
            );
        }
        for _ in 0..1000 {
            let mut bad = buf.clone();
            // Half the flips land in the 20-byte header or the first
            // length field, where they change the architecture read.
            let at = if rng.random::<bool>() {
                rng.random_range(0..24)
            } else {
                rng.random_range(0..buf.len())
            };
            bad[at] ^= rng.random_range(1..=255u8);
            if let Ok(loaded) = load(&mut bad.as_slice()) {
                assert!(loaded.spec.n <= crate::arch::MAX_DEPTH);
                assert!(loaded.spec.classes <= crate::arch::MAX_CLASSES);
            }
        }
    }

    #[test]
    fn file_helpers() {
        let mut net = probe_net();
        let dir = std::env::temp_dir().join("rodenet_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.rodn");
        save_file(&mut net, &path).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.param_count(), net.param_count());
        let _ = std::fs::remove_file(path);
    }
}
