//! Host-speed calibration. On a shared virtual machine the host's speed
//! drifts by up to half again over seconds-long stretches, so every
//! timed call is followed by a fixed reference computation, independent
//! of the code under test, and reported at reference speed:
//! `seconds * NOMINAL_S / r`, where `r` is the median of the last few
//! reference times. A change to the code moves that figure; a change in
//! the host's speed moves both and cancels.

use crate::stats::median;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// The reference time that defines reference speed.
pub const NOMINAL_S: f64 = 0.010;

/// Words in the reference's working set (256 KiB, about an L2's worth).
const WORDS: usize = 1 << 16;

/// Host seconds of one reference run on the calling thread, so on the
/// core the timed calls run on.
pub fn reference_seconds() -> f64 {
    let t = Instant::now();
    black_box(spin(0));
    t.elapsed().as_secs_f64()
}

/// Reference runs the speed estimate takes its median over: enough to
/// damp one run's jitter, few enough to follow a drift that lasts
/// seconds.
const WINDOW: usize = 5;

/// Converts host seconds timed between reference runs to reference
/// speed.
pub struct Scale {
    recent: VecDeque<f64>,
}

impl Scale {
    /// Start with one reference run.
    pub fn start() -> Self {
        Scale {
            recent: VecDeque::from([reference_seconds()]),
        }
    }

    /// Run the reference once more and return the factor to apply to the
    /// host seconds timed since the previous run: `NOMINAL_S` over the
    /// median of the last `WINDOW` reference times.
    pub fn next(&mut self) -> f64 {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(reference_seconds());
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        NOMINAL_S / median(&recent)
    }
}

/// Branchy, cache-resident integer work: scramble and sort 64 Ki words.
fn spin(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut v: Vec<u32> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let mut acc = 0u64;
    for round in 0..8u32 {
        for e in v.iter_mut() {
            *e = e.rotate_left(round + 1) ^ round;
        }
        v.sort_unstable();
        acc = acc.wrapping_add(u64::from(v[WORDS / 2]));
    }
    acc
}
