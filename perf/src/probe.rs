//! The host-speed probe: a fixed piece of the benchmark's own code,
//! timed next to every timed stretch of a CPU-bound workload so that
//! stretch can be scaled to a reference host speed.
//!
//! The host the benchmark runs on is shared, and its speed drifts by up
//! to 1.5× for minutes at a time: over ten 25-second runs of the soak,
//! the median round took 0.26 ms in some and 0.40 ms in others. Such
//! drift cannot be averaged away within a run. It does not slow every
//! kind of code alike: a dependent multiply chain and a pointer chase
//! through a preloaded table barely moved, while sorting and hashing
//! moved with the workloads (10-second window medians correlated at
//! 0.98 with the soak's). So the probe sorts and hashes, and each
//! stretch is scaled by `REFERENCE_MS / probe`: over 25-second windows
//! of one 300-second soak, the quartile spread of the median round was
//! 0.138 of the median before scaling and 0.007 after.

use crate::inputs::derive;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The probe's time on the reference host (the 2-vCPU host described
/// in the README) when other tenants leave it alone.
pub const REFERENCE_MS: f64 = 0.9;

/// Keys sorted per probe.
const SORT_KEYS: u64 = 25_000;
/// Keys inserted into, then looked up in, a fresh map per probe.
const MAP_KEYS: u64 = 12_500;

/// The probe's fixed input, the same for every seed and workload.
fn keys() -> &'static [u32] {
    static KEYS: OnceLock<Vec<u32>> = OnceLock::new();
    KEYS.get_or_init(|| (0..SORT_KEYS).map(|i| derive(0, 0, i) as u32).collect())
}

/// Runs the probe once and returns its wall time in milliseconds: a
/// sort of 25 000 shuffled keys plus 12 500 inserts and lookups in a
/// fresh `HashMap`.
pub fn run() -> f64 {
    let mut sorted = keys().to_vec();
    let start = Instant::now();
    sorted.sort_unstable();
    let mut map = HashMap::new();
    for i in 0..MAP_KEYS {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
    }
    let mut sum = 0u64;
    for i in 0..MAP_KEYS {
        sum = sum.wrapping_add(map[&i.wrapping_mul(0x9E37_79B9_7F4A_7C15)]);
    }
    black_box((&sorted, sum));
    start.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a time measured next to a probe that took
/// `probe_ms` to the reference host speed.
pub fn scale(probe_ms: f64) -> f64 {
    REFERENCE_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_input_is_fixed_and_the_scale_is_relative_to_the_reference() {
        assert_eq!(keys().len(), SORT_KEYS as usize);
        assert_eq!(keys()[1], derive(0, 0, 1) as u32);
        assert!(run() > 0.0);
        assert_eq!(scale(REFERENCE_MS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_MS), 0.5);
    }
}
