//! The machine-speed probe.
//!
//! The benchmark shares its machine with other tenants, and their load
//! slows every thread here by up to half for seconds to minutes at a time:
//! too long for medians within one run to absorb. So each timed repetition
//! is bracketed by a fixed kernel that uses the same resources as the
//! workloads (hash-map inserts with small allocations, and a sort of an
//! 8 MB array) on every worker. A slowed machine slows the probe too, and
//! each timing is reported as `measured × REFERENCE_S / probe`: seconds on
//! the quiet machine the baseline was measured on.
//!
//! The kernel lives in the benchmark's own files and calls no repository
//! code, so a change to the program under test cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the quiet reference machine (2 vCPUs of an Intel
/// Xeon at 2.1 GHz, both busy with the probe).
pub const REFERENCE_S: f64 = 0.030;

/// One run of the kernel on `workers` threads; returns its wall time.
fn kernel(workers: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            scope.spawn(move || {
                let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ worker as u64;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
                for i in 0..300_000_u32 {
                    buckets.entry(next() % 8192).or_default().push(i);
                }
                let mut keys: Vec<u64> = (0..1_000_000).map(|_| next()).collect();
                keys.sort_unstable();
                black_box((buckets.len(), keys[keys.len() / 2]));
            });
        }
    });
    started.elapsed().as_secs_f64()
}

/// The machine's current speed, as the median of five kernel runs.
pub fn measure(workers: usize) -> f64 {
    let mut runs: Vec<f64> = (0..5).map(|_| kernel(workers)).collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}
