//! What the run can say about the machine it ran on.

use std::time::{Duration, Instant};

/// A fixed sort-and-hash kernel (≈ 50 ms on the bench host) that touches
/// no code of the program under test. Timed before and after a workload,
/// it tells a reader whether the host itself changed speed meanwhile.
pub fn ref_kernel() -> Duration {
    let t = Instant::now();
    let mut rng = crate::workload::Rng::new(0x4B45_524E);
    let mut v: Vec<u64> = (0..1_500_000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..8 {
        for x in &v {
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    std::hint::black_box(h);
    t.elapsed()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc` and kernel release, for the header of every report.
pub fn stamp() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    format!("nproc={cpus} kernel={kernel}")
}
