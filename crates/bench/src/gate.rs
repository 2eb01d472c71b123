//! Shared helpers for the wall-clock gates under `benches/` (`incremental`
//! and `scaling`): one timer and one peak-RSS column, so each gate's JSON
//! report records how much resident memory its run actually touched.

use std::time::Instant;

/// Best-of-`reps` wall-clock milliseconds for `f`. Each result goes
/// through [`std::hint::black_box`] so the timed work cannot be elided.
pub fn time_best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// An optional count as a JSON value: the number, or `null` when absent.
pub fn json_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |b| b.to_string())
}

/// Peak resident-set size of this process in bytes, best effort.
///
/// On Linux this reads the `VmHWM` (high-water mark) line of
/// `/proc/self/status`. The kernel maintains the mark for the whole
/// process lifetime, so a bench that runs several gates in one process
/// would record the same (global) maximum in every gate. To attribute a
/// peak to one gate, call [`reset_peak_rss`] immediately before it and
/// sample here immediately after; where the reset is unsupported, the
/// value degrades to the lifetime mark (still an upper bound). Returns
/// `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Resets the process peak-RSS high-water mark so the next
/// [`peak_rss_bytes`] read reflects only allocation *since this call* —
/// how a bench with several measured arms attributes a peak to each.
///
/// On Linux, writing `"5"` to `/proc/self/clear_refs` asks the kernel to
/// reset `VmHWM` (and `VmPeak`) to the current usage. Returns whether the
/// reset took effect; callers should treat `false` as "the subsequent
/// reading is a lifetime upper bound, not a per-gate figure".
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_a_positive_peak() {
        let hwm = peak_rss_bytes().expect("procfs should be readable on linux");
        // any running process has at least a page resident
        assert!(hwm > 4096, "implausible peak {hwm}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_is_monotone_under_allocation() {
        let before = peak_rss_bytes().unwrap();
        // touch 32 MiB so the high-water mark cannot be below that
        let block = vec![7u8; 32 << 20];
        assert!(block.iter().map(|&b| b as u64).sum::<u64>() > 0);
        let after = peak_rss_bytes().unwrap();
        assert!(after >= before, "HWM regressed: {before} -> {after}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reset_drops_the_mark_to_current_usage() {
        // inflate the mark well above steady-state usage...
        let block = vec![3u8; 64 << 20];
        assert!(block.iter().map(|&b| b as u64).sum::<u64>() > 0);
        drop(block);
        let before = peak_rss_bytes().unwrap();
        if reset_peak_rss() {
            // ...then a successful reset may only lower (never raise) it
            let after = peak_rss_bytes().unwrap();
            assert!(after <= before, "reset raised HWM: {before} -> {after}");
        }
    }

    #[test]
    fn best_of_reps_is_a_finite_minimum() {
        let mut calls = 0;
        let ms = time_best_ms(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(ms.is_finite() && ms >= 0.0, "bad timing {ms}");
        assert_eq!(json_u64(Some(7)), "7");
        assert_eq!(json_u64(None), "null");
    }
}
