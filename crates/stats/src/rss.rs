//! Process-memory accounting for `pahoehoe-sim` and the benchmark.
//!
//! Reads the Linux `/proc/self/status` counters: `VmRSS` (current
//! resident set) and `VmHWM` (the high-water mark). `VmHWM` is monotone
//! for the life of the process, which is why `scripts/scale.sh` runs each
//! grid cell as its own `pahoehoe-sim` process — that process's
//! high-water mark *is* the cell's peak. On non-Linux platforms both
//! readers return `None`.

/// Current resident-set size in bytes (`VmRSS`), if the platform exposes
/// it.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_field("VmRSS:")
}

/// Peak resident-set size in bytes (`VmHWM`) — the process-lifetime
/// high-water mark — if the platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_field("VmHWM:")
}

#[cfg(target_os = "linux")]
fn read_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    // Format: "VmRSS:      123456 kB".
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

#[cfg(not(target_os = "linux"))]
fn read_status_field(_field: &str) -> Option<u64> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn rss_counters_are_positive_and_ordered() {
        let rss = current_rss_bytes().expect("linux exposes VmRSS");
        let peak = peak_rss_bytes().expect("linux exposes VmHWM");
        assert!(rss > 0);
        assert!(
            peak >= rss / 2,
            "HWM {peak} should be near or above RSS {rss}"
        );
    }

    #[test]
    fn peak_reflects_allocation() {
        let before = peak_rss_bytes().unwrap();
        let block = vec![0xa5u8; 64 * 1024 * 1024];
        std::hint::black_box(&block);
        let after = peak_rss_bytes().unwrap();
        assert!(
            after >= before,
            "high-water mark is monotone: {before} -> {after}"
        );
    }
}
