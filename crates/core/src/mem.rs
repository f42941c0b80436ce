//! Process memory introspection for the scaling benchmarks and per-round
//! History columns.
//!
//! Linux only, as the whole crate is (see `comm::sys`): resident-set figures
//! come from `/proc/self/status` (`VmRSS` = current resident bytes, `VmHWM` =
//! the high-water mark since the last peak reset), and a query that cannot
//! read it returns 0.

/// Current resident set size in bytes (0 when unavailable).
pub fn current_rss_bytes() -> u64 {
    read_status_fields(["VmRSS:"])[0] * 1024
}

/// Peak resident set size in bytes since process start or the last
/// [`reset_peak_rss`] (0 when unavailable).
pub fn peak_rss_bytes() -> u64 {
    read_status_fields(["VmHWM:"])[0] * 1024
}

/// [`current_rss_bytes`] and [`peak_rss_bytes`] from one read of
/// `/proc/self/status`.
pub fn rss_and_peak_bytes() -> (u64, u64) {
    let [rss, peak] = read_status_fields(["VmRSS:", "VmHWM:"]);
    (rss * 1024, peak * 1024)
}

/// Kernel threads in this process (`Threads:` in `/proc/self/status`;
/// 0 when unavailable). The connection-scaling bench gates on this: an
/// event-driven server holds a fixed thread budget at any connection
/// count, where thread-per-connection grows linearly.
pub fn thread_count() -> u64 {
    read_status_fields(["Threads:"])[0]
}

/// Raises the soft open-file limit (`RLIMIT_NOFILE`) toward `want`,
/// capped at the process's hard limit, and returns the resulting soft
/// limit — `None` when the query fails. A 4096-connection bench leg holds
/// both socket ends in one process, far past the conventional
/// 1024-descriptor default.
pub fn raise_fd_limit(want: u64) -> Option<u64> {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, properly aligned `repr(C)` rlimit struct
    // matching the kernel ABI on 64-bit Linux (`rlim_t` = u64).
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return None;
    }
    let target = want.min(lim.max);
    if target > lim.cur {
        lim.cur = target;
        // SAFETY: `lim` stays valid for the duration of the call; the
        // soft limit never exceeds the hard limit read above.
        if unsafe { setrlimit(RLIMIT_NOFILE, &lim) } != 0 {
            return None;
        }
    }
    Some(lim.cur)
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) so per-leg peaks can be
/// measured inside one process. Returns `false` when the kernel refuses
/// (before Linux 4.0); callers must then treat `peak_rss_bytes` as a
/// whole-process maximum.
pub fn reset_peak_rss() -> bool {
    // Writing "5" to clear_refs resets VmHWM.
    std::fs::write("/proc/self/clear_refs", "5\n").is_ok()
}

/// The number after each of `keys` in `/proc/self/status`, 0 for a key
/// it lacks.
fn read_status_fields<const N: usize>(keys: [&str; N]) -> [u64; N] {
    let mut out = [0; N];
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return out;
    };
    for line in status.lines() {
        for (key, v) in keys.iter().zip(&mut out) {
            if let Some(rest) = line.strip_prefix(key) {
                // "VmRSS:      123456 kB"
                *v = rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_and_peak_parse_on_linux() {
        // Note: no `peak >= rss` assertion — a concurrent test calling
        // `reset_peak_rss` would make that racy within one process.
        assert!(current_rss_bytes() > 0, "VmRSS should parse on Linux");
        assert!(peak_rss_bytes() > 0, "VmHWM should parse on Linux");
        let (rss, peak) = rss_and_peak_bytes();
        assert!(rss > 0 && peak > 0, "one read parses both");
    }

    #[test]
    fn queries_never_panic() {
        let _ = current_rss_bytes();
        let _ = peak_rss_bytes();
        let _ = rss_and_peak_bytes();
        let _ = reset_peak_rss();
        let _ = raise_fd_limit(0);
    }

    #[test]
    fn thread_count_sees_this_thread() {
        assert!(thread_count() >= 1, "Threads: should parse on Linux");
    }

    #[test]
    fn fd_limit_raise_is_monotone() {
        // `want=0` never lowers the limit; a modest raise either succeeds
        // or reports the hard cap — both return the effective soft limit.
        let before = raise_fd_limit(0).expect("getrlimit works on Linux");
        let after = raise_fd_limit(before).expect("setrlimit works on Linux");
        assert!(after >= before);
    }
}
