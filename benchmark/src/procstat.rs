//! CPU time of this process from `/proc/self/stat`.

/// `utime`/`stime` are reported in clock ticks of `USER_HZ`, which is 100
/// on every Linux ABI this repo builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds consumed so far by all threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub user: f64,
    pub sys: f64,
}

impl CpuTimes {
    /// Reads the counters; zeros where `/proc` is unavailable (the CPU
    /// metrics then fail the "never 0" rule loudly instead of lying).
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    pub fn total(&self) -> f64 {
        self.user + self.sys
    }
}

/// Fields 14 and 15 of `/proc/<pid>/stat`, counted after the parenthesized
/// command name (which may itself contain spaces and parentheses).
fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // `after_comm` starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user: utime / TICKS_PER_SEC,
        sys: stime / TICKS_PER_SEC,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fields_after_a_hostile_command_name() {
        let line = "4242 (rfl bench) x) S 1 4242 4242 0 -1 4194304 1204 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        let t = parse_stat(line).expect("parses");
        assert_eq!(t.user, 12.34);
        assert_eq!(t.sys, 0.56);
        assert!((t.total() - 12.9).abs() < 1e-12);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = CpuTimes::now();
        let mut acc = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(7));
        }
        let spent = CpuTimes::now().since(&before);
        assert!(spent.total() > 0.0, "a 60 ms spin must register a tick");
    }
}
