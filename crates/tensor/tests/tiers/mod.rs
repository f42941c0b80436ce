//! The SIMD tiers a test binary runs, and the lock that holds the
//! process-wide tier and thread budget for one check. Shared by the oracle
//! and equivalence tests (`rfl-nn`'s `lstm_oracle.rs` includes it by path).

#![allow(dead_code)]

use rfl_tensor::simd::{set_simd_tier, simd_tier, Tier};
use rfl_tensor::{set_thread_budget, thread_budget};
use std::io::Write;
use std::sync::{Mutex, MutexGuard, Once};

/// Of `wanted`, the tiers this CPU runs. A missing one is reported once per
/// test binary, on stderr directly rather than through `eprintln!`, which
/// the test harness captures, so a CI log says which tiers ran.
pub fn available(wanted: &[Tier]) -> Vec<Tier> {
    static REPORT: Once = Once::new();
    let (run, skip): (Vec<Tier>, Vec<Tier>) = wanted.iter().copied().partition(|t| t.available());
    REPORT.call_once(|| {
        for t in &skip {
            let _ = writeln!(
                std::io::stderr(),
                "{}: skipped the {} tier: this CPU lacks its features",
                env!("CARGO_CRATE_NAME"),
                t.name()
            );
        }
    });
    run
}

/// The process-wide tier and thread budget, held for one check: sibling
/// tests cannot switch them while this lives, so a failure names the tier
/// that ran. The check starts on the scalar tier — an oracle computed
/// through the dispatched kernels runs the plain bodies — and dropping this
/// restores both settings. (A check that failed poisons the lock; the next
/// one goes on.)
pub struct Settings {
    tier: Tier,
    threads: usize,
    _guard: MutexGuard<'static, ()>,
}

impl Settings {
    pub fn hold() -> Settings {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let held = Settings {
            tier: simd_tier(),
            threads: thread_budget(),
            _guard: guard,
        };
        set_simd_tier(Tier::Scalar);
        held
    }
}

impl Drop for Settings {
    fn drop(&mut self) {
        set_simd_tier(self.tier);
        set_thread_budget(self.threads);
    }
}
