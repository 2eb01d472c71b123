//! Monotonic counters with a process-wide registry.
//!
//! A [`Counter`] is declared as a `static`, so the instrumentation point
//! pays no lookup: `static ITEMS: Counter = Counter::new("executor.items")`
//! and `ITEMS.inc()` compiles to one relaxed `fetch_add` plus one relaxed
//! load (the registration check). The first increment pushes the counter
//! into the global registry, which [`counters`] snapshots for footers and
//! trace flushes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A process-wide monotonic counter. Always on (not gated on the trace
/// sink): the registry snapshot is what the harness footer prints even
/// when no trace is being written.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

fn registry() -> &'static Mutex<Vec<&'static Counter>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

impl Counter {
    /// A zeroed, unregistered counter; `const` so it can be a `static`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name (dotted, e.g. `"executor.items"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (relaxed). Registers the counter on first use.
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// Adds one (relaxed).
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Raises the value to at least `v` (relaxed `fetch_max`). Registers
    /// the counter on first use.
    ///
    /// This turns a counter slot into a high-water-mark gauge (e.g. the
    /// engine's frontier-arena peak): concurrent `record_max` calls from
    /// many workers converge on the global maximum. Don't mix `add` and
    /// `record_max` on one counter — the registry snapshot would be neither
    /// a sum nor a maximum.
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Pushes the counter into the global registry exactly once.
    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(self);
        }
    }
}

/// Snapshot of every registered (= touched at least once) counter, sorted
/// by name. Values are read relaxed, so concurrent increments may or may
/// not be visible — fine for footers and trace flushes.
pub fn counters() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|c| (c.name, c.get()))
        .collect();
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_registers_once() {
        static HITS: Counter = Counter::new("test.hits");
        assert_eq!(HITS.get(), 0);
        HITS.inc();
        HITS.add(4);
        assert_eq!(HITS.get(), 5);
        let snap = counters();
        assert_eq!(
            snap.iter().filter(|(n, _)| *n == "test.hits").count(),
            1,
            "registered exactly once: {snap:?}"
        );
    }

    #[test]
    fn record_max_is_a_high_water_mark() {
        static PEAK: Counter = Counter::new("test.peak");
        PEAK.record_max(7);
        PEAK.record_max(3);
        assert_eq!(PEAK.get(), 7);
        PEAK.record_max(12);
        assert_eq!(PEAK.get(), 12);
        assert!(counters()
            .iter()
            .any(|(n, v)| *n == "test.peak" && *v == 12));
    }

    #[test]
    fn untouched_counters_stay_out_of_the_registry() {
        static NEVER: Counter = Counter::new("test.never-touched");
        assert_eq!(NEVER.get(), 0);
        assert!(counters().iter().all(|(n, _)| *n != "test.never-touched"));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        static B: Counter = Counter::new("test.sort-b");
        static A: Counter = Counter::new("test.sort-a");
        B.inc();
        A.inc();
        let snap = counters();
        let names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        static RACE: Counter = Counter::new("test.race");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        RACE.inc();
                    }
                });
            }
        });
        assert_eq!(RACE.get(), 4000);
    }
}
