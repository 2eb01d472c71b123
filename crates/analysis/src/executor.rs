//! Scoped fork/join executor.
//!
//! This is the runtime behind [`crate::par_map`] / [`crate::par_map_with`].
//! The all-pairs work it serves is independent per item, so one map is a
//! plain fork/join over [`std::thread::scope`]:
//!
//! * **one claim cursor** — the caller and its helpers claim item indices
//!   from one shared atomic cursor, so uneven items balance, and results
//!   are put back in input order however the claims interleaved;
//! * **one scratch per participant** — each participant builds its scratch
//!   with `init` once and reuses it for every item it claims;
//! * **helper permits** — an executor of `threads = t` holds `t − 1`
//!   helper permits. A map takes as many free permits as it can use (at
//!   most `n − 1`), starts that many scoped helpers, and returns the
//!   permits after joining them, so at no time do more than `t − 1`
//!   helpers exist. A map that finds no free permit — a nested map inside
//!   a busy outer map, or a second owner thread — runs inline on its
//!   caller. [`global`] is the only production instance, so in production
//!   the cap is process-wide;
//! * **panic propagation** — a panicking item stops further claims, and
//!   its payload is re-raised on the caller through `join` +
//!   `resume_unwind`, nesting included;
//! * **task counters** — helpers inherit the caller's
//!   [`with_task_counter`] tag, so nested work is attributed to the owner;
//! * **`OMNET_THREADS` override** — sizes [`global`] (`1` forces the fully
//!   serial path; unset/invalid means one participant per available core).
//!
//! Known limit: permits move only at fork and join. A lane that runs out of
//! items cannot lend its thread to an inner map that is already running
//! inline on another lane (DESIGN.md §10.1).

use omnet_obs::Counter;
use std::cell::RefCell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

/// Per-batch instrumentation counter; see [`with_task_counter`].
pub type TaskCounter = Arc<AtomicU64>;

// Process-wide telemetry: always-on `omnet_obs` counters (one relaxed
// `fetch_add` each), surfaced both through [`stats`] and through the shared
// `omnet_obs::counters()` registry the harness footer and the
// `--trace-out` sink read.
/// Items executed through the executor (all batches, process-wide).
static ITEMS_EXECUTED: Counter = Counter::new("executor.items");
/// Batches (i.e. `par_map`-level calls) executed, process-wide.
static BATCHES_EXECUTED: Counter = Counter::new("executor.batches");

thread_local! {
    /// The instrumentation counter batches created on this thread attach to.
    static CURRENT_TAG: RefCell<Option<TaskCounter>> = const { RefCell::new(None) };
}

/// RAII save/restore of [`CURRENT_TAG`].
struct TagGuard {
    saved: Option<TaskCounter>,
}

impl TagGuard {
    fn set(tag: Option<TaskCounter>) -> TagGuard {
        let saved = CURRENT_TAG.with(|t| t.replace(tag));
        TagGuard { saved }
    }
}

impl Drop for TagGuard {
    fn drop(&mut self) {
        let saved = self.saved.take();
        CURRENT_TAG.with(|t| *t.borrow_mut() = saved);
    }
}

/// Helper permits held by one map; returned on drop, unwinding included.
struct Permits<'a> {
    free: &'a AtomicUsize,
    held: usize,
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        // ORDERING: a permit is a bare count; no data is published through
        // it (helpers are joined before the permits come back).
        self.free.fetch_add(self.held, Ordering::Relaxed);
    }
}

/// Stops further claims on a batch when the participant holding it
/// unwinds, so a panicking item cancels the rest of the batch.
struct CancelOnPanic<'a> {
    cursor: &'a AtomicUsize,
    n: usize,
}

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            // ORDERING: claims only hand out indices; results travel back
            // through `join`, which synchronizes on its own.
            self.cursor.store(self.n, Ordering::Relaxed);
        }
    }
}

/// A fork/join executor with a fixed number of participants.
///
/// `threads` counts *participants*: the calling thread itself works on
/// every batch it submits, so an executor of `threads = t` runs at most
/// `t - 1` scoped helper threads at a time, and `threads = 1` runs every
/// map serially on its caller. The process-wide instance behind
/// [`crate::par_map`] is created on first use by [`global`]; independent
/// instances (used by the tests) are available through [`Executor::new`].
pub struct Executor {
    threads: usize,
    /// Helper permits not held by a running map.
    free_helpers: AtomicUsize,
}

impl Executor {
    /// Creates an executor with `threads` participants (min 1). No thread
    /// is started until a map needs one.
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        Executor {
            threads,
            free_helpers: AtomicUsize::new(threads - 1),
        }
    }

    /// Number of participants (helpers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Takes up to `want` free helper permits (possibly none).
    fn take_permits(&self, want: usize) -> Permits<'_> {
        let taken = |free: usize| (free > 0 && want > 0).then(|| free - free.min(want));
        let free = &self.free_helpers;
        // ORDERING: a permit is a bare count; see `Permits::drop`.
        let prev = free.fetch_update(Ordering::Relaxed, Ordering::Relaxed, taken);
        let held = prev.map_or(0, |free| free.min(want));
        Permits { free, held }
    }

    /// Parallel indexed map with per-participant scratch state; results in
    /// input order. See [`crate::par_map_with`] for the full contract.
    pub fn map_with<T, S, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let tag = CURRENT_TAG.with(|t| t.borrow().clone());
        let permits = self.take_permits(n.saturating_sub(1));
        let out = if permits.held == 0 {
            let mut scratch = init();
            (0..n).map(|i| f(&mut scratch, i)).collect()
        } else {
            fork_join(n, permits.held, tag.as_ref(), &init, &f)
        };
        drop(permits);
        account(tag.as_ref(), n);
        out
    }
}

/// Runs items `0..n` on the caller plus `helpers` scoped threads, each
/// claiming indices from one cursor; returns the results in input order.
fn fork_join<T, S, I, F>(
    n: usize,
    helpers: usize,
    tag: Option<&TaskCounter>,
    init: &I,
    f: &F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let lane = || {
        let _cancel = CancelOnPanic { cursor: &cursor, n };
        let mut scratch = init();
        let mut done = Vec::new();
        loop {
            // ORDERING: see `CancelOnPanic::drop`.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(&mut scratch, i)));
        }
    };
    // A panic on the caller's lane leaves this closure; `scope` then joins
    // the helpers (already cancelled) and re-raises the caller's payload.
    let mut results = thread::scope(|s| {
        let spawned: Vec<_> = (0..helpers)
            .filter_map(|_| {
                // Out of threads: the lanes that did start take the items.
                thread::Builder::new()
                    .name("omnet-helper".into())
                    .spawn_scoped(s, || {
                        let _tag = TagGuard::set(tag.cloned());
                        lane()
                    })
                    .ok()
            })
            .collect();
        let mut all = lane();
        for helper in spawned {
            all.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        all
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, v)| v).collect()
}

/// Bumps the process-wide and per-batch instrumentation counters.
fn account(tag: Option<&TaskCounter>, n: usize) {
    ITEMS_EXECUTED.add(n as u64);
    BATCHES_EXECUTED.inc();
    if let Some(t) = tag {
        // ORDERING: pure tally — readers only consume the value after the
        // attributed region completes (the `with_task_counter` closure has
        // returned, which joins every batch), so no ordering is needed.
        t.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// Classifies an `OMNET_THREADS`-style override: `Ok(Some(k))` for a
/// usable count (`k >= 1`), `Ok(None)` when the variable is unset, and
/// `Err(raw)` — carrying the raw value — when it is set but unusable
/// (unparsable, or `0`, which would mean "no participants at all").
pub fn parse_thread_override(env: Option<&str>) -> Result<Option<usize>, &str> {
    match env {
        None => Ok(None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(k) if k >= 1 => Ok(Some(k)),
            _ => Err(raw),
        },
    }
}

/// Resolves the participant count from an `OMNET_THREADS`-style override
/// and the machine's available parallelism. `Some("k")` with `k >= 1`
/// wins; `0`, garbage or absence fall back to `available` (min 1), and a
/// rejected value is reported once on stderr so a typo'd override fails
/// loudly instead of silently using every core.
pub fn resolve_threads(env: Option<&str>, available: usize) -> usize {
    let fallback = available.max(1);
    match parse_thread_override(env) {
        Ok(Some(k)) => k,
        Ok(None) => fallback,
        Err(raw) => {
            eprintln!(
                "warning: ignoring OMNET_THREADS={raw:?} (expected an integer >= 1); \
                 using {fallback} thread(s)"
            );
            fallback
        }
    }
}

/// The process-wide executor, created on first use with
/// [`resolve_threads`]\(`OMNET_THREADS`, available cores).
pub fn global() -> &'static Executor {
    static GLOBAL: OnceLock<Executor> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |p| p.get());
        let env = std::env::var("OMNET_THREADS").ok();
        Executor::new(resolve_threads(env.as_deref(), available))
    })
}

/// Cumulative executor instrumentation (process-wide, all instances).
///
/// `batches` and `items` are also registered as `executor.*` counters with
/// `omnet_obs`, so they appear in the harness footer and in the
/// `--trace-out` JSONL sink. The other four fields date from a
/// work-stealing pool and are always 0; they are kept only because the
/// perfbench schema reads `steals` and `parks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// `par_map`-level batches dispatched.
    pub batches: u64,
    /// Work items executed (serial fallbacks included).
    pub items: u64,
    /// Always 0 (kept for the perfbench schema).
    pub steals: u64,
    /// Always 0 (kept for the perfbench schema).
    pub injector_pops: u64,
    /// Always 0 (kept for the perfbench schema).
    pub parks: u64,
    /// Always 0 (kept for the perfbench schema).
    pub unparks: u64,
}

/// Reads the cumulative instrumentation counters.
pub fn stats() -> ExecutorStats {
    ExecutorStats {
        batches: BATCHES_EXECUTED.get(),
        items: ITEMS_EXECUTED.get(),
        steals: 0,
        injector_pops: 0,
        parks: 0,
        unparks: 0,
    }
}

/// Attributes every batch created while `f` runs (on this thread, and on
/// any helper executing those batches' items — nesting included) to
/// `counter`, which accumulates the number of work items executed. The
/// experiment harness uses this for its per-experiment footer.
pub fn with_task_counter<R>(counter: TaskCounter, f: impl FnOnce() -> R) -> R {
    let _guard = TagGuard::set(Some(counter));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn pool4() -> &'static Executor {
        static POOL: OnceLock<Executor> = OnceLock::new();
        POOL.get_or_init(|| Executor::new(4))
    }

    #[test]
    fn results_in_input_order_parallel() {
        let v = pool4().map_with(257, || (), |(), i| i * 3);
        assert_eq!(v.len(), 257);
        assert!(v.iter().enumerate().all(|(i, x)| *x == i * 3));
    }

    #[test]
    fn serial_executor_runs_on_caller_thread() {
        let one = Executor::new(1);
        let me = std::thread::current().id();
        let v = one.map_with(16, || (), |(), i| (i, std::thread::current().id()));
        assert!(v.iter().all(|(_, id)| *id == me));
        assert_eq!(one.threads(), 1);
    }

    #[test]
    fn nested_maps_complete() {
        let v = pool4().map_with(
            8,
            || (),
            |(), i| {
                pool4()
                    .map_with(8, || (), move |(), j| i * 8 + j)
                    .into_iter()
                    .sum::<usize>()
            },
        );
        let want: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn panic_payload_propagates_to_owner() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool4().map_with(
                64,
                || (),
                |(), i| {
                    if i == 13 {
                        std::panic::panic_any("boom-13");
                    }
                    i
                },
            )
        }));
        let payload = r.expect_err("batch must panic");
        assert_eq!(
            *payload.downcast_ref::<&str>().expect("payload kept"),
            "boom-13"
        );
    }

    #[test]
    fn panic_propagates_across_nested_joins() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool4().map_with(
                4,
                || (),
                |(), i| {
                    pool4().map_with(
                        4,
                        || (),
                        move |(), j| {
                            if i == 2 && j == 3 {
                                std::panic::panic_any("inner-boom");
                            }
                            j
                        },
                    )
                },
            )
        }));
        let payload = r.expect_err("outer map must re-raise the inner panic");
        assert_eq!(
            *payload.downcast_ref::<&str>().expect("payload kept"),
            "inner-boom"
        );
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool4().map_with(16, || (), |(), _| std::panic::panic_any("sacrifice"))
        }));
        let v = pool4().map_with(64, || (), |(), i| i + 1);
        assert_eq!(v[63], 64);
    }

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some("3"), 8), 3);
        assert_eq!(resolve_threads(Some(" 1 "), 8), 1);
        assert_eq!(resolve_threads(Some("0"), 8), 8);
        assert_eq!(resolve_threads(Some("many"), 8), 8);
        assert_eq!(resolve_threads(None, 8), 8);
        assert_eq!(resolve_threads(None, 0), 1);
    }

    #[test]
    fn rejected_overrides_are_classified_for_the_warning() {
        // The warning path fires exactly on `Err`: a set-but-unusable
        // value, reported with the raw text the user typed.
        assert_eq!(parse_thread_override(None), Ok(None));
        assert_eq!(parse_thread_override(Some("4")), Ok(Some(4)));
        assert_eq!(parse_thread_override(Some(" 2\n")), Ok(Some(2)));
        assert_eq!(parse_thread_override(Some("0")), Err("0"));
        assert_eq!(parse_thread_override(Some("-3")), Err("-3"));
        assert_eq!(parse_thread_override(Some("many")), Err("many"));
        assert_eq!(parse_thread_override(Some("")), Err(""));
    }

    #[test]
    fn task_counter_attributes_nested_work() {
        let tag: TaskCounter = Arc::new(AtomicU64::new(0));
        with_task_counter(Arc::clone(&tag), || {
            pool4().map_with(
                6,
                || (),
                |(), _| {
                    pool4().map_with(5, || (), |(), j| j);
                },
            );
        });
        // 6 outer items + 6 × 5 inner items, wherever they executed.
        assert_eq!(tag.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn stats_monotone() {
        let before = stats();
        pool4().map_with(10, || (), |(), i| i);
        let after = stats();
        assert!(after.items >= before.items + 10);
        assert!(after.batches > before.batches);
        assert_eq!((after.steals, after.injector_pops), (0, 0));
        assert_eq!((after.parks, after.unparks), (0, 0));
    }

    #[test]
    fn executor_counters_reach_the_obs_registry() {
        pool4().map_with(64, || (), |(), i| i);
        let snap = omnet_obs::counters();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing from registry: {snap:?}"))
        };
        assert!(get("executor.items") >= 64);
        assert!(get("executor.batches") >= 1);
        // Registry values mirror `stats()` (both read the same counters;
        // other tests may run concurrently, so only monotonicity holds).
        let s = stats();
        assert!(s.items >= get("executor.items") || get("executor.items") >= 64);
    }

    #[test]
    fn many_concurrent_owner_threads_share_one_pool() {
        let pool = pool4();
        std::thread::scope(|s| {
            for t in 0..6 {
                s.spawn(move || {
                    for round in 0..20 {
                        let v = pool.map_with(17, || (), move |(), i| t * 1000 + round + i);
                        assert_eq!(v[16], t * 1000 + round + 16);
                    }
                });
            }
        });
    }

    #[test]
    fn helpers_never_exceed_threads_minus_one() {
        // Non-owner threads currently running an item, and the peak seen.
        static BUSY: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static OWNER: Cell<bool> = const { Cell::new(false) };
            /// Items this thread is inside (an inline inner map nests them).
            static DEPTH: Cell<usize> = const { Cell::new(0) };
        }
        fn item<T>(body: impl FnOnce() -> T) -> T {
            let outermost = !OWNER.with(Cell::get) && DEPTH.with(|d| d.replace(d.get() + 1)) == 0;
            if outermost {
                let now = BUSY.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(now, Ordering::SeqCst);
            }
            let out = body();
            if !OWNER.with(Cell::get) {
                DEPTH.with(|d| d.set(d.get() - 1));
            }
            if outermost {
                BUSY.fetch_sub(1, Ordering::SeqCst);
            }
            out
        }
        let pool = Executor::new(4);
        std::thread::scope(|s| {
            for t in 0..6 {
                let pool = &pool;
                s.spawn(move || {
                    OWNER.with(|o| o.set(true));
                    for round in 0..10 {
                        let v = pool.map_with(
                            9,
                            || (),
                            |(), i| {
                                item(|| {
                                    pool.map_with(
                                        7,
                                        || (),
                                        |(), j| {
                                            item(|| {
                                                std::thread::sleep(Duration::from_micros(100));
                                                i * j
                                            })
                                        },
                                    )
                                    .into_iter()
                                    .sum::<usize>()
                                })
                            },
                        );
                        assert_eq!(v[8], 8 * 21, "owner {t} round {round}");
                    }
                });
            }
        });
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(peak >= 1, "no item ever ran on a helper");
        assert!(
            peak <= 3,
            "{peak} helpers ran at once on a 4-participant executor"
        );
    }
}
