//! Parallel experiment harness with deterministic output ordering.
//!
//! The `experiments` binary runs its selected experiments through
//! [`run_experiments`]: `jobs` lane threads claim experiments from a shared
//! index, each experiment's text output is buffered, and the caller's
//! `emit` sink receives the buffered outputs **in the order the
//! experiments were selected** — so stdout is byte-identical no matter how
//! many lanes run or how they interleave. (Experiments are pure functions
//! of [`Config`], so running them concurrently cannot change what they
//! print, only when.)
//!
//! Each lane wraps its experiment in [`omnet_analysis::with_task_counter`]
//! and a wall clock — plus, when an `omnet_obs` trace sink is active, one
//! `harness.experiment` span (`id`, attributed `items`, `panicked`)
//! written to the sink, never to stdout — producing one
//! [`ExperimentRecord`] per experiment for
//! the run footer: elapsed time, executor work items attributed to that
//! experiment (exact whichever thread runs an item — batches are tagged at
//! creation), and the panic message if the experiment failed. A panicking
//! experiment does not abort the run; the remaining experiments still
//! execute and the caller decides how to report the failure.

use crate::{Config, Experiment};
use omnet_analysis::{with_task_counter, TaskCounter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The harness's account of one finished experiment.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// The experiment's registry id (`fig9`, `table1`, …).
    pub id: &'static str,
    /// Wall-clock time of this experiment's `run` call.
    pub elapsed: Duration,
    /// Executor work items attributed to this experiment (replications,
    /// pair tasks, …) via [`omnet_analysis::with_task_counter`].
    pub pool_items: u64,
    /// The panic message, if the experiment panicked instead of returning.
    pub error: Option<String>,
}

/// One lane's buffered result, parked until its turn to be emitted.
struct Finished {
    output: Result<String, String>,
    elapsed: Duration,
    pool_items: u64,
}

/// Locks ignoring poisoning: a lane that panicked while holding the lock
/// left only fully-written `Option` slots behind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a panic payload for the run footer.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `selected` with up to `jobs` concurrent lanes, calling `emit` with
/// each experiment's buffered output in selection order. Returns one
/// [`ExperimentRecord`] per experiment, also in selection order.
///
/// `jobs` is clamped to `1..=selected.len()`; `jobs = 1` reproduces the
/// historical sequential harness exactly (one lane, claims in order).
/// `emit` is only called for experiments that returned; panics are
/// reported through [`ExperimentRecord::error`] instead.
pub fn run_experiments(
    selected: &[&'static Experiment],
    cfg: &Config,
    jobs: usize,
    mut emit: impl FnMut(&'static Experiment, &str),
) -> Vec<ExperimentRecord> {
    let n = selected.len();
    if n == 0 {
        return Vec::new();
    }
    let lanes = jobs.clamp(1, n);
    let next = AtomicUsize::new(0);
    let finished: Mutex<Vec<Option<Finished>>> = Mutex::new((0..n).map(|_| None).collect());
    let ready = Condvar::new();

    let mut records = Vec::with_capacity(n);
    std::thread::scope(|s| {
        for _ in 0..lanes {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let counter: TaskCounter = Arc::new(AtomicU64::new(0));
                let mut span = omnet_obs::span("harness.experiment").with("id", selected[i].id);
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    with_task_counter(Arc::clone(&counter), || (selected[i].run)(cfg))
                }));
                let pool_items = counter.load(Ordering::Relaxed);
                span.record("items", pool_items);
                span.record("panicked", outcome.is_err());
                drop(span);
                let cell = Finished {
                    output: outcome.map_err(panic_message),
                    elapsed: started.elapsed(),
                    pool_items,
                };
                lock(&finished)[i] = Some(cell);
                ready.notify_all();
            });
        }
        // The calling thread streams results in selection order as soon as
        // each next-in-order experiment completes.
        for i in 0..n {
            let cell = {
                let mut slots = lock(&finished);
                loop {
                    if let Some(cell) = slots[i].take() {
                        break cell;
                    }
                    slots = ready.wait(slots).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let error = match &cell.output {
                Ok(text) => {
                    emit(selected[i], text);
                    None
                }
                Err(msg) => Some(msg.clone()),
            };
            records.push(ExperimentRecord {
                id: selected[i].id,
                elapsed: cell.elapsed,
                pool_items: cell.pool_items,
                error,
            });
        }
    });
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXPERIMENTS;

    /// Tiny stand-in experiments (the real registry is too slow for unit
    /// tests). Leaked `Experiment` values mimic the `&'static` registry.
    fn toy(id: &'static str, run: fn(&Config) -> String) -> &'static Experiment {
        Box::leak(Box::new(Experiment { id, title: id, run }))
    }

    fn collect_emissions(
        jobs: usize,
        exps: &[&'static Experiment],
    ) -> (Vec<String>, Vec<ExperimentRecord>) {
        let cfg = Config {
            quick: true,
            seed: 1,
        };
        let mut seen = Vec::new();
        let records = run_experiments(exps, &cfg, jobs, |e, out| {
            seen.push(format!("{}:{}", e.id, out));
        });
        (seen, records)
    }

    #[test]
    fn emission_order_is_selection_order_for_any_jobs() {
        fn slow(c: &Config) -> String {
            std::thread::sleep(std::time::Duration::from_millis(30));
            format!("slow{}", c.seed)
        }
        fn fast(c: &Config) -> String {
            format!("fast{}", c.seed)
        }
        let exps = [toy("a", slow), toy("b", fast), toy("c", fast)];
        let (seq, _) = collect_emissions(1, &exps);
        for jobs in [2, 3, 8] {
            let (par, recs) = collect_emissions(jobs, &exps);
            assert_eq!(par, seq, "jobs={jobs} must emit in selection order");
            assert_eq!(recs.len(), 3);
            assert!(recs.iter().all(|r| r.error.is_none()));
        }
    }

    #[test]
    fn a_panicking_experiment_is_reported_not_fatal() {
        fn boom(_: &Config) -> String {
            panic!("lane down");
        }
        fn ok(_: &Config) -> String {
            "fine".to_string()
        }
        let exps = [toy("boom", boom), toy("ok", ok)];
        let (seen, recs) = collect_emissions(2, &exps);
        assert_eq!(seen, vec!["ok:fine".to_string()]);
        assert_eq!(recs[0].id, "boom");
        assert!(recs[0]
            .error
            .as_deref()
            .is_some_and(|m| m.contains("lane down")));
        assert!(recs[1].error.is_none());
    }

    #[test]
    fn pool_items_attribute_executor_work_to_the_right_experiment() {
        fn uses_pool(_: &Config) -> String {
            let v = omnet_analysis::par_map(37, |i| i as u64);
            format!("{}", v.len())
        }
        fn no_pool(_: &Config) -> String {
            "quiet".to_string()
        }
        let exps = [toy("pool", uses_pool), toy("quiet", no_pool)];
        let (_, recs) = collect_emissions(2, &exps);
        assert_eq!(recs[0].pool_items, 37);
        assert_eq!(recs[1].pool_items, 0);
    }

    #[test]
    fn registry_smoke_two_quick_experiments_match_sequential() {
        // A real-registry determinism check on the two cheapest entries.
        let picks: Vec<&'static Experiment> = EXPERIMENTS
            .iter()
            .filter(|e| e.id == "fig1" || e.id == "lemma1")
            .collect();
        assert_eq!(picks.len(), 2);
        let (seq, _) = collect_emissions(1, &picks);
        let (par, _) = collect_emissions(2, &picks);
        assert_eq!(seq, par);
    }
}
