//! Perf gate for the persistent work-stealing executor (PR 4).
//!
//! Pits `omnet_analysis::par_map*` — now backed by the lazily-initialized
//! process-wide executor — against the pre-PR helper, frozen below in
//! [`scoped_baseline`] exactly as it shipped: a crossbeam `scope` per call,
//! spawning and joining `available_parallelism()` threads for every
//! `par_map`, with a mutex around the result vector.
//!
//! Two criterion groups measure dispatch overhead (many tiny items; nested
//! maps, where the per-call baseline pays a full spawn/join per inner
//! call). The custom `main` then runs the end-to-end gate: the `--quick`
//! §5/§6 figures through the old harness shape (sequential, substrate
//! cache cleared between experiments — every figure regenerates its traces)
//! versus the new one (`run_experiments` with `jobs` lanes and the shared
//! substrate cache), and writes the numbers to `BENCH_pr4.json` at the
//! repository root. The recorded `threads` field sizes the expectation: the
//! parallel fraction of the win needs cores, the cache fraction does not.
//!
//! ```sh
//! cargo bench -p omnet-bench --bench executor
//! ```

use criterion::{black_box, BenchmarkId, Criterion};
use omnet_bench::gate::time_best_ms;
use omnet_bench::harness::run_experiments;
use omnet_bench::{find, substrate, Config, Experiment};

/// The pre-PR fork/join helper, kept verbatim as the comparison baseline:
/// one crossbeam scope — thread spawn plus join — per `par_map` call.
mod scoped_baseline {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The old `par_map`, line for line.
    pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        par_map_with(n, || (), |(), i| f(i))
    }

    /// The old `par_map_with`, line for line.
    pub fn par_map_with<T, S, I, F>(n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if n <= 1 {
            let mut scratch = init();
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n);
        if threads == 1 {
            let mut scratch = init();
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }

        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let out = Mutex::new(slots);

        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                let next = &next;
                let init = &init;
                let f = &f;
                let out = &out;
                scope.spawn(move |_| {
                    let mut scratch = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let value = f(&mut scratch, i);
                        out.lock().expect("result mutex poisoned")[i] = Some(value);
                    }
                });
            }
        })
        .expect("parallel worker panicked");

        out.into_inner()
            .expect("result mutex poisoned")
            .into_iter()
            .map(|v| v.expect("every index visited"))
            .collect()
    }
}

/// A small but non-trivial work item (keeps the measurement about dispatch,
/// not about the optimizer deleting the loop).
fn work(i: usize) -> u64 {
    let mut acc = i as u64 ^ 0x9E37_79B9;
    for _ in 0..64 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    acc
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor/dispatch");
    for n in [64usize, 1024] {
        g.bench_with_input(BenchmarkId::new("scoped_per_call", n), &n, |b, &n| {
            b.iter(|| black_box(scoped_baseline::par_map(n, work)));
        });
        g.bench_with_input(BenchmarkId::new("persistent_pool", n), &n, |b, &n| {
            b.iter(|| black_box(omnet_analysis::par_map(n, work)));
        });
    }
    g.finish();
}

fn bench_nested(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor/nested");
    let (outer, inner) = (16usize, 64usize);
    g.bench_function("scoped_per_call", |b| {
        b.iter(|| {
            black_box(scoped_baseline::par_map(outer, |i| {
                scoped_baseline::par_map(inner, |j| work(i * inner + j))
                    .into_iter()
                    .fold(0u64, u64::wrapping_add)
            }))
        });
    });
    g.bench_function("persistent_pool", |b| {
        b.iter(|| {
            black_box(omnet_analysis::par_map(outer, |i| {
                omnet_analysis::par_map(inner, |j| work(i * inner + j))
                    .into_iter()
                    .fold(0u64, u64::wrapping_add)
            }))
        });
    });
    g.finish();
}

/// The `--quick` figure set the end-to-end gate replays: the §6 figures
/// share one substrate, fig9 adds three independent panels.
const GATE_IDS: [&str; 4] = ["fig9", "fig10", "fig11", "fig12"];

fn gate_experiments() -> Vec<&'static Experiment> {
    GATE_IDS
        .iter()
        .map(|id| find(id).expect("gate id in registry"))
        .collect()
}

/// Runs the end-to-end gate and writes `BENCH_pr4.json` at the repo root.
fn run_gate() {
    let cfg = Config {
        quick: true,
        seed: 99,
    };
    let selected = gate_experiments();
    let threads = omnet_analysis::executor::global().threads();
    let jobs = threads.clamp(1, selected.len());
    let reps = 3;

    println!("\nexecutor gate: old harness shape vs parallel cached harness ({threads} threads)");
    // Old shape: one experiment at a time, no substrate sharing — the cache
    // is cleared before every experiment so each regenerates its traces,
    // exactly as the pre-PR binary did.
    let old_ms = time_best_ms(reps, || {
        for e in &selected {
            substrate::clear();
            black_box((e.run)(&cfg));
        }
    });
    // New shape: the real harness — `jobs` lanes, shared substrate cache.
    let new_ms = time_best_ms(reps, || {
        substrate::clear();
        run_experiments(&selected, &cfg, jobs, |_, out| {
            black_box(out.len());
        })
    });
    let speedup = old_ms / new_ms;
    println!(
        "  end_to_end {:?}   old {old_ms:>9.1} ms   new {new_ms:>9.1} ms   speedup {speedup:.2}x   (jobs {jobs})",
        GATE_IDS
    );

    // Dispatch micro-numbers for the JSON record.
    let micro_n = 1024;
    let micro_old = time_best_ms(reps, || scoped_baseline::par_map(micro_n, work));
    let micro_new = time_best_ms(reps, || omnet_analysis::par_map(micro_n, work));

    let ids = GATE_IDS.join("+");
    let peak_rss = omnet_bench::gate::peak_rss_json();
    let json = format!(
        "{{\n  \"pr\": 4,\n  \"bench\": \"executor\",\n  \
         \"metric\": \"quick-mode {ids} end-to-end: sequential + cache cleared per experiment \
         (pre-PR shape, frozen crossbeam-scope par_map dispatch measured separately) vs \
         run_experiments with jobs lanes + shared substrate cache; best of {reps}\",\n  \
         \"threads\": {threads},\n  \"jobs\": {jobs},\n  \"peak_rss_bytes\": {peak_rss},\n  \
         \"end_to_end\": {{\"old_ms\": {old_ms:.1}, \"new_ms\": {new_ms:.1}, \"speedup\": {speedup:.3}}},\n  \
         \"dispatch_1024_items\": {{\"scoped_per_call_ms\": {micro_old:.3}, \
         \"persistent_pool_ms\": {micro_new:.3}}}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr4.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_dispatch(&mut criterion);
    bench_nested(&mut criterion);
    run_gate();
}
