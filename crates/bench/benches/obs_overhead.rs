//! Overhead gate for the `omnet_obs` instrumentation of the §4.4 engine.
//!
//! The observability layer promises near-zero cost when no trace sink is
//! installed: counters are one relaxed `fetch_add` (accumulated in locals
//! on the engine hot path), spans/events one relaxed load. This bench
//! checks that promise on the same workload as the PR 2 profile-engine
//! gate, comparing three variants of `AllPairsProfiles::compute`:
//!
//! * **baseline** — the engine's default path (time-indexed pruning,
//!   delta storage, pooled scratch) frozen below in [`preobs`] exactly as
//!   it stood *before* the instrumentation landed: no counters, no events;
//! * **disabled** — today's instrumented engine with no sink installed
//!   (the configuration every normal run uses);
//! * **traced** — today's engine with a sink swallowing records
//!   (`io::sink()`), bounding what `--trace-out` costs.
//!
//! The custom `main` runs the wall-clock gate and writes the numbers plus
//! the ≤ 2% disabled-mode contract to `BENCH_pr5.json` at the repository
//! root. Run with:
//!
//! ```sh
//! cargo bench -p omnet-bench --bench obs_overhead
//! ```

use criterion::{black_box, BenchmarkId, Criterion};
use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_mobility::Dataset;
use omnet_temporal::transform::internal_only;
use omnet_temporal::Trace;
use std::time::Instant;

/// The engine's default path (TimeIndexed + Deltas + pooled scratch),
/// frozen exactly as it stood before the `omnet_obs` instrumentation: no
/// counter accumulators, no per-level events, no spans. Built on the same
/// public `omnet_core` primitives the engine itself uses, so the only
/// difference measured is the instrumentation.
mod preobs {
    use omnet_core::delivery::{compact_frontier_in_place, extend_frontier_into};
    use omnet_core::{Arcs, DeliveryFunction, ProfileOptions};
    use omnet_temporal::{LdEa, NodeId, Trace};

    /// Pooled per-worker buffers (the pre-obs `ProfileScratch`).
    #[derive(Default)]
    pub struct Scratch {
        cands: Vec<Vec<LdEa>>,
        delta: Vec<Vec<LdEa>>,
    }

    impl Scratch {
        fn reset(&mut self, n: usize) {
            self.cands.resize_with(n.max(self.cands.len()), Vec::new);
            self.delta.resize_with(n.max(self.delta.len()), Vec::new);
            for b in &mut self.cands {
                b.clear();
            }
            for b in &mut self.delta {
                b.clear();
            }
        }
    }

    /// One source's frontiers; the stored deltas are write-only here but
    /// must stay, or the optimizer elides the snapshot cost.
    pub struct PreObsProfiles {
        #[allow(dead_code)]
        pub unlimited: Vec<DeliveryFunction>,
        #[allow(dead_code)]
        pub delta_levels: Vec<Vec<(u32, Box<[LdEa]>)>>,
        #[allow(dead_code)]
        pub converged_at: usize,
    }

    /// The pre-obs `SourceProfiles` induction on default options, line
    /// for line minus the telemetry.
    pub fn compute(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
        scratch: &mut Scratch,
    ) -> PreObsProfiles {
        let n = trace.num_nodes() as usize;
        let mut cur: Vec<DeliveryFunction> = vec![DeliveryFunction::empty(); n];
        cur[source.index()] = DeliveryFunction::identity();
        scratch.reset(n);
        scratch.delta[source.index()].push(LdEa::EMPTY);

        let mut delta_levels: Vec<Vec<(u32, Box<[LdEa]>)>> = Vec::new();
        let mut converged_at = opts.max_levels;

        let Scratch { cands, delta } = scratch;
        for k in 1..=opts.max_levels {
            for (m, d) in delta.iter().enumerate() {
                if d.is_empty() {
                    continue;
                }
                let node = NodeId(m as u32);
                for &(to, iv) in arcs.boardable(node, d[0].ea) {
                    if cur[to as usize].covers(iv) {
                        continue;
                    }
                    extend_frontier_into(d, iv, &mut cands[to as usize]);
                }
            }
            let mut changed = false;
            for d_idx in 0..n {
                if cands[d_idx].is_empty() {
                    delta[d_idx].clear();
                    continue;
                }
                cur[d_idx].absorb_into(&cands[d_idx], &mut delta[d_idx]);
                cands[d_idx].clear();
                if delta[d_idx].is_empty() {
                    continue;
                }
                compact_frontier_in_place(&mut delta[d_idx]);
                changed = true;
            }
            if !changed {
                converged_at = k - 1;
                break;
            }
            if k <= opts.store_levels {
                delta_levels.push(
                    delta
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| !d.is_empty())
                        .map(|(d_idx, d)| (d_idx as u32, d.clone().into_boxed_slice()))
                        .collect(),
                );
            }
        }

        PreObsProfiles {
            unlimited: cur,
            delta_levels,
            converged_at,
        }
    }

    /// The pre-obs `AllPairsProfiles::compute` (no `engine.all_pairs`
    /// span).
    pub fn all_pairs(trace: &Trace, opts: ProfileOptions) -> Vec<PreObsProfiles> {
        let arcs = Arcs::of(trace);
        omnet_analysis::par_map_with(
            trace.num_nodes() as usize,
            Scratch::default,
            |scratch, s| compute(trace, &arcs, NodeId(s as u32), opts, scratch),
        )
    }
}

/// The PR 2 gate presets, smallest to largest.
fn presets() -> Vec<(&'static str, Trace)> {
    vec![
        (
            "infocom05_1day",
            internal_only(&Dataset::Infocom05.generate_days(1.0, 99)),
        ),
        (
            "infocom06_1day",
            internal_only(&Dataset::Infocom06.generate_days(1.0, 99)),
        ),
        (
            "infocom06_2day",
            internal_only(&Dataset::Infocom06.generate_days(2.0, 99)),
        ),
    ]
}

fn bench_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead/all_pairs");
    g.sample_size(10);
    for (name, trace) in presets() {
        g.bench_with_input(BenchmarkId::new("pre_obs", name), &trace, |b, t| {
            b.iter(|| black_box(preobs::all_pairs(t, ProfileOptions::default())));
        });
        g.bench_with_input(BenchmarkId::new("disabled", name), &trace, |b, t| {
            b.iter(|| black_box(AllPairsProfiles::compute(t, ProfileOptions::default())));
        });
        omnet_obs::install_writer(Box::new(std::io::sink()));
        g.bench_with_input(BenchmarkId::new("traced", name), &trace, |b, t| {
            b.iter(|| black_box(AllPairsProfiles::compute(t, ProfileOptions::default())));
        });
        omnet_obs::shutdown();
    }
    g.finish();
}

/// Wall-clock milliseconds of one `f()` call.
fn time_once_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs the overhead gate and writes `BENCH_pr5.json` at the repo root.
///
/// The three variants are *interleaved* round-robin and each reported as
/// its best-of-`reps`: measuring each variant in its own block lets slow
/// machine drift (thermal, co-tenants) masquerade as instrumentation
/// overhead, which on a shared box easily exceeds the ≤ 2% contract in
/// either direction. The gate also skips the largest criterion preset —
/// at ~10 s/iter too few repetitions fit to beat that noise.
fn run_gate() {
    let contract = 2.0; // disabled-mode overhead ceiling, percent
    let mut rows = Vec::new();
    let mut worst = f64::NEG_INFINITY;
    let mut reps_used = Vec::new();
    println!("\nobs_overhead gate: instrumentation cost on AllPairsProfiles::compute");
    for (name, trace) in presets().into_iter().take(2) {
        let opts = ProfileOptions::default();
        // Warm-up: touch every code path (and the trace sink) once; the
        // warm-up time also sizes the repetition count — cheap presets can
        // afford the repetitions that beat single-run scheduling noise.
        let warm_ms = time_once_ms(|| preobs::all_pairs(&trace, opts));
        black_box(AllPairsProfiles::compute(&trace, opts));
        let reps = if warm_ms < 1000.0 { 25 } else { 11 };
        reps_used.push(reps);
        let (mut base_ms, mut disabled_ms, mut traced_ms) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            base_ms = base_ms.min(time_once_ms(|| preobs::all_pairs(&trace, opts)));
            disabled_ms = disabled_ms.min(time_once_ms(|| AllPairsProfiles::compute(&trace, opts)));
            omnet_obs::install_writer(Box::new(std::io::sink()));
            traced_ms = traced_ms.min(time_once_ms(|| AllPairsProfiles::compute(&trace, opts)));
            omnet_obs::shutdown();
        }
        let overhead_pct = (disabled_ms / base_ms - 1.0) * 100.0;
        worst = worst.max(overhead_pct);
        println!(
            "  {name:<16} base {base_ms:>9.2} ms   disabled {disabled_ms:>9.2} ms ({overhead_pct:>+6.2}%)   traced {traced_ms:>9.2} ms",
        );
        rows.push(format!(
            "    {{\"preset\": \"{name}\", \"nodes\": {}, \"contacts\": {}, \
             \"pre_obs_ms\": {base_ms:.3}, \"disabled_ms\": {disabled_ms:.3}, \
             \"traced_ms\": {traced_ms:.3}, \"disabled_overhead_pct\": {overhead_pct:.3}}}",
            trace.num_nodes(),
            trace.num_contacts(),
        ));
    }
    let pass = worst <= contract;
    println!(
        "  worst disabled-mode overhead {worst:+.2}% (contract <= {contract:.0}%): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    let reps_desc = reps_used
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("/");
    let threads = omnet_analysis::executor::global().threads();
    let peak_rss = omnet_bench::gate::peak_rss_json();
    let json = format!(
        "{{\n  \"pr\": 5,\n  \"bench\": \"obs_overhead\",\n  \
         \"metric\": \"AllPairsProfiles::compute wall-clock, best of {reps_desc} \
         interleaved rounds, default options; instrumented engine (sink \
         disabled / sink to io::sink) vs frozen pre-obs engine\",\n  \
         \"contract\": \"disabled-mode overhead <= {contract:.0}%\",\n  \
         \"threads\": {threads},\n  \"peak_rss_bytes\": {peak_rss},\n  \
         \"worst_disabled_overhead_pct\": {worst:.3},\n  \
         \"pass\": {pass},\n  \
         \"presets\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr5.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_variants(&mut criterion);
    run_gate();
}
