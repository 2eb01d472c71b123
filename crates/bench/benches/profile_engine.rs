//! Perf gate for the §4.4 profile-engine hot path.
//!
//! Pits the redesigned induction (time-indexed arc pruning, pooled scratch
//! buffers, delta level storage — `SourceProfiles::compute` /
//! `AllPairsProfiles::compute`) against the pre-redesign inner loop, which
//! is frozen below in [`prepr`] exactly as it shipped: full arc scans, a
//! fresh `Vec<LdEa>` allocated per (pair, arc) visit, and a full clone of
//! all N frontiers per stored level.
//!
//! Besides the criterion groups, the custom `main` runs a wall-clock gate
//! on the synthetic mobility presets and writes the before/after numbers to
//! `BENCH_pr2.json` at the repository root — the start of the perf
//! trajectory. Run with:
//!
//! ```sh
//! cargo bench -p omnet-bench --bench profile_engine
//! ```

use criterion::{black_box, BenchmarkId, Criterion};
use omnet_bench::gate::time_best_ms;
use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_mobility::Dataset;
use omnet_temporal::transform::internal_only;
use omnet_temporal::Trace;

/// The pre-redesign §4.4 inner loop, reconstructed on the public API and
/// kept verbatim as the comparison baseline: exhaustive arc scans,
/// per-(pair, arc) `extend_with` allocations, full frontier clones per
/// stored level.
mod prepr {
    use omnet_core::{Arcs, DeliveryFunction, ProfileOptions};
    use omnet_temporal::{LdEa, NodeId, Trace};

    /// What the old engine produced per source. The fields are write-only
    /// in this bench but must stay: dropping the stored snapshots would let
    /// the optimizer elide the very clone cost the gate measures.
    pub struct PreprSourceProfiles {
        #[allow(dead_code)]
        pub unlimited: Vec<DeliveryFunction>,
        #[allow(dead_code)]
        pub levels: Vec<Vec<DeliveryFunction>>,
        #[allow(dead_code)]
        pub converged_at: usize,
    }

    /// The old `SourceProfiles::compute`, line for line.
    pub fn compute(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
    ) -> PreprSourceProfiles {
        let n = trace.num_nodes() as usize;
        let mut cur: Vec<DeliveryFunction> = vec![DeliveryFunction::empty(); n];
        cur[source.index()] = DeliveryFunction::identity();
        let mut delta: Vec<DeliveryFunction> = vec![DeliveryFunction::empty(); n];
        delta[source.index()] = DeliveryFunction::identity();

        let mut levels: Vec<Vec<DeliveryFunction>> = vec![cur.clone()];
        let mut converged_at = opts.max_levels;

        let mut cands: Vec<Vec<LdEa>> = vec![Vec::new(); n];
        for k in 1..=opts.max_levels {
            for (m, d) in delta.iter().enumerate() {
                if d.is_empty() {
                    continue;
                }
                for &(to, iv) in arcs.leaving(NodeId(m as u32)) {
                    cands[to as usize].extend(d.extend_with(iv));
                }
            }
            let mut changed = false;
            for d_idx in 0..n {
                if cands[d_idx].is_empty() {
                    delta[d_idx] = DeliveryFunction::empty();
                    continue;
                }
                let added = cur[d_idx].absorb(&cands[d_idx]);
                cands[d_idx].clear();
                if added.is_empty() {
                    delta[d_idx] = DeliveryFunction::empty();
                } else {
                    delta[d_idx] = DeliveryFunction::from_pairs(added);
                    changed = true;
                }
            }
            if !changed {
                converged_at = k - 1;
                break;
            }
            if k <= opts.store_levels {
                levels.push(cur.clone());
            }
        }

        PreprSourceProfiles {
            unlimited: cur,
            levels,
            converged_at,
        }
    }

    /// The old `AllPairsProfiles::compute`: plain `par_map`, no per-worker
    /// scratch pooling.
    pub fn all_pairs(trace: &Trace, opts: ProfileOptions) -> Vec<PreprSourceProfiles> {
        let arcs = Arcs::of(trace);
        omnet_analysis::par_map(trace.num_nodes() as usize, |s| {
            compute(trace, &arcs, NodeId(s as u32), opts)
        })
    }
}

/// The mobility presets the gate runs on, smallest to largest.
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

fn bench_all_pairs(c: &mut Criterion) {
    let mut g = c.benchmark_group("profile_engine/all_pairs");
    g.sample_size(10);
    for (name, trace) in presets() {
        g.bench_with_input(BenchmarkId::new("pre_pr", name), &trace, |b, t| {
            b.iter(|| black_box(prepr::all_pairs(t, ProfileOptions::default())));
        });
        g.bench_with_input(BenchmarkId::new("optimized", name), &trace, |b, t| {
            b.iter(|| black_box(AllPairsProfiles::compute(t, ProfileOptions::default())));
        });
    }
    g.finish();
}

/// Runs the speedup gate and writes `BENCH_pr2.json` at the repo root.
fn run_gate() {
    let reps = 5;
    let mut rows = Vec::new();
    println!("\nprofile_engine gate: pre-PR vs optimized AllPairsProfiles::compute");
    for (name, trace) in presets() {
        let pre_ms = time_best_ms(reps, || prepr::all_pairs(&trace, ProfileOptions::default()));
        let opt_ms = time_best_ms(reps, || {
            AllPairsProfiles::compute(&trace, ProfileOptions::default())
        });
        let speedup = pre_ms / opt_ms;
        println!(
            "  {name:<16} {:>5} nodes {:>6} contacts   pre {pre_ms:>9.2} ms   opt {opt_ms:>9.2} ms   speedup {speedup:.2}x",
            trace.num_nodes(),
            trace.num_contacts(),
        );
        rows.push(format!(
            "    {{\"preset\": \"{name}\", \"nodes\": {}, \"contacts\": {}, \
             \"pre_pr_ms\": {pre_ms:.3}, \"optimized_ms\": {opt_ms:.3}, \
             \"speedup\": {speedup:.3}}}",
            trace.num_nodes(),
            trace.num_contacts(),
        ));
    }
    let threads = omnet_analysis::executor::global().threads();
    let peak_rss = omnet_bench::gate::peak_rss_json();
    let json = format!(
        "{{\n  \"pr\": 2,\n  \"bench\": \"profile_engine\",\n  \
         \"metric\": \"AllPairsProfiles::compute wall-clock, best of {reps}, \
         default options (time-indexed pruning + delta levels) vs frozen pre-PR inner loop\",\n  \
         \"threads\": {threads},\n  \"peak_rss_bytes\": {peak_rss},\n  \
         \"presets\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr2.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_all_pairs(&mut criterion);
    run_gate();
}
