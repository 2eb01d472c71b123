//! Large-N scale gate for the §4.4 profile engine.
//!
//! A *full* all-pairs run over the 10⁵-node `large_community` hierarchical
//! preset, streamed through `AllPairsProfiles::for_each_row` (keeping
//! 10⁵ rows of 10⁵ destinations is hundreds of gigabytes; the visitor
//! folds each row into its reached count and drops it, so memory stays at
//! O(workers × one row)). The gate requires
//! completion within the wall-clock budget and records the run's wall time
//! and peak RSS. It is the only measurement in this process, so the peak
//! RSS belongs to the generator and the streamed pass alone.
//!
//! Writes `scaling.json` under Cargo's target tmp directory
//! (`target/tmp/`). Run with:
//!
//! ```sh
//! cargo bench -p omnet-bench --bench scaling
//! ```

use omnet_bench::gate::{json_u64, peak_rss_bytes, reset_peak_rss};
use omnet_core::{AllPairsProfiles, Arcs, ProfileOptions};
use omnet_mobility::HierarchicalSpec;
use omnet_temporal::NodeId;
use std::time::Instant;

/// Wall-clock budget for the 10⁵-node full all-pairs run, generous enough
/// for a single-core CI runner (measured ~90 s on one core).
const SCALE_BUDGET_S: f64 = 900.0;

fn main() {
    let threads = omnet_analysis::executor::global().threads();

    println!("\nscale gate: large_community_100k full all-pairs (streamed)");
    reset_peak_rss();
    let spec = HierarchicalSpec::large_community(100_000);
    let t0 = Instant::now();
    let big = spec.generate(99);
    let gen_s = t0.elapsed().as_secs_f64();
    // No level snapshots: the streamed run answers unbounded-hop questions,
    // so every row is its tail alone.
    let opts = ProfileOptions::builder().store_levels(0).build();
    let n = big.num_nodes();
    let t0 = Instant::now();
    let sources: Vec<NodeId> = (0..n).map(NodeId).collect();
    // With no stored level, the tail names every destination a row
    // reaches except the source itself, which is counted too.
    let reached: Vec<u32> =
        AllPairsProfiles::for_each_row(&big, &Arcs::of(&big), opts, &sources, |row| {
            row.tail().len() as u32 + 1
        });
    let allpairs_s = t0.elapsed().as_secs_f64();
    let rss = peak_rss_bytes();
    let total_reached: u64 = reached.iter().map(|&r| r as u64).sum();
    let within_budget = allpairs_s <= SCALE_BUDGET_S;
    println!(
        "  {:>6} nodes {:>7} contacts   gen {gen_s:>6.2} s   all-pairs {allpairs_s:>8.2} s \
         (budget {SCALE_BUDGET_S} s, within: {within_budget})   reached pairs {total_reached}   \
         peak rss {}   threads {threads}",
        n,
        big.num_contacts(),
        json_u64(rss),
    );

    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \
         \"metric\": \"full streamed all-pairs (for_each_row, store_levels 0) on the 100k-node \
         hierarchical preset; peak RSS after a high-water-mark reset, generator included\",\n  \
         \"threads\": {threads},\n  \"preset\": \"large_community_100k\",\n  \
         \"nodes\": {n},\n  \"contacts\": {},\n  \"generate_s\": {gen_s:.3},\n  \
         \"all_pairs_s\": {allpairs_s:.3},\n  \"budget_s\": {SCALE_BUDGET_S},\n  \
         \"within_budget\": {within_budget},\n  \"reached_pairs\": {total_reached},\n  \
         \"peak_rss_bytes\": {}\n}}\n",
        big.num_contacts(),
        json_u64(rss),
    );
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/scaling.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    assert!(
        within_budget,
        "scale gate failed: {allpairs_s:.1}s > {SCALE_BUDGET_S}s"
    );
    println!("scale gate passed");
}
