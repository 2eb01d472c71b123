//! Large-N scale gate for the §4.4 profile engine.
//!
//! A *full* all-pairs run over the 10⁵-node `large_community` hierarchical
//! preset, streamed through `AllPairsProfiles::map_range` (materializing
//! 10⁵ × 10⁵ frontiers is hundreds of gigabytes; the streaming visitor
//! keeps memory at O(workers × one source's frontiers)). The gate requires
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
use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_mobility::HierarchicalSpec;
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
    // and snapshots would only add clone traffic the visitor never reads.
    let opts = ProfileOptions::builder().store_levels(0).build();
    let n = big.num_nodes();
    let t0 = Instant::now();
    let reached: Vec<u32> =
        AllPairsProfiles::map_range(&big, opts, 0..n, |view| view.num_reached() as u32);
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
         \"metric\": \"full streamed all-pairs (map_range, store_levels 0) on the 100k-node \
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
