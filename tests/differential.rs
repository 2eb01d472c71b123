//! Differential harness: the three path engines cross-checked on
//! randomized traces with invariant checking live.
//!
//! The production §4.4 induction (`omnet_core::algorithm`), the
//! exponential enumeration oracle (`omnet_core::bruteforce`) and the
//! time-dependent Dijkstra (`omnet_core::dijkstra`) implement the same
//! mathematical object three independent ways. This harness generates
//! randomized small traces and demands bit-exact agreement through
//! [`omnet_core::cross_check`], with structural invariants
//! (`Trace::validate`, `ContactSeq::validate`, `DeliveryFunction::validate`)
//! re-verified along the way. Run with `--features strict-invariants` the
//! same checks stay active in release builds — that is the CI
//! `strict-invariants` job.

use omnet_artifact::ArtifactMeta;
use omnet_core::{
    cross_check, AllPairsProfiles, Arcs, ContactDelta, CrossCheckOptions, CurveOptions,
    DeliveryFunction, HopBound, ProfileOptions, SourceProfiles, SuccessCurves,
};
use omnet_serve::{Engine, Query, QueryError, QueryResponse};
use omnet_temporal::invariant::{self, InvariantViolation};
use omnet_temporal::{
    Contact, ContactKey, ContactSeq, Dur, Interval, NodeId, Time, Trace, TraceBuilder, TraceOverlay,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random small trace: up to `max_nodes` devices, `max_contacts`
/// contacts with start times in `[0, horizon)`.
fn random_trace(
    rng: &mut StdRng,
    max_nodes: u32,
    max_contacts: usize,
    horizon: f64,
) -> omnet_temporal::Trace {
    let n = rng.gen_range(3..=max_nodes);
    let m = rng.gen_range(1..=max_contacts);
    let mut b = TraceBuilder::new().num_nodes(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let start = rng.gen_range(0.0..horizon);
        let dur = rng.gen_range(0.0..horizon / 4.0);
        b.push(Contact::secs(u, v, start, start + dur));
    }
    b.build()
}

#[test]
fn engines_agree_on_randomized_traces() {
    let mut rng = StdRng::seed_from_u64(0x5EED_D1FF);
    for round in 0..40 {
        let trace = random_trace(&mut rng, 6, 9, 400.0);
        trace.validate().expect("builder output must validate");
        let starts = (0..4)
            .map(|_| Time::secs(rng.gen_range(0.0..500.0)))
            .collect();
        let opts = CrossCheckOptions {
            hop_classes: vec![1, 2, 3, 4],
            starts,
            max_divergences: 4,
        };
        let divergences = cross_check(&trace, &opts);
        assert!(
            divergences.is_empty(),
            "round {round}: engines diverged on {trace:?}:\n{}",
            divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn larger_sparse_traces_agree_with_dijkstra_only() {
    // Brute force is exponential, so bigger rounds check only the
    // profile-vs-Dijkstra axis (plus frontier validity).
    let mut rng = StdRng::seed_from_u64(0xD1FF_5EED);
    for round in 0..10 {
        let trace = random_trace(&mut rng, 15, 40, 2_000.0);
        trace.validate().expect("builder output must validate");
        let starts = (0..3)
            .map(|_| Time::secs(rng.gen_range(0.0..2_500.0)))
            .collect();
        let opts = CrossCheckOptions {
            hop_classes: Vec::new(),
            starts,
            max_divergences: 4,
        };
        let divergences = cross_check(&trace, &opts);
        assert!(
            divergences.is_empty(),
            "round {round}: engines diverged:\n{}",
            divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn planted_unsorted_trace_is_caught() {
    // `TraceBuilder` always sorts, so an unsorted contact vector can only
    // be probed through the raw-parts checker — exactly what `Trace::
    // validate` runs internally. Plant the violation and demand a typed
    // report.
    let contacts = [
        Contact::secs(1, 2, 50.0, 60.0),
        Contact::secs(0, 1, 0.0, 10.0), // starts before its predecessor
    ];
    let got = invariant::validate_trace_parts(
        3,
        3,
        omnet_temporal::Interval::secs(0.0, 100.0),
        &contacts,
    );
    assert_eq!(got, Err(InvariantViolation::UnsortedContacts { index: 1 }));

    // And the frontier checker catches a planted condition-(4) violation.
    let bad = [
        omnet_temporal::LdEa {
            ld: Time::secs(10.0),
            ea: Time::secs(5.0),
        },
        omnet_temporal::LdEa {
            ld: Time::secs(20.0),
            ea: Time::secs(4.0), // EA must strictly increase
        },
    ];
    assert_eq!(
        invariant::validate_frontier(&bad),
        Err(InvariantViolation::FrontierOrder { index: 1 })
    );
}

#[test]
fn sequence_validation_matches_is_valid_on_random_chains() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut validated = 0u32;
    for _ in 0..200 {
        let trace = random_trace(&mut rng, 5, 6, 200.0);
        // Random walks over the contact list, valid or not.
        let origin = NodeId(rng.gen_range(0..trace.num_nodes()));
        let take = rng.gen_range(0..=trace.num_contacts());
        let hops: Vec<Contact> = trace.contacts()[..take].to_vec();
        match ContactSeq::build(origin, &hops) {
            Some(seq) => {
                seq.validate().expect("constructed sequence must validate");
                assert!(seq.is_valid());
                validated += 1;
            }
            None => {
                // The raw-parts checker must agree that something is wrong.
                assert!(
                    invariant::validate_sequence_parts(origin, &hops).is_err(),
                    "build refused a chain the checker accepts: {hops:?}"
                );
            }
        }
    }
    assert!(validated > 0, "no valid chains sampled at all");
}

// In dev-profile tests enforcement is always on via debug_assertions; with
// `--features strict-invariants` it also holds in release builds. In a plain
// release test build there is nothing to observe, so the test is gated out.
#[test]
#[cfg(any(debug_assertions, feature = "strict-invariants"))]
#[should_panic(expected = "structural invariant violated")]
fn enforce_aborts_on_planted_violation() {
    invariant::enforce(|| Err(InvariantViolation::InternalExceedsUniverse));
}

/// Strategy: a random small trace for engine-vs-specification runs.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        3u32..7,
        prop::collection::vec((0u32..7, 0u32..7, 0u32..400, 1u32..100), 1..12),
    )
        .prop_map(|(n, rows)| {
            let mut b = TraceBuilder::new().num_nodes(n);
            for (u, v, start, dur) in rows {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                b.push(Contact::secs(u, v, start as f64, (start + dur) as f64));
            }
            b.build()
        })
}

/// The default options plus a truncated-storage variant that exercises the
/// beyond-stored-levels fallback.
fn knob_combos() -> Vec<ProfileOptions> {
    vec![
        ProfileOptions::default(),
        ProfileOptions::builder().store_levels(2).build(),
    ]
}

/// What `AtMost(k)` from `s` to every destination must answer under
/// `opts`, computed without reading any stored level: the naive spec's
/// fixpoint frontiers with the induction capped at `k` levels while `k` is
/// stored, its uncapped fixpoint beyond (the documented fallback).
fn at_most_reference(
    trace: &Trace,
    arcs: &Arcs,
    s: NodeId,
    opts: ProfileOptions,
    k: usize,
) -> Vec<DeliveryFunction> {
    let capped = if k <= opts.store_levels {
        ProfileOptions::builder()
            .store_levels(opts.store_levels)
            .max_levels(k)
            .build()
    } else {
        opts
    };
    let naive = SourceProfiles::compute_naive(trace, arcs, s, capped);
    trace
        .nodes()
        .map(|d| naive.profile(d, HopBound::Unlimited).into_owned())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The optimized induction (delta propagation + arc pruning + pooled
    /// buffers + delta-run level storage) is pair-for-pair identical to the
    /// naive full-re-extension specification, for both store depths, every
    /// source, and every hop bound — the stored levels included and two
    /// beyond. Each `AtMost(k)` answer is checked against the spec capped at
    /// `k` levels and read at `Unlimited`, so the reference never goes
    /// through the delta-run reconstruction it is checking.
    #[test]
    fn optimized_engine_matches_naive_spec_on_all_knobs(trace in trace_strategy()) {
        let arcs = Arcs::of(&trace);
        for opts in knob_combos() {
            for s in trace.nodes() {
                let fast = SourceProfiles::compute(&trace, &arcs, s, opts);
                let naive = SourceProfiles::compute_naive(&trace, &arcs, s, opts);
                prop_assert_eq!(
                    fast.converged_at(),
                    naive.converged_at(),
                    "convergence level diverged for source {} with {:?}",
                    s,
                    opts
                );
                prop_assert_eq!(fast.stored_levels(), naive.stored_levels());
                for k in 0..=6usize.max(fast.stored_levels() + 2) {
                    let expect = at_most_reference(&trace, &arcs, s, opts, k);
                    for d in trace.nodes() {
                        let want = expect[d.index()].pairs();
                        let f = fast.profile(d, HopBound::AtMost(k));
                        prop_assert_eq!(
                            f.pairs(),
                            want,
                            "{}->{} diverged at k={} with {:?}",
                            s,
                            d,
                            k,
                            opts
                        );
                        let g = naive.profile(d, HopBound::AtMost(k));
                        prop_assert_eq!(
                            g.pairs(),
                            want,
                            "naive {}->{} diverged at k={} with {:?}",
                            s,
                            d,
                            k,
                            opts
                        );
                    }
                }
                for d in trace.nodes() {
                    let f = fast.profile(d, HopBound::Unlimited);
                    let g = naive.profile(d, HopBound::Unlimited);
                    prop_assert_eq!(
                        f.pairs(),
                        g.pairs(),
                        "{}->{} diverged unbounded with {:?}",
                        s,
                        d,
                        opts
                    );
                }
            }
        }
    }

    /// The flat CSR arc index is row-for-row identical to the per-node-Vec
    /// reference it replaced: same `leaving` rows (sorted by interval end),
    /// a contact-id column that maps every arc back to its generating
    /// contact, and the same `boardable` suffix at every interesting
    /// threshold (±∞ and every contact endpoint, exactly and perturbed).
    #[test]
    fn csr_arc_index_matches_per_node_vec_reference(trace in trace_strategy()) {
        let arcs = Arcs::of(&trace);
        let n = trace.num_nodes();
        prop_assert_eq!(arcs.num_nodes(), n as usize);
        prop_assert_eq!(arcs.num_arcs(), 2 * trace.num_contacts());

        // the replaced nested-Vec build, reconstructed contact by contact
        let mut reference: Vec<Vec<(u32, omnet_temporal::Interval, u32)>> =
            vec![Vec::new(); n as usize];
        for (i, c) in trace.contacts().iter().enumerate() {
            reference[c.a.index()].push((c.b.0, c.interval, i as u32));
            reference[c.b.index()].push((c.a.0, c.interval, i as u32));
        }
        for row in &mut reference {
            row.sort_unstable_by_key(|&(head, iv, cid)| (iv.end, iv.start, head, cid));
        }

        let mut thresholds = vec![Time::NEG_INF, Time::INF, Time::ZERO];
        for c in trace.contacts() {
            for t in [c.start(), c.end()] {
                thresholds.push(t);
                thresholds.push(t + omnet_temporal::Dur::secs(0.125));
                thresholds.push(t - omnet_temporal::Dur::secs(0.125));
            }
        }

        for node in trace.nodes() {
            let row = arcs.leaving(node);
            let cids = arcs.leaving_contacts(node);
            let expect = &reference[node.index()];
            prop_assert_eq!(row.len(), expect.len(), "row length at {}", node);
            prop_assert_eq!(cids.len(), expect.len(), "cid column at {}", node);
            for (i, (&(head, iv), &cid)) in row.iter().zip(cids).enumerate() {
                prop_assert_eq!((head, iv, cid.0), expect[i], "arc {} of {}", i, node);
                let c = trace.contact(cid);
                prop_assert_eq!(c.interval, iv);
                prop_assert!(
                    (c.a == node && c.b.0 == head) || (c.b == node && c.a.0 == head),
                    "contact id column points at a non-incident contact"
                );
            }
            for &ea in &thresholds {
                let fast = arcs.boardable(node, ea);
                let cut = expect.partition_point(|&(_, iv, _)| iv.end < ea);
                prop_assert_eq!(
                    fast.len(),
                    expect.len() - cut,
                    "boardable at {:?} from {}",
                    ea,
                    node
                );
                if let Some(&(head, iv)) = fast.first() {
                    prop_assert_eq!((head, iv), (expect[cut].0, expect[cut].1));
                }
            }
        }
    }

    /// The one batch entry point, `for_each_row`, over a shuffled and
    /// usually gapped subset of the sources hands back one result per
    /// source in exactly that order, and every row it visits equals the
    /// naive spec's row for that source at both store depths.
    #[test]
    fn for_each_row_visits_naive_rows_in_source_order(
        trace in trace_strategy(),
        keys in prop::collection::vec(0u32..64, 7..8),
    ) {
        let arcs = Arcs::of(&trace);
        // Node `v` is kept when its key is odd, and the kept nodes are
        // ordered by key: a random, usually non-contiguous permutation.
        let mut sources: Vec<NodeId> = (0..trace.num_nodes())
            .filter(|&v| keys[v as usize] % 2 == 1)
            .map(NodeId)
            .collect();
        sources.sort_by_key(|v| (keys[v.index()], v.0));
        for opts in knob_combos() {
            let rows = AllPairsProfiles::for_each_row(&trace, &arcs, opts, &sources, |row| row);
            prop_assert_eq!(rows.len(), sources.len());
            for (row, &s) in rows.iter().zip(&sources) {
                prop_assert_eq!(row.source(), s);
                let naive = SourceProfiles::compute_naive(&trace, &arcs, s, opts);
                prop_assert_eq!(row, &naive, "source {} with {:?}", s, opts);
            }
        }
    }

    /// A trace-backed serve engine with memoized rows answers every
    /// `delivery` (all pairs, several creation times, bounds 1, 2 and ∞)
    /// and a `diameter` query exactly like a fresh engine over the same
    /// edits replayed through `TraceOverlay`, after every step of a random
    /// delta sequence. A delta carrying one invalid entry, or quoting a
    /// stale epoch, is rejected whole: answers and epoch stay put.
    #[test]
    fn serve_delta_sequences_match_fresh_engine(
        trace in trace_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        for opts in knob_combos() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference = trace.clone();
            let mut engine = Engine::from_trace(Arc::new(trace.clone()), opts, "t");
            let queries = serve_probe_queries(&trace);
            // Answering every pair memoizes every row before each delta.
            let mut before = engine.answer_batch(&queries);
            for step in 0..4usize {
                let epoch = engine.key_epoch();
                let delta = random_delta(&mut rng, &reference);
                if rng.gen::<f64>() < 0.5 {
                    let bad = with_invalid_entry(&mut rng, &reference, &delta);
                    prop_assert!(engine.apply_delta(&bad, epoch).is_err());
                    if !delta.is_empty() {
                        let stale = engine.apply_delta(&delta, epoch + 1);
                        prop_assert!(
                            matches!(stale, Err(QueryError::StaleKeyEpoch { .. })),
                            "{:?}",
                            stale
                        );
                    }
                    prop_assert_eq!(engine.key_epoch(), epoch);
                    prop_assert_eq!(
                        &engine.answer_batch(&queries),
                        &before,
                        "rejected delta moved an answer at step {}",
                        step
                    );
                }
                let applied = engine
                    .apply_delta(&delta, epoch)
                    .map_err(|e| TestCaseError::fail(format!("valid delta refused: {e}")))?;
                let mut overlay = TraceOverlay::new(reference);
                for &k in &delta.remove {
                    overlay.remove(k);
                }
                for &c in &delta.append {
                    overlay.append(c);
                }
                reference = overlay.materialize().0;
                let bump = u64::from(!delta.is_empty());
                prop_assert_eq!(applied.key_epoch, epoch + bump);
                prop_assert_eq!(applied.num_contacts, reference.num_contacts());
                let fresh = Engine::from_trace(Arc::new(reference.clone()), opts, "t");
                let got = engine.answer_batch(&queries);
                let want = fresh.answer_batch(&queries);
                for ((q, g), w) in queries.iter().zip(&got).zip(&want) {
                    prop_assert_eq!(g, w, "{:?} after step {} with {:?}", q, step, opts);
                }
                before = got;
            }
        }
    }

    /// `compute_range` over any ordered partition of `0..n` — empty ranges
    /// included (duplicate cut points) — concatenates byte-identically to
    /// the whole-range `compute`, for both store depths. This is the
    /// shard-boundary oracle: `omnet precompute` shards are independent
    /// `compute_range` calls.
    #[test]
    fn compute_range_partition_concats_to_compute(
        trace in trace_strategy(),
        cuts in prop::collection::vec(0u32..8, 0..4),
    ) {
        let n = trace.num_nodes();
        for opts in knob_combos() {
            let mut bounds: Vec<u32> = cuts.iter().map(|&c| c % (n + 1)).collect();
            bounds.sort_unstable();
            bounds.push(n);
            let whole = AllPairsProfiles::compute(&trace, opts);
            let mut cat: Vec<SourceProfiles> = Vec::new();
            let mut lo = 0u32;
            for &b in &bounds {
                cat.extend(AllPairsProfiles::compute_range(&trace, opts, lo..b));
                lo = b;
            }
            prop_assert_eq!(cat.len(), whole.rows().len());
            for (c, w) in cat.iter().zip(whole.rows()) {
                prop_assert_eq!(c, w, "source {} diverged with {:?}", w.source(), opts);
            }
        }
    }

    /// For store depths 0–4, under induction caps that stop before the
    /// fixpoint and under the default cap, the engine's rows equal the
    /// naive spec's structurally (stored levels and tail both), come back
    /// unchanged from a shard round trip, and answer the unbounded
    /// `delivery` and `min_hops` exactly as the reconstructed
    /// `profile(d, Unlimited)` does.
    #[test]
    fn rows_match_naive_spec_and_survive_a_shard_round_trip(
        trace in trace_strategy(),
        store in 0usize..5,
        cap in 0usize..4,
    ) {
        let max_levels = [1, 2, 3, 64][cap];
        let opts = ProfileOptions::builder()
            .store_levels(store)
            .max_levels(max_levels)
            .build();
        let arcs = Arcs::of(&trace);
        let rows = AllPairsProfiles::compute(&trace, opts).into_rows();
        for row in &rows {
            let naive = SourceProfiles::compute_naive(&trace, &arcs, row.source(), opts);
            prop_assert_eq!(row, &naive, "source {} with {:?}", row.source(), opts);
        }

        let meta = ArtifactMeta {
            dataset_key: "rows".into(),
            num_nodes: trace.num_nodes(),
            num_internal: trace.num_internal(),
            window: trace.span(),
            options: opts,
        };
        let dir = std::env::temp_dir().join(format!(
            "omnet-row-trip-{}-{store}-{max_levels}-{}",
            std::process::id(),
            trace.num_contacts()
        ));
        std::fs::remove_dir_all(&dir).ok();
        omnet_artifact::write_set(&dir, "rows", &meta, &rows, 2)
            .map_err(|e| TestCaseError::fail(format!("write_set: {e}")))?;
        let set = omnet_artifact::map_set(&dir)
            .map_err(|e| TestCaseError::fail(format!("map_set: {e}")))?;
        for row in &rows {
            let back = set.row(row.source().0);
            prop_assert!(matches!(back, Ok(Some(b)) if b == row), "row {} changed", row.source());
        }
        std::fs::remove_dir_all(&dir).ok();

        let mut starts = vec![Time::NEG_INF, Time::INF];
        for c in trace.contacts() {
            starts.extend([c.start(), c.end(), Time::secs(c.start().as_secs() - 0.5)]);
        }
        for row in &rows {
            for d in trace.nodes() {
                let f = row.profile(d, HopBound::Unlimited);
                for &t in &starts {
                    let want = f.delivery(t);
                    prop_assert_eq!(row.delivery(d, t, HopBound::Unlimited), want);
                    let hops = (want != Time::INF)
                        .then(|| {
                            (1..=row.stored_levels()).find(|&k| {
                                row.profile(d, HopBound::AtMost(k)).delivery(t) == want
                            })
                        })
                        .flatten();
                    prop_assert_eq!(
                        row.min_hops(d, t),
                        hops,
                        "{}->{} at {}",
                        row.source(),
                        d,
                        t
                    );
                }
            }
        }
    }
}

/// Every `delivery` query of the serve-delta test — all ordered pairs, at
/// the window's start, middle and end, under bounds 1, 2 and ∞ — plus one
/// `diameter` query last.
fn serve_probe_queries(trace: &Trace) -> Vec<Query> {
    let n = trace.num_nodes();
    let span = trace.span();
    let mid = Time::secs((span.start.as_secs() + span.end.as_secs()) / 2.0);
    let mut queries = Vec::new();
    for src in 0..n {
        for dst in 0..n {
            for at in [span.start, mid, span.end] {
                for bound in [
                    HopBound::AtMost(1),
                    HopBound::AtMost(2),
                    HopBound::Unlimited,
                ] {
                    queries.push(Query::Delivery {
                        src,
                        dst,
                        at,
                        bound,
                    });
                }
            }
        }
    }
    queries.push(Query::Diameter {
        eps: 0.05,
        max_hops: 4,
        internal_only: false,
    });
    queries
}

/// A random delta against `trace`, keyed by its current contact ids: each
/// contact removed with probability 0.3 (occasionally with a duplicate key
/// thrown in), plus up to two appended contacts inside the observation
/// window.
fn random_delta(rng: &mut StdRng, trace: &Trace) -> ContactDelta {
    let span = trace.span();
    let n = trace.num_nodes();
    let mut delta = ContactDelta::default();
    for k in 0..trace.num_contacts() as u32 {
        if rng.gen::<f64>() < 0.3 {
            delta.remove.push(ContactKey(k));
        }
    }
    if let Some(&k) = delta.remove.first() {
        if rng.gen::<f64>() < 0.5 {
            delta.remove.push(k); // duplicate — removal must stay idempotent
        }
    }
    let (lo, hi) = (span.start.as_secs(), span.end.as_secs());
    for _ in 0..rng.gen_range(0..3) {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let s = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let e = (s + rng.gen_range(0.0f64..50.0)).min(hi);
        delta.append.push(Contact::secs(u, v, s, e));
    }
    delta
}

/// `delta` with one invalid entry added: a key past the contact count, an
/// append with an endpoint outside the node universe, or an append that
/// ends after the observation window.
fn with_invalid_entry(rng: &mut StdRng, trace: &Trace, delta: &ContactDelta) -> ContactDelta {
    let mut bad = delta.clone();
    let span = trace.span();
    let n = trace.num_nodes();
    match rng.gen_range(0..3) {
        0 => {
            let key = ContactKey(trace.num_contacts() as u32 + rng.gen_range(0u32..3));
            let at = rng.gen_range(0..=bad.remove.len());
            bad.remove.insert(at, key);
        }
        1 => {
            let c = Contact::secs(0, n, span.start.as_secs(), span.start.as_secs());
            let at = rng.gen_range(0..=bad.append.len());
            bad.append.insert(at, c);
        }
        _ => {
            let end = span.end.as_secs();
            let at = rng.gen_range(0..=bad.append.len());
            bad.append.insert(at, Contact::secs(0, 1, end, end + 10.0));
        }
    }
    bad
}

/// Strategy: a random small trace whose first `internal` nodes are the
/// internal devices, for the hop-bounded read oracle.
fn split_trace_strategy() -> impl Strategy<Value = Trace> {
    (
        3u32..7,
        1u32..7,
        prop::collection::vec((0u32..7, 0u32..7, 0u32..400, 1u32..100), 1..12),
    )
        .prop_map(|(n, internal, rows)| {
            let mut b = TraceBuilder::new().num_nodes(n).internal(internal.min(n));
            for (u, v, start, dur) in rows {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                b.push(Contact::secs(u, v, start as f64, (start + dur) as f64));
            }
            b.build()
        })
}

/// The §4.1 curves as they were defined before the level walk: every
/// `(source, dest, bound, window)` rebuilds `profile(d, bound)` and calls
/// `success_curve`, each source's partial is summed in the same
/// `acc[bound * grid_len + grid_index]` layout, and the partials are reduced
/// in source order. Returns one curve per entry of `opts.bounds`.
fn reference_curves(
    rows: &[SourceProfiles],
    opts: &CurveOptions,
    windows: &[Interval],
    node_limit: u32,
) -> Vec<Vec<f64>> {
    let total: f64 = windows.iter().map(|w| w.duration().as_secs()).sum();
    let weights: Vec<f64> = windows
        .iter()
        .map(|w| w.duration().as_secs() / total)
        .collect();
    let (nb, ng) = (opts.bounds.len(), opts.grid.len());
    let mut curves = vec![vec![0.0f64; ng]; nb];
    for s in 0..node_limit {
        let mut acc = vec![0.0f64; nb * ng];
        for d in 0..node_limit {
            if d == s {
                continue;
            }
            for (bi, &bound) in opts.bounds.iter().enumerate() {
                let f = rows[s as usize].profile(NodeId(d), bound);
                for (w, &weight) in windows.iter().zip(&weights) {
                    for (gi, v) in f.success_curve(*w, &opts.grid).into_iter().enumerate() {
                        acc[bi * ng + gi] += weight * v;
                    }
                }
            }
        }
        for bi in 0..nb {
            for gi in 0..ng {
                curves[bi][gi] += acc[bi * ng + gi];
            }
        }
    }
    let n = node_limit as usize;
    let pairs = n * n.saturating_sub(1);
    if pairs > 0 {
        for v in curves.iter_mut().flatten() {
            *v /= pairs as f64;
        }
    }
    curves
}

/// The bit patterns of a curve, so `-0.0`/`+0.0` or a last-ulp difference
/// fails the comparison.
fn bits(curve: &[f64]) -> Vec<u64> {
    curve.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every hop-bounded read that walks the stored level runs — the §4.1
    /// curves (`compute_windowed` and `from_profiles`), `SourceProfiles::
    /// delivery`, serve's bounded `delivery` and its artifact-only `path`
    /// hop class — is bit for bit what the reconstructing specification
    /// `profile(d, AtMost(k))` answers. Cases: bounds in arbitrary order
    /// with repeats, `AtMost(0)`, `k` past the stored levels, several
    /// windows including a zero-length one, internal pairs only or all,
    /// `d == source`, unreachable pairs, and the trace padded with isolated
    /// nodes.
    #[test]
    fn level_walk_matches_reconstructed_profiles(
        trace in split_trace_strategy(),
        store in 0usize..5,
        shuffle in 0u64..u64::MAX,
    ) {
        let popts = ProfileOptions::builder().store_levels(store).build();
        let rows = AllPairsProfiles::compute(&trace, popts).into_rows();
        let deepest = rows.iter().map(|r| r.stored_levels()).max().unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(shuffle);
        let mut bounds: Vec<HopBound> = (0..=deepest + 2).map(HopBound::AtMost).collect();
        bounds.push(HopBound::Unlimited);
        bounds.push(HopBound::AtMost(rng.gen_range(0..=deepest + 2)));
        for i in (1..bounds.len()).rev() {
            bounds.swap(i, rng.gen_range(0..=i));
        }

        let span = trace.span();
        let (lo, hi) = (span.start.as_secs(), span.end.as_secs());
        let mid = (lo + hi) / 2.0;
        let windows = [
            Interval::secs(lo, mid),
            Interval::secs(mid, mid),
            Interval::secs(mid, hi),
            Interval::secs(lo, hi + 50.0),
        ];
        let grid = [0.0, 1.0, 10.0, 60.0, 60.0, 250.0, f64::INFINITY].map(Dur::secs).to_vec();
        // The same contacts padded with isolated (external) nodes: the
        // induction skips sources without a contact, and the curves must
        // still be bit for bit the specification's over every source.
        let padded = TraceBuilder::new()
            .num_nodes(trace.num_nodes() + 1 + (shuffle % 24) as u32)
            .internal(trace.num_internal())
            .window(span)
            .contacts(trace.contacts().iter().copied())
            .build();
        let padded_rows = AllPairsProfiles::compute(&padded, popts).into_rows();
        for (t, t_rows) in [(&trace, &rows), (&padded, &padded_rows)] {
            for internal_only in [true, false] {
                let opts = CurveOptions {
                    bounds: bounds.clone(),
                    grid: grid.clone(),
                    window: None,
                    internal_pairs_only: internal_only,
                    profiles: popts,
                };
                let limit = if internal_only { t.num_internal() } else { t.num_nodes() };
                let want = reference_curves(t_rows, &opts, &windows, limit);
                let direct = SuccessCurves::compute_windowed(t, &opts, &windows);
                let refs: Vec<&SourceProfiles> = t_rows.iter().collect();
                let loaded = SuccessCurves::from_profiles(&refs, &opts, &windows, t.num_internal());
                for (bi, b) in bounds.iter().enumerate() {
                    if bounds[..bi].contains(b) {
                        continue; // `curve` answers a repeated bound's first slot
                    }
                    let want = bits(&want[bi]);
                    let n = t.num_nodes();
                    prop_assert_eq!(bits(direct.curve(*b).unwrap()), want.clone(), "compute {:?} n={}", b, n);
                    prop_assert_eq!(bits(loaded.curve(*b).unwrap()), want, "from_profiles {:?} n={}", b, n);
                }
            }
        }

        let meta = ArtifactMeta {
            dataset_key: "walk".into(),
            num_nodes: trace.num_nodes(),
            num_internal: trace.num_internal(),
            window: span,
            options: popts,
        };
        let dir = std::env::temp_dir().join(format!(
            "omnet-level-walk-{}-{shuffle:x}-{store}",
            std::process::id()
        ));
        omnet_artifact::write_set(&dir, "walk", &meta, &rows, 2)
            .map_err(|e| TestCaseError::fail(format!("write_set: {e}")))?;
        let shards = Engine::load_dir(&dir)
            .map_err(|e| TestCaseError::fail(format!("load_dir: {e}")))?;
        std::fs::remove_dir_all(&dir).ok();
        let lazy = Engine::from_trace(Arc::new(trace.clone()), popts, "walk");

        let times = [lo - 10.0, lo, mid, hi, hi + 10.0].map(Time::secs);
        let bounds: Vec<HopBound> = (0..=deepest + 2)
            .map(HopBound::AtMost)
            .chain([HopBound::Unlimited])
            .collect();
        for row in &rows {
            let s = row.source();
            for d in trace.nodes() {
                for &at in &times {
                    for &bound in &bounds {
                        let f = row.profile(d, bound);
                        let (arrival, delay) = (f.delivery(at), f.delay(at));
                        prop_assert_eq!(row.delivery(d, at, bound), arrival);
                        let q = Query::Delivery { src: s.0, dst: d.0, at, bound };
                        for engine in [&shards, &lazy] {
                            match engine.answer(&q) {
                                Ok(QueryResponse::Delivery(a)) => {
                                    prop_assert_eq!(a.arrival, arrival, "{:?}", q);
                                    prop_assert_eq!(a.delay, delay, "{:?}", q);
                                    prop_assert_eq!(a.reachable, arrival != Time::INF);
                                }
                                other => prop_assert!(false, "{:?}: {:?}", q, other),
                            }
                        }
                    }
                    if d == s {
                        continue;
                    }
                    // The hop class as serve found it before the walk: the
                    // first stored `k` whose reconstructed frontier delivers
                    // as early as flooding.
                    let flood = row.profile(d, HopBound::Unlimited).delivery(at);
                    let hops = (1..=row.stored_levels())
                        .find(|&k| row.profile(d, HopBound::AtMost(k)).delivery(at) == flood)
                        .unwrap_or(row.converged_at());
                    let q = Query::Path { src: s.0, dst: d.0, at };
                    match shards.answer(&q) {
                        Ok(QueryResponse::Path(p)) => {
                            prop_assert_eq!(p.arrival, flood, "{:?}", q);
                            if flood != Time::INF {
                                prop_assert_eq!(p.hops, hops, "{:?}", q);
                            }
                        }
                        other => prop_assert!(false, "{:?}: {:?}", q, other),
                    }
                }
            }
        }
    }
}
