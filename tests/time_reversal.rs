//! Time-reversal oracle: the §4.4 rows of a trace against the rows of the
//! same trace played backwards.
//!
//! Negating time maps a contact `[s, e]` to `[−e, −s]`. A valid sequence
//! from `a` to `b` in the trace is then, read in reverse order, a valid
//! sequence from `b` to `a` in the reversed trace with the same hop count,
//! and its summary `(LD, EA)` becomes `(−EA, −LD)`. That map preserves
//! Pareto dominance and reverses frontier order, so for every pair, every
//! stored level and the tail, the run of row `a`, destination `b` equals
//! the mirror of the run of row `b`, destination `a` in the reversed
//! trace. Negation is exact on `f64`, so the check is exact, and it needs
//! no second engine: it holds at full scale, where the naive spec and the
//! brute-force oracle cannot run.
//!
//! The mirror cannot see a fault that treats every pair by its hop levels
//! alone, the same way in both directions: a level stored in the tail, or
//! a tail that misses the first level past the stored ones. The rows of
//! one trace at two store depths catch those, so the tests also check that
//! each depth stores `min(store_levels, converged_at)` levels and gives
//! every pair the same unbounded frontier.

use omnet_artifact::{map_set, write_shard, ArtifactMeta, ShardRange};
use omnet_core::{AllPairsProfiles, HopBound, LevelRuns, ProfileOptions, SourceProfiles};
use omnet_mobility::Dataset;
use omnet_temporal::{Contact, Interval, LdEa, Time, Trace, TraceBuilder};
use proptest::prelude::*;

/// `trace` played backwards: each contact `[s, e]` becomes `[−e, −s]`, the
/// window is negated, and the universe and its internal split are kept.
fn time_reversed(trace: &Trace) -> Trace {
    let neg = |t: Time| Time::secs(-t.as_secs());
    let span = trace.span();
    let mut b = TraceBuilder::new()
        .num_nodes(trace.num_nodes())
        .internal(trace.num_internal())
        .window(Interval::new(neg(span.end), neg(span.start)));
    for c in trace.contacts() {
        b.push(Contact::new(
            c.a,
            c.b,
            Interval::new(neg(c.interval.end), neg(c.interval.start)),
        ));
    }
    b.build()
}

/// A run of the reversed trace, mapped back: `(LD, EA)` becomes
/// `(−EA, −LD)`, and the order reverses.
fn mirrored(run: &[LdEa]) -> Vec<LdEa> {
    run.iter()
        .rev()
        .map(|p| LdEa {
            ld: Time::secs(-p.ea.as_secs()),
            ea: Time::secs(-p.ld.as_secs()),
        })
        .collect()
}

/// The run of `dest` in stored level `k` (1-based) of `row`; empty past
/// the levels the row stores.
fn level_run(row: &SourceProfiles, k: usize, dest: u32) -> &[LdEa] {
    row.levels()
        .get(k - 1)
        .map_or(&[][..], |level| level.run(dest))
}

/// Checks every stored level and the tail of every row of `fwd` against
/// the mirrored rows of `rev`, the rows of the reversed trace. Returns the
/// number of runs compared.
fn assert_mirrored(fwd: &[SourceProfiles], rev: &[SourceProfiles]) -> Result<usize, String> {
    if fwd.len() != rev.len() {
        return Err(format!("{} rows against {} reversed", fwd.len(), rev.len()));
    }
    let mut runs = 0;
    for a in fwd {
        // Every destination either row names: the rest are empty on both
        // sides.
        let mut dests: Vec<u32> = named_dests(a).collect();
        let s = a.source().0;
        dests.extend(
            rev.iter()
                .filter(|b| named_dests(b).any(|d| d == s))
                .map(|b| b.source().0),
        );
        dests.sort_unstable();
        dests.dedup();
        for d in dests {
            let b = &rev[d as usize];
            let levels = a.stored_levels().max(b.stored_levels());
            for k in 1..=levels {
                let (got, want) = (level_run(a, k, d), mirrored(level_run(b, k, s)));
                if got != want.as_slice() {
                    return Err(format!("{s}->{d} level {k}: {got:?} vs mirrored {want:?}"));
                }
                runs += 1;
            }
            let (got, want) = (a.tail().run(d), mirrored(b.tail().run(s)));
            if got != want.as_slice() {
                return Err(format!("{s}->{d} tail: {got:?} vs mirrored {want:?}"));
            }
            runs += 1;
        }
    }
    Ok(runs)
}

/// Every destination a stored level or the tail of `row` names.
fn named_dests(row: &SourceProfiles) -> impl Iterator<Item = u32> + '_ {
    row.levels()
        .iter()
        .chain([row.tail()])
        .flat_map(LevelRuns::iter)
        .map(|(d, _)| d)
}

/// Checks that `rows`, computed with `opts`, store `min(store_levels,
/// converged_at)` levels each, and agree with `other`, the rows of the same
/// trace at another store depth, on convergence and on the unbounded
/// frontier of every pair.
fn assert_depths_agree(
    rows: &[SourceProfiles],
    opts: ProfileOptions,
    other: &[SourceProfiles],
) -> Result<(), String> {
    for (a, b) in rows.iter().zip(other) {
        let s = a.source();
        if a.stored_levels() != opts.store_levels.min(a.converged_at()) {
            return Err(format!(
                "row {s} stores {} levels, converged at {}",
                a.stored_levels(),
                a.converged_at()
            ));
        }
        if (a.converged_at(), a.converged()) != (b.converged_at(), b.converged()) {
            return Err(format!("row {s} converges differently at another depth"));
        }
        for d in named_dests(a).chain(named_dests(b)) {
            let d = omnet_temporal::NodeId(d);
            let (got, want) = (
                a.profile(d, HopBound::Unlimited),
                b.profile(d, HopBound::Unlimited),
            );
            if got.pairs() != want.pairs() {
                return Err(format!(
                    "{s}->{d} unbounded: {got:?} vs {want:?} at another depth"
                ));
            }
        }
    }
    Ok(())
}

/// `rows` of `trace` written to one shard and read back.
fn shard_round_trip(
    trace: &Trace,
    opts: ProfileOptions,
    rows: &[SourceProfiles],
    tag: &str,
) -> Vec<SourceProfiles> {
    let dir = std::env::temp_dir().join(format!("omnet-reversal-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rows.omna");
    let meta = ArtifactMeta {
        dataset_key: tag.into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    let range = ShardRange {
        index: 0,
        count: 1,
        begin: 0,
        end: trace.num_nodes(),
    };
    write_shard(&path, &meta, range, rows).unwrap();
    let loaded = map_set(&dir)
        .unwrap()
        .rows(0..trace.num_nodes())
        .map(|row| row.unwrap().unwrap().clone())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    loaded
}

/// The Infocom05 12 h preset draw: every level and tail of every row
/// mirrors the reversed trace's, at the default depth and at two stored
/// levels (most pairs in the tails), straight from the induction and
/// after a shard round trip of both sides; and the two depths agree.
#[test]
fn infocom05_rows_mirror_the_reversed_trace() {
    let trace = Dataset::Infocom05.generate_days(0.5, 1);
    let reversed = time_reversed(&trace);
    let depths = [
        (ProfileOptions::default(), "default"),
        (ProfileOptions::builder().store_levels(2).build(), "l2"),
    ];
    let rows: Vec<_> = depths
        .iter()
        .map(|&(opts, _)| AllPairsProfiles::compute(&trace, opts).into_rows())
        .collect();
    for ((opts, tag), fwd) in depths.into_iter().zip(&rows) {
        let rev = AllPairsProfiles::compute(&reversed, opts).into_rows();
        let runs = assert_mirrored(fwd, &rev).unwrap();
        assert!(runs > 10_000, "only {runs} runs compared with {opts:?}");
        let fwd = shard_round_trip(&trace, opts, fwd, &format!("fwd-{tag}"));
        let rev = shard_round_trip(&reversed, opts, &rev, &format!("rev-{tag}"));
        assert_eq!(assert_mirrored(&fwd, &rev), Ok(runs));
        assert_depths_agree(&fwd, opts, &rows[0]).unwrap();
    }
    assert_depths_agree(&rows[0], depths[0].0, &rows[1]).unwrap();
}

/// Random small traces whose pairs meet repeatedly, in contacts that
/// overlap or nest inside each other: `(u, v, start, duration, nested)`
/// rows, where `nested` adds a second contact of the same pair inside the
/// first and a third that overlaps its end.
fn repeated_pair_traces() -> impl Strategy<Value = Trace> {
    (
        3u32..7,
        prop::collection::vec((0u32..7, 0u32..7, 0u32..400, 2u32..100, 0u32..3), 1..10),
    )
        .prop_map(|(n, rows)| {
            let mut b = TraceBuilder::new().num_nodes(n);
            for (u, v, start, dur, nested) in rows {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                let (s, e) = (start as f64, (start + dur) as f64);
                b.push(Contact::secs(u, v, s, e));
                if nested > 0 {
                    b.push(Contact::secs(u, v, s + 1.0, e - 1.0));
                    b.push(Contact::secs(v, u, (s + e) / 2.0, e + dur as f64));
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random traces with overlapping and nested contacts of one pair,
    /// every row mirrors the reversed trace's, at the default depth, at
    /// one stored level, and with no stored level at all; and each depth
    /// agrees with the one before it.
    #[test]
    fn random_rows_mirror_the_reversed_trace(trace in repeated_pair_traces()) {
        let reversed = time_reversed(&trace);
        let mut previous: Option<Vec<SourceProfiles>> = None;
        for store in [10, 1, 0] {
            let opts = ProfileOptions::builder().store_levels(store).build();
            let fwd = AllPairsProfiles::compute(&trace, opts).into_rows();
            let rev = AllPairsProfiles::compute(&reversed, opts).into_rows();
            let checked = assert_mirrored(&fwd, &rev).map(|_| ()).and_then(|()| {
                assert_depths_agree(&fwd, opts, previous.as_deref().unwrap_or(&fwd))
            });
            if let Err(e) = checked {
                return Err(TestCaseError::fail(format!("{e} with {opts:?} on {trace:?}")));
            }
            previous = Some(fwd);
        }
    }
}
