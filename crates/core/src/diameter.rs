//! Success-rate curves and the (1−ε)-diameter (§4.1).
//!
//! The paper defines the diameter of an opportunistic network as the
//! smallest hop budget `k` such that, **for every** delay constraint `t`,
//! delivering within `t` using at most `k` hops is at least `(1−ε)` as
//! likely as delivering within `t` by unconstrained flooding — with the
//! probability taken uniformly over sources, destinations and message
//! creation times. Because the per-pair success probability has a closed
//! form over a delivery-function frontier, every curve here is an exact
//! integral over start times, not a sampled estimate.

use crate::algorithm::{
    AllPairsProfiles, Arcs, HopBound, LevelRuns, ProfileOptions, SourceProfiles,
};
use crate::delivery::DeliveryFunction;
use omnet_temporal::{Dur, Interval, LdEa, NodeId, Time, Trace};

/// What to aggregate and how when building the §4.1 success curves.
#[derive(Debug, Clone)]
pub struct CurveOptions {
    /// Hop classes to evaluate. Must contain `HopBound::Unlimited` for
    /// diameter queries.
    pub bounds: Vec<HopBound>,
    /// Ascending delay budgets at which to evaluate success.
    pub grid: Vec<Dur>,
    /// Start-time window; defaults to the trace's observation window.
    pub window: Option<Interval>,
    /// Restrict sources and destinations to internal devices (the paper's
    /// default: external devices have incomplete logs).
    pub internal_pairs_only: bool,
    /// Options of the underlying profile computation.
    pub profiles: ProfileOptions,
}

impl CurveOptions {
    /// Hop classes `1..=max_hops` plus flooding, on the given grid.
    pub fn standard(max_hops: usize, grid: Vec<Dur>) -> CurveOptions {
        let mut bounds: Vec<HopBound> = (1..=max_hops).map(HopBound::AtMost).collect();
        bounds.push(HopBound::Unlimited);
        CurveOptions {
            bounds,
            grid,
            window: None,
            internal_pairs_only: true,
            profiles: ProfileOptions::builder().store_levels(max_hops).build(),
        }
    }
}

/// Success-probability curves per hop class, averaged over ordered pairs and
/// uniform start times (§4.1; the CDFs of Figures 9–11).
#[derive(Debug, Clone)]
pub struct SuccessCurves {
    bounds: Vec<HopBound>,
    grid: Vec<Dur>,
    /// `curves[b][x]` = mean success probability.
    curves: Vec<Vec<f64>>,
    pairs: usize,
}

/// Splits the trace span into one window per day restricted to
/// `[start_hour, end_hour)` local hours — the paper's "day time only"
/// analysis (§5.3 mentions the CDF of the minimum delay during day time).
pub fn day_time_windows(trace: &Trace, start_hour: f64, end_hour: f64) -> Vec<Interval> {
    assert!(
        (0.0..24.0).contains(&start_hour) && start_hour < end_hour && end_hour <= 24.0,
        "invalid day-time hours"
    );
    let span = trace.span();
    let mut out = Vec::new();
    let mut day_start = (span.start.as_secs() / 86_400.0).floor() * 86_400.0;
    while Time::secs(day_start) < span.end {
        let lo = (day_start + start_hour * 3600.0).max(span.start.as_secs());
        let hi = (day_start + end_hour * 3600.0).min(span.end.as_secs());
        if hi > lo {
            out.push(Interval::secs(lo, hi));
        }
        day_start += 86_400.0;
    }
    out
}

impl SuccessCurves {
    /// Computes the curves for `trace` (parallel across sources).
    pub fn compute(trace: &Trace, opts: &CurveOptions) -> SuccessCurves {
        let window = opts.window.unwrap_or_else(|| trace.span());
        SuccessCurves::compute_windowed(trace, opts, &[window])
    }

    /// Computes the curves with message creation times drawn uniformly from
    /// the *union* of `windows` (e.g. [`day_time_windows`]); per-window
    /// success measures are combined weighted by window length.
    /// `opts.window` is ignored.
    pub fn compute_windowed(
        trace: &Trace,
        opts: &CurveOptions,
        windows: &[Interval],
    ) -> SuccessCurves {
        let weights = validated_weights(opts, windows);
        let arcs = Arcs::of(trace);
        let node_limit = if opts.internal_pairs_only {
            trace.num_internal()
        } else {
            trace.num_nodes()
        };
        // A source without contacts reaches no one: its partial is all
        // +0.0, and adding +0.0 leaves every (non-negative) sum bitwise
        // unchanged, so only sources with a contact are computed.
        let active: Vec<NodeId> = (0..node_limit)
            .map(NodeId)
            .filter(|&s| !arcs.leaving(s).is_empty())
            .collect();

        // One partial sum matrix per active source, reduced at the end in
        // ascending source order. A row is folded into its partial as soon
        // as it is computed, so it never outlives it.
        let partials =
            AllPairsProfiles::for_each_row(trace, &arcs, opts.profiles, &active, |row| {
                source_partial(&row, node_limit, opts, windows, &weights)
            });
        SuccessCurves::reduce(opts, partials, node_limit as usize)
    }

    /// Aggregates the curves from already-computed profile rows — the
    /// artifact-backed query path, which must never re-run the §4.4
    /// induction (`opts.profiles` is therefore ignored).
    ///
    /// `rows` must hold the rows for sources `0..node_limit` in ascending
    /// order, where `node_limit` is `num_internal` under
    /// `opts.internal_pairs_only` and the rows' full universe otherwise;
    /// destinations range over the same `0..node_limit`. Produces exactly
    /// what [`SuccessCurves::compute_windowed`] would for the trace the
    /// rows came from.
    ///
    /// # Panics
    /// If `rows` does not cover `0..node_limit` in ascending source order.
    pub fn from_profiles(
        rows: &[&SourceProfiles],
        opts: &CurveOptions,
        windows: &[Interval],
        num_internal: u32,
    ) -> SuccessCurves {
        let weights = validated_weights(opts, windows);
        let num_nodes = rows.first().map_or(0, |r| r.num_nodes() as u32);
        let node_limit = if opts.internal_pairs_only {
            num_internal.min(num_nodes)
        } else {
            num_nodes
        };
        assert!(
            rows.len() as u32 >= node_limit,
            "need rows for sources 0..{node_limit}, have {}",
            rows.len()
        );
        for (i, r) in rows[..node_limit as usize].iter().enumerate() {
            assert_eq!(
                r.source().0,
                i as u32,
                "rows must be sources 0..{node_limit} in ascending order"
            );
        }
        // As in `compute_windowed`, a source that reaches no one adds +0.0
        // everywhere, so only the others get a partial: on a sparse
        // universe that is a few sources, not one matrix per node.
        let active: Vec<&SourceProfiles> = rows[..node_limit as usize]
            .iter()
            .copied()
            .filter(|r| !(r.tail().is_empty() && r.levels().iter().all(LevelRuns::is_empty)))
            .collect();
        let partials = omnet_analysis::par_map(active.len(), |i| {
            source_partial(active[i], node_limit, opts, windows, &weights)
        });
        SuccessCurves::reduce(opts, partials, node_limit as usize)
    }

    /// Sums per-source partials and normalizes by the ordered-pair count.
    fn reduce(opts: &CurveOptions, partials: Vec<Vec<f64>>, n: usize) -> SuccessCurves {
        let nb = opts.bounds.len();
        let ng = opts.grid.len();
        let pairs = n.saturating_mul(n.saturating_sub(1));
        let mut curves = vec![vec![0.0f64; ng]; nb];
        for acc in partials {
            for bi in 0..nb {
                for gi in 0..ng {
                    curves[bi][gi] += acc[bi * ng + gi];
                }
            }
        }
        if pairs > 0 {
            for row in &mut curves {
                for v in row.iter_mut() {
                    *v /= pairs as f64;
                }
            }
        }
        SuccessCurves {
            bounds: opts.bounds.clone(),
            grid: opts.grid.clone(),
            curves,
            pairs,
        }
    }

    /// The evaluated hop classes.
    pub fn bounds(&self) -> &[HopBound] {
        &self.bounds
    }

    /// The delay grid.
    pub fn grid(&self) -> &[Dur] {
        &self.grid
    }

    /// Number of ordered pairs aggregated.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// The curve of one hop class; `None` if it was not evaluated.
    pub fn curve(&self, bound: HopBound) -> Option<&[f64]> {
        self.bounds
            .iter()
            .position(|b| *b == bound)
            .map(|i| self.curves[i].as_slice())
    }

    /// The (1−ε)-diameter: the smallest evaluated `k` whose curve stays
    /// within a factor `(1−ε)` of flooding at **every** grid delay.
    ///
    /// Returns `None` when no evaluated class qualifies (evaluate more hop
    /// classes) or `Unlimited` was not evaluated.
    pub fn diameter(&self, epsilon: f64) -> Option<usize> {
        let flood = self.curve(HopBound::Unlimited)?;
        let mut ks: Vec<usize> = self
            .bounds
            .iter()
            .filter_map(|b| match b {
                HopBound::AtMost(k) => Some(*k),
                HopBound::Unlimited => None,
            })
            .collect();
        ks.sort_unstable();
        for k in ks {
            let Some(curve) = self.curve(HopBound::AtMost(k)) else {
                continue;
            };
            if curve
                .iter()
                .zip(flood)
                .all(|(c, f)| *c >= (1.0 - epsilon) * *f)
            {
                return Some(k);
            }
        }
        None
    }

    /// The per-delay diameter of Figure 12: the smallest evaluated `k`
    /// achieving `(1−ε)` of flooding **at one grid index**.
    pub fn diameter_at(&self, epsilon: f64, grid_index: usize) -> Option<usize> {
        let flood = self.curve(HopBound::Unlimited)?[grid_index];
        let mut ks: Vec<usize> = self
            .bounds
            .iter()
            .filter_map(|b| match b {
                HopBound::AtMost(k) => Some(*k),
                HopBound::Unlimited => None,
            })
            .collect();
        ks.sort_unstable();
        ks.into_iter().find(|&k| {
            self.curve(HopBound::AtMost(k))
                .is_some_and(|curve| curve[grid_index] >= (1.0 - epsilon) * flood)
        })
    }

    /// The per-delay diameter across the whole grid (Figure 12's curve).
    pub fn diameter_curve(&self, epsilon: f64) -> Vec<Option<usize>> {
        (0..self.grid.len())
            .map(|i| self.diameter_at(epsilon, i))
            .collect()
    }
}

/// Validates the curve request and returns the per-window length weights.
fn validated_weights(opts: &CurveOptions, windows: &[Interval]) -> Vec<f64> {
    assert!(!opts.bounds.is_empty(), "need at least one hop class");
    assert!(!opts.grid.is_empty(), "need a non-empty delay grid");
    assert!(
        opts.grid.windows(2).all(|w| w[0] <= w[1]),
        "delay grid must be ascending"
    );
    assert!(!windows.is_empty(), "need at least one start-time window");
    let total_len: f64 = windows.iter().map(|w| w.duration().as_secs()).sum();
    assert!(
        total_len > 0.0,
        "start-time windows must have positive length"
    );
    windows
        .iter()
        .map(|w| w.duration().as_secs() / total_len)
        .collect()
}

/// One source's contribution to the curves: the length-weighted success
/// measure of every `(dest, bound, window, grid point)` over destinations
/// `0..node_limit`, flattened as `acc[bound * grid_len + grid_index]`.
///
/// Only the destinations the row reaches are visited: every class of any
/// other has an empty frontier, whose all-zero evaluation would add +0.0
/// to sums that start at +0.0 and leave them bitwise unchanged.
///
/// Each destination's hop classes are answered by one forward walk over
/// its runs: a running frontier absorbs level `k`'s run, and the curves
/// (one per window) are re-evaluated only where that frontier changed;
/// every other class reuses the previous evaluation. The unbounded class
/// (and any bound beyond the stored levels) is the last step of the walk:
/// the frontier absorbs the remaining levels and the tail, and is stale
/// only if that added a pair. Each `(dest, bound)` still adds its
/// per-window values into its own slot in the same destination-then-window
/// order, so the sums are bitwise those of evaluating
/// `prof.profile(d, bound)` per class.
fn source_partial(
    prof: &SourceProfiles,
    node_limit: u32,
    opts: &CurveOptions,
    windows: &[Interval],
    weights: &[f64],
) -> Vec<f64> {
    let ng = opts.grid.len();
    let s = prof.source();
    let mut acc = vec![0.0f64; opts.bounds.len() * ng];
    // Bound indices by the level whose frontier answers them; `None` (the
    // unbounded frontier) sorts after every stored level.
    let mut order: Vec<(Option<usize>, usize)> = opts
        .bounds
        .iter()
        .enumerate()
        .map(|(bi, b)| match *b {
            HopBound::AtMost(k) if k <= prof.stored_levels() => (Some(k), bi),
            _ => (None, bi),
        })
        .collect();
    order.sort_by_key(|&(k, _)| (k.is_none(), k));

    let mut frontier = DeliveryFunction::empty();
    let (mut run, mut added, mut merged) = (Vec::new(), Vec::new(), Vec::new());
    let mut suffix = Vec::new();
    let mut curves: Vec<Vec<f64>> = vec![Vec::new(); windows.len()];
    for d in prof
        .reached()
        .into_iter()
        .take_while(|&d| d < node_limit)
        .map(NodeId)
    {
        if d == s {
            continue;
        }
        frontier.clear();
        let mut runs = prof.runs(d, HopBound::Unlimited);
        let mut level = 0;
        // Whether `curves` holds an evaluation of the current frontier.
        // `zero` marks an all-zero evaluation, whose adds would leave every
        // slot bitwise unchanged, so they are skipped.
        let mut held = false;
        let mut zero = false;
        for &(k, bi) in &order {
            let mut absorb = |r: &[LdEa]| {
                run.clear();
                run.extend_from_slice(r);
                frontier.absorb_compacted(&mut run, &mut added, &mut merged);
                !added.is_empty()
            };
            let mut changed = !held;
            match k {
                Some(k) => {
                    while level < k {
                        level += 1;
                        changed |= absorb(runs.next().unwrap_or_default());
                    }
                }
                None => {
                    for r in runs.by_ref() {
                        changed |= absorb(r);
                    }
                }
            }
            if changed {
                for (curve, w) in curves.iter_mut().zip(windows) {
                    frontier.success_curve_into(*w, &opts.grid, &mut suffix, curve);
                }
                zero = curves.iter().flatten().all(|&v| v == 0.0);
                held = true;
            }
            if zero {
                continue;
            }
            for (curve, &weight) in curves.iter().zip(weights) {
                for (gi, &v) in curve.iter().enumerate() {
                    acc[bi * ng + gi] += weight * v;
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_temporal::TraceBuilder;

    /// A star: node 0 meets 1..=3 in overlapping windows, so most pairs need
    /// 2 hops; flooding gains nothing beyond 2.
    fn star_trace() -> Trace {
        TraceBuilder::new()
            .window(Interval::secs(0.0, 100.0))
            .contact_secs(0, 1, 0.0, 40.0)
            .contact_secs(0, 2, 10.0, 60.0)
            .contact_secs(0, 3, 20.0, 80.0)
            .build()
    }

    fn opts(max_hops: usize) -> CurveOptions {
        CurveOptions::standard(
            max_hops,
            vec![
                Dur::ZERO,
                Dur::secs(10.0),
                Dur::secs(30.0),
                Dur::secs(100.0),
                Dur::INF,
            ],
        )
    }

    #[test]
    fn star_diameter_is_two() {
        let t = star_trace();
        let curves = SuccessCurves::compute(&t, &opts(4));
        assert_eq!(curves.pairs(), 12);
        let d = curves.diameter(0.01).expect("diameter exists");
        assert_eq!(d, 2);
    }

    #[test]
    fn curves_monotone_in_hops_and_delay() {
        let t = star_trace();
        let curves = SuccessCurves::compute(&t, &opts(4));
        let flood = curves.curve(HopBound::Unlimited).unwrap();
        for k in 1..=4 {
            let c = curves.curve(HopBound::AtMost(k)).unwrap();
            // more delay never hurts
            assert!(c.windows(2).all(|w| w[0] <= w[1] + 1e-12));
            // flooding dominates every class
            for (a, b) in c.iter().zip(flood) {
                assert!(a <= &(b + 1e-12));
            }
        }
        // k and k+1 ordering
        let c1 = curves.curve(HopBound::AtMost(1)).unwrap();
        let c2 = curves.curve(HopBound::AtMost(2)).unwrap();
        assert!(c1.iter().zip(c2).all(|(a, b)| a <= &(b + 1e-12)));
    }

    #[test]
    fn one_hop_only_star_arms() {
        let t = star_trace();
        let curves = SuccessCurves::compute(&t, &opts(4));
        let c1 = curves.curve(HopBound::AtMost(1)).unwrap();
        let flood = curves.curve(HopBound::Unlimited).unwrap();
        // Direct contacts exist only for the 6 ordered pairs touching node
        // 0; each succeeds only when created before its contact ends (LD):
        // measures 0.4, 0.6, 0.8 per direction → (0.4+0.6+0.8)·2/12 = 0.3.
        let last = c1.len() - 1;
        assert!((c1[last] - 0.3).abs() < 1e-9, "got {}", c1[last]);
        assert!(flood[last] > c1[last]);
    }

    #[test]
    fn diameter_none_when_not_enough_classes() {
        // Line graph needs 3 hops; only evaluate up to 2.
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(2, 3, 40.0, 50.0)
            .build();
        let curves = SuccessCurves::compute(&t, &opts(2));
        assert_eq!(curves.diameter(0.01), None);
        let curves = SuccessCurves::compute(&t, &opts(3));
        assert_eq!(curves.diameter(0.01), Some(3));
    }

    #[test]
    fn diameter_at_varies_with_delay() {
        // Direct contact late, 2-hop path early: small delay budgets need 2
        // hops, huge budgets are satisfied with 1.
        let t = TraceBuilder::new()
            .window(Interval::secs(0.0, 10.0))
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 0.0, 10.0)
            .contact_secs(0, 2, 9.0, 10.0)
            .build();
        let grid = vec![Dur::ZERO, Dur::INF];
        let mut o = CurveOptions::standard(3, grid);
        o.internal_pairs_only = true;
        let curves = SuccessCurves::compute(&t, &o);
        let d0 = curves.diameter_at(0.01, 0);
        let dinf = curves.diameter_at(0.01, 1);
        assert_eq!(dinf, Some(1));
        assert_eq!(d0, Some(2));
        assert_eq!(curves.diameter_curve(0.01), vec![d0, dinf]);
    }

    #[test]
    fn internal_pairs_only_respected() {
        let t = TraceBuilder::new()
            .num_nodes(4)
            .internal(2)
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(2, 3, 0.0, 10.0)
            .build();
        let mut o = opts(2);
        o.internal_pairs_only = true;
        let c = SuccessCurves::compute(&t, &o);
        assert_eq!(c.pairs(), 2);
        let mut o2 = opts(2);
        o2.internal_pairs_only = false;
        let c2 = SuccessCurves::compute(&t, &o2);
        assert_eq!(c2.pairs(), 12);
    }

    #[test]
    fn window_override() {
        // With a window after all contacts, nothing succeeds.
        let t = star_trace();
        let mut o = opts(2);
        o.window = Some(Interval::secs(90.0, 100.0));
        let c = SuccessCurves::compute(&t, &o);
        let flood = c.curve(HopBound::Unlimited).unwrap();
        assert!(flood.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn success_probability_value_exact() {
        // Single pair 0-1 with one contact [0,40] on window [0,100]:
        // success with delay 0 for t in [0,40]: 0.4; with INF also 0.4.
        let t = TraceBuilder::new()
            .window(Interval::secs(0.0, 100.0))
            .contact_secs(0, 1, 0.0, 40.0)
            .build();
        let c = SuccessCurves::compute(&t, &opts(1));
        let flood = c.curve(HopBound::Unlimited).unwrap();
        assert!((flood[0] - 0.4).abs() < 1e-12);
        assert!((flood[4] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn day_time_windows_cover_hours() {
        let t = TraceBuilder::new()
            .window(Interval::secs(0.0, 3.0 * 86_400.0))
            .contact_secs(0, 1, 0.0, 10.0)
            .build();
        let ws = day_time_windows(&t, 9.0, 18.0);
        assert_eq!(ws.len(), 3);
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(w.start.as_secs(), i as f64 * 86_400.0 + 9.0 * 3600.0);
            assert_eq!(w.duration(), Dur::hours(9.0));
        }
        // partial trailing day clipped
        let t2 = TraceBuilder::new()
            .window(Interval::secs(0.0, 86_400.0 + 10.0 * 3600.0))
            .contact_secs(0, 1, 0.0, 10.0)
            .build();
        let ws2 = day_time_windows(&t2, 9.0, 18.0);
        assert_eq!(ws2.len(), 2);
        assert_eq!(ws2[1].duration(), Dur::hours(1.0));
    }

    #[test]
    fn windowed_compute_averages_by_length() {
        // contact only during the first window: mixing a success window and
        // a dead window of equal length halves the probability.
        let t = TraceBuilder::new()
            .window(Interval::secs(0.0, 200.0))
            .contact_secs(0, 1, 0.0, 100.0)
            .build();
        let o = CurveOptions::standard(2, vec![Dur::ZERO]);
        let live = Interval::secs(0.0, 100.0);
        let dead = Interval::secs(100.0, 200.0);
        let both = SuccessCurves::compute_windowed(&t, &o, &[live, dead]);
        let live_only = SuccessCurves::compute_windowed(&t, &o, &[live]);
        let v_both = both.curve(HopBound::Unlimited).unwrap()[0];
        let v_live = live_only.curve(HopBound::Unlimited).unwrap()[0];
        assert!((v_live - 1.0).abs() < 1e-12);
        assert!((v_both - 0.5).abs() < 1e-12);
        // unequal lengths weight accordingly: 100s live + 300s dead -> 0.25
        let dead_long = Interval::secs(100.0, 400.0);
        let quarter = SuccessCurves::compute_windowed(&t, &o, &[live, dead_long]);
        assert!((quarter.curve(HopBound::Unlimited).unwrap()[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_profiles_matches_compute_bitwise() {
        let t = star_trace();
        let o = opts(4);
        let direct = SuccessCurves::compute(&t, &o);
        let rows =
            crate::algorithm::AllPairsProfiles::compute_range(&t, o.profiles, 0..t.num_nodes());
        let refs: Vec<&SourceProfiles> = rows.iter().collect();
        let loaded = SuccessCurves::from_profiles(&refs, &o, &[t.span()], t.num_internal());
        assert_eq!(loaded.pairs(), direct.pairs());
        for &b in direct.bounds() {
            // Same accumulation order on both paths — results are bitwise
            // identical, which is what the artifact query path promises.
            assert_eq!(loaded.curve(b), direct.curve(b), "curve for {b:?}");
        }
        assert_eq!(loaded.diameter(0.01), direct.diameter(0.01));
    }

    #[test]
    fn delivery_consistency_with_dijkstra() {
        use crate::dijkstra::earliest_arrival;
        let t = star_trace();
        let profs = crate::algorithm::AllPairsProfiles::compute(
            &t,
            crate::algorithm::ProfileOptions::default(),
        );
        for s in 0..4u32 {
            for start in [0.0, 5.0, 15.0, 35.0, 55.0, 85.0] {
                let tree = earliest_arrival(&t, NodeId(s), Time::secs(start));
                for d in 0..4u32 {
                    let via_profile = profs
                        .profile(NodeId(s), NodeId(d), HopBound::Unlimited)
                        .delivery(Time::secs(start));
                    assert_eq!(
                        via_profile,
                        tree.arrival(NodeId(d)),
                        "mismatch {s}->{d} at {start}"
                    );
                }
            }
        }
    }
}
