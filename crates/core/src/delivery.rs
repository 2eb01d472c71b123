//! Delivery functions as Pareto frontiers of `(LD, EA)` pairs (§4.3–4.4).
//!
//! For one source–destination pair, every valid contact sequence contributes
//! a summary `(LD, EA)`; the optimal delivery time of a message created at
//! `t` is `del(t) = min { max(t, EA_k) : t ≤ LD_k }` (Eq. 3). The paper's key
//! observation (condition 4) is that only the pairs on the *Pareto frontier*
//! — no other pair departs later **and** arrives earlier — are needed to
//! represent `del`, and that this frontier is exactly the set of optimal
//! paths. A [`DeliveryFunction`] maintains that frontier: pairs sorted by
//! strictly increasing `LD` **and** strictly increasing `EA`.

use omnet_temporal::invariant;
use omnet_temporal::{Dur, Interval, LdEa, Time};

/// The delivery function of one ordered source–destination pair: a compact
/// Pareto list of `(LD, EA)` summaries of optimal contact sequences
/// (§4.3, condition 4).
///
/// ```
/// use omnet_core::DeliveryFunction;
/// use omnet_temporal::{LdEa, Time};
///
/// let mut f = DeliveryFunction::empty();
/// // a direct contact [30, 90]: leave by 90, arrive at 30
/// f.insert(LdEa { ld: Time::secs(90.0), ea: Time::secs(30.0) });
/// assert_eq!(f.delivery(Time::secs(10.0)), Time::secs(30.0)); // wait for it
/// assert_eq!(f.delivery(Time::secs(50.0)), Time::secs(50.0)); // inside it
/// assert_eq!(f.delivery(Time::secs(95.0)), Time::INF);        // missed it
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeliveryFunction {
    /// Invariant: `ld` strictly increasing, `ea` strictly increasing.
    pairs: Vec<LdEa>,
}

impl DeliveryFunction {
    /// The empty function: no path ever, `del(t) = ∞` everywhere.
    pub const fn empty() -> DeliveryFunction {
        DeliveryFunction { pairs: Vec::new() }
    }

    /// The identity function of a node to itself: `del(t) = t` — represented
    /// by the empty-sequence summary `(LD, EA) = (+∞, -∞)`.
    pub fn identity() -> DeliveryFunction {
        DeliveryFunction {
            pairs: vec![LdEa::EMPTY],
        }
    }

    /// Builds from arbitrary summaries, compacting to the Pareto frontier.
    pub fn from_pairs<I: IntoIterator<Item = LdEa>>(pairs: I) -> DeliveryFunction {
        let mut f = DeliveryFunction::empty();
        let mut cands: Vec<LdEa> = pairs.into_iter().collect();
        cands.sort_by_key(|a| (a.ld, a.ea));
        f.pairs = compact_sorted(cands);
        invariant::enforce(|| invariant::validate_frontier(&f.pairs));
        f
    }

    /// Builds from pairs that must *already* be a valid frontier — the
    /// deserialization counterpart of [`DeliveryFunction::from_pairs`] that
    /// validates instead of compacting, so corrupted persisted data is
    /// rejected rather than silently repaired.
    pub fn from_frontier(
        pairs: Vec<LdEa>,
    ) -> Result<DeliveryFunction, invariant::InvariantViolation> {
        invariant::validate_frontier(&pairs)?;
        Ok(DeliveryFunction { pairs })
    }

    /// The frontier pairs, `LD` and `EA` both strictly increasing.
    pub fn pairs(&self) -> &[LdEa] {
        &self.pairs
    }

    /// Consumes the function into its frontier pairs (the serialization
    /// hook: what an artifact writes is exactly this vector).
    pub fn into_pairs(self) -> Vec<LdEa> {
        self.pairs
    }

    /// The frontier pair that realizes [`DeliveryFunction::delivery`] at
    /// `t` — the summary an optimal path for a message created at `t`
    /// follows — or `None` when no path remains.
    pub fn pair_at(&self, t: Time) -> Option<LdEa> {
        self.pairs
            .get(self.pairs.partition_point(|p| p.ld < t))
            .copied()
    }

    /// Number of optimal paths represented (the paper's measure of how many
    /// distinct optimal sequences exist, Fig. 8).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no path exists at any time.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Optimal delivery time of a message created at `t` (Eq. 3).
    pub fn delivery(&self, t: Time) -> Time {
        frontier_delivery(&self.pairs, t)
    }

    /// Optimal delay `del(t) − t`; `Dur::INF` when no path remains.
    pub fn delay(&self, t: Time) -> Dur {
        let d = self.delivery(t);
        if d == Time::INF {
            Dur::INF
        } else {
            d.since(t)
        }
    }

    /// Inserts one summary, keeping the frontier invariant.
    /// Returns `true` when the summary was *not* dominated (i.e. it changed
    /// the function).
    pub fn insert(&mut self, p: LdEa) -> bool {
        // Find the insertion point by ld.
        let i = self.pairs.partition_point(|q| q.ld < p.ld);
        // Dominated by an existing pair (one with ld >= p.ld and ea <= p.ea)?
        // Candidates are at position i (smallest ld >= p.ld); since ea grows
        // with ld, pairs[i] has the smallest ea among them.
        if i < self.pairs.len() && self.pairs[i].ea <= p.ea {
            return false;
        }
        // Remove pairs dominated by p: ld <= p.ld and ea >= p.ea. They sit
        // immediately before i (ea increases, so dominated ones are a
        // contiguous run ending at i-1) — plus pairs[i] itself when it shares
        // p's ld (it then has a larger ea, or we would have returned above).
        let hi = if i < self.pairs.len() && self.pairs[i].ld == p.ld {
            i + 1
        } else {
            i
        };
        let mut j = i;
        while j > 0 && self.pairs[j - 1].ea >= p.ea {
            j -= 1;
        }
        self.pairs.splice(j..hi, std::iter::once(p));
        true
    }

    /// Empties the function in place, retaining the pair buffer's capacity.
    ///
    /// This is the pooling hook for scratch storage that reuses
    /// `DeliveryFunction` slots across §4.4 induction runs: a cleared slot
    /// is indistinguishable from [`DeliveryFunction::empty`] but its next
    /// growth is allocation-free.
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    /// Absorbs a batch of candidate summaries; returns those that genuinely
    /// extended the frontier (used for delta propagation in the §4.4
    /// induction).
    ///
    /// Cold-path convenience: allocates a fresh `Vec` per call. The engine
    /// hot path uses [`DeliveryFunction::absorb_compacted`]; prefer
    /// [`DeliveryFunction::absorb_into`] wherever a buffer can be reused.
    pub fn absorb(&mut self, candidates: &[LdEa]) -> Vec<LdEa> {
        let mut added = Vec::new();
        self.absorb_into(candidates, &mut added);
        added
    }

    /// Allocation-free variant of [`DeliveryFunction::absorb`] (§4.4): clears
    /// `added` and refills it with the candidates that genuinely extended the
    /// frontier, so the induction can reuse one buffer across levels.
    pub fn absorb_into(&mut self, candidates: &[LdEa], added: &mut Vec<LdEa>) {
        added.clear();
        for &p in candidates {
            if self.insert(p) {
                added.push(p);
            }
        }
    }

    /// Batch absorb for the §4.4 induction's arena frontiers: compacts the
    /// candidate buffer to its Pareto frontier in place, refills `added`
    /// with the compacted candidates that are not (weakly) dominated by the
    /// current frontier, and rebuilds `self` as the Pareto union via one
    /// linear merge through the scratch buffer `merged`.
    ///
    /// Equivalent to [`DeliveryFunction::absorb_into`] followed by
    /// `compact_frontier_in_place` on `added` — dropping a candidate that
    /// is dominated by a same-level sibling is exact because concatenation
    /// with an arc (fact (iv)) is monotone: the dominating pair's extension
    /// dominates the dominated pair's extension. Unlike the insert-based
    /// path this costs `O(c·log c + f)` per call instead of one binary
    /// search plus splice per surviving candidate.
    pub fn absorb_compacted(
        &mut self,
        cands: &mut Vec<LdEa>,
        added: &mut Vec<LdEa>,
        merged: &mut Vec<LdEa>,
    ) {
        compact_frontier_in_place(cands);
        added.clear();
        // Both `self.pairs` and `cands` ascend in (ld, ea); a candidate is
        // weakly dominated iff the first frontier pair with `ld >= c.ld`
        // (minimal `ea` among those) has `ea <= c.ea` — the same test as
        // `insert`, evaluated by a merged walk.
        let mut i = 0;
        for &c in cands.iter() {
            while i < self.pairs.len() && self.pairs[i].ld < c.ld {
                i += 1;
            }
            if i < self.pairs.len() && self.pairs[i].ea <= c.ea {
                continue;
            }
            added.push(c);
        }
        if added.is_empty() {
            return;
        }
        // Pareto union of two frontiers where no survivor is dominated by
        // the old frontier (filtered above) but old pairs may be dominated
        // by survivors: scan both descending by (ld, ea), keep a pair iff
        // its `ea` strictly improves, collapsing equal-`ld` groups exactly
        // like `compact_sorted`.
        merged.clear();
        let mut a = self.pairs.len();
        let mut b = added.len();
        let mut best_ea = Time::INF;
        while a > 0 || b > 0 {
            let take_old = b == 0
                || (a > 0
                    && (self.pairs[a - 1].ld, self.pairs[a - 1].ea)
                        > (added[b - 1].ld, added[b - 1].ea));
            let p = if take_old {
                a -= 1;
                self.pairs[a]
            } else {
                b -= 1;
                added[b]
            };
            if p.ea < best_ea {
                best_ea = p.ea;
                if merged.last().is_some_and(|l| l.ld == p.ld) {
                    merged.pop();
                }
                merged.push(p);
            }
        }
        merged.reverse();
        std::mem::swap(&mut self.pairs, merged);
        invariant::enforce(|| invariant::validate_frontier(&self.pairs));
    }

    /// True when this frontier dominates every summary a contact on `iv`
    /// could contribute (§4.3, fact (iv)): any such candidate has
    /// `ld <= iv.end` and `ea >= iv.start`, so one pair with
    /// `ld >= iv.end` and `ea <= iv.start` covers them all. The pairs with
    /// `ld >= iv.end` form a suffix whose minimum EA is its first element,
    /// so the test is a single binary search.
    pub fn covers(&self, iv: Interval) -> bool {
        self.dominates_point(iv.end, iv.start)
    }

    /// Whether some frontier pair weakly dominates `(ld, ea)` — departs no
    /// earlier and arrives no later. The induction uses this on the *best
    /// corner* of a candidate batch (max LD, min EA): if even the corner is
    /// dominated, every real candidate in the batch is too, and the whole
    /// batch can be skipped without materializing it (§4.4 — an exact
    /// pruning, strictly stronger than testing the arc rectangle alone).
    pub fn dominates_point(&self, ld: Time, ea: Time) -> bool {
        // Both coordinates ascend, so the first pair with `q.ld >= ld`
        // carries the minimum EA among all such pairs.
        let i = self.pairs.partition_point(|q| q.ld < ld);
        i < self.pairs.len() && self.pairs[i].ea <= ea
    }

    /// Merges another delivery function into this one (Pareto union).
    pub fn merge(&mut self, other: &DeliveryFunction) {
        for &p in &other.pairs {
            self.insert(p);
        }
        invariant::enforce(|| invariant::validate_frontier(&self.pairs));
    }

    /// Concatenates every represented sequence with one more contact on the
    /// right (interval `iv`), returning the compacted candidate summaries
    /// for the extended source→peer pair.
    ///
    /// Only pairs with `EA ≤ iv.end` extend (fact (iv)); each maps to
    /// `(min(LD, iv.end), max(EA, iv.start))`, and the collapsed groups are
    /// re-compacted. The output is itself a valid frontier.
    ///
    /// Cold-path convenience: allocates a fresh `Vec` per call. Hot paths
    /// (the engine and the naive spec alike) use
    /// [`DeliveryFunction::extend_into`] with a reused buffer.
    pub fn extend_with(&self, iv: Interval) -> Vec<LdEa> {
        let mut out = Vec::new();
        extend_frontier_into(&self.pairs, iv, &mut out);
        invariant::enforce(|| invariant::validate_frontier(&out));
        out
    }

    /// Allocation-free variant of [`DeliveryFunction::extend_with`] (§4.4):
    /// appends the compacted candidate summaries to a caller-owned scratch
    /// buffer instead of returning a fresh `Vec`, so the induction hot path
    /// performs zero allocations per (pair, arc) visit.
    ///
    /// The appended run `out[before..]` is itself a valid frontier; `out` as
    /// a whole is an arbitrary concatenation of such runs.
    pub fn extend_into(&self, iv: Interval, out: &mut Vec<LdEa>) {
        extend_frontier_into(&self.pairs, iv, out);
    }

    /// Closed-form success measure: the fraction of start times `t` drawn
    /// uniformly from `window` whose optimal delay is at most `max_delay`.
    ///
    /// For each frontier segment `t ∈ (LD_{i-1}, LD_i]` the delay is
    /// `max(0, EA_i − t)`, so the sub-measure is the length of
    /// `(max(LD_{i-1}, EA_i − x), LD_i]` clipped to the window — an exact
    /// integral, no sampling (this is how Figures 9–12 are computed).
    pub fn success_measure(&self, window: Interval, max_delay: Dur) -> f64 {
        let total = window.duration().as_secs();
        if total <= 0.0 {
            // Degenerate window: evaluate pointwise.
            return if self.delay(window.start) <= max_delay {
                1.0
            } else {
                0.0
            };
        }
        let mut covered = 0.0f64;
        let mut prev_ld = Time::NEG_INF;
        for p in &self.pairs {
            // success in (prev_ld, p.ld] requires t >= p.ea - x
            let lo = if max_delay == Dur::INF {
                prev_ld
            } else {
                prev_ld.max(p.ea - max_delay)
            };
            let lo = lo.max(window.start);
            let hi = p.ld.min(window.end);
            if hi > lo {
                covered += hi.since(lo).as_secs();
            }
            prev_ld = p.ld;
            if prev_ld >= window.end {
                break;
            }
        }
        (covered / total).clamp(0.0, 1.0)
    }

    /// Evaluates [`DeliveryFunction::success_measure`] on a whole ascending
    /// delay grid in one frontier pass.
    ///
    /// Per frontier segment the measure is piecewise linear in the delay
    /// budget `x`: zero up to `EA − seg_hi`, a unit-slope ramp, then the
    /// full segment length from `EA − seg_lo` on. Each segment therefore
    /// touches a contiguous grid range, accumulated with a suffix trick, so
    /// the cost is `O(frontier + grid + ramp points)` instead of
    /// `O(frontier × grid)`.
    pub fn success_curve(&self, window: Interval, grid: &[Dur]) -> Vec<f64> {
        let mut out = Vec::new();
        self.success_curve_into(window, grid, &mut Vec::new(), &mut out);
        out
    }

    /// Allocation-free form of [`DeliveryFunction::success_curve`]: refills
    /// `out` with the curve (one value per grid point) and uses `suffix` as
    /// scratch, so a caller evaluating many frontiers reuses both buffers.
    pub fn success_curve_into(
        &self,
        window: Interval,
        grid: &[Dur],
        suffix: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        debug_assert!(grid.windows(2).all(|w| w[0] <= w[1]), "grid must ascend");
        out.clear();
        let total = window.duration().as_secs();
        if total <= 0.0 {
            let d = self.delay(window.start);
            out.extend(grid.iter().map(|&x| if d <= x { 1.0 } else { 0.0 }));
            return;
        }
        // `out` first collects the direct (ramp) contributions; `suffix`
        // holds the suffix-adds of full segment lengths.
        out.resize(grid.len(), 0.0);
        let ramp = out;
        let full_suffix = suffix;
        full_suffix.clear();
        full_suffix.resize(grid.len() + 1, 0.0);
        let mut prev_ld = Time::NEG_INF;
        for p in &self.pairs {
            let seg_lo = prev_ld.max(window.start);
            let seg_hi = p.ld.min(window.end);
            prev_ld = p.ld;
            if seg_hi <= seg_lo {
                if p.ld >= window.end {
                    break;
                }
                continue;
            }
            let len = seg_hi.since(seg_lo).as_secs();
            // x >= x_full: full contribution; x in (x_zero, x_full): ramp.
            let x_full = p.ea.since(seg_lo); // may be <= 0 or infinite-negative
            let x_zero = p.ea.since(seg_hi);
            let i_full = grid.partition_point(|&x| x < x_full);
            full_suffix[i_full] += len;
            let i_zero = grid.partition_point(|&x| x <= x_zero);
            for i in i_zero..i_full {
                // seg_hi - (ea - x) = x - x_zero
                ramp[i] += (grid[i] - x_zero).as_secs();
            }
            if p.ld >= window.end {
                break;
            }
        }
        let mut acc = 0.0f64;
        for (r, &full) in ramp.iter_mut().zip(full_suffix.iter()) {
            acc += full;
            *r = ((*r + acc) / total).clamp(0.0, 1.0);
        }
    }

    /// Checks the frontier invariant (for tests and debug assertions).
    pub fn check_invariant(&self) -> bool {
        self.pairs
            .windows(2)
            .all(|w| w[0].ld < w[1].ld && w[0].ea < w[1].ea)
    }
}

/// Eq. (3) over a frontier slice (`ld` and `ea` both strictly increasing):
/// the first pair with `ld >= t` carries the minimum `ea` of every pair
/// still available at `t`, so one binary search answers it.
pub(crate) fn frontier_delivery(pairs: &[LdEa], t: Time) -> Time {
    match pairs.get(pairs.partition_point(|p| p.ld < t)) {
        Some(p) => t.max(p.ea),
        None => Time::INF,
    }
}

/// Concatenates every summary of the frontier slice `pairs` with one more
/// contact on the right (§4.4, "concatenation with edges on the right"),
/// appending the compacted candidates to `out`.
///
/// `pairs` must satisfy the frontier invariant (both coordinates strictly
/// increasing). Only pairs with `EA ≤ iv.end` extend (fact (iv)); each maps
/// to `(min(LD, iv.end), max(EA, iv.start))`. Because `min`/`max` with a
/// constant preserve the sort order, the mapped run is non-decreasing in
/// both coordinates, so dominance only arises between neighbours and the
/// run compacts in one forward pass with no scratch allocation: an equal-EA
/// neighbour is superseded by the later (larger-LD) pair, an equal-LD
/// neighbour dominates the later (larger-EA) pair.
pub(crate) fn extend_frontier_into(pairs: &[LdEa], iv: Interval, out: &mut Vec<LdEa>) {
    let te = iv.end;
    let tb = iv.start;
    // Pairs with ea <= te form a prefix (ea increasing).
    let prefix_len = pairs.partition_point(|p| p.ea <= te);
    let start = out.len();
    for p in &pairs[..prefix_len] {
        let c = LdEa {
            ld: p.ld.min(te),
            ea: p.ea.max(tb),
        };
        match out.last() {
            Some(last) if out.len() > start && last.ea == c.ea => {
                // c.ld >= last.ld: c (weakly) dominates the kept pair.
                let i = out.len() - 1;
                out[i] = c;
            }
            Some(last) if out.len() > start && last.ld == c.ld => {
                // c.ea > last.ea: c is dominated; skip it.
            }
            _ => out.push(c),
        }
    }
    invariant::enforce(|| invariant::validate_frontier(&out[start..]));
}

/// Whether some pair of the frontier slice `filt` weakly dominates `c`
/// (slice-level counterpart of [`DeliveryFunction::dominates_point`]).
#[inline]
fn slice_dominates(filt: &[LdEa], c: LdEa) -> bool {
    let i = filt.partition_point(|q| q.ld < c.ld);
    i < filt.len() && filt[i].ea <= c.ea
}

/// The neighbour-dedup rule of [`extend_frontier_into`], restricted to the
/// pairs pushed since `start`: an equal-EA neighbour is superseded by the
/// later (larger-LD) pair, an equal-LD neighbour dominates the later
/// (larger-EA) pair.
#[inline]
fn dedup_push(out: &mut Vec<LdEa>, start: usize, c: LdEa) {
    match out.last() {
        Some(last) if out.len() > start && last.ea == c.ea => {
            let i = out.len() - 1;
            out[i] = c;
        }
        Some(last) if out.len() > start && last.ld == c.ld => {}
        _ => out.push(c),
    }
}

/// `extend_frontier_into` (the §4.4 arc-extension step) with the mapped
/// run's three-region structure made explicit and a dominance filter
/// against `filt` (the destination's current frontier) fused into every
/// emission.
///
/// Because both coordinates of `pairs` strictly ascend, the boardable
/// prefix `ea <= iv.end` of the mapped run `p -> (min(LD, te), max(EA,
/// tb))` splits into three regions:
///
/// * a **head** (`ea < tb`) whose images all share `ea = tb` and collapse
///   under the dedup rule to the last pair alone;
/// * an unchanged **middle** (`tb <= ea`, `ld < te`) copied verbatim;
/// * a **tail** (`ld >= te`) whose images all share `ld = te` and collapse
///   to the first pair alone.
///
/// Only the middle is iterated; head and tail cost `O(log |pairs|)` each.
/// That asymmetry is what makes this the induction's hot-path extension:
/// late-level delta runs are tail-heavy, and the plain
/// `extend_frontier_into` walks every collapsed tail pair just to keep
/// one of them.
///
/// Emissions already weakly dominated by a pair of `filt` are dropped at
/// push time (the middle reuses one forward-only filter cursor, since
/// mapped LDs ascend). Dropping them is exact for the induction's
/// absorb step: a dominated candidate can never join the frontier, and any
/// candidate it would have superseded in the dedup is dominated by the
/// same `filt` pair, hence also dropped. The surviving candidates
/// therefore absorb to exactly the same frontier — with the same added
/// pairs — as the unfiltered run; only the candidate *traffic* shrinks.
pub fn extend_frontier_filtered_into(
    pairs: &[LdEa],
    iv: Interval,
    filt: &[LdEa],
    out: &mut Vec<LdEa>,
) {
    let te = iv.end;
    let tb = iv.start;
    let n = pairs.partition_point(|p| p.ea <= te);
    if n == 0 {
        return;
    }
    let run = &pairs[..n];
    let a_end = run.partition_point(|p| p.ea < tb);
    let c_idx = a_end + run[a_end..].partition_point(|p| p.ld < te);
    let start = out.len();
    if a_end > 0 {
        let c = LdEa {
            ld: run[a_end - 1].ld.min(te),
            ea: tb,
        };
        if !slice_dominates(filt, c) {
            dedup_push(out, start, c);
        }
    }
    let mut fi = 0usize;
    for &p in &run[a_end..c_idx] {
        fi += filt[fi..].partition_point(|q| q.ld < p.ld);
        if fi < filt.len() && filt[fi].ea <= p.ea {
            continue;
        }
        dedup_push(out, start, p);
    }
    if c_idx < n {
        let c = LdEa {
            ld: te,
            ea: run[c_idx].ea.max(tb),
        };
        if !slice_dominates(filt, c) {
            dedup_push(out, start, c);
        }
    }
    invariant::enforce(|| invariant::validate_frontier(&out[start..]));
}

/// Sorts an arbitrary candidate list and compacts it, in place, to the
/// Pareto frontier of §4.3 condition (4) — the buffer-reusing counterpart
/// of [`DeliveryFunction::from_pairs`] used by the induction's per-level
/// delta buffers.
pub(crate) fn compact_frontier_in_place(cands: &mut Vec<LdEa>) {
    cands.sort_unstable_by_key(|a| (a.ld, a.ea));
    // Reverse scan by decreasing LD (mirrors `compact_sorted`), filling the
    // kept pairs from the tail of the same buffer: the write cursor `w`
    // always stays strictly above the read cursor, so nothing unread is
    // clobbered.
    let mut w = cands.len();
    let mut best_ea = Time::INF;
    for r in (0..cands.len()).rev() {
        let p = cands[r];
        if p.ea < best_ea {
            best_ea = p.ea;
            if w < cands.len() && cands[w].ld == p.ld {
                cands[w] = p; // equal-LD group: the smaller EA wins the slot
            } else {
                w -= 1;
                cands[w] = p;
            }
        }
    }
    cands.drain(..w);
    invariant::enforce(|| invariant::validate_frontier(cands));
}

/// Compacts a `(ld, ea)`-sorted candidate list to the Pareto frontier,
/// implementing the paper's condition (4): scanning by decreasing `LD`, a
/// pair survives iff its `EA` strictly improves on everything after it.
fn compact_sorted(cands: Vec<LdEa>) -> Vec<LdEa> {
    debug_assert!(cands
        .windows(2)
        .all(|w| (w[0].ld, w[0].ea) <= (w[1].ld, w[1].ea)));
    let mut out: Vec<LdEa> = Vec::with_capacity(cands.len());
    let mut best_ea = Time::INF;
    for &p in cands.iter().rev() {
        if p.ea < best_ea {
            best_ea = p.ea;
            // equal-LD group: the later-scanned (smaller ea) one replaces it
            if let Some(last) = out.last() {
                if last.ld == p.ld {
                    out.pop();
                }
            }
            out.push(p);
        }
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(ld: f64, ea: f64) -> LdEa {
        LdEa {
            ld: Time::secs(ld),
            ea: Time::secs(ea),
        }
    }

    #[test]
    fn empty_function_never_delivers() {
        let f = DeliveryFunction::empty();
        assert_eq!(f.delivery(Time::ZERO), Time::INF);
        assert_eq!(f.delay(Time::ZERO), Dur::INF);
        assert!(f.is_empty());
    }

    #[test]
    fn identity_delivers_instantly() {
        let f = DeliveryFunction::identity();
        assert_eq!(f.delivery(Time::secs(42.0)), Time::secs(42.0));
        assert_eq!(f.delay(Time::secs(42.0)), Dur::ZERO);
    }

    #[test]
    fn insert_keeps_frontier() {
        let mut f = DeliveryFunction::empty();
        assert!(f.insert(pair(10.0, 8.0)));
        assert!(f.insert(pair(20.0, 15.0)));
        // dominated: departs earlier AND arrives later than (10, 8)
        assert!(!f.insert(pair(5.0, 9.0)));
        // dominates (10, 8): departs later, arrives earlier
        assert!(f.insert(pair(12.0, 7.0)));
        assert!(f.check_invariant());
        assert_eq!(f.len(), 2);
        assert_eq!(f.pairs()[0], pair(12.0, 7.0));
        assert_eq!(f.pairs()[1], pair(20.0, 15.0));
    }

    #[test]
    fn insert_equal_ld_keeps_smaller_ea() {
        let mut f = DeliveryFunction::empty();
        f.insert(pair(10.0, 8.0));
        assert!(f.insert(pair(10.0, 5.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pairs()[0], pair(10.0, 5.0));
        assert!(!f.insert(pair(10.0, 6.0)));
    }

    #[test]
    fn insert_middle_removes_dominated_run() {
        let mut f = DeliveryFunction::from_pairs([
            pair(1.0, 0.5),
            pair(2.0, 1.5),
            pair(3.0, 2.5),
            pair(9.0, 8.0),
        ]);
        // dominates the (2, 1.5) and (3, 2.5) pairs
        assert!(f.insert(pair(4.0, 1.0)));
        assert!(f.check_invariant());
        assert_eq!(f.pairs(), &[pair(1.0, 0.5), pair(4.0, 1.0), pair(9.0, 8.0)]);
    }

    #[test]
    fn delivery_piecewise_semantics() {
        // Figure-5-style function: three contemporaneous pairs and one
        // store-and-forward pair (LD < EA).
        let f = DeliveryFunction::from_pairs([pair(10.0, 5.0), pair(20.0, 15.0), pair(30.0, 40.0)]);
        assert_eq!(f.delivery(Time::secs(0.0)), Time::secs(5.0));
        assert_eq!(f.delivery(Time::secs(7.0)), Time::secs(7.0)); // inside first
        assert_eq!(f.delivery(Time::secs(12.0)), Time::secs(15.0));
        assert_eq!(f.delivery(Time::secs(25.0)), Time::secs(40.0)); // relayed
        assert_eq!(f.delivery(Time::secs(30.0)), Time::secs(40.0));
        assert_eq!(f.delivery(Time::secs(30.1)), Time::INF);
    }

    #[test]
    fn from_pairs_compacts() {
        let f = DeliveryFunction::from_pairs([
            pair(5.0, 9.0), // dominated by (10, 8)
            pair(10.0, 8.0),
            pair(10.0, 6.0), // dominates previous at same ld
            pair(20.0, 15.0),
            pair(18.0, 16.0), // dominated by (20, 15)
        ]);
        assert!(f.check_invariant());
        assert_eq!(f.pairs(), &[pair(10.0, 6.0), pair(20.0, 15.0)]);
    }

    #[test]
    fn extend_with_contact_basic() {
        // Single direct pair (ld=te, ea=tb) from identity.
        let id = DeliveryFunction::identity();
        let ext = id.extend_with(Interval::secs(3.0, 9.0));
        assert_eq!(ext, vec![pair(9.0, 3.0)]);
    }

    #[test]
    fn extend_with_respects_concat_condition() {
        // A pair arriving after the contact ends cannot extend.
        let f = DeliveryFunction::from_pairs([pair(50.0, 40.0)]);
        assert!(f.extend_with(Interval::secs(10.0, 20.0)).is_empty());
        // A pair arriving during the contact extends with its own EA.
        let f = DeliveryFunction::from_pairs([pair(50.0, 15.0)]);
        let ext = f.extend_with(Interval::secs(10.0, 20.0));
        assert_eq!(ext, vec![pair(20.0, 15.0)]);
    }

    #[test]
    fn extend_with_collapses_groups() {
        let f = DeliveryFunction::from_pairs([
            pair(5.0, 1.0),   // ea <= tb: becomes (5, 10)
            pair(8.0, 2.0),   // ea <= tb: becomes (8, 10) — dominates (5,10)
            pair(12.0, 11.0), // tb < ea <= te, ld < te: stays (12, 11)
            pair(30.0, 14.0), // ld >= te: becomes (20, 14)… dominates (12,11)? no: ea 14 > 11
            pair(40.0, 18.0), // ld >= te: becomes (20, 18) — dominated by (20, 14)
            pair(50.0, 25.0), // ea > te: cannot extend
        ]);
        let ext = f.extend_with(Interval::secs(10.0, 20.0));
        assert_eq!(
            ext,
            vec![pair(8.0, 10.0), pair(12.0, 11.0), pair(20.0, 14.0)]
        );
    }

    #[test]
    fn merge_is_pareto_union() {
        let mut a = DeliveryFunction::from_pairs([pair(10.0, 5.0), pair(30.0, 25.0)]);
        let b = DeliveryFunction::from_pairs([pair(20.0, 4.0)]);
        a.merge(&b);
        // (20,4) dominates (10,5)
        assert_eq!(a.pairs(), &[pair(20.0, 4.0), pair(30.0, 25.0)]);
    }

    #[test]
    fn success_measure_exact() {
        // One pair (ld=10, ea=5) on window [0, 20].
        let f = DeliveryFunction::from_pairs([pair(10.0, 5.0)]);
        let w = Interval::secs(0.0, 20.0);
        // delay 0 achieved for t in [5, 10]: 5/20
        assert!((f.success_measure(w, Dur::ZERO) - 0.25).abs() < 1e-12);
        // delay <= 2: t in [3, 10]: 7/20
        assert!((f.success_measure(w, Dur::secs(2.0)) - 0.35).abs() < 1e-12);
        // delay <= inf: t in [0(win), 10]: 10/20
        assert!((f.success_measure(w, Dur::INF) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn success_measure_multi_segment() {
        // Pairs (10,5) and (30,40): second segment is store-and-forward.
        let f = DeliveryFunction::from_pairs([pair(10.0, 5.0), pair(30.0, 40.0)]);
        let w = Interval::secs(0.0, 40.0);
        // delay <= 10: segment 1: t in [0,10] with 5-t<=10 → all 10
        //              segment 2: t in (10,30] with 40-t<=10 → t>=30 → {30}: 0 length
        assert!((f.success_measure(w, Dur::secs(10.0)) - 0.25).abs() < 1e-12);
        // delay <= 15: segment 2 adds t in [25,30]: 5 → 15/40
        assert!((f.success_measure(w, Dur::secs(15.0)) - 0.375).abs() < 1e-12);
        // delay <= inf: t in [0,30] → 30/40
        assert!((f.success_measure(w, Dur::INF) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn success_measure_identity_is_one() {
        let f = DeliveryFunction::identity();
        let w = Interval::secs(0.0, 100.0);
        assert_eq!(f.success_measure(w, Dur::ZERO), 1.0);
    }

    #[test]
    fn success_measure_window_clipping() {
        let f = DeliveryFunction::from_pairs([pair(10.0, 5.0)]);
        // window entirely after ld: no success
        assert_eq!(f.success_measure(Interval::secs(20.0, 30.0), Dur::INF), 0.0);
        // degenerate window: pointwise
        assert_eq!(f.success_measure(Interval::secs(7.0, 7.0), Dur::ZERO), 1.0);
        assert_eq!(f.success_measure(Interval::secs(2.0, 2.0), Dur::ZERO), 0.0);
    }

    #[test]
    fn success_curve_matches_pointwise_measure() {
        let funcs = [
            DeliveryFunction::empty(),
            DeliveryFunction::identity(),
            DeliveryFunction::from_pairs([pair(10.0, 5.0)]),
            DeliveryFunction::from_pairs([pair(10.0, 5.0), pair(30.0, 40.0)]),
            DeliveryFunction::from_pairs([
                pair(2.0, 1.0),
                pair(10.0, 5.0),
                pair(30.0, 40.0),
                pair(55.0, 52.0),
            ]),
        ];
        let windows = [
            Interval::secs(0.0, 40.0),
            Interval::secs(5.0, 25.0),
            Interval::secs(0.0, 100.0),
            Interval::secs(60.0, 80.0),
        ];
        let grid: Vec<Dur> = [0.0, 1.0, 2.5, 5.0, 10.0, 20.0, 50.0, 1e6]
            .iter()
            .map(|&x| Dur::secs(x))
            .collect();
        for f in &funcs {
            for w in &windows {
                let curve = f.success_curve(*w, &grid);
                for (i, &x) in grid.iter().enumerate() {
                    let direct = f.success_measure(*w, x);
                    assert!(
                        (curve[i] - direct).abs() < 1e-9,
                        "mismatch at x={x:?} w={w:?} f={f:?}: {} vs {}",
                        curve[i],
                        direct
                    );
                }
            }
        }
    }

    #[test]
    fn success_curve_handles_infinite_budget() {
        let f = DeliveryFunction::from_pairs([pair(10.0, 5.0), pair(30.0, 40.0)]);
        let w = Interval::secs(0.0, 40.0);
        let grid = vec![Dur::secs(1.0), Dur::INF];
        let curve = f.success_curve(w, &grid);
        assert!((curve[1] - f.success_measure(w, Dur::INF)).abs() < 1e-12);
        assert!(curve[0] <= curve[1]);
    }

    #[test]
    fn absorb_reports_only_additions() {
        let mut f = DeliveryFunction::from_pairs([pair(10.0, 5.0)]);
        let added = f.absorb(&[pair(8.0, 6.0), pair(20.0, 15.0)]);
        assert_eq!(added, vec![pair(20.0, 15.0)]);
    }

    #[test]
    fn clear_retains_capacity_and_empties() {
        let mut f = DeliveryFunction::from_pairs([pair(10.0, 5.0), pair(20.0, 15.0)]);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f, DeliveryFunction::empty());
        assert!(f.insert(pair(3.0, 1.0)));
        assert_eq!(f.pairs(), &[pair(3.0, 1.0)]);
    }

    /// `absorb_compacted`'s delta must equal the insert-based
    /// `absorb_into` + `compact_frontier_in_place` pipeline, and the
    /// resulting frontier must match pair for pair.
    #[test]
    fn absorb_compacted_matches_insert_based_absorb() {
        let frontiers: Vec<Vec<LdEa>> = vec![
            vec![],
            vec![LdEa::EMPTY],
            vec![pair(10.0, 5.0)],
            vec![pair(10.0, 5.0), pair(20.0, 15.0), pair(40.0, 30.0)],
        ];
        let batches: Vec<Vec<LdEa>> = vec![
            vec![],
            vec![pair(10.0, 5.0)],                  // duplicate of existing
            vec![pair(8.0, 6.0), pair(20.0, 15.0)], // dominated + duplicate
            vec![pair(25.0, 3.0)],                  // dominates most of the frontier
            vec![pair(12.0, 7.0), pair(12.0, 9.0)], // same-level domination
            vec![pair(50.0, 45.0), pair(15.0, 14.0), pair(15.0, 2.0)],
            vec![pair(10.0, 4.0), pair(10.0, 4.0)], // exact same-level duplicates
        ];
        for base in &frontiers {
            for batch in &batches {
                let mut reference = DeliveryFunction::from_pairs(base.iter().copied());
                let mut ref_added = Vec::new();
                reference.absorb_into(batch, &mut ref_added);
                compact_frontier_in_place(&mut ref_added);

                let mut subject = DeliveryFunction::from_pairs(base.iter().copied());
                let mut cands = batch.clone();
                let mut added = Vec::new();
                let mut merged = Vec::new();
                subject.absorb_compacted(&mut cands, &mut added, &mut merged);

                assert_eq!(added, ref_added, "delta mismatch: {base:?} + {batch:?}");
                assert_eq!(
                    subject.pairs(),
                    reference.pairs(),
                    "frontier mismatch: {base:?} + {batch:?}"
                );
                assert!(subject.check_invariant());
            }
        }
    }
}
