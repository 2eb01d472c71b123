//! Exhaustive computation of delay-optimal paths (§4.4).
//!
//! The paper constructs, for every source–destination pair and every hop
//! class `≤ k`, the delivery function "by induction on the set of contacts",
//! keeping only Pareto-optimal `(LD, EA)` pairs. We realize the induction as
//! a hop-level dynamic program with *delta propagation*:
//!
//! * level 0: every source reaches itself with the empty-sequence summary;
//! * level k+1: every summary **newly added** at level k is concatenated
//!   with every contact leaving its device ("concatenation with edges on the
//!   right"), and the results are absorbed into the destination frontiers.
//!
//! Concatenating only the level-k *deltas* is exact because concatenation
//! distributes over Pareto union and older pairs were already extended at an
//! earlier level. The program reaches a fixpoint after roughly
//! diameter-many levels, at which point the frontiers equal the unbounded
//! (flooding-optimal) delivery functions; the intermediate levels are
//! exactly the hop-bounded classes that the diameter definition (§4.1)
//! needs.
//!
//! # Engine hot path
//!
//! The engine-level optimizations keep the induction allocation-free,
//! pruned, and shaped for large `N` (all of it differentially tested
//! against [`SourceProfiles::compute_naive`]):
//!
//! * **flat CSR arc index** — [`Arcs`] packs all directed arcs into one
//!   contiguous array grouped by tail node with a `row_offsets` table
//!   (built through [`omnet_temporal::Csr`]), so `leaving`/`boardable` are
//!   offset slices with no per-node pointer chase, and walking delta nodes
//!   in ascending id walks arc memory forward;
//! * **time-indexed arc pruning** — each CSR row is sorted by interval
//!   end, so one `partition_point` on a delta's earliest arrival skips
//!   every contact that ended before the summary could board;
//! * **flat level runs and bitset frontiers** — each level's delta pairs
//!   live in one pooled [`LevelRuns`] (three flat arrays: destinations,
//!   run ends, pairs), and word-packed dirty/reached bitsets keep every
//!   per-level loop proportional to the destinations that actually
//!   changed, never to the node count;
//! * **delta level storage** — a row keeps only the per-level frontier
//!   additions plus a tail, each in the same [`LevelRuns`] layout the
//!   induction builds a level in and a shard writes it as: storing a level
//!   is one exact-size copy of three arrays, never an allocation per
//!   (destination, level) run, and `AtMost(k)` queries are reconstructed
//!   on demand, so row memory is `O(Σ frontier)` rather than `O(levels ×
//!   Σ frontier)`;
//! * **one batch entry point** — [`AllPairsProfiles::for_each_row`] runs
//!   the induction for a list of sources in parallel, one pooled scratch
//!   per worker, and hands each finished row to a visitor by value: shard
//!   writers keep the rows, while the §4.1 curves and the 10⁵-node scale
//!   gate fold each one into a small result and drop it, so a large
//!   all-pairs pass never holds more than the rows in flight.

use crate::delivery::{self, DeliveryFunction};
use omnet_obs::Counter;
use omnet_temporal::{invariant, ContactId, Csr, Interval, LdEa, NodeId, Time, Trace};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

// Engine telemetry: always-on `omnet_obs` counters, accumulated in plain
// locals inside the induction body and flushed with one relaxed
// `fetch_add` each per source — the per-(pair, arc) hot path pays
// nothing. Per-level `engine.level` events are additionally emitted when a
// trace sink is enabled.
/// Sources whose §4.4 induction ran to completion.
static SOURCES: Counter = Counter::new("engine.sources");
/// Induction levels executed (all sources).
static LEVELS: Counter = Counter::new("engine.levels");
/// Arcs skipped by the time-indexed boardability `partition_point`.
static ARCS_TIME_PRUNED: Counter = Counter::new("engine.arcs_time_pruned");
/// Boardable arcs skipped exactly because the destination frontier
/// already dominated the best `(ld, ea)` corner any of their candidates
/// could reach.
static ARCS_COVER_SKIPPED: Counter = Counter::new("engine.arcs_cover_skipped");
/// `ProfileScratch` resets that reused previously grown buffers.
static SCRATCH_REUSES: Counter = Counter::new("engine.scratch_reuses");
/// Destinations whose candidate buffer was written by an extension step,
/// summed over levels and sources — how sparse the per-level touched set
/// actually is compared to `levels × n`.
static FRONTIER_TOUCHED: Counter = Counter::new("engine.frontier_touched");
/// High-water mark of the pooled per-level delta runs, in `LdEa` pairs
/// (a `record_max` gauge, not a sum).
static ARENA_HWM: Counter = Counter::new("engine.arena_hwm");

/// A maximum-hop constraint for path queries (the hop classes of §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopBound {
    /// Paths of at most this many contacts.
    AtMost(usize),
    /// Flooding: any number of hops.
    Unlimited,
}

/// Options for the §4.4 profile computation.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`ProfileOptions::builder`] (or take [`ProfileOptions::default`]) so
/// future knobs stay non-breaking.
///
/// ```
/// use omnet_core::ProfileOptions;
/// let opts = ProfileOptions::builder().store_levels(10).max_levels(64).build();
/// assert_eq!(opts, ProfileOptions::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProfileOptions {
    /// Keep the per-hop frontier snapshot for every level `k <=
    /// store_levels`. Queries with `HopBound::AtMost(k)` beyond this fall
    /// back to the unbounded profile (exact once `k >=`
    /// [`SourceProfiles::converged_at`]).
    pub store_levels: usize,
    /// Hard cap on induction levels, as a safety net; the fixpoint in real
    /// traces arrives after about diameter-many levels.
    pub max_levels: usize,
}

impl ProfileOptions {
    /// Starts a [`ProfileOptionsBuilder`] seeded with the defaults of the
    /// §4.4 induction (store 10 levels, cap at 64).
    pub fn builder() -> ProfileOptionsBuilder {
        ProfileOptionsBuilder {
            opts: ProfileOptions::default(),
        }
    }
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            store_levels: 10,
            max_levels: 64,
        }
    }
}

/// Builder for [`ProfileOptions`] — the only way to construct non-default
/// options for the §4.4 induction now that the struct is
/// `#[non_exhaustive]`.
#[derive(Debug, Clone)]
#[must_use = "call `.build()` to obtain the ProfileOptions"]
pub struct ProfileOptionsBuilder {
    opts: ProfileOptions,
}

impl ProfileOptionsBuilder {
    /// Keep frontier snapshots for hop classes `0..=n`.
    pub fn store_levels(mut self, n: usize) -> Self {
        self.opts.store_levels = n;
        self
    }

    /// Cap the induction at `n` levels.
    pub fn max_levels(mut self, n: usize) -> Self {
        self.opts.max_levels = n;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ProfileOptions {
        self.opts
    }
}

/// Directed arc view of a trace's contacts (the "edges" the §4.4 induction
/// concatenates on the right), stored as one flat CSR table: all arcs in a
/// single contiguous array grouped by tail node and sorted by interval end
/// within each row, with a `row_offsets` table mapping a node to its arc
/// range — no per-node heap indirection. Built once per trace and shared
/// across per-source computations (and, via [`Arcs::leaving_contacts`],
/// with the brute-force oracle and the naive spec).
///
/// The end-sorted order is what makes the induction's arc pruning a binary
/// search: arcs whose interval ended before a summary's earliest arrival
/// form a prefix of the row.
#[derive(Debug, Clone)]
pub struct Arcs {
    /// `num_nodes + 1` offsets into `arcs`/`contact_ids`, non-decreasing.
    row_offsets: Vec<u32>,
    /// All arcs as `(head, interval)`, grouped by tail, end-sorted per row.
    arcs: Vec<(u32, Interval)>,
    /// The contact each arc was expanded from (column parallel to `arcs`).
    contact_ids: Vec<ContactId>,
}

impl Arcs {
    /// Expands each undirected contact into its two directed arcs and packs
    /// them into the CSR index: one counting-sort pass through
    /// [`omnet_temporal::Csr`], then an end-sort within each row. Row order
    /// ties are broken by contact id so the parallel contact column is
    /// deterministic even when duplicate contacts produce identical
    /// `(end, start, head)` keys.
    pub fn of(trace: &Trace) -> Arcs {
        let n = trace.num_nodes() as usize;
        let mut csr = Csr::build(
            n,
            trace.contacts().iter().enumerate().flat_map(|(i, c)| {
                [
                    (c.a.0, (c.b.0, c.interval, i as u32)),
                    (c.b.0, (c.a.0, c.interval, i as u32)),
                ]
            }),
        );
        csr.sort_rows_by_key(|&(head, iv, cid)| (iv.end, iv.start, head, cid));
        let (row_offsets, entries) = csr.into_offsets_and_entries();
        let mut arcs = Vec::with_capacity(entries.len());
        let mut contact_ids = Vec::with_capacity(entries.len());
        for (head, iv, cid) in entries {
            arcs.push((head, iv));
            contact_ids.push(ContactId(cid));
        }
        Arcs {
            row_offsets,
            arcs,
            contact_ids,
        }
    }

    /// Arcs leaving `node` as `(head, interval)` pairs, ascending by
    /// interval end — one offset-delimited slice of the flat arc array.
    pub fn leaving(&self, node: NodeId) -> &[(u32, Interval)] {
        &self.arcs[self.row_range(node)]
    }

    /// The contacts the arcs of [`Arcs::leaving`] were expanded from, in
    /// the same order — the parallel column that lets sequence enumeration
    /// (`bruteforce`) walk the shared index instead of rebuilding its own
    /// adjacency.
    pub fn leaving_contacts(&self, node: NodeId) -> &[ContactId] {
        &self.contact_ids[self.row_range(node)]
    }

    /// The suffix of [`Arcs::leaving`] that a summary arriving at `ea` can
    /// still board: arcs with `interval.end >= ea` (§4.3, fact (iv)).
    pub fn boardable(&self, node: NodeId, ea: omnet_temporal::Time) -> &[(u32, Interval)] {
        let all = self.leaving(node);
        &all[all.partition_point(|&(_, iv)| iv.end < ea)..]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Total number of directed arcs (twice the contact count).
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    fn row_range(&self, node: NodeId) -> Range<usize> {
        self.row_offsets[node.index()] as usize..self.row_offsets[node.index() + 1] as usize
    }
}

/// Reusable working memory of the §4.4 induction, shaped for large `N`:
/// pooled per-destination frontier and candidate slots, one flat
/// [`LevelRuns`] holding the current level's delta runs, and word-packed
/// dirty/reached bitsets. Every per-level loop — extension, absorption,
/// bookkeeping — is proportional to the destinations whose frontier
/// actually changed, never to the node count, and the steady-state hot
/// path allocates nothing per (pair, arc) visit.
#[derive(Debug, Default)]
pub(crate) struct ProfileScratch {
    /// Pooled per-destination frontiers (the induction's `cur` row).
    cur: Vec<DeliveryFunction>,
    /// Candidate summaries produced by the extension step, per destination.
    cands: Vec<Vec<LdEa>>,
    /// The current level's delta runs, ascending by destination (each run
    /// a valid compacted frontier).
    delta: LevelRuns,
    /// Word-packed dirty bits: destination received candidates this level.
    dirty: Vec<u64>,
    /// Destinations marked dirty this level (sorted before absorption).
    touched: Vec<u32>,
    /// Word-packed reached bits: destination frontier is non-empty.
    reached_words: Vec<u64>,
    /// Destinations with a non-empty frontier, in first-reached order.
    reached: Vec<u32>,
    /// Reusable absorb output buffer.
    added: Vec<LdEa>,
    /// Reusable merge buffer for `DeliveryFunction::absorb_compacted`.
    merge: Vec<LdEa>,
    /// Destinations whose frontier changed at a level past `store_levels`
    /// (with repeats): the only ones that can hold tail pairs.
    late: Vec<u32>,
    /// True while an induction is running: a reset observing it recovers
    /// from a mid-flight panic with a full wipe instead of trusting the
    /// sparse end-of-run cleanup that never happened.
    in_flight: bool,
}

impl ProfileScratch {
    /// Grows the pooled buffers to `n` destinations. Relies on the previous
    /// run's sparse cleanup (every slot it touched was cleared on the way
    /// out) unless that run panicked mid-flight.
    fn reset(&mut self, n: usize) {
        if !self.cands.is_empty() {
            SCRATCH_REUSES.inc();
        }
        if self.in_flight {
            for f in &mut self.cur {
                f.clear();
            }
            for b in &mut self.cands {
                b.clear();
            }
            self.dirty.fill(0);
            self.reached_words.fill(0);
            self.touched.clear();
            self.reached.clear();
        }
        self.cur
            .resize_with(n.max(self.cur.len()), DeliveryFunction::empty);
        self.cands.resize_with(n.max(self.cands.len()), Vec::new);
        let words = n.div_ceil(64);
        self.dirty.resize(words.max(self.dirty.len()), 0);
        self.reached_words
            .resize(words.max(self.reached_words.len()), 0);
        self.delta.clear();
        self.late.clear();
        self.in_flight = true;
    }

    /// Sparse end-of-run cleanup: clears exactly the slots the finished
    /// induction populated, leaving their capacity for the next source.
    fn finish(&mut self) {
        for &d in &self.reached {
            self.cur[d as usize].clear();
            self.reached_words[(d >> 6) as usize] &= !(1u64 << (d & 63));
        }
        self.reached.clear();
        self.delta.clear();
        self.late.clear();
        self.in_flight = false;
    }
}

/// One induction level's stored delta runs, or a row's tail: for each
/// destination with a run, ascending, its pairs (§4.4). Level 0 (identity
/// at the source) is implicit.
///
/// The runs are held flat, exactly as a shard lays them out: the
/// destinations, the end of each run in one shared pair array, and that
/// array. Filling a level costs no allocation per run, and a finished one
/// keeps no spare capacity.
///
/// Every run is a non-empty frontier: `ld` and `ea` both strictly
/// increasing. The hop-bounded reads rely on it — the first pair of a run
/// with `ld >= t` carries that run's minimum available `ea` — so the
/// induction checks it where it stores a level (under `strict-invariants`)
/// and [`SourceProfiles::from_parts`] rejects persisted runs that break it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelRuns {
    /// Destinations with a run, ascending.
    dests: Vec<u32>,
    /// `offsets[i]`: the end of run `i` in `pairs`; run `i` starts where
    /// run `i - 1` ends.
    offsets: Vec<u32>,
    /// Every run's pairs, back to back in destination order.
    pairs: Vec<LdEa>,
}

impl LevelRuns {
    /// Appends `run` as the run of `dest`. Runs must be pushed in
    /// ascending destination order; [`SourceProfiles::from_parts`] rejects
    /// levels that are not.
    pub fn push(&mut self, dest: u32, run: &[LdEa]) {
        self.pairs.extend_from_slice(run);
        self.dests.push(dest);
        self.offsets.push(self.pairs.len() as u32);
    }

    /// Appends the pairs of `run` as the run of `dest`, unless there are
    /// none.
    fn push_nonempty(&mut self, dest: u32, run: impl IntoIterator<Item = LdEa>) {
        let lo = self.pairs.len();
        self.pairs.extend(run);
        if self.pairs.len() > lo {
            self.dests.push(dest);
            self.offsets.push(self.pairs.len() as u32);
        }
    }

    /// The run of `dest`, empty when it has none.
    pub fn run(&self, dest: u32) -> &[LdEa] {
        self.dests
            .binary_search(&dest)
            .map_or(&[][..], |i| self.run_at(i))
    }

    /// Every `(dest, run)`, in stored order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[LdEa])> + '_ {
        (0..self.dests.len()).map(|i| (self.dests[i], self.run_at(i)))
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// True when no destination has a run.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    fn run_at(&self, i: usize) -> &[LdEa] {
        let lo = i.checked_sub(1).map_or(0, |j| self.offsets[j]);
        &self.pairs[lo as usize..self.offsets[i] as usize]
    }

    fn clear(&mut self) {
        self.dests.clear();
        self.offsets.clear();
        self.pairs.clear();
    }

    fn shrink_to_fit(&mut self) {
        self.dests.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.pairs.shrink_to_fit();
    }
}

/// A row's tail: for each `(dest, fixpoint frontier)` of `frontiers`
/// (ascending by dest), the frontier pairs that no stored run of `dest`
/// holds, in frontier order. The source's identity pair counts as stored
/// (level 0).
fn tail_of<'a>(
    levels: &[LevelRuns],
    source: NodeId,
    frontiers: impl Iterator<Item = (u32, &'a [LdEa])>,
) -> LevelRuns {
    let stored = |d: u32, p: &LdEa| {
        (d == source.0 && *p == LdEa::EMPTY)
            || levels.iter().any(|level| {
                let run = level.run(d);
                run.binary_search_by_key(&p.ld, |q| q.ld)
                    .is_ok_and(|i| run[i] == *p)
            })
    };
    let mut tail = LevelRuns::default();
    for (d, pairs) in frontiers {
        tail.push_nonempty(d, pairs.iter().filter(|p| !stored(d, p)).copied());
    }
    tail.shrink_to_fit();
    tail
}

/// Delivery functions from one source to every destination, per hop class
/// (§4.4), held exactly as a shard stores them: the pairs each stored
/// induction level added, plus a tail.
///
/// The `AtMost(k)` frontier of a destination is the Pareto union of the
/// identity (at the source) and its runs of levels `1..=k`; the unbounded
/// frontier adds the runs of every stored level and the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceProfiles {
    source: NodeId,
    /// Size of the node universe.
    num_nodes: usize,
    /// First level at which no frontier changed (the fixpoint level).
    converged_at: usize,
    /// False if `max_levels` was hit before the fixpoint (pathological).
    converged: bool,
    /// `levels[k-1]`: the delta runs of hop class `k`, for
    /// `k <= min(store_levels, converged_at)`.
    levels: Vec<LevelRuns>,
    /// The fixpoint pairs no stored run of their destination holds (added
    /// at a level past `store_levels`), ascending by destination.
    tail: LevelRuns,
}

impl SourceProfiles {
    /// Runs the §4.4 induction for one source with a private scratch.
    ///
    /// Batch callers (many sources on one trace) should prefer
    /// [`AllPairsProfiles::for_each_row`], which parallelizes across
    /// sources and pools one `ProfileScratch` per worker thread.
    pub fn compute(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
    ) -> SourceProfiles {
        let mut scratch = ProfileScratch::default();
        SourceProfiles::induct(trace, arcs, source, opts, &mut scratch)
    }

    /// The induction body behind every entry point, on a pooled scratch
    /// that it leaves recycled for the next source.
    ///
    /// The hot path is allocation-free in the steady state and touches only
    /// changing destinations: each level extends the previous level's delta
    /// runs through the CSR arc index in ascending-destination order
    /// (forward memory walk), marks written candidate buffers in a dirty
    /// bitset, then absorbs exactly the touched destinations — sorted so
    /// delta runs stay ascending — via the merge-based
    /// [`DeliveryFunction::absorb_compacted`]. A stored level is a copy of
    /// the delta runs; the tail is read off the frontiers that changed past
    /// `store_levels`.
    pub(crate) fn induct(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
        scratch: &mut ProfileScratch,
    ) -> SourceProfiles {
        let n = trace.num_nodes() as usize;
        assert_eq!(arcs.num_nodes(), n, "arcs built for a different trace");
        assert!(source.index() < n, "source outside the node universe");

        scratch.reset(n);
        let ProfileScratch {
            cur,
            cands,
            delta,
            dirty,
            touched,
            reached_words,
            reached,
            added,
            merge,
            late,
            ..
        } = scratch;

        // Level 0: the source reaches itself with the empty-sequence
        // summary, which is also the first delta run.
        let src = source.index();
        cur[src] = DeliveryFunction::identity();
        reached_words[src >> 6] |= 1u64 << (src & 63);
        reached.push(source.0);

        delta.push(source.0, &[LdEa::EMPTY]);
        let mut levels: Vec<LevelRuns> = Vec::new();
        let mut converged_at = opts.max_levels;
        let mut converged = false;
        // Telemetry accumulators — flushed to the `engine.*` counters once
        // per source so the per-(pair, arc) loop stays counter-free.
        let mut levels_run = 0u64;
        let mut time_pruned = 0u64;
        let mut cover_skipped = 0u64;
        let mut frontier_touched = 0u64;
        let mut delta_hwm = delta.pairs.len() as u64;

        for k in 1..=opts.max_levels {
            levels_run += 1;
            // Extension: concatenate every level-(k-1) delta run with every
            // arc its summaries can still board. Runs ascend by destination,
            // so the CSR rows are visited in ascending memory order.
            for (m, d) in delta.iter() {
                let node = NodeId(m);
                // `d` is a compacted frontier, so its first pair carries the
                // minimum EA — the boardability threshold for the whole
                // delta.
                let boardable = arcs.boardable(node, d[0].ea);
                let cut = arcs.leaving(node).len() - boardable.len();
                time_pruned += cut as u64;
                let min_ea = d[0].ea;
                let max_ld = d[d.len() - 1].ld;
                for &(to, iv) in boardable {
                    let t = to as usize;
                    // Every candidate this arc can produce is weakly
                    // dominated by the batch corner `(min(max LD, end),
                    // max(min EA, start))`; if the destination frontier
                    // dominates even the corner, the whole arc is dead
                    // (exact skip, strictly stronger than testing the arc
                    // rectangle alone).
                    let corner = LdEa {
                        ld: max_ld.min(iv.end),
                        ea: min_ea.max(iv.start),
                    };
                    if cur[t].dominates_point(corner.ld, corner.ea) {
                        cover_skipped += 1;
                        continue;
                    }
                    // Region-structured extension with the dominance
                    // filter fused in: candidates the frontier already
                    // dominates never reach the absorb step (the added set
                    // is unchanged).
                    let before = cands[t].len();
                    delivery::extend_frontier_filtered_into(d, iv, cur[t].pairs(), &mut cands[t]);
                    if cands[t].len() > before && dirty[t >> 6] & (1u64 << (t & 63)) == 0 {
                        dirty[t >> 6] |= 1u64 << (t & 63);
                        touched.push(to);
                    }
                }
            }
            // Absorption: fold candidates into the frontiers of exactly the
            // touched destinations, recording what genuinely extended them
            // as the next level's delta runs. Touched ids are sorted so the
            // runs ascend by destination (stored levels binary-search them,
            // and determinism requires a canonical order).
            touched.sort_unstable();
            frontier_touched += touched.len() as u64;
            delta.clear();
            for &t in touched.iter() {
                let ti = t as usize;
                dirty[ti >> 6] &= !(1u64 << (t & 63));
                cur[ti].absorb_compacted(&mut cands[ti], added, merge);
                cands[ti].clear();
                if added.is_empty() {
                    continue;
                }
                delta.push(t, added);
                if reached_words[ti >> 6] & (1u64 << (t & 63)) == 0 {
                    reached_words[ti >> 6] |= 1u64 << (t & 63);
                    reached.push(t);
                }
            }
            touched.clear();
            delta_hwm = delta_hwm.max(delta.pairs.len() as u64);
            let changed = !delta.is_empty();
            if omnet_obs::enabled() {
                // One record per induction level: how much the frontier
                // grew (delta pairs) and how big it now is. The reached-set
                // sum runs only with an active trace sink.
                let frontier_pairs: usize = reached.iter().map(|&d| cur[d as usize].len()).sum();
                omnet_obs::event(
                    "engine.level",
                    &[
                        ("source", source.0.into()),
                        ("level", k.into()),
                        ("delta_pairs", delta.pairs.len().into()),
                        ("frontier_pairs", frontier_pairs.into()),
                    ],
                );
            }
            if !changed {
                converged_at = k - 1;
                converged = true;
                break;
            }
            if k <= opts.store_levels {
                invariant::enforce(|| {
                    delta
                        .iter()
                        .try_for_each(|(_, run)| invariant::validate_frontier(run))
                });
                levels.push(delta.clone());
            } else {
                late.extend_from_slice(&delta.dests);
            }
        }

        SOURCES.inc();
        LEVELS.add(levels_run);
        ARCS_TIME_PRUNED.add(time_pruned);
        ARCS_COVER_SKIPPED.add(cover_skipped);
        FRONTIER_TOUCHED.add(frontier_touched);
        ARENA_HWM.record_max(delta_hwm);

        late.sort_unstable();
        late.dedup();
        let tail = tail_of(
            &levels,
            source,
            late.iter().map(|&d| (d, cur[d as usize].pairs())),
        );
        scratch.finish();
        SourceProfiles {
            source,
            num_nodes: n,
            converged_at,
            converged,
            levels,
            tail,
        }
    }

    /// Reference implementation of the same induction **without** delta
    /// propagation: every level re-extends the *full* current frontier of
    /// every node through every contact (§4.4, taken literally).
    ///
    /// Output is identical to [`SourceProfiles::compute`] (asserted by tests
    /// and used as an executable specification); the cost per level is the
    /// whole frontier instead of the just-added pairs, which is the
    /// difference the `ablation` criterion bench quantifies. The spec scans
    /// every arc and stores each hop class as the diff of two consecutive
    /// full snapshots.
    pub fn compute_naive(
        trace: &Trace,
        arcs: &Arcs,
        source: NodeId,
        opts: ProfileOptions,
    ) -> SourceProfiles {
        let n = trace.num_nodes() as usize;
        assert_eq!(arcs.num_nodes(), n, "arcs built for a different trace");
        assert!(source.index() < n, "source outside the node universe");

        let mut cur: Vec<DeliveryFunction> = vec![DeliveryFunction::empty(); n];
        cur[source.index()] = DeliveryFunction::identity();
        let mut levels: Vec<LevelRuns> = Vec::new();
        let mut converged_at = opts.max_levels;
        let mut converged = false;

        let mut ext: Vec<LdEa> = Vec::new();
        for k in 1..=opts.max_levels {
            let prev = cur.clone();
            let mut changed = false;
            for (m, row) in prev.iter().enumerate() {
                if row.is_empty() {
                    continue;
                }
                for &(to, iv) in arcs.leaving(NodeId(m as u32)) {
                    ext.clear();
                    row.extend_into(iv, &mut ext);
                    for &p in &ext {
                        if cur[to as usize].insert(p) {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                converged_at = k - 1;
                converged = true;
                break;
            }
            if k <= opts.store_levels {
                levels.push(level_diff(&prev, &cur));
            }
        }

        let tail = tail_of(
            &levels,
            source,
            (0..).zip(&cur).map(|(d, f)| (d, f.pairs())),
        );
        SourceProfiles {
            source,
            num_nodes: n,
            converged_at,
            converged,
            levels,
            tail,
        }
    }

    /// Builds a row from what a shard holds (the artifact load path),
    /// validating every run before trusting it.
    ///
    /// Rejects out-of-range nodes, unsorted destination runs, and runs that
    /// are not valid Pareto frontiers with a typed [`ProfilePartsError`] —
    /// corrupted input never yields a row that answers garbage.
    pub fn from_parts(
        source: NodeId,
        num_nodes: u32,
        converged_at: u32,
        converged: bool,
        mut levels: Vec<LevelRuns>,
        mut tail: LevelRuns,
    ) -> Result<SourceProfiles, ProfilePartsError> {
        if source.0 >= num_nodes {
            return Err(ProfilePartsError::NodeOutOfRange {
                node: source.0,
                num_nodes,
            });
        }
        let check_run = |level: Option<u32>, run: &LevelRuns| -> Result<(), ProfilePartsError> {
            let mut prev: Option<u32> = None;
            for (d, pairs) in run.iter() {
                if d >= num_nodes {
                    return Err(ProfilePartsError::NodeOutOfRange { node: d, num_nodes });
                }
                if prev.is_some_and(|p| p >= d) {
                    return Err(ProfilePartsError::UnsortedDestinations { level });
                }
                prev = Some(d);
                if pairs.is_empty() || invariant::validate_frontier(pairs).is_err() {
                    return Err(ProfilePartsError::InvalidFrontier { level, dest: d });
                }
            }
            Ok(())
        };
        for (li, level) in levels.iter().enumerate() {
            check_run(Some(li as u32 + 1), level)?;
        }
        check_run(None, &tail)?;
        for runs in levels.iter_mut().chain([&mut tail]) {
            runs.shrink_to_fit();
        }
        Ok(SourceProfiles {
            source,
            num_nodes: num_nodes as usize,
            converged_at: converged_at as usize,
            converged,
            levels,
            tail,
        })
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The delivery function to `dest` under `bound`.
    ///
    /// `AtMost(k)` beyond the stored levels returns the unbounded frontier,
    /// which is exact whenever `k >= converged_at` and an upper bound
    /// otherwise. The frontier is rebuilt as the Pareto union of the
    /// identity and the runs of [`SourceProfiles::runs`], and returned
    /// owned.
    ///
    /// This is the reconstructing specification of a read. The hot paths
    /// ([`SourceProfiles::delivery`], [`SourceProfiles::min_hops`] and the
    /// §4.1 curves) walk the runs instead and never build it.
    pub fn profile(&self, dest: NodeId, bound: HopBound) -> Cow<'_, DeliveryFunction> {
        let identity = (dest == self.source).then_some(LdEa::EMPTY);
        let runs = self.runs(dest, bound).flatten().copied();
        Cow::Owned(DeliveryFunction::from_pairs(
            identity.into_iter().chain(runs),
        ))
    }

    /// The runs of `dest` whose union (with the identity at the source)
    /// answers `bound`: one slice per stored level `1..=k`, empty where
    /// that level added nothing for it, then — for `Unlimited` or a `k`
    /// past the stored levels — the runs of every stored level and the
    /// tail run.
    pub(crate) fn runs(&self, dest: NodeId, bound: HopBound) -> impl Iterator<Item = &[LdEa]> {
        let (k, tail) = match bound {
            HopBound::AtMost(k) if k <= self.levels.len() => (k, None),
            _ => (self.levels.len(), Some(self.tail.run(dest.0))),
        };
        self.levels[..k]
            .iter()
            .map(move |level| level.run(dest.0))
            .chain(tail)
    }

    /// Every destination a stored run or the tail names, ascending: the
    /// reached destinations, the source aside.
    pub(crate) fn reached(&self) -> Vec<u32> {
        let mut dests: Vec<u32> = self
            .levels
            .iter()
            .chain([&self.tail])
            .flat_map(|runs| runs.dests.iter().copied())
            .collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }

    /// Optimal delivery time to `dest` for a message created at `t`.
    ///
    /// Answered without building a frontier: the delivery of a union of
    /// pair sets is the minimum of each set's delivery, and each run is a
    /// frontier, so it is the minimum of one binary search per run of
    /// [`SourceProfiles::runs`] — identical to
    /// `self.profile(dest, bound).delivery(t)`.
    pub fn delivery(&self, dest: NodeId, t: Time, bound: HopBound) -> Time {
        // Level 0: the identity delivers at once at the source.
        let identity = if dest == self.source { t } else { Time::INF };
        self.runs(dest, bound)
            .map(|run| delivery::frontier_delivery(run, t))
            .fold(identity, Time::min)
    }

    /// The smallest stored hop class `k` whose `AtMost(k)` delivery to
    /// `dest` at `t` equals the unbounded one, found in one pass over the
    /// prefix minima of the level runs. `None` when `dest` is unreachable
    /// at `t` or no stored class reaches the unbounded arrival.
    pub fn min_hops(&self, dest: NodeId, t: Time) -> Option<usize> {
        let arrival = self.delivery(dest, t, HopBound::Unlimited);
        if arrival == Time::INF {
            return None;
        }
        let mut best = if dest == self.source { t } else { Time::INF };
        let stored = HopBound::AtMost(self.levels.len());
        for (k, run) in self.runs(dest, stored).enumerate() {
            best = best.min(delivery::frontier_delivery(run, t));
            if best == arrival {
                return Some(k + 1);
            }
        }
        None
    }

    /// The level after which nothing changed: every path class `>= this`
    /// is equivalent to flooding. (A per-source upper bound on the hop
    /// count of useful paths.)
    pub fn converged_at(&self) -> usize {
        self.converged_at
    }

    /// False when `max_levels` stopped the induction early.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Largest `k` for which `AtMost(k)` snapshots are stored exactly.
    pub fn stored_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of nodes in the trace this row was computed for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The stored levels: `levels()[k-1]` holds the pairs induction level
    /// `k` added, per destination.
    pub fn levels(&self) -> &[LevelRuns] {
        &self.levels
    }

    /// The fixpoint pairs that no stored level holds, per destination.
    pub fn tail(&self) -> &LevelRuns {
        &self.tail
    }
}

/// The pairs of each frontier in `cur` absent from its counterpart in
/// `prev`, as delta runs ascending by destination — how the naive spec
/// turns two consecutive full snapshots into one stored hop class.
fn level_diff(prev: &[DeliveryFunction], cur: &[DeliveryFunction]) -> LevelRuns {
    let mut out = LevelRuns::default();
    for (d, (cur, prev)) in (0..).zip(cur.iter().zip(prev)) {
        let prev = prev.pairs();
        out.push_nonempty(d, cur.pairs().iter().copied().filter(|p| !prev.contains(p)));
    }
    out.shrink_to_fit();
    out
}

/// Why [`SourceProfiles::from_parts`] or [`AllPairsProfiles::from_rows`]
/// rejected persisted §4.4 profile data instead of reconstructing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProfilePartsError {
    /// A source or destination index is outside the node universe.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// The declared universe size.
        num_nodes: u32,
    },
    /// A level (or the tail, when `level` is `None`) lists destinations out
    /// of order or with duplicates.
    UnsortedDestinations {
        /// Induction level of the bad run; `None` for the tail.
        level: Option<u32>,
    },
    /// A stored pair run is empty or not a strictly-increasing Pareto
    /// frontier.
    InvalidFrontier {
        /// Induction level of the bad run; `None` for the tail.
        level: Option<u32>,
        /// Destination whose run is invalid.
        dest: u32,
    },
    /// Rows handed to [`AllPairsProfiles::from_rows`] are not exactly the
    /// sources `0..n` in ascending order.
    RowOrder {
        /// Position in the row vector.
        index: u32,
        /// The source that row claims.
        source: u32,
    },
    /// A row was computed for a different universe size than its siblings.
    RowWidth {
        /// Position in the row vector.
        index: u32,
        /// Universe size implied by the row count.
        expected: u32,
        /// Universe size the row carries.
        found: u32,
    },
}

impl fmt::Display for ProfilePartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfilePartsError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} outside universe of {num_nodes} nodes")
            }
            ProfilePartsError::UnsortedDestinations { level: Some(k) } => {
                write!(f, "level {k} destinations unsorted or duplicated")
            }
            ProfilePartsError::UnsortedDestinations { level: None } => {
                write!(f, "tail destinations unsorted or duplicated")
            }
            ProfilePartsError::InvalidFrontier {
                level: Some(k),
                dest,
            } => {
                write!(
                    f,
                    "level {k} run for destination {dest} is not a valid frontier"
                )
            }
            ProfilePartsError::InvalidFrontier { level: None, dest } => {
                write!(f, "tail run for destination {dest} is not a valid frontier")
            }
            ProfilePartsError::RowOrder { index, source } => {
                write!(
                    f,
                    "row {index} claims source {source}; rows must be sources 0..n in order"
                )
            }
            ProfilePartsError::RowWidth {
                index,
                expected,
                found,
            } => {
                write!(
                    f,
                    "row {index} built for {found} nodes, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProfilePartsError {}

/// All-pairs profiles: one [`SourceProfiles`] per node, computed in
/// parallel (the "exhaustive algorithm" run of §4.4/§5).
#[derive(Debug, Clone)]
pub struct AllPairsProfiles {
    rows: Vec<SourceProfiles>,
}

impl AllPairsProfiles {
    /// Computes every source's profiles — equivalent to
    /// [`AllPairsProfiles::compute_range`] over `0..num_nodes`.
    pub fn compute(trace: &Trace, opts: ProfileOptions) -> AllPairsProfiles {
        AllPairsProfiles {
            rows: AllPairsProfiles::compute_range(trace, opts, 0..trace.num_nodes()),
        }
    }

    /// The profile rows for the contiguous source range `sources`, in
    /// source order: [`AllPairsProfiles::for_each_row`] keeping every row.
    ///
    /// This is what `omnet precompute` shards over — each shard is an
    /// independent `compute_range` call — and what
    /// [`AllPairsProfiles::compute`] forwards to with the full range.
    ///
    /// # Panics
    /// If `sources` is not a subrange of `0..trace.num_nodes()`.
    pub fn compute_range(
        trace: &Trace,
        opts: ProfileOptions,
        sources: Range<u32>,
    ) -> Vec<SourceProfiles> {
        assert!(
            sources.start <= sources.end && sources.end <= trace.num_nodes(),
            "source range {sources:?} outside universe of {} nodes",
            trace.num_nodes()
        );
        let sources: Vec<NodeId> = sources.map(NodeId).collect();
        AllPairsProfiles::for_each_row(trace, &Arcs::of(trace), opts, &sources, |row| row)
    }

    /// The batch entry point of the §4.4 induction: computes the row of
    /// each of `sources` (parallel across sources, one pooled
    /// `ProfileScratch` per worker) and hands it to `visit` by value.
    /// Returns what `visit` made of each row, in `sources` order.
    ///
    /// A visitor that keeps the row collects it; one that folds it into a
    /// smaller result (the §4.1 curves, a reached count) drops it at once,
    /// so only the rows in flight are ever held. Emits one
    /// `engine.all_pairs` span per call.
    ///
    /// # Panics
    /// If `arcs` was not built for `trace`, or a source is outside its
    /// universe.
    pub fn for_each_row<T, F>(
        trace: &Trace,
        arcs: &Arcs,
        opts: ProfileOptions,
        sources: &[NodeId],
        visit: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(SourceProfiles) -> T + Sync,
    {
        let mut span = omnet_obs::span("engine.all_pairs")
            .with("nodes", trace.num_nodes())
            .with("contacts", trace.num_contacts())
            .with("num_sources", sources.len());
        let results =
            omnet_analysis::par_map_with(sources.len(), ProfileScratch::default, |scratch, i| {
                let row = SourceProfiles::induct(trace, arcs, sources[i], opts, scratch);
                (row.converged_at(), visit(row))
            });
        let max_hops = results.iter().map(|(c, _)| *c).max();
        span.record("max_useful_hops", max_hops.unwrap_or(0));
        results.into_iter().map(|(_, t)| t).collect()
    }

    /// Read access to the per-source rows, ascending by source.
    pub fn rows(&self) -> &[SourceProfiles] {
        &self.rows
    }

    /// Consumes the profile set into its rows (e.g. for sharded
    /// persistence).
    pub fn into_rows(self) -> Vec<SourceProfiles> {
        self.rows
    }

    /// Reassembles a profile set from rows — the inverse of
    /// [`AllPairsProfiles::into_rows`], used when loading persisted shards.
    ///
    /// Validates that the rows are exactly the sources `0..n` in ascending
    /// order and all agree on the universe size.
    pub fn from_rows(rows: Vec<SourceProfiles>) -> Result<AllPairsProfiles, ProfilePartsError> {
        let n = rows.len() as u32;
        for (i, r) in rows.iter().enumerate() {
            if r.source().0 != i as u32 {
                return Err(ProfilePartsError::RowOrder {
                    index: i as u32,
                    source: r.source().0,
                });
            }
            if r.num_nodes() as u32 != n {
                return Err(ProfilePartsError::RowWidth {
                    index: i as u32,
                    expected: n,
                    found: r.num_nodes() as u32,
                });
            }
        }
        Ok(AllPairsProfiles { rows })
    }

    /// The profiles from `source`.
    pub fn from_source(&self, source: NodeId) -> &SourceProfiles {
        &self.rows[source.index()]
    }

    /// The delivery function of the ordered pair `(s, d)` under `bound`.
    pub fn profile(&self, s: NodeId, d: NodeId, bound: HopBound) -> Cow<'_, DeliveryFunction> {
        self.rows[s.index()].profile(d, bound)
    }

    /// The largest per-source fixpoint level: beyond this many hops no pair
    /// gains anything anywhere in the network.
    pub fn max_useful_hops(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.converged_at())
            .max()
            .unwrap_or(0)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_temporal::{Time, TraceBuilder};

    fn line_trace() -> Trace {
        // 0 -[0,10]- 1 -[20,30]- 2 -[40,50]- 3, strictly sequential.
        TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(2, 3, 40.0, 50.0)
            .build()
    }

    /// The default options plus a truncated-storage variant that exercises
    /// the beyond-stored-levels fallback.
    fn knob_combos() -> Vec<ProfileOptions> {
        vec![
            ProfileOptions::default(),
            ProfileOptions::builder().store_levels(2).build(),
        ]
    }

    /// What `AtMost(k)` must answer under `opts`, computed without reading
    /// any stored level: the naive spec's fixpoint frontier capped at `k`
    /// levels while `k` is stored, its uncapped fixpoint beyond.
    fn at_most_reference(
        t: &Trace,
        arcs: &Arcs,
        s: NodeId,
        d: NodeId,
        opts: ProfileOptions,
        k: usize,
    ) -> DeliveryFunction {
        let capped = if k <= opts.store_levels {
            ProfileOptions {
                max_levels: k,
                ..opts
            }
        } else {
            opts
        };
        SourceProfiles::compute_naive(t, arcs, s, capped)
            .profile(d, HopBound::Unlimited)
            .into_owned()
    }

    #[test]
    fn builder_roundtrip_and_defaults() {
        let opts = ProfileOptions::builder()
            .store_levels(10)
            .max_levels(64)
            .build();
        assert_eq!(opts, ProfileOptions::default());
        let custom = ProfileOptions::builder()
            .store_levels(3)
            .max_levels(7)
            .build();
        assert_eq!(custom.store_levels, 3);
        assert_eq!(custom.max_levels, 7);
    }

    #[test]
    fn arcs_sorted_by_end_and_boardable() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 50.0, 60.0)
            .contact_secs(0, 2, 0.0, 10.0)
            .contact_secs(0, 3, 20.0, 30.0)
            .build();
        let arcs = Arcs::of(&t);
        let ends: Vec<f64> = arcs
            .leaving(NodeId(0))
            .iter()
            .map(|(_, iv)| iv.end.as_secs())
            .collect();
        assert_eq!(ends, vec![10.0, 30.0, 60.0]);
        assert_eq!(arcs.boardable(NodeId(0), Time::NEG_INF).len(), 3);
        assert_eq!(arcs.boardable(NodeId(0), Time::secs(15.0)).len(), 2);
        assert_eq!(arcs.boardable(NodeId(0), Time::secs(30.0)).len(), 2);
        assert_eq!(arcs.boardable(NodeId(0), Time::secs(61.0)).len(), 0);
    }

    #[test]
    fn arcs_contact_column_maps_back_to_contacts() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 50.0, 60.0)
            .contact_secs(0, 2, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(0, 1, 50.0, 60.0) // duplicate contact: ids must stay distinct
            .build();
        let arcs = Arcs::of(&t);
        assert_eq!(arcs.num_arcs(), 2 * t.num_contacts());
        for m in 0..t.num_nodes() {
            let node = NodeId(m);
            let row = arcs.leaving(node);
            let cids = arcs.leaving_contacts(node);
            assert_eq!(row.len(), cids.len());
            for (&(head, iv), &cid) in row.iter().zip(cids) {
                let c = t.contact(cid);
                assert_eq!(c.interval, iv);
                // The arc tail/head are the contact endpoints.
                assert!(
                    (c.a.0 == m && c.b.0 == head) || (c.b.0 == m && c.a.0 == head),
                    "arc ({m}->{head}) not an endpoint pair of {c:?}"
                );
            }
        }
        // Duplicate (end, start, head) keys: the id column lists both
        // contacts, in id order.
        let dup_ids: Vec<u32> = arcs
            .leaving_contacts(NodeId(0))
            .iter()
            .zip(arcs.leaving(NodeId(0)))
            .filter(|(_, &(head, _))| head == 1)
            .map(|(cid, _)| cid.0)
            .collect();
        assert_eq!(dup_ids.len(), 2);
        assert!(dup_ids[0] < dup_ids[1]);
    }

    /// Regression: non-contiguous node ids (declared universe
    /// larger than the touched ids) must index correctly through the CSR
    /// offsets — empty rows for the gaps, engine equal to the naive spec.
    #[test]
    fn gapped_node_ids_route_through_shared_arcs() {
        let t = TraceBuilder::new()
            .num_nodes(10)
            .contact_secs(0, 5, 0.0, 10.0)
            .contact_secs(5, 9, 20.0, 30.0)
            .build();
        let arcs = Arcs::of(&t);
        assert_eq!(arcs.num_nodes(), 10);
        for gap in [1u32, 2, 3, 4, 6, 7, 8] {
            assert!(arcs.leaving(NodeId(gap)).is_empty());
            assert!(arcs.leaving_contacts(NodeId(gap)).is_empty());
        }
        for opts in knob_combos() {
            for s in [0u32, 3, 5, 9] {
                let fast = SourceProfiles::compute(&t, &arcs, NodeId(s), opts);
                let naive = SourceProfiles::compute_naive(&t, &arcs, NodeId(s), opts);
                for d in 0..10u32 {
                    assert_eq!(
                        fast.profile(NodeId(d), HopBound::Unlimited).pairs(),
                        naive.profile(NodeId(d), HopBound::Unlimited).pairs(),
                        "{s}->{d} with {opts:?}"
                    );
                }
            }
        }
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(9), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::ZERO), Time::secs(20.0));

        // A row names only the reached destinations, and rebuilds from its
        // parts into an equal row.
        let row = SourceProfiles::compute(&t, &arcs, NodeId(0), ProfileOptions::default());
        assert_eq!(row.reached(), vec![5, 9]);
        assert_eq!(rebuilt(&row), row);
        assert!(row.profile(NodeId(3), HopBound::Unlimited).is_empty());
    }

    #[test]
    fn identity_profile_at_source() {
        let t = line_trace();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(0), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::secs(5.0)), Time::secs(5.0));
    }

    #[test]
    fn line_trace_multihop() {
        let t = line_trace();
        for opts in knob_combos() {
            let p = AllPairsProfiles::compute(&t, opts);
            // 0 -> 3 requires all three contacts: LD = 10 (leave before first
            // contact ends), EA = 40 (arrive when last begins).
            let f = p.profile(NodeId(0), NodeId(3), HopBound::Unlimited);
            assert_eq!(f.pairs().len(), 1);
            assert_eq!(f.delivery(Time::ZERO), Time::secs(40.0));
            assert_eq!(f.delivery(Time::secs(10.0)), Time::secs(40.0));
            assert_eq!(f.delivery(Time::secs(10.1)), Time::INF);
            // Hop classes: unreachable below 3 hops.
            assert!(p
                .profile(NodeId(0), NodeId(3), HopBound::AtMost(2))
                .is_empty());
            assert!(!p
                .profile(NodeId(0), NodeId(3), HopBound::AtMost(3))
                .is_empty());
        }
    }

    #[test]
    fn chronology_respected_in_reverse() {
        let t = line_trace();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        // 3 -> 0 would need the contacts in reverse chronological order.
        assert!(p
            .profile(NodeId(3), NodeId(0), HopBound::Unlimited)
            .is_empty());
        // 3 -> 2 works through the undirected contact.
        let f = p.profile(NodeId(3), NodeId(2), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::ZERO), Time::secs(40.0));
    }

    #[test]
    fn overlapping_contacts_chain_within_instant() {
        // Long-contact behaviour: 0-1 and 1-2 overlap on [5, 10]: a message
        // at t=7 goes end-to-end instantly.
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(2), HopBound::Unlimited);
        assert_eq!(f.delivery(Time::secs(7.0)), Time::secs(7.0));
        assert_eq!(f.delivery(Time::ZERO), Time::secs(5.0));
        assert_eq!(f.delivery(Time::secs(10.0)), Time::secs(10.0));
        assert_eq!(f.delivery(Time::secs(10.5)), Time::INF);
    }

    #[test]
    fn store_and_forward_beats_waiting() {
        // 0 meets 1 early; 1 meets 2 much later; 0 never meets 2.
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 5.0)
            .contact_secs(1, 2, 100.0, 110.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(2), HopBound::Unlimited);
        // leave by 5, arrive at 100.
        assert_eq!(f.delivery(Time::ZERO), Time::secs(100.0));
        assert_eq!(f.delivery(Time::secs(5.0)), Time::secs(100.0));
        assert_eq!(f.delivery(Time::secs(6.0)), Time::INF);
    }

    #[test]
    fn more_hops_never_hurt() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .build();
        let grid: Vec<Time> = (0..80).map(|i| Time::secs(i as f64 * 0.5)).collect();
        for opts in knob_combos() {
            let p = AllPairsProfiles::compute(&t, opts);
            for s in 0..4u32 {
                for d in 0..4u32 {
                    for k in 1..4usize {
                        let fk = p.profile(NodeId(s), NodeId(d), HopBound::AtMost(k));
                        let fk1 = p.profile(NodeId(s), NodeId(d), HopBound::AtMost(k + 1));
                        for &t0 in &grid {
                            assert!(
                                fk1.delivery(t0) <= fk.delivery(t0),
                                "hop bound {k}->{} regressed for {s}->{d} at {t0}",
                                k + 1
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fixpoint_levels_are_small() {
        let t = line_trace();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        assert!(p.from_source(NodeId(0)).converged());
        assert!(p.max_useful_hops() <= 3);
    }

    #[test]
    fn direct_contact_profile_matches_contact() {
        let t = TraceBuilder::new().contact_secs(0, 1, 3.0, 9.0).build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(1), HopBound::AtMost(1));
        assert_eq!(f.pairs().len(), 1);
        assert_eq!(f.pairs()[0].ld, Time::secs(9.0));
        assert_eq!(f.pairs()[0].ea, Time::secs(3.0));
    }

    #[test]
    fn multiple_optimal_paths_counted() {
        // Two disjoint windows between 0 and 1 -> two frontier pairs.
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(0, 1, 100.0, 110.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        let f = p.profile(NodeId(0), NodeId(1), HopBound::Unlimited);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn naive_variant_is_equivalent() {
        let dense = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(1, 3, 2.0, 3.0)
            .contact_secs(0, 3, 30.0, 35.0)
            .build();
        let repeated = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(0, 1, 100.0, 110.0)
            .contact_secs(1, 3, 105.0, 130.0)
            .build();
        for t in [dense, repeated] {
            let arcs = Arcs::of(&t);
            for opts in knob_combos() {
                for s in 0..4u32 {
                    let fast = SourceProfiles::compute(&t, &arcs, NodeId(s), opts);
                    let naive = SourceProfiles::compute_naive(&t, &arcs, NodeId(s), opts);
                    assert_eq!(fast.converged_at(), naive.converged_at());
                    assert_eq!(fast.stored_levels(), naive.stored_levels());
                    for d in 0..4u32 {
                        for k in 0..=fast.stored_levels().max(4) + 2 {
                            let expect =
                                at_most_reference(&t, &arcs, NodeId(s), NodeId(d), opts, k);
                            assert_eq!(
                                fast.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                                expect.pairs(),
                                "{s}->{d} at k={k} with {opts:?}"
                            );
                            assert_eq!(
                                naive.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                                expect.pairs(),
                                "naive {s}->{d} at k={k} with {opts:?}"
                            );
                        }
                        assert_eq!(
                            fast.profile(NodeId(d), HopBound::Unlimited).pairs(),
                            naive.profile(NodeId(d), HopBound::Unlimited).pairs()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_sources_is_clean() {
        // Reusing one scratch across different sources and traces must not
        // leak state between computations.
        let t1 = line_trace();
        let t2 = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(0, 1, 100.0, 110.0)
            .build();
        let arcs1 = Arcs::of(&t1);
        let arcs2 = Arcs::of(&t2);
        let mut scratch = ProfileScratch::default();
        let opts = ProfileOptions::default();
        for s in 0..4u32 {
            let pooled = SourceProfiles::induct(&t1, &arcs1, NodeId(s), opts, &mut scratch);
            let fresh = SourceProfiles::compute(&t1, &arcs1, NodeId(s), opts);
            for d in 0..4u32 {
                assert_eq!(
                    pooled.profile(NodeId(d), HopBound::Unlimited).pairs(),
                    fresh.profile(NodeId(d), HopBound::Unlimited).pairs()
                );
            }
        }
        // Smaller trace after a larger one: stale buffers beyond n must not
        // contribute.
        let pooled = SourceProfiles::induct(&t2, &arcs2, NodeId(0), opts, &mut scratch);
        let fresh = SourceProfiles::compute(&t2, &arcs2, NodeId(0), opts);
        assert_eq!(
            pooled.profile(NodeId(1), HopBound::Unlimited).pairs(),
            fresh.profile(NodeId(1), HopBound::Unlimited).pairs()
        );
    }

    #[test]
    fn compute_range_matches_full_compute() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(1, 3, 2.0, 3.0)
            .build();
        let opts = ProfileOptions::default();
        let all = AllPairsProfiles::compute(&t, opts);
        // Arbitrary shard split 0..2, 2..3, 3..4 reassembles to the same set.
        let mut rows = AllPairsProfiles::compute_range(&t, opts, 0..2);
        rows.extend(AllPairsProfiles::compute_range(&t, opts, 2..3));
        rows.extend(AllPairsProfiles::compute_range(&t, opts, 3..4));
        let glued = AllPairsProfiles::from_rows(rows).expect("rows are 0..n in order");
        for s in 0..4u32 {
            for d in 0..4u32 {
                for k in [
                    HopBound::AtMost(1),
                    HopBound::AtMost(3),
                    HopBound::Unlimited,
                ] {
                    assert_eq!(
                        all.profile(NodeId(s), NodeId(d), k).pairs(),
                        glued.profile(NodeId(s), NodeId(d), k).pairs(),
                        "{s}->{d} under {k:?}"
                    );
                }
            }
        }
        // Empty ranges are fine.
        assert!(AllPairsProfiles::compute_range(&t, opts, 2..2).is_empty());
    }

    /// `row` rebuilt through the validating constructor from its parts.
    fn rebuilt(row: &SourceProfiles) -> SourceProfiles {
        SourceProfiles::from_parts(
            row.source(),
            row.num_nodes() as u32,
            row.converged_at() as u32,
            row.converged(),
            row.levels().to_vec(),
            row.tail().clone(),
        )
        .expect("own parts are valid")
    }

    #[test]
    fn rows_equal_the_naive_spec_and_rebuild_from_parts_at_every_store_depth() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 12.0, 20.0)
            .contact_secs(2, 3, 14.0, 40.0)
            .contact_secs(0, 1, 100.0, 110.0)
            .contact_secs(1, 3, 105.0, 130.0)
            .build();
        let arcs = Arcs::of(&t);
        let mut tails = 0;
        for store in 0..=3 {
            for max in [1, 2, 64] {
                let opts = ProfileOptions::builder()
                    .store_levels(store)
                    .max_levels(max)
                    .build();
                for s in 0..4u32 {
                    let fast = SourceProfiles::compute(&t, &arcs, NodeId(s), opts);
                    let naive = SourceProfiles::compute_naive(&t, &arcs, NodeId(s), opts);
                    assert_eq!(fast, naive, "source {s} with {opts:?}");
                    assert_eq!(rebuilt(&fast), fast);
                    tails += fast.tail().len();
                }
            }
        }
        assert!(tails > 0, "no case put a pair in a tail");
    }

    #[test]
    fn from_parts_rejects_corrupt_input() {
        let t = line_trace();
        let arcs = Arcs::of(&t);
        let good = SourceProfiles::compute(&t, &arcs, NodeId(0), ProfileOptions::default());
        let build = |source: u32, levels: Vec<LevelRuns>| {
            SourceProfiles::from_parts(NodeId(source), 4, 3, true, levels, LevelRuns::default())
        };
        assert!(matches!(
            build(99, good.levels().to_vec()),
            Err(ProfilePartsError::NodeOutOfRange { node: 99, .. })
        ));

        // Level 1 rebuilt with `edit` applied to the pairs of its first run.
        let with_first_run = |edit: &dyn Fn(&mut Vec<LdEa>)| {
            let mut level = LevelRuns::default();
            for (i, (d, run)) in good.levels()[0].iter().enumerate() {
                let mut run = run.to_vec();
                if i == 0 {
                    edit(&mut run);
                }
                level.push(d, &run);
            }
            let mut levels = good.levels().to_vec();
            levels[0] = level;
            build(0, levels)
        };
        // A doubled pair is weakly dominated — not a strict frontier.
        assert!(matches!(
            with_first_run(&|run| run.push(run[0])),
            Err(ProfilePartsError::InvalidFrontier { level: Some(1), .. })
        ));
        assert!(matches!(
            with_first_run(&|run| run.clear()),
            Err(ProfilePartsError::InvalidFrontier { level: Some(1), .. })
        ));

        let mut bad = good.levels().to_vec();
        let (d, run) = good.levels()[0].iter().next().expect("level 1 has a run");
        bad[0].push(d, run);
        assert!(matches!(
            build(0, bad),
            Err(ProfilePartsError::UnsortedDestinations { level: Some(1) })
        ));

        let mut tail = LevelRuns::default();
        tail.push(7, &[LdEa::EMPTY]);
        assert!(matches!(
            SourceProfiles::from_parts(NodeId(0), 4, 3, true, Vec::new(), tail),
            Err(ProfilePartsError::NodeOutOfRange { node: 7, .. })
        ));
    }

    #[test]
    fn from_rows_rejects_misordered_rows() {
        let t = line_trace();
        let opts = ProfileOptions::default();
        let mut rows = AllPairsProfiles::compute(&t, opts).into_rows();
        rows.swap(1, 2);
        assert!(matches!(
            AllPairsProfiles::from_rows(rows),
            Err(ProfilePartsError::RowOrder {
                index: 1,
                source: 2
            })
        ));
        let short = AllPairsProfiles::compute_range(&t, opts, 0..2);
        assert!(matches!(
            AllPairsProfiles::from_rows(short),
            Err(ProfilePartsError::RowWidth { .. })
        ));
    }

    #[test]
    fn isolated_node_unreachable() {
        let t = TraceBuilder::new()
            .num_nodes(3)
            .contact_secs(0, 1, 0.0, 10.0)
            .build();
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        assert!(p
            .profile(NodeId(0), NodeId(2), HopBound::Unlimited)
            .is_empty());
        assert!(p
            .profile(NodeId(2), NodeId(0), HopBound::Unlimited)
            .is_empty());
    }
}
