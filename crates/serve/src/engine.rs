//! The engine: loads state once, answers many queries.

use crate::query::{
    DeliveryAnswer, DiameterAnswer, PathAnswer, PathHop, Query, QueryError, QueryResponse,
    StatsAnswer,
};
use omnet_artifact::{map_set, ArtifactError, ArtifactMeta, MappedSet};
use omnet_core::{
    earliest_arrival, Arcs, ContactDelta, CurveOptions, HopBound, ProfileOptions, SourceProfiles,
    SuccessCurves,
};
use omnet_temporal::{Contact, ContactId, Dur, Interval, NodeId, Time, Trace, TraceOverlay};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Where answers come from.
enum Backend {
    /// A persisted artifact set: headers verified at load time, a shard's
    /// row index read and verified on the first query against it, and
    /// each row read, checked against its index checksum and decoded on
    /// the first query that needs it, so a point query costs one row. A
    /// diameter scans the rows with one read per shard. Decoded rows stay
    /// resident for the engine's life. The §4.4 induction never runs on
    /// this path.
    Shards(MappedSet),
    /// An in-memory trace; rows are computed on first use per source and
    /// memoized, so interactive one-shot commands stay cheap. The flat CSR
    /// arc index is built once here and shared by every memoized per-source
    /// induction — the same [`Arcs`] the engine, the naive spec, and the
    /// brute-force oracle all walk.
    Lazy {
        trace: Arc<Trace>,
        arcs: Arcs,
        memo: Mutex<HashMap<u32, Arc<SourceProfiles>>>,
    },
}

/// A loaded query engine over one dataset.
///
/// Construct with [`Engine::load_dir`] (artifact-backed) or
/// [`Engine::from_trace`] (trace-backed); answer with [`Engine::answer`] or
/// [`Engine::answer_batch`].
pub struct Engine {
    meta: ArtifactMeta,
    backend: Backend,
    /// Present on trace-backed engines, and on artifact-backed ones after
    /// [`Engine::with_trace`]; enables concrete route reconstruction for
    /// [`Query::Path`].
    trace: Option<Arc<Trace>>,
    /// Contact-key epoch: bumped every time delta application renumbers
    /// the key space (the engine compacts on every applied delta), so
    /// removal keys minted against an older trace are rejected instead of
    /// silently addressing the wrong contact.
    key_epoch: u64,
}

/// Outcome of a successfully applied [`ContactDelta`]
/// ([`Engine::apply_delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaApplied {
    /// Memoized rows the delta invalidated (they recompute lazily).
    pub rows_invalidated: usize,
    /// The key epoch *after* application. Removal keys in later deltas
    /// must quote this epoch; the engine rejects any other with
    /// [`QueryError::StaleKeyEpoch`].
    pub key_epoch: u64,
    /// Contacts in the rebuilt trace — the new key space is
    /// `0..num_contacts`.
    pub num_contacts: usize,
}

/// A row handle that is either borrowed from a loaded shard or shared out
/// of the lazy memo.
enum Row<'a> {
    Borrowed(&'a SourceProfiles),
    Shared(Arc<SourceProfiles>),
}

impl Row<'_> {
    fn get(&self) -> &SourceProfiles {
        match self {
            Row::Borrowed(r) => r,
            Row::Shared(r) => r,
        }
    }
}

impl Engine {
    /// Opens every `*.omna` shard under `dir` into an artifact-backed
    /// engine. Emits one `serve.load` span. Shard headers (magic, version,
    /// header checksum, section extents) are verified here; a shard's row
    /// index is read and verified on the first query against it, and each
    /// row on the first query that needs it, so cold-start costs one
    /// header read per shard — and a corrupted or truncated row is still
    /// rejected (with [`QueryError::ShardRejected`]) before it answers
    /// anything.
    pub fn load_dir(dir: &Path) -> Result<Engine, ArtifactError> {
        let mut span = omnet_obs::span("serve.load").with("dir", dir.display().to_string());
        let set = map_set(dir)?;
        span.record("shards", set.shards().len());
        span.record("rows", set.num_rows());
        crate::LOADS.inc();
        Ok(Engine {
            meta: set.meta.clone(),
            backend: Backend::Shards(set),
            trace: None,
            key_epoch: 0,
        })
    }

    /// Wraps an in-memory trace; rows are computed lazily with `opts`.
    /// `dataset_key` labels the engine in [`Query::Stats`] answers.
    pub fn from_trace(trace: Arc<Trace>, opts: ProfileOptions, dataset_key: &str) -> Engine {
        let meta = ArtifactMeta {
            dataset_key: dataset_key.to_string(),
            num_nodes: trace.num_nodes(),
            num_internal: trace.num_internal(),
            window: trace.span(),
            options: opts,
        };
        let arcs = Arcs::of(&trace);
        Engine {
            meta,
            backend: Backend::Lazy {
                trace: Arc::clone(&trace),
                arcs,
                memo: Mutex::new(HashMap::new()),
            },
            trace: Some(trace),
            key_epoch: 0,
        }
    }

    /// Attaches the source trace to an artifact-backed engine so
    /// [`Query::Path`] can reconstruct concrete contact chains. The trace
    /// must be the one the artifacts were precomputed from; node counts
    /// are cross-checked.
    pub fn with_trace(mut self, trace: Arc<Trace>) -> Result<Engine, ArtifactError> {
        if trace.num_nodes() != self.meta.num_nodes {
            return Err(ArtifactError::SetInconsistent {
                context: format!(
                    "trace has {} nodes but artifacts were built over {}",
                    trace.num_nodes(),
                    self.meta.num_nodes
                ),
            });
        }
        self.trace = Some(trace);
        Ok(self)
    }

    /// The engine's dataset identity and engine options.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The current contact-key epoch. Removal keys address the trace the
    /// engine held at this epoch; [`Engine::apply_delta`] rejects deltas
    /// quoting any other epoch, because every applied delta compacts (and
    /// so renumbers) the key space.
    pub fn key_epoch(&self) -> u64 {
        self.key_epoch
    }

    /// Whether [`Engine::apply_delta`] can succeed: true for trace-backed
    /// engines, false for immutable artifact-backed sets.
    pub fn supports_deltas(&self) -> bool {
        matches!(self.backend, Backend::Lazy { .. })
    }

    /// Answers one query. Emits one `serve.query` span per call and bumps
    /// the `serve.queries` / `serve.query_errors` counters.
    pub fn answer(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        let mut span = omnet_obs::span("serve.query").with("kind", kind(q));
        crate::QUERIES.inc();
        let result = self.dispatch(q);
        span.record("ok", result.is_ok());
        if result.is_err() {
            crate::QUERY_ERRORS.inc();
        }
        result
    }

    /// Answers a batch on the fork/join executor, preserving input
    /// order. Each query still gets its own `serve.query` span.
    ///
    /// `stats` reports memoization state (rows materialized, max useful
    /// hops) that other queries in the same batch mutate concurrently, so
    /// those answers are snapshotted before the parallel fan-out: a batch
    /// always renders the same bytes regardless of executor scheduling.
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        let snapshots: Vec<Option<Result<QueryResponse, QueryError>>> = queries
            .iter()
            .map(|q| matches!(q, Query::Stats).then(|| self.answer(q)))
            .collect();
        omnet_analysis::par_map(queries.len(), |i| match &snapshots[i] {
            Some(answered) => answered.clone(),
            None => self.answer(&queries[i]),
        })
    }

    fn dispatch(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        match *q {
            Query::Delivery {
                src,
                dst,
                at,
                bound,
            } => self
                .delivery(src, dst, at, bound)
                .map(QueryResponse::Delivery),
            Query::Path { src, dst, at } => self.path(src, dst, at).map(QueryResponse::Path),
            Query::Diameter {
                eps,
                max_hops,
                internal_only,
            } => self
                .diameter(eps, max_hops, internal_only)
                .map(QueryResponse::Diameter),
            Query::Stats => Ok(QueryResponse::Stats(self.stats())),
        }
    }

    fn check_node(&self, node: u32) -> Result<(), QueryError> {
        if node >= self.meta.num_nodes {
            return Err(QueryError::NodeOutOfRange {
                node,
                num_nodes: self.meta.num_nodes,
            });
        }
        Ok(())
    }

    /// The profile row of `source`, from the loaded shards or the lazy
    /// memo (computing and caching it on first use).
    fn row(&self, source: u32) -> Result<Row<'_>, QueryError> {
        match &self.backend {
            Backend::Shards(set) => match set.row(source) {
                Ok(Some(row)) => Ok(Row::Borrowed(row)),
                Ok(None) => Err(QueryError::ShardMissing { source }),
                Err(e) => Err(QueryError::ShardRejected {
                    source,
                    message: e.to_string(),
                }),
            },
            Backend::Lazy { trace, arcs, memo } => {
                {
                    let cache = memo.lock().unwrap_or_else(|p| p.into_inner());
                    if let Some(row) = cache.get(&source) {
                        return Ok(Row::Shared(Arc::clone(row)));
                    }
                }
                // Computed outside the lock: concurrent batch queries for
                // distinct sources proceed in parallel (a duplicated
                // same-source computation is benign — last insert wins
                // with an identical row).
                let row = Arc::new(SourceProfiles::compute(
                    trace,
                    arcs,
                    NodeId(source),
                    self.meta.options,
                ));
                let mut cache = memo.lock().unwrap_or_else(|p| p.into_inner());
                Ok(Row::Shared(Arc::clone(cache.entry(source).or_insert(row))))
            }
        }
    }

    fn delivery(
        &self,
        src: u32,
        dst: u32,
        at: Time,
        bound: HopBound,
    ) -> Result<DeliveryAnswer, QueryError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        let row = self.row(src)?;
        let arrival = row.get().delivery(NodeId(dst), at, bound);
        let reachable = arrival != Time::INF;
        Ok(DeliveryAnswer {
            src,
            dst,
            at,
            bound,
            arrival,
            delay: if reachable {
                arrival.since(at)
            } else {
                Dur::INF
            },
            reachable,
        })
    }

    fn path(&self, src: u32, dst: u32, at: Time) -> Result<PathAnswer, QueryError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(QueryError::SameNode);
        }
        if let Some(trace) = &self.trace {
            return Ok(path_from_trace(trace, src, dst, at));
        }
        // Artifact-only: arrival and hop class from the row; no concrete
        // route without the trace.
        let row = self.row(src)?;
        let prof = row.get();
        let arrival = prof.delivery(NodeId(dst), at, HopBound::Unlimited);
        if arrival == Time::INF {
            return Ok(unreachable_path(src, dst, at));
        }
        let hops = prof
            .min_hops(NodeId(dst), at)
            .unwrap_or(prof.converged_at());
        Ok(PathAnswer {
            src,
            dst,
            at,
            reachable: true,
            arrival,
            delay: arrival.since(at),
            hops,
            route: None,
        })
    }

    fn diameter(
        &self,
        eps: f64,
        max_hops: usize,
        internal_only: bool,
    ) -> Result<DiameterAnswer, QueryError> {
        if !(0.0..1.0).contains(&eps) {
            return Err(QueryError::BadParameter {
                message: "eps must lie in [0, 1)".into(),
            });
        }
        if max_hops == 0 {
            return Err(QueryError::BadParameter {
                message: "max-hops must be positive".into(),
            });
        }
        // Message creation times are drawn from the window; an empty (or
        // degenerate) window has none, so no success curve is defined.
        let window_len = self.meta.window.duration().as_secs();
        if window_len.is_nan() || window_len <= 0.0 {
            return Err(QueryError::BadParameter {
                message: "the observation window is empty: no message creation time to draw".into(),
            });
        }
        // Same grid construction as direct computation over the trace, so
        // both backends evaluate the identical delay budgets.
        let horizon = self.meta.window.duration().as_secs().max(240.0);
        let grid: Vec<Dur> = omnet_analysis::log_grid(120.0_f64.min(horizon / 2.0), horizon, 16)
            .into_iter()
            .map(Dur::secs)
            .collect();
        let mut opts = CurveOptions::standard(max_hops, grid);
        opts.internal_pairs_only = internal_only;
        let curves = match &self.backend {
            Backend::Shards(set) => {
                let limit = if internal_only {
                    self.meta.num_internal.min(self.meta.num_nodes)
                } else {
                    self.meta.num_nodes
                };
                let mut rows = Vec::with_capacity(limit as usize);
                for (s, row) in (0..limit).zip(set.rows(0..limit)) {
                    match row {
                        Ok(Some(row)) => rows.push(row),
                        Ok(None) => return Err(QueryError::ShardMissing { source: s }),
                        Err(e) => {
                            return Err(QueryError::ShardRejected {
                                source: s,
                                message: e.to_string(),
                            })
                        }
                    }
                }
                // Exactness guard: a hop class beyond what a row stores is
                // answered by its unlimited profile, which is only exact
                // once the row converged within its stored levels.
                for r in &rows {
                    if r.stored_levels() < max_hops && r.converged_at() > r.stored_levels() {
                        return Err(QueryError::HopsBeyondArtifact {
                            requested: max_hops,
                            stored: r.stored_levels(),
                        });
                    }
                }
                SuccessCurves::from_profiles(
                    &rows,
                    &opts,
                    &[self.meta.window],
                    self.meta.num_internal,
                )
            }
            Backend::Lazy { trace, .. } => {
                SuccessCurves::compute_windowed(trace, &opts, &[self.meta.window])
            }
        };
        Ok(DiameterAnswer {
            eps,
            max_hops,
            pairs: curves.pairs(),
            grid: curves.grid().to_vec(),
            diameter: curves.diameter(eps),
            per_delay: curves.diameter_curve(eps),
        })
    }

    /// Applies a contact delta to a trace-backed engine (§6 removal
    /// methodology / streaming contact ingestion): rebuilds the substrate
    /// through a [`TraceOverlay`], rebuilds the CSR arc index, and drops
    /// exactly the memoized rows the delta can affect — the boardability
    /// test of [`row_may_use`], exact for appends and sound for removals
    /// (a row whose earliest arrivals cannot board a contact never used
    /// it). Dropped rows recompute lazily on next use; retained rows stay
    /// byte-identical answers.
    ///
    /// Removal keys address the trace the engine held at `key_epoch` —
    /// every applied delta compacts, renumbering the key space and
    /// bumping [`Engine::key_epoch`], so a delta quoting any other epoch
    /// is rejected with [`QueryError::StaleKeyEpoch`] (a stale key that
    /// happens to still be in range would otherwise silently remove the
    /// *wrong* contact).
    ///
    /// Application is **all-or-nothing**: every removal key and every
    /// appended contact is validated before any state is touched, the new
    /// substrate is built on the side, and only then swapped in. A
    /// rejected delta — stale epoch, bad key, out-of-universe or
    /// out-of-window append, anywhere in the batch — leaves the engine
    /// answering exactly as before, epoch included.
    ///
    /// Artifact-backed engines are immutable and answer
    /// [`QueryError::BadParameter`] — rebuild and reload the shards
    /// instead.
    pub fn apply_delta(
        &mut self,
        delta: &ContactDelta,
        key_epoch: u64,
    ) -> Result<DeltaApplied, QueryError> {
        let Backend::Lazy { trace, arcs, memo } = &mut self.backend else {
            return Err(QueryError::BadParameter {
                message: "deltas need a trace-backed engine; artifact sets are immutable — \
                          rebuild and reload the shards instead"
                    .into(),
            });
        };
        if key_epoch != self.key_epoch {
            return Err(QueryError::StaleKeyEpoch {
                presented: key_epoch,
                current: self.key_epoch,
            });
        }
        if delta.is_empty() {
            // Nothing renumbers: the epoch must not move.
            return Ok(DeltaApplied {
                rows_invalidated: 0,
                key_epoch: self.key_epoch,
                num_contacts: trace.num_contacts(),
            });
        }
        // Validate the WHOLE batch before touching anything — the Nth bad
        // entry must not leave the first N−1 applied.
        let m = trace.num_contacts();
        let window = trace.span();
        for &k in &delta.remove {
            if k.0 as usize >= m {
                return Err(QueryError::BadParameter {
                    message: format!(
                        "remove key {} out of range: the trace has {m} contacts at epoch {}",
                        k.0, self.key_epoch
                    ),
                });
            }
        }
        for c in &delta.append {
            if c.a.0 >= self.meta.num_nodes || c.b.0 >= self.meta.num_nodes {
                return Err(QueryError::BadParameter {
                    message: format!(
                        "appended contact endpoint outside the {}-node universe",
                        self.meta.num_nodes
                    ),
                });
            }
            if !(window.start <= c.start() && c.end() <= window.end) {
                return Err(QueryError::BadParameter {
                    message: "appended contact lies outside the observation window".into(),
                });
            }
        }

        let mut span = omnet_obs::span("serve.delta")
            .with("appended", delta.append.len())
            .with("removed", delta.remove.len());

        // Build the post-delta substrate on the side; the engine's own
        // state is untouched until the swap below.
        let mut touched: Vec<Contact> = delta.append.clone();
        let mut overlay = TraceOverlay::new(Trace::clone(trace));
        for &k in &delta.remove {
            if overlay.remove(k) {
                touched.push(*trace.contact(ContactId(k.0)));
            }
        }
        for &c in &delta.append {
            overlay.append(c);
        }
        let (merged, _keys) = overlay.materialize();

        // Point of no return: everything validated and built — swap.
        let cache = memo.get_mut().unwrap_or_else(|p| p.into_inner());
        let before = cache.len();
        cache.retain(|_, row| !touched.iter().any(|c| row_may_use(row, c)));
        let dropped = before - cache.len();

        let new_trace = Arc::new(merged);
        let num_contacts = new_trace.num_contacts();
        *arcs = Arcs::of(&new_trace);
        *trace = Arc::clone(&new_trace);
        self.trace = Some(new_trace);
        // The materialized trace renumbered the contact/key space.
        self.key_epoch += 1;

        crate::DELTAS_APPLIED.inc();
        crate::ROWS_INVALIDATED.add(dropped as u64);
        span.record("rows_invalidated", dropped);
        span.record("key_epoch", self.key_epoch);
        Ok(DeltaApplied {
            rows_invalidated: dropped,
            key_epoch: self.key_epoch,
            num_contacts,
        })
    }

    fn stats(&self) -> StatsAnswer {
        let (shards, rows, max_useful_hops) = match &self.backend {
            // `max_useful_hops` reads only the rows already decoded — a
            // stats query must not force the whole set to decode.
            Backend::Shards(set) => (
                set.shards().len(),
                set.num_rows(),
                set.shards()
                    .iter()
                    .flat_map(omnet_artifact::MappedShard::decoded_rows)
                    .map(SourceProfiles::converged_at)
                    .max(),
            ),
            Backend::Lazy { memo, .. } => {
                let cache = memo.lock().unwrap_or_else(|p| p.into_inner());
                (
                    0,
                    cache.len(),
                    cache.values().map(|r| r.converged_at()).max(),
                )
            }
        };
        StatsAnswer {
            dataset_key: self.meta.dataset_key.clone(),
            num_nodes: self.meta.num_nodes,
            num_internal: self.meta.num_internal,
            window: self.meta.window,
            options: self.meta.options,
            shards,
            rows,
            max_useful_hops,
        }
    }
}

/// True when `row`'s source can board `c`: the earliest arrival at either
/// endpoint is `<=` the contact's end (§4.3, fact (iv)). Any journey using
/// a contact has a prefix reaching one of its endpoints by its end, so a
/// contact that fails this test for a row is not used by that row, and
/// appending it cannot change the row — the memo-invalidation test of
/// [`Engine::apply_delta`].
fn row_may_use(row: &SourceProfiles, c: &Contact) -> bool {
    // The earliest arrival at `d` is the delivery of a message created at
    // -∞: the minimum first `ea` over its runs.
    let boardable = |d: NodeId| row.delivery(d, Time::NEG_INF, HopBound::Unlimited) <= c.end();
    boardable(c.a) || boardable(c.b)
}

fn kind(q: &Query) -> &'static str {
    match q {
        Query::Delivery { .. } => "delivery",
        Query::Path { .. } => "path",
        Query::Diameter { .. } => "diameter",
        Query::Stats => "stats",
    }
}

fn unreachable_path(src: u32, dst: u32, at: Time) -> PathAnswer {
    PathAnswer {
        src,
        dst,
        at,
        reachable: false,
        arrival: Time::INF,
        delay: Dur::INF,
        hops: 0,
        route: None,
    }
}

/// The Dijkstra-witness path answer — identical semantics to the original
/// `omnet path` command, including the concrete contact chain.
fn path_from_trace(trace: &Trace, src: u32, dst: u32, at: Time) -> PathAnswer {
    let tree = earliest_arrival(trace, NodeId(src), at);
    let Some(p) = tree.path_to(trace, NodeId(dst)) else {
        return unreachable_path(src, dst, at);
    };
    let arrival = tree.arrival(NodeId(dst));
    let route = p.schedule(at).map(|times| {
        p.contacts()
            .iter()
            .zip(times)
            .enumerate()
            .map(|(i, (c, t))| PathHop {
                from: p.nodes()[i],
                to: p.nodes()[i + 1],
                window: Interval::new(c.start(), c.end()),
                at: t,
            })
            .collect()
    });
    PathAnswer {
        src,
        dst,
        at,
        reachable: true,
        arrival,
        delay: arrival.since(at),
        hops: p.hops(),
        route,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_core::AllPairsProfiles;
    use omnet_temporal::TraceBuilder;
    use std::path::PathBuf;

    fn toy() -> Trace {
        TraceBuilder::new()
            .num_nodes(5)
            .internal(4)
            .contact_secs(0, 1, 0.0, 120.0)
            .contact_secs(1, 2, 100.0, 260.0)
            .contact_secs(2, 3, 400.0, 520.0)
            .contact_secs(0, 3, 800.0, 920.0)
            .contact_secs(0, 1, 600.0, 720.0)
            .contact_secs(3, 4, 450.0, 470.0)
            .build()
    }

    fn meta_of(t: &Trace, opts: ProfileOptions) -> ArtifactMeta {
        ArtifactMeta {
            dataset_key: "toy".into(),
            num_nodes: t.num_nodes(),
            num_internal: t.num_internal(),
            window: t.span(),
            options: opts,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("omnet-serve-{tag}-{}-{n}", std::process::id()))
    }

    fn shards_engine(t: &Trace, opts: ProfileOptions, shards: u32) -> Engine {
        let meta = meta_of(t, opts);
        let rows = AllPairsProfiles::compute(t, opts).into_rows();
        let dir = tmp("eng");
        omnet_artifact::write_set(&dir, "toy", &meta, &rows, shards).unwrap();
        Engine::load_dir(&dir).unwrap()
    }

    #[test]
    fn artifact_and_lazy_backends_agree() {
        let t = toy();
        let opts = ProfileOptions::default();
        let from_shards = shards_engine(&t, opts, 2)
            .with_trace(Arc::new(t.clone()))
            .unwrap();
        let lazy = Engine::from_trace(Arc::new(t.clone()), opts, "toy");
        let mut queries = vec![Query::Diameter {
            eps: 0.01,
            max_hops: 6,
            internal_only: false,
        }];
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                queries.push(Query::Delivery {
                    src: s,
                    dst: d,
                    at: Time::secs(50.0),
                    bound: HopBound::AtMost(2),
                });
                if s != d {
                    queries.push(Query::Path {
                        src: s,
                        dst: d,
                        at: Time::secs(0.0),
                    });
                }
            }
        }
        for q in &queries {
            assert_eq!(
                from_shards.answer(q).unwrap(),
                lazy.answer(q).unwrap(),
                "backends diverged on {q:?}"
            );
        }
    }

    #[test]
    fn batch_preserves_order_and_matches_singles() {
        let t = toy();
        let engine = shards_engine(&t, ProfileOptions::default(), 3);
        let queries: Vec<Query> = (0..t.num_nodes())
            .flat_map(|s| {
                (0..t.num_nodes()).map(move |d| Query::Delivery {
                    src: s,
                    dst: d,
                    at: Time::secs(s as f64 * 10.0),
                    bound: HopBound::Unlimited,
                })
            })
            .collect();
        let batch = engine.answer_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(got.as_ref().unwrap(), &engine.answer(q).unwrap());
        }
    }

    #[test]
    fn path_routes_need_the_trace() {
        let t = toy();
        let opts = ProfileOptions::default();
        let q = Query::Path {
            src: 0,
            dst: 3,
            at: Time::secs(0.0),
        };
        let bare = shards_engine(&t, opts, 1);
        let QueryResponse::Path(no_trace) = bare.answer(&q).unwrap() else {
            panic!("wrong variant")
        };
        assert!(no_trace.reachable);
        assert!(no_trace.route.is_none());
        let with = shards_engine(&t, opts, 1)
            .with_trace(Arc::new(t.clone()))
            .unwrap();
        let QueryResponse::Path(routed) = with.answer(&q).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(routed.arrival, no_trace.arrival);
        assert_eq!(routed.hops, no_trace.hops);
        let route = routed.route.expect("trace attached");
        assert_eq!(route.len(), routed.hops);
        assert_eq!(route[0].from, NodeId(0));
        // Unreachable direction: node 4's only contact is long gone.
        let QueryResponse::Path(nope) = with
            .answer(&Query::Path {
                src: 4,
                dst: 0,
                at: Time::secs(500.0),
            })
            .unwrap()
        else {
            panic!("wrong variant")
        };
        assert!(!nope.reachable && nope.route.is_none());
    }

    #[test]
    fn typed_errors_cover_bad_requests() {
        let t = toy();
        let engine = shards_engine(&t, ProfileOptions::default(), 1);
        assert!(matches!(
            engine.answer(&Query::Delivery {
                src: 99,
                dst: 0,
                at: Time::secs(0.0),
                bound: HopBound::Unlimited
            }),
            Err(QueryError::NodeOutOfRange { node: 99, .. })
        ));
        assert!(matches!(
            engine.answer(&Query::Path {
                src: 1,
                dst: 1,
                at: Time::secs(0.0)
            }),
            Err(QueryError::SameNode)
        ));
        assert!(matches!(
            engine.answer(&Query::Diameter {
                eps: 1.5,
                max_hops: 4,
                internal_only: false
            }),
            Err(QueryError::BadParameter { .. })
        ));
    }

    #[test]
    fn partial_set_yields_shard_missing() {
        let t = toy();
        let meta = meta_of(&t, ProfileOptions::default());
        let rows = AllPairsProfiles::compute(&t, meta.options).into_rows();
        let dir = tmp("gap");
        let paths = omnet_artifact::write_set(&dir, "toy", &meta, &rows, 5).unwrap();
        std::fs::remove_file(&paths[2]).unwrap();
        let engine = Engine::load_dir(&dir).unwrap();
        // Source 2's shard is gone; source 0 still answers.
        assert!(engine
            .answer(&Query::Delivery {
                src: 0,
                dst: 3,
                at: Time::secs(0.0),
                bound: HopBound::Unlimited
            })
            .is_ok());
        assert!(matches!(
            engine.answer(&Query::Delivery {
                src: 2,
                dst: 3,
                at: Time::secs(0.0),
                bound: HopBound::Unlimited
            }),
            Err(QueryError::ShardMissing { source: 2 })
        ));
        assert!(matches!(
            engine.answer(&Query::Diameter {
                eps: 0.01,
                max_hops: 4,
                internal_only: false
            }),
            Err(QueryError::ShardMissing { source: 2 })
        ));
    }

    /// Regression: a shard truncated after the set was opened used to
    /// raise `SIGBUS` on first access (its rows were memory-mapped); it
    /// must be a typed rejection from the set and from the engine.
    #[test]
    fn shard_truncated_after_load_is_rejected_not_fatal() {
        let t = toy();
        let meta = meta_of(&t, ProfileOptions::default());
        let rows = AllPairsProfiles::compute(&t, meta.options).into_rows();
        let dir = tmp("trunc");
        let paths = omnet_artifact::write_set(&dir, "toy", &meta, &rows, 2).unwrap();
        let set = omnet_artifact::map_set(&dir).unwrap();
        let engine = Engine::load_dir(&dir).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&paths[0])
            .unwrap()
            .set_len(0)
            .unwrap();
        assert!(matches!(set.row(0), Err(ArtifactError::Truncated { .. })));
        assert!(matches!(
            engine.answer(&Query::Delivery {
                src: 0,
                dst: 3,
                at: Time::secs(0.0),
                bound: HopBound::Unlimited
            }),
            Err(QueryError::ShardRejected { source: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shallow_artifact_rejects_deep_diameter() {
        let t = toy();
        let opts = ProfileOptions::builder().store_levels(1).build();
        let engine = shards_engine(&t, opts, 1);
        let err = engine
            .answer(&Query::Diameter {
                eps: 0.01,
                max_hops: 6,
                internal_only: false,
            })
            .unwrap_err();
        assert!(
            matches!(err, QueryError::HopsBeyondArtifact { requested: 6, .. }),
            "{err}"
        );
    }

    #[test]
    fn stats_reports_coverage() {
        let t = toy();
        let engine = shards_engine(&t, ProfileOptions::default(), 2);
        let QueryResponse::Stats(s) = engine.answer(&Query::Stats).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(s.num_nodes, 5);
        assert_eq!(s.num_internal, 4);
        assert_eq!(s.shards, 2);
        assert_eq!(s.rows, 5);
        // Shards verify lazily: before any row query nothing is decoded,
        // so there is no converged_at to report yet...
        assert!(s.max_useful_hops.is_none());
        engine
            .answer(&Query::Delivery {
                src: 0,
                dst: 1,
                at: Time::secs(0.0),
                bound: HopBound::Unlimited,
            })
            .unwrap();
        let QueryResponse::Stats(s) = engine.answer(&Query::Stats).unwrap() else {
            panic!("wrong variant")
        };
        // ...and after one query the touched row has been decoded.
        assert!(s.max_useful_hops.is_some());
        // The lazy engine starts empty and fills as it answers.
        let lazy = Engine::from_trace(Arc::new(t), ProfileOptions::default(), "toy");
        let QueryResponse::Stats(s0) = lazy.answer(&Query::Stats).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!((s0.shards, s0.rows), (0, 0));
        lazy.answer(&Query::Delivery {
            src: 0,
            dst: 1,
            at: Time::secs(0.0),
            bound: HopBound::Unlimited,
        })
        .unwrap();
        let QueryResponse::Stats(s1) = lazy.answer(&Query::Stats).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(s1.rows, 1);
    }

    #[test]
    fn apply_delta_keeps_lazy_engine_exact() {
        use omnet_temporal::ContactKey;
        let t = toy();
        let opts = ProfileOptions::default();
        let mut lazy = Engine::from_trace(Arc::new(t.clone()), opts, "toy");
        // Memoize every row, then edit the substrate underneath them.
        for s in 0..t.num_nodes() {
            lazy.answer(&Query::Delivery {
                src: s,
                dst: 0,
                at: Time::secs(0.0),
                bound: HopBound::Unlimited,
            })
            .unwrap();
        }
        let delta = ContactDelta {
            remove: vec![ContactKey(1)],
            append: vec![Contact::secs(1, 2, 300.0, 340.0)],
        };
        let applied = lazy.apply_delta(&delta, lazy.key_epoch()).unwrap();
        assert!(
            applied.rows_invalidated > 0,
            "the 1—2 relay is used by memoized rows"
        );
        assert_eq!(applied.key_epoch, 1, "an applied delta bumps the epoch");
        // Every answer must now match a from-scratch engine over the
        // edited trace — including Path, which reads the rebuilt trace.
        let mut ov = TraceOverlay::new(t.clone());
        ov.remove(ContactKey(1));
        ov.append(Contact::secs(1, 2, 300.0, 340.0));
        let (reference, _) = ov.materialize();
        let fresh = Engine::from_trace(Arc::new(reference), opts, "toy");
        let mut queries = vec![Query::Diameter {
            eps: 0.01,
            max_hops: 6,
            internal_only: false,
        }];
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                queries.push(Query::Delivery {
                    src: s,
                    dst: d,
                    at: Time::secs(50.0),
                    bound: HopBound::Unlimited,
                });
                if s != d {
                    queries.push(Query::Path {
                        src: s,
                        dst: d,
                        at: Time::secs(0.0),
                    });
                }
            }
        }
        for q in &queries {
            assert_eq!(
                lazy.answer(q).unwrap(),
                fresh.answer(q).unwrap(),
                "post-delta engine diverged on {q:?}"
            );
        }
        // Typed errors: bad removal keys, and artifact-backed immutability.
        assert!(matches!(
            lazy.apply_delta(
                &ContactDelta::remove_only([ContactKey(999)]),
                lazy.key_epoch()
            ),
            Err(QueryError::BadParameter { .. })
        ));
        let mut shards = shards_engine(&t, opts, 1);
        assert!(matches!(
            shards.apply_delta(&delta, shards.key_epoch()),
            Err(QueryError::BadParameter { .. })
        ));
    }

    /// Regression (stale-key bug): `apply_delta` used to validate removal
    /// keys only against `trace.num_contacts()`, but every applied delta
    /// compacts — renumbering the key space — so a client holding
    /// pre-compaction keys could silently remove the *wrong* contact
    /// whenever the stale key was still in range. Stale keys must be
    /// rejected with a typed error, and the engine left untouched.
    #[test]
    fn stale_keys_rejected_after_compaction() {
        use omnet_temporal::ContactKey;
        let t = toy();
        let opts = ProfileOptions::default();
        let mut engine = Engine::from_trace(Arc::new(t.clone()), opts, "toy");
        assert_eq!(engine.key_epoch(), 0);

        // Epoch 0: the client learns keys 0..6 (base contact ids) and
        // removes key 0 — the 0–1 contact at [0, 120].
        let applied = engine
            .apply_delta(&ContactDelta::remove_only([ContactKey(0)]), 0)
            .unwrap();
        assert_eq!(applied.key_epoch, 1);
        assert_eq!(applied.num_contacts, 5);

        // The same client now tries to remove key 1, still believing it
        // addresses the 1–2 contact at [100, 260] — but the compaction
        // renumbered, and key 1 now addresses a different contact. Key 1
        // is in range (5 contacts live), so the old validation would have
        // applied it: the silent wrong-contact removal.
        let stale = engine.apply_delta(&ContactDelta::remove_only([ContactKey(1)]), 0);
        assert!(
            matches!(
                stale,
                Err(QueryError::StaleKeyEpoch {
                    presented: 0,
                    current: 1
                })
            ),
            "stale-epoch delta must be rejected, got {stale:?}"
        );
        // Rejection is side-effect free: answers match an engine that only
        // ever saw the first (valid) delta.
        let mut ov = TraceOverlay::new(t.clone());
        ov.remove(ContactKey(0));
        let (reference, _) = ov.materialize();
        let fresh = Engine::from_trace(Arc::new(reference), opts, "toy");
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let q = Query::Delivery {
                    src: s,
                    dst: d,
                    at: Time::secs(0.0),
                    bound: HopBound::Unlimited,
                };
                assert_eq!(engine.answer(&q).unwrap(), fresh.answer(&q).unwrap());
            }
        }
        // Quoting the *current* epoch works.
        assert!(engine
            .apply_delta(&ContactDelta::remove_only([ContactKey(1)]), 1)
            .is_ok());
    }

    /// Regression (half-applied delta bug): a mixed delta whose Nth append
    /// is invalid must be rejected as a whole — no contact removed, no
    /// earlier append applied, no memo dropped, no epoch bump.
    #[test]
    fn rejected_mixed_delta_is_all_or_nothing() {
        use omnet_temporal::ContactKey;
        let t = toy();
        let opts = ProfileOptions::default();
        let mut engine = Engine::from_trace(Arc::new(t.clone()), opts, "toy");
        // Memoize every row so a half-applied delta would be visible as
        // either changed answers or a shrunken memo.
        for s in 0..t.num_nodes() {
            engine
                .answer(&Query::Delivery {
                    src: s,
                    dst: 0,
                    at: Time::secs(0.0),
                    bound: HopBound::Unlimited,
                })
                .unwrap();
        }
        let reference = Engine::from_trace(Arc::new(t.clone()), opts, "toy");
        // Valid removal + valid append, then an append outside the
        // observation window as the last entry.
        let mixed = ContactDelta {
            remove: vec![ContactKey(1)],
            append: vec![
                Contact::secs(1, 2, 300.0, 340.0),
                Contact::secs(0, 2, 5_000.0, 6_000.0),
            ],
        };
        let err = engine.apply_delta(&mixed, engine.key_epoch()).unwrap_err();
        assert!(matches!(err, QueryError::BadParameter { .. }), "{err}");
        assert_eq!(
            engine.key_epoch(),
            0,
            "rejected delta must not bump the epoch"
        );
        let QueryResponse::Stats(s) = engine.answer(&Query::Stats).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(s.rows, 5, "rejected delta must not drop memoized rows");
        let mut queries = vec![Query::Diameter {
            eps: 0.01,
            max_hops: 6,
            internal_only: false,
        }];
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                queries.push(Query::Delivery {
                    src: s,
                    dst: d,
                    at: Time::secs(50.0),
                    bound: HopBound::Unlimited,
                });
            }
        }
        for q in &queries {
            assert_eq!(
                engine.answer(q).unwrap(),
                reference.answer(q).unwrap(),
                "rejected delta changed the engine on {q:?}"
            );
        }
        // The valid prefix of the same batch still applies cleanly.
        let valid = ContactDelta {
            remove: vec![ContactKey(1)],
            append: vec![Contact::secs(1, 2, 300.0, 340.0)],
        };
        assert!(engine.apply_delta(&valid, 0).is_ok());
        assert_eq!(engine.key_epoch(), 1);
    }

    #[test]
    fn diameter_matches_direct_computation_bitwise() {
        let t = toy();
        let opts = ProfileOptions::default();
        let engine = shards_engine(&t, opts, 2);
        let QueryResponse::Diameter(a) = engine
            .answer(&Query::Diameter {
                eps: 0.01,
                max_hops: 6,
                internal_only: true,
            })
            .unwrap()
        else {
            panic!("wrong variant")
        };
        // Direct path: exactly what `SuccessCurves::compute` produces.
        let horizon = t.span().duration().as_secs().max(240.0);
        let grid: Vec<Dur> = omnet_analysis::log_grid(120.0_f64.min(horizon / 2.0), horizon, 16)
            .into_iter()
            .map(Dur::secs)
            .collect();
        let copts = CurveOptions::standard(6, grid);
        let curves = SuccessCurves::compute(&t, &copts);
        assert_eq!(a.diameter, curves.diameter(0.01));
        assert_eq!(a.pairs, curves.pairs());
        assert_eq!(a.grid, curves.grid());
        assert_eq!(a.per_delay, curves.diameter_curve(0.01));
    }

    #[test]
    fn row_may_use_respects_boardability() {
        // 0—1 early, 1—2 late, 3 isolated.
        let t = TraceBuilder::new()
            .num_nodes(4)
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 0.0, 60.0)
            .contact_secs(1, 2, 300.0, 360.0)
            .build();
        let rows = AllPairsProfiles::compute(&t, ProfileOptions::default()).into_rows();
        // Source 0 arrives at node 2 at 300s: a 2—3 contact ending before
        // that is unusable, one ending after is usable.
        assert!(!row_may_use(&rows[0], &Contact::secs(2, 3, 100.0, 120.0)));
        assert!(row_may_use(&rows[0], &Contact::secs(2, 3, 100.0, 300.0)));
        // The endpoint's own row can always board (identity at the source).
        assert!(row_may_use(&rows[3], &Contact::secs(2, 3, 100.0, 120.0)));
    }
}
