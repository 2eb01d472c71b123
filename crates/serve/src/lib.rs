//! Query engine over delivery-profile state: the typed request/response
//! layer every consumer (the `omnet` CLI, batch scripts, tests) goes
//! through instead of hand-wiring profile computations.
//!
//! Two backends answer the same [`Query`] grammar:
//!
//! - **Artifact-backed** ([`Engine::load_dir`]): loads a persisted shard set
//!   written by `omnet-artifact` and answers without ever re-running the
//!   §4.4 induction — no `engine.all_pairs` span is emitted on this path.
//! - **Trace-backed** ([`Engine::from_trace`]): computes source rows lazily
//!   from an in-memory trace and memoizes them, so interactive commands
//!   (`omnet path`, `omnet delivery`, `omnet diameter`) share the exact
//!   same answering code as the artifact path.
//!
//! Batches go through [`Engine::answer_batch`], which fans queries out on
//! the work-stealing executor (`omnet_analysis::par_map`) while preserving
//! input order.
//!
//! The same engines also serve over the network: [`Server`] routes
//! length-prefixed JSON frames ([`wire`]) to named datasets, interleaving
//! concurrent query batches (read lock) with wire deltas (write lock) —
//! see DESIGN.md §16 for the protocol.
//!
//! Observability: `serve.load` / `serve.query` / `serve.delta` spans plus
//! per-connection `serve.conn` and per-request `serve.request` spans, and
//! `serve.queries`, `serve.query_errors`, `serve.loads`, `serve.accepted`,
//! `serve.rejected`, `serve.requests`, `serve.in_flight_max` counters.

#![deny(missing_docs)]

mod engine;
mod query;
mod server;
pub mod wire;

pub use engine::{DeltaApplied, Engine};
pub use query::{
    DeliveryAnswer, DiameterAnswer, PathAnswer, PathHop, Query, QueryError, QueryResponse,
    StatsAnswer,
};
pub use server::{ServeReport, Server, ServerHandle};

pub(crate) static QUERIES: omnet_obs::Counter = omnet_obs::Counter::new("serve.queries");
pub(crate) static QUERY_ERRORS: omnet_obs::Counter = omnet_obs::Counter::new("serve.query_errors");
pub(crate) static LOADS: omnet_obs::Counter = omnet_obs::Counter::new("serve.loads");
pub(crate) static ACCEPTED: omnet_obs::Counter = omnet_obs::Counter::new("serve.accepted");
pub(crate) static REJECTED: omnet_obs::Counter = omnet_obs::Counter::new("serve.rejected");
pub(crate) static REQUESTS: omnet_obs::Counter = omnet_obs::Counter::new("serve.requests");
pub(crate) static IN_FLIGHT_MAX: omnet_obs::Counter =
    omnet_obs::Counter::new("serve.in_flight_max");
/// Non-empty deltas [`Engine::apply_delta`] applied.
pub(crate) static DELTAS_APPLIED: omnet_obs::Counter =
    omnet_obs::Counter::new("serve.deltas_applied");
/// Memoized rows those deltas dropped (they recompute lazily).
pub(crate) static ROWS_INVALIDATED: omnet_obs::Counter =
    omnet_obs::Counter::new("serve.rows_invalidated");
