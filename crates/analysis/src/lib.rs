//! Statistical and presentation machinery shared by the experiment harness.
//!
//! This crate is deliberately free of any temporal-network types: it deals in
//! plain `f64` samples and renders plain-text tables and series, which is how
//! the harness "plots" every figure of the paper (one CSV-like series per
//! curve). It also hosts the parallel runtime used by the CPU-bound sweeps: a
//! scoped-thread fork/join [`executor`] behind the [`par_map`] /
//! [`par_map_with`] facade (the workload is pure computation, so no async
//! runtime is involved; see DESIGN.md §10).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ecdf;
pub mod executor;
pub mod fit;
pub mod grid;
pub mod histogram;
pub mod parallel;
pub mod summary;
pub mod table;

pub use ecdf::{Ccdf, Ecdf};
pub use executor::{with_task_counter, Executor, ExecutorStats, TaskCounter};
pub use fit::{fit_tail, linear_regression, TailFit};
pub use grid::{linear_grid, log_grid};
pub use histogram::LogHistogram;
pub use parallel::{par_map, par_map_with};
pub use summary::Summary;
pub use table::{Series, Table};
