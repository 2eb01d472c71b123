//! Shared helpers for the experiment modules.

use crate::substrate::{substrate, Span, Transform};
use crate::Config;
use omnet_core::{CurveOptions, HopBound, SuccessCurves};
use omnet_mobility::Dataset;
use omnet_temporal::{Dur, Trace};
use std::fmt::Write as _;
use std::sync::Arc;

/// A figure's data-set substrate, served by the process-wide cache
/// ([`crate::substrate`]): quick runs generate the first `quick_days`
/// days, full runs the data set's natural window. Experiments requesting
/// the same `(dataset, span, seed, transform)` share one generated trace.
pub fn cached_trace(
    ds: Dataset,
    quick_days: f64,
    cfg: &Config,
    transform: Transform,
) -> Arc<Trace> {
    let span = if cfg.quick {
        Span::Days(quick_days)
    } else {
        Span::Full
    };
    substrate(ds, span, cfg.seed, transform)
}

/// [`cached_trace`] with an explicit day span regardless of quick mode.
pub fn cached_days(ds: Dataset, days: f64, cfg: &Config, transform: Transform) -> Arc<Trace> {
    substrate(ds, Span::Days(days), cfg.seed, transform)
}

/// A logarithmic delay grid from 2 minutes to `hi`, `n` points — the x axis
/// of Figures 9–12.
pub fn delay_grid(hi: Dur, n: usize) -> Vec<Dur> {
    omnet_analysis::log_grid(120.0, hi.as_secs(), n)
        .into_iter()
        .map(Dur::secs)
        .collect()
}

/// Computes the standard success curves for a trace: hop classes
/// `1..=max_hops` plus flooding, internal pairs only.
pub fn curves(trace: &Trace, max_hops: usize, grid: Vec<Dur>) -> SuccessCurves {
    SuccessCurves::compute(trace, &CurveOptions::standard(max_hops, grid))
}

/// Renders selected hop-class curves (plus flooding) as a series table.
pub fn render_curves(curves: &SuccessCurves, hops: &[usize]) -> String {
    let xs: Vec<f64> = curves.grid().iter().map(|d| d.as_secs()).collect();
    let mut series = omnet_analysis::Series::new("delay_s", xs);
    for &k in hops {
        if let Some(c) = curves.curve(HopBound::AtMost(k)) {
            series.curve(format!("{k}hop"), c.to_vec());
        }
    }
    if let Some(c) = curves.curve(HopBound::Unlimited) {
        series.curve("flood", c.to_vec());
    }
    series.render()
}

/// Renders a diameter verdict line.
pub fn diameter_line(curves: &SuccessCurves, eps: f64) -> String {
    match curves.diameter(eps) {
        Some(d) => format!(
            "(1-{eps})-diameter = {d} hops (over {} ordered pairs)",
            curves.pairs()
        ),
        None => format!(
            "(1-{eps})-diameter exceeds the evaluated hop classes (max {:?})",
            curves
                .bounds()
                .iter()
                .filter_map(|b| match b {
                    HopBound::AtMost(k) => Some(*k),
                    HopBound::Unlimited => None,
                })
                .max()
        ),
    }
}

/// Appends a titled section to an output buffer.
pub fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "## {title}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_temporal::TraceBuilder;

    #[test]
    fn delay_grid_spans_two_minutes_up() {
        let g = delay_grid(Dur::days(1.0), 10);
        assert_eq!(g.len(), 10);
        assert!((g[0].as_secs() - 120.0).abs() < 1e-9);
        assert!((g[9].as_secs() - 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn render_and_diameter_smoke() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 500.0)
            .contact_secs(1, 2, 200.0, 800.0)
            .build();
        let c = curves(&t, 3, delay_grid(Dur::secs(1000.0), 5));
        let text = render_curves(&c, &[1, 2]);
        assert!(text.contains("flood"));
        assert!(diameter_line(&c, 0.01).contains("diameter"));
    }
}
