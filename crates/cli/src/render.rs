//! Renders typed [`omnet_serve`] answers to the tool's text output.
//!
//! The `path` and `diameter` renderings are byte-compatible with the
//! pre-engine implementations of those commands: routing everything
//! through the typed query API must not change what scripts see.

use omnet_core::HopBound;
use omnet_serve::{
    DeliveryAnswer, DiameterAnswer, PathAnswer, QueryError, QueryResponse, StatsAnswer,
};
use std::fmt::Write as _;

/// Renders any query response.
pub fn response(r: &QueryResponse) -> String {
    match r {
        QueryResponse::Delivery(a) => delivery_answer(a),
        QueryResponse::Path(a) => path_answer(a),
        QueryResponse::Diameter(a) => diameter_answer(a),
        QueryResponse::Stats(a) => stats_answer(a),
        _ => String::new(),
    }
}

/// Renders batch results in order, each failure as an inline `error: …`
/// line (the local `--stdin` batch and its `--remote` twin).
pub fn results(results: impl IntoIterator<Item = Result<QueryResponse, QueryError>>) -> String {
    let mut out = String::new();
    for r in results {
        match r {
            Ok(resp) => out.push_str(&response(&resp)),
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        }
    }
    out
}

/// Renders a delivery answer as one line.
pub fn delivery_answer(a: &DeliveryAnswer) -> String {
    let budget = match a.bound {
        HopBound::AtMost(k) => format!("{k} hops"),
        HopBound::Unlimited => "unlimited hops".to_string(),
    };
    if a.reachable {
        format!(
            "delivery {} -> {} created {} ({budget}): arrives {}  delay {}\n",
            a.src, a.dst, a.at, a.arrival, a.delay
        )
    } else {
        format!(
            "delivery {} -> {} created {} ({budget}): unreachable\n",
            a.src, a.dst, a.at
        )
    }
}

/// Renders a path answer; identical output to the original `omnet path`.
pub fn path_answer(a: &PathAnswer) -> String {
    let mut out = String::new();
    if !a.reachable {
        let _ = writeln!(
            out,
            "no path from {} to {} for a message created at {}",
            a.src, a.dst, a.at
        );
        return out;
    }
    let _ = writeln!(
        out,
        "earliest arrival: {} (delay {}), {} hops",
        a.arrival, a.delay, a.hops
    );
    if let Some(route) = &a.route {
        for (i, h) in route.iter().enumerate() {
            let _ = writeln!(
                out,
                "  hop {:>2}: {} -> {}  via contact [{} .. {}]  at {}",
                i + 1,
                h.from,
                h.to,
                h.window.start,
                h.window.end,
                h.at
            );
        }
    }
    out
}

/// Renders a diameter answer; identical output to the original
/// `omnet diameter`.
pub fn diameter_answer(a: &DiameterAnswer) -> String {
    let mut out = String::new();
    match a.diameter {
        Some(d) => {
            let _ = writeln!(
                out,
                "(1-{})-diameter: {d} hops  (over {} ordered pairs, delays {} to {})",
                a.eps,
                a.pairs,
                a.grid[0],
                a.grid[a.grid.len() - 1]
            );
        }
        None => {
            let _ = writeln!(
                out,
                "(1-{})-diameter exceeds {} hops; raise --max-hops",
                a.eps, a.max_hops
            );
        }
    }
    // per-delay diameter summary (Fig-12 style)
    let _ = writeln!(out, "\ndiameter per delay constraint:");
    for (x, d) in a.grid.iter().zip(&a.per_delay) {
        let _ = writeln!(
            out,
            "  {:>10}  {}",
            x.to_string(),
            d.map_or("-".into(), |v| v.to_string())
        );
    }
    out
}

/// Renders an engine stats answer.
pub fn stats_answer(a: &StatsAnswer) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "dataset:            {}", a.dataset_key);
    let _ = writeln!(
        out,
        "devices:            {} internal of {}",
        a.num_internal, a.num_nodes
    );
    let _ = writeln!(
        out,
        "window:             [{} .. {}]",
        a.window.start, a.window.end
    );
    let _ = writeln!(out, "shards loaded:      {}", a.shards);
    let _ = writeln!(out, "rows materialized:  {} of {}", a.rows, a.num_nodes);
    let _ = writeln!(
        out,
        "max useful hops:    {}",
        a.max_useful_hops.map_or("n/a".into(), |h| h.to_string())
    );
    let _ = writeln!(out, "stored hop classes: {}", a.options.store_levels);
    out
}
