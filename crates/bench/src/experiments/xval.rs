//! Cross-validation: four independent engines must agree on delivery times.
//!
//! * the all-start-times profile algorithm (`omnet-core`, the paper's §4.4),
//! * the single-query generalized Dijkstra,
//! * the event-driven flooding simulator,
//! * the Zhang-style flood-at-every-boundary baseline (exact at
//!   boundaries).
//!
//! Run over random temporal networks *and* synthetic mobility slices, this
//! is the strongest correctness evidence short of the brute-force oracle
//! (which covers tiny traces in the unit tests).

use crate::experiments::util::{cached_days, section};
use crate::substrate::Transform;
use crate::Config;
use omnet_core::{earliest_arrival, AllPairsProfiles, HopBound, ProfileOptions};
use omnet_flooding::{flood, ZhangProfile};
use omnet_mobility::Dataset;
use omnet_random::{ContinuousModel, DiscreteModel};
use omnet_temporal::{NodeId, Time, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

struct Tally {
    queries: usize,
    mismatches: usize,
}

fn validate(trace: &Trace, starts: &[Time], check_zhang: bool) -> Tally {
    let profiles = AllPairsProfiles::compute(trace, ProfileOptions::default());
    let n = trace.num_nodes().min(24); // cap the query fan-out
    let mut tally = Tally {
        queries: 0,
        mismatches: 0,
    };
    for s in 0..n {
        let zhang = check_zhang.then(|| ZhangProfile::compute(trace, NodeId(s)));
        for &t0 in starts {
            let tree = earliest_arrival(trace, NodeId(s), t0);
            let fl = flood(trace, NodeId(s), t0, None);
            for d in 0..n {
                if d == s {
                    continue;
                }
                tally.queries += 1;
                let a =
                    profiles
                        .from_source(NodeId(s))
                        .delivery(NodeId(d), t0, HopBound::Unlimited);
                let b = tree.arrival(NodeId(d));
                let c = fl.delivery(NodeId(d));
                let mut ok = a == b && b == c;
                if let Some(z) = &zhang {
                    // Zhang is exact only at boundaries; starts are chosen on
                    // boundaries below when check_zhang is set.
                    ok &= z.delivery(NodeId(d), t0) == a;
                }
                if !ok {
                    tally.mismatches += 1;
                }
            }
        }
    }
    tally
}

/// Runs the experiment and renders the result.
pub fn run(cfg: &Config) -> String {
    let mut out = String::new();
    section(
        &mut out,
        "Cross-validation: profile algorithm vs Dijkstra vs flooding vs Zhang",
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut total_q = 0usize;
    let mut total_m = 0usize;

    // 1. discrete random temporal networks (long-contact trace semantics)
    for &(n, lambda, slots) in &[(30usize, 1.0f64, 40usize), (50, 0.5, 60)] {
        let model = DiscreteModel::new(n, lambda);
        let slots_v = model.sample(slots, &mut rng);
        let trace = model.to_trace(&slots_v, 60.0);
        let starts: Vec<Time> = (0..6)
            .map(|_| Time::secs(rng.gen_range(0.0..slots as f64 * 60.0)))
            .collect();
        let t = validate(&trace, &starts, false);
        let _ = writeln!(
            out,
            "discrete N={n} λ={lambda}: {} queries, {} mismatches",
            t.queries, t.mismatches
        );
        total_q += t.queries;
        total_m += t.mismatches;
    }

    // 2. continuous model (instantaneous contacts)
    let cm = ContinuousModel::new(40, 2.0);
    let trace = cm.generate(50.0, &mut rng);
    // boundary starts make Zhang exact
    let starts: Vec<Time> = trace
        .contacts()
        .iter()
        .step_by((trace.num_contacts() / 5).max(1))
        .map(|c| c.start())
        .collect();
    let t = validate(&trace, &starts, true);
    let _ = writeln!(
        out,
        "continuous N=40 λ=2: {} queries (incl. Zhang), {} mismatches",
        t.queries, t.mismatches
    );
    total_q += t.queries;
    total_m += t.mismatches;

    // 3. a synthetic mobility slice
    let internal = cached_days(
        Dataset::Infocom05,
        if cfg.quick { 0.25 } else { 0.5 },
        cfg,
        Transform::InternalOnly,
    );
    let starts: Vec<Time> = internal
        .contacts()
        .iter()
        .step_by((internal.num_contacts() / 4).max(1))
        .map(|c| c.end())
        .collect();
    let t = validate(&internal, &starts, true);
    let _ = writeln!(
        out,
        "Infocom05 slice: {} queries (incl. Zhang), {} mismatches",
        t.queries, t.mismatches
    );
    total_q += t.queries;
    total_m += t.mismatches;

    let _ = writeln!(
        out,
        "\nTOTAL: {total_q} queries, {total_m} mismatches{}",
        if total_m == 0 {
            " — all engines agree"
        } else {
            " — INVESTIGATE"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree() {
        let cfg = Config {
            quick: true,
            ..Config::default()
        };
        let text = run(&cfg);
        assert!(text.contains("all engines agree"), "{text}");
    }
}
