//! Trace surgery: the contact-removal methodology of §6 plus general
//! cropping/filtering used throughout the experiments.
//!
//! Each transform consumes a trace and returns a new one over the *same*
//! node universe and observation window, so success probabilities stay
//! comparable before and after (exactly how the paper compares Figures
//! 10–12 against the original data set).

use crate::contact::{Contact, Interval};
use crate::node::NodeId;
use crate::time::{Dur, Time};
use crate::trace::Trace;
use rand::Rng;

/// Removes each contact independently with probability `p` (§6.1, Fig. 10).
pub fn remove_random<R: Rng>(trace: &Trace, p: f64, rng: &mut R) -> Trace {
    assert!((0.0..=1.0).contains(&p), "removal probability out of range");
    let kept = trace
        .contacts()
        .iter()
        .filter(|_| rng.gen::<f64>() >= p)
        .copied()
        .collect();
    trace.with_contacts(kept)
}

/// Keeps only contacts lasting at least `min` (§6.2, Fig. 11).
pub fn min_duration(trace: &Trace, min: Dur) -> Trace {
    let kept = trace
        .contacts()
        .iter()
        .filter(|c| c.duration() >= min)
        .copied()
        .collect();
    trace.with_contacts(kept)
}

/// Restricts the trace to `window`: contacts are clipped to the window and
/// dropped when disjoint from it; the trace's observation window becomes
/// `window`. Used to cut "the second day of Infocom06" (§6).
pub fn crop(trace: &Trace, window: Interval) -> Trace {
    let kept: Vec<Contact> = trace
        .contacts()
        .iter()
        .filter_map(|c| {
            c.interval
                .intersect(&window)
                .map(|iv| Contact::new(c.a, c.b, iv))
        })
        .collect();
    crate::trace::TraceBuilder::new()
        .num_nodes(trace.num_nodes())
        .internal(trace.num_internal())
        .window(window)
        .contacts(kept)
        .build()
}

/// Keeps only contacts whose endpoints both satisfy `keep`; the node universe
/// is preserved (excluded nodes simply become isolated). E.g.
/// `internal_only` drops the external-device contacts (§5.1).
pub fn filter_nodes<F: Fn(NodeId) -> bool>(trace: &Trace, keep: F) -> Trace {
    let kept = trace
        .contacts()
        .iter()
        .filter(|c| keep(c.a) && keep(c.b))
        .copied()
        .collect();
    trace.with_contacts(kept)
}

/// Drops every contact touching an external device.
pub fn internal_only(trace: &Trace) -> Trace {
    filter_nodes(trace, |n| trace.is_internal(n))
}

/// Restricts the trace to the internal universe entirely: external contacts
/// are dropped *and* the node universe shrinks to `0..num_internal` (ids are
/// already dense, so no renumbering is needed). Use this when per-node
/// aggregates (component fractions, degree distributions) should not count
/// the external population.
pub fn internal_universe(trace: &Trace) -> Trace {
    let kept: Vec<Contact> = trace
        .contacts()
        .iter()
        .filter(|c| trace.is_internal(c.a) && trace.is_internal(c.b))
        .copied()
        .collect();
    crate::trace::TraceBuilder::new()
        .num_nodes(trace.num_internal())
        .internal(trace.num_internal())
        .window(trace.span())
        .contacts(kept)
        .build()
}

/// Quantizes contacts to a scanning granularity `g`: starts round down to a
/// grid multiple, ends round up, mimicking what a periodic Bluetooth scan
/// observes (§5.1). Contacts of zero length become one slot long.
pub fn quantize(trace: &Trace, g: Dur) -> Trace {
    assert!(g > Dur::ZERO, "granularity must be positive");
    let gs = g.as_secs();
    let span = trace.span();
    let quantized = trace
        .contacts()
        .iter()
        .map(|c| {
            let s = (c.start().as_secs() / gs).floor() * gs;
            let mut e = (c.end().as_secs() / gs).ceil() * gs;
            if e <= s {
                e = s + gs;
            }
            // stay inside the observation window
            let s = s.max(span.start.as_secs());
            let e = e.min(span.end.as_secs()).max(s);
            Contact::new(c.a, c.b, Interval::secs(s, e))
        })
        .collect();
    trace.with_contacts(quantized)
}

/// Shifts all timestamps so the window starts at zero (convenience for
/// presenting relative trace time).
pub fn rebase(trace: &Trace) -> Trace {
    let offset = trace.span().start.since(Time::ZERO);
    let moved: Vec<Contact> = trace
        .contacts()
        .iter()
        .map(|c| {
            Contact::new(
                c.a,
                c.b,
                Interval::new(c.start() - offset, c.end() - offset),
            )
        })
        .collect();
    let window = Interval::new(trace.span().start - offset, trace.span().end - offset);
    crate::trace::TraceBuilder::new()
        .num_nodes(trace.num_nodes())
        .internal(trace.num_internal())
        .window(window)
        .contacts(moved)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Trace {
        TraceBuilder::new()
            .num_nodes(4)
            .internal(3)
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 0.0, 120.0)
            .contact_secs(1, 2, 100.0, 160.0)
            .contact_secs(0, 2, 400.0, 1000.0)
            .contact_secs(0, 3, 500.0, 520.0)
            .build()
    }

    #[test]
    fn remove_random_extremes() {
        let t = toy();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(remove_random(&t, 0.0, &mut rng).num_contacts(), 4);
        assert_eq!(remove_random(&t, 1.0, &mut rng).num_contacts(), 0);
    }

    #[test]
    fn remove_random_is_unbiased_ish() {
        let t = toy();
        let mut rng = StdRng::seed_from_u64(42);
        let mut kept = 0usize;
        for _ in 0..1000 {
            kept += remove_random(&t, 0.5, &mut rng).num_contacts();
        }
        let mean = kept as f64 / 1000.0;
        assert!((mean - 2.0).abs() < 0.2, "mean kept = {mean}");
    }

    #[test]
    fn remove_random_preserves_universe_and_window() {
        let t = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let r = remove_random(&t, 0.9, &mut rng);
        assert_eq!(r.num_nodes(), 4);
        assert_eq!(r.num_internal(), 3);
        assert_eq!(r.span(), t.span());
    }

    #[test]
    fn min_duration_threshold() {
        let t = toy();
        let r = min_duration(&t, Dur::mins(2.0));
        assert_eq!(r.num_contacts(), 2); // the 120s and 600s contacts
        let r = min_duration(&t, Dur::mins(5.0));
        assert_eq!(r.num_contacts(), 1);
        let r = min_duration(&t, Dur::mins(20.0));
        assert_eq!(r.num_contacts(), 0);
    }

    #[test]
    fn crop_clips_and_drops() {
        let t = toy();
        let r = crop(&t, Interval::secs(110.0, 450.0));
        assert_eq!(r.span(), Interval::secs(110.0, 450.0));
        // 0-1 clipped to [110,120], 1-2 clipped to [110,160], 0-2 to [400,450], 0-3 dropped
        assert_eq!(r.num_contacts(), 3);
        assert!(r
            .contacts()
            .iter()
            .all(|c| c.start() >= Time::secs(110.0) && c.end() <= Time::secs(450.0)));
    }

    #[test]
    fn internal_only_drops_external_contacts() {
        let t = toy();
        let r = internal_only(&t);
        assert_eq!(r.num_contacts(), 3);
        assert!(r.contacts().iter().all(|c| c.b.0 < 3));
        assert_eq!(r.num_nodes(), 4); // universe unchanged
    }

    #[test]
    fn internal_universe_shrinks_node_set() {
        let t = toy();
        let r = internal_universe(&t);
        assert_eq!(r.num_nodes(), 3);
        assert_eq!(r.num_internal(), 3);
        assert_eq!(r.num_contacts(), 3);
        assert_eq!(r.span(), t.span());
    }

    #[test]
    fn quantize_rounds_outward() {
        let t = TraceBuilder::new()
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 130.0, 250.0)
            .contact_secs(0, 1, 700.0, 700.0)
            .build();
        let q = quantize(&t, Dur::mins(2.0));
        let c0 = q.contacts()[0];
        assert_eq!(c0.start(), Time::secs(120.0));
        assert_eq!(c0.end(), Time::secs(360.0));
        let c1 = q.contacts()[1];
        assert_eq!(c1.duration(), Dur::mins(2.0)); // zero-length became one slot
    }

    #[test]
    fn rebase_shifts_to_zero() {
        let t = TraceBuilder::new()
            .window(Interval::secs(1000.0, 2000.0))
            .contact_secs(0, 1, 1100.0, 1200.0)
            .build();
        let r = rebase(&t);
        assert_eq!(r.span(), Interval::secs(0.0, 1000.0));
        assert_eq!(r.contacts()[0].interval, Interval::secs(100.0, 200.0));
    }
}
