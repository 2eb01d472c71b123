//! Memoized experiment substrates.
//!
//! Several figures share a generated mobility trace: fig10, fig11 and
//! fig12 all analyze "day 2 of Infocom06, internal contacts", fig6/fig8/
//! fig9 re-generate the same two-day panels, and any future figure will
//! keep drawing from the same small set. Generating a trace is pure in
//! `(dataset, span, seed)`, so the harness caches every substrate behind a
//! process-wide map keyed by `(dataset, days, seed, transform)` — the
//! first experiment to need a substrate builds it, everyone else (and
//! every replication, and every concurrently running experiment) shares
//! the same `Arc<Trace>`.
//!
//! Derived transforms compose through the cache: the internal-only view of
//! a raw trace is cached next to the raw trace itself, so distinct
//! transforms of one `(dataset, span, seed)` still generate it only once.
//! There is no eviction — a full `experiments all` run touches a dozen
//! keys, each a few hundred kilobytes.

use omnet_mobility::Dataset;
use omnet_obs::Counter;
use omnet_temporal::transform::{crop, internal_only};
use omnet_temporal::{Dur, Interval, Time, Trace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// How much of a data set's window to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Span {
    /// The first `days` days (`Dataset::generate_days`).
    Days(f64),
    /// The data set's full natural window (`Dataset::generate`).
    Full,
}

impl Span {
    /// A hashable stand-in for the span (`f64` bit pattern, `MAX` = full).
    fn key_bits(self) -> u64 {
        match self {
            Span::Days(d) => d.to_bits(),
            Span::Full => u64::MAX,
        }
    }
}

/// The derived view of the generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transform {
    /// The generator's output, external sightings included.
    Raw,
    /// Internal (device-to-device) contacts only.
    InternalOnly,
    /// Internal contacts of the span's *final* day — the §6 substrate
    /// (fig10/fig11/fig12). Requires `Span::Days(d)` with `d >= 1`.
    InternalFinalDay,
}

/// The memoization key: one generated-and-transformed substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    dataset: Dataset,
    span_bits: u64,
    seed: u64,
    transform: Transform,
}

/// Cache hit/miss counters for the harness footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Substrate requests served (hits + builds).
    pub lookups: u64,
    /// Requests served from an already-built substrate.
    pub hits: u64,
    /// Requests that had to generate/transform a trace.
    pub builds: u64,
}

// Cache telemetry: `omnet_obs` counters, shared between [`cache_stats`],
// the harness footer and the `--trace-out` sink.
static LOOKUPS: Counter = Counter::new("substrate.lookups");
static HITS: Counter = Counter::new("substrate.hits");
static BUILDS: Counter = Counter::new("substrate.builds");

type Slot = Arc<OnceLock<Arc<Trace>>>;

fn cache() -> &'static Mutex<HashMap<Key, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the cached substrate for `(dataset, span, seed, transform)`,
/// generating it on first use. Concurrent requests for the same key block
/// on one build (per-key `OnceLock`) instead of generating twice; requests
/// for different keys build in parallel (the map lock is not held while
/// generating).
pub fn substrate(dataset: Dataset, span: Span, seed: u64, transform: Transform) -> Arc<Trace> {
    LOOKUPS.inc();
    let key = Key {
        dataset,
        span_bits: span.key_bits(),
        seed,
        transform,
    };
    let slot: Slot = {
        let mut map = cache().lock().expect("substrate cache poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    let mut built = false;
    let trace = Arc::clone(slot.get_or_init(|| {
        built = true;
        BUILDS.inc();
        // Per-key build duration: the span's fields identify the key, its
        // `elapsed` is the generate/transform time (nested builds of the
        // transform a key derives from show up as their own spans).
        let mut sp = omnet_obs::span("substrate.build");
        if sp.active() {
            sp.record("dataset", format!("{dataset:?}"));
            sp.record("transform", format!("{transform:?}"));
            sp.record("seed", seed);
            if let Span::Days(d) = span {
                sp.record("span_days", d);
            }
        }
        Arc::new(build(dataset, span, seed, transform))
    }));
    if !built {
        HITS.inc();
    }
    if omnet_obs::enabled() {
        omnet_obs::event(
            "substrate.lookup",
            &[
                ("hit", (!built).into()),
                ("dataset", format!("{dataset:?}").into()),
                ("transform", format!("{transform:?}").into()),
                ("seed", seed.into()),
            ],
        );
    }
    trace
}

/// Builds a substrate, reusing the cache for the transform it derives from.
fn build(dataset: Dataset, span: Span, seed: u64, transform: Transform) -> Trace {
    match transform {
        Transform::Raw => match span {
            Span::Days(d) => dataset.generate_days(d, seed),
            Span::Full => dataset.generate(seed),
        },
        Transform::InternalOnly => internal_only(&substrate(dataset, span, seed, Transform::Raw)),
        Transform::InternalFinalDay => {
            let days = match span {
                Span::Days(d) => d,
                Span::Full => unreachable!("InternalFinalDay requires an explicit day span"),
            };
            assert!(days >= 1.0, "final-day crop needs at least one day");
            let internal = substrate(dataset, span, seed, Transform::InternalOnly);
            let start = Time::ZERO + Dur::days(days - 1.0);
            crop(&internal, Interval::new(start, start + Dur::days(1.0)))
        }
    }
}

/// Reads the cumulative cache counters.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        lookups: LOOKUPS.get(),
        hits: HITS.get(),
        builds: BUILDS.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drops every cached substrate (the counters keep running).
    fn clear() {
        cache().lock().expect("substrate cache poisoned").clear();
    }

    /// The cache and its counters are process-global; serialize the tests
    /// that assert on build counts so they don't perturb each other.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn same_key_is_generated_once_and_shared() {
        let _gate = serial();
        clear();
        let before = cache_stats();
        let a = substrate(Dataset::Infocom05, Span::Days(0.25), 4242, Transform::Raw);
        let b = substrate(Dataset::Infocom05, Span::Days(0.25), 4242, Transform::Raw);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        let after = cache_stats();
        assert_eq!(after.lookups - before.lookups, 2);
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.builds - before.builds, 1);
    }

    #[test]
    fn transforms_derive_from_the_cached_raw_trace() {
        let _gate = serial();
        clear();
        let before = cache_stats();
        let internal = substrate(
            Dataset::Infocom05,
            Span::Days(0.25),
            7,
            Transform::InternalOnly,
        );
        let raw = substrate(Dataset::Infocom05, Span::Days(0.25), 7, Transform::Raw);
        // internal-only + its raw base: exactly two builds, not three.
        let after = cache_stats();
        assert_eq!(after.builds - before.builds, 2);
        assert!(internal.num_contacts() <= raw.num_contacts());
        assert_eq!(internal.num_contacts(), internal_only(&raw).num_contacts());
    }

    #[test]
    fn distinct_seeds_and_spans_are_distinct_keys() {
        let _gate = serial();
        clear();
        let a = substrate(Dataset::Infocom05, Span::Days(0.25), 1, Transform::Raw);
        let b = substrate(Dataset::Infocom05, Span::Days(0.25), 2, Transform::Raw);
        let c = substrate(Dataset::Infocom05, Span::Days(0.5), 1, Transform::Raw);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(c.num_contacts() >= a.num_contacts());
    }

    #[test]
    fn final_day_matches_manual_construction() {
        let _gate = serial();
        let days = 1.25;
        let via_cache = substrate(
            Dataset::Infocom06,
            Span::Days(days),
            99,
            Transform::InternalFinalDay,
        );
        let full = Dataset::Infocom06.generate_days(days, 99);
        let start = Time::ZERO + Dur::days(days - 1.0);
        let manual = crop(
            &internal_only(&full),
            Interval::new(start, start + Dur::days(1.0)),
        );
        assert_eq!(via_cache.num_contacts(), manual.num_contacts());
        assert_eq!(via_cache.span(), manual.span());
    }

    #[test]
    fn concurrent_same_key_requests_build_once() {
        let _gate = serial();
        clear();
        let before = cache_stats();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| substrate(Dataset::Infocom05, Span::Days(0.25), 555, Transform::Raw));
            }
        });
        let after = cache_stats();
        assert_eq!(after.builds - before.builds, 1);
        assert_eq!(after.lookups - before.lookups, 4);
    }
}
