//! Calibrated presets for the paper's four data sets (Table 1).
//!
//! Real traces are not redistributable, so each preset pins the *published*
//! aggregate characteristics (device counts, duration, scan granularity,
//! contact totals, duration mixture, diurnal profile) and the generator
//! reproduces them in expectation. Where the ACM copy of Table 1 is
//! OCR-garbled, the value used here is recorded as an approximation in
//! EXPERIMENTS.md. The diameter analyses depend only on these aggregates,
//! not on ground-truth identities.

use crate::duration::DurationModel;
use crate::generator::{GatheringSpec, MobilitySpec};
use crate::schedule::Schedule;
use omnet_temporal::{Dur, Trace};

/// The four experimental data sets of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Haggle iMotes at IEEE Infocom 2005: 41 participants, 3 days.
    Infocom05,
    /// Haggle iMotes at IEEE Infocom 2006: 78 participants, 4 days.
    Infocom06,
    /// Haggle iMotes handed out in a Hong-Kong bar: 37 strangers, 5 days,
    /// very few internal contacts, many external sightings.
    HongKong,
    /// MIT Reality Mining Bluetooth logs: 100 students, 9 months.
    RealityMining,
}

impl Dataset {
    /// Every data set, in the paper's column order.
    pub const ALL: [Dataset; 4] = [
        Dataset::Infocom05,
        Dataset::Infocom06,
        Dataset::HongKong,
        Dataset::RealityMining,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Infocom05 => "Infocom05",
            Dataset::Infocom06 => "Infocom06",
            Dataset::HongKong => "Hong-Kong",
            Dataset::RealityMining => "Reality Mining BT",
        }
    }

    /// The generator specification calibrated to this data set.
    pub fn spec(self) -> MobilitySpec {
        match self {
            Dataset::Infocom05 => MobilitySpec {
                name: "Infocom05",
                internal: 41,
                external: 223,
                duration: Dur::days(3.0),
                granularity: Dur::mins(2.0),
                communities: 5, // parallel sessions / research communities
                community_weight: 3.0,
                sociability_sigma: 0.6,
                target_internal_contacts: 22_459.0,
                target_external_contacts: 1_173.0,
                schedule: Schedule::Conference,
                durations: DurationModel::conference(),
                external_durations: DurationModel::new(0.9, 1.5, Dur::hours(1.0)),
                miss_probability: 0.1,
                // coffee-break circles & lunch tables supply roughly half of
                // all sightings and the snapshot clustering of a conference
                gatherings: Some(GatheringSpec {
                    events_per_day: 115.0,
                    group_size: 12,
                }),
            },
            Dataset::Infocom06 => MobilitySpec {
                name: "Infocom06",
                internal: 78,
                external: 4_000,
                duration: Dur::days(4.0),
                granularity: Dur::mins(2.0),
                communities: 8,
                community_weight: 3.0,
                sociability_sigma: 0.6,
                target_internal_contacts: 82_000.0,
                target_external_contacts: 6_630.0,
                schedule: Schedule::Conference,
                durations: DurationModel::conference(),
                external_durations: DurationModel::new(0.9, 1.5, Dur::hours(1.0)),
                miss_probability: 0.1,
                gatherings: Some(GatheringSpec {
                    events_per_day: 300.0,
                    group_size: 12,
                }),
            },
            Dataset::HongKong => MobilitySpec {
                name: "HongKong",
                internal: 37,
                external: 869,
                duration: Dur::days(5.0),
                granularity: Dur::mins(2.0),
                // strangers recruited to share no social ties: every node its
                // own community, broad sociability spread
                communities: 37,
                community_weight: 1.0,
                sociability_sigma: 1.0,
                target_internal_contacts: 560.0,
                target_external_contacts: 2_507.0,
                schedule: Schedule::City,
                durations: DurationModel::campus(),
                external_durations: DurationModel::new(0.85, 1.4, Dur::hours(2.0)),
                miss_probability: 0.1,
                gatherings: None, // strangers by design
            },
            Dataset::RealityMining => MobilitySpec {
                name: "RealityMining",
                internal: 100,
                external: 0,
                duration: Dur::days(270.0),
                granularity: Dur::mins(5.0),
                communities: 10, // research groups / dorms
                community_weight: 6.0,
                sociability_sigma: 0.8,
                target_internal_contacts: 32_667.0,
                target_external_contacts: 0.0,
                schedule: Schedule::Campus,
                durations: DurationModel::campus(),
                external_durations: DurationModel::campus(),
                miss_probability: 0.1,
                // shared lectures / lab meetings
                gatherings: Some(GatheringSpec {
                    events_per_day: 7.0,
                    group_size: 6,
                }),
            },
        }
    }

    /// Generates the calibrated synthetic trace.
    pub fn generate(self, seed: u64) -> Trace {
        self.spec().generate(seed)
    }

    /// A shortened variant (first `days` days, targets scaled down
    /// proportionally) for quick experiments and tests.
    ///
    /// Panics unless [`Dataset::accepts_days`] holds for `days`.
    pub fn generate_days(self, days: f64, seed: u64) -> Trace {
        assert!(self.accepts_days(days), "days exceed the data set span");
        let mut spec = self.spec();
        let scale = self.days_scale(days);
        spec.duration = Dur::days(days);
        spec.target_internal_contacts *= scale;
        spec.target_external_contacts *= scale;
        spec.generate(seed)
    }

    /// True when `days` covers a positive part of the data set's span and
    /// no more than all of it: the lengths [`Dataset::generate_days`] takes.
    pub fn accepts_days(self, days: f64) -> bool {
        let scale = self.days_scale(days);
        scale > 0.0 && scale <= 1.0
    }

    /// The fraction of the data set's span that `days` covers.
    fn days_scale(self, days: f64) -> f64 {
        (days * 86_400.0) / self.spec().duration.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_temporal::stats::TraceStats;

    #[test]
    fn labels_and_all() {
        assert_eq!(Dataset::ALL.len(), 4);
        assert_eq!(Dataset::Infocom05.label(), "Infocom05");
    }

    #[test]
    fn infocom05_matches_table1() {
        let t = Dataset::Infocom05.generate(1);
        let s = TraceStats::of(&t);
        assert_eq!(s.internal_devices, 41);
        assert_eq!(s.external_devices, 223);
        assert_eq!(s.duration, Dur::days(3.0));
        assert_eq!(s.granularity, Some(Dur::mins(2.0)));
        let target = 22_459.0;
        let got = s.internal_contacts as f64;
        assert!(
            (got - target).abs() < 0.25 * target,
            "internal contacts {got} vs {target}"
        );
    }

    #[test]
    fn hongkong_is_sparse_internally() {
        let t = Dataset::HongKong.generate(2);
        let s = TraceStats::of(&t);
        assert_eq!(s.internal_devices, 37);
        assert!(s.internal_contacts < 1_200, "{}", s.internal_contacts);
        assert!(s.external_contacts > 1_200, "{}", s.external_contacts);
        // conference trace is orders of magnitude denser
        let conf = TraceStats::of(&Dataset::Infocom05.generate(2));
        assert!(conf.internal_rate_per_node_hour > 20.0 * s.internal_rate_per_node_hour);
    }

    #[test]
    fn reality_mining_long_and_sparse() {
        // generate a shortened slice to keep the test quick, then check the
        // rate matches the full-length calibration.
        let t = Dataset::RealityMining.generate_days(27.0, 3);
        let s = TraceStats::of(&t);
        assert_eq!(s.internal_devices, 100);
        assert_eq!(s.granularity, Some(Dur::mins(5.0)));
        let target = 3_266.7; // one tenth of the 9-month total
        let got = s.internal_contacts as f64;
        assert!(
            (got - target).abs() < 0.3 * target,
            "contacts {got} vs {target}"
        );
    }

    #[test]
    fn accepts_days_within_the_span() {
        for days in [1e-3, 1.5, 3.0] {
            assert!(Dataset::Infocom05.accepts_days(days), "{days}");
        }
        for days in [0.0, -1.0, 3.0001, f64::INFINITY, f64::NAN, 5e-324] {
            assert!(!Dataset::Infocom05.accepts_days(days), "{days}");
        }
        assert!(Dataset::RealityMining.accepts_days(100.0));
    }

    #[test]
    fn generate_days_scales_window() {
        let t = Dataset::Infocom06.generate_days(1.0, 9);
        assert_eq!(t.span().duration(), Dur::days(1.0));
        let s = TraceStats::of(&t);
        let target = 82_000.0 / 4.0;
        let got = s.internal_contacts as f64;
        assert!(
            (got - target).abs() < 0.3 * target,
            "contacts {got} vs {target}"
        );
    }

    #[test]
    fn infocom06_duration_mixture() {
        let t = Dataset::Infocom06.generate_days(1.0, 4);
        let durs = omnet_temporal::stats::contact_durations(&t);
        let internal_durs: Vec<Dur> = t
            .contacts()
            .iter()
            .filter(|c| t.is_internal(c.a) && t.is_internal(c.b))
            .map(|c| c.duration())
            .collect();
        assert!(!durs.is_empty());
        let single = internal_durs
            .iter()
            .filter(|d| **d <= Dur::mins(2.0))
            .count() as f64
            / internal_durs.len() as f64;
        // paper: "above 75% of contacts … are only one slot long"
        assert!(single > 0.65 && single < 0.92, "single-slot frac {single}");
        let hour = internal_durs
            .iter()
            .filter(|d| **d > Dur::hours(1.0))
            .count() as f64
            / internal_durs.len() as f64;
        // paper: "around 0.4% … longer than one hour"
        assert!(hour > 0.0005 && hour < 0.02, "hour tail {hour}");
    }
}
