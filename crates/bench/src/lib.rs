//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each submodule of [`experiments`] corresponds to one table or figure of
//! *The Diameter of Opportunistic Mobile Networks* (CoNEXT 2007) and renders
//! its result as plain text (tables and x/curve series). The `experiments`
//! binary dispatches on experiment ids; the criterion benches under
//! `benches/` measure the *cost* of the same computations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod harness;
pub mod substrate;

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Shrink workloads (shorter traces, fewer replications) for smoke runs.
    pub quick: bool,
    /// Base RNG seed; every experiment derives its own streams from it.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            quick: false,
            seed: 20_071_210, // CoNEXT'07 started December 10, 2007
        }
    }
}

/// One runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Identifier used on the command line (e.g. `fig9`).
    pub id: &'static str,
    /// What the paper artifact shows.
    pub title: &'static str,
    /// Entry point.
    pub run: fn(&Config) -> String,
}

/// The registry of every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig1",
        title: "Phase transition boundary, short contacts (Figure 1)",
        run: experiments::fig1::run,
    },
    Experiment {
        id: "fig2",
        title: "Phase transition boundary, long contacts (Figure 2)",
        run: experiments::fig2::run,
    },
    Experiment {
        id: "fig3",
        title: "Hop count of the delay-optimal path vs contact rate (Figure 3)",
        run: experiments::fig3::run,
    },
    Experiment {
        id: "table1",
        title: "Characteristics of the four data sets (Table 1)",
        run: experiments::table1::run,
    },
    Experiment {
        id: "fig6",
        title: "Time of the next contact for six participants (Figure 6)",
        run: experiments::fig6::run,
    },
    Experiment {
        id: "fig7",
        title: "Distribution of contact duration (Figure 7)",
        run: experiments::fig7::run,
    },
    Experiment {
        id: "fig8",
        title: "Delivery function of one Hong-Kong pair (Figure 8)",
        run: experiments::fig8::run,
    },
    Experiment {
        id: "fig9",
        title: "CDF of optimal delay and 99%-diameter, three data sets (Figure 9)",
        run: experiments::fig9::run,
    },
    Experiment {
        id: "fig10",
        title: "Delay CDF under random contact removal (Figure 10)",
        run: experiments::fig10::run,
    },
    Experiment {
        id: "fig11",
        title: "Delay CDF when short contacts are removed (Figure 11)",
        run: experiments::fig11::run,
    },
    Experiment {
        id: "fig12",
        title: "Diameter as a function of delay (Figure 12)",
        run: experiments::fig12::run,
    },
    Experiment {
        id: "lemma1",
        title: "Expected constrained-path count growth exponent (Lemma 1)",
        run: experiments::lemma1::run,
    },
    Experiment {
        id: "ext1",
        title: "Extension: inter-contact gap laws vs delay/hops (paper sec. 3.4)",
        run: experiments::ext1::run,
    },
    Experiment {
        id: "ext2",
        title: "Extension: diurnal burstiness vs delay/hops (paper sec. 3.4)",
        run: experiments::ext2::run,
    },
    Experiment {
        id: "ext3",
        title: "Extension: social heterogeneity vs diameter (paper sec. 7)",
        run: experiments::ext3::run,
    },
    Experiment {
        id: "ext4",
        title: "Extension: local-information forwarding vs optimal paths (paper sec. 7)",
        run: experiments::ext4::run,
    },
    Experiment {
        id: "ext5",
        title: "Extension: inter-contact tail shape, power-law vs exponential (paper sec. 3.4)",
        run: experiments::ext5::run,
    },
    Experiment {
        id: "ext6",
        title: "Extension: TTL vs delivery/overhead with finite buffers (conclusion)",
        run: experiments::ext6::run,
    },
    Experiment {
        id: "xval",
        title: "Cross-validation: profiles vs flooding vs Dijkstra vs Zhang",
        run: experiments::xval::run,
    },
];

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_findable() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let len = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), len);
        assert!(find("fig9").is_some());
        assert!(find("nope").is_none());
    }
}
