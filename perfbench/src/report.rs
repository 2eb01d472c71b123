//! The metric catalogue, the result line, and process-level probes.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: every workload reports every one, timers off.
/// `op`, `op2` and `op3` are the workload's three timed operations, and
/// `op_tail_ms` is `op` at the highest percentile the tail rule allows for
/// the workload's sample count; the README maps them per workload. Times
/// of CPU-bound work are scaled by [`HostSpeed`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("op2_p50_ms", "ms"),
    ("op3_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run. A workload that never enters a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // offline: trace file -> shards -> first answer -> diameter
    ("temporal.parse_ms", "ms"),
    ("temporal.csr_ms", "ms"),
    ("core.induction_ms", "ms"),
    ("core.fused_diameter_ms", "ms"),
    ("artifact.write_ms", "ms"),
    ("artifact.bytes_written", "bytes"),
    ("artifact.map_ms", "ms"),
    ("artifact.first_row_ms", "ms"),
    ("serve.shards_diameter_ms", "ms"),
    ("artifact.decode_all_ms", "ms"),
    ("core.curves_ms", "ms"),
    ("offline.diameter_unattributed_ms", "ms"),
    ("offline.pipeline_unattributed_ms", "ms"),
    ("offline.fused_unattributed_ms", "ms"),
    ("engine.sources", "count"),
    ("engine.levels", "count"),
    ("engine.frontier_touched", "count"),
    ("engine.arcs_time_pruned", "count"),
    ("executor.items", "count"),
    ("executor.steals", "count"),
    ("executor.parks", "count"),
    ("executor.speedup_2v1", "x"),
    // serve: the primary request's round trip, split from the outside
    ("server.roundtrip_ms", "ms"),
    ("server.unattributed_ms", "ms"),
    ("server.unattributed_share", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.engine_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.req_bytes", "bytes"),
    ("wire.resp_bytes", "bytes"),
    // serve_read: the bulk request, same split
    ("bulk.roundtrip_ms", "ms"),
    ("bulk.unattributed_ms", "ms"),
    ("bulk.parse_us", "us"),
    ("bulk.engine_ms", "ms"),
    ("bulk.encode_us", "us"),
    ("bulk.decode_us", "us"),
    ("bulk.req_bytes", "bytes"),
    ("bulk.resp_bytes", "bytes"),
    // serve_write: delta -> consistent read
    ("serve.apply_delta_ms", "ms"),
    ("serve.rows_invalidated", "count"),
    ("core.rows_recomputed", "count"),
    ("core.row_compute_ms", "ms"),
    ("serve.invalidation_precision", "ratio"),
    ("server.delta_unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.loop_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that returned a typed error, were refused, or failed a check.
    pub failed: u64,
    /// Every output check passed (checks outside the window included).
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.metrics.insert(name, value);
    }

    /// Share of attempted ops that succeeded and passed their checks.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with the catalogue selected by
    /// `traced`. A metric the workload did not set is an error for the
    /// end-to-end catalogue and 0 for the per-layer one.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            // `{:?}` prints the shortest representation that reads back
            // to the same f64 (`0.0`, `1.25`, `1e20`), all valid JSON.
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Peak resident set of this process in MiB (`VmHWM`), if procfs has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets the peak-RSS high-water mark to current usage, so a later
/// [`peak_rss_mb`] reflects only what the measured workload touched.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The host's speed during a run, from a fixed loop that calls nothing in
/// the program.
///
/// On the 2-vCPU host the bounds were set on, CPU speed swings by up to
/// ±25% within seconds and drifts 15–20% between runs minutes apart, with
/// almost no steal time reported: a busy neighbour, not this program. The
/// same `offline` op on one seed took 222–331 ms across seven runs. The
/// median time of this loop in a run follows the median op time of the run
/// closely (correlation 0.84–0.97 over runs), so a run samples the loop
/// before each CPU-bound op and reports that op's times scaled by
/// [`HostSpeed::scale`], in milliseconds of a host running the loop in
/// [`HostSpeed::REFERENCE_MS`].
#[derive(Debug)]
pub struct HostSpeed {
    /// 1 MiB of state, allocated once so sampling allocates nothing.
    buf: Vec<u64>,
    /// Loop times in ms.
    samples: Vec<f64>,
}

impl HostSpeed {
    /// The loop's median time on the host the bounds were set on.
    pub const REFERENCE_MS: f64 = 4.8;
    const ITERATIONS: usize = 2_000_000;

    pub fn new() -> HostSpeed {
        HostSpeed {
            buf: vec![0; 1 << 17],
            samples: Vec::new(),
        }
    }

    /// Times the loop once: xorshift-indexed updates of the buffer.
    pub fn sample(&mut self) {
        let mask = self.buf.len() - 1;
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..Self::ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        std::hint::black_box(&self.buf);
        self.samples.push(ms_since(t));
    }

    /// The loop's median time in this run, ms.
    pub fn loop_ms(&self) -> f64 {
        crate::stats::median(&self.samples).unwrap_or(Self::REFERENCE_MS)
    }

    /// Factor from this run's milliseconds to reference milliseconds.
    pub fn scale(&self) -> f64 {
        Self::REFERENCE_MS / self.loop_ms()
    }

    /// [`scale`](Self::scale) of the samples so far, which are then
    /// dropped: set-up runs in a few seconds of its own, whose host speed
    /// can differ from the window's.
    pub fn end_phase(&mut self) -> f64 {
        let scale = self.scale();
        self.samples.clear();
        scale
    }
}

/// The value of one counter in an `omnet_obs::counters()` snapshot.
pub fn counter(snapshot: &[(&'static str, u64)], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_every_metric_of_the_catalogue() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
            ..Outcome::default()
        };
        assert!(o.json(false).is_err(), "unmeasured end-to-end metrics");
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let line = o.json(false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let traced = o.json(true).expect("layers default to 0");
        assert!(traced.contains("\"trace.overhead_pct\": {\"value\": 0.0, \"unit\": \"%\"}"));
    }
}
