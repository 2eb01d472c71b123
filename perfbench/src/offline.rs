//! `offline`: the paper's own computation, one closed-loop caller.
//!
//! Infocom05 over a 12 h window. The caller alternates two ops:
//! - pipeline: trace file -> precompute into 8 shards in a fresh directory
//!   -> cold `map_set` -> first `delivery` answer -> `diameter` over the
//!   shards;
//! - fused: `omnet diameter`, i.e. `io::load` + `Engine::from_trace` +
//!   `answer(Diameter)`.

use crate::gen::{Rng, PRESET_SEED};
use crate::report::{counter, ms_since, peak_rss_mb, reset_peak_rss, timed, HostSpeed, Outcome};
use crate::stats::{describe, median};
use crate::{Config, SETUP_REPS};
use omnet_artifact::{map_set, write_set, ArtifactMeta};
use omnet_core::{AllPairsProfiles, CurveOptions, ProfileOptions, SourceProfiles, SuccessCurves};
use omnet_mobility::Dataset;
use omnet_serve::{Engine, Query, QueryResponse};
use omnet_temporal::{io, Dur, Interval};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Length of the trace window in days (12 h).
const DAYS: f64 = 0.5;
/// Shards the pipeline precomputes into.
const SHARDS: u32 = 8;
/// `omnet diameter`'s defaults: ε = 0.01, hop classes 1..=10, all pairs.
const DIAMETER: Query = Query::Diameter {
    eps: 0.01,
    max_hops: 10,
    internal_only: false,
};

struct Inputs {
    file: PathBuf,
    delivery: Query,
    opts: ProfileOptions,
}

#[derive(Debug, Clone, PartialEq)]
struct Answers {
    delivery: QueryResponse,
    diameter: QueryResponse,
}

/// Stage times of one pipeline op, in ms.
#[derive(Debug, Default, Clone, Copy)]
struct Pipeline {
    parse: f64,
    induction: f64,
    write: f64,
    map: f64,
    first_row: f64,
    diameter: f64,
    total: f64,
}

/// Stage times of one fused op, in ms.
#[derive(Debug, Default, Clone, Copy)]
struct Fused {
    parse: f64,
    csr: f64,
    diameter: f64,
    total: f64,
}

fn pipeline(inp: &Inputs, dir: &Path) -> Result<(Pipeline, Answers), String> {
    let mut p = Pipeline::default();
    let t0 = Instant::now();
    let (trace, ms) = timed(|| io::load(&inp.file));
    p.parse = ms;
    let trace = trace.map_err(|e| format!("load: {e}"))?;
    let (rows, ms) = timed(|| AllPairsProfiles::compute(&trace, inp.opts).into_rows());
    p.induction = ms;
    let meta = ArtifactMeta {
        dataset_key: "offline".into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: inp.opts,
    };
    let (written, ms) = timed(|| write_set(dir, "profiles", &meta, &rows, SHARDS));
    p.write = ms;
    written.map_err(|e| format!("write_set: {e}"))?;
    drop(rows);
    let (engine, ms) = timed(|| Engine::load_dir(dir));
    p.map = ms;
    let engine = engine.map_err(|e| format!("map_set: {e}"))?;
    let (delivery, ms) = timed(|| engine.answer(&inp.delivery));
    p.first_row = ms;
    let (diameter, ms) = timed(|| engine.answer(&DIAMETER));
    p.diameter = ms;
    p.total = ms_since(t0);
    Ok((
        p,
        Answers {
            delivery: delivery.map_err(|e| format!("first answer: {e}"))?,
            diameter: diameter.map_err(|e| format!("diameter over shards: {e}"))?,
        },
    ))
}

fn fused(inp: &Inputs) -> Result<(Fused, QueryResponse), String> {
    let mut f = Fused::default();
    let t0 = Instant::now();
    let (trace, ms) = timed(|| io::load(&inp.file));
    f.parse = ms;
    let trace = trace.map_err(|e| format!("load: {e}"))?;
    let (engine, ms) = timed(|| Engine::from_trace(Arc::new(trace), inp.opts, "offline"));
    f.csr = ms;
    let (diameter, ms) = timed(|| engine.answer(&DIAMETER));
    f.diameter = ms;
    f.total = ms_since(t0);
    Ok((f, diameter.map_err(|e| format!("fused diameter: {e}"))?))
}

/// Reference answers from the in-memory trace, then one warm-up pipeline.
fn setup(inp: &Inputs, dir: &Path) -> Result<Answers, String> {
    let trace = io::load(&inp.file).map_err(|e| format!("load: {e}"))?;
    let engine = Engine::from_trace(Arc::new(trace), inp.opts, "offline");
    let reference = Answers {
        delivery: engine
            .answer(&inp.delivery)
            .map_err(|e| format!("reference: {e}"))?,
        diameter: engine
            .answer(&DIAMETER)
            .map_err(|e| format!("reference: {e}"))?,
    };
    let (_, warm) = pipeline(inp, dir)?;
    let _ = std::fs::remove_dir_all(dir);
    if warm != reference {
        return Err("warm-up pipeline disagrees with the in-memory reference".into());
    }
    Ok(reference)
}

/// The traced split of the diameter over shards: on a freshly mapped set
/// in the state the first answer left it, decode every row, then aggregate
/// the curves from the decoded rows.
/// Returns `(decode_all_ms, curves_ms, diameter)`.
fn diameter_split(dir: &Path, window: Interval) -> Result<(f64, f64, Option<usize>), String> {
    let set = map_set(dir).map_err(|e| format!("map_set: {e}"))?;
    // The first answer already decoded node 0's shard; so does this replay.
    set.row(0).map_err(|e| format!("row 0: {e}"))?;
    let n = set.num_rows() as u32;
    let (rows, decode_ms) = timed(|| {
        (0..n)
            .map(|s| match set.row(s) {
                Ok(Some(r)) => Ok(r),
                Ok(None) => Err(format!("row {s} missing")),
                Err(e) => Err(format!("row {s}: {e}")),
            })
            .collect::<Result<Vec<&SourceProfiles>, String>>()
    });
    let rows = rows?;
    // The grid the engine evaluates a diameter query on.
    let horizon = window.duration().as_secs().max(240.0);
    let grid = omnet_analysis::log_grid(120.0_f64.min(horizon / 2.0), horizon, 16)
        .into_iter()
        .map(Dur::secs)
        .collect();
    let mut opts = CurveOptions::standard(10, grid);
    opts.internal_pairs_only = false;
    let num_internal = set.shards()[0].meta().num_internal;
    let (curves, curves_ms) =
        timed(|| SuccessCurves::from_profiles(&rows, &opts, &[window], num_internal));
    Ok((decode_ms, curves_ms, curves.diameter(0.01)))
}

/// `op_p50_ms` (host-scaled) of an `offline` run of the same seed at one executor
/// participant, in a child process (`--threads 1`, which sets
/// `OMNET_THREADS=1` before the executor starts).
fn one_thread_p50(cfg: &Config) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let secs = (cfg.window.as_secs_f64() / 2.0).max(1.0);
    let out = Command::new(exe)
        .args(["--workload", "offline", "--seed", &cfg.seed.to_string()])
        .args([
            "--seconds",
            &secs.to_string(),
            "--trace",
            "0",
            "--threads",
            "1",
        ])
        .output()
        .map_err(|e| format!("one-thread pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!("one-thread pass failed: {line}"));
    }
    let key = "\"op_p50_ms\": {\"value\": ";
    let at = line
        .find(key)
        .ok_or("one-thread pass printed no op_p50_ms")?
        + key.len();
    let num: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || ".eE+-".contains(*c))
        .collect();
    num.parse()
        .map_err(|e| format!("one-thread op_p50_ms: {e}"))
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Inputs: the preset trace on disk and one delivery query.
    let trace = Dataset::Infocom05.generate_days(DAYS, PRESET_SEED);
    let file = cfg.work.join("infocom05.trace");
    io::save(&trace, &file).map_err(|e| format!("save trace: {e}"))?;
    // The first answer always reads node 0's row, so the cold read decodes
    // the same shard whatever the seed; the destination and time are drawn
    // from the seed.
    let mut rng = Rng::new(cfg.seed, 10);
    let n = trace.num_nodes();
    let src = 0;
    let dst = 1 + rng.below(u64::from(n) - 1) as u32;
    let span = trace.span();
    let at = span.start.as_secs() + (rng.unit() * span.duration().as_secs()).floor();
    let inp = Inputs {
        file,
        delivery: Query::parse_line(&format!("delivery {src} {dst} {at}"))
            .map_err(|e| format!("delivery query: {e}"))?
            .ok_or("empty delivery query")?,
        opts: ProfileOptions::default(),
    };
    eprintln!(
        "offline: {n} nodes, {} contacts, window {:.0} s, seed {}",
        trace.num_contacts(),
        span.duration().as_secs(),
        cfg.seed
    );
    drop(trace);
    let mut host = HostSpeed::new();
    reset_peak_rss();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        host.sample();
        let t = Instant::now();
        let answers = setup(&inp, &cfg.work.join("warm"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if reference.get_or_insert_with(|| answers.clone()) != &answers {
            return Err("set-up reference changed between repetitions".into());
        }
    }
    let setup_scale = host.end_phase();
    let reference = reference.ok_or("no set-up")?;
    let QueryResponse::Diameter(ref_diameter) = &reference.diameter else {
        return Err("reference diameter has the wrong shape".into());
    };

    let mut out = Outcome::default();
    let mut pipes: Vec<(bool, Pipeline)> = Vec::new();
    let mut fuses: Vec<(bool, Fused)> = Vec::new();
    let mut last_pipeline_end = 0.0f64;
    // Traced-half extras.
    let mut splits: Vec<(f64, f64)> = Vec::new();
    let mut counts: Vec<[f64; 8]> = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < cfg.window {
        let traced = cfg.tracing_at(start);
        out.attempted += 1;
        host.sample();
        if i.is_multiple_of(2) {
            let dir = cfg.work.join(format!("op{i}"));
            let obs0 = traced.then(omnet_obs::counters);
            let ex0 = omnet_analysis::executor::stats();
            let result = pipeline(&inp, &dir);
            let ex1 = omnet_analysis::executor::stats();
            let obs1 = traced.then(omnet_obs::counters);
            match result {
                Ok((p, answers)) if answers == reference => {
                    pipes.push((traced, p));
                    last_pipeline_end = start.elapsed().as_secs_f64();
                    if let (Some(a), Some(b)) = (obs0, obs1) {
                        let d = |name| (counter(&b, name) - counter(&a, name)) as f64;
                        counts.push([
                            d("engine.sources"),
                            d("engine.levels"),
                            d("engine.frontier_touched"),
                            d("engine.arcs_time_pruned"),
                            d("artifact.bytes_written"),
                            (ex1.items - ex0.items) as f64,
                            (ex1.steals - ex0.steals) as f64,
                            (ex1.parks - ex0.parks) as f64,
                        ]);
                        let (decode, curves, d) = diameter_split(&dir, span)?;
                        if d != ref_diameter.diameter {
                            out.failed += 1;
                        }
                        splits.push((decode, curves));
                    }
                }
                Ok(_) => out.failed += 1,
                Err(e) => {
                    eprintln!("offline: pipeline op failed: {e}");
                    out.failed += 1;
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            match fused(&inp) {
                Ok((f, d)) if d == reference.diameter => fuses.push((traced, f)),
                Ok(_) => out.failed += 1,
                Err(e) => {
                    eprintln!("offline: fused op failed: {e}");
                    out.failed += 1;
                }
            }
        }
        i += 1;
    }
    out.correct = out.failed == 0 && !pipes.is_empty() && !fuses.is_empty();
    let rss = peak_rss_mb();
    let scale = host.scale();
    eprintln!(
        "offline: {} fused ops; pipeline {} (unscaled); host loop p50 {:.3} ms, scale {scale:.4}",
        fuses.len(),
        describe(&pipes.iter().map(|(_, p)| p.total).collect::<Vec<_>>()),
        host.loop_ms()
    );

    let pick = |traced: bool| -> (Vec<Pipeline>, Vec<Fused>) {
        (
            pipes
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, p)| *p)
                .collect(),
            fuses
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, f)| *f)
                .collect(),
        )
    };
    if !cfg.traced {
        let (p, f) = pick(false);
        let totals: Vec<f64> = p.iter().map(|p| p.total).collect();
        let fused_totals: Vec<f64> = f.iter().map(|f| f.total).collect();
        let first: Vec<f64> = p.iter().map(|p| p.map + p.first_row).collect();
        out.set("setup_s", med(&setup_s) * setup_scale);
        out.set("peak_rss_mb", rss.unwrap_or(0.0));
        out.set("ok_ratio", out.ok_ratio());
        out.set(
            "throughput_per_s",
            p.len() as f64 / last_pipeline_end.max(1e-9) / scale,
        );
        out.set("op_p50_ms", med(&totals) * scale);
        // About 40 pipeline ops a run: the tail rule allows no percentile
        // above the median.
        out.set("op_tail_ms", med(&totals) * scale);
        out.set("op2_p50_ms", med(&fused_totals) * scale);
        out.set("op3_p50_ms", med(&first) * scale);
        return Ok(out);
    }

    let (cold_p, _) = pick(false);
    let (p, f) = pick(true);
    let col = |g: &dyn Fn(&Pipeline) -> f64| med(&p.iter().map(g).collect::<Vec<_>>());
    let fcol = |g: &dyn Fn(&Fused) -> f64| med(&f.iter().map(g).collect::<Vec<_>>());
    let parse: Vec<f64> = p
        .iter()
        .map(|p| p.parse)
        .chain(f.iter().map(|f| f.parse))
        .collect();
    out.set("temporal.parse_ms", med(&parse));
    out.set("temporal.csr_ms", fcol(&|f| f.csr));
    out.set("core.induction_ms", col(&|p| p.induction));
    out.set("core.fused_diameter_ms", fcol(&|f| f.diameter));
    out.set("artifact.write_ms", col(&|p| p.write));
    out.set("artifact.map_ms", col(&|p| p.map));
    out.set("artifact.first_row_ms", col(&|p| p.first_row));
    out.set("serve.shards_diameter_ms", col(&|p| p.diameter));
    out.set(
        "artifact.decode_all_ms",
        med(&splits.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    out.set(
        "core.curves_ms",
        med(&splits.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    let gaps: Vec<f64> = p
        .iter()
        .zip(&splits)
        .map(|(p, (decode, curves))| p.diameter - decode - curves)
        .collect();
    out.set("offline.diameter_unattributed_ms", med(&gaps));
    out.set(
        "offline.pipeline_unattributed_ms",
        col(&|p| p.total - (p.parse + p.induction + p.write + p.map + p.first_row + p.diameter)),
    );
    out.set(
        "offline.fused_unattributed_ms",
        fcol(&|f| f.total - (f.parse + f.csr + f.diameter)),
    );
    let names = [
        "engine.sources",
        "engine.levels",
        "engine.frontier_touched",
        "engine.arcs_time_pruned",
        "artifact.bytes_written",
        "executor.items",
        "executor.steals",
        "executor.parks",
    ];
    for (k, name) in names.into_iter().enumerate() {
        out.set(name, med(&counts.iter().map(|c| c[k]).collect::<Vec<_>>()));
    }
    let untraced_p50 = med(&cold_p.iter().map(|p| p.total).collect::<Vec<_>>());
    let traced_p50 = col(&|p| p.total);
    out.set(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
    );
    out.set(
        "executor.speedup_2v1",
        one_thread_p50(cfg)? / (untraced_p50 * scale),
    );
    out.set("host.loop_ms", host.loop_ms());
    Ok(out)
}
