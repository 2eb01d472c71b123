//! `serve_write`: a mutable trace-backed dataset under a writer and a
//! reader.
//!
//! Infocom05 over one day. The closed-loop writer sends deltas that each
//! remove 4 live contacts and append 4 in-window contacts, quoting its
//! current key epoch, and follows every delta with a read of the 64-source
//! working set. The closed-loop reader sends 32-query `delivery` requests
//! with Zipf(1.0) sources over the same working set.

use crate::gen::{
    delivery_line, delta_plan, request_lines, stratified_nodes, DeltaPlan, Rng, Universe, Zipf,
    PRESET_SEED,
};
use crate::report::{peak_rss_mb, reset_peak_rss, timed, HostSpeed, Outcome};
use crate::served::{self, closed_loop, query, Call, Served, Split, PRIMARY};
use crate::stats::{describe, median, tail};
use crate::{Config, SETUP_REPS};
use omnet_core::{ContactDelta, ProfileOptions};
use omnet_mobility::Dataset;
use omnet_serve::wire::{self, Client, Request, Response};
use omnet_serve::{DeltaApplied, Engine, Query, QueryResponse};
use omnet_temporal::{ContactKey, Trace, TraceOverlay};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATASET: &str = "infocom05";
const DAYS: f64 = 1.0;
/// Working-set sources.
const WORKING_SET: usize = 64;
/// Queries per reader request.
const READ: usize = 32;
/// Contacts each delta removes, and appends.
const DELTA_CONTACTS: usize = 4;
/// Distinct reader requests and delta plans; both loops cycle.
const POOL: usize = 512;
/// Every `KEEP`-th reader response and delta is kept for the checks.
const KEEP: usize = 4;
/// Output checks rebuild the trace after at most this many kept deltas.
const CHECKS: usize = 16;
/// The per-layer replay covers the run's first `REPLAY` deltas, so its
/// counts repeat exactly for a seed.
const REPLAY: usize = 16;
/// Probe destinations per working-set source for invalidation precision.
const PROBES: usize = 16;

/// One writer cycle: a delta, then the working-set read.
struct Cycle {
    remove: Vec<u32>,
    append: Vec<omnet_temporal::Contact>,
    key_epoch: u64,
    applied: DeltaApplied,
    /// Delta sent -> its acknowledgment, ms.
    ack_ms: f64,
    /// Delta sent -> the following read answered, ms.
    total_ms: f64,
    /// Seconds from the window start to the read's answer.
    end_s: f64,
    /// The read's response, for kept cycles.
    read: Option<Response>,
}

impl Cycle {
    fn request(&self) -> Request {
        Request::Delta {
            dataset: DATASET.into(),
            key_epoch: self.key_epoch,
            remove: self.remove.clone(),
            append: self.append.clone(),
        }
    }

    fn delta(&self) -> ContactDelta {
        ContactDelta {
            append: self.append.clone(),
            remove: wire::delta_keys(&self.remove),
        }
    }

    /// Seconds from the window start to the delta's acknowledgment.
    fn acked_s(&self) -> f64 {
        self.end_s - (self.total_ms - self.ack_ms) / 1e3
    }
}

fn writer(
    client: &mut Client,
    plans: &[DeltaPlan],
    ws_read: &Request,
    num_contacts: usize,
    start: Instant,
    window: Duration,
) -> (Vec<Cycle>, u64) {
    let mut cycles = Vec::new();
    let mut failed = 0;
    let (mut epoch, mut m) = (0u64, num_contacts);
    let mut i = 0usize;
    while start.elapsed() < window {
        let plan = &plans[i % plans.len()];
        let remove = plan.remove_keys(m);
        let req = Request::Delta {
            dataset: DATASET.into(),
            key_epoch: epoch,
            remove: remove.clone(),
            append: plan.append.clone(),
        };
        let t0 = Instant::now();
        let applied = match client.call(&req) {
            Ok(Response::Delta(Ok(applied))) => applied,
            other => {
                eprintln!("serve_write: delta {i} refused: {other:?}");
                failed += 1;
                i += 1;
                continue;
            }
        };
        let ack_ms = t0.elapsed().as_secs_f64() * 1e3;
        let read = client.call(ws_read);
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        match read {
            Ok(resp) if served::results(&resp).is_some() => cycles.push(Cycle {
                remove,
                append: plan.append.clone(),
                key_epoch: epoch,
                applied,
                ack_ms,
                total_ms,
                end_s: start.elapsed().as_secs_f64(),
                read: cycles.len().is_multiple_of(KEEP).then_some(resp),
            }),
            other => {
                eprintln!("serve_write: read after delta {i} failed: {other:?}");
                failed += 1;
            }
        }
        epoch = applied.key_epoch;
        m = applied.num_contacts;
        i += 1;
    }
    (cycles, failed)
}

/// Start the server over a fresh trace-backed engine, connect both
/// clients, and warm up: the working-set read fills the row memo.
fn setup(
    trace: &Arc<Trace>,
    ws_read: &Request,
    first: &Request,
) -> Result<(Served, Client, Client), String> {
    let served = Served::start(
        DATASET,
        Engine::from_trace(Arc::clone(trace), ProfileOptions::default(), DATASET),
    )?;
    let mut w = served.connect()?;
    let mut r = served.connect()?;
    for (client, req) in [(&mut w, ws_read), (&mut r, first)] {
        let resp = client.call(req).map_err(|e| format!("warm-up: {e}"))?;
        served::results(&resp).ok_or("warm-up request failed")?;
    }
    Ok((served, w, r))
}

/// The trace after each cycle, rebuilt from the start by replaying the
/// deltas through `TraceOverlay` exactly as sent.
fn replay_traces<'a>(
    trace: &Trace,
    cycles: &'a [Cycle],
) -> impl Iterator<Item = (&'a Cycle, Trace)> {
    let mut cur = trace.clone();
    cycles.iter().map(move |c| {
        let mut overlay = TraceOverlay::new(cur.clone());
        for &k in &c.remove {
            overlay.remove(ContactKey(k));
        }
        for &a in &c.append {
            overlay.append(a);
        }
        cur = overlay.materialize().0;
        (c, cur.clone())
    })
}

/// Rows the engine has memoized (a `stats` answer).
fn memo_rows(engine: &Engine) -> usize {
    match engine.answer(&Query::Stats) {
        Ok(QueryResponse::Stats(s)) => s.rows,
        _ => 0,
    }
}

/// What the shadow measured for one replayed delta.
struct Replayed {
    apply_ms: f64,
    invalidated: f64,
    recomputed: f64,
    compute_ms: f64,
    /// Working-set rows whose probe answers changed.
    changed: f64,
}

/// Per-layer replay of the first deltas on an in-process shadow of the
/// served engine, with the working-set read between them as on the wire.
fn shadow_replay(
    trace: &Arc<Trace>,
    cycles: &[Cycle],
    ws_read: &[Query],
    probes: &[Vec<Query>],
) -> Result<Vec<Replayed>, String> {
    let mut shadow = Engine::from_trace(Arc::clone(trace), ProfileOptions::default(), DATASET);
    shadow.answer_batch(ws_read);
    let answers = |e: &Engine| -> Vec<Vec<Result<QueryResponse, omnet_serve::QueryError>>> {
        probes.iter().map(|p| e.answer_batch(p)).collect()
    };
    let mut out = Vec::new();
    for c in cycles.iter().take(REPLAY) {
        let before = answers(&shadow);
        let (applied, apply_ms) = timed(|| shadow.apply_delta(&c.delta(), c.key_epoch));
        let applied = applied.map_err(|e| format!("shadow delta: {e}"))?;
        let rows = memo_rows(&shadow);
        let (_, compute_ms) = timed(|| shadow.answer_batch(ws_read));
        let recomputed = memo_rows(&shadow) - rows;
        let changed = before
            .iter()
            .zip(answers(&shadow))
            .filter(|(b, a)| *b != a)
            .count();
        out.push(Replayed {
            apply_ms,
            invalidated: applied.rows_invalidated as f64,
            recomputed: recomputed as f64,
            compute_ms,
            changed: changed as f64,
        });
    }
    Ok(out)
}

/// The reader's kept round trips, split on a shadow that follows the
/// server's timeline: before a read is replayed, the shadow applies every
/// delta acknowledged before the read was sent, and answers the working-set
/// read of every cycle that completed before it. A read that met a
/// post-delta recompute on the server meets it in the replay too, inside
/// `serve.engine_ms`. Recompute that the server shared between this read
/// and a working-set read still running, or an earlier read that was not
/// kept, is all given to this read.
fn reader_splits(
    trace: &Arc<Trace>,
    cycles: &[Cycle],
    ws_read: &[Query],
    reads: &[Call],
    pool: &[Request],
) -> Result<Vec<Split>, String> {
    let mut shadow = Engine::from_trace(Arc::clone(trace), ProfileOptions::default(), DATASET);
    shadow.answer_batch(ws_read);
    // Cycles applied to the shadow, and whether the last one's working-set
    // read has been answered.
    let (mut applied, mut ws_done) = (0usize, true);
    let mut splits = Vec::new();
    for c in reads {
        let Some(resp) = &c.response else {
            continue;
        };
        let sent_s = c.end_s - c.ms / 1e3;
        loop {
            if !ws_done && cycles[applied - 1].end_s <= sent_s {
                shadow.answer_batch(ws_read);
                ws_done = true;
            } else if ws_done && applied < cycles.len() && cycles[applied].acked_s() <= sent_s {
                let next = &cycles[applied];
                shadow
                    .apply_delta(&next.delta(), next.key_epoch)
                    .map_err(|e| format!("shadow delta: {e}"))?;
                applied += 1;
                ws_done = false;
            } else {
                break;
            }
        }
        splits.push(served::split(&shadow, &pool[c.index], resp, c.ms));
    }
    Ok(splits)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Inputs: the preset trace, the working set and its read, reader
    // requests, delta plans, and the invalidation probes.
    let trace = Arc::new(Dataset::Infocom05.generate_days(DAYS, PRESET_SEED));
    let u = Universe {
        num_nodes: trace.num_nodes(),
        window: trace.span(),
    };
    // The same devices for every seed, in seeded order, so the cost of
    // computing the working set does not move with the seed.
    let devices = stratified_nodes(
        &mut Rng::new(PRESET_SEED, 30),
        u.num_nodes,
        trace.num_internal(),
        WORKING_SET,
    );
    let mut rng = Rng::new(cfg.seed, 30);
    let ws: Vec<u32> = rng
        .permutation(WORKING_SET as u32)
        .into_iter()
        .map(|i| devices[i as usize])
        .collect();
    let zipf = Zipf::new(ws.clone(), 1.0);
    let ws_lines: Vec<String> = ws.iter().map(|&s| delivery_line(&mut rng, &u, s)).collect();
    let ws_read = query(DATASET, ws_lines);
    let reader: Vec<Request> = (0..POOL)
        .map(|_| query(DATASET, request_lines(&mut rng, &u, &zipf, READ, 0.0)))
        .collect();
    let plans: Vec<DeltaPlan> = (0..POOL)
        .map(|_| delta_plan(&mut rng, &u, DELTA_CONTACTS))
        .collect();
    let probes: Vec<Vec<Query>> = ws
        .iter()
        .map(|&s| {
            (0..PROBES)
                .map(|_| {
                    let line = delivery_line(&mut rng, &u, s);
                    Query::parse_line(&line)
                        .ok()
                        .flatten()
                        .expect("generated lines parse")
                })
                .collect()
        })
        .collect();
    eprintln!(
        "serve_write: {} nodes, {} contacts, seed {}",
        u.num_nodes,
        trace.num_contacts(),
        cfg.seed
    );
    let mut host = HostSpeed::new();
    reset_peak_rss();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<(Served, Client, Client)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((served, w, r)) = live.take() {
            drop((w, r));
            served.stop()?;
        }
        host.sample();
        let t = Instant::now();
        live = Some(setup(&trace, &ws_read, &reader[0])?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (served, mut w, mut r) = live.ok_or("no set-up")?;

    let start = Instant::now();
    let m = trace.num_contacts();
    let ((cycles, failed_w), (reads, failed_r)) = std::thread::scope(|s| {
        let tw = s.spawn(|| writer(&mut w, &plans, &ws_read, m, start, cfg.window));
        let tr = s.spawn(|| closed_loop(&mut r, &reader, start, cfg.window, KEEP));
        (
            tw.join().expect("writer panicked"),
            tr.join().expect("reader panicked"),
        )
    });
    let rss = peak_rss_mb();
    drop((w, r));
    served.stop()?;
    let delta: Vec<f64> = cycles.iter().map(|c| c.total_ms).collect();
    let reads_ms: Vec<f64> = reads.iter().map(|c| c.ms).collect();
    eprintln!("serve_write: delta cycles {}", describe(&delta));
    eprintln!("serve_write: reads {}", describe(&reads_ms));

    let mut out = Outcome {
        attempted: (cycles.len() + reads.len()) as u64 + failed_w + failed_r,
        failed: failed_w + failed_r,
        ..Outcome::default()
    };
    // Output check, after the window: the working-set reads after kept
    // deltas against a fresh engine over the replayed trace.
    let ws_queries = served::parse_lines(&ws_read);
    let mut checked = 0;
    for (c, replayed) in replay_traces(&trace, &cycles) {
        if replayed.num_contacts() != c.applied.num_contacts {
            out.failed += 1;
        }
        let Some(Response::Results(got)) = &c.read else {
            continue;
        };
        if checked < CHECKS {
            checked += 1;
            let fresh = Engine::from_trace(Arc::new(replayed), ProfileOptions::default(), DATASET);
            if *got != fresh.answer_batch(&ws_queries) {
                out.failed += 1;
            }
        }
    }
    out.correct = out.failed == 0 && checked > 0 && !reads.is_empty();

    if cfg.traced {
        let per_delta = shadow_replay(&trace, &cycles, &ws_queries, &probes)?;
        let col = |f: fn(&Replayed) -> f64| per_delta.iter().map(f).collect::<Vec<_>>();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let apply = median(&col(|r| r.apply_ms)).unwrap_or(0.0);
        let compute = median(&col(|r| r.compute_ms)).unwrap_or(0.0);
        let invalidated = col(|r| r.invalidated);
        let wire: Vec<f64> = cycles
            .iter()
            .take(REPLAY)
            .map(|c| c.applied.rows_invalidated as f64)
            .collect();
        if wire != invalidated {
            eprintln!(
                "serve_write: the shadow invalidated {invalidated:?} rows, the server {wire:?}"
            );
        }
        out.set("serve.apply_delta_ms", apply);
        out.set("serve.rows_invalidated", mean(&wire));
        out.set("core.rows_recomputed", mean(&col(|r| r.recomputed)));
        out.set("core.row_compute_ms", compute);
        let total: f64 = invalidated.iter().sum();
        let changed: f64 = col(|r| r.changed).iter().sum();
        out.set(
            "serve.invalidation_precision",
            if total > 0.0 { changed / total } else { 0.0 },
        );
        // The delta cycle's gap: everything but apply, recompute and the
        // codecs of its two requests.
        let shadow = Engine::from_trace(Arc::clone(&trace), ProfileOptions::default(), DATASET);
        shadow.answer_batch(&ws_queries);
        let gaps: Vec<f64> = cycles
            .iter()
            .filter_map(|c| c.read.as_ref().map(|read| (c, read)))
            .map(|(c, read)| {
                let d = served::split(&shadow, &c.request(), &Response::Delta(Ok(c.applied)), 0.0);
                let q = served::split(&shadow, &ws_read, read, 0.0);
                let codec_ms =
                    (d.encode_us + d.decode_us + q.encode_us + q.decode_us + q.parse_us) / 1e3;
                c.total_ms - apply - compute - codec_ms
            })
            .collect();
        out.set("server.delta_unattributed_ms", median(&gaps).unwrap_or(0.0));
        let splits = reader_splits(&trace, &cycles, &ws_queries, &reads, &reader)?;
        served::set_split(&mut out, &PRIMARY, &splits);
        let share: Vec<f64> = splits
            .iter()
            .map(|s| s.unattributed_ms() / s.roundtrip_ms)
            .collect();
        out.set("server.unattributed_share", median(&share).unwrap_or(0.0));
        out.set("host.loop_ms", host.loop_ms());
        return Ok(out);
    }

    let ack: Vec<f64> = cycles.iter().map(|c| c.ack_ms).collect();
    out.set("setup_s", median(&setup_s).unwrap_or(0.0) * host.scale());
    out.set("peak_rss_mb", rss.unwrap_or(0.0));
    out.set("ok_ratio", out.ok_ratio());
    // Queries answered: the reader's, plus the working-set read of every
    // writer cycle.
    let queries = reads.iter().map(|c| c.queries).sum::<usize>() + cycles.len() * WORKING_SET;
    let end = reads
        .iter()
        .map(|c| c.end_s)
        .chain(cycles.iter().map(|c| c.end_s))
        .fold(0.0, f64::max);
    out.set("throughput_per_s", queries as f64 / end.max(1e-9));
    out.set("op_p50_ms", median(&delta).unwrap_or(0.0));
    out.set("op_tail_ms", tail(&delta, 90.0));
    out.set("op2_p50_ms", median(&reads_ms).unwrap_or(0.0));
    out.set("op3_p50_ms", median(&ack).unwrap_or(0.0));
    Ok(out)
}
