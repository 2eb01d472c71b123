//! Serve-throughput gate for the PR10 network service.
//!
//! Measures the end-to-end cost of answering a mixed query batch over
//! the wire protocol versus answering it in-process, on the generated
//! `infocom05` quarter-day preset:
//!
//! * **in-process** — the pre-PR10 path: `Query::parse_line` over the
//!   batch text plus `Engine::answer_batch` on the work-stealing
//!   executor (exactly the work the server performs per request, minus
//!   the wire).
//! * **loopback** — a `Server` bound to an ephemeral 127.0.0.1 port,
//!   one `Client` issuing the same batch as a single framed request:
//!   JSON encode/decode on both sides, length-prefixed framing, TCP
//!   syscalls, and the engine registry's read lock.
//!
//! Both arms run against identically-constructed trace-backed engines
//! and are warmed once before timing, so memoized profile rows exist on
//! both sides and the measurement isolates serving overhead rather than
//! first-touch row materialization. Exactness is asserted inline: the
//! typed results decoded off the wire must equal the in-process batch
//! slot-for-slot.
//!
//! Gate: loopback throughput must be ≥ 0.5× in-process throughput
//! (i.e. serving at most doubles the cost of a batch).
//!
//! Writes `BENCH_pr10.json` at the repository root. Run with:
//!
//! ```sh
//! cargo bench -p omnet-bench --bench serve
//! ```

use omnet_bench::gate::{json_u64, peak_rss_bytes, reset_peak_rss, time_best_ms};
use omnet_core::ProfileOptions;
use omnet_mobility::Dataset;
use omnet_serve::wire::{Client, Request, Response};
use omnet_serve::{Engine, Query, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Required loopback/in-process throughput ratio (the PR10 acceptance
/// floor): serving a batch may at most double its in-process cost.
const RATIO_FLOOR: f64 = 0.5;

/// Queries per batch request.
const BATCH: usize = 4096;

fn main() {
    let reps = 5;
    let threads = omnet_analysis::executor::global().threads();
    let opts = ProfileOptions::default();

    println!("\nserve gate: infocom05 quarter-day, {BATCH}-query batch, loopback vs in-process");
    let trace = Arc::new(Dataset::Infocom05.generate_days(0.25, 7));
    let n = trace.num_nodes();
    let m = trace.num_contacts();
    let window_secs = 0.25 * 86_400.0;
    println!("  {n} nodes, {m} contacts");

    // One fixed batch of delivery/path lines over random pairs and start
    // times, shared verbatim by both arms (the loopback arm ships these
    // exact strings; the server re-parses them with `Query::parse_line`).
    let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    let mut lines = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        let s = rng.gen_range(0..n);
        let mut d = rng.gen_range(0..n);
        if d == s {
            d = (d + 1) % n;
        }
        let t = rng.gen_range(0.0f64..window_secs).round();
        if i % 2 == 0 {
            lines.push(format!("delivery {s} {d} {t} 4"));
        } else {
            lines.push(format!("path {s} {d} {t}"));
        }
    }

    // --- in-process arm: parse + answer_batch -----------------------------
    let engine = Engine::from_trace(trace.clone(), opts, "bench");
    let queries: Vec<Query> = lines
        .iter()
        .filter_map(|l| Query::parse_line(l).unwrap())
        .collect();
    let reference = engine.answer_batch(&queries); // warms the memo
    reset_peak_rss();
    let in_ms = time_best_ms(reps, || {
        let qs: Vec<Query> = lines
            .iter()
            .filter_map(|l| Query::parse_line(l).unwrap())
            .collect();
        std::hint::black_box(engine.answer_batch(&qs))
    });
    let rss_in = peak_rss_bytes();

    // --- loopback arm: the same batch as one framed request ---------------
    let server = Server::bind(
        "127.0.0.1:0",
        vec![(
            "bench".to_string(),
            Engine::from_trace(trace.clone(), opts, "bench"),
        )],
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&addr).unwrap();
    let req = Request::Query {
        dataset: "bench".to_string(),
        lines: lines.clone(),
    };

    // warm the served engine's memo and verify exactness off the wire
    let Response::Results(first) = client.call(&req).unwrap() else {
        panic!("expected results");
    };
    assert_eq!(first.len(), reference.len());
    for (i, (got, want)) in first.iter().zip(&reference).enumerate() {
        assert!(got == want, "slot {i} diverged over the wire");
    }

    reset_peak_rss();
    let loop_ms = time_best_ms(reps, || {
        let Response::Results(results) = client.call(&req).unwrap() else {
            panic!("expected results");
        };
        results
    });
    let rss_loop = peak_rss_bytes();

    handle.shutdown();
    let report = running.join().unwrap();
    assert_eq!(report.requests, 1 + reps as u64);

    let ratio = in_ms / loop_ms;
    let qps_in = BATCH as f64 / (in_ms / 1e3);
    let qps_loop = BATCH as f64 / (loop_ms / 1e3);
    println!(
        "  in-process {in_ms:>8.2} ms ({qps_in:>9.0} q/s)   loopback {loop_ms:>8.2} ms \
         ({qps_loop:>9.0} q/s)   ratio {ratio:.2}x (floor {RATIO_FLOOR}x)"
    );
    println!(
        "  peak rss: in-process {} loopback {}",
        json_u64(rss_in),
        json_u64(rss_loop)
    );

    let json = format!(
        "{{\n  \"pr\": 10,\n  \"bench\": \"serve\",\n  \
         \"metric\": \"{BATCH}-query delivery/path batch on infocom05 quarter-day (best of \
         {reps}, both arms warmed): Query::parse_line + Engine::answer_batch in-process vs the \
         same lines as one framed wire request through Server/Client over 127.0.0.1; results \
         asserted slot-for-slot identical; peak RSS sampled per arm after a high-water-mark \
         reset\",\n  \
         \"threads\": {threads},\n  \"ratio_floor\": {RATIO_FLOOR},\n  \
         \"nodes\": {n},\n  \"contacts\": {m},\n  \"batch\": {BATCH},\n  \
         \"in_process_ms\": {in_ms:.3},\n  \"loopback_ms\": {loop_ms:.3},\n  \
         \"ratio\": {ratio:.3},\n  \
         \"qps_in_process\": {qps_in:.0},\n  \"qps_loopback\": {qps_loop:.0},\n  \
         \"peak_rss_bytes_in_process\": {},\n  \"peak_rss_bytes_loopback\": {}\n}}\n",
        json_u64(rss_in),
        json_u64(rss_loop),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    assert!(
        ratio >= RATIO_FLOOR,
        "serve gate failed: {ratio:.3}x < {RATIO_FLOOR}x"
    );
    println!("serve gate passed");
}
