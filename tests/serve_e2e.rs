//! End-to-end through every layer: a generated conference trace is
//! precomputed into sharded artifacts, mapped back into an engine, served
//! over loopback TCP, and queried with the wire client. Remote answers must
//! equal the in-process answers slot for slot, and a wire delta against a
//! trace-backed dataset must give the answers of a fresh engine over the
//! same edit replayed through `TraceOverlay`.

use omnet_serve::wire::{Client, Request, Response};
use omnet_serve::{Engine, Query, QueryError, QueryResponse, Server};
use opportunistic_diameter::prelude::*;
use opportunistic_diameter::temporal::{transform, ContactKey, TraceOverlay};
use std::path::PathBuf;
use std::sync::Arc;

fn conference_slice() -> Trace {
    transform::internal_only(&Dataset::Infocom05.generate_days(0.1, 23))
}

fn shard_dir() -> PathBuf {
    std::env::temp_dir().join(format!("omnet-serve-e2e-{}", std::process::id()))
}

/// A mixed `delivery`/`path`/`diameter` batch over the first few nodes,
/// with a comment and a blank line that must keep no result slot.
fn batch_lines(trace: &Trace) -> Vec<String> {
    let start = trace.span().start.as_secs();
    let mut lines = vec!["# mixed batch".to_string(), String::new()];
    for s in 0..4 {
        for d in 0..4 {
            if s != d {
                lines.push(format!("delivery {s} {d} {start}"));
                lines.push(format!("delivery {s} {d} {} 2", start + 600.0));
                lines.push(format!("path {s} {d} {start}"));
            }
        }
    }
    lines.push("diameter 0.05 6".to_string());
    lines.push("diameter 0.05 6 internal".to_string());
    lines
}

fn parse_all(lines: &[String]) -> Vec<Query> {
    lines
        .iter()
        .filter_map(|l| Query::parse_line(l).unwrap())
        .collect()
}

fn query(
    client: &mut Client,
    dataset: &str,
    lines: &[String],
) -> Vec<Result<QueryResponse, QueryError>> {
    match client
        .call(&Request::Query {
            dataset: dataset.to_string(),
            lines: lines.to_vec(),
        })
        .unwrap()
    {
        Response::Results(results) => results,
        other => panic!("expected results, got {other:?}"),
    }
}

#[test]
fn served_artifacts_and_wire_deltas_match_in_process_engines() {
    let trace = conference_slice();
    let opts = ProfileOptions::default();

    // trace -> sharded artifacts on disk
    let meta = omnet_artifact::ArtifactMeta {
        dataset_key: "infocom05".into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    let rows = AllPairsProfiles::compute(&trace, opts).into_rows();
    let dir = shard_dir();
    omnet_artifact::write_set(&dir, "infocom05", &meta, &rows, 3).unwrap();
    let mapped = omnet_artifact::map_set(&dir).unwrap();
    assert_eq!(mapped.shards().len(), 3);
    assert_eq!(mapped.num_rows(), trace.num_nodes() as usize);

    // in-process reference over the same shards
    let lines = batch_lines(&trace);
    let queries = parse_all(&lines);
    let shared = Arc::new(trace.clone());
    let reference = Engine::load_dir(&dir)
        .unwrap()
        .with_trace(Arc::clone(&shared))
        .unwrap()
        .answer_batch(&queries);
    let reachable = reference
        .iter()
        .filter(|r| matches!(r, Ok(QueryResponse::Delivery(a)) if a.reachable))
        .count();
    assert!(reachable > 0, "the batch must exercise reachable pairs");
    assert!(
        reference
            .iter()
            .any(|r| matches!(r, Ok(QueryResponse::Diameter(_)))),
        "the batch must answer a diameter"
    );

    // shards and a trace-backed twin behind one server on an ephemeral port
    let served = Engine::load_dir(&dir)
        .unwrap()
        .with_trace(Arc::clone(&shared))
        .unwrap();
    let live = Engine::from_trace(Arc::clone(&shared), opts, "infocom05");
    let server = Server::bind(
        "127.0.0.1:0",
        vec![("art".to_string(), served), ("live".to_string(), live)],
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&addr).unwrap();

    for dataset in ["art", "live"] {
        let remote = query(&mut client, dataset, &lines);
        assert_eq!(remote.len(), reference.len(), "comment lines keep no slot");
        for (i, (got, want)) in remote.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "slot {i} diverged on dataset {dataset}");
        }
    }

    // one wire delta against the trace-backed dataset: drop node 0's first
    // two contacts and add a fresh 0-1 contact at the window start
    let removed: Vec<u32> = trace
        .contacts()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.a == NodeId(0) || c.b == NodeId(0))
        .map(|(k, _)| k as u32)
        .take(2)
        .collect();
    assert_eq!(removed.len(), 2, "node 0 needs two contacts to remove");
    let start = trace.span().start.as_secs();
    let appended = vec![Contact::secs(0, 1, start, start + 120.0)];
    let Response::Delta(applied) = client
        .call(&Request::Delta {
            dataset: "live".into(),
            key_epoch: 0,
            remove: removed.clone(),
            append: appended.clone(),
        })
        .unwrap()
    else {
        panic!("expected a delta response");
    };
    let applied = applied.unwrap();
    assert_eq!(applied.num_contacts, trace.num_contacts() - 1);

    let mut overlay = TraceOverlay::new(trace.clone());
    for &k in &removed {
        assert!(overlay.remove(ContactKey(k)));
    }
    for &c in &appended {
        overlay.append(c);
    }
    let (edited, _keys) = overlay.materialize();
    let fresh = Engine::from_trace(Arc::new(edited), opts, "infocom05").answer_batch(&queries);
    assert_ne!(
        fresh, reference,
        "the delta must change at least one answer"
    );

    let after = query(&mut client, "live", &lines);
    assert_eq!(after.len(), fresh.len());
    for (i, (got, want)) in after.iter().zip(&fresh).enumerate() {
        assert_eq!(got, want, "slot {i} diverged after the delta");
    }

    handle.shutdown();
    let report = running.join().unwrap();
    assert_eq!(report.connections, 1);
    assert_eq!(report.requests, 4);
    std::fs::remove_dir_all(&dir).unwrap();
}
