//! Live-socket integration tests for `Server`: multi-dataset routing,
//! byte-level agreement with in-process answering, concurrent
//! delta/query interleaving (the torn-read regression), and drain
//! semantics on shutdown.

use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_serve::wire::{Client, Request, Response};
use omnet_serve::{Engine, Query, Server};
use omnet_temporal::{Contact, Trace, TraceBuilder};
use std::path::PathBuf;
use std::sync::Arc;

fn toy() -> Trace {
    TraceBuilder::new()
        .num_nodes(5)
        .internal(4)
        .contact_secs(0, 1, 0.0, 120.0)
        .contact_secs(1, 2, 100.0, 260.0)
        .contact_secs(2, 3, 400.0, 520.0)
        .contact_secs(0, 3, 800.0, 920.0)
        .contact_secs(0, 1, 600.0, 720.0)
        .contact_secs(3, 4, 450.0, 470.0)
        .build()
}

fn tmp(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("omnet-srv-{tag}-{}-{n}", std::process::id()))
}

/// Artifact-backed engine over `t`, written to and loaded from disk.
fn artifact_engine(t: &Trace, shards: u32) -> Engine {
    let opts = ProfileOptions::default();
    let meta = omnet_artifact::ArtifactMeta {
        dataset_key: "toy".into(),
        num_nodes: t.num_nodes(),
        num_internal: t.num_internal(),
        window: t.span(),
        options: opts,
    };
    let rows = AllPairsProfiles::compute(t, opts).into_rows();
    let dir = tmp("art");
    omnet_artifact::write_set(&dir, "toy", &meta, &rows, shards).unwrap();
    Engine::load_dir(&dir).unwrap()
}

/// Query lines answered deterministically regardless of memoization
/// state (so `stats`, whose `rows` field depends on timing, is absent).
fn lines() -> Vec<String> {
    let mut lines = vec![
        "# exercised over the wire".to_string(),
        String::new(),
        "diameter 0.01 6".to_string(),
    ];
    for s in 0..5 {
        for d in 0..5 {
            if s != d {
                lines.push(format!("delivery {s} {d} 50 3"));
                lines.push(format!("path {s} {d} 0"));
            }
        }
    }
    lines
}

fn parse_all(lines: &[String]) -> Vec<Query> {
    lines
        .iter()
        .filter_map(|l| Query::parse_line(l).unwrap())
        .collect()
}

#[test]
fn remote_answers_match_in_process_across_datasets() {
    let t = toy();
    let opts = ProfileOptions::default();
    let engines = vec![
        (
            "toy".to_string(),
            artifact_engine(&t, 2)
                .with_trace(Arc::new(t.clone()))
                .unwrap(),
        ),
        (
            "live".to_string(),
            Engine::from_trace(Arc::new(t.clone()), opts, "toy"),
        ),
    ];
    let server = Server::bind("127.0.0.1:0", engines).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run().unwrap());

    // Reference: the same queries answered by an identical in-process
    // engine (same artifacts → same answers as the served one).
    let reference = artifact_engine(&t, 2)
        .with_trace(Arc::new(t.clone()))
        .unwrap()
        .answer_batch(&parse_all(&lines()));

    let mut client = Client::connect(&addr).unwrap();

    // `list` reports both datasets with their mutability.
    let Response::Datasets(infos) = client.call(&Request::List).unwrap() else {
        panic!("expected datasets");
    };
    assert_eq!(infos.len(), 2);
    assert_eq!(infos[0].name, "live");
    assert!(infos[0].mutable, "trace-backed datasets accept deltas");
    assert_eq!(infos[1].name, "toy");
    assert!(!infos[1].mutable, "artifact sets are immutable");
    assert_eq!(infos[1].dataset_key, "toy");
    assert_eq!(infos[1].num_nodes, 5);

    // Both datasets answer the full batch exactly like the in-process
    // engine — same typed values after the wire roundtrip.
    for dataset in ["toy", "live"] {
        let Response::Results(results) = client
            .call(&Request::Query {
                dataset: dataset.to_string(),
                lines: lines(),
            })
            .unwrap()
        else {
            panic!("expected results");
        };
        assert_eq!(results.len(), reference.len(), "comment lines keep no slot");
        for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "slot {i} diverged on dataset {dataset}");
        }
    }

    // Unknown datasets are protocol errors, not hung connections.
    let err = client
        .call(&Request::Query {
            dataset: "nope".into(),
            lines: vec!["stats".into()],
        })
        .unwrap_err();
    assert!(err.to_string().contains("unknown dataset 'nope'"), "{err}");

    // A delta against the immutable artifact dataset is a typed refusal.
    let Response::Delta(outcome) = client
        .call(&Request::Delta {
            dataset: "toy".into(),
            key_epoch: 0,
            remove: vec![0],
            append: vec![],
        })
        .unwrap()
    else {
        panic!("expected delta response");
    };
    assert!(outcome.unwrap_err().to_string().contains("immutable"));

    handle.shutdown();
    let report = running.join().unwrap();
    assert_eq!(report.connections, 1);
    assert_eq!(report.requests, 5);
}

#[test]
fn concurrent_deltas_and_queries_are_never_torn() {
    let t = toy();
    let opts = ProfileOptions::default();
    let delta = omnet_core::ContactDelta {
        remove: vec![omnet_temporal::ContactKey(3)],
        append: vec![Contact::secs(0, 4, 500.0, 560.0)],
    };

    // Reference answer sets for both engine states; the delta must
    // actually change some answer or the test proves nothing.
    let queries = parse_all(&lines());
    let pre = Engine::from_trace(Arc::new(t.clone()), opts, "toy").answer_batch(&queries);
    let post = {
        let mut e = Engine::from_trace(Arc::new(t.clone()), opts, "toy");
        e.apply_delta(&delta, 0).unwrap();
        e.answer_batch(&queries)
    };
    assert_ne!(pre, post, "delta must change at least one answer");

    let server = Server::bind(
        "127.0.0.1:0",
        vec![(
            "live".to_string(),
            Engine::from_trace(Arc::new(t.clone()), opts, "toy"),
        )],
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run().unwrap());

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 12;
    let readers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let pre = pre.clone();
            let post = post.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut saw = [0usize; 2];
                for round in 0..ROUNDS {
                    let Response::Results(results) = client
                        .call(&Request::Query {
                            dataset: "live".into(),
                            lines: lines(),
                        })
                        .unwrap()
                    else {
                        panic!("expected results");
                    };
                    // The whole batch must be answered from ONE engine
                    // state: entirely pre-delta or entirely post-delta.
                    if results == pre {
                        saw[0] += 1;
                    } else if results == post {
                        saw[1] += 1;
                    } else {
                        panic!("round {round}: torn batch (neither pre- nor post-delta)");
                    }
                }
                saw
            })
        })
        .collect();

    // Meanwhile: a writer applies the delta over the wire, mid-storm. A
    // stale retry must be rejected with the typed epoch error.
    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(30));
            let req = Request::Delta {
                dataset: "live".into(),
                key_epoch: 0,
                remove: vec![3],
                append: vec![Contact::secs(0, 4, 500.0, 560.0)],
            };
            let Response::Delta(applied) = client.call(&req).unwrap() else {
                panic!("expected delta response");
            };
            let applied = applied.unwrap();
            assert_eq!(applied.key_epoch, 1);
            assert_eq!(applied.num_contacts, 6, "6 - 1 removed + 1 appended");
            // Replaying the same delta quotes a dead epoch.
            let Response::Delta(stale) = client.call(&req).unwrap() else {
                panic!("expected delta response");
            };
            let err = stale.unwrap_err();
            assert!(
                matches!(
                    err,
                    omnet_serve::QueryError::StaleKeyEpoch {
                        presented: 0,
                        current: 1
                    }
                ),
                "{err}"
            );
        })
    };
    writer.join().unwrap();

    let mut totals = [0usize; 2];
    for reader in readers {
        let saw = reader.join().unwrap();
        totals[0] += saw[0];
        totals[1] += saw[1];
    }
    assert_eq!(totals[0] + totals[1], CLIENTS * ROUNDS);
    assert!(totals[1] > 0, "some batches must see the post-delta engine");

    handle.shutdown();
    running.join().unwrap();
}

#[test]
fn shutdown_drains_idle_connections_and_refuses_new_ones() {
    let t = toy();
    let server = Server::bind(
        "127.0.0.1:0",
        vec![(
            "live".to_string(),
            Engine::from_trace(Arc::new(t.clone()), ProfileOptions::default(), "toy"),
        )],
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run().unwrap());

    // An idle connection with one answered request…
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .call(&Request::Query {
            dataset: "live".into(),
            lines: vec!["delivery 0 3 0".into()],
        })
        .unwrap();
    assert!(matches!(resp, Response::Results(_)));

    // …does not block the drain: run() returns even though the client
    // never closed its side.
    handle.shutdown();
    let report = running.join().unwrap();
    assert_eq!(report.connections, 1);
    assert_eq!(report.requests, 1);

    // The idle connection was closed by the server…
    assert!(client.call(&Request::List).is_err());
    // …and the port no longer accepts (or instantly drops) connections.
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(mut late) => assert!(late.call(&Request::List).is_err()),
    }
}
