//! A long-running server must not accumulate per-connection state: after
//! hundreds of connect/`list`/close cycles its open file descriptors and
//! threads return to where they started, and it still answers. Its own
//! test binary, so no other test's sockets or threads share the counts.
#![cfg(target_os = "linux")]

use omnet_core::ProfileOptions;
use omnet_serve::wire::{Client, Request, Response};
use omnet_serve::{Engine, Server};
use omnet_temporal::TraceBuilder;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

fn list(addr: &str) -> usize {
    let mut client = Client::connect(addr).unwrap();
    let Response::Datasets(infos) = client.call(&Request::List).unwrap() else {
        panic!("expected datasets");
    };
    infos.len()
}

#[test]
fn sequential_connections_release_sockets_and_threads() {
    let trace = TraceBuilder::new().contact_secs(0, 1, 0.0, 60.0).build();
    let engine = Engine::from_trace(Arc::new(trace), ProfileOptions::default(), "toy");
    let server = Server::bind("127.0.0.1:0", vec![("toy".to_string(), engine)]).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run().unwrap());

    assert_eq!(list(&addr), 1);
    let (fds0, threads0) = (entries("/proc/self/fd"), entries("/proc/self/task"));
    const CYCLES: usize = 300;
    for _ in 0..CYCLES {
        assert_eq!(list(&addr), 1);
    }
    // The last connection's thread may still be on its way out.
    let settled = |slack: usize| {
        entries("/proc/self/fd") <= fds0 + slack && entries("/proc/self/task") <= threads0 + slack
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !settled(4) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        settled(4),
        "after {CYCLES} connections: fds {fds0} -> {}, threads {threads0} -> {}",
        entries("/proc/self/fd"),
        entries("/proc/self/task")
    );
    assert_eq!(list(&addr), 1, "the server must still answer");

    handle.shutdown();
    let report = running.join().unwrap();
    assert_eq!(report.connections, CYCLES as u64 + 2);
}
