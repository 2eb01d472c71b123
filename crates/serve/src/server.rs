//! The `omnet serve` TCP server: multi-dataset request routing over the
//! wire protocol of [`crate::wire`].
//!
//! No async runtime — the accept loop polls a nonblocking listener and
//! spawns one plain thread per connection; query batches still fan out on
//! the fork/join executor inside [`Engine::answer_batch`], so a single
//! connection can use every core (a batch that finds the executor's helper
//! permits taken by another connection runs inline). Each dataset's engine sits behind a
//! [`std::sync::RwLock`]: query batches take the read lock and run
//! concurrently with each other, while a wire delta takes the write lock
//! and so serializes against every in-flight batch — a response is always
//! consistent with the engine entirely before or entirely after a delta,
//! never a torn mix.
//!
//! Shutdown ([`ServerHandle::shutdown`], SIGINT or SIGTERM) is a drain,
//! not an abort: requests whose bytes have arrived are answered, idle
//! connections are closed, connections that raced into the accept backlog
//! get a protocol error frame, and only then does [`Server::run`] return.

use crate::query::{Query, QueryError};
use crate::wire::{self, DatasetInfo, Request, Response};
use crate::Engine;
use omnet_core::ContactDelta;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// How long the accept loop sleeps when the backlog is empty. Bounds
/// shutdown latency; small enough to be irrelevant next to query cost.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// State shared between the accept loop, connection threads, and handles.
struct Shared {
    registry: HashMap<String, RwLock<Engine>>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    in_flight: AtomicUsize,
    /// Read-half clones of live connections, keyed by accept order; each
    /// connection removes its own when it ends. Shutting down their read
    /// sides is what wakes idle connection threads during the drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // A poisoned lock means a handler thread panicked mid-request; the
    // engine itself is only ever mutated through the all-or-nothing
    // `apply_delta`, so its state is still coherent — keep serving.
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

fn lock_conns(shared: &Shared) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
    shared.conns.lock().unwrap_or_else(|p| p.into_inner())
}

/// A bound-but-not-yet-running `omnet serve` instance.
///
/// [`Server::bind`] on port 0 picks an ephemeral port (read it back with
/// [`Server::local_addr`]) — this is how tests and the CI smoke run
/// without port coordination. [`Server::run`] blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A cheap clone-able handle for stopping a running [`Server`] from
/// another thread (tests) or a signal (production).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins the drain: in-flight requests finish, new connections are
    /// rejected, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }
}

/// What a completed [`Server::run`] served, for the CLI's exit summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted and served.
    pub connections: u64,
    /// Requests answered (across all connections).
    pub requests: u64,
    /// Connections rejected during the drain.
    pub rejected: u64,
}

impl Server {
    /// Binds `addr` and builds the dataset registry. Nothing is served
    /// until [`Server::run`].
    pub fn bind(addr: &str, engines: Vec<(String, Engine)>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let registry = engines
            .into_iter()
            .map(|(name, engine)| (name, RwLock::new(engine)))
            .collect();
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                registry,
                shutdown: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
                conns: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The bound address (the real port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle, valid before and during [`Server::run`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Routes SIGINT and SIGTERM to a graceful drain of every server in
    /// this process. Call once, before [`Server::run`]. No-op off unix.
    pub fn install_signal_handlers() {
        sig::install();
    }

    /// Serves until [`ServerHandle::shutdown`] or a routed signal, then
    /// drains: answers requests already in flight, closes idle
    /// connections, rejects backlog stragglers with an error frame.
    pub fn run(self) -> io::Result<ServeReport> {
        self.listener.set_nonblocking(true)?;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut connections: u64 = 0;
        let mut rejected: u64 = 0;
        while !(self.shared.shutdown.load(Ordering::Acquire) || sig::received()) {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let id = connections;
                    connections += 1;
                    crate::ACCEPTED.inc();
                    // Blocking per-connection I/O; only the listener polls.
                    stream.set_nonblocking(false)?;
                    if let Ok(clone) = stream.try_clone() {
                        lock_conns(&self.shared).insert(id, clone);
                    }
                    // Join the workers whose connections already ended, so
                    // a long-running server holds only live threads.
                    let (done, live) = workers.into_iter().partition(|w| w.is_finished());
                    workers = live;
                    for worker in done {
                        let _ = worker.join();
                    }
                    let shared = Arc::clone(&self.shared);
                    workers.push(std::thread::spawn(move || {
                        serve_conn(&shared, stream, peer);
                        lock_conns(&shared).remove(&id);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain. Unify the two shutdown paths so connection threads (which
        // only check the flag) also stop on a signal.
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake threads blocked in read_frame: EOF on the read half. The
        // write halves stay open so in-flight responses still go out.
        for (_, conn) in lock_conns(&self.shared).drain() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for worker in workers {
            let _ = worker.join();
        }
        // Reject connections that raced into the backlog.
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    rejected += 1;
                    crate::REJECTED.inc();
                    let resp = Response::Error("server is shutting down".to_string());
                    let _ = wire::write_frame(&mut stream, &wire::encode_response(&resp));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        Ok(ServeReport {
            connections,
            requests: self.shared.requests.load(Ordering::Acquire),
            rejected,
        })
    }
}

/// One connection: frames in, frames out, strictly in order.
fn serve_conn(shared: &Shared, mut stream: TcpStream, peer: SocketAddr) {
    let mut span = omnet_obs::span("serve.conn").with("peer", peer.to_string());
    let mut served: u64 = 0;
    // An `Ok(None)` (clean close), drain EOF, or framing/transport error
    // all end the conversation the same way.
    while let Ok(Some(payload)) = wire::read_frame(&mut stream) {
        let in_flight = shared.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        crate::IN_FLIGHT_MAX.record_max(in_flight as u64);
        crate::REQUESTS.inc();
        shared.requests.fetch_add(1, Ordering::AcqRel);
        let resp = match wire::decode_request(&payload) {
            Ok(req) => handle_request(shared, req),
            Err(e) => Response::Error(format!("bad request: {e}")),
        };
        let write = wire::write_frame(&mut stream, &wire::encode_response(&resp));
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        served += 1;
        if write.is_err() || shared.shutdown.load(Ordering::Acquire) {
            break;
        }
    }
    span.record("requests", served);
}

/// Dispatches one decoded request against the registry.
fn handle_request(shared: &Shared, req: Request) -> Response {
    let op = match &req {
        Request::List => "list",
        Request::Query { .. } => "query",
        Request::Delta { .. } => "delta",
    };
    let mut span = omnet_obs::span("serve.request").with("op", op);
    match req {
        Request::List => {
            let mut names: Vec<&String> = shared.registry.keys().collect();
            names.sort();
            let infos = names
                .into_iter()
                .map(|name| {
                    let engine = read_lock(&shared.registry[name]);
                    DatasetInfo {
                        name: name.clone(),
                        dataset_key: engine.meta().dataset_key.clone(),
                        num_nodes: engine.meta().num_nodes,
                        key_epoch: engine.key_epoch(),
                        mutable: engine.supports_deltas(),
                    }
                })
                .collect();
            Response::Datasets(infos)
        }
        Request::Query { dataset, lines } => {
            span.record("dataset", dataset.clone());
            let Some(lock) = shared.registry.get(&dataset) else {
                return unknown_dataset(shared, &dataset);
            };
            // Mirror the CLI's `--stdin` slot logic exactly: blank and
            // comment lines vanish, parse failures keep their slot, and
            // everything else runs through one ordered batch — so a
            // remote batch renders byte-identically to a local one.
            enum Slot {
                Run(usize),
                Bad(QueryError),
            }
            let mut queries = Vec::new();
            let mut slots = Vec::new();
            for line in &lines {
                match Query::parse_line(line) {
                    Ok(None) => {}
                    Ok(Some(q)) => {
                        slots.push(Slot::Run(queries.len()));
                        queries.push(q);
                    }
                    Err(e) => slots.push(Slot::Bad(e)),
                }
            }
            span.record("queries", queries.len());
            let answers: Vec<Option<_>> = {
                let engine = read_lock(lock);
                engine
                    .answer_batch(&queries)
                    .into_iter()
                    .map(Some)
                    .collect()
            };
            let mut answers = answers;
            let results = slots
                .into_iter()
                .map(|slot| match slot {
                    Slot::Run(i) => answers[i].take().unwrap_or_else(|| {
                        Err(QueryError::BadParameter {
                            message: "internal: batch slot answered twice".to_string(),
                        })
                    }),
                    Slot::Bad(e) => Err(e),
                })
                .collect();
            Response::Results(results)
        }
        Request::Delta {
            dataset,
            key_epoch,
            remove,
            append,
        } => {
            span.record("dataset", dataset.clone());
            let Some(lock) = shared.registry.get(&dataset) else {
                return unknown_dataset(shared, &dataset);
            };
            let delta = ContactDelta {
                append,
                remove: wire::delta_keys(&remove),
            };
            let mut engine = write_lock(lock);
            Response::Delta(engine.apply_delta(&delta, key_epoch))
        }
    }
}

fn unknown_dataset(shared: &Shared, dataset: &str) -> Response {
    let mut names: Vec<&str> = shared.registry.keys().map(String::as_str).collect();
    names.sort_unstable();
    Response::Error(format!(
        "unknown dataset '{dataset}' (loaded: {})",
        names.join(", ")
    ))
}

#[cfg(unix)]
mod sig {
    //! Dependency-free SIGINT/SIGTERM routing: the handler performs one
    //! atomic store and returns (async-signal-safe by construction); the
    //! accept loop polls the flag. This module is the only place the
    //! serve crate lifts the workspace-wide `deny(unsafe_code)`.
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);

    /// POSIX-mandated signal numbers, identical on every unix Rust
    /// targets (only real-time signal numbering varies by platform).
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        RECEIVED.store(true, Ordering::Release);
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: registers `on_signal`, which only stores an atomic —
        // no allocation, locking, or I/O — so it is safe to run at any
        // interruption point. `signal` itself has no preconditions.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub(super) fn received() -> bool {
        RECEIVED.load(Ordering::Acquire)
    }
}

#[cfg(not(unix))]
mod sig {
    //! Signal routing is unix-only; elsewhere shutdown is handle-driven.
    pub(super) fn install() {}

    pub(super) fn received() -> bool {
        false
    }
}
