//! What the two serve workloads share: an in-process `Server` on an
//! ephemeral loopback port, closed-loop clients, and the outside-in split
//! of a recorded round trip.

use crate::report::{timed, Outcome};
use crate::stats::median;
use omnet_serve::wire::{self, Client, Request, Response};
use omnet_serve::{Engine, Query, QueryResponse, ServeReport, Server, ServerHandle};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running server and the thread that runs it.
pub struct Served {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeReport>>,
    /// `127.0.0.1:<port>`.
    pub addr: String,
}

impl Served {
    /// Binds `127.0.0.1:0` with one dataset and starts serving.
    pub fn start(name: &str, engine: Engine) -> Result<Served, String> {
        let server = Server::bind("127.0.0.1:0", vec![(name.to_string(), engine)])
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Served {
            handle,
            thread,
            addr,
        })
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Drains and joins the server. Close the clients first.
    pub fn stop(self) -> Result<ServeReport, String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// A query request against `dataset`.
pub fn query(dataset: &str, lines: Vec<String>) -> Request {
    Request::Query {
        dataset: dataset.to_string(),
        lines,
    }
}

/// The typed results of a query response; `None` for any other response
/// or for a batch with a failed slot.
pub fn results(resp: &Response) -> Option<&[Result<QueryResponse, omnet_serve::QueryError>]> {
    match resp {
        Response::Results(r) if r.iter().all(Result::is_ok) => Some(r),
        _ => None,
    }
}

/// The query lines of a request, parsed.
pub fn parse_lines(req: &Request) -> Vec<Query> {
    match req {
        Request::Query { lines, .. } => lines
            .iter()
            .filter_map(|l| Query::parse_line(l).ok().flatten())
            .collect(),
        _ => Vec::new(),
    }
}

/// Whether a wire response equals the in-process answers slot for slot.
pub fn agrees(engine: &Engine, req: &Request, resp: &Response) -> bool {
    match resp {
        Response::Results(got) => *got == engine.answer_batch(&parse_lines(req)),
        _ => false,
    }
}

/// One timed round trip on a closed-loop connection.
#[derive(Debug, Clone)]
pub struct Call {
    /// Index of the request in the connection's pool.
    pub index: usize,
    /// Round-trip milliseconds (`Client::call`).
    pub ms: f64,
    /// Seconds from the window start to the response.
    pub end_s: f64,
    /// Query lines the request carried.
    pub queries: usize,
    /// Kept for the output check and the per-layer split.
    pub response: Option<Response>,
}

/// Responses a connection keeps at most, so the checks and the replay after
/// the window stay bounded however fast the server answers.
const MAX_KEPT: usize = 256;

/// Drives `client` through `pool` in a closed loop until the window ends,
/// keeping every `keep_every`-th response (at most [`MAX_KEPT`]).
pub fn closed_loop(
    client: &mut Client,
    pool: &[Request],
    start: Instant,
    window: std::time::Duration,
    keep_every: usize,
) -> (Vec<Call>, u64) {
    let mut calls = Vec::new();
    let mut failed = 0;
    let mut i = 0usize;
    while start.elapsed() < window {
        let req = &pool[i % pool.len()];
        let (resp, ms) = timed(|| client.call(req));
        match resp {
            Ok(resp) if results(&resp).is_some() => calls.push(Call {
                index: i % pool.len(),
                ms,
                end_s: start.elapsed().as_secs_f64(),
                queries: match req {
                    Request::Query { lines, .. } => lines.len(),
                    _ => 0,
                },
                response: (i.is_multiple_of(keep_every) && i / keep_every < MAX_KEPT)
                    .then_some(resp),
            }),
            Ok(other) => {
                eprintln!("serve: unexpected response {other:?}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("serve: call failed: {e}");
                failed += 1;
            }
        }
        i += 1;
    }
    (calls, failed)
}

/// The outside-in split of one round trip: the same request replayed
/// through each layer's public entry point in-process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub roundtrip_ms: f64,
    pub parse_us: f64,
    pub engine_ms: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub req_bytes: f64,
    pub resp_bytes: f64,
}

impl Split {
    /// Round trip minus every attributed layer: socket I/O, scheduling,
    /// locks and anything else the replay does not cover.
    pub fn unattributed_ms(&self) -> f64 {
        self.roundtrip_ms - self.engine_ms - (self.parse_us + self.encode_us + self.decode_us) / 1e3
    }
}

/// Replays one recorded request against `engine`.
pub fn split(engine: &Engine, req: &Request, resp: &Response, roundtrip_ms: f64) -> Split {
    let (req_bytes, enc_req) = timed(|| wire::encode_request(req));
    let (_, dec_req) = timed(|| wire::decode_request(&req_bytes));
    let (queries, parse) = timed(|| parse_lines(req));
    let (_, engine_ms) = timed(|| engine.answer_batch(&queries));
    let (resp_bytes, enc_resp) = timed(|| wire::encode_response(resp));
    let (_, dec_resp) = timed(|| wire::decode_response(&resp_bytes));
    Split {
        roundtrip_ms,
        parse_us: parse * 1e3,
        engine_ms,
        encode_us: (enc_req + enc_resp) * 1e3,
        decode_us: (dec_req + dec_resp) * 1e3,
        req_bytes: req_bytes.len() as f64,
        resp_bytes: resp_bytes.len() as f64,
    }
}

/// Metric names of a split, in [`Split`] field order plus the gap.
pub struct SplitNames {
    pub roundtrip: &'static str,
    pub unattributed: &'static str,
    pub parse: &'static str,
    pub engine: &'static str,
    pub encode: &'static str,
    pub decode: &'static str,
    pub req_bytes: &'static str,
    pub resp_bytes: &'static str,
}

/// The primary op's split names.
pub const PRIMARY: SplitNames = SplitNames {
    roundtrip: "server.roundtrip_ms",
    unattributed: "server.unattributed_ms",
    parse: "serve.parse_us",
    engine: "serve.engine_ms",
    encode: "wire.encode_us",
    decode: "wire.decode_us",
    req_bytes: "wire.req_bytes",
    resp_bytes: "wire.resp_bytes",
};

/// Records the medians of `splits` under `names`.
pub fn set_split(out: &mut Outcome, names: &SplitNames, splits: &[Split]) {
    let med = |f: &dyn Fn(&Split) -> f64| {
        median(&splits.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.set(names.roundtrip, med(&|s| s.roundtrip_ms));
    out.set(names.unattributed, med(&Split::unattributed_ms));
    out.set(names.parse, med(&|s| s.parse_us));
    out.set(names.engine, med(&|s| s.engine_ms));
    out.set(names.encode, med(&|s| s.encode_us));
    out.set(names.decode, med(&|s| s.decode_us));
    out.set(names.req_bytes, med(&|s| s.req_bytes));
    out.set(names.resp_bytes, med(&|s| s.resp_bytes));
}

/// Queries answered per second: all queries of `calls` over the time to
/// the last response.
pub fn throughput(calls: &[&[Call]]) -> f64 {
    let all = || calls.iter().flat_map(|c| c.iter());
    let queries: usize = all().map(|c| c.queries).sum();
    let end = all().map(|c| c.end_s).fold(0.0, f64::max);
    queries as f64 / end.max(1e-9)
}
