//! The `omnet serve` wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON (see DESIGN.md §16 for the layout and
//! compatibility rules). Requests name a dataset; responses carry either
//! typed answers (mirroring [`QueryResponse`] field by field) or typed
//! errors (mirroring [`QueryError`]), so a remote client reconstructs
//! exactly the values an in-process [`crate::Engine`] would have returned —
//! rendering them byte-identically.
//!
//! The JSON itself is [`omnet_obs::json`], the workspace's one codec:
//! `f64`s travel as shortest-roundtrip tokens and `u64`s as raw integer
//! tokens, so both decode exactly. Non-finite times (`Time::INF` /
//! `Dur::INF`) serialize as `null` — JSON has no infinity literal — and
//! decode back to the infinities. This module keeps only the framing and
//! the typed request/response mapping.

use crate::engine::DeltaApplied;
use crate::query::{
    DeliveryAnswer, DiameterAnswer, PathAnswer, PathHop, QueryError, QueryResponse, StatsAnswer,
};
use omnet_core::{HopBound, ProfileOptions};
use omnet_obs::json::{self, Json};
use omnet_temporal::{Contact, ContactKey, Dur, Interval, NodeId, Time};
use std::fmt;
use std::io::{Read, Write};
use std::str::FromStr;

/// Hard ceiling on a frame's payload size. A length prefix beyond this is
/// rejected before any allocation — garbage (or a non-protocol peer)
/// cannot make the server reserve gigabytes.
pub const MAX_FRAME: usize = 64 << 20;

/// A wire-layer failure: transport, framing, or message shape. Query-level
/// failures are *not* wire errors — they travel inside [`Response`] as
/// typed [`QueryError`]s.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket or stream failed.
    Io(std::io::Error),
    /// A frame announced a payload larger than [`MAX_FRAME`].
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
    },
    /// The payload was not valid JSON, or valid JSON of the wrong shape.
    Malformed {
        /// What was being decoded when the payload stopped making sense.
        context: &'static str,
    },
    /// The server answered with a protocol-level error (unknown dataset,
    /// unsupported operation, shutdown in progress).
    Protocol {
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Malformed { context } => write!(f, "malformed frame: {context}"),
            WireError::Protocol { message } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` means the peer closed the stream cleanly
/// *between* frames; EOF inside a frame is an [`WireError::Io`] error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame header",
            )));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn malformed(context: &'static str) -> WireError {
    WireError::Malformed { context }
}

/// Parses one payload as a JSON document; a parse failure is a
/// [`WireError::Malformed`] naming what the parser was reading.
fn parse_json(bytes: &[u8]) -> Result<Json, WireError> {
    json::parse(bytes).map_err(|e| malformed(e.context))
}

// ---------------------------------------------------------------------------
// Typed field accessors
// ---------------------------------------------------------------------------

fn field<'a>(j: &'a Json, key: &'static str) -> Result<&'a Json, WireError> {
    j.get(key).ok_or(malformed(key))
}

fn get_str(j: &Json, key: &'static str) -> Result<String, WireError> {
    match field(j, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(malformed(key)),
    }
}

fn get_bool(j: &Json, key: &'static str) -> Result<bool, WireError> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(malformed(key)),
    }
}

/// A number parsed straight from its raw token into `T` — an integer never
/// passes through a narrower or lossy type, and one out of `T`'s range is
/// malformed.
fn num<T: FromStr>(j: &Json, key: &'static str) -> Result<T, WireError> {
    match j {
        Json::Num(raw) => raw.parse().map_err(|_| malformed(key)),
        _ => Err(malformed(key)),
    }
}

fn get_num<T: FromStr>(j: &Json, key: &'static str) -> Result<T, WireError> {
    num(field(j, key)?, key)
}

/// A number or `null` (`None`).
fn opt_num<T: FromStr>(j: &Json, key: &'static str) -> Result<Option<T>, WireError> {
    match j {
        Json::Null => Ok(None),
        v => num(v, key).map(Some),
    }
}

fn get_opt<T: FromStr>(j: &Json, key: &'static str) -> Result<Option<T>, WireError> {
    opt_num(field(j, key)?, key)
}

fn get_arr<'a>(j: &'a Json, key: &'static str) -> Result<&'a [Json], WireError> {
    match field(j, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(malformed(key)),
    }
}

/// `null` carries `Time::INF`.
fn time_json(t: Time) -> Json {
    Json::f64(t.as_secs())
}

fn get_time(j: &Json, key: &'static str) -> Result<Time, WireError> {
    Ok(get_opt(j, key)?.map_or(Time::INF, Time::secs))
}

/// `null` carries `Dur::INF`.
fn dur_json(d: Dur) -> Json {
    Json::f64(d.as_secs())
}

/// An interval from two time fields; both must be finite and ordered.
fn get_interval(j: &Json, start: &'static str, end: &'static str) -> Result<Interval, WireError> {
    let (s, e) = (get_time(j, start)?, get_time(j, end)?);
    if s.is_finite() && e.is_finite() && s <= e {
        Ok(Interval::new(s, e))
    } else {
        Err(malformed(start))
    }
}

fn get_dur(j: &Json, key: &'static str) -> Result<Dur, WireError> {
    Ok(get_opt(j, key)?.map_or(Dur::INF, Dur::secs))
}

/// `null` carries `HopBound::Unlimited`.
fn bound_json(b: HopBound) -> Json {
    match b {
        HopBound::Unlimited => Json::Null,
        HopBound::AtMost(k) => Json::usize(k),
    }
}

fn get_bound(j: &Json, key: &'static str) -> Result<HopBound, WireError> {
    Ok(get_opt(j, key)?.map_or(HopBound::Unlimited, HopBound::AtMost))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request. The wire form is a JSON object with an `"op"` field
/// selecting the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// List the datasets the server is routing to.
    List,
    /// Answer a batch of query lines (the `Query::parse_line` grammar)
    /// against one dataset. Blank and `#`-comment lines produce no result
    /// slot — exactly like the local `omnet query --stdin` batch path.
    Query {
        /// Registry name of the target dataset.
        dataset: String,
        /// Query lines, in order.
        lines: Vec<String>,
    },
    /// Apply a contact delta to one (trace-backed) dataset — the POST-style
    /// mutation on the wire. All-or-nothing, key-epoch checked.
    Delta {
        /// Registry name of the target dataset.
        dataset: String,
        /// The key epoch the removal keys were minted against.
        key_epoch: u64,
        /// Contact keys to remove.
        remove: Vec<u32>,
        /// Contacts to append, as `(a, b, start-secs, end-secs)`.
        append: Vec<Contact>,
    },
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let j = match req {
        Request::List => Json::Obj(vec![("op".into(), Json::str("list"))]),
        Request::Query { dataset, lines } => Json::Obj(vec![
            ("op".into(), Json::str("query")),
            ("dataset".into(), Json::str(dataset)),
            (
                "lines".into(),
                Json::Arr(lines.iter().map(|l| Json::str(l)).collect()),
            ),
        ]),
        Request::Delta {
            dataset,
            key_epoch,
            remove,
            append,
        } => Json::Obj(vec![
            ("op".into(), Json::str("delta")),
            ("dataset".into(), Json::str(dataset)),
            ("key_epoch".into(), Json::u64(*key_epoch)),
            (
                "remove".into(),
                Json::Arr(remove.iter().map(|&k| Json::u32(k)).collect()),
            ),
            (
                "append".into(),
                Json::Arr(
                    append
                        .iter()
                        .map(|c| {
                            Json::Arr(vec![
                                Json::u32(c.a.0),
                                Json::u32(c.b.0),
                                Json::f64(c.start().as_secs()),
                                Json::f64(c.end().as_secs()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    j.render().into_bytes()
}

/// Decodes a frame payload into a request.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let j = parse_json(bytes)?;
    match get_str(&j, "op")?.as_str() {
        "list" => Ok(Request::List),
        "query" => {
            let lines = get_arr(&j, "lines")?
                .iter()
                .map(|l| match l {
                    Json::Str(s) => Ok(s.clone()),
                    _ => Err(malformed("lines")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Query {
                dataset: get_str(&j, "dataset")?,
                lines,
            })
        }
        "delta" => {
            let remove = get_arr(&j, "remove")?
                .iter()
                .map(|k| num(k, "remove"))
                .collect::<Result<Vec<_>, _>>()?;
            let append = get_arr(&j, "append")?
                .iter()
                .map(|c| match c {
                    Json::Arr(parts) if parts.len() == 4 => {
                        let a = num(&parts[0], "append")?;
                        let b = num(&parts[1], "append")?;
                        let start: f64 = num(&parts[2], "append")?;
                        let end: f64 = num(&parts[3], "append")?;
                        if a == b || !(start.is_finite() && end.is_finite() && start <= end) {
                            return Err(malformed("append"));
                        }
                        Ok(Contact::secs(a, b, start, end))
                    }
                    _ => Err(malformed("append")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Delta {
                dataset: get_str(&j, "dataset")?,
                key_epoch: get_num(&j, "key_epoch")?,
                remove,
                append,
            })
        }
        _ => Err(malformed("unknown op")),
    }
}

/// The removal keys of a delta request as typed [`ContactKey`]s.
pub fn delta_keys(remove: &[u32]) -> Vec<ContactKey> {
    remove.iter().map(|&k| ContactKey(k)).collect()
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One dataset the server routes to, as reported by [`Request::List`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Registry name (what requests address).
    pub name: String,
    /// The dataset key recorded in the engine's metadata.
    pub dataset_key: String,
    /// Node universe size.
    pub num_nodes: u32,
    /// Current contact-key epoch (what a delta must quote).
    pub key_epoch: u64,
    /// Whether the dataset accepts deltas (trace-backed engines do;
    /// artifact-backed sets are immutable).
    pub mutable: bool,
}

/// One server response. The wire form is a JSON object with a `"type"`
/// field selecting the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::List`].
    Datasets(Vec<DatasetInfo>),
    /// Answer to [`Request::Query`]: one slot per parsed query line, in
    /// order (blank/comment lines produce no slot).
    Results(Vec<Result<QueryResponse, QueryError>>),
    /// Answer to [`Request::Delta`].
    Delta(Result<DeltaApplied, QueryError>),
    /// A protocol-level failure: unknown dataset, malformed request, or
    /// shutdown in progress.
    Error(String),
}

fn options_json(o: &ProfileOptions) -> Json {
    Json::Obj(vec![
        ("store_levels".into(), Json::usize(o.store_levels)),
        ("max_levels".into(), Json::usize(o.max_levels)),
    ])
}

fn decode_options(j: &Json) -> Result<ProfileOptions, WireError> {
    Ok(ProfileOptions::builder()
        .store_levels(get_num(j, "store_levels")?)
        .max_levels(get_num(j, "max_levels")?)
        .build())
}

fn answer_json(r: &QueryResponse) -> Json {
    match r {
        QueryResponse::Delivery(a) => Json::Obj(vec![
            ("type".into(), Json::str("delivery")),
            ("src".into(), Json::u32(a.src)),
            ("dst".into(), Json::u32(a.dst)),
            ("at".into(), time_json(a.at)),
            ("bound".into(), bound_json(a.bound)),
            ("arrival".into(), time_json(a.arrival)),
            ("delay".into(), dur_json(a.delay)),
            ("reachable".into(), Json::Bool(a.reachable)),
        ]),
        QueryResponse::Path(a) => Json::Obj(vec![
            ("type".into(), Json::str("path")),
            ("src".into(), Json::u32(a.src)),
            ("dst".into(), Json::u32(a.dst)),
            ("at".into(), time_json(a.at)),
            ("reachable".into(), Json::Bool(a.reachable)),
            ("arrival".into(), time_json(a.arrival)),
            ("delay".into(), dur_json(a.delay)),
            ("hops".into(), Json::usize(a.hops)),
            (
                "route".into(),
                match &a.route {
                    None => Json::Null,
                    Some(route) => Json::Arr(
                        route
                            .iter()
                            .map(|h| {
                                Json::Obj(vec![
                                    ("from".into(), Json::u32(h.from.0)),
                                    ("to".into(), Json::u32(h.to.0)),
                                    ("start".into(), time_json(h.window.start)),
                                    ("end".into(), time_json(h.window.end)),
                                    ("at".into(), time_json(h.at)),
                                ])
                            })
                            .collect(),
                    ),
                },
            ),
        ]),
        QueryResponse::Diameter(a) => Json::Obj(vec![
            ("type".into(), Json::str("diameter")),
            ("eps".into(), Json::f64(a.eps)),
            ("max_hops".into(), Json::usize(a.max_hops)),
            ("pairs".into(), Json::usize(a.pairs)),
            (
                "grid".into(),
                Json::Arr(a.grid.iter().map(|&d| dur_json(d)).collect()),
            ),
            (
                "diameter".into(),
                a.diameter.map_or(Json::Null, Json::usize),
            ),
            (
                "per_delay".into(),
                Json::Arr(
                    a.per_delay
                        .iter()
                        .map(|d| d.map_or(Json::Null, Json::usize))
                        .collect(),
                ),
            ),
        ]),
        QueryResponse::Stats(a) => Json::Obj(vec![
            ("type".into(), Json::str("stats")),
            ("dataset_key".into(), Json::str(&a.dataset_key)),
            ("num_nodes".into(), Json::u32(a.num_nodes)),
            ("num_internal".into(), Json::u32(a.num_internal)),
            ("window_start".into(), time_json(a.window.start)),
            ("window_end".into(), time_json(a.window.end)),
            ("options".into(), options_json(&a.options)),
            ("shards".into(), Json::usize(a.shards)),
            ("rows".into(), Json::usize(a.rows)),
            (
                "max_useful_hops".into(),
                a.max_useful_hops.map_or(Json::Null, Json::usize),
            ),
        ]),
    }
}

fn decode_answer(j: &Json) -> Result<QueryResponse, WireError> {
    match get_str(j, "type")?.as_str() {
        "delivery" => Ok(QueryResponse::Delivery(DeliveryAnswer {
            src: get_num(j, "src")?,
            dst: get_num(j, "dst")?,
            at: get_time(j, "at")?,
            bound: get_bound(j, "bound")?,
            arrival: get_time(j, "arrival")?,
            delay: get_dur(j, "delay")?,
            reachable: get_bool(j, "reachable")?,
        })),
        "path" => {
            let route = match field(j, "route")? {
                Json::Null => None,
                Json::Arr(hops) => Some(
                    hops.iter()
                        .map(|h| {
                            Ok(PathHop {
                                from: NodeId(get_num(h, "from")?),
                                to: NodeId(get_num(h, "to")?),
                                window: get_interval(h, "start", "end")?,
                                at: get_time(h, "at")?,
                            })
                        })
                        .collect::<Result<Vec<_>, WireError>>()?,
                ),
                _ => return Err(malformed("route")),
            };
            Ok(QueryResponse::Path(PathAnswer {
                src: get_num(j, "src")?,
                dst: get_num(j, "dst")?,
                at: get_time(j, "at")?,
                reachable: get_bool(j, "reachable")?,
                arrival: get_time(j, "arrival")?,
                delay: get_dur(j, "delay")?,
                hops: get_num(j, "hops")?,
                route,
            }))
        }
        "diameter" => {
            let grid = get_arr(j, "grid")?
                .iter()
                .map(|d| Ok(opt_num(d, "grid")?.map_or(Dur::INF, Dur::secs)))
                .collect::<Result<Vec<_>, WireError>>()?;
            let per_delay = get_arr(j, "per_delay")?
                .iter()
                .map(|d| opt_num(d, "per_delay"))
                .collect::<Result<Vec<_>, WireError>>()?;
            let diameter = get_opt(j, "diameter")?;
            Ok(QueryResponse::Diameter(DiameterAnswer {
                eps: get_num(j, "eps")?,
                max_hops: get_num(j, "max_hops")?,
                pairs: get_num(j, "pairs")?,
                grid,
                diameter,
                per_delay,
            }))
        }
        "stats" => {
            let max_useful_hops = get_opt(j, "max_useful_hops")?;
            Ok(QueryResponse::Stats(StatsAnswer {
                dataset_key: get_str(j, "dataset_key")?,
                num_nodes: get_num(j, "num_nodes")?,
                num_internal: get_num(j, "num_internal")?,
                window: get_interval(j, "window_start", "window_end")?,
                options: decode_options(field(j, "options")?)?,
                shards: get_num(j, "shards")?,
                rows: get_num(j, "rows")?,
                max_useful_hops,
            }))
        }
        _ => Err(malformed("unknown answer type")),
    }
}

fn error_json(e: &QueryError) -> Json {
    // Every error carries its rendered message alongside the typed fields,
    // so clients that don't know a (future) kind can still report it.
    let mut fields = vec![("message".to_string(), Json::str(&e.to_string()))];
    match e {
        QueryError::Parse { .. } => fields.insert(0, ("kind".into(), Json::str("parse"))),
        QueryError::NodeOutOfRange { node, num_nodes } => {
            fields.insert(0, ("kind".into(), Json::str("node_out_of_range")));
            fields.push(("node".into(), Json::u32(*node)));
            fields.push(("num_nodes".into(), Json::u32(*num_nodes)));
        }
        QueryError::SameNode => fields.insert(0, ("kind".into(), Json::str("same_node"))),
        QueryError::ShardMissing { source } => {
            fields.insert(0, ("kind".into(), Json::str("shard_missing")));
            fields.push(("source".into(), Json::u32(*source)));
        }
        QueryError::BadParameter { .. } => {
            fields.insert(0, ("kind".into(), Json::str("bad_parameter")));
        }
        QueryError::HopsBeyondArtifact { requested, stored } => {
            fields.insert(0, ("kind".into(), Json::str("hops_beyond_artifact")));
            fields.push(("requested".into(), Json::usize(*requested)));
            fields.push(("stored".into(), Json::usize(*stored)));
        }
        QueryError::ShardRejected { source, message } => {
            fields.insert(0, ("kind".into(), Json::str("shard_rejected")));
            fields.push(("source".into(), Json::u32(*source)));
            fields.push(("detail".into(), Json::str(message)));
        }
        QueryError::StaleKeyEpoch { presented, current } => {
            fields.insert(0, ("kind".into(), Json::str("stale_key_epoch")));
            fields.push(("presented".into(), Json::u64(*presented)));
            fields.push(("current".into(), Json::u64(*current)));
        }
    }
    Json::Obj(fields)
}

fn decode_error(j: &Json) -> Result<QueryError, WireError> {
    Ok(match get_str(j, "kind")?.as_str() {
        "parse" => {
            let full = get_str(j, "message")?;
            QueryError::Parse {
                // `Display` prefixes "query syntax: "; strip it back off so
                // the reconstructed error renders identically.
                message: full
                    .strip_prefix("query syntax: ")
                    .unwrap_or(&full)
                    .to_string(),
            }
        }
        "node_out_of_range" => QueryError::NodeOutOfRange {
            node: get_num(j, "node")?,
            num_nodes: get_num(j, "num_nodes")?,
        },
        "same_node" => QueryError::SameNode,
        "shard_missing" => QueryError::ShardMissing {
            source: get_num(j, "source")?,
        },
        "bad_parameter" => QueryError::BadParameter {
            message: get_str(j, "message")?,
        },
        "hops_beyond_artifact" => QueryError::HopsBeyondArtifact {
            requested: get_num(j, "requested")?,
            stored: get_num(j, "stored")?,
        },
        "shard_rejected" => QueryError::ShardRejected {
            source: get_num(j, "source")?,
            message: get_str(j, "detail")?,
        },
        "stale_key_epoch" => QueryError::StaleKeyEpoch {
            presented: get_num(j, "presented")?,
            current: get_num(j, "current")?,
        },
        // An unknown kind (newer server) degrades to its message.
        _ => QueryError::BadParameter {
            message: get_str(j, "message")?,
        },
    })
}

fn applied_json(a: &DeltaApplied) -> Json {
    Json::Obj(vec![
        ("rows_invalidated".into(), Json::usize(a.rows_invalidated)),
        ("key_epoch".into(), Json::u64(a.key_epoch)),
        ("num_contacts".into(), Json::usize(a.num_contacts)),
    ])
}

fn decode_applied(j: &Json) -> Result<DeltaApplied, WireError> {
    Ok(DeltaApplied {
        rows_invalidated: get_num(j, "rows_invalidated")?,
        key_epoch: get_num(j, "key_epoch")?,
        num_contacts: get_num(j, "num_contacts")?,
    })
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let j = match resp {
        Response::Datasets(infos) => Json::Obj(vec![
            ("type".into(), Json::str("datasets")),
            (
                "datasets".into(),
                Json::Arr(
                    infos
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&d.name)),
                                ("dataset_key".into(), Json::str(&d.dataset_key)),
                                ("num_nodes".into(), Json::u32(d.num_nodes)),
                                ("key_epoch".into(), Json::u64(d.key_epoch)),
                                ("mutable".into(), Json::Bool(d.mutable)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Results(results) => Json::Obj(vec![
            ("type".into(), Json::str("results")),
            (
                "results".into(),
                Json::Arr(
                    results
                        .iter()
                        .map(|r| match r {
                            Ok(a) => Json::Obj(vec![
                                ("ok".into(), Json::Bool(true)),
                                ("answer".into(), answer_json(a)),
                            ]),
                            Err(e) => Json::Obj(vec![
                                ("ok".into(), Json::Bool(false)),
                                ("error".into(), error_json(e)),
                            ]),
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Delta(outcome) => match outcome {
            Ok(a) => Json::Obj(vec![
                ("type".into(), Json::str("delta")),
                ("ok".into(), Json::Bool(true)),
                ("applied".into(), applied_json(a)),
            ]),
            Err(e) => Json::Obj(vec![
                ("type".into(), Json::str("delta")),
                ("ok".into(), Json::Bool(false)),
                ("error".into(), error_json(e)),
            ]),
        },
        Response::Error(message) => Json::Obj(vec![
            ("type".into(), Json::str("error")),
            ("message".into(), Json::str(message)),
        ]),
    };
    j.render().into_bytes()
}

/// Decodes a frame payload into a response.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let j = parse_json(bytes)?;
    match get_str(&j, "type")?.as_str() {
        "datasets" => {
            let infos = get_arr(&j, "datasets")?
                .iter()
                .map(|d| {
                    Ok(DatasetInfo {
                        name: get_str(d, "name")?,
                        dataset_key: get_str(d, "dataset_key")?,
                        num_nodes: get_num(d, "num_nodes")?,
                        key_epoch: get_num(d, "key_epoch")?,
                        mutable: get_bool(d, "mutable")?,
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(Response::Datasets(infos))
        }
        "results" => {
            let results = get_arr(&j, "results")?
                .iter()
                .map(|r| {
                    if get_bool(r, "ok")? {
                        decode_answer(field(r, "answer")?).map(Ok)
                    } else {
                        decode_error(field(r, "error")?).map(Err)
                    }
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(Response::Results(results))
        }
        "delta" => {
            if get_bool(&j, "ok")? {
                Ok(Response::Delta(Ok(decode_applied(field(&j, "applied")?)?)))
            } else {
                Ok(Response::Delta(Err(decode_error(field(&j, "error")?)?)))
            }
        }
        "error" => Ok(Response::Error(get_str(&j, "message")?)),
        _ => Err(malformed("unknown response type")),
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client connection to an `omnet serve` instance. One request
/// in flight at a time; requests on one connection are answered in order.
#[derive(Debug)]
pub struct Client {
    stream: std::net::TcpStream,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, WireError> {
        Ok(Client {
            stream: std::net::TcpStream::connect(addr)?,
        })
    }

    /// Sends one request and reads its response. A server-reported
    /// protocol error surfaces as [`WireError::Protocol`].
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let Some(payload) = read_frame(&mut self.stream)? else {
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )));
        };
        match decode_response(&payload)? {
            Response::Error(message) => Err(WireError::Protocol { message }),
            resp => Ok(resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_response(r: &Response) -> Response {
        decode_response(&encode_response(r)).unwrap()
    }

    fn roundtrip_request(r: &Request) -> Request {
        decode_request(&encode_request(r)).unwrap()
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        for cut in [1, 3, 6] {
            let mut r = &buf[..buf.len() - cut];
            assert!(matches!(read_frame(&mut r), Err(WireError::Io(_))));
        }
    }

    #[test]
    fn u64_precision_survives_the_wire() {
        let req = Request::Delta {
            dataset: "x".into(),
            key_epoch: u64::MAX - 1,
            remove: vec![0, u32::MAX - 1],
            append: vec![Contact::secs(1, 2, 0.25, 1e9)],
        };
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::List,
            Request::Query {
                dataset: "reality".into(),
                lines: vec!["delivery 0 3 120".into(), "# comment \"quoted\"".into()],
            },
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn answers_roundtrip_including_infinities() {
        let results: Vec<Result<QueryResponse, QueryError>> = vec![
            Ok(QueryResponse::Delivery(DeliveryAnswer {
                src: 3,
                dst: 7,
                at: Time::secs(0.1),
                bound: HopBound::AtMost(4),
                arrival: Time::INF,
                delay: Dur::INF,
                reachable: false,
            })),
            Ok(QueryResponse::Path(PathAnswer {
                src: 0,
                dst: 1,
                at: Time::secs(5.5),
                reachable: true,
                arrival: Time::secs(17.25),
                delay: Dur::secs(11.75),
                hops: 2,
                route: Some(vec![PathHop {
                    from: NodeId(0),
                    to: NodeId(1),
                    window: Interval::secs(1.0, 30.0),
                    at: Time::secs(5.5),
                }]),
            })),
            Ok(QueryResponse::Diameter(DiameterAnswer {
                eps: 0.01,
                max_hops: 6,
                pairs: 20,
                grid: vec![Dur::secs(120.0), Dur::secs(553.1578947368421)],
                diameter: Some(3),
                per_delay: vec![None, Some(3)],
            })),
            Ok(QueryResponse::Stats(StatsAnswer {
                dataset_key: "toy".into(),
                num_nodes: 5,
                num_internal: 4,
                window: Interval::secs(0.0, 920.0),
                options: ProfileOptions::builder().store_levels(3).build(),
                shards: 2,
                rows: 5,
                max_useful_hops: None,
            })),
            Err(QueryError::StaleKeyEpoch {
                presented: 3,
                current: 9,
            }),
            Err(QueryError::Parse {
                message: "invalid src id 'x'".into(),
            }),
            Err(QueryError::ShardRejected {
                source: 2,
                message: "ROWS section checksum mismatch".into(),
            }),
        ];
        let resp = Response::Results(results.clone());
        assert_eq!(roundtrip_response(&resp), resp);
        // The reconstructed errors render identically — what keeps remote
        // `error:` lines byte-identical to local ones.
        let Response::Results(back) = roundtrip_response(&resp) else {
            unreachable!()
        };
        for (orig, back) in results.iter().zip(&back) {
            if let (Err(a), Err(b)) = (orig, back) {
                assert_eq!(a.to_string(), b.to_string());
            }
        }
    }

    #[test]
    fn float_fidelity_is_exact() {
        // Awkward doubles: shortest-roundtrip formatting must survive.
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
        ] {
            let resp = Response::Results(vec![Ok(QueryResponse::Delivery(DeliveryAnswer {
                src: 0,
                dst: 1,
                at: Time::secs(v),
                bound: HopBound::Unlimited,
                arrival: Time::secs(v * 2.0),
                delay: Dur::secs(v),
                reachable: true,
            }))]);
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn delta_and_list_responses_roundtrip() {
        let resp = Response::Delta(Ok(DeltaApplied {
            rows_invalidated: 4,
            key_epoch: 17,
            num_contacts: 99,
        }));
        assert_eq!(roundtrip_response(&resp), resp);
        let resp = Response::Delta(Err(QueryError::BadParameter {
            message: "appended contact lies outside the observation window".into(),
        }));
        assert_eq!(roundtrip_response(&resp), resp);
        let resp = Response::Datasets(vec![DatasetInfo {
            name: "live".into(),
            dataset_key: "toy".into(),
            num_nodes: 5,
            key_epoch: 2,
            mutable: true,
        }]);
        assert_eq!(roundtrip_response(&resp), resp);
        let resp = Response::Error("unknown dataset 'nope'".into());
        assert_eq!(roundtrip_response(&resp), resp);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(matches!(
            decode_response(b"{\"type\":\"results\",\"results\":[{\"ok\":true}]}"),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(
            decode_request(b"{\"op\":\"warp\"}"),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(
            decode_request(b"{\"op\":\"delta\",\"dataset\":\"d\",\"key_epoch\":1,\"remove\":[],\"append\":[[0,1,5,2]]}"),
            Err(WireError::Malformed { .. })
        ));
        // Self-contacts and unbounded or inverted windows are malformed, not
        // panics in the `Contact` and `Interval` constructors.
        assert!(matches!(
            decode_request(b"{\"op\":\"delta\",\"dataset\":\"d\",\"key_epoch\":1,\"remove\":[],\"append\":[[2,2,0,1]]}"),
            Err(WireError::Malformed { .. })
        ));
        for window in [r#""start":30,"end":1"#, r#""start":null,"end":1"#] {
            let frame = format!(
                r#"{{"type":"results","results":[{{"ok":true,"answer":{{"type":"path","src":0,"dst":1,"at":5,"reachable":true,"arrival":9,"delay":4,"hops":1,"route":[{{"from":0,"to":1,{window},"at":5}}]}}}}]}}"#
            );
            assert!(matches!(
                decode_response(frame.as_bytes()),
                Err(WireError::Malformed { .. })
            ));
        }
        // JSON syntax errors surface as malformed frames too.
        for bad in [&b"{"[..], b"[1,]", b"{} trailing"] {
            assert!(matches!(
                decode_request(bad),
                Err(WireError::Malformed { .. })
            ));
        }
        // Integers out of the field's range, or written as floats, are
        // malformed rather than truncated.
        for (bad, context) in [
            (
                &br#"{"op":"delta","dataset":"d","key_epoch":1,"remove":[4294967296],"append":[]}"#
                    [..],
                "remove",
            ),
            (
                br#"{"op":"delta","dataset":"d","key_epoch":-1,"remove":[],"append":[]}"#,
                "key_epoch",
            ),
            (
                br#"{"op":"delta","dataset":"d","key_epoch":1,"remove":[1.5],"append":[]}"#,
                "remove",
            ),
        ] {
            assert!(matches!(
                decode_request(bad),
                Err(WireError::Malformed { context: c }) if c == context
            ));
        }
    }
}
