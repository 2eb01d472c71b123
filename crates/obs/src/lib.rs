//! Lightweight, dependency-free observability for the workspace.
//!
//! Temporal-reachability tooling lives or dies by being able to *watch* its
//! reachability computations (cf. Whitbeck et al., *Temporal Reachability
//! Graphs*, arXiv:1207.7103); this crate gives the reproduction the same
//! first-class handles. It exposes three primitives, all process-global:
//!
//! * **[`Counter`]** — a monotonic `u64`, `const`-constructible as a
//!   `static`, self-registering in a process-wide registry on first use.
//!   Counters are *always on*: incrementing is one relaxed `fetch_add`
//!   (plus one relaxed registration check), cheap enough for steady-state
//!   code, and the registry snapshot ([`counters`]) is what the experiment
//!   harness prints in its stderr footer.
//! * **[`span`]** — a scoped wall-clock timer with typed fields. Dropping
//!   the guard emits one record to the trace sink. When tracing is
//!   disabled the guard is inert: creating it costs a single relaxed
//!   atomic load and no clock read.
//! * **[`event`]** — a point-in-time record with typed fields, also gated
//!   on the single [`enabled`] check.
//!
//! # The JSON-lines sink
//!
//! [`install_file`] (or `OMNET_TRACE=path` via [`init_from_env`]) opens a
//! sink and flips the global enable flag. Every span, event and counter
//! snapshot then appends one JSON object per line:
//!
//! ```json
//! {"kind":"span","name":"engine.all_pairs","elapsed":0.1813,"at":0.002,"nodes":78}
//! {"kind":"event","name":"engine.level","elapsed":0.0031,"source":3,"level":2}
//! {"kind":"counter","name":"executor.items","elapsed":0.91,"value":1024}
//! ```
//!
//! Every record carries `kind`, `name` and `elapsed`. For spans `elapsed`
//! is the span duration in seconds (and `at` is the span start, as an
//! offset from the sink epoch); for events and counter snapshots it is
//! the emission time as an offset from the sink epoch.
//!
//! # Overhead contract
//!
//! With no sink installed, every span/event instrumentation point costs
//! one relaxed atomic load; counters cost one relaxed `fetch_add`. The
//! target is a disabled-mode total of at most 2% on the §4.4 engine; no
//! current benchmark measures it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod counter;
pub mod json;
mod record;

pub use counter::{counters, Counter};
pub use json::Value;
pub use record::{event, span, Span};

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Global enable flag: one relaxed load per span/event instrumentation
/// point when tracing is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink, if any. Records are whole lines, written under
/// this lock so concurrent emitters never interleave within a line.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// The time base all `at`/`elapsed` offsets are measured from (set when
/// the first sink is installed).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Locks a mutex ignoring poisoning: a panicking emitter leaves at worst
/// a truncated trailing line behind, never a structurally broken sink.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `true` while a trace sink is installed. Instrumentation points guard
/// any costly field construction on this.
#[inline]
pub fn enabled() -> bool {
    // ORDERING: a stale read only makes an instrumentation point miss (or
    // outlive) a sink toggle by one record; the sink itself is read under
    // a lock, so no record is ever torn. Relaxed keeps the disabled-mode
    // cost to a single uncontended load.
    ENABLED.load(Ordering::Relaxed)
}

/// Seconds since the sink epoch (the first sink installation).
pub(crate) fn offset_secs() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Installs an arbitrary writer as the trace sink and enables tracing.
/// Replaces any previously installed sink (the old writer is flushed).
pub fn install_writer(w: Box<dyn Write + Send>) {
    let _ = EPOCH.get_or_init(Instant::now);
    let mut sink = lock(&SINK);
    if let Some(mut old) = sink.replace(w) {
        let _ = old.flush();
    }
    drop(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Creates (truncating) `path` and installs a buffered file sink.
pub fn install_file(path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    install_writer(Box::new(io::BufWriter::new(file)));
    Ok(())
}

/// Installs a file sink at `$OMNET_TRACE` when that variable is set and
/// non-empty. Returns `Ok(true)` if a sink was installed, `Ok(false)` if
/// the variable is unset/empty, and the I/O error if the file could not
/// be created.
pub fn init_from_env() -> io::Result<bool> {
    match std::env::var("OMNET_TRACE") {
        Ok(path) if !path.trim().is_empty() => {
            install_file(Path::new(path.trim()))?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Writes one already-serialized record line to the sink, if installed.
pub(crate) fn emit_line(line: &str) {
    let mut sink = lock(&SINK);
    if let Some(w) = sink.as_mut() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }
}

/// Emits one `counter` record per registered counter (current values),
/// sorted by name. A no-op when tracing is disabled.
pub fn flush_counters() {
    if !enabled() {
        return;
    }
    for (name, value) in counters() {
        record::emit_counter(name, value);
    }
}

/// Flushes the sink's buffered records without disabling tracing.
pub fn flush() {
    let mut sink = lock(&SINK);
    if let Some(w) = sink.as_mut() {
        let _ = w.flush();
    }
}

/// Disables tracing and flushes + drops the sink. Safe to call when no
/// sink is installed; spans still alive simply stop emitting.
pub fn shutdown() {
    ENABLED.store(false, Ordering::Release);
    if let Some(mut w) = lock(&SINK).take() {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A writer handing every byte to a shared buffer, for sink tests.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub(crate) Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        pub(crate) fn contents(&self) -> String {
            String::from_utf8(lock(&self.0).clone()).expect("trace output is UTF-8")
        }
    }

    /// The sink and enable flag are process-global; tests that install
    /// sinks serialize on this gate.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_by_default_and_after_shutdown() {
        let _gate = serial();
        shutdown();
        assert!(!enabled());
        let buf = SharedBuf::default();
        install_writer(Box::new(buf.clone()));
        assert!(enabled());
        shutdown();
        assert!(!enabled());
        // emitting after shutdown is a silent no-op
        event("late", &[]);
        assert!(buf.contents().is_empty());
    }

    #[test]
    fn records_are_one_json_object_per_line() {
        let _gate = serial();
        let buf = SharedBuf::default();
        install_writer(Box::new(buf.clone()));
        event("alpha", &[("x", Value::from(3u64))]);
        drop(span("beta").with("label", "hi\"there\\"));
        shutdown();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"event\",\"name\":\"alpha\",\"elapsed\":"));
        assert!(lines[0].ends_with("\"x\":3}"));
        assert!(lines[1].starts_with("{\"kind\":\"span\",\"name\":\"beta\",\"elapsed\":"));
        assert!(lines[1].contains("\"label\":\"hi\\\"there\\\\\""));
    }

    #[test]
    fn flush_counters_snapshots_the_registry() {
        let _gate = serial();
        static FLUSHED: Counter = Counter::new("test.flushed");
        FLUSHED.add(5);
        let buf = SharedBuf::default();
        install_writer(Box::new(buf.clone()));
        flush_counters();
        shutdown();
        let text = buf.contents();
        assert!(
            text.lines().any(|l| l.contains("\"kind\":\"counter\"")
                && l.contains("\"name\":\"test.flushed\"")
                && l.contains("\"value\":5")),
            "missing counter record in: {text}"
        );
    }

    #[test]
    fn file_sink_round_trip() {
        let _gate = serial();
        let dir = std::env::temp_dir().join(format!("omnet-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        install_file(&path).expect("create sink");
        event("filed", &[("ok", Value::from(true))]);
        shutdown();
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"name\":\"filed\""));
        assert!(text.ends_with('\n'));
    }
}
