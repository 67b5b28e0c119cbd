//! Streaming JSON-lines traces: one flat JSON object per event.
//!
//! The workspace builds offline against a no-op `serde` stub, so the
//! format is hand-rolled. It is deliberately minimal — flat objects,
//! fixed key order per event kind, integers and shortest-round-trip
//! floats — which buys the property the golden tests pin down: the same
//! seed produces a **byte-identical** trace file in the simulator.
//!
//! ```text
//! {"t":1500000,"ev":"pull","w":0,"staleness":3}
//! {"t":1500000,"ev":"state","w":0,"state":"pulling"}
//! {"t":1739211,"ev":"push","w":2,"iter":17}
//! {"t":1739211,"ev":"epoch_tuned","epoch":2,"abort_time_us":150000,"abort_rate":0.1875,"est_gain":3.25}
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use parking_lot::Mutex;
use specsync_simnet::{MessageClass, SimDuration, WorkerId};

use crate::event::{Event, FaultKind, Timestamp, WorkerPhase};
use crate::sink::EventSink;

/// A trace I/O or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An underlying I/O failure (message of the `std::io::Error`).
    Io(String),
    /// A malformed trace line.
    Parse {
        /// 1-based line number in the trace file.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(msg) => write!(f, "trace i/o error: {msg}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e.to_string())
    }
}

/// One parsed trace entry: microsecond timestamp plus event payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Microseconds since the start of the run (virtual or wall,
    /// depending on the host that wrote the trace).
    pub micros: u64,
    /// The event.
    pub event: Event,
}

/// Formats an `f64` for the trace: shortest-round-trip decimal, `null`
/// for non-finite values (JSON has no NaN/Infinity).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // Keep the token a JSON number that parses back as f64 even for
        // integral values like `3` (valid JSON; str::parse handles it).
    } else {
        out.push_str("null");
    }
}

/// Encodes one event as a single JSON line (no trailing newline).
pub fn encode_line(micros: u64, event: &Event) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{{\"t\":{micros},\"ev\":\"{}\"", event.tag());
    match event {
        Event::Pull { worker, staleness } => {
            let _ = write!(s, ",\"w\":{},\"staleness\":{staleness}", worker.index());
        }
        Event::Push { worker, iteration } => {
            let _ = write!(s, ",\"w\":{},\"iter\":{iteration}", worker.index());
        }
        Event::Notify { worker } | Event::AbortIssued { worker } => {
            let _ = write!(s, ",\"w\":{}", worker.index());
        }
        Event::Resync { worker, wasted } => {
            let _ = write!(
                s,
                ",\"w\":{},\"wasted_us\":{}",
                worker.index(),
                wasted.as_micros()
            );
        }
        Event::EpochTuned {
            epoch,
            abort_time,
            abort_rate,
            estimated_gain,
        } => {
            let _ = write!(
                s,
                ",\"epoch\":{epoch},\"abort_time_us\":{},\"abort_rate\":",
                abort_time.as_micros()
            );
            push_f64(&mut s, *abort_rate);
            s.push_str(",\"est_gain\":");
            match estimated_gain {
                Some(g) => push_f64(&mut s, *g),
                None => s.push_str("null"),
            }
        }
        Event::Eval { iterations, loss } => {
            let _ = write!(s, ",\"iter\":{iterations},\"loss\":");
            push_f64(&mut s, *loss);
        }
        Event::WorkerState { worker, state } => {
            let _ = write!(
                s,
                ",\"w\":{},\"state\":\"{}\"",
                worker.index(),
                state.label()
            );
        }
        Event::Fault {
            worker,
            class,
            kind,
        } => {
            let _ = write!(
                s,
                ",\"w\":{},\"class\":\"{}\",\"kind\":\"{}\"",
                worker.index(),
                class.label(),
                kind.label()
            );
            if let FaultKind::DelaySpike(extra) = kind {
                let _ = write!(s, ",\"extra_us\":{}", extra.as_micros());
            }
        }
        Event::WorkerCrashed { worker } => {
            let _ = write!(s, ",\"w\":{}", worker.index());
        }
        Event::WorkerRecovered { worker, epoch } | Event::PushFenced { worker, epoch } => {
            let _ = write!(s, ",\"w\":{},\"epoch\":{epoch}", worker.index());
        }
        Event::Straggler {
            worker,
            slowdown,
            duration,
        } => {
            let _ = write!(s, ",\"w\":{},\"slowdown\":", worker.index());
            push_f64(&mut s, *slowdown);
            let _ = write!(s, ",\"duration_us\":{}", duration.as_micros());
        }
        Event::Membership {
            worker,
            alive,
            active,
        } => {
            let _ = write!(
                s,
                ",\"w\":{},\"alive\":{alive},\"active\":{active}",
                worker.index()
            );
        }
        Event::NotifyLoss { worker, missing } => {
            let _ = write!(s, ",\"w\":{},\"missing\":{missing}", worker.index());
        }
        Event::RetryScheduled {
            worker,
            class,
            attempt,
        } => {
            let _ = write!(
                s,
                ",\"w\":{},\"class\":\"{}\",\"attempt\":{attempt}",
                worker.index(),
                class.label()
            );
        }
        Event::ShardFailover {
            shard,
            version,
            replayed,
        } => {
            let _ = write!(
                s,
                ",\"shard\":{shard},\"version\":{version},\"replayed\":{replayed}"
            );
        }
        Event::CheckpointWritten { version, bytes } => {
            let _ = write!(s, ",\"version\":{version},\"bytes\":{bytes}");
        }
        Event::HistoryEvicted {
            pushes,
            pulls,
            retained,
        } => {
            let _ = write!(
                s,
                ",\"pushes\":{pushes},\"pulls\":{pulls},\"retained\":{retained}"
            );
        }
        Event::SchedCost { nanos } => {
            let _ = write!(s, ",\"nanos\":{nanos}");
        }
        Event::FrameSent {
            worker,
            class,
            bytes,
        }
        | Event::FrameReceived {
            worker,
            class,
            bytes,
        } => {
            let _ = write!(
                s,
                ",\"w\":{},\"class\":\"{}\",\"bytes\":{bytes}",
                worker.index(),
                class.label()
            );
        }
        Event::ConnRetry { worker, attempt } => {
            let _ = write!(s, ",\"w\":{},\"attempt\":{attempt}", worker.index());
        }
        Event::ConnReset { worker, class } => {
            let _ = write!(
                s,
                ",\"w\":{},\"class\":\"{}\"",
                worker.index(),
                class.label()
            );
        }
        Event::RetryExhausted {
            worker,
            class,
            attempts,
        } => {
            let _ = write!(
                s,
                ",\"w\":{},\"class\":\"{}\",\"attempts\":{attempts}",
                worker.index(),
                class.label()
            );
        }
        Event::DegradedMode { worker, entered } => {
            let _ = write!(s, ",\"w\":{},\"entered\":{entered}", worker.index());
        }
        Event::BackupJoined { shard, epoch } => {
            let _ = write!(s, ",\"shard\":{shard},\"epoch\":{epoch}");
        }
        Event::CatchUpComplete { shard, version } => {
            let _ = write!(s, ",\"shard\":{shard},\"version\":{version}");
        }
        Event::ProcessRestarted { shard, attempt } => {
            let _ = write!(s, ",\"shard\":{shard},\"attempt\":{attempt}");
        }
    }
    s.push('}');
    s
}

/// Splits a flat JSON object into `(key, raw value)` pairs.
///
/// Supports exactly the subset [`encode_line`] emits: string keys,
/// unquoted number/`null` values and quoted string values without escape
/// sequences. Anything else is an error.
fn split_pairs(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "line is not a JSON object".to_string())?;
    let mut pairs = Vec::new();
    for part in inner.split(',') {
        if part.trim().is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once(':')
            .ok_or_else(|| format!("missing `:` in `{part}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("key `{key}` is not a JSON string"))?;
        pairs.push((key, value.trim()));
    }
    Ok(pairs)
}

fn find<'a>(pairs: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    pairs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn parse_u64(pairs: &[(&str, &str)], key: &str) -> Result<u64, String> {
    let raw = find(pairs, key)?;
    raw.parse()
        .map_err(|_| format!("field `{key}` is not an integer: `{raw}`"))
}

fn parse_f64(pairs: &[(&str, &str)], key: &str) -> Result<f64, String> {
    let raw = find(pairs, key)?;
    if raw == "null" {
        return Ok(f64::NAN);
    }
    raw.parse()
        .map_err(|_| format!("field `{key}` is not a number: `{raw}`"))
}

fn parse_str<'a>(pairs: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    let raw = find(pairs, key)?;
    raw.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("field `{key}` is not a string: `{raw}`"))
}

fn parse_worker(pairs: &[(&str, &str)]) -> Result<WorkerId, String> {
    let idx = parse_u64(pairs, "w")?;
    usize::try_from(idx)
        .map(WorkerId::new)
        .map_err(|_| format!("worker index {idx} out of range"))
}

fn parse_bool(pairs: &[(&str, &str)], key: &str) -> Result<bool, String> {
    match find(pairs, key)? {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("field `{key}` is not a boolean: `{other}`")),
    }
}

fn parse_class(pairs: &[(&str, &str)]) -> Result<MessageClass, String> {
    let label = parse_str(pairs, "class")?;
    MessageClass::from_label(label).ok_or_else(|| format!("unknown message class `{label}`"))
}

/// Parses one line of a [`JsonlSink`] trace back into a [`TraceRecord`].
pub fn parse_trace_line(line: &str) -> Result<TraceRecord, String> {
    let pairs = split_pairs(line)?;
    let micros = parse_u64(&pairs, "t")?;
    let tag = parse_str(&pairs, "ev")?;
    let event = match tag {
        "pull" => Event::Pull {
            worker: parse_worker(&pairs)?,
            staleness: parse_u64(&pairs, "staleness")?,
        },
        "push" => Event::Push {
            worker: parse_worker(&pairs)?,
            iteration: parse_u64(&pairs, "iter")?,
        },
        "notify" => Event::Notify {
            worker: parse_worker(&pairs)?,
        },
        "abort_issued" => Event::AbortIssued {
            worker: parse_worker(&pairs)?,
        },
        "resync" => Event::Resync {
            worker: parse_worker(&pairs)?,
            wasted: SimDuration::from_micros(parse_u64(&pairs, "wasted_us")?),
        },
        "epoch_tuned" => {
            let gain = parse_f64(&pairs, "est_gain")?;
            Event::EpochTuned {
                epoch: parse_u64(&pairs, "epoch")?,
                abort_time: SimDuration::from_micros(parse_u64(&pairs, "abort_time_us")?),
                abort_rate: parse_f64(&pairs, "abort_rate")?,
                estimated_gain: if gain.is_nan() { None } else { Some(gain) },
            }
        }
        "eval" => Event::Eval {
            iterations: parse_u64(&pairs, "iter")?,
            loss: parse_f64(&pairs, "loss")?,
        },
        "state" => Event::WorkerState {
            worker: parse_worker(&pairs)?,
            state: WorkerPhase::from_label(parse_str(&pairs, "state")?)
                .ok_or_else(|| "unknown worker phase".to_string())?,
        },
        "fault" => {
            let kind = match parse_str(&pairs, "kind")? {
                "drop" => FaultKind::Drop,
                "duplicate" => FaultKind::Duplicate,
                "delay" => {
                    FaultKind::DelaySpike(SimDuration::from_micros(parse_u64(&pairs, "extra_us")?))
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            Event::Fault {
                worker: parse_worker(&pairs)?,
                class: parse_class(&pairs)?,
                kind,
            }
        }
        "crash" => Event::WorkerCrashed {
            worker: parse_worker(&pairs)?,
        },
        "recover" => Event::WorkerRecovered {
            worker: parse_worker(&pairs)?,
            epoch: parse_u64(&pairs, "epoch")?,
        },
        "straggler" => Event::Straggler {
            worker: parse_worker(&pairs)?,
            slowdown: parse_f64(&pairs, "slowdown")?,
            duration: SimDuration::from_micros(parse_u64(&pairs, "duration_us")?),
        },
        "membership" => Event::Membership {
            worker: parse_worker(&pairs)?,
            alive: parse_bool(&pairs, "alive")?,
            active: parse_u64(&pairs, "active")?,
        },
        "notify_loss" => Event::NotifyLoss {
            worker: parse_worker(&pairs)?,
            missing: parse_u64(&pairs, "missing")?,
        },
        "push_fenced" => Event::PushFenced {
            worker: parse_worker(&pairs)?,
            epoch: parse_u64(&pairs, "epoch")?,
        },
        "retry" => Event::RetryScheduled {
            worker: parse_worker(&pairs)?,
            class: parse_class(&pairs)?,
            attempt: u32::try_from(parse_u64(&pairs, "attempt")?)
                .map_err(|_| "retry attempt out of range".to_string())?,
        },
        "shard_failover" => Event::ShardFailover {
            shard: parse_u64(&pairs, "shard")?,
            version: parse_u64(&pairs, "version")?,
            replayed: parse_u64(&pairs, "replayed")?,
        },
        "checkpoint" => Event::CheckpointWritten {
            version: parse_u64(&pairs, "version")?,
            bytes: parse_u64(&pairs, "bytes")?,
        },
        "history_evicted" => Event::HistoryEvicted {
            pushes: parse_u64(&pairs, "pushes")?,
            pulls: parse_u64(&pairs, "pulls")?,
            retained: parse_u64(&pairs, "retained")?,
        },
        "sched_cost" => Event::SchedCost {
            nanos: parse_u64(&pairs, "nanos")?,
        },
        "frame_sent" => Event::FrameSent {
            worker: parse_worker(&pairs)?,
            class: parse_class(&pairs)?,
            bytes: parse_u64(&pairs, "bytes")?,
        },
        "frame_recv" => Event::FrameReceived {
            worker: parse_worker(&pairs)?,
            class: parse_class(&pairs)?,
            bytes: parse_u64(&pairs, "bytes")?,
        },
        "conn_retry" => Event::ConnRetry {
            worker: parse_worker(&pairs)?,
            attempt: u32::try_from(parse_u64(&pairs, "attempt")?)
                .map_err(|_| "conn retry attempt out of range".to_string())?,
        },
        "conn_reset" => Event::ConnReset {
            worker: parse_worker(&pairs)?,
            class: parse_class(&pairs)?,
        },
        "retry_exhausted" => Event::RetryExhausted {
            worker: parse_worker(&pairs)?,
            class: parse_class(&pairs)?,
            attempts: u32::try_from(parse_u64(&pairs, "attempts")?)
                .map_err(|_| "retry exhausted attempts out of range".to_string())?,
        },
        "degraded_mode" => Event::DegradedMode {
            worker: parse_worker(&pairs)?,
            entered: parse_bool(&pairs, "entered")?,
        },
        "backup_joined" => Event::BackupJoined {
            shard: parse_u64(&pairs, "shard")?,
            epoch: parse_u64(&pairs, "epoch")?,
        },
        "catchup_complete" => Event::CatchUpComplete {
            shard: parse_u64(&pairs, "shard")?,
            version: parse_u64(&pairs, "version")?,
        },
        "process_restarted" => Event::ProcessRestarted {
            shard: parse_u64(&pairs, "shard")?,
            attempt: u32::try_from(parse_u64(&pairs, "attempt")?)
                .map_err(|_| "restart attempt out of range".to_string())?,
        },
        other => return Err(format!("unknown event tag `{other}`")),
    };
    Ok(TraceRecord { micros, event })
}

/// Reads a whole JSONL trace file, skipping blank lines.
pub fn read_trace(path: &Path) -> Result<Vec<TraceRecord>, TraceError> {
    let file = File::open(path)?;
    let mut out = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            parse_trace_line(&line).map_err(|message| TraceError::Parse {
                line: i + 1,
                message,
            })?,
        );
    }
    Ok(out)
}

/// Capacity of the sink's buffer: the writer sees one `write` per ~64 KiB
/// of trace. Keeps syscalls out of the hot `record` path: the state lock
/// protects a memcpy, not I/O, except when the buffer fills.
const DRAIN_BYTES: usize = 64 * 1024;

struct JsonlState<W: Write> {
    writer: BufWriter<W>,
    lines: u64,
    /// First write failure; once set, further records are dropped and the
    /// error surfaces on [`JsonlSink::finish`].
    error: Option<String>,
}

/// Streams events to a writer as JSON lines.
///
/// Events are encoded outside the sink lock and buffered; the writer only
/// sees I/O when the buffer fills, on [`flush`](EventSink::flush), and on
/// [`finish`](Self::finish) — so concurrent recorders rarely stall on the
/// kernel, mostly on a short memcpy.
///
/// Write failures do not panic (sinks are called from library code): the
/// first error is remembered, subsequent events are dropped, and
/// [`finish`](Self::finish) reports it.
///
/// # Examples
///
/// ```
/// use specsync_simnet::{VirtualTime, WorkerId};
/// use specsync_telemetry::{Event, EventSink, JsonlSink};
///
/// let sink = JsonlSink::new(Vec::new());
/// sink.record(VirtualTime::from_secs(1), &Event::Notify { worker: WorkerId::new(0) });
/// let bytes = sink.finish().unwrap();
/// assert_eq!(
///     String::from_utf8(bytes).unwrap(),
///     "{\"t\":1000000,\"ev\":\"notify\",\"w\":0}\n"
/// );
/// ```
pub struct JsonlSink<W: Write> {
    state: Mutex<JsonlState<W>>,
}

impl JsonlSink<File> {
    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer in the sink's buffer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            state: Mutex::new(JsonlState {
                writer: BufWriter::with_capacity(DRAIN_BYTES, writer),
                lines: 0,
                error: None,
            }),
        }
    }

    /// Number of lines accepted into the trace so far (buffered or
    /// written). A line lost to a later write failure still counts here;
    /// the failure itself surfaces on [`finish`](Self::finish).
    pub fn lines_written(&self) -> u64 {
        self.state.lock().lines
    }

    /// Drains the buffer, flushes, and returns the inner writer, or the
    /// first write error. No lock is held here — the sink has been consumed.
    pub fn finish(self) -> Result<W, TraceError> {
        let state = self.state.into_inner();
        if let Some(msg) = state.error {
            return Err(TraceError::Io(msg));
        }
        let mut writer = state
            .writer
            .into_inner()
            .map_err(|e| TraceError::Io(e.error().to_string()))?;
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("JsonlSink")
            .field("lines", &state.lines)
            .field("error", &state.error)
            .finish_non_exhaustive()
    }
}

impl<T: Timestamp, W: Write + Send> EventSink<T> for JsonlSink<W> {
    fn record(&self, at: T, event: &Event) {
        // Encoding happens before the lock: the critical section is an
        // append plus, once per DRAIN_BYTES, the buffer's drain — the one
        // I/O-under-lock site.
        let line = encode_line(at.as_trace_micros(), event);
        let mut state = self.state.lock();
        if state.error.is_some() {
            return;
        }
        state.lines += 1;
        let writer = &mut state.writer;
        let res = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"));
        if let Err(e) = res {
            state.error = Some(e.to_string());
        }
    }

    fn flush(&self) {
        let mut state = self.state.lock();
        // An explicit flush is a sanctioned stall under the lock; syncing
        // the inner writer is the point of this method.
        if state.error.is_none() {
            if let Err(e) = state.writer.flush() {
                state.error = Some(e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_simnet::VirtualTime;

    fn round_trip(event: Event) {
        let line = encode_line(123_456, &event);
        let parsed = parse_trace_line(&line).expect("round trip parse");
        assert_eq!(parsed.micros, 123_456);
        assert_eq!(parsed.event, event, "line was: {line}");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let w = WorkerId::new(7);
        round_trip(Event::Pull {
            worker: w,
            staleness: 12,
        });
        round_trip(Event::Push {
            worker: w,
            iteration: 99,
        });
        round_trip(Event::Notify { worker: w });
        round_trip(Event::AbortIssued { worker: w });
        round_trip(Event::Resync {
            worker: w,
            wasted: SimDuration::from_millis(250),
        });
        round_trip(Event::EpochTuned {
            epoch: 3,
            abort_time: SimDuration::from_micros(150_000),
            abort_rate: 0.1875,
            estimated_gain: Some(3.25),
        });
        round_trip(Event::EpochTuned {
            epoch: 4,
            abort_time: SimDuration::ZERO,
            abort_rate: 0.0,
            estimated_gain: None,
        });
        round_trip(Event::Eval {
            iterations: 41,
            loss: std::f64::consts::LN_2,
        });
        round_trip(Event::WorkerState {
            worker: w,
            state: WorkerPhase::Computing,
        });
        round_trip(Event::Fault {
            worker: w,
            class: MessageClass::Notify,
            kind: FaultKind::Drop,
        });
        round_trip(Event::Fault {
            worker: w,
            class: MessageClass::PushGrad,
            kind: FaultKind::Duplicate,
        });
        round_trip(Event::Fault {
            worker: w,
            class: MessageClass::Resync,
            kind: FaultKind::DelaySpike(SimDuration::from_millis(40)),
        });
        round_trip(Event::WorkerCrashed { worker: w });
        round_trip(Event::WorkerRecovered {
            worker: w,
            epoch: 2,
        });
        round_trip(Event::Straggler {
            worker: w,
            slowdown: 3.5,
            duration: SimDuration::from_secs(20),
        });
        round_trip(Event::Membership {
            worker: w,
            alive: false,
            active: 4,
        });
        round_trip(Event::Membership {
            worker: w,
            alive: true,
            active: 5,
        });
        round_trip(Event::NotifyLoss {
            worker: w,
            missing: 3,
        });
        round_trip(Event::PushFenced {
            worker: w,
            epoch: 1,
        });
        round_trip(Event::RetryScheduled {
            worker: w,
            class: MessageClass::PullParams,
            attempt: 2,
        });
        round_trip(Event::ShardFailover {
            shard: 2,
            version: 512,
            replayed: 17,
        });
        round_trip(Event::CheckpointWritten {
            version: 512,
            bytes: 4096,
        });
        round_trip(Event::HistoryEvicted {
            pushes: 640,
            pulls: 512,
            retained: 1280,
        });
        round_trip(Event::SchedCost { nanos: 1_850 });
        round_trip(Event::FrameSent {
            worker: w,
            class: MessageClass::PullParams,
            bytes: 4_096,
        });
        round_trip(Event::FrameReceived {
            worker: w,
            class: MessageClass::PushGrad,
            bytes: 2_052,
        });
        round_trip(Event::ConnRetry {
            worker: w,
            attempt: 3,
        });
        round_trip(Event::ConnReset {
            worker: w,
            class: MessageClass::PullParams,
        });
        round_trip(Event::RetryExhausted {
            worker: w,
            class: MessageClass::PushGrad,
            attempts: 7,
        });
        round_trip(Event::DegradedMode {
            worker: w,
            entered: true,
        });
        round_trip(Event::DegradedMode {
            worker: w,
            entered: false,
        });
        round_trip(Event::BackupJoined { shard: 2, epoch: 1 });
        round_trip(Event::CatchUpComplete {
            shard: 2,
            version: 512,
        });
        round_trip(Event::ProcessRestarted {
            shard: 3,
            attempt: 2,
        });
    }

    #[test]
    fn non_finite_loss_serializes_as_null() {
        let line = encode_line(
            1,
            &Event::Eval {
                iterations: 1,
                loss: f64::NAN,
            },
        );
        assert!(line.contains("\"loss\":null"), "{line}");
        let parsed = parse_trace_line(&line).unwrap();
        match parsed.event {
            Event::Eval { loss, .. } => assert!(loss.is_nan()),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_trace_line("not json").is_err());
        assert!(parse_trace_line("{\"t\":1}").is_err());
        assert!(parse_trace_line("{\"t\":1,\"ev\":\"warp\"}").is_err());
        assert!(parse_trace_line("{\"t\":1,\"ev\":\"notify\"}").is_err());
    }

    #[test]
    fn sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        for i in 0..3u64 {
            EventSink::record(
                &sink,
                VirtualTime::from_secs(i),
                &Event::Notify {
                    worker: WorkerId::new(0),
                },
            );
        }
        assert_eq!(sink.lines_written(), 3);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            parse_trace_line(line).expect("sink output parses");
        }
    }

    #[test]
    fn a_trace_longer_than_the_buffer_drains_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Keeps every byte and counts the `write` calls that delivered them.
        struct Logged {
            bytes: Vec<u8>,
            writes: Arc<AtomicUsize>,
        }
        impl Write for Logged {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let writes = Arc::new(AtomicUsize::new(0));
        let sink = JsonlSink::new(Logged {
            bytes: Vec::new(),
            writes: Arc::clone(&writes),
        });
        let mut expected = String::new();
        let mut micros = 0u64;
        while expected.len() < 3 * DRAIN_BYTES {
            let event = Event::Pull {
                worker: WorkerId::new((micros % 7) as usize),
                staleness: micros % 13,
            };
            EventSink::record(&sink, VirtualTime::from_micros(micros), &event);
            expected.push_str(&encode_line(micros, &event));
            expected.push('\n');
            micros += 1;
        }
        let before_finish = writes.load(Ordering::Relaxed);
        let bound = expected.len().div_ceil(DRAIN_BYTES) + 1;
        assert!(
            before_finish >= 2,
            "{before_finish} writes: the buffer never drained"
        );
        assert!(before_finish <= bound, "{before_finish} writes > {bound}");
        let written = sink.finish().unwrap();
        assert_eq!(written.bytes, expected.as_bytes());
    }

    #[test]
    fn write_errors_surface_on_finish() {
        #[derive(Debug)]
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Failing);
        EventSink::record(
            &sink,
            VirtualTime::ZERO,
            &Event::Notify {
                worker: WorkerId::new(0),
            },
        );
        // The line is accepted into the buffer; the failure only shows up
        // when the drain on `finish` actually touches the writer.
        assert_eq!(sink.lines_written(), 1);
        match sink.finish() {
            Err(TraceError::Io(msg)) => assert!(msg.contains("disk on fire")),
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn flush_surfaces_write_errors_early() {
        #[derive(Debug)]
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Failing);
        EventSink::record(
            &sink,
            VirtualTime::ZERO,
            &Event::Notify {
                worker: WorkerId::new(0),
            },
        );
        EventSink::<VirtualTime>::flush(&sink);
        // Once the drain has failed, later records are dropped.
        EventSink::record(
            &sink,
            VirtualTime::ZERO,
            &Event::Notify {
                worker: WorkerId::new(0),
            },
        );
        assert_eq!(sink.lines_written(), 1);
        assert!(matches!(sink.finish(), Err(TraceError::Io(_))));
    }
}
