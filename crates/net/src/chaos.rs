//! Deterministic network fault injection for the TCP wire.
//!
//! The simulator (PR 4) can drop, delay, and corrupt messages because it
//! *is* the network; the real wire could not misbehave on demand until
//! now. This module wraps every socket the transport and the servers
//! touch in a [`ChaosStream`] driven by a seeded per-connection
//! [`FaultScript`], so hostile-network behaviour is reproducible: the
//! same [`NetChaos`] seed produces the same refusals, resets and
//! half-open silences, connection for connection.
//!
//! # Fault-script grammar
//!
//! A script is derived per connection from `(seed, label, conn_index)`,
//! where `label` names the link kind (`"shard"`, `"sched"`,
//! `"shard-accept"`, ...) and `conn_index` counts connections of that
//! label within the process. The knobs (see [`NetChaos`] fields):
//!
//! | knob              | effect                                              |
//! |-------------------|-----------------------------------------------------|
//! | `refuse`          | refuse reconnect attempts 1..=N per label (the      |
//! |                   | first connection of a label always succeeds)        |
//! | `reset`           | each write resets the connection with p = N/1000    |
//! | `reset_after`     | deterministically reset at the N-th write           |
//! | `half_open`       | after N writes: writes vanish, reads hang silent    |
//! | `after_ms`        | arm every fault only N ms after the process first   |
//! |                   | touches the chaos layer (≈ process start), so a     |
//! |                   | scenario can partition a healthy process at time T  |
//! |                   | and keep it partitioned across reconnects           |
//!
//! All counters are write-op indexed and all probabilistic draws hash
//! `(script seed, op index)`, so a script's decisions do not depend on
//! scheduling. With [`NetChaos::disabled`] (the default) the stream is a
//! transparent pass-through: no state, no draws, no behavioural change —
//! the golden byte-identity tests pin this down.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
// Fault injection is inherently wall-clock: it exists to distort real
// sockets in real time. The net crate is Library-classified, so Instant
// here is sanctioned (the deterministic part is the *decision* sequence).
use std::time::Instant;

/// Where a chaos configuration applies, so a scenario can break one
/// plane (say, every worker's scheduler link) while the other stays
/// healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaosScope {
    /// Afflict every link the process opens or accepts.
    #[default]
    All,
    /// Only data-plane links (labels containing `"shard"` or `"relay"`).
    Shard,
    /// Only control-plane links (labels containing `"sched"`).
    Sched,
}

impl ChaosScope {
    fn applies_to(self, label: &str) -> bool {
        match self {
            ChaosScope::All => true,
            ChaosScope::Shard => label.contains("shard") || label.contains("relay"),
            ChaosScope::Sched => label.contains("sched"),
        }
    }

    fn key(self) -> &'static str {
        match self {
            ChaosScope::All => "all",
            ChaosScope::Shard => "shard",
            ChaosScope::Sched => "sched",
        }
    }
}

/// Seeded fault-injection knobs for one process's sockets. All-zero
/// (the [`Default`]) means disabled: streams pass through untouched.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetChaos {
    /// Master seed; every per-connection script derives from it.
    pub seed: u64,
    /// Which links the faults apply to.
    pub scope: ChaosScope,
    /// Refuse this many *reconnect* attempts per label (indices
    /// `1..=refuse`; the first connection of each label succeeds so a
    /// process can always bootstrap).
    pub connect_refusals: u32,
    /// Per-write probability of a mid-stream reset, in permille (50 = 5%).
    pub reset_permille: u32,
    /// Deterministically reset the connection at this 0-based write index.
    pub reset_after: Option<u64>,
    /// After this many writes the link goes half-open: writes are
    /// swallowed, reads hang and then time out. The peer sees silence,
    /// not an error — the cruellest partition shape.
    pub half_open_after: Option<u64>,
    /// Arm all faults only this many milliseconds after the process first
    /// touches the chaos layer (0 = immediately). The delay is measured
    /// from a process-wide epoch, not per connection, so a partition
    /// scripted at time T stays in force for later reconnects too.
    pub after_ms: u64,
}

impl NetChaos {
    /// The disabled configuration: every stream passes through untouched.
    pub fn disabled() -> Self {
        NetChaos::default()
    }

    /// Whether any fault knob is set.
    pub fn is_enabled(&self) -> bool {
        self.connect_refusals > 0
            || self.reset_permille > 0
            || self.reset_after.is_some()
            || self.half_open_after.is_some()
    }

    /// Serializes to the compact `key=value,...` spec the `net_soak`
    /// harness passes to its role processes. [`from_spec`](Self::from_spec)
    /// round-trips it.
    pub fn to_spec(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("seed={},scope={}", self.seed, self.scope.key());
        if self.connect_refusals > 0 {
            let _ = write!(s, ",refuse={}", self.connect_refusals);
        }
        if self.reset_permille > 0 {
            let _ = write!(s, ",reset={}", self.reset_permille);
        }
        if let Some(n) = self.reset_after {
            let _ = write!(s, ",reset_after={n}");
        }
        if let Some(n) = self.half_open_after {
            let _ = write!(s, ",half_open={n}");
        }
        if self.after_ms > 0 {
            let _ = write!(s, ",after_ms={}", self.after_ms);
        }
        s
    }

    /// Parses the spec emitted by [`to_spec`](Self::to_spec).
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut chaos = NetChaos::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("chaos spec item `{part}` is not key=value"));
            };
            let parse_u64 = |v: &str| -> Result<u64, String> { v.parse().map_err(|_| bad(key, v)) };
            match key {
                "seed" => chaos.seed = parse_u64(value)?,
                "scope" => {
                    chaos.scope = match value {
                        "all" => ChaosScope::All,
                        "shard" => ChaosScope::Shard,
                        "sched" => ChaosScope::Sched,
                        other => return Err(bad(key, other)),
                    }
                }
                "refuse" => {
                    chaos.connect_refusals =
                        u32::try_from(parse_u64(value)?).map_err(|_| bad(key, value))?
                }
                "reset" => {
                    chaos.reset_permille =
                        u32::try_from(parse_u64(value)?).map_err(|_| bad(key, value))?
                }
                "reset_after" => chaos.reset_after = Some(parse_u64(value)?),
                "half_open" => chaos.half_open_after = Some(parse_u64(value)?),
                "after_ms" => chaos.after_ms = parse_u64(value)?,
                other => return Err(format!("unknown chaos spec key `{other}`")),
            }
        }
        Ok(chaos)
    }

    /// Validates the knobs (the reset probability is in range).
    pub fn try_validate(&self) -> Result<(), String> {
        if self.reset_permille > 1000 {
            return Err("chaos reset probability exceeds 1000 permille".to_string());
        }
        Ok(())
    }
}

fn bad(key: &str, value: &str) -> String {
    format!("bad chaos spec value for `{key}`: `{value}`")
}

/// The concrete fault plan of one connection: the chaos knobs plus a
/// per-connection seed, fixed at derive time so every decision is a pure
/// function of the write-op index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScript {
    /// Refuse this connection attempt outright.
    pub refuse_connect: bool,
    seed: u64,
    reset_permille: u32,
    reset_after: Option<u64>,
    half_open_after: Option<u64>,
    arm_after: Duration,
}

impl FaultScript {
    /// Derives the script for connection number `conn_index` of `label`.
    /// Deterministic: same `(chaos, label, conn_index)` → same script,
    /// including every later per-write draw.
    pub fn derive(chaos: &NetChaos, label: &str, conn_index: u64) -> Option<FaultScript> {
        if !chaos.is_enabled() || !chaos.scope.applies_to(label) {
            return None;
        }
        let seed = splitmix64(chaos.seed ^ fnv1a(label.as_bytes()) ^ conn_index.rotate_left(17));
        Some(FaultScript {
            refuse_connect: conn_index >= 1 && conn_index <= u64::from(chaos.connect_refusals),
            seed,
            reset_permille: chaos.reset_permille,
            reset_after: chaos.reset_after,
            half_open_after: chaos.half_open_after,
            arm_after: Duration::from_millis(chaos.after_ms),
        })
    }

    /// Whether write op `n` draws a probabilistic reset.
    fn reset_fires(&self, n: u64) -> bool {
        if self.reset_after == Some(n) {
            return true;
        }
        if self.reset_permille == 0 {
            return false;
        }
        splitmix64(self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 1000
            < u64::from(self.reset_permille)
    }
}

/// FNV-1a over bytes — the same label-hashing idiom `RngStreams` uses,
/// hand-rolled so the net crate stays free of a rand dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer — cheap decorrelation for per-op draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How long a half-open read pretends to wait before timing out, so the
/// caller's recv-deadline machinery (not an error from the kernel) is
/// what notices the silence.
const HALF_OPEN_READ_HANG: Duration = Duration::from_millis(100);

/// The process-wide chaos epoch: `after_ms` arms faults this long after
/// the process first touches the chaos layer (≈ process start), not per
/// connection. Per-connection arming would hand every *reconnect* a
/// fresh healthy window, so a scripted partition could never hold — the
/// scenario semantics are "this process breaks at time T and stays
/// broken".
fn chaos_epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Shared mutable state of one chaotic connection; clones of the stream
/// (split reader/writer) share it so the op counter is per-connection.
#[derive(Debug)]
struct ChaosState {
    script: FaultScript,
    writes: AtomicU64,
    /// Latched once the half-open threshold is crossed so the read side
    /// starts hanging without racing the write counter.
    half_open: AtomicBool,
    /// The process chaos epoch (shared origin for `after_ms` arming).
    epoch: Instant,
}

impl ChaosState {
    fn armed(&self) -> bool {
        self.script.arm_after.is_zero() || self.epoch.elapsed() >= self.script.arm_after
    }
}

/// A `TcpStream` wrapper that executes a [`FaultScript`]. With no script
/// (chaos disabled) every call delegates straight to the socket.
#[derive(Debug)]
pub struct ChaosStream {
    inner: TcpStream,
    state: Option<Arc<ChaosState>>,
}

impl ChaosStream {
    /// Wraps `stream`, driving it with `script` (`None` = pass-through).
    pub fn new(stream: TcpStream, script: Option<FaultScript>) -> Self {
        ChaosStream {
            inner: stream,
            state: script.map(|script| {
                Arc::new(ChaosState {
                    script,
                    writes: AtomicU64::new(0),
                    half_open: AtomicBool::new(false),
                    epoch: chaos_epoch(),
                })
            }),
        }
    }

    /// A pass-through wrapper (chaos disabled).
    pub fn passthrough(stream: TcpStream) -> Self {
        ChaosStream::new(stream, None)
    }

    /// Clones the stream; the clone shares the connection's fault state,
    /// so split reader/writer halves see one coherent script.
    pub fn try_clone(&self) -> io::Result<ChaosStream> {
        Ok(ChaosStream {
            inner: self.inner.try_clone()?,
            state: self.state.clone(),
        })
    }

    /// Passthrough to [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    /// Passthrough to [`TcpStream::set_write_timeout`].
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(dur)
    }

    /// Passthrough to [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.inner.set_nodelay(on)
    }

    /// Passthrough to [`TcpStream::set_nonblocking`].
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.inner.set_nonblocking(on)
    }

    /// Passthrough to [`TcpStream::shutdown`].
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }

    /// Passthrough to [`TcpStream::peer_addr`].
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(state) = &self.state else {
            return self.inner.read(buf);
        };
        if state.half_open.load(Ordering::Acquire) && state.armed() {
            // The peer of a half-open link sees pure silence: pretend to
            // wait, then let the caller's deadline machinery take over.
            std::thread::sleep(HALF_OPEN_READ_HANG);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "chaos: half-open link is silent",
            ));
        }
        self.inner.read(buf)
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(state) = Option::as_ref(&self.state).map(Arc::clone) else {
            return self.inner.write(buf);
        };
        if !state.armed() {
            return self.inner.write(buf);
        }
        let script = &state.script;
        let n = state.writes.fetch_add(1, Ordering::AcqRel);
        if let Some(threshold) = script.half_open_after {
            if n >= threshold {
                state.half_open.store(true, Ordering::Release);
                // Swallow the bytes: the writer believes they left.
                return Ok(buf.len());
            }
        }
        if script.reset_fires(n) {
            let _ = self.inner.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: scripted mid-stream reset",
            ));
        }
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A `TcpListener` wrapper: accepted streams get the next per-label
/// [`FaultScript`], so server-side connections misbehave on the same
/// deterministic schedule as client-side ones.
#[derive(Debug)]
pub struct ChaosListener {
    inner: TcpListener,
    chaos: NetChaos,
    label: &'static str,
    accepted: AtomicU64,
}

impl ChaosListener {
    /// Wraps a bound listener. `label` names the accept plane (e.g.
    /// `"shard-accept"`); it selects the chaos scope and the script
    /// stream.
    pub fn new(inner: TcpListener, chaos: NetChaos, label: &'static str) -> Self {
        ChaosListener {
            inner,
            chaos,
            label,
            accepted: AtomicU64::new(0),
        }
    }

    /// Accepts one connection, wrapped in its script. A scripted
    /// "refusal" on the accept side closes the connection immediately
    /// after accepting — the client sees an instant disconnect.
    pub fn accept(&self) -> io::Result<(ChaosStream, SocketAddr)> {
        loop {
            let (stream, peer) = self.inner.accept()?;
            let idx = self.accepted.fetch_add(1, Ordering::AcqRel);
            let script = FaultScript::derive(&self.chaos, self.label, idx);
            if script.as_ref().is_some_and(|s| s.refuse_connect) {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            return Ok((ChaosStream::new(stream, script), peer));
        }
    }

    /// Local address of the wrapped listener.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

/// Per-process, per-label connection sequence numbers for *outbound*
/// connections, so reconnects advance the script stream deterministically
/// (connection 0 is the bootstrap connect, 1.. are reconnects).
#[derive(Debug, Default)]
pub struct ConnSeq {
    counts: parking_lot::Mutex<std::collections::BTreeMap<String, u64>>,
}

impl ConnSeq {
    /// A fresh counter set (one per process/transport).
    pub fn new() -> Self {
        ConnSeq::default()
    }

    /// The next connection index for `label` (0-based, monotone).
    pub fn next(&self, label: &str) -> u64 {
        let mut counts = self.counts.lock();
        let entry = counts.entry(label.to_string()).or_insert(0);
        let idx = *entry;
        *entry += 1;
        idx
    }
}

/// Outbound connect through the chaos layer: derives the script for the
/// next connection of `label` and applies connect-refusal before dialing.
pub fn chaos_connect(
    addr: &str,
    chaos: &NetChaos,
    label: &str,
    seq: &ConnSeq,
) -> io::Result<ChaosStream> {
    let script = FaultScript::derive(chaos, label, seq.next(label));
    if script.as_ref().is_some_and(|s| s.refuse_connect) {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "chaos: scripted connect refusal",
        ));
    }
    Ok(ChaosStream::new(TcpStream::connect(addr)?, script))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let chaos = NetChaos {
            seed: 99,
            scope: ChaosScope::Sched,
            connect_refusals: 3,
            reset_permille: 50,
            reset_after: Some(12),
            half_open_after: Some(40),
            after_ms: 300,
        };
        let spec = chaos.to_spec();
        assert_eq!(NetChaos::from_spec(&spec).unwrap(), chaos);
        assert_eq!(
            NetChaos::from_spec("seed=7,scope=all").unwrap(),
            NetChaos {
                seed: 7,
                ..NetChaos::default()
            }
        );
        assert!(NetChaos::from_spec("seed=x").is_err());
        assert!(NetChaos::from_spec("warp=1").is_err());
        assert!(NetChaos::from_spec("reset_after=nope").is_err());
    }

    #[test]
    fn disabled_chaos_derives_no_script() {
        assert!(!NetChaos::disabled().is_enabled());
        assert!(FaultScript::derive(&NetChaos::disabled(), "shard", 0).is_none());
    }

    #[test]
    fn scope_filters_labels() {
        let chaos = NetChaos {
            seed: 1,
            scope: ChaosScope::Sched,
            reset_permille: 100,
            ..NetChaos::default()
        };
        assert!(FaultScript::derive(&chaos, "sched", 0).is_some());
        assert!(FaultScript::derive(&chaos, "shard", 0).is_none());
        assert!(FaultScript::derive(&chaos, "relay", 0).is_none());
    }

    #[test]
    fn scripts_are_deterministic_and_distinct_per_connection() {
        let chaos = NetChaos {
            seed: 5,
            reset_permille: 200,
            ..NetChaos::default()
        };
        let a = FaultScript::derive(&chaos, "shard", 0).unwrap();
        let b = FaultScript::derive(&chaos, "shard", 0).unwrap();
        assert_eq!(a, b, "same inputs, same script");
        let fires = |s: &FaultScript| (0..64).map(|n| s.reset_fires(n)).collect::<Vec<_>>();
        let c = FaultScript::derive(&chaos, "shard", 1).unwrap();
        assert_ne!(fires(&a), fires(&c), "connections draw distinct streams");
        let d = FaultScript::derive(&chaos, "sched", 0).unwrap();
        assert_ne!(fires(&a), fires(&d), "labels draw distinct streams");
    }

    #[test]
    fn refusals_spare_the_bootstrap_connection() {
        let chaos = NetChaos {
            seed: 3,
            connect_refusals: 2,
            ..NetChaos::default()
        };
        let refuse = |idx| FaultScript::derive(&chaos, "sched", idx).map(|s| s.refuse_connect);
        assert_eq!(refuse(0), Some(false));
        assert_eq!(refuse(1), Some(true));
        assert_eq!(refuse(2), Some(true));
        assert_eq!(refuse(3), Some(false));
    }

    #[test]
    fn conn_seq_counts_per_label() {
        let seq = ConnSeq::new();
        assert_eq!(seq.next("a"), 0);
        assert_eq!(seq.next("a"), 1);
        assert_eq!(seq.next("b"), 0);
        assert_eq!(seq.next("a"), 2);
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        let mut chaos = NetChaos {
            reset_permille: 1001,
            ..NetChaos::default()
        };
        assert!(chaos.try_validate().is_err());
        chaos.reset_permille = 1000;
        assert!(chaos.try_validate().is_ok());
    }
}
