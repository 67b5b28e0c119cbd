//! Fixture regression tests for the semantic passes (DESIGN.md §15):
//! lock-order, blocking-under-lock, and event-exhaustiveness.
//!
//! Each pass gets a true-positive (a seeded violation the pass must
//! catch, at the right line), a true-negative (the idiomatic fix, which
//! must stay clean), and an allow-suppressed case (the same violation
//! under `specsync-allow`, which must produce *no* diagnostics — the
//! allow is consumed, so no unused-allow warning either).
//!
//! Fixtures run through [`xtask::analyze_sources`] with
//! [`Passes::Semantic`] so the per-file scanner lints (covered by
//! `tests/fixtures.rs`) don't add noise.

use std::path::Path;
use std::time::Instant;

use xtask::lints::{Diagnostic, Lint, Options};
use xtask::workspace::CrateClass;
use xtask::{analyze_sources, Passes, SourceSpec};

fn spec(label: &str, source: &str) -> SourceSpec {
    SourceSpec {
        label: label.to_string(),
        source: source.to_string(),
        class: CrateClass::Deterministic,
        event_only: false,
    }
}

fn event_only_spec(label: &str, source: &str) -> SourceSpec {
    SourceSpec {
        label: label.to_string(),
        source: source.to_string(),
        class: CrateClass::Harness,
        event_only: true,
    }
}

fn run(specs: &[SourceSpec]) -> Vec<Diagnostic> {
    analyze_sources(specs, Options::default(), Passes::Semantic)
}

/// 1-based line of the first source line containing `marker`.
fn line_of(source: &str, marker: &str) -> usize {
    source
        .lines()
        .position(|l| l.contains(marker))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("marker {marker:?} not in fixture"))
}

fn only_lint(diags: &[Diagnostic], lint: Lint) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

// ---------------------------------------------------------------------------
// Pass 1: lock-order
// ---------------------------------------------------------------------------

#[test]
fn lock_order_cycle_across_two_methods_is_caught() {
    let src = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
    fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }
}
"#;
    let diags = run(&[spec("fix/cycle.rs", src)]);
    let hits = only_lint(&diags, Lint::LockOrder);
    assert!(
        hits.iter().any(|d| d.message.contains("lock-order cycle")
            && d.message.contains("S.a")
            && d.message.contains("S.b")),
        "expected a cycle diagnostic naming both classes, got: {diags:?}"
    );
}

#[test]
fn double_acquire_through_a_transitive_call_is_caught() {
    let src = r#"
struct T { m: Mutex<u32> }
impl T {
    fn outer(&self) {
        let g = self.m.lock();
        self.inner();
    }
    fn inner(&self) {
        let g = self.m.lock();
        drop(g);
    }
}
"#;
    let diags = run(&[spec("fix/reacquire.rs", src)]);
    let hits = only_lint(&diags, Lint::LockOrder);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(src, "self.inner()"));
    assert!(hits[0].message.contains("re-acquires lock class `T.m`"));
}

#[test]
fn direct_double_acquire_is_caught_at_the_second_site() {
    let src = r#"
struct T { m: Mutex<u32> }
impl T {
    fn twice(&self) {
        let g1 = self.m.lock();
        let g2 = self.m.lock();
    }
}
"#;
    let diags = run(&[spec("fix/double.rs", src)]);
    let hits = only_lint(&diags, Lint::LockOrder);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(src, "let g2"));
    assert!(hits[0].message.contains("self-deadlock"));
}

#[test]
fn consistent_lock_order_is_clean() {
    let src = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn first(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
    fn second(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
}
"#;
    let diags = run(&[spec("fix/ordered.rs", src)]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn release_before_reacquire_is_clean() {
    let src = r#"
struct T { m: Mutex<u32> }
impl T {
    fn seq(&self) {
        let g = self.m.lock();
        drop(g);
        let g = self.m.lock();
    }
}
"#;
    let diags = run(&[spec("fix/seq.rs", src)]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn lock_order_allow_suppresses_and_is_consumed() {
    let src = r#"
struct T { m: Mutex<u32> }
impl T {
    fn outer(&self) {
        let g = self.m.lock();
        // specsync-allow(lock-order): fixture — reentrant by construction
        self.inner();
    }
    fn inner(&self) {
        let g = self.m.lock();
        drop(g);
    }
}
"#;
    let diags = run(&[spec("fix/allowed-cycle.rs", src)]);
    assert!(
        diags.is_empty(),
        "allow must suppress cleanly, got: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Pass 2: blocking-under-lock
// ---------------------------------------------------------------------------

#[test]
fn direct_blocking_call_under_lock_is_caught() {
    let src = r#"
fn pump(mu: &Mutex<u32>, tx: &Sender<u32>) {
    let g = mu.lock();
    tx.send(1).unwrap();
}
"#;
    let diags = run(&[spec("fix/block-direct.rs", src)]);
    let hits = only_lint(&diags, Lint::BlockingUnderLock);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(src, "tx.send"));
    assert!(hits[0].message.contains("while holding lock class(es)"));
}

#[test]
fn transitive_blocking_call_under_lock_is_caught() {
    let src = r#"
fn notify(tx: &Sender<u32>) {
    tx.send(1).unwrap();
}
fn pump(mu: &Mutex<u32>, tx: &Sender<u32>) {
    let g = mu.lock();
    notify(tx);
}
"#;
    let diags = run(&[spec("fix/block-transitive.rs", src)]);
    let hits = only_lint(&diags, Lint::BlockingUnderLock);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(src, "notify(tx)"));
    assert!(
        hits[0].message.contains("may reach") && hits[0].message.contains("notify"),
        "got: {}",
        hits[0].message
    );
}

#[test]
fn blocking_after_guard_drop_is_clean() {
    let src = r#"
fn pump(mu: &Mutex<u32>, tx: &Sender<u32>) {
    let g = mu.lock();
    drop(g);
    tx.send(1).unwrap();
}
fn scoped(mu: &Mutex<u32>, tx: &Sender<u32>) {
    {
        let g = mu.lock();
    }
    tx.send(2).unwrap();
}
"#;
    let diags = run(&[spec("fix/block-clean.rs", src)]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn blocking_under_lock_allow_suppresses_and_is_consumed() {
    let src = r#"
fn pump(mu: &Mutex<u32>, tx: &Sender<u32>) {
    let g = mu.lock();
    // specsync-allow(blocking-under-lock): fixture — bounded channel, sanctioned stall
    tx.send(1).unwrap();
}
"#;
    let diags = run(&[spec("fix/block-allowed.rs", src)]);
    assert!(
        diags.is_empty(),
        "allow must suppress cleanly, got: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Pass 3: event-exhaustiveness
// ---------------------------------------------------------------------------

const EVENT_ENUM_FIXTURE: &str = r#"
pub enum Event {
    Push { worker: u64 },
    Pull { worker: u64 },
    Notify { worker: u64 },
}
"#;

#[test]
fn sink_record_missing_a_variant_is_caught() {
    let sink = r#"
struct CountingSink;
impl EventSink for CountingSink {
    fn record(&self, event: &Event) {
        match event {
            Event::Push { .. } => {}
            Event::Pull { .. } => {}
            Event::Notify { .. } => {}
        }
    }
}
struct PartialSink;
impl EventSink for PartialSink {
    fn record(&self, ev: &Event) {
        match ev {
            Event::Push { .. } => {}
            Event::Pull { .. } => {}
        }
    }
}
"#;
    let diags = run(&[
        spec("fix/event.rs", EVENT_ENUM_FIXTURE),
        spec("fix/sinks.rs", sink),
    ]);
    let hits = only_lint(&diags, Lint::EventExhaustiveness);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(sink, "fn record(&self, ev:"));
    assert!(
        hits[0].message.contains("2/3") && hits[0].message.contains("`Notify`"),
        "got: {}",
        hits[0].message
    );
}

#[test]
fn sink_record_covering_all_variants_through_a_helper_is_clean() {
    let sink = r#"
struct Sink;
fn encode(event: &Event) {
    match event {
        Event::Push { .. } => {}
        Event::Pull { .. } => {}
        Event::Notify { .. } => {}
    }
}
impl EventSink for Sink {
    fn record(&self, event: &Event) {
        encode(event);
    }
}
"#;
    let diags = run(&[
        spec("fix/event.rs", EVENT_ENUM_FIXTURE),
        spec("fix/sink-helper.rs", sink),
    ]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn sink_record_allow_marks_variant_agnostic_sinks_clean() {
    let sink = r#"
struct DropSink;
impl EventSink for DropSink {
    // specsync-allow(event-exhaustiveness): fixture — drops every event by contract
    fn record(&self, _event: &Event) {}
}
"#;
    let diags = run(&[
        spec("fix/event.rs", EVENT_ENUM_FIXTURE),
        spec("fix/null-sink.rs", sink),
    ]);
    assert!(
        diags.is_empty(),
        "allow must suppress cleanly, got: {diags:?}"
    );
}

#[test]
fn transport_send_missing_a_wire_variant_is_caught() {
    let wire = r#"
pub enum WireMessage {
    Pull { worker: u64 },
    Push { worker: u64 },
    Shutdown,
}
"#;
    let transport = r#"
struct InProc;
impl Transport for InProc {
    fn send(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Pull { .. } => {}
            WireMessage::Push { .. } => {}
            WireMessage::Shutdown => {}
        }
    }
}
struct Tcp;
impl Transport for Tcp {
    fn send(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Pull { .. } => {}
            WireMessage::Push { .. } => {}
        }
    }
}
"#;
    let diags = run(&[
        spec("fix/wire.rs", wire),
        spec("fix/transports.rs", transport),
    ]);
    let hits = only_lint(&diags, Lint::EventExhaustiveness);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert!(
        hits[0].message.contains("2/3")
            && hits[0].message.contains("WireMessage")
            && hits[0].message.contains("`Shutdown`"),
        "got: {}",
        hits[0].message
    );
}

#[test]
fn transport_wildcard_arm_dropping_wire_variants_is_caught() {
    let wire = r#"
pub enum WireMessage {
    Pull { worker: u64 },
    Push { worker: u64 },
    Shutdown,
}
"#;
    let transport = r#"
struct Lossy;
impl Transport for Lossy {
    fn send(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Pull { .. } => {}
            WireMessage::Push { .. } => {}
            WireMessage::Shutdown => {}
        }
        match msg {
            WireMessage::Pull { .. } => {}
            WireMessage::Push { .. } => {}
            _ => {}
        }
    }
}
"#;
    let diags = run(&[
        spec("fix/wire.rs", wire),
        spec("fix/lossy-transport.rs", transport),
    ]);
    let hits = only_lint(&diags, Lint::EventExhaustiveness);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(transport, "_ =>"));
    assert!(
        hits[0].message.contains("silently drops")
            && hits[0].message.contains("WireMessage")
            && hits[0].message.contains("`Shutdown`"),
        "got: {}",
        hits[0].message
    );
}

#[test]
fn wildcard_arm_dropping_variants_in_the_summarizer_is_caught() {
    let summarizer = r#"
fn summarize(event: &Event) {
    match event {
        Event::Push { .. } => {}
        Event::Pull { .. } => {}
        _ => {}
    }
}
"#;
    let diags = run(&[
        spec("fix/event.rs", EVENT_ENUM_FIXTURE),
        event_only_spec("fix/trace.rs", summarizer),
    ]);
    let hits = only_lint(&diags, Lint::EventExhaustiveness);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(summarizer, "_ =>"));
    assert!(
        hits[0].message.contains("silently drops") && hits[0].message.contains("`Notify`"),
        "got: {}",
        hits[0].message
    );
}

#[test]
fn wildcard_arm_with_all_variants_named_is_clean() {
    let summarizer = r#"
fn summarize(event: &Event) {
    match event {
        Event::Push { .. } => {}
        Event::Pull { .. } => {}
        Event::Notify { .. } => {}
        _ => {}
    }
}
"#;
    let diags = run(&[
        spec("fix/event.rs", EVENT_ENUM_FIXTURE),
        event_only_spec("fix/trace.rs", summarizer),
    ]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn wildcard_arm_allow_suppresses_and_is_consumed() {
    let summarizer = r#"
fn summarize(event: &Event) {
    match event {
        Event::Push { .. } => {}
        Event::Pull { .. } => {}
        // specsync-allow(event-exhaustiveness): fixture — only the push/pull pair matters here
        _ => {}
    }
}
"#;
    let diags = run(&[
        spec("fix/event.rs", EVENT_ENUM_FIXTURE),
        event_only_spec("fix/trace.rs", summarizer),
    ]);
    assert!(
        diags.is_empty(),
        "allow must suppress cleanly, got: {diags:?}"
    );
}

#[test]
fn event_only_files_skip_the_lock_passes() {
    // The summarizer is a harness binary: blocking and locking are its
    // job. It joins the model for event-exhaustiveness only.
    let summarizer = r#"
fn pump(mu: &Mutex<u32>, tx: &Sender<u32>) {
    let g = mu.lock();
    tx.send(1).unwrap();
}
"#;
    let diags = run(&[event_only_spec("fix/trace.rs", summarizer)]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn dead_error_variant_is_caught_at_its_declaration() {
    let src = r#"
pub enum SpecSyncError {
    Stale { version: u64 },
    Orphaned,
}
impl SpecSyncError {
    fn fmt(&self) {
        match self {
            SpecSyncError::Stale { .. } => {}
            SpecSyncError::Orphaned => {}
        }
    }
}
fn raise() -> SpecSyncError {
    SpecSyncError::Stale { version: 1 }
}
"#;
    let diags = run(&[spec("fix/error.rs", src)]);
    let hits = only_lint(&diags, Lint::EventExhaustiveness);
    assert_eq!(hits.len(), 1, "got: {diags:?}");
    assert_eq!(hits[0].line, line_of(src, "Orphaned,"));
    assert!(
        hits[0].message.contains("dead variant")
            && hits[0].message.contains("SpecSyncError::Orphaned"),
        "got: {}",
        hits[0].message
    );
}

#[test]
fn error_variant_referenced_in_another_file_is_live() {
    let def = r#"
pub enum SpecSyncError {
    Stale { version: u64 },
    Orphaned,
}
"#;
    let user = r#"
fn raise(orphan: bool) -> SpecSyncError {
    if orphan {
        SpecSyncError::Orphaned
    } else {
        SpecSyncError::Stale { version: 1 }
    }
}
"#;
    let diags = run(&[spec("fix/error.rs", def), spec("fix/user.rs", user)]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn dead_variant_allow_suppresses_and_is_consumed() {
    let src = r#"
pub enum SpecSyncError {
    Stale { version: u64 },
    // specsync-allow(event-exhaustiveness): fixture — reserved for the next protocol rev
    Orphaned,
}
fn raise() -> SpecSyncError {
    SpecSyncError::Stale { version: 1 }
}
"#;
    let diags = run(&[spec("fix/error.rs", src)]);
    assert!(
        diags.is_empty(),
        "allow must suppress cleanly, got: {diags:?}"
    );
}

#[test]
fn test_region_violations_are_exempt() {
    let src = r#"
struct T { m: Mutex<u32> }
#[cfg(test)]
mod tests {
    #[test]
    fn stress() {
        let t = T { m: Mutex::new(0) };
        let g1 = t.m.lock();
        let g2 = t.m.lock();
    }
}
"#;
    let diags = run(&[spec("fix/testonly.rs", src)]);
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn partial_pass_runs_do_not_call_the_other_stages_allows_stale() {
    let src = r#"
fn pump(mu: &Mutex<u32>, tx: &Sender<u32>) {
    let g = mu.lock();
    // specsync-allow(blocking-under-lock): fixture — sanctioned stall
    tx.send(1).unwrap();
}
"#;
    // Scanner-only: the semantic pass never ran, so its allow cannot be
    // judged stale (and the violation it covers is not reported either).
    let diags = analyze_sources(
        &[spec("fix/block-allowed.rs", src)],
        Options::default(),
        Passes::Scanner,
    );
    assert!(
        !diags.iter().any(|d| d.lint == Lint::UnusedAllow),
        "scanner-only run must not flag semantic allows, got: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Satellite: perf + determinism smoke over the real workspace
// ---------------------------------------------------------------------------

#[test]
fn real_workspace_analysis_is_fast_and_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");

    let start = Instant::now();
    let first = xtask::analyze_workspace(root, Options::default(), Passes::All)
        .expect("workspace readable");
    let second = xtask::analyze_workspace(root, Options::default(), Passes::All)
        .expect("workspace readable");
    let elapsed = start.elapsed();

    assert!(first.files_scanned > 40, "suspiciously few files scanned");
    assert_eq!(first.files_scanned, second.files_scanned);
    assert_eq!(
        first.diagnostics, second.diagnostics,
        "two runs over identical sources must produce identical diagnostics"
    );
    // Both full-pipeline runs together stay well under a minute even on a
    // cold debug build; a regression past this bound means the fixpoint
    // or the parser went super-linear.
    assert!(
        elapsed.as_secs() < 60,
        "two full analyses took {elapsed:?} — semantic pass perf regression"
    );
}
