//! The three semantic passes: lock-order, blocking-under-lock, and
//! event-exhaustiveness (DESIGN.md §15).
//!
//! All three run over the whole-workspace model built by
//! [`parser`](crate::parser) + [`graph`](crate::graph) and return *raw*
//! diagnostics — `specsync-allow` suppression happens in the shared
//! driver, exactly as for the per-file lints.
//!
//! Scope rules: functions in test regions are skipped everywhere;
//! `event_only` files (the designated trace summarizer) participate only
//! in event-exhaustiveness.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{cycles, FnId, Graph};
use crate::lints::{Diagnostic, Lint};
use crate::parser::{Op, ParsedFile};

/// One enum-dispatch contract the exhaustiveness pass enforces: every
/// variant of `enum_name` must be referenced (transitively) by every
/// `method` impl of `trait_name`, and no wildcard arm in those impls may
/// silently drop variants.
struct DispatchContract {
    /// The dispatched enum.
    enum_name: &'static str,
    /// Crate-path hint disambiguating same-named enums elsewhere in the
    /// workspace (simnet has its own `Event`).
    hint: &'static str,
    /// The trait whose impls must be variant-exhaustive.
    trait_name: &'static str,
    /// The trait method carrying the dispatch.
    method: &'static str,
    /// Whether the designated `event_only` summarizer files also
    /// participate in the wildcard check for this enum.
    include_event_only: bool,
}

/// The enforced contracts: every telemetry `Event` variant handled by
/// every `EventSink::record` impl (and the trace summarizer), and every
/// `WireMessage` protocol frame handled by every `Transport::send` impl —
/// a new frame cannot be silently dropped by one transport and handled by
/// the other.
const DISPATCH_CONTRACTS: &[DispatchContract] = &[
    DispatchContract {
        enum_name: "Event",
        hint: "telemetry",
        trait_name: "EventSink",
        method: "record",
        include_event_only: true,
    },
    DispatchContract {
        enum_name: "WireMessage",
        hint: "net",
        trait_name: "Transport",
        method: "send",
        include_event_only: false,
    },
];
/// Enums that must have no dead (never-referenced) variants, with their
/// crate-path hints. `WireMessage` is here for its replica-plane frames
/// (`RelayPush`, `RelayTag`): no worker transport sends them, so the
/// dispatch contract alone would accept a relay form nothing produces.
const NO_DEAD_VARIANTS: &[(&str, &str)] = &[
    ("SpecSyncError", "core"),
    ("FailoverControl", "net"),
    ("WireMessage", "net"),
];

/// Locates an enum by name, preferring a defining file whose label
/// contains `hint` (fixtures have no crate paths, so any match is the
/// fallback).
fn find_enum(files: &[ParsedFile], name: &str, hint: &str) -> Option<(usize, usize)> {
    let mut fallback = None;
    for (fi, pf) in files.iter().enumerate() {
        for (ei, e) in pf.enums.iter().enumerate() {
            if e.name != name {
                continue;
            }
            if pf.label.contains(hint) {
                return Some((fi, ei));
            }
            fallback.get_or_insert((fi, ei));
        }
    }
    fallback
}

/// Runs all semantic passes over the model.
pub fn run(files: &[ParsedFile], graph: &Graph) -> Vec<Diagnostic> {
    let mut out = BTreeSet::new();
    lock_order(files, graph, &mut out);
    blocking_under_lock(files, graph, &mut out);
    event_exhaustiveness(files, graph, &mut out);
    dead_variants(files, graph, &mut out);
    out.into_iter()
        .map(|(file, line, lint, message)| Diagnostic {
            lint,
            file,
            line,
            message,
        })
        .collect()
}

type RawSet = BTreeSet<(String, usize, Lint, String)>;

/// Iterates the non-test functions that the lock passes cover.
fn lock_scope(
    files: &[ParsedFile],
) -> impl Iterator<Item = (FnId, &ParsedFile, &crate::parser::FnDef)> {
    files
        .iter()
        .enumerate()
        .filter(|(_, pf)| !pf.event_only)
        .flat_map(|(fi, pf)| {
            pf.functions
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.in_test)
                .map(move |(fni, f)| ((fi, fni), pf, f))
        })
}

fn fmt_held(held: &[String]) -> String {
    held.join("`, `")
}

/// Pass 1: double-acquisition on one path, and cycles in the lock-order
/// graph (edge `a → b` whenever `b` is acquired — directly or through a
/// resolvable call — while `a` is held).
fn lock_order(files: &[ParsedFile], graph: &Graph, out: &mut RawSet) {
    // Edge → first example site, for anchoring cycle diagnostics.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();

    for (id, pf, f) in lock_scope(files) {
        for op in &f.ops {
            match op {
                Op::Acquire { class, line, held } => {
                    if held.contains(class) {
                        out.insert((
                            pf.label.clone(),
                            *line,
                            Lint::LockOrder,
                            format!(
                                "`{}` acquires lock class `{class}` while already \
                                 holding it — self-deadlock on one path",
                                f.qual
                            ),
                        ));
                    }
                    for h in held {
                        if h != class {
                            edges
                                .entry((h.clone(), class.clone()))
                                .or_insert_with(|| (pf.label.clone(), *line));
                        }
                    }
                }
                Op::Call { callee, line, held } if !held.is_empty() => {
                    for target in graph.resolve(files, id, callee) {
                        for acquired in &graph.acquires[&target] {
                            if held.contains(acquired) {
                                out.insert((
                                    pf.label.clone(),
                                    *line,
                                    Lint::LockOrder,
                                    format!(
                                        "`{}` calls `{}` which re-acquires lock class \
                                         `{acquired}` already held here",
                                        f.qual,
                                        graph.qual(files, target)
                                    ),
                                ));
                            } else {
                                for h in held {
                                    edges
                                        .entry((h.clone(), acquired.clone()))
                                        .or_insert_with(|| (pf.label.clone(), *line));
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.clone()).or_default().insert(b.clone());
        adj.entry(b.clone()).or_default();
    }
    for scc in cycles(&adj) {
        // Anchor the cycle at the example site of its least intra-SCC edge.
        let anchor = edges
            .iter()
            .find(|((a, b), _)| scc.contains(a) && scc.contains(b))
            .map(|(_, site)| site.clone());
        let (file, line) = anchor.unwrap_or_else(|| ("<workspace>".into(), 0));
        out.insert((
            file,
            line,
            Lint::LockOrder,
            format!(
                "lock-order cycle between classes `{}` — two threads taking \
                 them in opposite orders can deadlock",
                scc.join("`, `")
            ),
        ));
    }
}

/// Pass 2: blocking primitives reached (directly or transitively) while a
/// lock guard is live.
fn blocking_under_lock(files: &[ParsedFile], graph: &Graph, out: &mut RawSet) {
    for (id, pf, f) in lock_scope(files) {
        for op in &f.ops {
            match op {
                Op::Block { what, line, held } if !held.is_empty() => {
                    out.insert((
                        pf.label.clone(),
                        *line,
                        Lint::BlockingUnderLock,
                        format!(
                            "{what} while holding lock class(es) `{}` — blocks \
                             every thread contending on them",
                            fmt_held(held)
                        ),
                    ));
                }
                Op::Call { callee, line, held } if !held.is_empty() => {
                    for target in graph.resolve(files, id, callee) {
                        if let Some((what, site)) = graph.blocks[&target].iter().next() {
                            out.insert((
                                pf.label.clone(),
                                *line,
                                Lint::BlockingUnderLock,
                                format!(
                                    "call into `{}` may reach {what} (in `{site}`) \
                                     while holding lock class(es) `{}`",
                                    graph.qual(files, target),
                                    fmt_held(held)
                                ),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Pass 3a/3b, once per [`DispatchContract`]: every variant of the
/// contract's enum handled in every `trait::method` impl (transitively,
/// so encoding helpers count), and no wildcard arm that silently drops
/// variants in those impls (plus the trace summarizer, for `Event`).
fn event_exhaustiveness(files: &[ParsedFile], graph: &Graph, out: &mut RawSet) {
    for contract in DISPATCH_CONTRACTS {
        let Some((efi, eei)) = find_enum(files, contract.enum_name, contract.hint) else {
            continue;
        };
        let all: BTreeSet<&str> = files[efi].enums[eei]
            .variants
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        let total = all.len();

        for (fi, pf) in files.iter().enumerate() {
            for (fni, f) in pf.functions.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let in_impl = f.trait_name.as_deref() == Some(contract.trait_name);

                // (a) the dispatch method must reference every variant
                // somewhere in its call tree — or carry an allow saying
                // why it is variant-agnostic (e.g. it clones the whole
                // event).
                if in_impl && f.name == contract.method {
                    let id: FnId = (fi, fni);
                    let seen: BTreeSet<&str> = graph.variant_refs[&id]
                        .iter()
                        .filter(|(e, _)| e == contract.enum_name)
                        .map(|(_, v)| v.as_str())
                        .collect();
                    let missing: Vec<&str> = all.difference(&seen).copied().collect();
                    if !missing.is_empty() {
                        out.insert((
                            pf.label.clone(),
                            f.line,
                            Lint::EventExhaustiveness,
                            format!(
                                "`{}` handles {}/{} `{}` variants; unhandled: `{}`",
                                f.qual,
                                total - missing.len(),
                                total,
                                contract.enum_name,
                                missing.join("`, `")
                            ),
                        ));
                    }
                }

                // (b) wildcard arms in the enum's dispatches must not hide
                // unlisted variants.
                if !(in_impl || (contract.include_event_only && pf.event_only)) {
                    continue;
                }
                for m in &f.matches {
                    let Some(wline) = m.wildcard_line else {
                        continue;
                    };
                    let dispatched = m
                        .arm_refs
                        .iter()
                        .filter(|(e, _)| e == contract.enum_name)
                        .count();
                    if dispatched < 2 {
                        continue;
                    }
                    let covered: BTreeSet<&str> = m
                        .refs
                        .iter()
                        .filter(|(e, _)| e == contract.enum_name)
                        .map(|(_, v)| v.as_str())
                        .collect();
                    let missing: Vec<&str> = all.difference(&covered).copied().collect();
                    if !missing.is_empty() {
                        out.insert((
                            pf.label.clone(),
                            wline,
                            Lint::EventExhaustiveness,
                            format!(
                                "wildcard arm in `{}` silently drops `{}` \
                                 variant(s) `{}`",
                                f.qual,
                                contract.enum_name,
                                missing.join("`, `")
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Pass 3c: no dead variants — every variant of the enums in
/// [`NO_DEAD_VARIANTS`] must be referenced from non-test code outside the
/// defining file's `fmt`/`source` impls (a variant only ever *displayed*
/// is still dead).
fn dead_variants(files: &[ParsedFile], _graph: &Graph, out: &mut RawSet) {
    for &(ename, hint) in NO_DEAD_VARIANTS {
        let Some((efi, eei)) = find_enum(files, ename, hint) else {
            continue;
        };
        let edef = &files[efi].enums[eei];
        let mut referenced: BTreeSet<&str> = BTreeSet::new();
        for (fi, pf) in files.iter().enumerate() {
            for f in &pf.functions {
                if f.in_test {
                    continue;
                }
                if fi == efi && matches!(f.name.as_str(), "fmt" | "source") {
                    continue;
                }
                referenced.extend(
                    f.path_refs
                        .iter()
                        .filter(|(e, _, _)| e == ename)
                        .map(|(_, v, _)| v.as_str()),
                );
            }
        }
        for (variant, line) in &edef.variants {
            if !referenced.contains(variant.as_str()) {
                out.insert((
                    files[efi].label.clone(),
                    *line,
                    Lint::EventExhaustiveness,
                    format!(
                        "`{ename}::{variant}` is never referenced outside tests \
                         and `fmt`/`source` — dead variant"
                    ),
                ));
            }
        }
    }
}
