//! `specsync-analyze`: the workspace determinism & safety lint pass.
//!
//! Run it as `cargo xtask analyze` (the alias lives in
//! `.cargo/config.toml`). See DESIGN.md §10 for the per-file scanner
//! lints and §15 for the semantic passes (lock-order,
//! blocking-under-lock, event-exhaustiveness); the module docs on
//! [`lints`], [`parser`], [`graph`] and [`semantic`] give the short
//! version.
//!
//! The crate is a library plus a thin `main` so the fixture regression
//! tests in `tests/` can drive [`lints::analyze_source`] (per-file
//! scanner) and [`analyze_sources`] (whole-model pipeline) directly
//! against deliberately-broken sources without touching the real
//! workspace.

pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod semantic;
pub mod workspace;

use std::fs;
use std::path::Path;

use lints::{Diagnostic, Options};
use workspace::CrateClass;

/// Which analysis stages to run. The CLI always runs [`Passes::All`]; the
/// fixture tests pick one stage to isolate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// Scanner lints + semantic passes.
    All,
    /// Per-file scanner lints only.
    Scanner,
    /// Call-graph passes only.
    Semantic,
}

impl Passes {
    fn scanner(self) -> bool {
        matches!(self, Passes::All | Passes::Scanner)
    }

    fn semantic(self) -> bool {
        matches!(self, Passes::All | Passes::Semantic)
    }
}

/// One source file fed into the whole-model pipeline.
#[derive(Debug)]
pub struct SourceSpec {
    /// Workspace-relative path (or fixture label in tests).
    pub label: String,
    pub source: String,
    pub class: CrateClass,
    /// Participates only in the event-exhaustiveness pass (the
    /// designated trace summarizer — a harness binary otherwise exempt).
    pub event_only: bool,
}

/// The outcome of analysing a whole workspace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every diagnostic, in (file, line, lint) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Whether any deny-level diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.lint.is_deny())
    }
}

/// Runs the full pipeline — scanner lints per file, then the semantic
/// passes over the joint model — and applies `specsync-allow`
/// suppression across both. An allow is "used" if it suppressed at least
/// one finding from either stage; unused allows are reported (advisory).
pub fn analyze_sources(specs: &[SourceSpec], opts: Options, passes: Passes) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut allows: Vec<lints::Allow> = Vec::new();
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut parsed: Vec<parser::ParsedFile> = Vec::new();
    // Test regions per label, for filtering semantic diagnostics too.
    let mut regions: Vec<(String, Vec<(usize, usize)>)> = Vec::new();

    for spec in specs {
        let scanned = lexer::scan(&spec.source);
        allows.extend(lints::parse_allows(&scanned, &spec.label, &mut diags));
        let test_regions = lexer::test_regions(&scanned.sanitized);
        if passes.scanner() && !spec.event_only {
            raw.extend(lints::raw_file_lints(
                &spec.label,
                &scanned,
                spec.class,
                opts,
            ));
        }
        if passes.semantic() {
            parsed.push(parser::parse_file(
                &spec.label,
                &scanned.sanitized,
                spec.class,
                spec.event_only,
                &test_regions,
            ));
        }
        regions.push((spec.label.clone(), test_regions));
    }

    if passes.semantic() {
        let graph = graph::Graph::build(&parsed);
        raw.extend(semantic::run(&parsed, &graph));
    }

    // Suppression is per-file: partition raw findings by label so each
    // file's allows and test regions apply to its own findings only.
    raw.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    for (label, test_regions) in &regions {
        let file_raw: Vec<Diagnostic> = raw.iter().filter(|d| &d.file == label).cloned().collect();
        let (mut local, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut allows)
            .into_iter()
            .partition(|a| &a.file == label);
        allows = rest;
        lints::apply_allows(file_raw, &mut local, test_regions, &mut diags);
        // Only call an allow stale if the stage its lint belongs to
        // actually ran — a scanner-only run can't judge semantic allows,
        // and vice versa.
        let reportable: Vec<lints::Allow> = local
            .into_iter()
            .filter(|a| {
                if a.lint.is_semantic() {
                    passes.semantic()
                } else {
                    passes.scanner()
                }
            })
            .collect();
        lints::report_unused_allows(&reportable, test_regions, &mut diags);
    }

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint.name(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.lint.name(),
            &b.message,
        ))
    });
    diags.dedup();
    diags
}

/// Analyses every covered file under `root`.
pub fn analyze_workspace(root: &Path, opts: Options, passes: Passes) -> std::io::Result<Analysis> {
    let files = workspace::collect_files(root)?;
    let mut specs = Vec::with_capacity(files.len());
    for file in &files {
        specs.push(SourceSpec {
            label: file.label.clone(),
            source: fs::read_to_string(&file.path)?,
            class: file.class,
            event_only: file.event_only,
        });
    }
    Ok(Analysis {
        files_scanned: specs.len(),
        diagnostics: analyze_sources(&specs, opts, passes),
    })
}
