//! CLI entry point: `cargo xtask analyze [--index-audit]`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::lints::Options;
use xtask::Passes;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask; the tool only ever analyses the
    // workspace it was compiled from, so a compile-time path is exact.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut command = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "analyze" => command = Some("analyze"),
            "--index-audit" => opts.index_audit = true,
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n");
                print_help();
                return ExitCode::FAILURE;
            }
        }
    }
    if command != Some("analyze") {
        print_help();
        return ExitCode::FAILURE;
    }

    let root = workspace_root();
    let analysis = match xtask::analyze_workspace(&root, opts, Passes::All) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: failed to scan workspace: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for d in &analysis.diagnostics {
        println!("{d}\n");
        if d.lint.is_deny() {
            errors += 1;
        } else {
            warnings += 1;
        }
    }
    println!(
        "specsync-analyze: {} files scanned, {errors} error(s), {warnings} warning(s)",
        analysis.files_scanned
    );
    if errors > 0 {
        eprintln!(
            "\nIntentional violations need an annotation with a reason:\n  \
             // specsync-allow(<lint>): <why this is sound>"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_help() {
    println!(
        "cargo xtask analyze [--index-audit]\n\n\
         Enforces the SpecSync determinism & safety invariants (DESIGN.md §10, §15).\n\n\
         Scanner lints (per file):\n  \
         virtual-time        no Instant/SystemTime/thread_rng/env reads in deterministic crates\n  \
         ordered-iteration   no HashMap/HashSet in deterministic crates\n  \
         no-panic            no .unwrap()/.expect() in library code\n  \
         f32-accumulation    no f32 += reduction loops or sum::<f32>()\n\n\
         Semantic passes (workspace call graph):\n  \
         lock-order            lock-order cycles and double-acquisition on one path\n  \
         blocking-under-lock   joins, channel ops, sleeps, I/O reached while a guard is live\n  \
         event-exhaustiveness  every telemetry::Event variant handled in every sink and the\n                        \
         trace summarizer; no dead SpecSyncError variants\n\n\
         Suppress one finding with an inline `// specsync-allow(<lint>): <reason>`.\n\n\
         --index-audit       also print the advisory unchecked-indexing audit"
    );
}
