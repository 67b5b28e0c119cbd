//! The static rules live in configuration (DESIGN.md §10): the root
//! `[workspace.lints]` table, a `deny` pair on each library crate's lib
//! target, and `crates/clippy.toml` for the deterministic crates. CI's
//! clippy step enforces them only for crates still wired to them; these
//! tests fail when a crate drops out of that wiring or when an exception
//! (`#[expect(lint, reason = "…")]`) appears outside the inventory.

use std::fs;
use std::path::PathBuf;

/// The crates the virtual-time simulator runs: same seed, same bits.
const DETERMINISTIC: [&str; 9] = [
    "simnet",
    "tensor",
    "ml",
    "ps",
    "sync",
    "core",
    "telemetry",
    "cluster",
    "runtime",
];

const METHODS: &str = "std::time::Instant::now std::time::SystemTime::now \
    std::thread::sleep std::env::var std::env::var_os std::env::vars std::env::args";

const TYPES: &str = "std::collections::HashMap std::collections::HashSet \
    std::time::Instant std::time::SystemTime";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `(path from the root, text)` of every `.rs` file under `dirs`.
fn sources(dirs: &[&str]) -> Vec<(String, String)> {
    let mut pending: Vec<PathBuf> = dirs.iter().map(|dir| root().join(dir)).collect();
    let mut found = Vec::new();
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            let entries = fs::read_dir(&path).expect("readable directory");
            pending.extend(entries.map(|entry| entry.expect("entry").path()));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let name = path.strip_prefix(root()).expect("under the root");
            let name = name.to_string_lossy().replace('\\', "/");
            found.push((name.clone(), read(&name)));
        }
    }
    found.sort();
    found
}

/// `(file, file-wide, in tests, text)` of each `#[expect(…)]` attribute in
/// the workspace's own code; this file's string literals are skipped.
fn expectations() -> Vec<(String, bool, bool, String)> {
    let mut found = Vec::new();
    for (file, text) in sources(&["crates", "src", "tests", "examples"]) {
        let tests_from = text.find("#[cfg(test)]").unwrap_or(text.len());
        for (at, _) in text.match_indices("expect(").filter(|_| file != file!()) {
            let inner = text[..at].ends_with("#![");
            if inner || text[..at].ends_with("#[") {
                let attribute = &text[at..at + text[at..].find(")]").expect("closes")];
                found.push((file.clone(), inner, at > tests_from, attribute.to_string()));
            }
        }
    }
    found
}

/// The `path = "…"` entries of `key`'s array in the `clippy.toml` clippy
/// resolves for `crates/<name>`: the first one on the way up.
fn disallowed(name: &str, key: &str) -> Vec<String> {
    let crate_dir = root().join("crates").join(name);
    let mut configs = crate_dir.ancestors().map(|dir| dir.join("clippy.toml"));
    let config = configs.find(|path| path.is_file()).expect("a clippy.toml");
    let text = fs::read_to_string(config).expect("readable clippy.toml");
    let body = text.split(&format!("{key} = [")).nth(1).unwrap_or_default();
    let body = body.split("\n]").next().unwrap_or_default();
    let entries = body.split("path = \"").skip(1);
    entries
        .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
        .collect()
}

/// The entries of the root manifest's `[workspace.lints.*]` tables.
fn workspace_lints() -> Vec<String> {
    let manifest = read("Cargo.toml");
    let mut in_lints = false;
    let lines = manifest.lines().map(str::trim).filter(|line| {
        if line.starts_with('[') {
            in_lints = line.starts_with("[workspace.lints");
            return false;
        }
        in_lints && !line.is_empty() && !line.starts_with('#')
    });
    lines.map(str::to_string).collect()
}

#[test]
fn every_member_crate_and_the_facade_inherit_the_workspace_lints() {
    let crates = fs::read_dir(root().join("crates")).expect("crates/ lists");
    let names = crates.map(|entry| {
        entry
            .expect("entry")
            .file_name()
            .into_string()
            .expect("utf-8")
    });
    let manifests = names.map(|name| format!("crates/{name}/Cargo.toml"));
    let manifests: Vec<String> = manifests
        .filter(|path| root().join(path).is_file())
        .collect();
    assert!(manifests.len() > 9, "{manifests:?}");
    for manifest in manifests.iter().map(String::as_str).chain(["Cargo.toml"]) {
        let inherits = read(manifest).contains("\n[lints]\nworkspace = true\n");
        assert!(inherits, "{manifest} lacks `[lints] workspace = true`");
    }
}

#[test]
fn every_deterministic_crate_resolves_to_the_disallowed_paths() {
    for name in DETERMINISTIC {
        for (key, wanted) in [("disallowed-methods", METHODS), ("disallowed-types", TYPES)] {
            let listed = disallowed(name, key);
            for path in wanted.split_whitespace() {
                assert!(
                    listed.iter().any(|p| p == path),
                    "crates/{name}: no `{path}` in {key}"
                );
            }
        }
    }
}

/// The simulator sanctions no clock read; its one exception is a test
/// that hashes ids.
#[test]
fn virtual_time_fixture_instant_in_simnet_style_crate() {
    for (file, _, in_tests, text) in expectations() {
        let clock = text.contains("disallowed_methods");
        assert!(
            !file.starts_with("crates/simnet/") || in_tests && !clock,
            "{file}: {text}"
        );
    }
}

/// No environment reads, and no entropy to seed from: the vendored
/// `rand` offers only explicit seeds.
#[test]
fn virtual_time_fixture_entropy_and_env() {
    assert!(METHODS.contains("std::env::var std::env::var_os std::env::vars std::env::args"));
    for (file, text) in sources(&["vendor/rand/src", "vendor/rand_distr/src"]) {
        for entropy in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
            assert!(!text.contains(entropy), "{file} offers `{entropy}`");
        }
    }
}

/// The runtime sleeps and reads the wall clock only in its clock module,
/// the evaluator's pacing and the worker's compute pad.
#[test]
fn virtual_time_fixture_sleep_in_runtime_style_crate() {
    let sites = expectations()
        .into_iter()
        .filter(|site| site.0.starts_with("crates/runtime/"));
    let sites = sites.filter(|site| site.3.contains("disallowed_methods"));
    let sanctioned =
        ["clock.rs", "runtime.rs", "worker.rs"].map(|f| format!("crates/runtime/src/{f}"));
    assert_eq!(sites.map(|site| site.0).collect::<Vec<_>>(), sanctioned);
}

/// Hash-ordered collections appear in no deterministic crate's library
/// code; its one sanctioned disallowed type is the runtime clock's
/// `Instant`.
#[test]
fn ordered_iteration_fixture_hashmap_in_core_style_crate() {
    for (file, _, in_tests, text) in expectations() {
        let deterministic = DETERMINISTIC
            .iter()
            .any(|name| file.starts_with(&format!("crates/{name}/")));
        if deterministic && !in_tests && text.contains("disallowed_types") {
            assert_eq!(file, "crates/runtime/src/clock.rs", "{text}");
        }
    }
}

#[test]
fn no_panic_fixture_unwrap_in_library_crate() {
    let libs = DETERMINISTIC
        .iter()
        .chain(&["net"])
        .map(|name| format!("crates/{name}/src/lib.rs"));
    for lib in libs.chain(["src/lib.rs".to_string()]) {
        let deny = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]";
        assert!(read(&lib).contains(deny), "{lib} lacks `{deny}`");
    }
}

/// The harness (`bench`) denies no panics and opts out of the determinism
/// rules target by target, as the wall-clock wire library `net` does
/// crate-wide.
#[test]
fn no_panic_fixture_is_silent_for_harness_crates() {
    let opted_out: Vec<String> = expectations()
        .into_iter()
        .filter(|site| site.1)
        .map(|site| site.0)
        .collect();
    for (file, text) in sources(&["crates/bench/src"]) {
        assert!(
            !text.contains("clippy::unwrap_used"),
            "{file} denies panics"
        );
        let target = file.ends_with("/lib.rs") || file.contains("/bin/");
        assert!(
            !target || opted_out.contains(&file),
            "{file} does not opt out"
        );
    }
    assert!(opted_out.iter().any(|file| file == "crates/net/src/lib.rs"));
}

/// Each exception names single clippy lints with a reason; only the wire
/// library, the runtime's clock module and the harness suppress file-wide.
#[test]
fn allow_annotation_suppresses_exactly_its_lint_and_site() {
    let sites = expectations();
    assert!(sites.len() >= 10, "{} expectations", sites.len());
    for (file, inner, _, text) in sites {
        assert!(
            text.contains("reason = \""),
            "{file}: `{text}` gives no reason"
        );
        let lints = text["expect(".len()..]
            .split("reason")
            .next()
            .unwrap_or_default();
        for lint in lints
            .split(',')
            .map(str::trim)
            .filter(|lint| !lint.is_empty())
        {
            let group = ["clippy::all", "clippy::pedantic", "clippy::nursery"].contains(&lint);
            assert!(lint.starts_with("clippy::") && !group, "{file}: `{lint}`");
        }
        let wide =
            ["crates/net/src/lib.rs", "crates/runtime/src/clock.rs"].contains(&file.as_str());
        assert!(
            !inner || wide || file.starts_with("crates/bench/"),
            "{file}: `{text}`"
        );
    }
}

#[test]
fn allow_without_reason_fails_closed() {
    let lints = workspace_lints();
    for lint in ["allow_attributes", "allow_attributes_without_reason"] {
        assert!(
            lints.contains(&format!("{lint} = \"deny\"")),
            "{lint} is not denied"
        );
    }
}

/// Every workspace-wide lint fails the build; none is advisory.
#[test]
fn deny_and_advisory_levels_are_stable() {
    let lints = workspace_lints();
    assert!(!lints.is_empty());
    assert!(
        lints.iter().all(|lint| lint.ends_with("= \"deny\"")),
        "{lints:?}"
    );
}

#[test]
fn the_real_workspace_analyzes_clean() {
    for (file, text) in sources(&["crates", "src", "tests", "examples"]) {
        for banned in ["#[allow(", "#![allow(", "specsync-allow"] {
            assert!(
                file == file!() || !text.contains(banned),
                "{file}: `{banned}`"
            );
        }
    }
}
