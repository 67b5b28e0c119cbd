//! The dispatch contracts of DESIGN.md §10 and the evidence for the checks
//! §15 retired. A `match` over `Event`, `WireMessage` or `FailoverControl`
//! stays exhaustive because rustc checks every arm list and clippy denies
//! wildcard arms in library code; these tests keep that configuration in
//! place and every variant of the protocol's three vocabularies live.

use std::fs;
use std::path::PathBuf;

const NO_WILDCARD: &str = "#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]";

/// The three vocabularies and the files that declare them.
const VOCABULARIES: [(&str, &str); 3] = [
    ("SpecSyncError", "crates/core/src/error.rs"),
    ("WireMessage", "crates/net/src/wire.rs"),
    ("FailoverControl", "crates/net/src/wire.rs"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `(path from the root, text)` of every `.rs` file under `dirs`, each cut
/// at its first `#[cfg(test)]` when `code_only`.
fn sources(dirs: &[&str], code_only: bool) -> Vec<(String, String)> {
    let mut pending: Vec<PathBuf> = dirs.iter().map(|dir| root().join(dir)).collect();
    let mut found = Vec::new();
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            let entries = fs::read_dir(&path).expect("readable directory");
            pending.extend(entries.map(|entry| entry.expect("entry").path()));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let name = path.strip_prefix(root()).expect("under the root");
            let name = name.to_string_lossy().replace('\\', "/");
            let mut text = read(&name);
            let tests_from = text.find("#[cfg(test)]").filter(|_| code_only);
            text.truncate(tests_from.unwrap_or(text.len()));
            found.push((name, text));
        }
    }
    found
}

/// The text of `pub enum <name>`, from its attributes to the closing brace.
fn declaration(file: &str, name: &str) -> String {
    let text = read(file);
    let header = format!("pub enum {name} {{");
    let start = text
        .find(&header)
        .unwrap_or_else(|| panic!("{file}: no `{header}`"));
    let attributes = text[..start]
        .lines()
        .rev()
        .take_while(|line| line.starts_with("#["));
    let from = start - attributes.map(|line| line.len() + 1).sum::<usize>();
    text[from..start + text[start..].find("\n}").expect("closes")].to_string()
}

/// `(Enum::Variant, declaring file, non-test files naming it)` for every
/// variant: a body line at one indent that starts upper-case.
fn variant_users() -> Vec<(String, &'static str, Vec<String>)> {
    let code = sources(&["crates", "src"], true);
    let mut users = Vec::new();
    for (name, file) in VOCABULARIES {
        let text = declaration(file, name);
        let variants = text.lines().filter_map(|line| {
            let line = line
                .strip_prefix("    ")
                .filter(|l| l.starts_with(char::is_uppercase))?;
            Some(
                line.split(|c: char| !c.is_alphanumeric())
                    .next()?
                    .to_string(),
            )
        });
        for variant in variants {
            let path = format!("{name}::{variant}");
            let named = code.iter().filter(|(_, text)| names_path(text, &path));
            let named = named.map(|(file, _)| file.clone()).collect();
            users.push((path, file, named));
        }
    }
    assert!(users.len() > 20, "{users:?}");
    users
}

/// Whether `text` names `path` whole, not as a prefix of a longer name.
fn names_path(text: &str, path: &str) -> bool {
    let mut ends = text
        .match_indices(path)
        .map(|(at, _)| text[at + path.len()..].chars().next());
    ends.any(|next| !next.is_some_and(|c| c.is_alphanumeric() || c == '_'))
}

/// The transports and the wire codec sit in `net`'s lib target, which
/// denies a `_` arm over `WireMessage`, as every library lib target does.
#[test]
fn transport_wildcard_arm_dropping_wire_variants_is_caught() {
    let libs = "simnet tensor ml ps sync core telemetry cluster runtime net".split(' ');
    for lib in libs
        .map(|name| format!("crates/{name}/src/lib.rs"))
        .chain(["src/lib.rs".into()])
    {
        assert!(
            read(&lib).contains(NO_WILDCARD),
            "{lib} lacks `{NO_WILDCARD}`"
        );
    }
    let net = read("crates/net/src/lib.rs");
    assert!(["frame", "transport", "wire"]
        .iter()
        .all(|m| net.contains(&format!("pub mod {m};"))));
}

/// A sink in any crate that misses an `Event` variant fails to compile:
/// `Event` is not `#[non_exhaustive]`, so no crate needs a `_` arm.
#[test]
fn sink_record_missing_a_variant_is_caught() {
    let event = declaration("crates/telemetry/src/event.rs", "Event");
    assert!(!event.contains("non_exhaustive"), "{event}");
}

#[test]
fn transport_send_missing_a_wire_variant_is_caught() {
    for (name, file) in &VOCABULARIES[1..] {
        assert!(
            !declaration(file, name).contains("non_exhaustive"),
            "{name}"
        );
    }
}

/// No wildcard arm is sanctioned: every `match` the lint covers names its
/// variants.
#[test]
fn wildcard_arm_with_all_variants_named_is_clean() {
    for (file, text) in sources(&["crates", "src", "tests", "examples"], false) {
        let sanctioned = text.match_indices("expect(").any(|(at, _)| {
            let attribute = &text[at..at + text[at..].find(")]").unwrap_or(0)];
            text[..at].ends_with('[') && attribute.contains("wildcard_enum_match_arm")
        });
        assert!(!sanctioned, "{file} sanctions a wildcard arm");
    }
}

/// An `#[expect]` that suppresses nothing is a warning, and CI's clippy
/// step makes every warning an error, across all targets.
#[test]
fn wildcard_arm_allow_suppresses_and_is_consumed() {
    let step = "run: cargo clippy --workspace --all-targets --all-features -- -D warnings";
    assert!(
        read(".github/workflows/ci.yml").contains(step),
        "CI lacks `{step}`"
    );
}

/// Tests and the harness may unwrap and match `_`: the panic and wildcard
/// rules are set per lib target outside `cfg(test)`, never in the
/// workspace table every target inherits.
#[test]
fn test_region_violations_are_exempt() {
    let manifest = read("Cargo.toml");
    for lint in ["unwrap_used", "expect_used", "wildcard_enum_match_arm"] {
        assert!(!manifest.contains(lint), "the workspace table sets {lint}");
    }
    for (file, text) in sources(&["crates", "src"], true) {
        let unconditional = text.contains("#![deny(clippy::unwrap_used")
            || text.contains("#![deny(clippy::wildcard");
        assert!(!unconditional, "{file}: a deny reaches its tests");
    }
}

#[test]
fn dead_error_variant_is_caught_at_its_declaration() {
    for (path, file, named) in variant_users() {
        assert!(!named.is_empty(), "{file}: no non-test code names {path}");
    }
}

/// Each variant is named outside its declaring file, or built by a
/// `From` impl there that `?` and `.into()` reach from elsewhere.
#[test]
fn error_variant_referenced_in_another_file_is_live() {
    for (path, file, named) in variant_users() {
        let text = read(file);
        let mut impls = text.match_indices("impl From<").map(|(at, _)| &text[at..]);
        let converted =
            impls.any(|block| names_path(&block[..block.find("\n}\n").unwrap_or(0)], &path));
        assert!(
            converted || named.iter().any(|f| f != file),
            "{path} is named only in {file}"
        );
    }
}

/// No variant is kept alive by suppressing the dead-code lint.
#[test]
fn dead_variant_allow_suppresses_and_is_consumed() {
    for (file, text) in sources(&["crates", "src"], true) {
        assert!(!text.contains("dead_code"), "{file} suppresses dead_code");
    }
}
