//! End-to-end tests of the prep-lint binary: `--json` output shape,
//! suppression marking, `--deny` exit codes, `--explain`, `--list-rules`,
//! and finding the workspace root without `--root`.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_prep-lint"))
}

#[test]
fn explain_prints_rationale_and_rejects_unknown_ids() {
    let out = bin().args(["--explain", "atomic-seqcst"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("atomic-seqcst\n"), "got: {text}");
    assert!(text.len() > 80, "rationale suspiciously short: {text}");

    // The unsafe audit and the API bans are compiler lints now
    // (`[workspace.lints]`, `clippy.toml`): their old ids are unknown.
    for gone in ["no-such-rule", "forbidden-api", "unsafe-missing-safety"] {
        let bad = bin().args(["--explain", gone]).output().unwrap();
        assert!(!bad.status.success(), "--explain {gone} was accepted");
        let err = String::from_utf8(bad.stderr).unwrap();
        assert!(err.contains("unknown rule id"), "{gone}: {err}");
    }
}

#[test]
fn list_rules_prints_exactly_the_paper_specific_rules() {
    let out = bin().arg("--list-rules").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        text.lines().collect::<Vec<_>>(),
        [
            "atomic-ordering",
            "atomic-seqcst",
            "atomic-fence-ordering",
            "cacheline-padding",
            "persist-hook",
            "lint-allow-reason",
        ]
    );
}

/// A throwaway workspace: one unjustified `SeqCst` load written twice,
/// the second site suppressed with a reasoned allow.
const FIXTURE: &str = r#"//! CLI fixture.
use std::sync::atomic::{AtomicU64, Ordering};

pub fn one(x: &AtomicU64) -> u64 {
    x.load(Ordering::SeqCst)
}

pub fn two(x: &AtomicU64) -> u64 {
    // lint:allow(atomic-seqcst): fixture — suppressed on purpose
    x.load(Ordering::SeqCst)
}
"#;

fn fixture_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prep-lint-cli-{tag}-{}", std::process::id()));
    let src = dir.join("crates/cx/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(src.join("bad.rs"), FIXTURE).unwrap();
    dir
}

#[test]
fn json_lines_include_suppressed_findings_and_deny_ignores_them() {
    let root = fixture_root("json");
    let out = bin()
        .args(["--json", "--root", root.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 2, "expected both sites in --json: {text}");
    for l in &lines {
        assert!(l.starts_with("{\"file\":"), "not a JSON object: {l}");
        assert!(l.ends_with('}'), "not a JSON object: {l}");
        assert!(l.contains("\"rule\":\"atomic-seqcst\""), "{l}");
        assert!(l.contains("\"line\":"), "{l}");
        assert!(l.contains("\"col\":"), "{l}");
    }
    let suppressed: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"suppressed_by\":\"fixture — suppressed on purpose\""))
        .collect();
    assert_eq!(
        suppressed.len(),
        1,
        "exactly one marked suppression: {text}"
    );

    // --deny counts only the unsuppressed finding: still a failure.
    let deny = bin()
        .args(["--deny", "--root", root.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!deny.status.success());

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deny_passes_once_every_finding_is_suppressed_or_fixed() {
    let root = fixture_root("deny");
    let fixed = FIXTURE.replace(
        "pub fn one(x: &AtomicU64) -> u64 {\n    x.load",
        "pub fn one(x: &AtomicU64) -> u64 {\n    // lint:allow(atomic-seqcst): fixture — now also justified\n    x.load",
    );
    std::fs::write(root.join("crates/cx/src/bad.rs"), fixed).unwrap();
    let deny = bin()
        .args(["--deny", "--root", root.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        deny.status.success(),
        "stdout: {}",
        String::from_utf8_lossy(&deny.stdout)
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn root_is_found_from_a_subdirectory_by_its_workspace_manifest() {
    let root = fixture_root("discover");
    let with_root = bin()
        .args(["--json", "--root", root.to_str().unwrap()])
        .output()
        .unwrap();
    let discovered = bin()
        .arg("--json")
        .current_dir(root.join("crates/cx"))
        .output()
        .unwrap();
    let text = String::from_utf8(discovered.stdout).unwrap();
    assert_eq!(
        text.lines().filter(|l| !l.is_empty()).count(),
        2,
        "expected both findings: {text}{}",
        String::from_utf8_lossy(&discovered.stderr)
    );
    assert!(text.contains("\"file\":\"crates/cx/src/bad.rs\""), "{text}");
    assert_eq!(text, String::from_utf8(with_root.stdout).unwrap());
    std::fs::remove_dir_all(&root).ok();
}
