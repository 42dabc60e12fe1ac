//! Table-driven corpus of known-bad sources.
//!
//! Each fixture is a deliberately broken file fed through [`lint_files`]
//! against the default config; the table pins every expected finding —
//! exact rule id, exact 1-based line:col, and a distinctive fragment of
//! the message and suggestion — plus the *total* count, so extra or
//! shifted findings fail too. Fixture paths impersonate real workspace
//! locations because rule scopes are path-keyed.

use prep_lint::{lint_files, Config};

const BAD_ATOMICS: &str = r#"//! Known-bad: explicit orderings with no justification.
use std::sync::atomic::{fence, compiler_fence, AtomicPtr, AtomicU64, Ordering};

pub struct Publisher {
    // shared-line: fixture — padding is not under test here.
    slot: AtomicPtr<u64>,
    // shared-line: fixture — padding is not under test here.
    seq: AtomicU64,
}

impl Publisher {
    pub fn unjustified_load(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    pub fn seqcst_by_default(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    pub fn relaxed_publish(&self, p: *mut u64) {
        self.slot.store(p, Ordering::Relaxed);
    }

    pub fn unjustified_fence(&self) {
        fence(Ordering::Acquire);
    }

    pub fn justified_fence(&self) {
        // ord: fixture — orders the peeked reads above the re-load below.
        compiler_fence(Ordering::Release);
    }
}
"#;

const BAD_PADDING: &str = r#"//! Known-bad: unpadded atomics on a shared struct.
use std::sync::atomic::{AtomicBool, AtomicU64};

pub struct SharedCounters {
    pub hits: AtomicU64,
    pub stop: AtomicBool,
}
"#;

const BAD_PERSIST: &str = r#"//! Known-bad: persist primitives outside the sanitizer's sight.
use prep_pmem::PmemRuntime;

pub fn untraced_flush(rt: &PmemRuntime, base: u64, len: u64) {
    rt.flush_range(base, len, "untraced_flush");
    rt.sfence();
}

pub fn untraced_line(rt: &PmemRuntime, line: u64) {
    rt.clflushopt_at(line * 64, "untraced_line");
}
"#;

const BAD_ALLOWS: &str = r#"//! Suppression semantics: reasons are mandatory.
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Gauge {
    // shared-line: fixture — padding is not under test here.
    v: AtomicU64,
}

impl Gauge {
    pub fn suppressed(&self) -> u64 {
        // lint:allow(atomic-ordering): fixture — justified in prose.
        self.v.load(Ordering::Acquire)
    }

    pub fn reasonless(&self) -> u64 {
        // lint:allow(atomic-ordering)
        self.v.load(Ordering::Acquire)
    }
}
"#;

struct Expected {
    path: &'static str,
    line: u32,
    col: u32,
    rule: &'static str,
    /// Substring the message must contain.
    msg: &'static str,
    /// Substring the suggestion must contain.
    sugg: &'static str,
}

const EXPECTED: &[Expected] = &[
    // -- rule family 1: atomic-ordering / atomic-seqcst --
    Expected {
        path: "crates/sync/src/bad_atomics.rs",
        line: 13,
        col: 18,
        rule: "atomic-ordering",
        msg: "`load` with explicit Ordering::Acquire lacks a // ord: justification",
        sugg: "add `// ord: <why this ordering is sufficient>` at the call",
    },
    Expected {
        path: "crates/sync/src/bad_atomics.rs",
        line: 17,
        col: 18,
        rule: "atomic-seqcst",
        msg: "`load` uses Ordering::SeqCst without a // ord: justification",
        sugg: "naming the store\u{2192}load pair",
    },
    Expected {
        path: "crates/sync/src/bad_atomics.rs",
        line: 21,
        col: 19,
        rule: "atomic-ordering",
        msg: "`store` with explicit Ordering::Relaxed lacks a // ord: justification",
        sugg: "add `// ord: <why this ordering is sufficient>` at the call",
    },
    Expected {
        path: "crates/sync/src/bad_atomics.rs",
        line: 25,
        col: 9,
        rule: "atomic-fence-ordering",
        msg: "`fence(Acquire)` lacks a // ord: justification",
        sugg: "add `// ord: <which accesses this fence orders, and with what>`",
    },
    // -- rule family 2: cacheline-padding --
    Expected {
        path: "crates/nr/src/bad_padding.rs",
        line: 5,
        col: 9,
        rule: "cacheline-padding",
        msg: "atomic field `SharedCounters.hits: AtomicU64` is not CachePadded",
        sugg: "wrap as `CachePadded<AtomicU64>`",
    },
    Expected {
        path: "crates/nr/src/bad_padding.rs",
        line: 6,
        col: 9,
        rule: "cacheline-padding",
        msg: "atomic field `SharedCounters.stop: AtomicBool` is not CachePadded",
        sugg: "wrap as `CachePadded<AtomicBool>`",
    },
    // -- rule family 3: persist-hook --
    Expected {
        path: "crates/core/src/bad_persist.rs",
        line: 5,
        col: 8,
        rule: "persist-hook",
        msg: "`untraced_flush` calls persist primitive `flush_range` but no psan trace hook",
        sugg: "trace the persisted span first",
    },
    Expected {
        path: "crates/core/src/bad_persist.rs",
        line: 10,
        col: 8,
        rule: "persist-hook",
        msg: "`untraced_line` calls persist primitive `clflushopt_at` but no psan trace hook",
        sugg: "lint:allow(persist-hook): <reason> if the caller traces",
    },
    // -- suppression semantics --
    Expected {
        path: "crates/sync/src/allows.rs",
        line: 16,
        col: 9,
        rule: "lint-allow-reason",
        msg: "lint:allow without a reason — suppression is refused",
        sugg: "write // lint:allow(<rule>): <why this finding is acceptable>",
    },
    Expected {
        path: "crates/sync/src/allows.rs",
        line: 17,
        col: 16,
        rule: "atomic-ordering",
        msg: "`load` with explicit Ordering::Acquire lacks a // ord: justification",
        sugg: "",
    },
];

fn corpus() -> Vec<(String, String)> {
    [
        ("crates/sync/src/bad_atomics.rs", BAD_ATOMICS),
        ("crates/nr/src/bad_padding.rs", BAD_PADDING),
        ("crates/core/src/bad_persist.rs", BAD_PERSIST),
        ("crates/sync/src/allows.rs", BAD_ALLOWS),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect()
}

#[test]
fn every_expected_finding_is_reported_exactly() {
    let diags = lint_files(&corpus(), &Config::default());
    let pretty = || {
        diags
            .iter()
            .map(|d| format!("{d}"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    for e in EXPECTED {
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.path == e.path && d.line == e.line && d.col == e.col && d.rule == e.rule)
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "expected exactly one [{}] at {}:{}:{}, got {} — all findings:\n{}",
            e.rule,
            e.path,
            e.line,
            e.col,
            hits.len(),
            pretty()
        );
        let d = hits[0];
        assert!(
            d.message.contains(e.msg),
            "[{}] {}:{}: message {:?} missing fragment {:?}",
            e.rule,
            e.path,
            e.line,
            d.message,
            e.msg
        );
        if !e.sugg.is_empty() {
            let sugg = d.suggestion.as_deref().unwrap_or("");
            assert!(
                sugg.contains(e.sugg),
                "[{}] {}:{}: suggestion {:?} missing fragment {:?}",
                e.rule,
                e.path,
                e.line,
                sugg,
                e.sugg
            );
        }
    }

    assert_eq!(
        diags.len(),
        EXPECTED.len(),
        "unexpected extra findings:\n{}",
        pretty()
    );
}

/// The reasoned allow in `allows.rs` must actually suppress: no finding of
/// any kind on its line.
#[test]
fn reasoned_allow_suppresses_only_its_line() {
    let diags = lint_files(&corpus(), &Config::default());
    assert!(
        !diags
            .iter()
            .any(|d| d.path == "crates/sync/src/allows.rs" && d.line == 12),
        "the reasoned lint:allow on line 11 should have suppressed line 12"
    );
    // ...while the identical call under the reason-less allow is kept.
    assert!(diags
        .iter()
        .any(|d| d.path == "crates/sync/src/allows.rs" && d.line == 17));
}

/// Display format pin: `file:line:col: [rule-id] message`, suggestion
/// indented beneath.
#[test]
fn diagnostic_display_format() {
    let diags = lint_files(&corpus(), &Config::default());
    let d = diags
        .iter()
        .find(|d| d.rule == "cacheline-padding")
        .expect("padding finding present");
    let shown = format!("{d}");
    assert!(shown.starts_with("crates/nr/src/bad_padding.rs:5:9: [cacheline-padding] "));
    assert!(shown.contains("\n    suggestion: "));
}

/// A corpus with every fixture fixed the way each suggestion says must be
/// clean — the rules accept their own medicine.
#[test]
fn suggested_fixes_lint_clean() {
    let fixed = vec![
        (
            "crates/sync/src/good_atomics.rs".to_string(),
            r#"use std::sync::atomic::{AtomicU64, Ordering};
use crossbeam_utils::CachePadded;

pub struct Gauge {
    v: CachePadded<AtomicU64>,
}

impl Gauge {
    pub fn read(&self) -> u64 {
        // ord: Acquire pairs with the writer's Release publish.
        self.v.load(Ordering::Acquire)
    }
}
"#
            .to_string(),
        ),
        (
            "crates/core/src/good_persist.rs".to_string(),
            r#"use prep_pmem::PmemRuntime;

pub fn traced_flush(rt: &PmemRuntime, base: u64, len: u64) {
    rt.trace_store(base, len, "traced_flush");
    rt.flush_range(base, len, "traced_flush");
}
"#
            .to_string(),
        ),
    ];
    let diags = lint_files(&fixed, &Config::default());
    assert!(
        diags.is_empty(),
        "fixed corpus should be clean, got:\n{}",
        diags
            .iter()
            .map(|d| format!("{d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Regression: `impl FnMut() -> bool` in *argument position* is a type,
/// not an `impl` item. Mistaking it for one used to derail the item scan
/// past the `#[cfg(test)]` module, losing the test span — and then the
/// explicit orderings below leaked out as findings.
const IMPL_ARG_FIXTURE: &str = r#"//! Fixture: impl Trait in argument position.

pub fn spin_until(mut cond: impl FnMut() -> bool) {
    while !cond() {}
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn spins() {
        let flag = AtomicBool::new(true);
        assert!(flag.load(Ordering::Acquire));
        super::spin_until(|| flag.load(Ordering::Acquire));
    }
}
"#;

#[test]
fn impl_in_argument_position_keeps_test_spans() {
    let files = vec![(
        "crates/sync/src/impl_arg.rs".to_string(),
        IMPL_ARG_FIXTURE.to_string(),
    )];
    let diags = lint_files(&files, &Config::default());
    assert!(
        diags.is_empty(),
        "test-module findings leaked: {:?}",
        diags.iter().map(|d| format!("{d}")).collect::<Vec<_>>()
    );
}
