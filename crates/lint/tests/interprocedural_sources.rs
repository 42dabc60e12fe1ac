//! Table-driven corpus of known-bad *inter-procedural* sources.
//!
//! Companion to `known_bad_sources.rs`, exercising the workspace rules
//! that need the call graph: `lock-order` / `lock-order-cycle` /
//! `lock-order-unranked` over declared lock levels. Every fixture
//! finding pins the exact rule id, 1-based line:col, message and
//! suggestion fragments, and — new here — the inter-procedural chain as
//! a sequence of function names, plus the total count so extra or
//! shifted findings fail too.

use prep_lint::{lint_files, Config};

/// Lock-order fixtures. A three-tier fixture hierarchy (gate=1, data=2,
/// peers=3) declared with `// lock-level:` comments, plus an undeclared
/// lock and a reasonless declaration.
const BAD_LOCKS: &str = r#"//! Known-bad: lock hierarchy violations across calls.

pub struct Guard;

// lock-level: 1 fixture — gate tier of the fixture hierarchy
pub struct GateLock;
impl GateLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

// lock-level: 2 fixture — data tier, taken inside the gate
pub struct DataLock;
impl DataLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
    pub fn try_lock(&self) -> Option<Guard> {
        None
    }
}

// lock-level: 3 fixture — left peer of the equal-level pair
pub struct LeftLock;
impl LeftLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

// lock-level: 3 fixture — right peer of the equal-level pair
pub struct RightLock;
impl RightLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

// lock-level: 5 fixture — held across the call hop
pub struct HopHighLock;
impl HopHighLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

// lock-level: 4 fixture — acquired inside the hop callee
pub struct HopLowLock;
impl HopLowLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

pub struct StrayLock;
impl StrayLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

pub struct App {
    gate: GateLock,
    data: DataLock,
    left: LeftLock,
    right: RightLock,
    hop_high: HopHighLock,
    hop_low: HopLowLock,
    stray: StrayLock,
}

impl App {
    pub fn direct_inversion(&self) {
        let _d = self.data.lock();
        let _g = self.gate.lock();
    }

    pub fn hop_inversion(&self) {
        let _h = self.hop_high.lock();
        self.take_hop_low();
    }

    fn take_hop_low(&self) {
        let _l = self.hop_low.lock();
    }

    pub fn left_then_right(&self) {
        let _l = self.left.lock();
        let _r = self.right.lock();
    }

    pub fn right_then_left(&self) {
        let _r = self.right.lock();
        let _l = self.left.lock();
    }

    pub fn reentrant(&self) {
        let _a = self.gate.lock();
        let _b = self.gate.lock();
    }

    pub fn unranked(&self) {
        let _s = self.stray.lock();
    }

    pub fn clean_order(&self) {
        let _g = self.gate.lock();
        let _d = self.data.lock();
        if let Some(_again) = self.data.try_lock() {
            // try-acquire: non-blocking, exempt from the hierarchy.
        }
    }
}
"#;

/// A reasonless level declaration, kept in its own file so the missing-
/// rationale finding has a unique site.
const BAD_LEVEL_WHY: &str = r#"//! Known-bad: a lock level with no rationale.

// lock-level: 4
pub struct MysteryLock;
impl MysteryLock {
    pub fn lock(&self) {}
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
    /// Exact function names along the reported chain (empty = any).
    chain: &'static [&'static str],
}

const EXPECTED: &[Expected] = &[
    // -- lock-order family --
    Expected {
        path: "crates/cx/src/bad_locks.rs",
        line: 76,
        col: 28,
        rule: "lock-order",
        msg: "acquires `GateLock` (level 1) while holding `DataLock` (level 2)",
        sugg: "release `DataLock` first",
        chain: &["direct_inversion"],
    },
    Expected {
        path: "crates/cx/src/bad_locks.rs",
        line: 81,
        col: 14,
        rule: "lock-order",
        msg: "acquires `HopLowLock` (level 4) while holding `HopHighLock` (level 5)",
        sugg: "move `HopLowLock` to a level above 5",
        chain: &["hop_inversion", "take_hop_low"],
    },
    Expected {
        path: "crates/cx/src/bad_locks.rs",
        line: 90,
        col: 29,
        rule: "lock-order-cycle",
        msg: "acquire cycle between `LeftLock` and `RightLock` (both level 3)",
        sugg: "give `LeftLock` and `RightLock` distinct // lock-level: values",
        chain: &["left_then_right"],
    },
    Expected {
        path: "crates/cx/src/bad_locks.rs",
        line: 100,
        col: 28,
        rule: "lock-order-cycle",
        msg: "re-entrant acquire of `GateLock` while already holding it",
        sugg: "take the lock once and pass the guard down",
        chain: &["reentrant"],
    },
    Expected {
        path: "crates/cx/src/bad_locks.rs",
        line: 104,
        col: 29,
        rule: "lock-order-unranked",
        msg: "`StrayLock` acquired without a declared lock level",
        sugg: "add `// lock-level: <n> <why>` where `StrayLock`",
        chain: &[],
    },
    Expected {
        path: "crates/sync/src/bad_level_why.rs",
        line: 3,
        col: 1,
        rule: "lock-order-unranked",
        msg: "`// lock-level:` without a rationale",
        sugg: "write // lock-level: <n> <why this level fits the hierarchy>",
        chain: &[],
    },
];

fn corpus() -> Vec<(String, String)> {
    [
        ("crates/cx/src/bad_locks.rs", BAD_LOCKS),
        ("crates/sync/src/bad_level_why.rs", BAD_LEVEL_WHY),
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
        let hit = diags
            .iter()
            .find(|d| d.path == e.path && d.line == e.line && d.col == e.col && d.rule == e.rule);
        let Some(d) = hit else {
            panic!(
                "expected {}:{}:{} [{}] — not reported.\nall findings:\n{}",
                e.path,
                e.line,
                e.col,
                e.rule,
                pretty()
            );
        };
        assert!(
            d.message.contains(e.msg),
            "message for {}:{} [{}] missing {:?}: got {:?}",
            e.path,
            e.line,
            e.rule,
            e.msg,
            d.message
        );
        if !e.sugg.is_empty() {
            let s = d.suggestion.as_deref().unwrap_or("");
            assert!(
                s.contains(e.sugg),
                "suggestion for {}:{} [{}] missing {:?}: got {:?}",
                e.path,
                e.line,
                e.rule,
                e.sugg,
                s
            );
        }
        if !e.chain.is_empty() {
            let got: Vec<&str> = d.chain.iter().map(|c| c.func.as_str()).collect();
            assert_eq!(
                got, e.chain,
                "chain for {}:{} [{}]: got {:?}",
                e.path, e.line, e.rule, got
            );
        }
    }
    assert_eq!(
        diags.len(),
        EXPECTED.len(),
        "extra findings beyond the pinned table:\n{}",
        pretty()
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

/// Regression: a receiver with a *declared but non-workspace* type (an
/// `AtomicU64` field, a socket, …) must not fall back to every same-name
/// workspace method. That fan-out used to route `seq.load(..)` into an
/// unrelated `load` that takes locks, fabricating inversion chains.
const EXTERNAL_RECV_FIXTURE: &str = r#"//! Fixture: typed-but-external receivers get no same-name fan-out.
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Guard;

// lock-level: 1 fixture — inner tier
pub struct InnerLock;
impl InnerLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

// lock-level: 2 fixture — outer tier
pub struct OuterLock;
impl OuterLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

pub struct Cellish {
    inner: InnerLock,
}
impl Cellish {
    pub fn load(&self) -> Guard {
        self.inner.lock()
    }
}

pub struct Counter {
    seq: AtomicU64,
    outer: OuterLock,
}
impl Counter {
    pub fn bump(&self) -> u64 {
        let _o = self.outer.lock();
        // ord: fixture — monotonic counter, any ordering works.
        self.seq.load(Ordering::Relaxed)
    }
}
"#;

#[test]
fn external_receiver_does_not_fan_out_by_name() {
    let files = vec![(
        "crates/core/src/ext_recv.rs".to_string(),
        EXTERNAL_RECV_FIXTURE.to_string(),
    )];
    let diags = lint_files(&files, &Config::default());
    assert!(
        diags.is_empty(),
        "fabricated chain through Cellish::load: {:?}",
        diags.iter().map(|d| format!("{d}")).collect::<Vec<_>>()
    );
}

/// A site-level `// lock-level:` asserts the *instance* at that acquire
/// is a different rung than its type's default: it synthesizes a
/// per-site class instead of re-ranking the whole type.
const SITE_OVERRIDE_FIXTURE: &str = r#"//! Fixture: per-site level override.

pub struct Guard;

// lock-level: 0 fixture — the global gate tier
pub struct GateLock;
impl GateLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

// lock-level: 1 fixture — combiner tier
pub struct ComboLock;
impl ComboLock {
    pub fn lock(&self) -> Guard {
        Guard
    }
}

pub struct App {
    combo: ComboLock,
    reserve: GateLock,
}
impl App {
    pub fn reserve(&self) -> Guard {
        let _c = self.combo.lock();
        // lock-level: 2 fixture — this gate instance only ever nests
        // inside the combiner lock, unlike its type's level-0 default
        self.reserve.lock()
    }
}
"#;

#[test]
fn site_level_override_reclassifies_one_acquire() {
    let path = "crates/nr/src/site_override.rs".to_string();
    let diags = lint_files(
        &[(path.clone(), SITE_OVERRIDE_FIXTURE.to_string())],
        &Config::default(),
    );
    assert!(
        diags.is_empty(),
        "site override ignored: {:?}",
        diags.iter().map(|d| format!("{d}")).collect::<Vec<_>>()
    );

    // Without the override the same acquire is a plain level-0 GateLock
    // taken under the level-1 combiner: an inversion.
    let stripped: String = SITE_OVERRIDE_FIXTURE
        .lines()
        .filter(|l| {
            !l.trim_start().starts_with("// lock-level: 2 fixture")
                && !l.trim_start().starts_with("// inside the combiner")
        })
        .collect::<Vec<_>>()
        .join("\n");
    let diags = lint_files(&[(path, stripped)], &Config::default());
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "lock-order" && d.message.contains("acquires `GateLock` (level 0)")),
        "inversion not detected without the override: {:?}",
        diags.iter().map(|d| format!("{d}")).collect::<Vec<_>>()
    );
}
