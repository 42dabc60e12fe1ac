//! Diagnostics: machine-readable findings with positions, rule ids,
//! messages, and suggestions.

use std::fmt;

/// Stable rule identifiers (the strings `// lint:allow(<rule>)` names).
pub mod rules {
    /// Atomic access with an explicit `Ordering` but no `// ord:`
    /// justification.
    pub const ATOMIC_ORDERING: &str = "atomic-ordering";
    /// `SeqCst` without justification — ordering-by-default smell.
    pub const ATOMIC_SEQCST: &str = "atomic-seqcst";
    /// `Relaxed` on a pointer-publishing store.
    pub const ATOMIC_RELAXED_PUBLISH: &str = "atomic-relaxed-publish";
    /// `fence`/`compiler_fence` call without a `// ord:` justification.
    pub const ATOMIC_FENCE_ORDERING: &str = "atomic-fence-ordering";
    /// Unpadded atomic field in a `Sync`-shared struct.
    pub const CACHELINE_PADDING: &str = "cacheline-padding";
    /// Persist primitive called without a psan trace hook in scope.
    pub const PERSIST_HOOK: &str = "persist-hook";
    /// `unsafe` site without an attached `// SAFETY:` comment.
    pub const UNSAFE_MISSING_SAFETY: &str = "unsafe-missing-safety";
    /// Unsafe-free crate without `#![forbid(unsafe_code)]`.
    pub const UNSAFE_MISSING_FORBID: &str = "unsafe-missing-forbid";
    /// Unsafe-using crate without `#![deny(unsafe_op_in_unsafe_fn)]`.
    pub const UNSAFE_MISSING_DENY: &str = "unsafe-missing-deny";
    /// Configured forbidden API used outside its allowed paths.
    pub const FORBIDDEN_API: &str = "forbidden-api";
    /// `lint:allow` without a mandatory reason.
    pub const LINT_ALLOW_REASON: &str = "lint-allow-reason";
    /// Lower-level lock acquired while a higher-level lock is held
    /// (inter-procedural; levels come from `// lock-level:` comments).
    pub const LOCK_ORDER: &str = "lock-order";
    /// Cycle in the acquired-while-holding graph — static deadlock.
    pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
    /// Lock type acquired in scope without a declared `// lock-level:`.
    pub const LOCK_ORDER_UNRANKED: &str = "lock-order-unranked";
    /// A path from an NVM store reaches a publish site without an
    /// intervening flush + fence (psan rule 1, checked on all paths).
    pub const FLUSH_BEFORE_PUBLISH: &str = "flush-before-publish";

    /// Every rule id, for `--list-rules`.
    pub const ALL: &[&str] = &[
        ATOMIC_ORDERING,
        ATOMIC_SEQCST,
        ATOMIC_RELAXED_PUBLISH,
        ATOMIC_FENCE_ORDERING,
        CACHELINE_PADDING,
        PERSIST_HOOK,
        UNSAFE_MISSING_SAFETY,
        UNSAFE_MISSING_FORBID,
        UNSAFE_MISSING_DENY,
        FORBIDDEN_API,
        LINT_ALLOW_REASON,
        LOCK_ORDER,
        LOCK_ORDER_CYCLE,
        LOCK_ORDER_UNRANKED,
        FLUSH_BEFORE_PUBLISH,
    ];
}

/// Rationale paragraphs for `--explain <rule-id>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    EXPLANATIONS
        .iter()
        .find(|(r, _)| *r == rule)
        .map(|(_, text)| *text)
}

const EXPLANATIONS: &[(&str, &str)] = &[
    (
        rules::ATOMIC_ORDERING,
        "Every atomic access that names an explicit Ordering must carry a `// ord: <why>` \
         justification on the lines it spans (or directly above). The ordering *is* the \
         protocol: an unexplained Acquire/Release pair is a protocol nobody can review.",
    ),
    (
        rules::ATOMIC_SEQCST,
        "SeqCst used \"to be safe\" hides whether the total order is load-bearing. It usually \
         guards a store->load (store-buffering) pair; name that pair in a `// ord:` comment, \
         or downgrade to Acquire/Release and let the comment say why that suffices.",
    ),
    (
        rules::ATOMIC_RELAXED_PUBLISH,
        "A Relaxed store that publishes a pointer lets consumers observe the pointee before \
         its initialization is visible. Publish with Release (and pair the consumer load \
         with Acquire), or carry an explicit lint:allow with the argument.",
    ),
    (
        rules::ATOMIC_FENCE_ORDERING,
        "A standalone fence synchronizes accesses that are not visible at the call site, \
         which makes it *more* protocol-critical than a per-access ordering. The `// ord:` \
         comment must name the accesses the fence orders and what they pair with.",
    ),
    (
        rules::CACHELINE_PADDING,
        "An unpadded atomic field in a Sync-shared struct invites false sharing: two hot \
         counters on one line serialize every core that touches either (paper section 5.1). \
         Wrap the field in CachePadded, or justify sharing with `// shared-line: <why>`.",
    ),
    (
        rules::PERSIST_HOOK,
        "The addressed persist primitives (flush_range, clflushopt_at, wbinvd, nvm_write) \
         record their own flush events, but the *stores they persist* are plain writes the \
         sanitizer only sees through trace hooks. A persist path without a hook silently \
         escapes every psan ordering rule.",
    ),
    (
        rules::UNSAFE_MISSING_SAFETY,
        "Every unsafe site must state the invariant that makes it sound in an attached \
         `// SAFETY:` comment. The comment is the audit trail; unsafe without it is \
         unreviewable.",
    ),
    (
        rules::UNSAFE_MISSING_FORBID,
        "A crate with no unsafe code should say so enforceably: `#![forbid(unsafe_code)]` \
         at the crate root turns the property into a compile error instead of a habit.",
    ),
    (
        rules::UNSAFE_MISSING_DENY,
        "A crate that uses unsafe should carry `#![deny(unsafe_op_in_unsafe_fn)]` so every \
         unsafe operation sits in an explicit unsafe block with its own SAFETY comment, \
         even inside unsafe fns.",
    ),
    (
        rules::FORBIDDEN_API,
        "Some std APIs are banned per-path by lint.toml: wall-clock reads outside the \
         latency model skew the emulated NVM timings, blocking std locks belong to the \
         Mutex-UC baseline only, and bare thread::sleep bypasses the Waiter's spin budget.",
    ),
    (
        rules::LINT_ALLOW_REASON,
        "`lint:allow(<rule>)` without a reason suppresses nothing and is itself a finding. \
         The mandatory `: <reason>` keeps the escape hatch from rotting into an \
         unexplained mute button.",
    ),
    (
        rules::LOCK_ORDER,
        "Locks declare a hierarchy level with `// lock-level: <n> <why>` on the lock type, \
         the field, or the acquire site (region ticket locks=0, combiner election=1, replica \
         locks=2, combiner slot flags=3). Acquiring a \
         lower level while holding a higher one — directly or through any chain of calls — \
         breaks the partial order that makes the replication protocol deadlock-free: two \
         threads taking the same pair in opposite rank order can block each other forever. \
         The diagnostic chain shows the inter-procedural path from the holding acquire to \
         the violating one.",
    ),
    (
        rules::LOCK_ORDER_CYCLE,
        "A cycle among same-level locks in the acquired-while-holding graph is a static \
         deadlock: thread 1 holds A wanting B while thread 2 holds B wanting A, and rank \
         monotonicity cannot rule it out because the ranks are equal. Break the cycle by \
         ordering the acquisitions consistently, or split the level with finer \
         `// lock-level:` declarations on the fields involved.",
    ),
    (
        rules::LOCK_ORDER_UNRANKED,
        "A lock type acquired inside the scoped paths without any declared `// lock-level:` \
         (and no [lock-order] rank) is invisible to the hierarchy check — every inversion \
         through it goes unreported. Declare its level where the type or field is defined.",
    ),
    (
        rules::FLUSH_BEFORE_PUBLISH,
        "psan rule 1, checked statically on *all* paths instead of only executed traces: \
         between an NVM store and any publish site (completedTail/selector/emptyBit \
         stores marked `// publishes: <what>`, or fused publish primitives) there must be \
         a flush of the span AND an sfence on every path. A publish that races ahead of \
         its data's writeback is exactly the recovery bug NVTraverse calls out: after a \
         crash the published pointer is durable but the journey it promises is not.",
    ),
];

/// One step of an inter-procedural chain: `fn-name (path:line)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    pub func: String,
    pub path: String,
    pub line: u32,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Rule id (one of [`rules`]).
    pub rule: &'static str,
    pub message: String,
    /// Concrete fix the developer can apply.
    pub suggestion: Option<String>,
    /// Last line of the flagged construct — `lint:allow` comments attached
    /// anywhere in `line..=end_line` suppress the finding.
    pub end_line: u32,
    /// Inter-procedural call chain from the reporting function to the
    /// site (empty for intra-procedural findings).
    pub chain: Vec<ChainStep>,
    /// Reason text of the `lint:allow` that suppressed this finding, if
    /// any — populated only by the `*_all` engine entry points.
    pub suppressed_by: Option<String>,
}

impl Diagnostic {
    pub fn new(
        path: &str,
        line: u32,
        col: u32,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            path: path.to_string(),
            line,
            col,
            rule,
            message: message.into(),
            suggestion: None,
            end_line: line,
            chain: Vec::new(),
            suppressed_by: None,
        }
    }

    pub fn suggest(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    pub fn span_to(mut self, end_line: u32) -> Self {
        self.end_line = end_line.max(self.line);
        self
    }

    pub fn with_chain(mut self, chain: Vec<ChainStep>) -> Self {
        self.chain = chain;
        self
    }
}

impl fmt::Display for Diagnostic {
    /// `file:line:col: [rule-id] message` — one finding per line, grep-
    /// and editor-friendly; the suggestion follows indented.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )?;
        if !self.chain.is_empty() {
            let steps: Vec<String> = self
                .chain
                .iter()
                .map(|s| format!("{} ({}:{})", s.func, s.path, s.line))
                .collect();
            write!(f, "\n    chain: {}", steps.join(" -> "))?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n    suggestion: {s}")?;
        }
        Ok(())
    }
}
