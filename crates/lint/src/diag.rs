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
    /// `fence`/`compiler_fence` call without a `// ord:` justification.
    pub const ATOMIC_FENCE_ORDERING: &str = "atomic-fence-ordering";
    /// Unpadded atomic field in a `Sync`-shared struct.
    pub const CACHELINE_PADDING: &str = "cacheline-padding";
    /// Persist primitive called without a psan trace hook in scope.
    pub const PERSIST_HOOK: &str = "persist-hook";
    /// `lint:allow` without a mandatory reason.
    pub const LINT_ALLOW_REASON: &str = "lint-allow-reason";

    /// Every rule id, for `--list-rules`.
    pub const ALL: &[&str] = &[
        ATOMIC_ORDERING,
        ATOMIC_SEQCST,
        ATOMIC_FENCE_ORDERING,
        CACHELINE_PADDING,
        PERSIST_HOOK,
        LINT_ALLOW_REASON,
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
        rules::LINT_ALLOW_REASON,
        "`lint:allow(<rule>)` without a reason suppresses nothing and is itself a finding. \
         The mandatory `: <reason>` keeps the escape hatch from rotting into an \
         unexplained mute button.",
    ),
];

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
        if let Some(s) = &self.suggestion {
            write!(f, "\n    suggestion: {s}")?;
        }
        Ok(())
    }
}
