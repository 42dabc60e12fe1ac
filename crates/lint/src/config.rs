//! The workspace lint policy.
//!
//! [`Config::default`] is the one statement of what prep-lint checks
//! where: there is no policy file and no override layer, so changing a
//! scope or a primitive list is one reviewed Rust diff, and the tests and
//! the CI binary run exactly the same policy. The generic policy (the
//! unsafe audit, the API bans, reasons on `#[allow]`) is the compiler's:
//! `[workspace.lints]` in the root `Cargo.toml` and the root `clippy.toml`.
//!
//! The comment conventions the rules enforce across the workspace:
//!
//! * `// ord: <why>` justifies an explicit atomic `Ordering` at a call.
//! * `// shared-line: <why>` justifies an unpadded atomic field (the
//!   container is already padded, the field is cold, or the line has a
//!   single writer).
//! * `// lint:allow(<rule>): <reason>` suppresses one finding at its
//!   site; the reason is mandatory, and a reason-less allow is itself a
//!   finding.

/// Scope of a path-restricted rule: the path prefixes (workspace-relative)
/// it applies to.
#[derive(Debug, Clone)]
pub struct RuleScope {
    pub paths: &'static [&'static str],
}

impl RuleScope {
    pub fn applies(&self, path: &str) -> bool {
        self.paths.iter().any(|p| path.starts_with(p))
    }
}

/// Full lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (workspace-relative) scanned for `.rs` files.
    pub include: &'static [&'static str],
    /// Path substrings skipped entirely.
    pub exclude: &'static [&'static str],
    pub ordering: RuleScope,
    pub padding: RuleScope,
    pub persist: RuleScope,
    /// Persist primitives that must not escape the sanitizer.
    pub persist_primitives: &'static [&'static str],
    /// Trace hooks that satisfy coverage.
    pub persist_hooks: &'static [&'static str],
}

impl Default for Config {
    /// The workspace policy.
    fn default() -> Self {
        Config {
            include: &["crates"],
            exclude: &["crates/lint/tests"],
            // Rules atomic-ordering / atomic-seqcst / atomic-fence-ordering
            // cover every hot-path crate the paper's protocol runs through
            // plus the network service, whose pipeline state machine
            // (queue depths, drain barriers, ack watermarks) is all
            // explicit atomics. crates/mc stays out of scope on purpose:
            // the model checker consumes `Ordering` values as data (its
            // cell shims and engine match on every ordering), so per-site
            // `ord:` justifications there would be noise.
            ordering: RuleScope {
                paths: &[
                    "crates/nr/src",
                    "crates/sync/src",
                    "crates/pmem/src",
                    "crates/core/src",
                    "crates/cx/src",
                    "crates/shard/src",
                    "crates/serve/src",
                ],
            },
            // Padding discipline where §5.1-style false sharing bites:
            // the log, the locks, the runtime counters, and CX's shared
            // most-recent-replica and scan-hint words.
            padding: RuleScope {
                paths: &[
                    "crates/nr/src",
                    "crates/sync/src",
                    "crates/pmem/src",
                    "crates/cx/src",
                ],
            },
            // Every function driving an addressed persist primitive must
            // also trace through a psan hook, or the stores it persists
            // are invisible to the sanitizer. nr itself only sees hooks,
            // but stays in scope so new direct calls cannot sneak in.
            // Flush-and-fence-before-publish *ordering* is prep-psan's
            // job, checked on every traced run; DESIGN.md's mutation
            // matrix shows why no lint rule duplicates it.
            persist: RuleScope {
                paths: &[
                    "crates/nr/src",
                    "crates/core/src",
                    "crates/shard/src",
                    "crates/cx/src",
                ],
            },
            persist_primitives: &["flush_range", "clflushopt_at", "wbinvd", "nvm_write"],
            persist_hooks: &[
                "trace_store",
                "trace_publish",
                "trace_recovery_read",
                "persist_clflush_at",
                "publish_clflush",
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        let s = RuleScope {
            paths: &["crates/nr/src"],
        };
        assert!(s.applies("crates/nr/src/log.rs"));
        assert!(!s.applies("crates/nr/tests/x.rs"));
        assert!(!s.applies("crates/nrx/src/log.rs"));
    }
}
