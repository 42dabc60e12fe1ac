//! The workspace lint policy.
//!
//! [`Config::default`] is the one statement of what prep-lint checks
//! where: there is no policy file and no override layer, so changing a
//! scope, a primitive list or a ban is one reviewed Rust diff, and the
//! tests and the CI binary run exactly the same policy.
//!
//! The comment conventions the rules enforce across the workspace:
//!
//! * `// ord: <why>` justifies an explicit atomic `Ordering` at a call.
//! * `// shared-line: <why>` justifies an unpadded atomic field (the
//!   container is already padded, the field is cold, or the line has a
//!   single writer).
//! * `// SAFETY: <argument>` is required at every unsafe site.
//! * `// lint:allow(<rule>): <reason>` suppresses one finding at its
//!   site; the reason is mandatory, and a reason-less allow is itself a
//!   finding.

/// Scope of a path-restricted rule.
#[derive(Debug, Clone)]
pub struct RuleScope {
    /// Path prefixes the rule applies to (workspace-relative).
    pub paths: &'static [&'static str],
    /// Path substrings exempt from the rule (coarse allowlist; prefer
    /// `// lint:allow(rule): reason` for site-level exemptions).
    pub allow: &'static [&'static str],
}

impl RuleScope {
    pub fn applies(&self, path: &str) -> bool {
        self.paths.iter().any(|p| path.starts_with(p))
            && !self.allow.iter().any(|a| path.contains(a))
    }
}

/// One forbidden-API entry. Matches inside test code never count.
#[derive(Debug, Clone)]
pub struct ForbiddenEntry {
    /// Entry name (for messages), e.g. `instant-now`.
    pub name: &'static str,
    /// `::`-separated identifier chain to match, e.g. `Instant::now`.
    /// Matches both direct paths and `use` trees (`std::sync::{…, Mutex}`).
    pub pattern: &'static str,
    pub scope: RuleScope,
    /// Human reason the API is banned here.
    pub message: &'static str,
    pub suggestion: &'static str,
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
    pub unsafety: RuleScope,
    pub forbidden: &'static [ForbiddenEntry],
}

/// The crates whose blocking-lock discipline is under study: everything
/// the replicated-persistence protocol runs through, plus the network
/// service and the load generator.
const LOCK_DISCIPLINE: &[&str] = &[
    "crates/nr/src",
    "crates/sync/src",
    "crates/core/src",
    "crates/cx/src",
    "crates/shard/src",
    "crates/serve/src",
    "crates/loadgen/src",
];

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
                allow: &[],
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
                allow: &[],
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
                allow: &[],
            },
            persist_primitives: &["flush_range", "clflushopt_at", "wbinvd", "nvm_write"],
            persist_hooks: &[
                "trace_store",
                "trace_publish",
                "trace_recovery_read",
                "persist_clflush_at",
                "publish_clflush",
            ],
            // Successor to the retired ci/check_unsafe.sh.
            unsafety: RuleScope {
                paths: &["crates"],
                allow: &[],
            },
            forbidden: &[
                ForbiddenEntry {
                    name: "instant-now",
                    pattern: "Instant::now",
                    scope: RuleScope {
                        // prep-serve deliberately gets no allowance: the
                        // server stays Instant-free (its latency story is
                        // the simulated-NVM cost model). The load
                        // generator's timer (crates/loadgen/src/clock.rs)
                        // is the one component whose job *is* wall-clock
                        // time; it carries site-level reasoned allows
                        // rather than a path exemption, so each call site
                        // states its reason.
                        paths: &["crates"],
                        allow: &["crates/pmem/src/latency.rs", "crates/bench"],
                    },
                    message: "Instant::now outside the latency model: wall-clock reads in \
                              instrumented paths skew the emulated NVM timings",
                    suggestion: "route timing through prep_pmem::latency (see charge_ns), or \
                                 justify with // lint:allow(forbidden-api): <reason>",
                },
                ForbiddenEntry {
                    name: "std-mutex",
                    pattern: "std::sync::Mutex",
                    scope: RuleScope {
                        paths: LOCK_DISCIPLINE,
                        allow: &["crates/nr/src/global_lock.rs"],
                    },
                    message: "std::sync::Mutex in a hot-path crate: blocking locks belong to \
                              the Mutex-UC baseline (global_lock.rs), not the replicated path",
                    suggestion: "use a prep-sync lock, or justify with \
                                 // lint:allow(forbidden-api): <reason>",
                },
                ForbiddenEntry {
                    name: "std-rwlock",
                    pattern: "std::sync::RwLock",
                    scope: RuleScope {
                        paths: LOCK_DISCIPLINE,
                        allow: &[],
                    },
                    message: "std::sync::RwLock in a hot-path crate: replica locks go through \
                              the ReplicaLock trait (DistRwLock/PhaseFairRwLock)",
                    suggestion: "use a prep-sync lock, or justify with \
                                 // lint:allow(forbidden-api): <reason>",
                },
                ForbiddenEntry {
                    name: "thread-sleep",
                    pattern: "thread::sleep",
                    scope: RuleScope {
                        paths: &[
                            "crates/nr/src",
                            "crates/sync/src",
                            "crates/core/src",
                            "crates/cx/src",
                            "crates/shard/src",
                            "crates/pmem/src",
                            "crates/serve/src",
                            "crates/loadgen/src",
                        ],
                        allow: &["crates/sync/src/waiter.rs", "crates/pmem/src/latency.rs"],
                    },
                    message: "thread::sleep in a hot-path crate: polite waiting goes through \
                              prep_sync::Waiter (spin budget, then sleep)",
                    suggestion: "use prep_sync::Waiter, or justify with \
                                 // lint:allow(forbidden-api): <reason>",
                },
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
            allow: &["global_lock"],
        };
        assert!(s.applies("crates/nr/src/log.rs"));
        assert!(!s.applies("crates/nr/tests/x.rs"));
        assert!(!s.applies("crates/nr/src/global_lock.rs"));
    }
}
