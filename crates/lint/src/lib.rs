//! prep-lint: a workspace static-analysis pass for the concurrency and
//! persistence invariants the PREP-UC design depends on but `rustc`
//! cannot see.
//!
//! The compiler checks types; it does not check that a `SeqCst` is
//! load-bearing, that an atomic field shares a cacheline on purpose,
//! that every persisted store is visible to the persistence sanitizer,
//! or that an `unsafe` block states its invariant. Those are exactly
//! the properties the paper's correctness argument leans on, so this
//! crate machine-checks them:
//!
//! * [`rules::ordering`] — every explicit `Ordering` carries a
//!   `// ord: <why>`; `SeqCst` and standalone fences get dedicated
//!   diagnostics.
//! * [`rules::padding`] — atomic fields in shared structs are
//!   `CachePadded` or justified with `// shared-line: <why>` (§5.1).
//! * [`rules::persist`] — functions driving persist primitives also
//!   trace through the psan hooks (§5 durability, machine-checked).
//! * [`rules::unsafety`] — the lexer-accurate successor to
//!   `ci/check_unsafe.sh`.
//! * [`rules::forbidden`] — per-path API bans (`Instant::now`
//!   outside the latency model, blocking std locks in hot paths,
//!   `thread::sleep` outside `Waiter`).
//! * [`rules::lock_order`] — inter-procedural lock hierarchy over the
//!   workspace call graph ([`graph`]): `// lock-level:` declarations,
//!   rank inversions, static deadlock cycles, undeclared lock types.
//!
//! Persist *ordering* (flush and fence before a publish) is not checked
//! here: `prep-psan` checks it on every traced run, and DESIGN.md's
//! mutation matrix records which checker catches which seeded bug.
//!
//! Findings are suppressed only by `// lint:allow(<rule>): <reason>`
//! with a mandatory reason; the reason-less form is itself a finding.
//! Everything here is dependency-free: a hand-rolled lexer
//! ([`lexer`]) and a lightweight item model ([`model`]). The policy —
//! which rule runs on which paths — is one typed value,
//! [`Config::default`] ([`config`]).

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod engine;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod rules;

pub use config::Config;
pub use diag::{rules as rule_ids, Diagnostic};
pub use engine::{lint_files, lint_files_all, lint_workspace, lint_workspace_all};
pub use model::FileModel;
