//! prep-lint: a workspace static-analysis pass for the concurrency and
//! persistence invariants the PREP-UC design depends on but `rustc`
//! cannot see.
//!
//! The compiler checks types; it does not check that a `SeqCst` is
//! load-bearing, that an atomic field shares a cacheline on purpose, or
//! that every persisted store is visible to the persistence sanitizer.
//! Those are exactly the properties the paper's correctness argument
//! leans on (§5's ordering and persistence discipline), so this crate
//! machine-checks them:
//!
//! * [`rules::ordering`] — every explicit `Ordering` carries a
//!   `// ord: <why>`; `SeqCst` and standalone fences get dedicated
//!   diagnostics.
//! * [`rules::padding`] — atomic fields in shared structs are
//!   `CachePadded` or justified with `// shared-line: <why>` (§5.1).
//! * [`rules::persist`] — functions driving persist primitives also
//!   trace through the psan hooks (§5 durability, machine-checked).
//!
//! What a compiler lint can check is not here: the unsafe audit
//! (`unsafe_code`, `unsafe_op_in_unsafe_fn`,
//! `clippy::undocumented_unsafe_blocks`), the API bans
//! (`clippy::disallowed_methods`/`disallowed_types`) and reasons on
//! `#[allow]` (`clippy::allow_attributes_without_reason`) are set once
//! in the root `Cargo.toml`'s `[workspace.lints]` and `clippy.toml`.
//! They resolve names, so an aliased import cannot slip past them.
//!
//! Every rule reads one file at a time. Two properties that need more
//! than one file are checked elsewhere: persist *ordering* (flush and
//! fence before a publish) by `prep-psan` on every traced run, and lock
//! order by `prep-sync`'s held-level check at every blocking acquire of
//! a debug build. DESIGN.md's mutation matrix records which checker
//! catches which seeded bug.
//!
//! Findings are suppressed only by `// lint:allow(<rule>): <reason>`
//! with a mandatory reason; the reason-less form is itself a finding.
//! Everything here is dependency-free: a hand-rolled lexer
//! ([`lexer`]) and a lightweight item model ([`model`]). The policy —
//! which rule runs on which paths — is one typed value,
//! [`Config::default`] ([`config`]).

pub mod config;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;

pub use config::Config;
pub use diag::{rules as rule_ids, Diagnostic};
pub use engine::{lint_files, lint_files_all, lint_workspace, lint_workspace_all};
pub use model::FileModel;
