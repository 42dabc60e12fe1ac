//! Rule 1 — atomic-ordering audit.
//!
//! Every atomic access that names an explicit `Ordering` must carry a
//! `// ord: <why>` justification (same line, the lines the call spans, or
//! the comment block directly above). `SeqCst` without one gets its own
//! id, [`rules::ATOMIC_SEQCST`]: the strongest ordering used "to be safe"
//! hides the actual protocol; it is either load-bearing (say why: usually
//! a store→load store-buffering pair, as in `DistRwLock`) or a free
//! downgrade.

use crate::config::Config;
use crate::diag::{rules, Diagnostic};
use crate::model::{CallSite, FileModel};

/// Free functions that take an `Ordering` argument: memory fences. A
/// standalone fence is *more* protocol-critical than a per-access
/// ordering (it synchronizes accesses that are not even visible at the
/// call site), so it gets its own rule id.
pub const FENCE_FUNCTIONS: &[&str] = &["fence", "compiler_fence"];

/// Methods that take explicit `Ordering` arguments on std atomics.
pub const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

const ORDERINGS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

/// The ordering identifiers named in a call's argument list.
fn orderings_in(model: &FileModel<'_>, call: &CallSite) -> Vec<&'static str> {
    let mut found = Vec::new();
    for k in call.args.clone() {
        let t = model.txt(k);
        if let Some(o) = ORDERINGS.iter().find(|o| **o == t) {
            if !found.contains(o) {
                found.push(*o);
            }
        }
    }
    found
}

pub fn run(path: &str, model: &FileModel<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.ordering.applies(path) {
        return;
    }
    for call in &model.calls {
        if !call.is_method && FENCE_FUNCTIONS.contains(&call.method.as_str()) {
            let ords = orderings_in(model, call);
            if ords.is_empty() || model.in_test(call.byte) {
                continue;
            }
            if !model.has_marker(call.line, call.end_line, "ord:") {
                out.push(
                    Diagnostic::new(
                        path,
                        call.line,
                        call.col,
                        rules::ATOMIC_FENCE_ORDERING,
                        format!(
                            "`{}({})` lacks a // ord: justification — a standalone fence \
                             orders accesses invisible at the call site; name them",
                            call.method,
                            ords.join("/")
                        ),
                    )
                    .suggest(
                        "add `// ord: <which accesses this fence orders, and with what>` \
                         at the call",
                    )
                    .span_to(call.end_line),
                );
            }
            continue;
        }
        if !call.is_method || !ATOMIC_METHODS.contains(&call.method.as_str()) {
            continue;
        }
        let ords = orderings_in(model, call);
        if ords.is_empty() || model.in_test(call.byte) {
            continue;
        }
        // Justification may sit on any line the call spans or directly
        // above its first line (comment blocks cascade down).
        if model.has_marker(call.line, call.end_line, "ord:") {
            continue;
        }
        if ords.contains(&"SeqCst") {
            out.push(
                Diagnostic::new(
                    path,
                    call.line,
                    call.col,
                    rules::ATOMIC_SEQCST,
                    format!(
                        "`{}` uses Ordering::SeqCst without a // ord: justification — \
                         strongest-by-default hides whether the total order is load-bearing",
                        call.method
                    ),
                )
                .suggest(
                    "add `// ord: <why SeqCst>` naming the store→load pair that needs the \
                     total order, or downgrade to Acquire/Release",
                )
                .span_to(call.end_line),
            );
        } else {
            out.push(
                Diagnostic::new(
                    path,
                    call.line,
                    call.col,
                    rules::ATOMIC_ORDERING,
                    format!(
                        "`{}` with explicit Ordering::{} lacks a // ord: justification",
                        call.method,
                        ords.join("/")
                    ),
                )
                .suggest("add `// ord: <why this ordering is sufficient>` at the call")
                .span_to(call.end_line),
            );
        }
    }
}
