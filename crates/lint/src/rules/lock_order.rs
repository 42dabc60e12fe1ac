//! `lock-order` family: static lock hierarchy, deadlock cycles, and
//! undeclared lock levels, over the workspace call graph.
//!
//! Levels come from `// lock-level: <n> <why>` comments (type, field, or
//! acquire site). The discipline: a thread holding a level-n lock may only
//! acquire locks of level > n. [`crate::flow::LockAnalysis`] supplies the
//! acquired-while-holding edges with their inter-procedural chains; this
//! module turns them into findings:
//!
//! * **lock-order** — an edge acquiring a lower (or equal, different-
//!   class) level while holding a higher one. Equal-level cross-class
//!   edges are legal on their own and handled by the cycle check.
//! * **lock-order-cycle** — a cycle among equal-level edges (a cycle
//!   with any strictly descending edge is already an inversion), or a
//!   re-entrant exclusive acquire of one class. Rank monotonicity cannot
//!   rule these out, so they are reported as static deadlocks.
//! * **lock-order-unranked** — a lock-typed acquire inside the scoped
//!   paths with no declared level anywhere: invisible to both checks.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::diag::{rules, Diagnostic};
use crate::flow::LockAnalysis;
use crate::graph::Graph;

pub fn run(
    graph: &Graph<'_, '_>,
    analysis: &LockAnalysis,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let scope = &cfg.lock_order.scope;
    let path_of = |fi: usize| graph.files[fi].0.as_str();

    // Rank inversions.
    for e in &analysis.edges {
        if !scope.applies(path_of(e.file)) {
            continue;
        }
        if e.acq_rank == u32::MAX || e.held_rank == u32::MAX {
            continue; // unranked side — reported by the unranked check
        }
        if e.acq_noblock {
            // A `try_*` acquire fails instead of waiting: it cannot
            // deadlock, so it is exempt from the hierarchy.
            continue;
        }
        if e.acq_rank < e.held_rank {
            let d = Diagnostic::new(
                path_of(e.file),
                e.line,
                e.col,
                rules::LOCK_ORDER,
                format!(
                    "acquires `{}` (level {}) while holding `{}` (level {}) — \
                     lock levels must be acquired in increasing order",
                    e.acq_class, e.acq_rank, e.held_class, e.held_rank
                ),
            )
            .span_to(e.end_line)
            .with_chain(e.chain.clone())
            .suggest(format!(
                "release `{}` first, or move `{}` to a level above {} with a \
                 // lock-level: comment where it is declared",
                e.held_class, e.acq_class, e.held_rank
            ));
            out.push(d);
        }
    }

    // Deadlock cycles among equal-level edges. A cycle that mixes levels
    // must contain a descending edge, which the inversion check already
    // reports, so only equal-level edges can form a *new* deadlock.
    let mut succ: BTreeMap<&str, Vec<(&str, usize)>> = BTreeMap::new();
    for (i, e) in analysis.edges.iter().enumerate() {
        if e.acq_rank != e.held_rank || e.acq_rank == u32::MAX || e.acq_noblock {
            continue;
        }
        if e.held_class == e.acq_class {
            // Re-entrant same-class acquire: deadlock unless both sides
            // are shared (reader-reader); non-blocking inner acquires
            // were already excluded above.
            if e.held_shared && e.acq_shared {
                continue;
            }
            if !scope.applies(path_of(e.file)) {
                continue;
            }
            out.push(
                Diagnostic::new(
                    path_of(e.file),
                    e.line,
                    e.col,
                    rules::LOCK_ORDER_CYCLE,
                    format!(
                        "re-entrant acquire of `{}` while already holding it — \
                         self-deadlock on any exclusive overlap",
                        e.acq_class
                    ),
                )
                .span_to(e.end_line)
                .with_chain(e.chain.clone())
                .suggest(
                    "restructure so the guard is released before re-acquiring, or take \
                     the lock once and pass the guard down"
                        .to_string(),
                ),
            );
            continue;
        }
        succ.entry(e.held_class.as_str())
            .or_default()
            .push((e.acq_class.as_str(), i));
    }
    // For each edge a→b: if b reaches a through equal-level edges, the
    // edge closes a cycle. Report once per unordered class pair.
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for (from, outs) in &succ {
        for &(to, ei) in outs {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![to];
            let mut reaches = false;
            while let Some(c) = stack.pop() {
                if c == *from {
                    reaches = true;
                    break;
                }
                if !seen.insert(c) {
                    continue;
                }
                if let Some(next) = succ.get(c) {
                    stack.extend(next.iter().map(|&(n, _)| n));
                }
            }
            if !reaches {
                continue;
            }
            let e = &analysis.edges[ei];
            if !scope.applies(path_of(e.file)) {
                continue;
            }
            let mut key = (from.to_string(), to.to_string());
            if key.0 > key.1 {
                key = (key.1, key.0);
            }
            if !reported.insert(key) {
                continue;
            }
            out.push(
                Diagnostic::new(
                    path_of(e.file),
                    e.line,
                    e.col,
                    rules::LOCK_ORDER_CYCLE,
                    format!(
                        "acquire cycle between `{}` and `{}` (both level {}) — \
                         two threads taking them in opposite orders deadlock",
                        e.held_class, e.acq_class, e.held_rank
                    ),
                )
                .span_to(e.end_line)
                .with_chain(e.chain.clone())
                .suggest(format!(
                    "order the acquisitions consistently, or split the level: give \
                     `{}` and `{}` distinct // lock-level: values",
                    e.held_class, e.acq_class
                )),
            );
        }
    }

    // Unranked lock acquisitions.
    for (fi, line, col, end_line, ty) in &analysis.unranked {
        if !scope.applies(path_of(*fi)) {
            continue;
        }
        out.push(
            Diagnostic::new(
                path_of(*fi),
                *line,
                *col,
                rules::LOCK_ORDER_UNRANKED,
                format!(
                    "`{ty}` acquired without a declared lock level — invisible to the \
                     lock-order and deadlock checks"
                ),
            )
            .span_to(*end_line)
            .suggest(format!(
                "add `// lock-level: <n> <why>` where `{ty}` (or the field holding it) \
                 is declared, or a rank in lint.toml [lock-order]"
            )),
        );
    }

    // Level declarations without a rationale.
    for (fi, line, col) in &analysis.ranks.missing_why {
        if !scope.applies(path_of(*fi)) {
            continue;
        }
        out.push(
            Diagnostic::new(
                path_of(*fi),
                *line,
                *col,
                rules::LOCK_ORDER_UNRANKED,
                "`// lock-level:` without a rationale — the level is part of the \
                 deadlock argument and must say why it holds"
                    .to_string(),
            )
            .suggest("write // lock-level: <n> <why this level fits the hierarchy>"),
        );
    }
}
