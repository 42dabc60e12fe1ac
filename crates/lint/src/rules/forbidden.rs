//! Rule 5 — forbidden APIs.
//!
//! Token-sequence matching of configured identifier chains
//! (`Instant::now`, `std::sync::Mutex`, `thread::sleep`, …) against
//! non-test code in each entry's path scope. Matching understands `use`
//! trees, so `use std::sync::{Arc, Mutex}` trips the `std::sync::Mutex`
//! ban — the import is the gateway, catching it there covers every later
//! bare `Mutex::new`.

use crate::config::{Config, ForbiddenEntry};
use crate::diag::{rules, Diagnostic};
use crate::lexer::TokKind;
use crate::model::FileModel;

/// Attempts to match `segs` starting at significant-token index `k`.
/// Returns the index of the token matching the last segment.
fn match_chain(model: &FileModel<'_>, k: usize, segs: &[&str]) -> Option<usize> {
    let n = model.sig_len();
    if k >= n {
        return None;
    }
    let t = model.txt(k);
    if t == "{" {
        // A use-tree group: try each path that starts at depth 1.
        let close = model.matching(k);
        let mut p = k + 1;
        while p < close.min(n) {
            let starts_path =
                model.txt(p.saturating_sub(1)) == "{" || model.txt(p.saturating_sub(1)) == ",";
            if starts_path && model.tok_kind(p) == TokKind::Ident {
                if let Some(hit) = match_chain(model, p, segs) {
                    return Some(hit);
                }
            }
            // Skip nested groups wholesale; their contents are visited
            // via recursion above.
            if model.txt(p) == "{" {
                p = model.matching(p);
            }
            p += 1;
        }
        return None;
    }
    if t != segs[0] {
        return None;
    }
    if segs.len() == 1 {
        return Some(k);
    }
    if k + 3 < n && model.txt(k + 1) == ":" && model.txt(k + 2) == ":" {
        return match_chain(model, k + 3, &segs[1..]);
    }
    None
}

fn run_entry(path: &str, model: &FileModel<'_>, e: &ForbiddenEntry, out: &mut Vec<Diagnostic>) {
    if !e.scope.applies(path) {
        return;
    }
    let segs: Vec<&str> = e.pattern.split("::").collect();
    let n = model.sig_len();
    for k in 0..n {
        if model.tok_kind(k) != TokKind::Ident || model.txt(k) != segs[0] {
            continue;
        }
        let Some(hit) = match_chain(model, k, &segs) else {
            continue;
        };
        let byte = model.byte(k);
        if model.in_test(byte) {
            continue;
        }
        let (line, col) = model.line_col(byte);
        let end_line = model.line_col(model.byte(hit)).0;
        out.push(
            Diagnostic::new(
                path,
                line,
                col,
                rules::FORBIDDEN_API,
                format!("[{}] {}: {}", e.name, e.pattern, e.message),
            )
            .suggest(e.suggestion)
            .span_to(end_line),
        );
    }
}

pub fn run(path: &str, model: &FileModel<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for e in cfg.forbidden {
        run_entry(path, model, e, out);
    }
}
