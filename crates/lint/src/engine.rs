//! The lint engine: file discovery, model building, rule dispatch, and
//! `lint:allow` suppression.
//!
//! Suppression is deliberately narrow: only a
//! `// lint:allow(<rule>[, <rule>…]): <reason>` comment attached to one
//! of the lines a finding spans silences it, and the reason is
//! mandatory — a reason-less allow suppresses nothing *and* earns its
//! own [`rules::LINT_ALLOW_REASON`] finding, so the escape hatch cannot
//! rot into an unexplained mute button.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::diag::{rules, Diagnostic};
use crate::model::FileModel;
use crate::rules as rule_mods;

/// One parsed `lint:allow` comment.
#[derive(Debug)]
struct Allow {
    /// Line the comment governs (attachment semantics: trailing comments
    /// govern their own line; comment-only lines govern the next code
    /// line).
    anchor_line: u32,
    /// Physical position of the comment itself, for diagnostics.
    line: u32,
    col: u32,
    /// Rule ids named inside the parentheses.
    rules: Vec<String>,
    /// Whether a non-empty reason follows the closing `):`.
    has_reason: bool,
    /// The reason text itself (recorded on suppressed findings).
    reason: String,
}

/// Extracts every `lint:allow(...)` from a file's comments. A reason may
/// run on over the comment lines that follow the directive and annotate
/// the same code line, up to the next `lint:allow(`.
fn collect_allows(model: &FileModel<'_>) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, c) in model.comments.iter().enumerate() {
        // A directive must *start* the comment — prose that merely
        // mentions the syntax (like this crate's docs) is not a
        // directive.
        let Some(after) = c.text.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = after.find(')') else {
            // Malformed — treat as reason-less so it gets flagged rather
            // than silently ignored.
            out.push(Allow {
                anchor_line: c.anchor_line,
                line: c.line,
                col: c.col,
                rules: vec![],
                has_reason: false,
                reason: String::new(),
            });
            continue;
        };
        let names: Vec<String> = after[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let rest = after[close + 1..].trim_start();
        let reason = match rest.strip_prefix(':') {
            Some(first) => {
                let more = model.comments[i + 1..]
                    .iter()
                    .take_while(|n| {
                        n.anchor_line == c.anchor_line && !n.text.starts_with("lint:allow(")
                    })
                    .map(|n| n.text.as_str());
                std::iter::once(first.trim())
                    .chain(more)
                    .filter(|s| !s.is_empty())
                    .collect::<Vec<_>>()
                    .join(" ")
            }
            None => String::new(),
        };
        let has_reason = !reason.is_empty();
        out.push(Allow {
            anchor_line: c.anchor_line,
            line: c.line,
            col: c.col,
            rules: names,
            has_reason,
            reason,
        });
    }
    out
}

/// Lints already-loaded sources, returning **every** finding — a
/// suppressed one carries the allow's reason in
/// [`Diagnostic::suppressed_by`] instead of being dropped. This feeds
/// `--json` (the CI baseline wants to see suppressions) and the tests.
pub fn lint_files_all(files: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let models: Vec<(String, FileModel<'_>)> = files
        .iter()
        .filter(|(p, _)| !cfg.exclude.iter().any(|e| p.contains(e)))
        .map(|(p, src)| (p.clone(), FileModel::build(src)))
        .collect();

    let mut diags = Vec::new();
    for (path, model) in &models {
        diags.extend(rule_mods::run_file_rules(path, model, cfg));
    }
    rule_mods::unsafety::run_crates(&models, cfg, &mut diags);

    // Suppression pass: mark, never drop.
    for (path, model) in &models {
        let allows = collect_allows(model);
        for a in &allows {
            if !a.has_reason {
                diags.push(
                    Diagnostic::new(
                        path,
                        a.line,
                        a.col,
                        rules::LINT_ALLOW_REASON,
                        "lint:allow without a reason — suppression is refused".to_string(),
                    )
                    .suggest("write // lint:allow(<rule>): <why this finding is acceptable>"),
                );
            }
        }
        for d in diags.iter_mut().filter(|d| &d.path == path) {
            if let Some(a) = allows.iter().find(|a| {
                a.has_reason
                    && a.rules.iter().any(|r| r == d.rule)
                    && a.anchor_line >= d.line
                    && a.anchor_line <= d.end_line
            }) {
                d.suppressed_by = Some(a.reason.clone());
            }
        }
    }

    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    diags
}

/// Lints already-loaded sources. `files` holds `(workspace-relative
/// path, contents)` pairs; paths use forward slashes. This is the
/// test-facing entry point — no filesystem involved. Suppressed
/// findings are dropped; use [`lint_files_all`] to see them.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    lint_files_all(files, cfg)
        .into_iter()
        .filter(|d| d.suppressed_by.is_none())
        .collect()
}

/// Recursively collects `.rs` files under an include directory.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative forward-slash form of `path` under `root`.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn load_workspace(root: &Path, cfg: &Config) -> Result<Vec<(String, String)>, String> {
    let mut paths = Vec::new();
    for inc in cfg.include {
        let dir = root.join(inc);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let src = fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        files.push((rel(root, &p), src));
    }
    Ok(files)
}

/// Lints the workspace rooted at `root`: walks `cfg.include`, loads each
/// `.rs` file, and runs every rule.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    Ok(lint_files(&load_workspace(root, cfg)?, cfg))
}

/// [`lint_workspace`], but suppressed findings are kept and marked (see
/// [`lint_files_all`]).
pub fn lint_workspace_all(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    Ok(lint_files_all(&load_workspace(root, cfg)?, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_files(&[(path.to_string(), src.to_string())], &Config::default())
    }

    #[test]
    fn reasoned_allow_suppresses_named_rule_only() {
        let src = "fn f(x: &AtomicUsize) {\n    // lint:allow(atomic-seqcst): SB pair with writer scan\n    x.load(Ordering::SeqCst);\n}\n";
        let d = one("crates/sync/src/x.rs", src);
        assert!(!d.iter().any(|d| d.rule == rules::ATOMIC_SEQCST), "{d:?}");
        // The allow names atomic-seqcst, not atomic-ordering, so a
        // different rule at the same site would still fire — here there
        // is none, and no reason-less finding either.
        assert!(!d.iter().any(|d| d.rule == rules::LINT_ALLOW_REASON));
    }

    #[test]
    fn reasonless_allow_is_rejected_and_does_not_suppress() {
        let src = "fn f(x: &AtomicUsize) {\n    // lint:allow(atomic-seqcst)\n    x.load(Ordering::SeqCst);\n}\n";
        let d = one("crates/sync/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == rules::ATOMIC_SEQCST), "{d:?}");
        assert!(d.iter().any(|d| d.rule == rules::LINT_ALLOW_REASON));
    }

    #[test]
    fn allow_reason_runs_on_over_following_comment_lines() {
        let src = "fn f(x: &AtomicUsize, y: &AtomicUsize) {\n    // lint:allow(atomic-seqcst): SB pair with the\n    // writer's scan.\n    x.load(Ordering::SeqCst);\n    // lint:allow(atomic-seqcst): second site\n    // lint:allow(atomic-ordering): not part of the reason above\n    y.load(Ordering::SeqCst);\n}\n";
        let d = lint_files_all(
            &[("crates/sync/src/x.rs".to_string(), src.to_string())],
            &Config::default(),
        );
        let reasons: Vec<_> = d
            .iter()
            .filter(|d| d.rule == rules::ATOMIC_SEQCST)
            .map(|d| d.suppressed_by.as_deref())
            .collect();
        assert_eq!(
            reasons,
            [Some("SB pair with the writer's scan."), Some("second site")],
            "{d:?}"
        );
    }

    #[test]
    fn trailing_allow_governs_its_own_line() {
        let src = "fn f(x: &AtomicUsize) {\n    x.load(Ordering::SeqCst); // lint:allow(atomic-seqcst): measured, load-bearing\n}\n";
        let d = one("crates/sync/src/x.rs", src);
        assert!(!d.iter().any(|d| d.rule == rules::ATOMIC_SEQCST), "{d:?}");
    }

    #[test]
    fn excluded_paths_are_skipped() {
        let src = "fn f(x: &AtomicUsize) { x.load(Ordering::SeqCst); }\n";
        let d = one("crates/lint/tests/fixtures/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn output_is_sorted() {
        let src = "fn g(x: &AtomicUsize) {\n    x.store(1, Ordering::Release);\n    x.load(Ordering::Acquire);\n}\n";
        let d = one("crates/sync/src/x.rs", src);
        let lines: Vec<u32> = d.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }
}
