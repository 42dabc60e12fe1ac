//! Rule 3 — persist-hook coverage.
//!
//! Any function driving `PmemRuntime`'s *addressed* persist primitives
//! (`flush_range`, `clflushopt_at`, `wbinvd`, `nvm_write`) must also
//! invoke a psan trace hook (`trace_store`/`trace_publish`/
//! `trace_recovery_read`, or the fused `persist_clflush_at`/
//! `publish_clflush` which trace internally). The primitives record
//! their own flush events, but the *stores they persist* are plain
//! memory writes the sanitizer can only see through the hooks — a
//! persist path without a hook silently escapes every psan ordering
//! rule (the §5 durability argument is only machine-checked where the
//! trace is complete).
//!
//! Span helpers whose callers trace on their behalf (e.g.
//! `HookState::flush_entry_span`) are the intended use of
//! `// lint:allow(persist-hook): <reason>`.

use crate::config::Config;
use crate::diag::{rules, Diagnostic};
use crate::model::FileModel;

pub fn run(path: &str, model: &FileModel<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.persist.applies(path) {
        return;
    }
    for (i, f) in model.fns.iter().enumerate() {
        if f.test_attr || model.in_test(f.byte) {
            continue;
        }
        let mut first_prim = None;
        let mut has_hook = false;
        for call in &model.calls {
            if !f.body.contains(&call.byte) {
                continue;
            }
            // Attribute the call to its innermost fn only.
            let innermost = model
                .fns
                .iter()
                .enumerate()
                .filter(|(_, g)| g.body.contains(&call.byte))
                .min_by_key(|(_, g)| g.body.len())
                .map(|(j, _)| j);
            if innermost != Some(i) {
                continue;
            }
            if cfg.persist_primitives.contains(&call.method.as_str()) {
                first_prim.get_or_insert((call.line, call.col, call.method.clone()));
            }
            if cfg.persist_hooks.contains(&call.method.as_str()) {
                has_hook = true;
            }
        }
        if let Some((line, col, prim)) = first_prim {
            if !has_hook {
                out.push(
                    Diagnostic::new(
                        path,
                        line,
                        col,
                        rules::PERSIST_HOOK,
                        format!(
                            "`{}` calls persist primitive `{}` but no psan trace hook: the \
                             stores this path persists are invisible to the sanitizer",
                            f.name, prim
                        ),
                    )
                    .suggest(format!(
                        "trace the persisted span first ({}), or justify with \
                         // lint:allow(persist-hook): <reason> if the caller traces",
                        cfg.persist_hooks.join("/")
                    )),
                );
            }
        }
    }
}
