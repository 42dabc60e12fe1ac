//! `lint.toml` — declarative rule configuration.
//!
//! The parser handles the small TOML subset the config actually uses
//! (`[section]` headers, string / string-array / bool / integer values,
//! `#` comments, multi-line arrays) with no dependencies, mirroring how
//! the vendored shims keep this workspace building offline.
//!
//! [`Config::default`] encodes the workspace policy; `lint.toml` at the
//! repo root overrides per key, so tests can run against the defaults
//! while CI runs whatever the checked-in file says.

use std::collections::BTreeMap;

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    Str(String),
    List(Vec<String>),
    Bool(bool),
    Int(i64),
}

/// Parses the supported TOML subset into `(section, key) → value`.
/// Unparseable lines are reported, not silently dropped.
pub fn parse_toml(text: &str) -> Result<BTreeMap<(String, String), TomlValue>, String> {
    let mut out = BTreeMap::new();
    let mut section = String::new();
    let mut pending: Option<(String, String)> = None; // multi-line array
    for (ln, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        let line = line.trim();
        if let Some((key, acc)) = pending.take() {
            let acc = format!("{acc} {line}");
            if balanced(&acc) {
                out.insert(
                    (section.clone(), key),
                    parse_value(&acc).map_err(|e| format!("line {}: {e}", ln + 1))?,
                );
            } else {
                pending = Some((key, acc));
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('[') {
            section = h
                .strip_suffix(']')
                .ok_or_else(|| format!("line {}: unterminated section header", ln + 1))?
                .trim()
                .to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", ln + 1))?;
        let key = key.trim().to_string();
        let value = value.trim();
        if value.starts_with('[') && !balanced(value) {
            pending = Some((key, value.to_string()));
            continue;
        }
        out.insert(
            (section.clone(), key),
            parse_value(value).map_err(|e| format!("line {}: {e}", ln + 1))?,
        );
    }
    if let Some((key, _)) = pending {
        return Err(format!("unterminated array for key `{key}`"));
    }
    Ok(out)
}

/// Strips a `#` comment, respecting string quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Whether brackets and quotes in an accumulating array value balance.
fn balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
}

fn parse_value(v: &str) -> Result<TomlValue, String> {
    let v = v.trim();
    if let Some(s) = v.strip_prefix('"') {
        let s = s
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string: {v}"))?;
        return Ok(TomlValue::Str(s.to_string()));
    }
    if v == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if v == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if let Some(inner) = v.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array: {v}"))?;
        let mut items = Vec::new();
        for item in split_items(inner) {
            match parse_value(&item)? {
                TomlValue::Str(s) => items.push(s),
                other => return Err(format!("array items must be strings, got {other:?}")),
            }
        }
        return Ok(TomlValue::List(items));
    }
    v.parse::<i64>()
        .map(TomlValue::Int)
        .map_err(|_| format!("unsupported value: {v}"))
}

/// Splits array items on commas outside quotes.
fn split_items(s: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                if !cur.trim().is_empty() {
                    items.push(cur.trim().to_string());
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        items.push(cur.trim().to_string());
    }
    items
}

/// Scope of a path-restricted rule.
#[derive(Debug, Clone)]
pub struct RuleScope {
    /// Path prefixes the rule applies to (workspace-relative).
    pub paths: Vec<String>,
    /// Path substrings exempt from the rule (coarse allowlist; prefer
    /// `// lint:allow(rule): reason` for site-level exemptions).
    pub allow: Vec<String>,
}

impl RuleScope {
    pub fn applies(&self, path: &str) -> bool {
        self.paths.iter().any(|p| path.starts_with(p.as_str()))
            && !self.allow.iter().any(|a| path.contains(a.as_str()))
    }
}

/// One forbidden-API entry.
#[derive(Debug, Clone)]
pub struct ForbiddenEntry {
    /// Entry name (for messages), e.g. `instant-now`.
    pub name: String,
    /// `::`-separated identifier chain to match, e.g. `Instant::now`.
    /// Matches both direct paths and `use` trees (`std::sync::{…, Mutex}`).
    pub pattern: String,
    pub scope: RuleScope,
    /// Human reason the API is banned here.
    pub message: String,
    pub suggestion: String,
    /// Whether matches inside test code count (default: no).
    pub include_tests: bool,
}

/// Lock-order (static hierarchy / deadlock) configuration.
#[derive(Debug, Clone)]
pub struct LockOrderConfig {
    pub scope: RuleScope,
    /// Methods that acquire a lock when called on a lock-classed
    /// receiver (`lock`, `try_lock`, `read`, `write`, …). Recognition is
    /// receiver-type-driven: a bare `stream.write(buf)` never counts.
    pub acquire_methods: Vec<String>,
}

/// Flush-before-publish (persist-path dataflow) configuration. The four
/// effect classes mirror `PmemRuntime`'s primitive semantics.
#[derive(Debug, Clone)]
pub struct FlushPublishConfig {
    pub scope: RuleScope,
    /// Calls that dirty NVM state (plain stores the runtime traces).
    pub stores: Vec<String>,
    /// Calls that enqueue a writeback (async: still need a fence).
    pub flushes: Vec<String>,
    /// Store-buffer drains: flushed state becomes durable.
    pub fences: Vec<String>,
    /// Serializing whole-cache writebacks (`wbinvd`): everything durable.
    pub full_persists: Vec<String>,
    /// Fused store+sync-flush primitives: no effect on *surrounding*
    /// dirty state.
    pub neutral: Vec<String>,
    /// Calls that are publish sites by themselves (their dependencies
    /// must already be durable), in addition to `// publishes:` markers.
    pub publishes: Vec<String>,
}

/// Full lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (workspace-relative) scanned for `.rs` files.
    pub include: Vec<String>,
    /// Path substrings skipped entirely.
    pub exclude: Vec<String>,
    pub ordering: RuleScope,
    pub padding: RuleScope,
    pub persist: RuleScope,
    /// Persist primitives that must not escape the sanitizer.
    pub persist_primitives: Vec<String>,
    /// Trace hooks that satisfy coverage.
    pub persist_hooks: Vec<String>,
    pub unsafety: RuleScope,
    pub forbidden: Vec<ForbiddenEntry>,
    pub lock_order: LockOrderConfig,
    pub flush_publish: FlushPublishConfig,
}

impl Default for Config {
    /// The workspace policy. `lint.toml` overrides any of it; keeping the
    /// defaults here means the known-bad test suite is independent of the
    /// checked-in file.
    fn default() -> Self {
        let hot = |crates: &[&str]| -> Vec<String> {
            crates.iter().map(|c| format!("crates/{c}/src")).collect()
        };
        Config {
            include: vec!["crates".into()],
            exclude: vec!["crates/lint/tests".into()],
            // The ordering audit covers every hot-path crate the paper's
            // protocol runs through (ISSUE 5: nr, sync, pmem, core, cx,
            // shard) plus the network service, whose pipeline state
            // machine (queue depths, drain barriers, ack watermarks) is
            // all explicit atomics. crates/mc stays out of scope on
            // purpose: the model checker consumes `Ordering` values as
            // data (its cell shims and engine match on every ordering),
            // so per-site `ord:` justifications there would be noise.
            ordering: RuleScope {
                paths: hot(&["nr", "sync", "pmem", "core", "cx", "shard", "serve"]),
                allow: vec![],
            },
            // Padding discipline where §5.1-style false sharing bites:
            // the log, the locks, the runtime counters, and CX's replica
            // versions plus optimistic-read counters.
            padding: RuleScope {
                paths: hot(&["nr", "sync", "pmem", "cx"]),
                allow: vec![],
            },
            // Persist-hook coverage where PmemRuntime primitives are
            // driven (nr itself only sees hooks, but stays in scope so
            // new direct calls cannot sneak in).
            persist: RuleScope {
                paths: hot(&["nr", "core", "shard", "cx"]),
                allow: vec![],
            },
            persist_primitives: ["flush_range", "clflushopt_at", "wbinvd", "nvm_write"]
                .map(String::from)
                .to_vec(),
            persist_hooks: [
                "trace_store",
                "trace_publish",
                "trace_recovery_read",
                "persist_clflush_at",
                "publish_clflush",
            ]
            .map(String::from)
            .to_vec(),
            unsafety: RuleScope {
                paths: vec!["crates".into()],
                allow: vec![],
            },
            // The hierarchy itself is declared where the locks live, in
            // `// lock-level: <n> <why>` comments: region ticket locks
            // taken with nothing held (0) → per-replica combiner election
            // (1) → replica data locks (2) → combiner batch-slot flags (3).
            lock_order: LockOrderConfig {
                scope: RuleScope {
                    paths: hot(&["nr", "sync", "core", "cx", "shard", "serve"]),
                    allow: vec![],
                },
                acquire_methods: [
                    "lock",
                    "try_lock",
                    "read",
                    "write",
                    "try_read",
                    "try_write",
                    "with_read",
                    "with_write",
                ]
                .map(String::from)
                .to_vec(),
            },
            // psan rule 1 at lint time: on every path from an NVM store
            // to a publish site there is a flush of the span and an
            // sfence. Effect classes match PmemRuntime's contracts.
            flush_publish: FlushPublishConfig {
                scope: RuleScope {
                    paths: hot(&["nr", "core", "shard", "cx"]),
                    allow: vec![],
                },
                stores: ["nvm_write", "trace_store"].map(String::from).to_vec(),
                flushes: ["flush_range", "clflushopt_at", "clflushopt", "clflush"]
                    .map(String::from)
                    .to_vec(),
                fences: ["sfence"].map(String::from).to_vec(),
                full_persists: ["wbinvd"].map(String::from).to_vec(),
                neutral: ["persist_clflush_at", "trace_recovery_read"]
                    .map(String::from)
                    .to_vec(),
                publishes: ["publish_clflush"].map(String::from).to_vec(),
            },
            forbidden: vec![
                ForbiddenEntry {
                    name: "instant-now".into(),
                    pattern: "Instant::now".into(),
                    scope: RuleScope {
                        // prep-serve deliberately has no allow entry: the
                        // server must stay Instant-free (its latency story
                        // is the simulated-NVM cost model). The loadgen
                        // timer (crates/loadgen/src/clock.rs) is in scope
                        // too and carries site-level reasoned allows.
                        paths: vec!["crates".into()],
                        allow: vec!["crates/pmem/src/latency.rs".into(), "crates/bench".into()],
                    },
                    message: "Instant::now outside the latency model: wall-clock reads in \
                              instrumented paths skew the emulated NVM timings"
                        .into(),
                    suggestion: "route timing through prep_pmem::latency (see charge_ns), or \
                                 justify with // lint:allow(forbidden-api): <reason>"
                        .into(),
                    include_tests: false,
                },
                ForbiddenEntry {
                    name: "std-mutex".into(),
                    pattern: "std::sync::Mutex".into(),
                    scope: RuleScope {
                        paths: vec![
                            "crates/nr/src".into(),
                            "crates/sync/src".into(),
                            "crates/core/src".into(),
                            "crates/cx/src".into(),
                            "crates/shard/src".into(),
                            "crates/serve/src".into(),
                            "crates/loadgen/src".into(),
                        ],
                        allow: vec!["crates/nr/src/global_lock.rs".into()],
                    },
                    message: "std::sync::Mutex in a hot-path crate: blocking locks belong to \
                              the Mutex-UC baseline (global_lock.rs), not the replicated path"
                        .into(),
                    suggestion: "use a prep-sync lock, or justify with \
                                 // lint:allow(forbidden-api): <reason>"
                        .into(),
                    include_tests: false,
                },
                ForbiddenEntry {
                    name: "std-rwlock".into(),
                    pattern: "std::sync::RwLock".into(),
                    scope: RuleScope {
                        paths: vec![
                            "crates/nr/src".into(),
                            "crates/sync/src".into(),
                            "crates/core/src".into(),
                            "crates/cx/src".into(),
                            "crates/shard/src".into(),
                            "crates/serve/src".into(),
                            "crates/loadgen/src".into(),
                        ],
                        allow: vec![],
                    },
                    message: "std::sync::RwLock in a hot-path crate: replica locks go through \
                              the ReplicaLock trait (DistRwLock/PhaseFairRwLock)"
                        .into(),
                    suggestion: "use a prep-sync lock, or justify with \
                                 // lint:allow(forbidden-api): <reason>"
                        .into(),
                    include_tests: false,
                },
                ForbiddenEntry {
                    name: "thread-sleep".into(),
                    pattern: "thread::sleep".into(),
                    scope: RuleScope {
                        paths: vec![
                            "crates/nr/src".into(),
                            "crates/sync/src".into(),
                            "crates/core/src".into(),
                            "crates/cx/src".into(),
                            "crates/shard/src".into(),
                            "crates/pmem/src".into(),
                            "crates/serve/src".into(),
                            "crates/loadgen/src".into(),
                        ],
                        allow: vec![
                            "crates/sync/src/waiter.rs".into(),
                            "crates/pmem/src/latency.rs".into(),
                        ],
                    },
                    message: "thread::sleep in a hot-path crate: polite waiting goes through \
                              prep_sync::Waiter (spin budget, then sleep)"
                        .into(),
                    suggestion: "use prep_sync::Waiter, or justify with \
                                 // lint:allow(forbidden-api): <reason>"
                        .into(),
                    include_tests: false,
                },
            ],
        }
    }
}

impl Config {
    /// Loads the defaults, then applies overrides from `lint.toml` text.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let kv = parse_toml(text)?;
        let mut cfg = Config::default();
        let list =
            |kv: &BTreeMap<(String, String), TomlValue>, s: &str, k: &str| -> Option<Vec<String>> {
                match kv.get(&(s.to_string(), k.to_string())) {
                    Some(TomlValue::List(v)) => Some(v.clone()),
                    Some(TomlValue::Str(v)) => Some(vec![v.clone()]),
                    _ => None,
                }
            };
        if let Some(v) = list(&kv, "workspace", "include") {
            cfg.include = v;
        }
        if let Some(v) = list(&kv, "workspace", "exclude") {
            cfg.exclude = v;
        }
        for (scope, name) in [
            (&mut cfg.ordering, "atomic-ordering"),
            (&mut cfg.padding, "cacheline-padding"),
            (&mut cfg.persist, "persist-hook"),
            (&mut cfg.unsafety, "unsafe-safety"),
        ] {
            if let Some(v) = list(&kv, name, "paths") {
                scope.paths = v;
            }
            if let Some(v) = list(&kv, name, "allow") {
                scope.allow = v;
            }
        }
        if let Some(v) = list(&kv, "persist-hook", "primitives") {
            cfg.persist_primitives = v;
        }
        if let Some(v) = list(&kv, "persist-hook", "hooks") {
            cfg.persist_hooks = v;
        }
        if let Some(v) = list(&kv, "lock-order", "paths") {
            cfg.lock_order.scope.paths = v;
        }
        if let Some(v) = list(&kv, "lock-order", "allow") {
            cfg.lock_order.scope.allow = v;
        }
        if let Some(v) = list(&kv, "lock-order", "acquire-methods") {
            cfg.lock_order.acquire_methods = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "paths") {
            cfg.flush_publish.scope.paths = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "allow") {
            cfg.flush_publish.scope.allow = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "stores") {
            cfg.flush_publish.stores = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "flushes") {
            cfg.flush_publish.flushes = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "fences") {
            cfg.flush_publish.fences = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "full-persists") {
            cfg.flush_publish.full_persists = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "neutral") {
            cfg.flush_publish.neutral = v;
        }
        if let Some(v) = list(&kv, "flush-publish", "publishes") {
            cfg.flush_publish.publishes = v;
        }
        // Forbidden entries: any `[forbidden.<name>]` section replaces the
        // default entry of that name (or adds a new one).
        let forbidden_sections: std::collections::BTreeSet<String> = kv
            .keys()
            .filter_map(|(s, _)| s.strip_prefix("forbidden.").map(String::from))
            .collect();
        for name in forbidden_sections {
            let section = format!("forbidden.{name}");
            let get_str = |k: &str| -> Option<String> {
                match kv.get(&(section.clone(), k.to_string())) {
                    Some(TomlValue::Str(v)) => Some(v.clone()),
                    _ => None,
                }
            };
            let pattern = match get_str("pattern") {
                Some(p) => p,
                None => return Err(format!("[{section}] needs a `pattern`")),
            };
            let default = cfg.forbidden.iter().find(|e| e.name == name).cloned();
            let entry = ForbiddenEntry {
                name: name.clone(),
                scope: RuleScope {
                    paths: list(&kv, &section, "paths")
                        .or_else(|| default.as_ref().map(|d| d.scope.paths.clone()))
                        .unwrap_or_else(|| vec!["crates".into()]),
                    allow: list(&kv, &section, "allow-paths")
                        .or_else(|| default.as_ref().map(|d| d.scope.allow.clone()))
                        .unwrap_or_default(),
                },
                message: get_str("message")
                    .or_else(|| default.as_ref().map(|d| d.message.clone()))
                    .unwrap_or_else(|| format!("use of forbidden API `{pattern}`")),
                suggestion: get_str("suggestion")
                    .or_else(|| default.as_ref().map(|d| d.suggestion.clone()))
                    .unwrap_or_else(|| {
                        "justify with // lint:allow(forbidden-api): <reason>".into()
                    }),
                include_tests: match kv.get(&(section.clone(), "include-tests".to_string())) {
                    Some(TomlValue::Bool(b)) => *b,
                    _ => default.as_ref().map(|d| d.include_tests).unwrap_or(false),
                },
                pattern,
            };
            cfg.forbidden.retain(|e| e.name != name);
            cfg.forbidden.push(entry);
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let kv = parse_toml(
            "# header\n[workspace]\ninclude = [\"crates\"] # trailing\n\n[atomic-ordering]\npaths = [\n  \"a\",\n  \"b, with comma\",\n]\nflag = true\nn = 3\n",
        )
        .unwrap();
        assert_eq!(
            kv[&("workspace".into(), "include".into())],
            TomlValue::List(vec!["crates".into()])
        );
        assert_eq!(
            kv[&("atomic-ordering".into(), "paths".into())],
            TomlValue::List(vec!["a".into(), "b, with comma".into()])
        );
        assert_eq!(
            kv[&("atomic-ordering".into(), "flag".into())],
            TomlValue::Bool(true)
        );
        assert_eq!(
            kv[&("atomic-ordering".into(), "n".into())],
            TomlValue::Int(3)
        );
    }

    #[test]
    fn overrides_apply_over_defaults() {
        let cfg = Config::from_toml(
            "[atomic-ordering]\npaths = [\"crates/x/src\"]\n\n[forbidden.instant-now]\npattern = \"Instant::now\"\nallow-paths = [\"crates/only-here\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.ordering.paths, vec!["crates/x/src"]);
        let e = cfg
            .forbidden
            .iter()
            .find(|e| e.name == "instant-now")
            .unwrap();
        assert_eq!(e.scope.allow, vec!["crates/only-here"]);
        // Untouched defaults survive.
        assert!(cfg.forbidden.iter().any(|e| e.name == "thread-sleep"));
        assert!(!cfg.padding.paths.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_toml("key without equals\n").is_err());
        assert!(parse_toml("[unclosed\n").is_err());
        assert!(Config::from_toml("[forbidden.x]\nmessage = \"no pattern\"\n").is_err());
    }

    #[test]
    fn scope_matching() {
        let s = RuleScope {
            paths: vec!["crates/nr/src".into()],
            allow: vec!["global_lock".into()],
        };
        assert!(s.applies("crates/nr/src/log.rs"));
        assert!(!s.applies("crates/nr/tests/x.rs"));
        assert!(!s.applies("crates/nr/src/global_lock.rs"));
    }
}
