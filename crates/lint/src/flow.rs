//! Per-function lock summaries over the workspace call graph, propagated
//! bottom-up over the SCCs from [`crate::graph`]: which lock classes a
//! function (transitively) acquires, plus every *acquired-while-holding*
//! edge with the call chain that produces it. Lock identity and level come
//! from `// lock-level: <n> <why>` comments on the lock type, the field, or
//! the acquire site. Acquire recognition is receiver-type-driven; a
//! receiver nobody can type only counts inside the rule's paths, and only
//! when every workspace candidate for the method agrees on a single ranked
//! class.
//!
//! Approximations, on purpose: guards are assumed held to the end of
//! their innermost enclosing block (closure-based acquires to the end of
//! the call); a guard returned out of a helper is counted as an acquire
//! but not as held in the caller; conservative call-graph fan-out can
//! attribute a callee's acquires to more callers than can reach it at
//! runtime. `// lint:allow` carries the escape hatch, as everywhere else.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::diag::ChainStep;
use crate::graph::Graph;
use crate::model::{CallSite, FileModel};

// ---------------------------------------------------------------------
// Lock ranks and classes
// ---------------------------------------------------------------------

/// Declared lock levels: from `// lock-level:` comments on types and
/// fields.
#[derive(Debug, Default)]
pub struct LockRanks {
    /// type name → level.
    pub types: BTreeMap<String, u32>,
    /// (struct name, field name) → level.
    pub fields: BTreeMap<(String, String), u32>,
    /// `lock-level:` comments whose rationale text is missing:
    /// (file, line, col).
    pub missing_why: Vec<(usize, u32, u32)>,
}

/// Parses `lock-level: <n> <why>` comment text → (level, has_why).
fn parse_level(text: &str) -> Option<(u32, bool)> {
    let rest = text.strip_prefix("lock-level:")?.trim_start();
    let num: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    let n: u32 = num.parse().ok()?;
    let why = rest[num.len()..].trim();
    Some((n, !why.is_empty()))
}

impl LockRanks {
    pub fn build(files: &[(String, FileModel<'_>)]) -> Self {
        let mut r = LockRanks::default();
        for (fi, (_, m)) in files.iter().enumerate() {
            // Every lock-level comment is checked for a rationale once,
            // wherever it sits (type, field, or acquire site).
            for c in &m.comments {
                if let Some((_, has_why)) = parse_level(&c.text) {
                    if !has_why {
                        r.missing_why.push((fi, c.line, c.col));
                    }
                }
            }
            for s in &m.structs {
                for c in m.anns(s.line, s.line) {
                    if let Some((n, _)) = parse_level(&c.text) {
                        r.types.insert(s.name.clone(), n);
                    }
                }
                for f in &s.fields {
                    for c in m.anns(f.line, f.line) {
                        if let Some((n, _)) = parse_level(&c.text) {
                            r.fields.insert((s.name.clone(), f.name.clone()), n);
                        }
                    }
                }
            }
            for t in &m.traits {
                for c in m.anns(t.line, t.line) {
                    if let Some((n, _)) = parse_level(&c.text) {
                        r.types.insert(t.name.clone(), n);
                    }
                }
            }
        }
        r
    }
}

/// One recognized lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Class identity for the hierarchy graph (`TicketLock`,
    /// `Replica.combiner`, or a synthesized site id).
    pub class: String,
    pub rank: u32,
    /// Shared (reader-side) acquisition — shared self-edges are not
    /// deadlocks.
    pub shared: bool,
    /// Acquire cannot block (`try_*` / `compare_exchange`): it creates a
    /// held extent when it succeeds but can never complete a deadlock
    /// cycle, because failure returns instead of waiting.
    pub noblock: bool,
    pub byte: usize,
    /// Byte offset the guard is conservatively held until.
    pub extent_end: usize,
    pub line: u32,
    pub col: u32,
    pub end_line: u32,
}

/// What a call site means to the lock analysis.
enum LockSite {
    Acquire {
        class: String,
        rank: u32,
        shared: bool,
        noblock: bool,
    },
    Unranked {
        ty: String,
    },
    None,
}

/// One acquired-while-holding edge, with provenance.
#[derive(Debug, Clone)]
pub struct HeldEdge {
    pub held_class: String,
    pub held_rank: u32,
    pub acq_class: String,
    pub acq_rank: u32,
    pub acq_shared: bool,
    /// Every known acquire site of the inner class is non-blocking.
    pub acq_noblock: bool,
    pub held_shared: bool,
    /// Site of the violating (inner) event, in the holding fn.
    pub file: usize,
    pub line: u32,
    pub col: u32,
    pub end_line: u32,
    /// Call chain from the holding fn to the acquire.
    pub chain: Vec<ChainStep>,
}

/// Lock analysis results over the whole workspace.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// Per-fn transitive acquire sets: class → representative chain.
    pub acquires: Vec<BTreeMap<String, Vec<ChainStep>>>,
    /// Every acquired-while-holding edge (first occurrence per class
    /// pair).
    pub edges: Vec<HeldEdge>,
    /// Unranked lock acquisitions: (file, line, col, end_line, type).
    pub unranked: Vec<(usize, u32, u32, u32, String)>,
    pub ranks: LockRanks,
}

/// Innermost brace block (byte extent end) containing `byte` within the
/// fn body spanning sig tokens `lo..hi`.
fn enclosing_block_end(m: &FileModel<'_>, lo: usize, hi: usize, byte: usize) -> usize {
    let mut best: Option<(usize, usize)> = None; // (span, end byte)
    let mut stack: Vec<usize> = Vec::new();
    for k in lo..hi {
        match m.txt(k) {
            "{" => stack.push(k),
            "}" => {
                if let Some(open) = stack.pop() {
                    let (ob, cb) = (m.byte(open), m.byte(k));
                    if ob < byte && byte < cb {
                        let span = cb - ob;
                        if best.map(|(s, _)| span < s).unwrap_or(true) {
                            best = Some((span, cb));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    best.map(|(_, e)| e).unwrap_or(usize::MAX)
}

impl LockAnalysis {
    pub fn run(graph: &Graph<'_, '_>, cfg: &Config) -> Self {
        let ranks = LockRanks::build(graph.files);
        let nfns = graph.fns.len();
        let mut acq_sites: Vec<Vec<Acquire>> = vec![Vec::new(); nfns];
        let mut unranked: Vec<(usize, u32, u32, u32, String)> = Vec::new();
        let mut seen_unranked: BTreeSet<(usize, u32)> = BTreeSet::new();
        // Per-fn: call idx → acquire position (terminal calls).
        let mut acquire_call: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); nfns];

        for id in 0..nfns {
            let node = &graph.fns[id];
            let (fi, fx) = (node.file, node.fx);
            let m = &graph.files[fi].1;
            let fnitem = &m.fns[fx];
            for edge in &graph.calls[id] {
                let call = &m.calls[edge.call];
                if m.in_test(call.byte) || fnitem.test_attr {
                    continue;
                }
                match classify(graph, cfg, &ranks, fi, id, call, &edge.targets) {
                    LockSite::Acquire {
                        class,
                        rank,
                        shared,
                        noblock,
                    } => {
                        let closure_held = matches!(
                            call.method.as_str(),
                            "with_read" | "with_write" | "read_with" | "write_with"
                        );
                        let extent_end = if closure_held {
                            // Held for the duration of the call itself.
                            let last = call.args.end.min(m.sig_len().saturating_sub(1));
                            m.byte(last) + 1
                        } else {
                            let lo = m.sig_at_byte(fnitem.body.start).unwrap_or(0);
                            let hi = (lo..m.sig_len())
                                .find(|&k| m.byte(k) >= fnitem.body.end)
                                .unwrap_or(m.sig_len());
                            enclosing_block_end(m, lo, hi, call.byte).min(fnitem.body.end)
                        };
                        acquire_call[id].insert(edge.call, acq_sites[id].len());
                        acq_sites[id].push(Acquire {
                            class,
                            rank,
                            shared,
                            noblock,
                            byte: call.byte,
                            extent_end,
                            line: call.line,
                            col: call.col,
                            end_line: call.end_line,
                        });
                    }
                    LockSite::Unranked { ty } => {
                        if seen_unranked.insert((fi, call.line)) {
                            unranked.push((fi, call.line, call.col, call.end_line, ty));
                        }
                    }
                    LockSite::None => {}
                }
            }
        }

        // Bottom-up propagation of transitive acquire sets.
        let mut acquires: Vec<BTreeMap<String, Vec<ChainStep>>> = vec![BTreeMap::new(); nfns];
        let sccs = graph.sccs();
        for comp in &sccs {
            // Iterate the component until the sets stop growing (sets
            // only grow, and classes are finite, so this terminates).
            loop {
                let mut changed = false;
                for &id in comp {
                    let node = &graph.fns[id];
                    let (fi, fx) = (node.file, node.fx);
                    let m = &graph.files[fi].1;
                    let frame = |line: u32| ChainStep {
                        func: node.name.clone(),
                        path: graph.files[fi].0.clone(),
                        line,
                    };
                    let mut add: Vec<(String, Vec<ChainStep>)> = Vec::new();
                    for a in &acq_sites[id] {
                        if !acquires[id].contains_key(&a.class) {
                            add.push((a.class.clone(), vec![frame(a.line)]));
                        }
                    }
                    for edge in &graph.calls[id] {
                        if acquire_call[id].contains_key(&edge.call) {
                            continue; // terminal: counted as a site above
                        }
                        let call = &m.calls[edge.call];
                        if m.in_test(call.byte) || m.fns[fx].test_attr {
                            continue;
                        }
                        for &t in &edge.targets {
                            for (class, chain) in &acquires[t] {
                                if !acquires[id].contains_key(class)
                                    && !add.iter().any(|(c, _)| c == class)
                                {
                                    let mut full = vec![frame(call.line)];
                                    full.extend(chain.iter().cloned());
                                    add.push((class.clone(), full));
                                }
                            }
                        }
                    }
                    if !add.is_empty() {
                        changed = true;
                        for (c, chain) in add {
                            acquires[id].entry(c).or_insert(chain);
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Acquired-while-holding edges.
        let mut edges: Vec<HeldEdge> = Vec::new();
        let mut seen_edges: BTreeSet<(String, String)> = BTreeSet::new();
        for id in 0..nfns {
            let node = &graph.fns[id];
            let (fi, fx) = (node.file, node.fx);
            let m = &graph.files[fi].1;
            // Rank / sharedness / blocking-ness of a class, over every
            // known acquire site of it: blocking if any site blocks.
            let class_rank = |class: &str| -> Option<(u32, bool, bool)> {
                let mut hit: Option<(u32, bool, bool)> = None;
                for a in acq_sites.iter().flatten().filter(|a| a.class == class) {
                    let h = hit.get_or_insert((a.rank, a.shared, a.noblock));
                    h.1 = h.1 && a.shared;
                    h.2 = h.2 && a.noblock;
                }
                hit
            };
            for a in &acq_sites[id] {
                // Later direct acquires inside the held extent.
                for b in &acq_sites[id] {
                    if b.byte <= a.byte || b.byte >= a.extent_end {
                        continue;
                    }
                    if seen_edges.insert((a.class.clone(), b.class.clone())) {
                        edges.push(HeldEdge {
                            held_class: a.class.clone(),
                            held_rank: a.rank,
                            acq_class: b.class.clone(),
                            acq_rank: b.rank,
                            acq_shared: b.shared,
                            acq_noblock: b.noblock,
                            held_shared: a.shared,
                            file: fi,
                            line: b.line,
                            col: b.col,
                            end_line: b.end_line,
                            chain: vec![ChainStep {
                                func: node.name.clone(),
                                path: graph.files[fi].0.clone(),
                                line: b.line,
                            }],
                        });
                    }
                }
                // Calls inside the held extent: everything the callee
                // transitively acquires is acquired while holding.
                for edge in &graph.calls[id] {
                    if acquire_call[id].contains_key(&edge.call) {
                        continue;
                    }
                    let call = &m.calls[edge.call];
                    if call.byte <= a.byte || call.byte >= a.extent_end {
                        continue;
                    }
                    if m.in_test(call.byte) || m.fns[fx].test_attr {
                        continue;
                    }
                    for &t in &edge.targets {
                        for (class, chain) in &acquires[t] {
                            if !seen_edges.insert((a.class.clone(), class.clone())) {
                                continue;
                            }
                            let (acq_rank, acq_shared, acq_noblock) =
                                class_rank(class).unwrap_or((u32::MAX, false, false));
                            let mut full = vec![ChainStep {
                                func: node.name.clone(),
                                path: graph.files[fi].0.clone(),
                                line: call.line,
                            }];
                            full.extend(chain.iter().cloned());
                            edges.push(HeldEdge {
                                held_class: a.class.clone(),
                                held_rank: a.rank,
                                acq_class: class.clone(),
                                acq_rank,
                                acq_shared,
                                acq_noblock,
                                held_shared: a.shared,
                                file: fi,
                                line: call.line,
                                col: call.col,
                                end_line: call.end_line,
                                chain: full,
                            });
                        }
                    }
                }
            }
        }

        LockAnalysis {
            acquires,
            edges,
            unranked,
            ranks,
        }
    }
}

/// Classifies a call site for the lock analysis.
fn classify(
    graph: &Graph<'_, '_>,
    cfg: &Config,
    ranks: &LockRanks,
    fi: usize,
    enclosing: usize,
    call: &CallSite,
    targets: &[usize],
) -> LockSite {
    let m = &graph.files[fi].1;
    let is_acquire_name = cfg
        .lock_order
        .acquire_methods
        .contains(&call.method.as_str());
    let is_cas = call.method.starts_with("compare_exchange");
    if !is_acquire_name && !is_cas {
        return LockSite::None;
    }
    let shared = call.method.contains("read");
    let noblock = call.method.starts_with("try_") || is_cas;
    // A `// lock-level:` on the acquire's own lines wins outright and
    // names a per-site class: the comment asserts which lock *instance*
    // this is, which receiver resolution could not establish (that is
    // what the override is for).
    if let Some(rank) = site_rank_override(m, call) {
        return LockSite::Acquire {
            class: format!("{}:{}", graph.files[fi].0, call.line),
            rank,
            shared,
            noblock,
        };
    }
    let info = if call.is_method {
        graph.resolve_recv(fi, Some(enclosing), call)
    } else {
        Default::default()
    };

    // Field-level class: first ranked (struct, field) hit wins.
    for (_, strukt, field, _) in &info.fields {
        if let Some(&rank) = ranks.fields.get(&(strukt.clone(), field.clone())) {
            return LockSite::Acquire {
                class: format!("{strukt}.{field}"),
                rank,
                shared,
                noblock,
            };
        }
    }
    // CAS only counts on explicitly ranked fields (slot claim flags).
    if is_cas {
        return LockSite::None;
    }
    // Type-level class.
    for ty in &info.tys {
        if let Some(&rank) = ranks.types.get(ty) {
            return LockSite::Acquire {
                class: ty.clone(),
                rank,
                shared,
                noblock,
            };
        }
    }
    // Lock-like but undeclared.
    if let Some(ty) = info.tys.iter().find(|t| t.ends_with("Lock")) {
        return LockSite::Unranked { ty: ty.clone() };
    }
    // Unresolved receiver: only when every workspace candidate for this
    // method agrees on one ranked owner class, and only inside the rule's
    // own paths — elsewhere (the model checker, the NVM emulator) an
    // untyped `.lock()` is as likely a `std::sync::Mutex`, which those
    // paths may use and these may not. A receiver that *resolved* to a
    // non-lock type (a `TcpStream` param, say) never reaches here.
    if call.is_method
        && !info.resolved
        && info.tys.is_empty()
        && info.fields.is_empty()
        && cfg.lock_order.scope.applies(&graph.files[fi].0)
    {
        let mut ranked: BTreeSet<&str> = BTreeSet::new();
        for &t in targets {
            if let Some(ty) = graph.fns[t].owner_ty.as_deref() {
                if ranks.types.contains_key(ty) {
                    ranked.insert(ty);
                }
            }
        }
        if ranked.len() == 1 {
            let ty = ranked.iter().next().unwrap().to_string();
            let rank = ranks.types[&ty];
            return LockSite::Acquire {
                class: ty,
                rank,
                shared,
                noblock,
            };
        }
    }
    LockSite::None
}

/// `// lock-level: <n> <why>` attached to the call's own lines.
fn site_rank_override(m: &FileModel<'_>, call: &CallSite) -> Option<u32> {
    m.anns(call.line, call.end_line)
        .find_map(|c| parse_level(&c.text).map(|(n, _)| n))
}
