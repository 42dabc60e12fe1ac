//! Per-function dataflow summaries over the workspace call graph.
//!
//! Two analyses share the bottom-up SCC propagation from
//! [`crate::graph`]:
//!
//! * **Lock summaries** — which lock classes a function (transitively)
//!   acquires, plus every *acquired-while-holding* edge with the call
//!   chain that produces it. Lock identity and level come from
//!   `// lock-level: <n> <why>` comments on the lock type, the field, or
//!   the acquire site. Acquire recognition is receiver-type-driven; a receiver
//!   nobody can type only counts inside the rule's paths, and only when
//!   every workspace candidate for the method agrees on a single ranked
//!   class.
//! * **Effect summaries** — the NVM store/flush/fence/publish state a
//!   function's body moves through, as a transfer function over the
//!   three-point lattice `Clean < Flushed < Dirty` (join = dirtier). The
//!   walker follows `if`/`else`, `match` arms, and loops (two-pass
//!   fixpoint), so "flush on only one branch" joins to Dirty and is
//!   caught. Publish sites (a `// publishes: <what>` marker, or a fused
//!   publish primitive) demand `Clean`: `Dirty` is a missing flush,
//!   `Flushed` a missing fence.
//!
//! Approximations, on purpose: guards are assumed held to the end of
//! their innermost enclosing block (closure-based acquires to the end of
//! the call); a guard returned out of a helper is counted as an acquire
//! but not as held in the caller; effects in call arguments apply after
//! the outer call's effect; conservative call-graph fan-out can attribute
//! a callee's effects to more callers than can reach it at runtime.
//! `// lint:allow` carries the escape hatch, as everywhere else.

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
    let is_acquire_name = cfg.lock_order.acquire_methods.contains(&call.method);
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

// ---------------------------------------------------------------------
// Flush-before-publish effect analysis
// ---------------------------------------------------------------------

/// Abstract persist state (join = max).
pub const CLEAN: u8 = 0;
pub const FLUSHED: u8 = 1;
pub const DIRTY: u8 = 2;

/// Violation kinds at a publish site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolKind {
    MissingFlush,
    MissingFence,
}

/// One flush-before-publish violation.
#[derive(Debug, Clone)]
pub struct Viol {
    pub kind: ViolKind,
    /// Publish site.
    pub file: usize,
    pub line: u32,
    pub col: u32,
    pub end_line: u32,
    /// What the site publishes (the `// publishes:` text or the method).
    pub what: String,
    /// The store that left the state dirty, when known.
    pub store: Option<(usize, u32)>,
    /// Chain from the reporting fn to the publish.
    pub chain: Vec<ChainStep>,
}

fn viol_key(v: &Viol) -> (ViolKind, usize, u32) {
    (v.kind, v.file, v.line)
}

/// Per-function effect summary: exit state and violations for each of
/// the three entry states.
#[derive(Debug, Clone)]
pub struct EffectSummary {
    pub exit: [u8; 3],
    pub viols: [Vec<Viol>; 3],
}

impl Default for EffectSummary {
    fn default() -> Self {
        EffectSummary {
            exit: [CLEAN, FLUSHED, DIRTY],
            viols: [Vec::new(), Vec::new(), Vec::new()],
        }
    }
}

/// Effect analysis results.
#[derive(Debug, Default)]
pub struct EffectAnalysis {
    pub summaries: Vec<EffectSummary>,
}

/// Tracked walker state: abstract level plus the dirtying store site.
#[derive(Debug, Clone, Copy)]
struct PState {
    lvl: u8,
    store: Option<(usize, u32)>,
}

fn join(a: PState, b: PState) -> PState {
    if b.lvl > a.lvl {
        b
    } else if a.lvl > b.lvl {
        a
    } else {
        PState {
            lvl: a.lvl,
            store: a.store.or(b.store),
        }
    }
}

struct Walker<'g, 'm, 'a> {
    graph: &'g Graph<'m, 'a>,
    cfg: &'g Config,
    summaries: &'g [EffectSummary],
    /// Current fn context.
    fnid: usize,
    fi: usize,
    m: &'m FileModel<'a>,
    /// call byte → (call idx, targets).
    calls: BTreeMap<usize, (usize, Vec<usize>)>,
    /// Violations found this run.
    viols: Vec<Viol>,
    /// States at `return` statements.
    exits: Vec<PState>,
}

impl Walker<'_, '_, '_> {
    fn frame(&self, line: u32) -> ChainStep {
        ChainStep {
            func: self.graph.fns[self.fnid].name.clone(),
            path: self.graph.files[self.fi].0.clone(),
            line,
        }
    }

    /// First `{` at paren/bracket depth 0 in `k..hi`.
    fn brace_after(&self, mut k: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i32;
        while k < hi {
            match self.m.txt(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(k),
                _ => {}
            }
            k += 1;
        }
        None
    }

    /// Walks sig tokens `lo..hi`, returning the fallthrough state.
    fn walk(&mut self, mut k: usize, hi: usize, mut st: PState) -> PState {
        while k < hi {
            match self.m.txt(k) {
                "if" => {
                    let (out, nk) = self.walk_if(k, hi, st);
                    st = out;
                    k = nk;
                }
                "match" => {
                    let (out, nk) = self.walk_match(k, hi, st);
                    st = out;
                    k = nk;
                }
                "loop" | "while" | "for" => {
                    if let Some(open) = self.brace_after(k + 1, hi) {
                        let close = self.m.matching(open).min(hi);
                        let st_h = self.walk(k + 1, open, st);
                        let once = self.walk(open + 1, close, st_h);
                        let st_j = join(st_h, once);
                        let twice = self.walk(open + 1, close, st_j);
                        st = join(st_j, twice);
                        k = close + 1;
                    } else {
                        k += 1;
                    }
                }
                "return" => {
                    self.exits.push(st);
                    k += 1;
                }
                _ => {
                    if let Some((ci, targets)) = self.calls.get(&self.m.byte(k)).cloned() {
                        st = self.apply_call(ci, &targets, st);
                    }
                    k += 1;
                }
            }
        }
        st
    }

    /// `if cond { … } [else if … | else { … }]` — returns (join of
    /// branch exits, resume index).
    fn walk_if(&mut self, k: usize, hi: usize, st: PState) -> (PState, usize) {
        let Some(open) = self.brace_after(k + 1, hi) else {
            return (st, k + 1);
        };
        let st_cond = self.walk(k + 1, open, st);
        let close = self.m.matching(open).min(hi);
        let then_out = self.walk(open + 1, close, st_cond);
        if close + 1 < hi && self.m.txt(close + 1) == "else" {
            if close + 2 < hi && self.m.txt(close + 2) == "if" {
                let (else_out, nk) = self.walk_if(close + 2, hi, st_cond);
                (join(then_out, else_out), nk)
            } else if close + 2 < hi && self.m.txt(close + 2) == "{" {
                let ec = self.m.matching(close + 2).min(hi);
                let else_out = self.walk(close + 3, ec, st_cond);
                (join(then_out, else_out), ec + 1)
            } else {
                (join(then_out, st_cond), close + 1)
            }
        } else {
            (join(then_out, st_cond), close + 1)
        }
    }

    /// `match scrutinee { pat => arm, … }` — every arm walks from the
    /// scrutinee state; the result joins all arms.
    fn walk_match(&mut self, k: usize, hi: usize, st: PState) -> (PState, usize) {
        let Some(open) = self.brace_after(k + 1, hi) else {
            return (st, k + 1);
        };
        let st_s = self.walk(k + 1, open, st);
        let close = self.m.matching(open).min(hi);
        let mut out: Option<PState> = None;
        let mut j = open + 1;
        while j < close {
            // Find the arm's `=>` at depth 0 (relative to the body).
            let mut depth = 0i32;
            let mut arrow = None;
            let mut p = j;
            while p < close {
                match self.m.txt(p) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if depth == 0 && p > j && self.m.txt(p - 1) == "=" => {
                        arrow = Some(p);
                        break;
                    }
                    _ => {}
                }
                p += 1;
            }
            let Some(arrow) = arrow else { break };
            let start = arrow + 1;
            let (arm_out, nj) = if start < close && self.m.txt(start) == "{" {
                let ac = self.m.matching(start).min(close);
                (self.walk(start + 1, ac, st_s), ac + 1)
            } else {
                // Scan to the arm-separating comma.
                let mut depth = 0i32;
                let mut e = start;
                while e < close {
                    match self.m.txt(e) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                (self.walk(start, e, st_s), e + 1)
            };
            out = Some(match out {
                Some(o) => join(o, arm_out),
                None => arm_out,
            });
            j = nj.max(j + 1);
        }
        (out.unwrap_or(st_s), close + 1)
    }

    /// Applies one call's effect to the state.
    fn apply_call(&mut self, ci: usize, targets: &[usize], st: PState) -> PState {
        let call = &self.m.calls[ci];
        if self.m.in_test(call.byte) {
            return st;
        }
        let fp = &self.cfg.flush_publish;
        let name = call.method.as_str();
        // Publish check first: a marker can sit on any effect call.
        let marker = self.m.anns(call.line, call.end_line).find_map(|c| {
            c.text
                .strip_prefix("publishes:")
                .map(|w| w.trim().to_string())
        });
        let is_publish = marker.is_some() || fp.publishes.contains(&call.method);
        if is_publish {
            let what = marker.unwrap_or_else(|| call.method.clone());
            let kind = match st.lvl {
                DIRTY => Some(ViolKind::MissingFlush),
                FLUSHED => Some(ViolKind::MissingFence),
                _ => None,
            };
            if let Some(kind) = kind {
                let v = Viol {
                    kind,
                    file: self.fi,
                    line: call.line,
                    col: call.col,
                    end_line: call.end_line,
                    what,
                    store: st.store,
                    chain: vec![self.frame(call.line)],
                };
                if !self.viols.iter().any(|w| viol_key(w) == viol_key(&v)) {
                    self.viols.push(v);
                }
            }
            return st;
        }
        if fp.stores.contains(&call.method) {
            return PState {
                lvl: DIRTY,
                store: Some((self.fi, call.line)),
            };
        }
        if fp.flushes.contains(&call.method) {
            return PState {
                lvl: if st.lvl == DIRTY { FLUSHED } else { st.lvl },
                store: st.store,
            };
        }
        if fp.fences.contains(&call.method) {
            return if st.lvl == FLUSHED {
                PState {
                    lvl: CLEAN,
                    store: None,
                }
            } else {
                st
            };
        }
        if fp.full_persists.contains(&call.method) {
            return PState {
                lvl: CLEAN,
                store: None,
            };
        }
        if fp.neutral.contains(&call.method) || name.is_empty() {
            return st;
        }
        // Plain call: apply callee summaries.
        let mut out = st;
        for &t in targets {
            let s = &self.summaries[t];
            let callee_exit = PState {
                lvl: s.exit[st.lvl as usize],
                store: if s.exit[st.lvl as usize] > CLEAN {
                    st.store.or(Some((self.fi, call.line)))
                } else {
                    None
                },
            };
            out = join(out, callee_exit);
            // Materialize entry-conditional violations: those the callee
            // reports at this entry state but not when entered Clean
            // (those are already reported in the callee itself).
            let clean_keys: BTreeSet<_> = s.viols[CLEAN as usize].iter().map(viol_key).collect();
            for v in &s.viols[st.lvl as usize] {
                if clean_keys.contains(&viol_key(v)) {
                    continue;
                }
                let mut chained = v.clone();
                let mut chain = vec![self.frame(call.line)];
                chain.extend(v.chain.iter().cloned());
                chained.chain = chain;
                chained.store = chained.store.or(st.store);
                if !self.viols.iter().any(|w| viol_key(w) == viol_key(&chained)) {
                    self.viols.push(chained);
                }
            }
        }
        // The callee may have cleaned everything on every target.
        if !targets.is_empty() {
            let all_exit = targets
                .iter()
                .map(|&t| self.summaries[t].exit[st.lvl as usize])
                .max()
                .unwrap_or(st.lvl);
            if all_exit < out.lvl {
                out = PState {
                    lvl: all_exit,
                    store: if all_exit > CLEAN { out.store } else { None },
                };
            }
        }
        out
    }
}

impl EffectAnalysis {
    pub fn run(graph: &Graph<'_, '_>, cfg: &Config) -> Self {
        let nfns = graph.fns.len();
        let mut summaries: Vec<EffectSummary> = vec![EffectSummary::default(); nfns];
        let sccs = graph.sccs();
        for comp in &sccs {
            // Fixpoint within the component: exits only move up the
            // (finite) lattice and violation sets only grow, bounded by
            // the number of publish sites, so this terminates.
            let mut rounds = 0usize;
            loop {
                let mut changed = false;
                for &id in comp {
                    let node = &graph.fns[id];
                    let (fi, fx) = (node.file, node.fx);
                    let m = &graph.files[fi].1;
                    let fnitem = &m.fns[fx];
                    if fnitem.test_attr || m.in_test(fnitem.byte) {
                        continue;
                    }
                    let calls: BTreeMap<usize, (usize, Vec<usize>)> = graph.calls[id]
                        .iter()
                        .map(|e| (m.calls[e.call].byte, (e.call, e.targets.clone())))
                        .collect();
                    let lo = m.sig_at_byte(fnitem.body.start).unwrap_or(0);
                    let hi = (lo..m.sig_len())
                        .find(|&k| m.byte(k) >= fnitem.body.end)
                        .unwrap_or(m.sig_len());
                    let mut new = EffectSummary::default();
                    for entry in [CLEAN, FLUSHED, DIRTY] {
                        let mut w = Walker {
                            graph,
                            cfg,
                            summaries: &summaries,
                            fnid: id,
                            fi,
                            m,
                            calls: calls.clone(),
                            viols: Vec::new(),
                            exits: Vec::new(),
                        };
                        let fall = w.walk(
                            lo,
                            hi,
                            PState {
                                lvl: entry,
                                store: None,
                            },
                        );
                        let exit = w.exits.iter().fold(fall, |acc, &e| join(acc, e));
                        new.exit[entry as usize] = exit.lvl;
                        new.viols[entry as usize] = w.viols;
                    }
                    // Monotone update: join with the previous summary.
                    let old = &mut summaries[id];
                    for e in 0..3 {
                        if new.exit[e] > old.exit[e] {
                            old.exit[e] = new.exit[e];
                            changed = true;
                        }
                        let keys: BTreeSet<_> = old.viols[e].iter().map(viol_key).collect();
                        for v in new.viols[e].drain(..) {
                            if !keys.contains(&viol_key(&v)) {
                                old.viols[e].push(v);
                                changed = true;
                            }
                        }
                    }
                }
                rounds += 1;
                if !changed || rounds > comp.len() * 4 + 4 {
                    break;
                }
            }
        }
        EffectAnalysis { summaries }
    }
}
