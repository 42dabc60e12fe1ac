//! The rule engine: replays an event trace against the ordering rules and
//! reports violations with full store→flush→fence chains.
//!
//! Durability state is tracked **byte-granular** in an interval map. Line
//! granularity would be wrong here: log entries pack many per-index byte
//! ranges into shared cachelines, so a later entry's payload store would
//! appear to "undo" the durability of an earlier, already-persisted entry
//! and produce false `TailBeforeEntry` reports. Flushes, by contrast, are
//! expanded to full line spans — flushing a line persists every byte on
//! it, exactly as the hardware does (flushes only ever make *more* bytes
//! durable, so the expansion is sound).

use std::collections::{BTreeMap, HashMap};

use crate::trace::{fmt_addr, Event, EventKind, PublishTag, Region, CACHE_LINE};

/// Classification of an ordering violation. The first four are rule 1/2
/// failures distinguished by *why* the published bytes were not durable;
/// the last two are rules 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Published bytes were never flushed before the publish store, and no
    /// later flush covers them either.
    MissingFlush,
    /// Published bytes were flushed, but the issuing thread's fence had
    /// not executed when the publish store was issued.
    MissingFence,
    /// Published bytes were still dirty at the publish store; the flush
    /// covering them was issued only *after* the publish.
    FlushAfterPublish,
    /// `completedTail` was published before every log byte at or below it
    /// was durable (rule 2, the `completedTail` specialization of rule 1).
    TailBeforeEntry,
    /// Recovery read bytes whose latest store was not durable at the
    /// crash cut it recovers from (rule 3).
    StaleRecoveryRead,
    /// A thread flushed a line it had already flushed within the same
    /// checkpoint epoch, with no intervening store to it by any thread
    /// (rule 4 — a performance lint). Scoped to the *same* thread
    /// re-flushing: when adjacent log batches of two combiners share a
    /// boundary cacheline, each thread legitimately flushes the line for
    /// its own store, and whichever flush lands second finds the line
    /// already clean — that interleaving is unavoidable without
    /// cross-thread coordination and costs nothing on hardware, so it is
    /// not reported.
    RedundantFlush,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::MissingFlush => "missing-flush",
            ViolationKind::MissingFence => "missing-fence",
            ViolationKind::FlushAfterPublish => "flush-after-publish",
            ViolationKind::TailBeforeEntry => "tail-before-entry",
            ViolationKind::StaleRecoveryRead => "stale-recovery-read",
            ViolationKind::RedundantFlush => "redundant-flush",
        };
        f.write_str(s)
    }
}

/// One rule failure: what broke, where, and the event chain proving it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub kind: ViolationKind,
    /// Sequence number of the triggering event (the publish store, the
    /// recovery read, or the redundant flush).
    pub seq: u64,
    /// Call site of the triggering event.
    pub site: &'static str,
    /// The offending byte range `[start, end)`.
    pub range: (u64, u64),
    /// The proving event chain, in trace order: the last store to the
    /// offending range, its flush (if one was issued), and the trigger.
    pub chain: Vec<Event>,
    /// For publish-ordering violations: the crash-window search result —
    /// the half-open window of event indices `[a, b)` such that a crash
    /// cut taken there observes the publish durable but its dependency
    /// not, i.e. recovery diverges. `None` when no such instant exists in
    /// this trace (a later fence closed the race before the publish ever
    /// became durable), in which case the report is still a real ordering
    /// bug — the window merely happened to be empty *on this schedule*.
    pub crash_window: Option<(u64, u64)>,
    /// Human-readable one-line description.
    pub message: String,
}

/// Why a byte interval is not durable yet.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SegState {
    /// Stored, not yet flushed.
    Dirty,
    /// Flushed with `CLFLUSHOPT` (first at `flush_seq`) by every thread in
    /// `flushers` since the last store. Each of those flushes covers the
    /// stored bytes, so the first fence by *any* of them makes the
    /// interval durable — two combiners whose batches share a cacheline
    /// both flush it, and whichever fences first persists both stores.
    Pending { flush_seq: u64, flushers: Vec<u64> },
}

impl SegState {
    fn describe(&self) -> &'static str {
        match self {
            SegState::Dirty => "dirty (never flushed)",
            SegState::Pending { .. } => "flushed but not fenced",
        }
    }
}

#[derive(Debug, Clone)]
struct Seg {
    end: u64,
    store_seq: u64,
    state: SegState,
}

/// Byte-granular interval map of the bytes that are **not** durable. A
/// durable byte carries no information — bytes never stored are durable
/// too (NVM holds whatever it holds; only *written* bytes can be lost in a
/// cache) — so a byte leaves the map the moment it becomes durable. The
/// map is therefore as small as the in-flight persist state, and a fence
/// or a publish check costs that, not the length of the trace so far.
#[derive(Clone, Default)]
struct SegMap {
    segs: BTreeMap<u64, Seg>,
}

impl SegMap {
    /// Splits the segment containing `pos` (if any) so `pos` becomes a
    /// segment boundary.
    fn split_at(&mut self, pos: u64) {
        if let Some((_, seg)) = self.segs.range_mut(..pos).next_back() {
            if seg.end > pos {
                let tail = seg.clone();
                seg.end = pos;
                self.segs.insert(pos, tail);
            }
        }
    }

    /// Marks every byte of `[start, end)` durable.
    fn make_durable(&mut self, start: u64, end: u64) {
        self.split_at(start);
        self.split_at(end);
        let covered: Vec<u64> = self.segs.range(start..end).map(|(&k, _)| k).collect();
        for k in covered {
            self.segs.remove(&k);
        }
    }

    fn store(&mut self, addr: u64, len: u64, seq: u64, durable: bool) {
        if len == 0 {
            return;
        }
        let end = addr + len;
        self.make_durable(addr, end);
        if !durable {
            self.segs.insert(
                addr,
                Seg {
                    end,
                    store_seq: seq,
                    state: SegState::Dirty,
                },
            );
        }
    }

    /// Applies a flush covering every line overlapping `[addr, addr+len)`.
    fn flush(&mut self, addr: u64, len: u64, sync: bool, thread: u64, seq: u64) {
        let start = addr / CACHE_LINE * CACHE_LINE;
        let end = (addr + len.max(1)).div_ceil(CACHE_LINE) * CACHE_LINE;
        if sync {
            self.make_durable(start, end);
            return;
        }
        self.split_at(start);
        self.split_at(end);
        for seg in self.segs.range_mut(start..end).map(|(_, s)| s) {
            match &mut seg.state {
                SegState::Dirty => {
                    seg.state = SegState::Pending {
                        flush_seq: seq,
                        flushers: vec![thread],
                    }
                }
                SegState::Pending { flushers, .. } => {
                    if !flushers.contains(&thread) {
                        flushers.push(thread);
                    }
                }
            }
        }
    }

    /// `SFENCE` by `thread`: that thread's pending flushes complete.
    fn fence(&mut self, thread: u64) {
        self.segs.retain(
            |_, s| !matches!(&s.state, SegState::Pending { flushers, .. } if flushers.contains(&thread)),
        );
    }

    /// `WBINVD`: every line in the system is written back.
    fn wbinvd(&mut self) {
        self.segs.clear();
    }

    /// First non-durable sub-interval overlapping `[addr, addr+len)`, as
    /// `(start, end, store_seq, state)`.
    fn first_not_durable(&self, addr: u64, len: u64) -> Option<(u64, u64, u64, SegState)> {
        let end = addr.saturating_add(len);
        let scan_from = self
            .segs
            .range(..=addr)
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(addr);
        self.segs
            .range(scan_from..end)
            .find(|(_, seg)| seg.end > addr)
            .map(|(&start, seg)| {
                let state = seg.state.clone();
                (start.max(addr), seg.end.min(end), seg.store_seq, state)
            })
    }

    fn all_durable(&self, ranges: &[(u64, u64)]) -> bool {
        ranges
            .iter()
            .all(|&(a, l)| self.first_not_durable(a, l).is_none())
    }

    /// Every non-durable segment — the snapshot taken at a crash cut.
    fn not_durable(&self) -> Vec<(u64, u64, u64, SegState)> {
        self.segs
            .iter()
            .map(|(&k, s)| (k, s.end, s.store_seq, s.state.clone()))
            .collect()
    }
}

/// Cacheline start addresses spanned by `[addr, addr+len)`.
fn line_span(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = addr / CACHE_LINE;
    let last = (addr + len.max(1)).div_ceil(CACHE_LINE);
    (first..last).map(|l| l * CACHE_LINE)
}

/// Redundant-flush lint state for one cacheline (rule 4).
#[derive(Clone, Copy, PartialEq, Eq)]
enum LintLine {
    /// Stored to since the last flush — the next flush is useful.
    Dirty,
    /// Clean; the recorded thread issued the flush that cleaned it. Only a
    /// re-flush by that same thread is reported: a *different* thread
    /// flushing a clean line is the benign adjacent-batch interleaving
    /// (both threads stored to a shared boundary line, one flush covered
    /// both stores, the other thread still owes a flush for its own store).
    CleanedBy(u64),
}

/// Checks a trace with no region labels (addresses print raw).
pub fn check_trace(events: &[Event]) -> Vec<Violation> {
    check_trace_with_regions(events, &[])
}

/// Checks a trace; `regions` are used only to label addresses in reports.
pub(crate) fn check_trace_with_regions(events: &[Event], regions: &[Region]) -> Vec<Violation> {
    let mut map = SegMap::default();
    // Redundant-flush lint: line → dirty / cleaned-by-thread (see
    // [`LintLine`] for why the cleaning thread matters).
    let mut flushed_lines: HashMap<u64, LintLine> = HashMap::new();
    // Crash cut id → (cut event seq, non-durable segments at the cut).
    type CutSnapshot = (u64, Vec<(u64, u64, u64, SegState)>);
    let mut cuts: HashMap<u64, CutSnapshot> = HashMap::new();
    let mut out = Vec::new();

    let lint_store = |flushed: &mut HashMap<u64, LintLine>, addr: u64, len: u64| {
        for line in line_span(addr, len) {
            flushed.insert(line, LintLine::Dirty);
        }
    };
    let lint_flush = |flushed: &mut HashMap<u64, LintLine>,
                      out: &mut Vec<Violation>,
                      ev: &Event,
                      addr: u64,
                      len: u64,
                      report: bool| {
        for line in line_span(addr, len) {
            let prev = flushed.insert(line, LintLine::CleanedBy(ev.thread));
            if prev == Some(LintLine::CleanedBy(ev.thread)) && report {
                out.push(Violation {
                    kind: ViolationKind::RedundantFlush,
                    seq: ev.seq,
                    site: ev.site,
                    range: (line, line + CACHE_LINE),
                    chain: vec![ev.clone()],
                    crash_window: None,
                    message: format!(
                        "line {} flushed again by thread {} at {} (seq {}) with no store since \
                         the same thread's last flush in this epoch",
                        fmt_addr(regions, line),
                        ev.thread,
                        ev.site,
                        ev.seq
                    ),
                });
            }
        }
    };

    for ev in events {
        let reported = out.len();
        match &ev.kind {
            EventKind::Store { addr, len, durable } => {
                lint_store(&mut flushed_lines, *addr, *len);
                if *durable {
                    // The paired CLFLUSH counts as the line's flush.
                    lint_flush(&mut flushed_lines, &mut out, ev, *addr, *len, false);
                }
            }
            EventKind::Publish {
                addr,
                len,
                deps,
                tag,
                durable,
            } => {
                // Rules 1/2: every published byte must be durable *now* —
                // once this store is issued, the dirty publish line can
                // reach NVM spontaneously at any moment.
                for &(daddr, dlen) in deps {
                    let Some((s, e, store_seq, state)) = map.first_not_durable(daddr, dlen) else {
                        continue;
                    };
                    let kind = match (tag, &state) {
                        (PublishTag::CompletedTail, _) => ViolationKind::TailBeforeEntry,
                        (_, SegState::Pending { .. }) => ViolationKind::MissingFence,
                        (_, SegState::Dirty) => {
                            if flush_after(events, ev.seq, s, e) {
                                ViolationKind::FlushAfterPublish
                            } else {
                                ViolationKind::MissingFlush
                            }
                        }
                    };
                    let mut chain = Vec::new();
                    if let Some(store_ev) = events.get(store_seq as usize) {
                        chain.push(store_ev.clone());
                    }
                    if let SegState::Pending { flush_seq, .. } = state {
                        if let Some(flush_ev) = events.get(flush_seq as usize) {
                            chain.push(flush_ev.clone());
                        }
                    }
                    chain.push(ev.clone());
                    out.push(Violation {
                        kind,
                        seq: ev.seq,
                        site: ev.site,
                        range: (s, e),
                        chain,
                        crash_window: None, // set once the publish is applied
                        message: format!(
                            "{tag} published at {} (seq {}) while dependency bytes [{}, {}) \
                             were {} — last store at seq {}",
                            ev.site,
                            ev.seq,
                            fmt_addr(regions, s),
                            fmt_addr(regions, e),
                            state.describe(),
                            store_seq
                        ),
                    });
                    break; // one report per publish event
                }
                lint_store(&mut flushed_lines, *addr, *len);
                if *durable {
                    lint_flush(&mut flushed_lines, &mut out, ev, *addr, *len, false);
                }
            }
            EventKind::FlushLine { addr, .. } => {
                lint_flush(&mut flushed_lines, &mut out, ev, *addr, 1, true);
            }
            EventKind::FlushRange { addr, len } => {
                lint_flush(&mut flushed_lines, &mut out, ev, *addr, *len, true);
            }
            EventKind::Fence => {}
            // A checkpoint epoch or a whole-cache writeback restarts the
            // lint window.
            EventKind::Wbinvd | EventKind::Epoch => flushed_lines.clear(),
            EventKind::CrashCut { id } => {
                cuts.insert(*id, (ev.seq, map.not_durable()));
            }
            EventKind::RecoveryRead { addr, len, cut } => {
                // Rule 3: recovery may rely only on bytes durable at the
                // cut. A cut id we never saw means tracing started after
                // the crash — nothing to check against.
                let Some((cut_seq, snapshot)) = cuts.get(cut) else {
                    continue; // nothing to replay either
                };
                for &(s, e, store_seq, ref state) in snapshot {
                    let os = s.max(*addr);
                    let oe = e.min(addr.saturating_add(*len));
                    if os >= oe {
                        continue;
                    }
                    let mut chain = Vec::new();
                    if let Some(store_ev) = events.get(store_seq as usize) {
                        chain.push(store_ev.clone());
                    }
                    if let Some(cut_ev) = events.get(*cut_seq as usize) {
                        chain.push(cut_ev.clone());
                    }
                    chain.push(ev.clone());
                    out.push(Violation {
                        kind: ViolationKind::StaleRecoveryRead,
                        seq: ev.seq,
                        site: ev.site,
                        range: (os, oe),
                        chain,
                        crash_window: None,
                        message: format!(
                            "recovery from cut #{cut} read [{}, {}) at {} (seq {}), but those \
                             bytes were {} at the cut — last store at seq {}",
                            fmt_addr(regions, os),
                            fmt_addr(regions, oe),
                            ev.site,
                            ev.seq,
                            state.describe(),
                            store_seq
                        ),
                    });
                    break; // one report per recovery read
                }
            }
        }
        replay(&mut map, ev);
        if let (EventKind::Publish { .. }, Some(v)) = (&ev.kind, out.get_mut(reported)) {
            v.crash_window = window_after(map.clone(), events, ev);
        }
    }
    out
}

/// True if some flush after `seq` covers any line of `[start, end)`.
fn flush_after(events: &[Event], seq: u64, start: u64, end: u64) -> bool {
    let line_lo = start / CACHE_LINE * CACHE_LINE;
    let line_hi = end.div_ceil(CACHE_LINE) * CACHE_LINE;
    events
        .iter()
        .skip(seq as usize + 1)
        .any(|ev| match ev.kind {
            EventKind::FlushLine { addr, .. } => {
                let line = addr / CACHE_LINE * CACHE_LINE;
                line >= line_lo && line < line_hi
            }
            EventKind::FlushRange { addr, len } => addr < line_hi && addr + len.max(1) > line_lo,
            EventKind::Wbinvd => true,
            _ => false,
        })
}

/// Applies one event to the durability map — what survives a power
/// failure right after it.
fn replay(map: &mut SegMap, ev: &Event) {
    match &ev.kind {
        EventKind::Store { addr, len, durable }
        | EventKind::Publish {
            addr, len, durable, ..
        } => map.store(*addr, *len, ev.seq, *durable),
        EventKind::FlushLine { addr, sync } => map.flush(*addr, 1, *sync, ev.thread, ev.seq),
        EventKind::FlushRange { addr, len } => map.flush(*addr, *len, false, ev.thread, ev.seq),
        EventKind::Fence => map.fence(ev.thread),
        EventKind::Wbinvd => map.wbinvd(),
        _ => {}
    }
}

/// Whether `ev` stores to any byte of `ranges` (an overwrite ends a
/// range's search domain: beyond it, its durability describes a
/// *different* value).
fn overwrites(ev: &Event, ranges: &[(u64, u64)]) -> bool {
    let (EventKind::Store { addr, len, .. } | EventKind::Publish { addr, len, .. }) = ev.kind
    else {
        return false;
    };
    ranges
        .iter()
        .any(|&(a, l)| addr < a.saturating_add(l) && addr.saturating_add(len) > a)
}

/// The first crash instant `k` (a cut after `events[..k]`) at which every
/// byte of `ranges` is durable, walking forward from `map` = the state at
/// `from`. Within a range's domain — up to its next overwrite —
/// durability only grows, so the first hit is exact. `Err(end)` if the
/// domain ends (at an overwrite or the trace's end) first.
fn first_durable(
    mut map: SegMap,
    events: &[Event],
    from: u64,
    ranges: &[(u64, u64)],
) -> Result<u64, u64> {
    let mut k = from;
    loop {
        if map.all_durable(ranges) {
            return Ok(k);
        }
        match events.get(k as usize) {
            Some(ev) if !overwrites(ev, ranges) => replay(&mut map, ev),
            _ => return Err(k),
        }
        k += 1;
    }
}

/// Crash window of a publish, given `map` = the durability state right
/// after it (see [`crash_window`]).
fn window_after(map: SegMap, events: &[Event], ev: &Event) -> Option<(u64, u64)> {
    let EventKind::Publish {
        addr, len, deps, ..
    } = &ev.kind
    else {
        return None;
    };
    let from = ev.seq + 1;
    let first_pub = first_durable(map.clone(), events, from, &[(*addr, *len)]).ok()?;
    // A dependency that never becomes durable in its domain leaves the
    // window open to the domain's end.
    let dep_done = first_durable(map, events, from, deps).unwrap_or_else(|end| end);
    (dep_done > first_pub).then_some((first_pub, dep_done))
}

/// Deterministic crash-window search for the publish event at index
/// `publish_seq`: the half-open window `[a, b)` of crash instants (event
/// indices) in which a crash makes the publish durable but its dependency
/// not — i.e. recovery would observe the published value and diverge.
/// Returns `None` if the event is not a publish, if the publish never
/// becomes durable before being overwritten, or if the dependency became
/// durable no later than the publish did (the race window was empty on
/// this schedule). The checker computes the same window from its running
/// state; this entry point replays the prefix first.
pub fn crash_window(events: &[Event], publish_seq: u64) -> Option<(u64, u64)> {
    let ev = events.get(publish_seq as usize)?;
    let mut map = SegMap::default();
    for e in &events[..=publish_seq as usize] {
        replay(&mut map, e);
    }
    window_after(map, events, ev)
}

/// Renders violations as a multi-line report (chains indented under each
/// finding).
pub fn format_violations(violations: &[Violation]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "persistence-ordering sanitizer: {} violation(s)",
        violations.len()
    );
    for (i, v) in violations.iter().enumerate() {
        let _ = writeln!(s, "[{}] {}: {}", i + 1, v.kind, v.message);
        if let Some((a, b)) = v.crash_window {
            let _ = writeln!(
                s,
                "    crash window: a cut at any event index in [{a}, {b}) loses the \
                 dependency while keeping the publish"
            );
        }
        for ev in &v.chain {
            let _ = writeln!(s, "      {ev}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, thread: u64, kind: EventKind) -> Event {
        Event {
            seq,
            thread,
            kind,
            site: "test",
        }
    }

    #[test]
    fn segmap_store_flush_fence_lifecycle() {
        let mut m = SegMap::default();
        m.store(0, 8, 0, false);
        assert!(m.first_not_durable(0, 8).is_some());
        m.flush(0, 8, false, 1, 1);
        assert!(matches!(
            m.first_not_durable(0, 8),
            Some((_, _, _, SegState::Pending { flushers, .. })) if flushers == [1]
        ));
        m.fence(2); // wrong thread: still pending
        assert!(m.first_not_durable(0, 8).is_some());
        m.fence(1);
        assert!(m.first_not_durable(0, 8).is_none());
    }

    #[test]
    fn segmap_is_byte_granular_across_a_shared_line() {
        let mut m = SegMap::default();
        m.store(0, 8, 0, true); // durable early entry
        m.store(8, 8, 1, false); // dirty later entry, same line
        assert!(
            m.first_not_durable(0, 8).is_none(),
            "early bytes stay durable"
        );
        assert!(m.first_not_durable(8, 8).is_some());
    }

    #[test]
    fn flush_expands_to_the_full_line() {
        let mut m = SegMap::default();
        m.store(10, 4, 0, false);
        m.flush(60, 1, true, 1, 1); // same line as byte 10
        assert!(m.first_not_durable(10, 4).is_none());
    }

    #[test]
    fn virgin_bytes_are_durable() {
        let m = SegMap::default();
        assert!(m.first_not_durable(0, 1 << 30).is_none());
    }

    #[test]
    fn clean_publish_sequence_has_no_violations() {
        let t = [
            ev(
                0,
                1,
                EventKind::Store {
                    addr: 0,
                    len: 8,
                    durable: false,
                },
            ),
            ev(
                1,
                1,
                EventKind::FlushLine {
                    addr: 0,
                    sync: false,
                },
            ),
            ev(2, 1, EventKind::Fence),
            ev(
                3,
                1,
                EventKind::Publish {
                    addr: 64,
                    len: 1,
                    deps: vec![(0, 8)],
                    tag: PublishTag::LogEntry,
                    durable: false,
                },
            ),
            ev(
                4,
                1,
                EventKind::FlushLine {
                    addr: 64,
                    sync: false,
                },
            ),
            ev(5, 1, EventKind::Fence),
        ];
        assert!(check_trace(&t).is_empty());
    }

    #[test]
    fn crash_window_brackets_the_race() {
        // store, flush (no fence), publish+clflush, much later fence.
        let t = [
            ev(
                0,
                1,
                EventKind::Store {
                    addr: 0,
                    len: 8,
                    durable: false,
                },
            ),
            ev(
                1,
                1,
                EventKind::FlushLine {
                    addr: 0,
                    sync: false,
                },
            ),
            ev(
                2,
                1,
                EventKind::Publish {
                    addr: 64,
                    len: 8,
                    deps: vec![(0, 8)],
                    tag: PublishTag::CompletedTail,
                    durable: true,
                },
            ),
            ev(3, 1, EventKind::Fence),
        ];
        let v = check_trace(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::TailBeforeEntry);
        // Publish durable right after event 2 (index 3); dep durable only
        // after the fence (index 4): a cut at index 3 diverges.
        assert_eq!(v[0].crash_window, Some((3, 4)));
    }

    #[test]
    fn crash_window_empty_when_fence_closes_it() {
        // Async publish: the same fence that makes the dep durable also
        // makes the publish durable — no divergent cut exists.
        let t = [
            ev(
                0,
                1,
                EventKind::Store {
                    addr: 0,
                    len: 8,
                    durable: false,
                },
            ),
            ev(
                1,
                1,
                EventKind::FlushLine {
                    addr: 0,
                    sync: false,
                },
            ),
            ev(
                2,
                1,
                EventKind::Publish {
                    addr: 64,
                    len: 1,
                    deps: vec![(0, 8)],
                    tag: PublishTag::LogEntry,
                    durable: false,
                },
            ),
            ev(
                3,
                1,
                EventKind::FlushLine {
                    addr: 64,
                    sync: false,
                },
            ),
            ev(4, 1, EventKind::Fence),
        ];
        let v = check_trace(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::MissingFence);
        assert_eq!(v[0].crash_window, None);
    }
}
