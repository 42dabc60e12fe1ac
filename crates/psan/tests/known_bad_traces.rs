//! Table-driven suite of known-bad traces: each case seeds one specific
//! ordering bug and asserts the sanitizer reports exactly the expected
//! violation kind. A final set of clean traces pins down the rules'
//! *non*-firing behavior (per-thread fences, WBINVD, byte granularity).

use prep_psan::{check_trace, Event, EventKind, PublishTag, ViolationKind};

fn ev(seq: u64, thread: u64, kind: EventKind) -> Event {
    Event {
        seq,
        thread,
        kind,
        site: "known_bad_traces",
    }
}

fn store(seq: u64, thread: u64, addr: u64, len: u64) -> Event {
    ev(
        seq,
        thread,
        EventKind::Store {
            addr,
            len,
            durable: false,
        },
    )
}

fn flush(seq: u64, thread: u64, addr: u64) -> Event {
    ev(seq, thread, EventKind::FlushLine { addr, sync: false })
}

fn fence(seq: u64, thread: u64) -> Event {
    ev(seq, thread, EventKind::Fence)
}

fn publish(seq: u64, thread: u64, addr: u64, deps: Vec<(u64, u64)>, tag: PublishTag) -> Event {
    ev(
        seq,
        thread,
        EventKind::Publish {
            addr,
            len: 1,
            deps,
            tag,
            durable: false,
        },
    )
}

struct Case {
    name: &'static str,
    trace: Vec<Event>,
    expect: &'static [ViolationKind],
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "missing_fence: payload flushed but publish issued before the sfence",
            trace: vec![
                store(0, 1, 0, 32),
                flush(1, 1, 0),
                publish(2, 1, 64, vec![(0, 32)], PublishTag::LogEntry),
                flush(3, 1, 64),
                fence(4, 1),
            ],
            expect: &[ViolationKind::MissingFence],
        },
        Case {
            name: "version_publish_unfenced: replica bytes flushed but the \
                   version-style publish (seqlock write_end analogue) is \
                   issued before the draining sfence",
            trace: vec![
                // A combiner mutates the replica inside its version bracket,
                // flushes the dirty lines, then publishes the even version
                // word that readers trust — but before the fence drains the
                // flushes, so a crash could persist the publish without the
                // replica bytes it covers.
                store(0, 1, 0, 128),
                flush(1, 1, 0),
                flush(2, 1, 64),
                publish(3, 1, 4096, vec![(0, 128)], PublishTag::CheckpointMarker),
                flush(4, 1, 4096),
                fence(5, 1),
            ],
            expect: &[ViolationKind::MissingFence],
        },
        Case {
            name: "flush_after_publish: payload flush issued only after the emptyBit store",
            trace: vec![
                store(0, 1, 0, 32),
                publish(1, 1, 64, vec![(0, 32)], PublishTag::LogEntry),
                flush(2, 1, 0),
                flush(3, 1, 64),
                fence(4, 1),
            ],
            expect: &[ViolationKind::FlushAfterPublish],
        },
        Case {
            name: "missing_flush: payload never flushed at all",
            trace: vec![
                store(0, 1, 0, 32),
                publish(1, 1, 64, vec![(0, 32)], PublishTag::LogEntry),
                flush(2, 1, 64),
                fence(3, 1),
            ],
            expect: &[ViolationKind::MissingFlush],
        },
        Case {
            name: "tail_before_entry: completedTail persisted before a covered log entry",
            trace: vec![
                // Entry 0 durable, entry 1 (bytes 64..128) only flushed.
                store(0, 1, 0, 64),
                flush(1, 1, 0),
                fence(2, 1),
                store(3, 1, 64, 64),
                flush(4, 1, 64),
                // completedTail covers both entries but entry 1 is unfenced.
                publish(5, 1, 4096, vec![(0, 128)], PublishTag::CompletedTail),
                fence(6, 1),
            ],
            expect: &[ViolationKind::TailBeforeEntry],
        },
        Case {
            name: "stale_recovery_read: recovery reads bytes dirty at the crash cut",
            trace: vec![
                store(0, 1, 0, 16),
                ev(1, 1, EventKind::CrashCut { id: 1 }),
                ev(
                    2,
                    1,
                    EventKind::RecoveryRead {
                        addr: 0,
                        len: 16,
                        cut: 1,
                    },
                ),
            ],
            expect: &[ViolationKind::StaleRecoveryRead],
        },
        Case {
            name: "stale_recovery_read: flushed-but-unfenced at the cut is still stale",
            trace: vec![
                store(0, 1, 0, 16),
                flush(1, 1, 0),
                ev(2, 1, EventKind::CrashCut { id: 1 }),
                ev(
                    3,
                    1,
                    EventKind::RecoveryRead {
                        addr: 8,
                        len: 4,
                        cut: 1,
                    },
                ),
            ],
            expect: &[ViolationKind::StaleRecoveryRead],
        },
        Case {
            name: "two-region missing_fence: a checkpoint marker covers region A's \
                   drained bytes but region B's flush has no draining sfence",
            trace: vec![
                // Region A's bytes are fully drained before the marker.
                store(0, 1, 0, 32),
                flush(1, 1, 0),
                fence(2, 1),
                // Region B's bytes are flushed but the writer skips the
                // sfence before the marker, so the marker can go durable
                // while B's bytes are in flight.
                store(3, 1, 1024, 32),
                flush(4, 1, 1024),
                publish(
                    5,
                    1,
                    4096,
                    vec![(0, 32), (1024, 32)],
                    PublishTag::CheckpointMarker,
                ),
                flush(6, 1, 4096),
                fence(7, 1),
            ],
            expect: &[ViolationKind::MissingFence],
        },
        Case {
            name: "two-region stale_recovery_read: recovery reads a log past its cut tail",
            trace: vec![
                // Entry 0 durable, its completedTail covers it: clean.
                store(0, 1, 1024, 16),
                flush(1, 1, 1024),
                fence(2, 1),
                publish(3, 1, 2048, vec![(1024, 16)], PublishTag::CompletedTail),
                flush(4, 1, 2048),
                fence(5, 1),
                // Entry 1 lands past completedTail and is still dirty at
                // the crash; recovery must replay only up to the cut tail,
                // but reads the over-tail entry anyway.
                store(6, 1, 1040, 16),
                ev(7, 1, EventKind::CrashCut { id: 1 }),
                ev(
                    8,
                    1,
                    EventKind::RecoveryRead {
                        addr: 1040,
                        len: 16,
                        cut: 1,
                    },
                ),
            ],
            expect: &[ViolationKind::StaleRecoveryRead],
        },
        Case {
            name: "redundant_flush: same line flushed twice in one epoch, no store between",
            trace: vec![
                store(0, 1, 0, 8),
                flush(1, 1, 0),
                fence(2, 1),
                flush(3, 1, 8), // same line as addr 0
                fence(4, 1),
            ],
            expect: &[ViolationKind::RedundantFlush],
        },
        Case {
            // Two combiners' adjacent log batches share a boundary line;
            // each thread stores its half, thread 2's flush lands first and
            // covers both stores, thread 1 still flushes for its own store.
            // Unavoidable without cross-thread coordination → not reported.
            name: "clean: cross-thread re-flush of a shared boundary line is not redundant",
            trace: vec![
                store(0, 1, 0, 8), // thread 1's batch tail
                store(1, 2, 8, 8), // thread 2's batch head, same line
                flush(2, 2, 8),
                fence(3, 2),
                flush(4, 1, 0), // line already clean, but cleaned by t2
                fence(5, 1),
            ],
            expect: &[],
        },
        Case {
            // Another combiner flushes a shared line between my store and
            // my own flush of it; my fence still persists my store. (The
            // two-node durable runs produce this interleaving constantly.)
            name: "clean: my flush + fence persist a line another thread flushed first",
            trace: vec![
                store(0, 1, 0, 8), // t1's bytes on a shared line
                flush(1, 2, 32),   // t2 flushes the line for its own bytes
                flush(2, 1, 0),    // t1's own flush of the same line
                fence(3, 1),
                publish(4, 1, 64, vec![(0, 8)], PublishTag::LogEntry),
                flush(5, 1, 64),
                fence(6, 1),
            ],
            expect: &[],
        },
        Case {
            // The same-thread rule still fires through an interleaved
            // foreign flush: t1 cleans the line, t2 re-flushes (benign),
            // t1 flushes again with no store anywhere since its own flush.
            name: "redundant_flush: same-thread re-flush after a foreign benign flush",
            trace: vec![
                store(0, 1, 0, 8),
                flush(1, 1, 0),
                fence(2, 1),
                flush(3, 2, 8), // foreign flush of the clean line: benign
                flush(4, 2, 8), // t2 again, right after its own: redundant
                fence(5, 2),
            ],
            expect: &[ViolationKind::RedundantFlush],
        },
        Case {
            name: "cross_thread_fence: a fence on another thread does not drain my flushes",
            trace: vec![
                store(0, 1, 0, 8),
                flush(1, 1, 0),
                fence(2, 2), // thread 2's fence — irrelevant to thread 1
                publish(3, 1, 64, vec![(0, 8)], PublishTag::LogEntry),
                flush(4, 1, 64),
                fence(5, 1),
            ],
            expect: &[ViolationKind::MissingFence],
        },
        Case {
            name: "clean: flush + fence before publish",
            trace: vec![
                store(0, 1, 0, 32),
                flush(1, 1, 0),
                fence(2, 1),
                publish(3, 1, 64, vec![(0, 32)], PublishTag::LogEntry),
                flush(4, 1, 64),
                fence(5, 1),
            ],
            expect: &[],
        },
        Case {
            name: "clean: wbinvd makes everything durable",
            trace: vec![
                store(0, 1, 0, 4096),
                ev(1, 1, EventKind::Wbinvd),
                publish(2, 1, 8192, vec![(0, 4096)], PublishTag::CheckpointMarker),
                flush(3, 1, 8192),
                fence(4, 1),
            ],
            expect: &[],
        },
        Case {
            name: "clean: epoch boundary resets the redundant-flush lint",
            trace: vec![
                store(0, 1, 0, 8),
                flush(1, 1, 0),
                fence(2, 1),
                ev(3, 1, EventKind::Epoch),
                flush(4, 1, 0), // new epoch: not redundant
                fence(5, 1),
            ],
            expect: &[],
        },
        Case {
            name: "clean: byte granularity — durable neighbor on a shared line stays durable",
            trace: vec![
                // Entry payload bytes 0..8 made durable, emptyBit published.
                store(0, 1, 0, 8),
                flush(1, 1, 0),
                fence(2, 1),
                publish(3, 1, 8, vec![(0, 8)], PublishTag::LogEntry),
                flush(4, 1, 8),
                fence(5, 1),
                // Next entry dirties bytes 9..17 on the SAME line, then
                // completedTail publishes only the first entry's bytes.
                store(6, 1, 9, 8),
                publish(7, 1, 4096, vec![(0, 9)], PublishTag::CompletedTail),
                fence(8, 1),
            ],
            expect: &[],
        },
        Case {
            name: "clean: recovery reads only bytes durable at the cut",
            trace: vec![
                store(0, 1, 0, 16),
                flush(1, 1, 0),
                fence(2, 1),
                store(3, 1, 64, 16), // dirty, but never read by recovery
                ev(4, 1, EventKind::CrashCut { id: 1 }),
                ev(
                    5,
                    1,
                    EventKind::RecoveryRead {
                        addr: 0,
                        len: 16,
                        cut: 1,
                    },
                ),
            ],
            expect: &[],
        },
        Case {
            name: "clean: store+clflush pair is durable on issue",
            trace: vec![
                ev(
                    0,
                    1,
                    EventKind::Store {
                        addr: 0,
                        len: 8,
                        durable: true,
                    },
                ),
                publish(1, 1, 64, vec![(0, 8)], PublishTag::Other),
                flush(2, 1, 64),
                fence(3, 1),
            ],
            expect: &[],
        },
    ]
}

#[test]
fn known_bad_traces_each_yield_the_expected_violation_kind() {
    for case in cases() {
        let violations = check_trace(&case.trace);
        let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds, case.expect,
            "case `{}` reported {:#?}",
            case.name, violations
        );
    }
}

#[test]
fn violation_chains_name_the_store_and_the_trigger() {
    let trace = vec![
        store(0, 1, 0, 32),
        flush(1, 1, 0),
        publish(2, 1, 64, vec![(0, 32)], PublishTag::LogEntry),
        fence(3, 1),
    ];
    let violations = check_trace(&trace);
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    // Chain: the store, its (unfenced) flush, the publish trigger.
    let seqs: Vec<u64> = v.chain.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2]);
    assert!(
        v.message.contains("flushed but not fenced"),
        "{}",
        v.message
    );
    let report = prep_psan::format_violations(&violations);
    assert!(report.contains("missing-fence"), "{report}");
    assert!(report.contains("known_bad_traces"), "{report}");
}

/// The only case whose publish has two dependency ranges with different
/// fates: the report must name the undrained one, not the first one (a
/// checker that blames `deps[0]` fails here and nowhere else).
#[test]
fn two_region_bisection_pinpoints_the_undrained_region() {
    // A checkpoint marker over two regions: region A's bytes are drained,
    // region B's are flushed but unfenced when the marker goes durable.
    // The report must blame region B's range, and the crash window must
    // be exactly the instants between the durable marker and the fence
    // that finally drains B.
    let trace = vec![
        store(0, 1, 0, 8), // region A
        flush(1, 1, 0),
        fence(2, 1),          // A drained
        store(3, 1, 1024, 8), // region B
        flush(4, 1, 1024),    // never fenced before the marker
        ev(
            5,
            1,
            EventKind::Publish {
                addr: 4096,
                len: 8,
                deps: vec![(0, 8), (1024, 8)],
                tag: PublishTag::CheckpointMarker,
                durable: true,
            },
        ),
        fence(6, 1),
    ];
    let violations = check_trace(&trace);
    assert_eq!(violations.len(), 1, "{violations:#?}");
    let v = &violations[0];
    assert_eq!(v.kind, ViolationKind::MissingFence);
    // Region B's bytes, not region A's.
    assert_eq!(v.range, (1024, 1032));
    // Crash instants 6..7: after the durable marker, before B's fence.
    assert_eq!(v.crash_window, Some((6, 7)));
    assert_eq!(prep_psan::crash_window(&trace, 5), Some((6, 7)));
}

/// The only case that pins a stale-recovery-read's chain: a checker that
/// drops the crash cut from it fails here and nowhere else.
#[test]
fn two_region_over_tail_recovery_read_names_the_store_cut_and_read() {
    // Same shape as the table's two-region stale_recovery_read case, with
    // the chain and the clean completedTail publish pinned down.
    let trace = vec![
        store(0, 1, 1024, 16),
        flush(1, 1, 1024),
        fence(2, 1),
        publish(3, 1, 2048, vec![(1024, 16)], PublishTag::CompletedTail),
        flush(4, 1, 2048),
        fence(5, 1),
        store(6, 1, 1040, 16),
        ev(7, 1, EventKind::CrashCut { id: 1 }),
        ev(
            8,
            1,
            EventKind::RecoveryRead {
                addr: 1040,
                len: 16,
                cut: 1,
            },
        ),
    ];
    let violations = check_trace(&trace);
    assert_eq!(violations.len(), 1, "{violations:#?}");
    let v = &violations[0];
    assert_eq!(v.kind, ViolationKind::StaleRecoveryRead);
    assert_eq!(v.range, (1040, 1056));
    // Chain: the over-tail store, the cut, the offending read.
    let seqs: Vec<u64> = v.chain.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![6, 7, 8]);
    // The per-log completedTail publish itself is clean — its dep was
    // durable before it, so no divergent crash window exists.
    assert_eq!(prep_psan::crash_window(&trace, 3), None);
}

#[test]
fn bisection_reports_a_window_only_when_a_divergent_cut_exists() {
    // Publish made durable synchronously while the dep is still pending:
    // cutting between the publish and the fence loses the dep.
    let trace = vec![
        store(0, 1, 0, 8),
        flush(1, 1, 0),
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
        fence(3, 1),
    ];
    let violations = check_trace(&trace);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].crash_window, Some((3, 4)));
    // Explicit API: same answer.
    assert_eq!(prep_psan::crash_window(&trace, 2), Some((3, 4)));
    // Non-publish events have no window.
    assert_eq!(prep_psan::crash_window(&trace, 0), None);
}
