//! Property tests for `prep_serve::proto`, the wire format both ends of
//! which live in this repo: every frame the encoders can produce decodes to
//! itself, every strict prefix of a frame is "need more bytes", and no byte
//! string — random, or a real frame with a hostile count patched in — makes
//! a decoder panic or size an allocation past the declared bounds
//! (`MAX_SCAN` pairs, 4 096 STATS rows).

use proptest::prelude::*;

use prep_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, AckLevel, AdminCmd,
    ProtoError, Request, Response, WireShard, WireStats, MAX_FRAME, MAX_SCAN,
};

/// Most STATS rows a decoder accepts (`proto.rs`'s bound on the row count).
const MAX_STATS_SHARDS: u32 = 4096;
/// `u64` fields in one STATS row.
const SHARD_WORDS: usize = 9;

fn request(kind: u8, durable: bool, id: u64, key: u64, value: u64, count: u32) -> Request {
    let ack = if durable {
        AckLevel::Durable
    } else {
        AckLevel::Buffered
    };
    match kind {
        0 => Request::Get { id, key },
        1 => Request::Put {
            id,
            ack,
            key,
            value,
        },
        2 => Request::Delete { id, ack, key },
        3 => Request::Scan {
            id,
            start: key,
            count,
        },
        4 => Request::Admin {
            id,
            cmd: AdminCmd::Stats,
        },
        5 => Request::Admin {
            id,
            cmd: AdminCmd::Crash,
        },
        _ => Request::Admin {
            id,
            cmd: AdminCmd::Shutdown,
        },
    }
}

fn shard(w: &[u64]) -> WireShard {
    WireShard {
        completed_tail: w[0],
        durable_watermark: w[1],
        read_slow_paths: w[2],
        read_fast_optimistic: w[3],
        read_validation_failures: w[4],
        clflush: w[5],
        clflushopt: w[6],
        sfence: w[7],
        checkpoints: w[8],
    }
}

/// `words` feeds whichever payload `kind` has: the value and error code, the
/// scan pairs (two words each), or the STATS header and rows.
fn response(kind: u8, id: u64, words: &[u64]) -> Response {
    match kind {
        0 => Response::Value {
            id,
            value: words.first().copied(),
        },
        1 => Response::Done { id },
        2 => Response::Pairs {
            id,
            pairs: words.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
        },
        3 => Response::Retry { id },
        4 => Response::Stats {
            id,
            stats: WireStats {
                epoch: id.rotate_left(7),
                loss_bound: !id,
                shards: words.chunks_exact(SHARD_WORDS).map(shard).collect(),
            },
        },
        _ => Response::Err {
            id,
            code: words.first().map_or(0, |&w| w as u8),
        },
    }
}

/// A complete frame around `body`.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut buf = (body.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(body);
    buf
}

/// What every decode outcome must satisfy, whatever the input was: a
/// decoded frame lies inside the buffer, and nothing decoded is larger than
/// the format's bounds.
fn check_response_outcome(
    buf: &[u8],
    outcome: Result<Option<(Response, usize)>, ProtoError>,
) -> TestCaseResult {
    if let Ok(Some((resp, used))) = outcome {
        prop_assert!(used <= buf.len(), "consumed {used} of {} bytes", buf.len());
        match resp {
            Response::Pairs { pairs, .. } => prop_assert!(pairs.len() <= MAX_SCAN as usize),
            Response::Stats { stats, .. } => {
                prop_assert!(stats.shards.len() <= MAX_STATS_SHARDS as usize)
            }
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_roundtrip_and_prefixes_wait(
        kind in 0u8..7,
        durable in any::<bool>(),
        (id, key, value) in (any::<u64>(), any::<u64>(), any::<u64>()),
        count in 0u32..MAX_SCAN + 1,
    ) {
        let req = request(kind, durable, id, key, value, count);
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        prop_assert_eq!(decode_request(&buf), Ok(Some((req, buf.len()))));
        for cut in 0..buf.len() {
            prop_assert_eq!(decode_request(&buf[..cut]), Ok(None), "cut {}", cut);
        }
    }

    #[test]
    fn responses_roundtrip_and_prefixes_wait(
        kind in 0u8..6,
        id in any::<u64>(),
        // Up to MAX_SCAN pairs, and 0..=8 whole STATS rows (plus a ragged
        // tail `chunks_exact` drops).
        words in proptest::collection::vec(any::<u64>(), 0..2 * MAX_SCAN as usize + 1),
        shards in 0usize..9,
    ) {
        let words = if kind == 4 {
            &words[..words.len().min(shards * SHARD_WORDS)]
        } else {
            &words[..]
        };
        let resp = response(kind, id, words);
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        prop_assert!(buf.len() <= 4 + MAX_FRAME);
        prop_assert_eq!(decode_response(&buf), Ok(Some((resp, buf.len()))));
        // Every 7th cut keeps the quadratic prefix scan cheap on long SCANs.
        for cut in (0..buf.len()).step_by(7) {
            prop_assert_eq!(decode_response(&buf[..cut]), Ok(None), "cut {}", cut);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        tag in 0u8..8,
        ack in 0u8..3,
    ) {
        // Raw bytes: the length prefix itself is random.
        let declared = bytes.get(..4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        let req = decode_request(&bytes);
        let resp = decode_response(&bytes);
        match declared {
            None => {
                prop_assert_eq!(&req, &Ok(None));
                prop_assert_eq!(&resp, &Ok(None));
            }
            Some(n) if n as usize > MAX_FRAME => {
                prop_assert_eq!(&req, &Err(ProtoError::Oversize(n)));
                prop_assert_eq!(&resp, &Err(ProtoError::Oversize(n)));
            }
            Some(_) => {}
        }
        check_response_outcome(&bytes, resp)?;
        // The same bytes as the body of a well-framed message with a
        // plausible tag, so the field readers run and not just the framing.
        let mut body = vec![tag, ack];
        body.extend_from_slice(&bytes);
        let buf = frame(&body);
        if let Ok(Some((_, used))) = decode_request(&buf) {
            prop_assert_eq!(used, buf.len());
        }
        let resp = decode_response(&buf);
        check_response_outcome(&buf, resp)?;
    }

    /// A SCAN reply or STATS frame whose declared count is a lie: refused
    /// by the count when it is over the bound, by the missing bytes when it
    /// is not — never by trying to allocate for it.
    #[test]
    fn hostile_counts_are_refused(n in any::<u32>(), near in 0u32..2 * MAX_STATS_SHARDS) {
        // `near` straddles both bounds; `n` covers the rest of the domain.
        for n in [n, near] {
            let mut pairs = Vec::new();
            encode_response(&Response::Pairs { id: 1, pairs: Vec::new() }, &mut pairs);
            // [len u32][status u8][id u64][count u32]
            pairs[13..17].copy_from_slice(&n.to_le_bytes());
            let want = match n {
                0 => Ok(Some((Response::Pairs { id: 1, pairs: Vec::new() }, pairs.len()))),
                n if n <= MAX_SCAN => Err(ProtoError::Truncated),
                n => Err(ProtoError::BadScan(n)),
            };
            prop_assert_eq!(decode_response(&pairs), want);

            let mut stats = Vec::new();
            let empty = Response::Stats { id: 1, stats: WireStats::default() };
            encode_response(&empty, &mut stats);
            // [len u32][status u8][id u64][epoch u64][loss_bound u64][count u32]
            stats[29..33].copy_from_slice(&n.to_le_bytes());
            let want = match n {
                0 => Ok(Some((empty, stats.len()))),
                n if n <= MAX_STATS_SHARDS => Err(ProtoError::Truncated),
                n => Err(ProtoError::BadScan(n)),
            };
            prop_assert_eq!(decode_response(&stats), want);
        }
    }
}
