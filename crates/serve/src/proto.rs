//! The wire protocol: small length-prefixed binary frames.
//!
//! Every frame is `[len: u32 LE][body: len bytes]` with `len ≤`
//! [`MAX_FRAME`]. Request bodies start with a verb byte and an ack byte;
//! responses start with a status byte. Both carry the caller's 64-bit
//! request id, so responses may be delivered out of order (durable acks
//! overtake nothing — they are *released later* than buffered acks for the
//! same batch — but buffered responses to later requests may pass them).
//!
//! ## Ack levels
//!
//! The ack byte selects what an update's response *means* — the wire-level
//! form of Montage-style buffered durable linearizability, where clients
//! choose their sync points:
//!
//! * **buffered** (0): the response is sent as soon as the operation has
//!   been applied by its shard's combiner. On a crash, up to the store's
//!   `N·(ε + β − 1)` most recent buffered-acked updates may be lost.
//! * **durable** (1): the response is withheld until the shard's
//!   crash-survivability watermark covers the operation's `completedTail`.
//!   A durable-acked update is never lost.
//!
//! Reads (`GET`/`SCAN`) ignore the ack byte: they never enter the log, so
//! there is nothing to make durable.

/// Largest frame either side will accept (guards allocation on decode).
pub const MAX_FRAME: usize = 64 * 1024;
/// Largest number of keys one `SCAN` may cover.
pub const MAX_SCAN: u32 = 512;

/// Acknowledgment level carried by update requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckLevel {
    /// Ack once applied (volatile); crash may lose the op within the bound.
    Buffered,
    /// Ack once crash-survivable; never lost.
    Durable,
}

/// Administrative sub-commands (the `ADMIN` verb).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminCmd {
    /// Return a [`WireStats`] snapshot of the store.
    Stats,
    /// Simulate a power failure and recover (crash-sim servers only).
    Crash,
    /// Drain every queue, force a final checkpoint, and stop the server.
    Shutdown,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point read.
    Get {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// Key to read.
        key: u64,
    },
    /// Insert or overwrite.
    Put {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// Ack level (see module docs).
        ack: AckLevel,
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Remove a key.
    Delete {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// Ack level (see module docs).
        ack: AckLevel,
        /// Key to remove.
        key: u64,
    },
    /// Multi-point read of `count` consecutive keys starting at `start`
    /// (server-side multi-GET; not an ordered range scan — the underlying
    /// map is a hash map).
    Scan {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// First key.
        start: u64,
        /// Number of consecutive keys (≤ [`MAX_SCAN`]).
        count: u32,
    },
    /// Administrative command.
    Admin {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The sub-command.
        cmd: AdminCmd,
    },
}

impl Request {
    /// The caller-chosen request id.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Get { id, .. }
            | Request::Put { id, .. }
            | Request::Delete { id, .. }
            | Request::Scan { id, .. }
            | Request::Admin { id, .. } => id,
        }
    }
}

/// One shard's row in a [`WireStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireShard {
    /// Completed updates on this shard.
    pub completed_tail: u64,
    /// Crash-survivability watermark (ops below it survive a crash now).
    pub durable_watermark: u64,
    /// Read-fast-path misses.
    pub read_slow_paths: u64,
    /// Validated optimistic (lock-free) reads: zero RMWs, zero shared stores.
    pub read_fast_optimistic: u64,
    /// Optimistic reads that failed seqlock validation and took the lock.
    pub read_validation_failures: u64,
    /// Synchronous CLFLUSH count.
    pub clflush: u64,
    /// Asynchronous CLFLUSHOPT count.
    pub clflushopt: u64,
    /// SFENCE count.
    pub sfence: u64,
    /// Replica checkpoint flushes.
    pub checkpoints: u64,
}

/// The `ADMIN STATS` payload: the store's `StoreMetrics`, on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Recovery epoch (crashes survived).
    pub epoch: u64,
    /// Store-wide worst-case loss per crash.
    pub loss_bound: u64,
    /// Per-shard rows.
    pub shards: Vec<WireShard>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `GET` result.
    Value {
        /// Echoed request id.
        id: u64,
        /// The value, if the key was present.
        value: Option<u64>,
    },
    /// `PUT`/`DELETE`/`ADMIN CRASH`/`ADMIN SHUTDOWN` acknowledgment.
    Done {
        /// Echoed request id.
        id: u64,
    },
    /// `SCAN` result: the present keys and their values.
    Pairs {
        /// Echoed request id.
        id: u64,
        /// `(key, value)` for each present key in the scanned window.
        pairs: Vec<(u64, u64)>,
    },
    /// Backpressure: the shard's submission queue was full; retry later.
    Retry {
        /// Echoed request id.
        id: u64,
    },
    /// `ADMIN STATS` result.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The snapshot.
        stats: WireStats,
    },
    /// Request failed (see [`err_code`] constants).
    Err {
        /// Echoed request id.
        id: u64,
        /// Error code.
        code: u8,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match *self {
            Response::Value { id, .. }
            | Response::Done { id }
            | Response::Pairs { id, .. }
            | Response::Retry { id }
            | Response::Stats { id, .. }
            | Response::Err { id, .. } => id,
        }
    }
}

/// Error codes carried by [`Response::Err`].
pub mod err_code {
    /// The server was built without crash simulation; `ADMIN CRASH` is
    /// unavailable.
    pub const NO_CRASH_SIM: u8 = 1;
    /// The request was malformed (bad verb/ack/scan bounds).
    pub const BAD_REQUEST: u8 = 2;
    /// The server is shutting down and no longer accepts requests.
    pub const SHUTTING_DOWN: u8 = 3;
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Declared frame length exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// Frame body was shorter than its fields require.
    Truncated,
    /// Unknown verb / status byte.
    BadTag(u8),
    /// Unknown ack level.
    BadAck(u8),
    /// `SCAN` count exceeds [`MAX_SCAN`].
    BadScan(u32),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProtoError::Oversize(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown verb/status byte {t}"),
            ProtoError::BadAck(a) => write!(f, "unknown ack level {a}"),
            ProtoError::BadScan(n) => write!(f, "scan of {n} keys exceeds MAX_SCAN"),
        }
    }
}

impl std::error::Error for ProtoError {}

const VERB_GET: u8 = 1;
const VERB_PUT: u8 = 2;
const VERB_DELETE: u8 = 3;
const VERB_SCAN: u8 = 4;
const VERB_ADMIN: u8 = 5;

const ADMIN_STATS: u8 = 1;
const ADMIN_CRASH: u8 = 2;
const ADMIN_SHUTDOWN: u8 = 3;

const ST_VALUE: u8 = 1;
const ST_DONE: u8 = 2;
const ST_PAIRS: u8 = 3;
const ST_RETRY: u8 = 4;
const ST_STATS: u8 = 5;
const ST_ERR: u8 = 6;

fn ack_byte(a: AckLevel) -> u8 {
    match a {
        AckLevel::Buffered => 0,
        AckLevel::Durable => 1,
    }
}

fn parse_ack(b: u8) -> Result<AckLevel, ProtoError> {
    match b {
        0 => Ok(AckLevel::Buffered),
        1 => Ok(AckLevel::Durable),
        other => Err(ProtoError::BadAck(other)),
    }
}

/// A cursor over a frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.pos).ok_or(ProtoError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self.pos + 4;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtoError::Truncated)?
            .try_into()
            .expect("4-byte slice");
        self.pos = end;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtoError::Truncated)?
            .try_into()
            .expect("8-byte slice");
        self.pos = end;
        Ok(u64::from_le_bytes(bytes))
    }
}

/// Appends one encoded frame (length prefix included) to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    match *req {
        Request::Get { id, key } => {
            out.push(VERB_GET);
            out.push(0);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Put {
            id,
            ack,
            key,
            value,
        } => {
            out.push(VERB_PUT);
            out.push(ack_byte(ack));
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        Request::Delete { id, ack, key } => {
            out.push(VERB_DELETE);
            out.push(ack_byte(ack));
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Scan { id, start, count } => {
            out.push(VERB_SCAN);
            out.push(0);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        Request::Admin { id, cmd } => {
            out.push(VERB_ADMIN);
            out.push(0);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(match cmd {
                AdminCmd::Stats => ADMIN_STATS,
                AdminCmd::Crash => ADMIN_CRASH,
                AdminCmd::Shutdown => ADMIN_SHUTDOWN,
            });
        }
    }
    end_frame(out, at);
}

/// Appends one encoded response frame (length prefix included) to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    match *resp {
        Response::Value { id, value } => {
            out.push(ST_VALUE);
            out.extend_from_slice(&id.to_le_bytes());
            match value {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                None => out.push(0),
            }
        }
        Response::Done { id } => {
            out.push(ST_DONE);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Pairs { id, ref pairs } => {
            out.push(ST_PAIRS);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for &(k, v) in pairs {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Retry { id } => {
            out.push(ST_RETRY);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Stats { id, ref stats } => {
            out.push(ST_STATS);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&stats.epoch.to_le_bytes());
            out.extend_from_slice(&stats.loss_bound.to_le_bytes());
            out.extend_from_slice(&(stats.shards.len() as u32).to_le_bytes());
            for s in &stats.shards {
                for field in [
                    s.completed_tail,
                    s.durable_watermark,
                    s.read_slow_paths,
                    s.read_fast_optimistic,
                    s.read_validation_failures,
                    s.clflush,
                    s.clflushopt,
                    s.sfence,
                    s.checkpoints,
                ] {
                    out.extend_from_slice(&field.to_le_bytes());
                }
            }
        }
        Response::Err { id, code } => {
            out.push(ST_ERR);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(code);
        }
    }
    end_frame(out, at);
}

/// Reserves the length prefix; returns its offset for [`end_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    at
}

/// Back-patches the length prefix reserved by [`begin_frame`].
fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Splits one frame body off `buf`, if a full frame has arrived.
///
/// Returns `Ok(None)` when more bytes are needed, `Ok(Some((body, total)))`
/// with the body slice and the total bytes consumed (prefix + body)
/// otherwise.
fn frame_body(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice"));
    if len as usize > MAX_FRAME {
        return Err(ProtoError::Oversize(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[4..total], total)))
}

/// Decodes the next request frame from `buf`.
///
/// Returns `Ok(None)` if `buf` does not yet hold a complete frame;
/// otherwise the request and the number of bytes consumed.
pub fn decode_request(buf: &[u8]) -> Result<Option<(Request, usize)>, ProtoError> {
    let Some((body, total)) = frame_body(buf)? else {
        return Ok(None);
    };
    let mut r = Reader::new(body);
    let verb = r.u8()?;
    let ack = r.u8()?;
    let id = r.u64()?;
    let req = match verb {
        VERB_GET => Request::Get { id, key: r.u64()? },
        VERB_PUT => Request::Put {
            id,
            ack: parse_ack(ack)?,
            key: r.u64()?,
            value: r.u64()?,
        },
        VERB_DELETE => Request::Delete {
            id,
            ack: parse_ack(ack)?,
            key: r.u64()?,
        },
        VERB_SCAN => {
            let start = r.u64()?;
            let count = r.u32()?;
            if count > MAX_SCAN {
                return Err(ProtoError::BadScan(count));
            }
            Request::Scan { id, start, count }
        }
        VERB_ADMIN => Request::Admin {
            id,
            cmd: match r.u8()? {
                ADMIN_STATS => AdminCmd::Stats,
                ADMIN_CRASH => AdminCmd::Crash,
                ADMIN_SHUTDOWN => AdminCmd::Shutdown,
                other => return Err(ProtoError::BadTag(other)),
            },
        },
        other => return Err(ProtoError::BadTag(other)),
    };
    Ok(Some((req, total)))
}

/// Decodes the next response frame from `buf` (see [`decode_request`]).
pub fn decode_response(buf: &[u8]) -> Result<Option<(Response, usize)>, ProtoError> {
    let Some((body, total)) = frame_body(buf)? else {
        return Ok(None);
    };
    let mut r = Reader::new(body);
    let status = r.u8()?;
    let id = r.u64()?;
    let resp = match status {
        ST_VALUE => Response::Value {
            id,
            value: match r.u8()? {
                0 => None,
                _ => Some(r.u64()?),
            },
        },
        ST_DONE => Response::Done { id },
        ST_PAIRS => {
            let n = r.u32()? as usize;
            if n > MAX_SCAN as usize {
                return Err(ProtoError::BadScan(n as u32));
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.u64()?, r.u64()?));
            }
            Response::Pairs { id, pairs }
        }
        ST_RETRY => Response::Retry { id },
        ST_STATS => {
            let epoch = r.u64()?;
            let loss_bound = r.u64()?;
            let n = r.u32()? as usize;
            if n > 4096 {
                return Err(ProtoError::BadScan(n as u32));
            }
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                shards.push(WireShard {
                    completed_tail: r.u64()?,
                    durable_watermark: r.u64()?,
                    read_slow_paths: r.u64()?,
                    read_fast_optimistic: r.u64()?,
                    read_validation_failures: r.u64()?,
                    clflush: r.u64()?,
                    clflushopt: r.u64()?,
                    sfence: r.u64()?,
                    checkpoints: r.u64()?,
                });
            }
            Response::Stats {
                id,
                stats: WireStats {
                    epoch,
                    loss_bound,
                    shards,
                },
            }
        }
        ST_ERR => Response::Err { id, code: r.u8()? },
        other => return Err(ProtoError::BadTag(other)),
    };
    Ok(Some((resp, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let (got, used) = decode_request(&buf).unwrap().expect("complete frame");
        assert_eq!(got, req);
        assert_eq!(used, buf.len());
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        let (got, used) = decode_response(&buf).unwrap().expect("complete frame");
        assert_eq!(got, resp);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Get { id: 7, key: 42 });
        roundtrip_req(Request::Put {
            id: u64::MAX,
            ack: AckLevel::Durable,
            key: 1,
            value: 2,
        });
        roundtrip_req(Request::Put {
            id: 0,
            ack: AckLevel::Buffered,
            key: u64::MAX,
            value: 0,
        });
        roundtrip_req(Request::Delete {
            id: 3,
            ack: AckLevel::Durable,
            key: 9,
        });
        roundtrip_req(Request::Scan {
            id: 4,
            start: 100,
            count: MAX_SCAN,
        });
        for cmd in [AdminCmd::Stats, AdminCmd::Crash, AdminCmd::Shutdown] {
            roundtrip_req(Request::Admin { id: 5, cmd });
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Value {
            id: 1,
            value: Some(99),
        });
        roundtrip_resp(Response::Value { id: 2, value: None });
        roundtrip_resp(Response::Done { id: 3 });
        roundtrip_resp(Response::Pairs {
            id: 4,
            pairs: vec![(1, 10), (2, 20), (u64::MAX, 0)],
        });
        roundtrip_resp(Response::Retry { id: 5 });
        roundtrip_resp(Response::Err {
            id: 6,
            code: err_code::NO_CRASH_SIM,
        });
        roundtrip_resp(Response::Stats {
            id: 7,
            stats: WireStats {
                epoch: 2,
                loss_bound: 64,
                shards: vec![
                    WireShard {
                        completed_tail: 10,
                        durable_watermark: 8,
                        read_slow_paths: 1,
                        read_fast_optimistic: 11,
                        read_validation_failures: 6,
                        clflush: 2,
                        clflushopt: 3,
                        sfence: 4,
                        checkpoints: 5,
                    },
                    WireShard::default(),
                ],
            },
        });
    }

    #[test]
    fn partial_frames_return_none() {
        let mut buf = Vec::new();
        encode_request(&Request::Get { id: 1, key: 2 }, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_request(&buf[..cut]).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut buf = Vec::new();
        encode_request(&Request::Get { id: 1, key: 2 }, &mut buf);
        encode_request(
            &Request::Put {
                id: 2,
                ack: AckLevel::Durable,
                key: 3,
                value: 4,
            },
            &mut buf,
        );
        let (first, used) = decode_request(&buf).unwrap().unwrap();
        assert_eq!(first.id(), 1);
        let (second, used2) = decode_request(&buf[used..]).unwrap().unwrap();
        assert_eq!(second.id(), 2);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Oversize declared length.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(matches!(
            decode_request(&huge),
            Err(ProtoError::Oversize(_))
        ));
        // Unknown verb.
        let mut buf = Vec::new();
        encode_request(&Request::Get { id: 1, key: 2 }, &mut buf);
        buf[4] = 99;
        assert!(matches!(decode_request(&buf), Err(ProtoError::BadTag(99))));
        // Bad ack on a PUT.
        let mut buf = Vec::new();
        encode_request(
            &Request::Put {
                id: 1,
                ack: AckLevel::Buffered,
                key: 2,
                value: 3,
            },
            &mut buf,
        );
        buf[5] = 7;
        assert!(matches!(decode_request(&buf), Err(ProtoError::BadAck(7))));
        // Truncated body: declared length longer than the GET payload.
        let mut buf = Vec::new();
        encode_request(&Request::Get { id: 1, key: 2 }, &mut buf);
        let len = buf.len();
        buf[0..4].copy_from_slice(&((len as u32 - 4 + 8).to_le_bytes()));
        buf.extend_from_slice(&[0; 8]);
        // Now the body is 8 bytes longer than GET needs — fine to decode —
        // but chop fields instead: declare 5 bytes and give 5.
        let short = [5u8, 0, 0, 0, VERB_GET, 0, 1, 0, 0];
        assert!(matches!(decode_request(&short), Err(ProtoError::Truncated)));
        // Scan over the cap.
        let mut buf = Vec::new();
        let at = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.push(VERB_SCAN);
        buf.push(0);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(MAX_SCAN + 1).to_le_bytes());
        let len = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(decode_request(&buf), Err(ProtoError::BadScan(_))));
    }
}
