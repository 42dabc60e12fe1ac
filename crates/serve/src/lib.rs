//! # prep-serve — a network KV service over the sharded PREP-UC store
//!
//! This crate turns [`prep_shard::ShardedStore`] into something a latency
//! benchmark can actually shoot at: a TCP server speaking a small
//! length-prefixed binary protocol ([`proto`]) with per-request ack levels
//! (*buffered* — acked once applied; *durable* — acked once the covering
//! persist reaches NVM), explicit backpressure (`RETRY` frames instead of
//! unbounded buffering), an `ADMIN` verb for stats / crash injection /
//! shutdown, and a drain path shared between `ADMIN SHUTDOWN` and
//! SIGTERM/SIGINT ([`signals`]).
//!
//! The interesting part is the [`server`]'s run-to-completion design:
//! every connection thread is an NR worker on every shard and executes
//! each request on the thread that read it — concurrent requests to one
//! shard meet in the flat combiner's round, with no queue or executor tier
//! in between — and the conn thread that ran a durable op holds its ack,
//! serving its other sockets meanwhile, until the shard's
//! crash-survivability watermark passes the op's covering `completedTail`
//! and the persistence thread's checkpoint listener wakes it. See the
//! [`server`] module docs for the full choreography (including
//! crash-under-load and graceful shutdown).

#![allow(
    unsafe_code,
    reason = "`poll(2)`, `eventfd(2)` and the signal handler are FFI calls into libc"
)]
#![warn(missing_docs)]

mod poll;
pub mod proto;
pub mod server;
pub mod signals;

pub use proto::{AckLevel, AdminCmd, Request, Response, WireShard, WireStats};
pub use server::{ServeConfig, Server, ShutdownReport, Store};
