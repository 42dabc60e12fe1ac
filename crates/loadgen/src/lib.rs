//! # prep-loadgen — open-loop load generation for prep-serve
//!
//! Three pieces, each deliberately small:
//!
//! * [`hist`] — an HDR-style log-bucketed latency histogram (~3% relative
//!   error, mergeable, allocation-free recording) for p50/p99/p999.
//! * [`keys`] — uniform and zipfian key-popularity samplers.
//! * [`arrivals`] — arrival processes (fixed lattice, Poisson, bursty
//!   on/off), all preserving the aggregate offered rate.
//! * [`run`] — the open-loop engine: arrival schedules derived from
//!   the offered rate, latency measured from *scheduled* send time
//!   (coordinated-omission-free), `RETRY` counted as shed load, optional
//!   crash injection with time-to-first-response measurement.
//!
//! All wall-clock access lives in [`clock`]; the rest of the crate —
//! like the server it drives — never touches `Instant` directly.

#![warn(missing_docs)]

pub mod arrivals;
pub mod clock;
pub mod hist;
pub mod keys;
pub mod run;

pub use arrivals::{Arrival, ArrivalGen};
pub use hist::LatencyHistogram;
pub use keys::{KeyMix, KeySampler};
pub use run::{CrashProbe, RunConfig, RunReport};
