//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the BCS-MPI reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution;
//! * [`Sim`] — a single-threaded discrete-event engine whose event queue is
//!   ordered by `(time, sequence-number)` and therefore **fully
//!   deterministic**: two runs with the same inputs produce identical event
//!   interleavings and identical virtual-time results;
//! * [`vm::VmHarness`] — the stackless process harness: each simulated
//!   application process is an `async` state machine stepped in place on
//!   the simulator thread, exchanging requests and responses with it in
//!   strict lock-step, so there is never more than one runnable process
//!   and no OS thread per process;
//! * [`rng::SimRng`] — a tiny, self-contained, splittable PRNG
//!   (splitmix64/xoshiro256**) whose stream is stable forever, independent of
//!   external crate versions;
//! * [`stats`] — counters and fixed-bucket histograms used by the measurement
//!   harness.
//!
//! The engine knows nothing about networks or MPI; higher layers (`qsnet`,
//! `bcs-core`, `bcs-mpi`, `quadrics-mpi`) supply the world state `W` and the
//! event closures.

pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod vm;

pub use vm::{ProcId, ProcYield, VmChannel, VmHarness};
pub use rng::SimRng;
pub use sim::Sim;
pub use time::{SimDuration, SimTime};
