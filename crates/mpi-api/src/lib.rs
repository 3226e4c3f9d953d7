#![forbid(unsafe_code)]
//! # mpi-api — the MPI-facing surface shared by both engines
//!
//! BCS-MPI (the paper's contribution, crate `bcs-mpi`) and the
//! production-style baseline (crate `quadrics-mpi`) implement the *same* MPI
//! subset over the same simulated cluster, differing only in protocol. This
//! crate holds everything they share:
//!
//! * [`datatype`] — MPI datatypes and reduction operators (with native
//!   combine used by the host-side baseline reduction);
//! * [`message`] — ranks, tags, statuses, envelope matching (including
//!   `ANY_SOURCE` / `ANY_TAG` wildcards and the non-overtaking rule);
//! * [`call`] — the request/response protocol between simulated ranks and
//!   the engine (`MpiCall` / `MpiResp`), mirroring the BCS API
//!   of the paper's Appendix A;
//! * [`ctx`] — [`ctx::AsyncMpi`], the handle rank programs use: blocking and non-blocking point-to-point, barrier/bcast/reduce/
//!   allreduce (engine primitives, NIC-level in BCS-MPI), and scatter(v)/
//!   gather(v)/allgather(v)/alltoall(v) composed on top of the primitives,
//!   exactly as Appendix A prescribes ("the rest of them are built on top
//!   of those"); plus [`ctx::RankProgram`], a rank program as data;
//! * [`runtime`] — [`runtime::Engine`] (the trait an MPI implementation
//!   provides), [`runtime::ClusterWorld`] (harness + engine world) and
//!   the job drivers: [`runtime::run_program`] and its variants step each
//!   rank as a stackless state machine, which scales to thousands of
//!   ranks.

pub mod call;
pub mod coll_sched;
pub mod comm;
pub mod ctx;
pub mod datatype;
pub mod message;
pub mod noise;
pub mod payload;
pub mod runtime;

pub use call::{MpiCall, MpiResp, ReqId};
pub use coll_sched::CollAlgo;
pub use payload::Payload;
pub use comm::{CommHandle, CommId, CommRegistry};
pub use ctx::{AsyncMpi, RankProgram};
pub use datatype::{Datatype, ReduceOp};
pub use message::{Envelope, SrcSel, Status, TagSel};
pub use runtime::{Backend, ClusterWorld, Engine, JobLayout, RunResult, run_program};
