//! Slice-boundary checkpointing of the global communication state.
//!
//! §6 of the paper: "a scheduled, deterministic communication behavior at
//! system level could provide a solid infrastructure for implementing
//! transparent fault tolerance", and §1: "the fact that the communication
//! state of all processes is known at the beginning of every time slice
//! facilitates the implementation of checkpointing and debugging
//! mechanisms."
//!
//! This module realizes that claim for the communication subsystem: at a
//! slice boundary the protocol is *quiescent* — no microphase in flight, no
//! partial matches, every in-flight transfer parked at a chunk boundary —
//! so the entire global communication state has a well-defined, serializable
//! snapshot. [`CommCheckpoint`] captures it; its digest is deterministic, so
//! two replicas (or a replay after restart) can be validated cheaply.
//!
//! Two checkpoint granularities exist:
//!
//! * [`CommCheckpoint`] — the *public, digest-friendly* view: a canonical
//!   listing of every queue, open request and collective round. Cheap to
//!   capture, cheap to compare; this is what the per-boundary digest stream
//!   in `BcsMpi::checkpoints` validates.
//! * [`CheckpointImage`] — a *restorable* snapshot (`cfg.checkpoint_images`).
//!   Its on-disk-equivalent format spans four layers, all captured at the
//!   same quiescent boundary instant:
//!
//!   | layer      | contents                                                |
//!   |------------|---------------------------------------------------------|
//!   | fabric     | per-NIC port next-free times, stats, bulk DMA sequence  |
//!   | primitives | every node's global words + pending event counts        |
//!   | engine     | NIC FIFOs (posted/exchanging sends, posted recvs,       |
//!   |            | unmatched remote sends), match lists with chunk budgets |
//!   |            | and moved-byte counts, parked payloads, open requests,  |
//!   |            | blocked ranks + restart queue, collective rounds &      |
//!   |            | counters, communicator registry, per-slice budgets,     |
//!   |            | noise RNG positions, gang state, stats/trace streams,   |
//!   |            | id allocators                                           |
//!   | runtime    | per-rank response logs + scheduled-but-undelivered      |
//!   |            | completions ([`mpi_api::runtime::RuntimeImage`])        |
//!
//!   Restoring builds a fresh engine from the image and *replays* each rank
//!   program through its recorded responses (process memory is exactly a
//!   function of the responses delivered so far, so the replay is the
//!   simulation analogue of the NM's process-memory snapshot), then resumes
//!   the strobe loop at the captured boundary on the original absolute
//!   timeline.
//!
//! Capture is only legal at a slice boundary: no microphase in flight, no
//! event waiter parked, no undelivered completion in the runtime queue —
//! `capture_image` asserts all of it.

use crate::engine::{BW, BcsConfig, BcsMpi};
use mpi_api::runtime::{JobLayout, RuntimeImage};
use simcore::SimTime;

/// Snapshot of one in-flight (chunked) transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InflightEntry {
    pub msg: u64,
    pub src_rank: usize,
    pub dst_rank: usize,
    pub total: u64,
    pub moved: u64,
}

/// Snapshot of one node's NIC queues.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct NodeCheckpoint {
    /// Send descriptors awaiting exchange (msg id, dst rank, bytes).
    pub pending_sends: Vec<(u64, usize, usize)>,
    /// Posted receive descriptors (request id, dst rank).
    pub pending_recvs: Vec<(u64, usize)>,
    /// Remote send descriptors awaiting a match (msg id, src rank).
    pub unmatched: Vec<(u64, usize)>,
    /// Chunked transfers in progress.
    pub inflight: Vec<InflightEntry>,
}

/// The global communication state at a slice boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommCheckpoint {
    /// Slice number about to start.
    pub slice: u64,
    pub nodes: Vec<NodeCheckpoint>,
    /// Requests still open: (id, owner, complete).
    pub open_requests: Vec<(u64, usize, bool)>,
    /// Ranks currently suspended by the NM.
    pub suspended_ranks: Vec<usize>,
    /// Collective rounds in progress: (slot, round, arrived).
    pub open_collectives: Vec<(usize, u64, usize)>,
}

impl CommCheckpoint {
    /// A cheap, deterministic digest (FNV-1a over the canonical encoding),
    /// suitable for cross-replica validation.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(self.slice);
        for (i, n) in self.nodes.iter().enumerate() {
            mix(i as u64 ^ 0x1111);
            for &(m, d, b) in &n.pending_sends {
                mix(m);
                mix(d as u64);
                mix(b as u64);
            }
            for &(r, d) in &n.pending_recvs {
                mix(r ^ 0x2222);
                mix(d as u64);
            }
            for &(m, s) in &n.unmatched {
                mix(m ^ 0x3333);
                mix(s as u64);
            }
            for e in &n.inflight {
                mix(e.msg ^ 0x4444);
                mix(e.moved);
                mix(e.total);
            }
        }
        for &(id, owner, complete) in &self.open_requests {
            mix(id ^ 0x5555);
            mix(owner as u64);
            mix(complete as u64);
        }
        for &r in &self.suspended_ranks {
            mix(r as u64 ^ 0x6666);
        }
        for &(slot, round, arrived) in &self.open_collectives {
            mix(slot as u64 ^ 0x7777);
            mix(round);
            mix(arrived as u64);
        }
        h
    }

    /// Total bytes still to be moved by in-flight transfers.
    pub fn inflight_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| &n.inflight)
            .map(|e| e.total - e.moved)
            .sum()
    }
}

/// A restorable snapshot of the whole machine at one slice boundary: the
/// engine's full state (private), the control-memory words, the fabric
/// port clocks, and the runtime's replay log. See the module docs for the
/// format.
#[derive(Clone)]
pub struct CheckpointImage {
    /// Slice number about to start when the image was captured.
    pub slice: u64,
    /// Absolute virtual time of the boundary.
    pub captured_at: SimTime,
    /// Digest of the matching [`CommCheckpoint`] (cross-validation).
    pub digest: u64,
    /// Runtime layer: response logs + pending completions.
    pub rt: RuntimeImage,
    eng: EngineSnap,
}

/// Engine + primitives + fabric layers of an image (field-for-field clone
/// of the mutable engine state).
#[derive(Clone)]
struct EngineSnap {
    /// Shared with the live engine copy-on-write: capturing clones `Arc`s,
    /// and only nodes whose state changes after the capture are copied.
    nic: Vec<std::sync::Arc<crate::p2p::NicState>>,
    // Canonically ordered `Vec` copies of the live engine's hash maps,
    // named so they cannot be confused with the maps themselves.
    reqs_sorted: Vec<(mpi_api::call::ReqId, crate::engine::BcsReq)>,
    payloads_sorted: Vec<(crate::p2p::MsgId, mpi_api::payload::Payload)>,
    blocked: Vec<Option<crate::engine::Blocked>>,
    coll: crate::coll::CollState,
    comms: mpi_api::comm::CommRegistry,
    restart_queue: Vec<(usize, mpi_api::call::MpiResp)>,
    src_budget: crate::match_index::LazyBudget,
    dst_budget: crate::match_index::LazyBudget,
    noise: Option<mpi_api::noise::NoiseModel>,
    stats: crate::engine::BcsStats,
    checkpoints: Vec<(u64, u64)>,
    trace: Vec<crate::trace::SliceRecord>,
    trace_cursor: crate::trace::TraceCursor,
    gang: Option<crate::gang::GangState>,
    next_req: u64,
    next_msg: u64,
    words: bcs_core::WordsSnapshot,
    fabric: qsnet::FabricSnapshot,
}

/// Capture a full restorable image at the current (boundary) instant.
/// Called by the slice-start checkpoint hook when `cfg.checkpoint_images`.
pub(crate) fn capture_image(w: &mut BW, now: SimTime, digest: u64) -> CheckpointImage {
    assert!(
        w.recording(),
        "checkpoint_images requires response recording \
         (ClusterWorld::set_recording(true) in the run's setup hook)"
    );
    let rt = w.runtime_image(now);
    let e = &mut w.engine;
    // Sort the hash maps into a canonical order so two captures of the same
    // state produce identical images. Request and payload clones are
    // refcount bumps (`Payload` is a shared buffer), not byte copies.
    // detlint: allow(D02) — checkpoint capture: sorted by key immediately
    // below, so the image is canonical whatever the map order was.
    let mut reqs: Vec<_> = e.reqs.iter().map(|(&k, v)| (k, v.clone())).collect();
    reqs.sort_unstable_by_key(|(k, _)| *k);
    // detlint: allow(D02) — checkpoint capture: sorted by key immediately
    // below, so the image is canonical whatever the map order was.
    let mut payloads: Vec<_> = e.payloads.iter().map(|(&k, v)| (k, v.clone())).collect();
    payloads.sort_unstable_by_key(|(k, _)| *k);
    CheckpointImage {
        slice: e.slice,
        captured_at: now,
        digest,
        rt,
        eng: EngineSnap {
            nic: e.nic.clone(),
            reqs_sorted: reqs,
            payloads_sorted: payloads,
            blocked: e.blocked.clone(),
            coll: e.coll.clone(),
            comms: e.comms.clone(),
            restart_queue: e.restart_queue.clone(),
            src_budget: e.src_budget.clone(),
            dst_budget: e.dst_budget.clone(),
            noise: e.noise.clone(),
            stats: e.stats.clone(),
            checkpoints: e.checkpoints.clone(),
            trace: e.trace.clone(),
            trace_cursor: e.trace_cursor,
            gang: e.gang.clone(),
            next_req: e.next_req,
            next_msg: e.next_msg,
            words: e.bcs.snapshot_words(),
            fabric: e.bcs.fabric.snapshot(),
        },
    }
}

impl CheckpointImage {
    /// Deep-clone the image so it shares *nothing* with the live engine or
    /// other images: fresh NIC state behind fresh `Arc`s, payload bytes
    /// copied into fresh buffers, the response logs flattened, the fabric
    /// snapshot unshared. Restoring from the result must be byte-identical
    /// to restoring from `self` — the property `tests/fault_recovery.rs`
    /// checks to validate the copy-on-write capture path.
    /// Total bytes of payload data the image references (parked send
    /// payloads awaiting their receiver). Capturing shares these buffers
    /// with the live engine; [`Self::materialize`] copies them. Useful for
    /// sizing what a serialized image would occupy, and for selecting a
    /// representative image in benchmarks.
    pub fn payload_bytes(&self) -> usize {
        self.eng.payloads_sorted.iter().map(|(_, p)| p.len()).sum()
    }

    pub fn materialize(&self) -> CheckpointImage {
        let mut img = self.clone();
        img.rt = self.rt.materialize();
        img.eng.nic = self
            .eng
            .nic
            .iter()
            .map(|n| std::sync::Arc::new((**n).clone()))
            .collect();
        img.eng.payloads_sorted = self
            .eng
            .payloads_sorted
            .iter()
            .map(|(k, p)| (*k, mpi_api::payload::Payload::from(&p[..])))
            .collect();
        img.eng.fabric = self.eng.fabric.materialize();
        img
    }
}

impl BcsMpi {
    /// Rebuild an engine from a [`CheckpointImage`]: every layer of the
    /// image is restored verbatim; fault state (dead nodes, planned drops,
    /// degradations) is deliberately *not* part of an image — restore means
    /// the machine is whole again, and a fault-injection driver re-arms
    /// whatever faults remain on its plan. Pair with
    /// `mpi_api::runtime::resume_program` and
    /// [`crate::resume_from_boundary`] as the kickoff.
    pub fn restore_from_image(
        cfg: BcsConfig,
        layout: &JobLayout,
        img: &CheckpointImage,
    ) -> BcsMpi {
        let mut e = BcsMpi::new(cfg, layout);
        let s = &img.eng;
        e.slice = img.slice;
        e.phase = 0;
        e.slice_started_at = img.captured_at;
        e.nic = s.nic.clone();
        e.reqs = s.reqs_sorted.iter().cloned().collect();
        e.payloads = s.payloads_sorted.iter().cloned().collect();
        e.blocked = s.blocked.clone();
        e.coll = s.coll.clone();
        e.comms = s.comms.clone();
        e.restart_queue = s.restart_queue.clone();
        e.src_budget = s.src_budget.clone();
        e.dst_budget = s.dst_budget.clone();
        e.noise = s.noise.clone();
        e.stats = s.stats.clone();
        e.checkpoints = s.checkpoints.clone();
        e.trace = s.trace.clone();
        e.trace_cursor = s.trace_cursor;
        e.gang = s.gang.clone();
        e.next_req = s.next_req;
        e.next_msg = s.next_msg;
        e.bcs.restore_words(&s.words);
        e.bcs.fabric.restore(&s.fabric);
        e
    }

    /// Streaming equivalent of `capture_checkpoint().digest()`: folds the
    /// same canonical encoding, in the same order, directly into the FNV-1a
    /// accumulator without materializing a [`CommCheckpoint`]. The
    /// digest-only checkpoint path (`checkpoint_images: false`) uses this so
    /// a boundary digest allocates nothing per node and never touches a
    /// payload refcount — only the open-request triples are collected (for
    /// the canonical sort, they are three plain words each).
    pub fn checkpoint_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(self.slice);
        for (i, nic) in self.nic.iter().enumerate() {
            mix(i as u64 ^ 0x1111);
            for d in nic.send_posted.iter() {
                mix(d.msg.0);
                mix(d.dst_rank as u64);
                mix(d.bytes as u64);
            }
            for (_, sel, req) in nic.recv_posted.iter() {
                mix(req.0 ^ 0x2222);
                mix(sel.dst_rank as u64);
            }
            for (_, key, rs) in nic.remote_sends.iter() {
                mix(rs.msg.0 ^ 0x3333);
                mix(key.src_rank as u64);
            }
            for it in nic.inflight.iter() {
                mix(it.msg.0 ^ 0x4444);
                mix(it.moved);
                mix(it.total);
            }
        }
        let mut open_requests: Vec<(u64, usize, bool)> = self
            .reqs
            // detlint: allow(D02) — boundary snapshot: sorted immediately
            // below (`open_requests.sort_unstable()`) before use.
            .iter()
            .map(|(id, st)| (id.0, st.owner, st.complete))
            .collect();
        open_requests.sort_unstable();
        for (id, owner, complete) in open_requests {
            mix(id ^ 0x5555);
            mix(owner as u64);
            mix(complete as u64);
        }
        for r in 0..self.blocked.len() {
            if self.blocked[r].is_some() {
                mix(r as u64 ^ 0x6666);
            }
        }
        for (&(_comm, slot, round), st) in self.coll.rounds.iter() {
            mix(slot as u64 ^ 0x7777);
            mix(round);
            mix(st.arrived as u64);
        }
        h
    }

    /// Capture the communication state. Intended to be taken at a slice
    /// boundary (the engine's checkpoint hook does exactly that); the state
    /// is then guaranteed quiescent: no microphase is active and every
    /// scheduled chunk of the previous slice has completed.
    pub fn capture_checkpoint(&self) -> CommCheckpoint {
        let nodes = self
            .nic
            .iter()
            .map(|nic| NodeCheckpoint {
                pending_sends: nic
                    .send_posted
                    .iter()
                    .map(|d| (d.msg.0, d.dst_rank, d.bytes))
                    .collect(),
                pending_recvs: nic
                    .recv_posted
                    .iter()
                    .map(|(_, sel, req)| (req.0, sel.dst_rank))
                    .collect(),
                unmatched: nic
                    .remote_sends
                    .iter()
                    .map(|(_, key, rs)| (rs.msg.0, key.src_rank))
                    .collect(),
                inflight: nic
                    .inflight
                    .iter()
                    .map(|it| InflightEntry {
                        msg: it.msg.0,
                        src_rank: it.src_rank,
                        dst_rank: it.dst_rank,
                        total: it.total,
                        moved: it.moved,
                    })
                    .collect(),
            })
            .collect();
        let mut open_requests: Vec<(u64, usize, bool)> = self
            .reqs
            // detlint: allow(D02) — boundary snapshot: sorted immediately
            // below (`open_requests.sort_unstable()`) before use.
            .iter()
            .map(|(id, st)| (id.0, st.owner, st.complete))
            .collect();
        open_requests.sort_unstable();
        let suspended_ranks = (0..self.blocked.len())
            .filter(|&r| self.blocked[r].is_some())
            .collect();
        let open_collectives = self
            .coll
            .rounds
            .iter()
            .map(|(&(_comm, slot, round), st)| (slot, round, st.arrived))
            .collect();
        CommCheckpoint {
            slice: self.slice,
            nodes,
            open_requests,
            suspended_ranks,
            open_collectives,
        }
    }
}
