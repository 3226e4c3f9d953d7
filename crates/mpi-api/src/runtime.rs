//! The cluster runtime: engine trait, world, and job driver.
//!
//! One simulation = one [`ClusterWorld`] (the engine plus the rank harness)
//! driven by one [`simcore::Sim`]. Each rank is a stackless state machine
//! ([`simcore::VmHarness`]) booted from a [`RankProgram`] and stepped in
//! place by the drain loop. No OS threads, no per-rank stacks: n = 4096
//! ranks cost 4096 heap-allocated futures, so job size is bounded by
//! memory, not by the host's thread limit.
//!
//! Entry points: [`run_program`], [`run_program_opts`] (virtual-time
//! horizon), [`run_program_hooked`] (setup hook, non-panicking outcome) and
//! [`resume_program`] (restart from a checkpoint image).
//!
//! Every [`MpiCall`] a rank issues is dispatched to the engine, which
//! completes it immediately or later by scheduling a resume. The drain loop
//! is the one subtle piece: resuming a rank yields its next call, which the
//! engine may answer immediately, which resumes the rank again, and so on.
//! Completions therefore go through a queue ([`ClusterWorld::resume`])
//! drained at the top level ([`drain`]) rather than recursing.

use crate::call::{MpiCall, MpiResp};
use crate::ctx::{AsyncMpi, RankProgram};
use qsnet::NodeId;
use simcore::{ProcId, ProcYield, Sim, SimDuration, SimTime, VmChannel, VmHarness};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Placement of an MPI job on the simulated cluster.
#[derive(Clone, Debug)]
pub struct JobLayout {
    /// Number of compute nodes (the management node, if the engine uses one,
    /// is extra).
    pub compute_nodes: usize,
    /// Processors per node (the paper's cluster has two P-III per node).
    pub cpus_per_node: usize,
    /// Number of MPI ranks; ranks are block-distributed
    /// (`node = rank / cpus_per_node`).
    pub ranks: usize,
}

impl JobLayout {
    pub fn new(compute_nodes: usize, cpus_per_node: usize, ranks: usize) -> JobLayout {
        assert!(ranks >= 1, "job needs at least one rank");
        assert!(
            ranks <= compute_nodes * cpus_per_node,
            "{ranks} ranks do not fit on {compute_nodes} nodes x {cpus_per_node} cpus"
        );
        JobLayout {
            compute_nodes,
            cpus_per_node,
            ranks,
        }
    }

    /// The crescendo cluster of the paper: 32 compute nodes, 2 CPUs each.
    pub fn crescendo(ranks: usize) -> JobLayout {
        JobLayout::new(32, 2, ranks)
    }

    /// Compute node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        NodeId(rank / self.cpus_per_node)
    }

    /// Number of nodes actually occupied by the job.
    pub fn nodes_used(&self) -> usize {
        self.ranks.div_ceil(self.cpus_per_node)
    }

    /// Ranks hosted on `node`, in rank order.
    pub fn ranks_on(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        let lo = node.0 * self.cpus_per_node;
        (lo..(lo + self.cpus_per_node).min(self.ranks)).filter(move |_| lo < self.ranks)
    }
}

/// An MPI implementation: interprets [`MpiCall`]s over a simulated cluster.
pub trait Engine: Sized + 'static {
    /// Start protocol machinery (strobe loops, daemons) before any rank runs.
    fn bootstrap(w: &mut ClusterWorld<Self>, sim: &mut Sim<ClusterWorld<Self>>);

    /// Handle one call from `rank`. The engine must eventually complete it
    /// via [`ClusterWorld::resume`] (directly or from a scheduled event).
    fn on_call(
        w: &mut ClusterWorld<Self>,
        sim: &mut Sim<ClusterWorld<Self>>,
        rank: usize,
        call: MpiCall,
    );

    /// Notification that `rank`'s program returned.
    fn on_finished(
        _w: &mut ClusterWorld<Self>,
        _sim: &mut Sim<ClusterWorld<Self>>,
        _rank: usize,
    ) {
    }

    /// Diagnostic dump of in-flight state, used in deadlock reports.
    fn describe_pending(&self) -> String {
        String::new()
    }

    /// True when the machine has declared itself failed and the run should
    /// stop (e.g. a node death detected by the heartbeat monitor). Checked
    /// by the driver after every event.
    fn halted(_w: &ClusterWorld<Self>) -> bool {
        false
    }
}

/// Which rank-execution substrate a job runs on. The stackless VM is the
/// only one; the type survives, with its single variant, because the
/// repository benchmark (`perfbench/src/workloads.rs`) names it in its
/// calls to [`run_program_hooked`], whose signature it pins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Stackless state-machine ranks; scales to thousands of ranks.
    #[default]
    Vm,
}

/// In-flight state of one rank's [`MpiCall::Batch`]: the sub-calls not yet
/// issued to the engine and the responses accumulated so far. The runtime
/// feeds sub-call *i+1* to the engine at the exact virtual instant sub-call
/// *i*'s response arrives — which is when an unbatched rank would have
/// issued it — so batching changes harness traffic, never virtual timing.
#[derive(Clone, Debug)]
pub struct BatchState {
    /// Sub-calls still to be issued, in order.
    pub queue: VecDeque<MpiCall>,
    /// Engine responses collected so far, in issue order.
    pub resps: Vec<MpiResp>,
}

/// The simulation world: engine + rank harness + completion queue.
pub struct ClusterWorld<E: Engine> {
    pub engine: E,
    pub layout: JobLayout,
    harness: VmHarness<MpiCall, MpiResp>,
    pending: VecDeque<(usize, MpiResp)>,
    pub finished: usize,
    finish_times: Vec<Option<SimTime>>,
    draining: bool,
    /// Per-rank in-flight batch (see [`BatchState`]); `None` when the rank
    /// is not inside a [`MpiCall::Batch`].
    batches: Vec<Option<BatchState>>,
    /// What each unfinished rank is currently parked in: the op name of the
    /// call last issued to the engine on its behalf and the virtual instant
    /// it was issued. Pure diagnostic state — at n = 4096 a deadlock report
    /// that does not name the stuck calls is undebuggable.
    pending_call: Vec<Option<(&'static str, SimTime)>>,
    /// Scheduled-but-undelivered completions ([`resume_at`]), keyed by a
    /// monotone id so iteration order equals scheduling order. Tracked in
    /// the world (not closures) so checkpoints can capture them.
    pending_resumes: BTreeMap<u64, (SimTime, usize, MpiResp)>,
    next_resume_id: u64,
    /// When set, every response delivered to a rank is appended to
    /// `resp_log` — the raw material of deterministic replay.
    record_resps: bool,
    resp_log: Vec<RespLog>,
}

/// One rank's response history, chunked for incremental checkpointing.
///
/// Capturing a [`RuntimeImage`] seals the growing tail into an immutable,
/// reference-counted chunk shared between the live log and every image
/// that contains it — so a capture copies only the responses delivered
/// since the previous capture, not the whole history since program start.
#[derive(Clone, Debug, Default)]
pub struct RespLog {
    /// Sealed history, oldest first. Never mutated once sealed.
    sealed: Vec<Arc<Vec<MpiResp>>>,
    /// Responses delivered since the last seal.
    tail: Vec<MpiResp>,
}

impl RespLog {
    pub fn push(&mut self, resp: MpiResp) {
        self.tail.push(resp);
    }

    /// Seal the tail and return a structurally-shared copy of the whole
    /// log (per-chunk refcount bumps; nothing is deep-copied).
    pub fn snapshot(&mut self) -> RespLog {
        if !self.tail.is_empty() {
            self.sealed.push(Arc::new(std::mem::take(&mut self.tail)));
        }
        RespLog {
            sealed: self.sealed.clone(),
            tail: Vec::new(),
        }
    }

    /// All responses in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = &MpiResp> {
        self.sealed
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(self.tail.iter())
    }

    pub fn len(&self) -> usize {
        self.sealed.iter().map(|chunk| chunk.len()).sum::<usize>() + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Deep copy with no structural sharing: the full history flattened
    /// into a fresh unsealed log. Replays identically to the chunked
    /// original (`iter` order is the only observable).
    pub fn materialized(&self) -> RespLog {
        RespLog {
            sealed: Vec::new(),
            tail: self.iter().cloned().collect(),
        }
    }
}

impl<E: Engine> ClusterWorld<E> {
    /// World with an empty rank harness; ranks are spawned by the drivers.
    pub fn new(engine: E, layout: JobLayout) -> ClusterWorld<E> {
        let ranks = layout.ranks;
        ClusterWorld {
            engine,
            layout,
            harness: VmHarness::new(),
            pending: VecDeque::new(),
            finished: 0,
            finish_times: vec![None; ranks],
            draining: false,
            batches: (0..ranks).map(|_| None).collect(),
            pending_call: vec![None; ranks],
            pending_resumes: BTreeMap::new(),
            next_resume_id: 0,
            record_resps: false,
            resp_log: vec![RespLog::default(); ranks],
        }
    }

    /// Queue a completion for `rank`. Processed by the next [`drain`].
    pub fn resume(&mut self, rank: usize, resp: MpiResp) {
        self.pending.push_back((rank, resp));
    }

    /// True once every rank's program has returned.
    pub fn all_finished(&self) -> bool {
        self.finished == self.layout.ranks
    }

    /// Turn response recording on (required before a [`RuntimeImage`] can
    /// be captured). Must be enabled before any rank receives a response.
    pub fn set_recording(&mut self, on: bool) {
        self.record_resps = on;
    }

    pub fn recording(&self) -> bool {
        self.record_resps
    }

    /// Capture the runtime half of a checkpoint at a quiescent instant:
    /// the full per-rank response history, every scheduled-but-undelivered
    /// completion, and per-rank finish times. Together with an engine-state
    /// snapshot this is sufficient to reconstruct the whole simulation on
    /// the original (absolute) timeline — see [`resume_program`].
    ///
    /// Takes `&mut self` because capturing seals each rank's response-log
    /// tail into a shared chunk (see [`RespLog`]) — the capture's cost is
    /// proportional to the responses delivered since the last capture.
    pub fn runtime_image(&mut self, captured_at: SimTime) -> RuntimeImage {
        assert!(
            self.record_resps,
            "runtime_image requires response recording (ClusterWorld::set_recording)"
        );
        assert!(
            self.pending.is_empty(),
            "runtime_image at a non-quiescent instant: completion queue not drained"
        );
        RuntimeImage {
            resp_log: self.resp_log.iter_mut().map(|log| log.snapshot()).collect(),
            pending_resumes: self.pending_resumes.values().cloned().collect(),
            finish_times: self.finish_times.clone(),
            batches: self.batches.clone(),
            captured_at,
        }
    }
}

/// Runtime half of a restorable checkpoint (the engine half is captured by
/// the engine itself). See [`ClusterWorld::runtime_image`].
#[derive(Clone, Debug)]
pub struct RuntimeImage {
    /// Every response delivered to each rank since program start, in
    /// delivery order, structurally shared with the live log and earlier
    /// images. Replaying them reconstructs each rank's control state
    /// exactly (the call/response protocol is lock-step).
    pub resp_log: Vec<RespLog>,
    /// Completions scheduled but not yet delivered at capture, in
    /// scheduling order, with their absolute delivery times.
    pub pending_resumes: Vec<(SimTime, usize, MpiResp)>,
    /// Per-rank finish times (`Some` for ranks already done at capture).
    pub finish_times: Vec<Option<SimTime>>,
    /// Per-rank in-flight batches at capture: sub-calls not yet issued are
    /// genuinely new work on replay, while the accumulated sub-responses
    /// are folded into the eventual [`MpiResp::Batch`] (which is what the
    /// response log records).
    pub batches: Vec<Option<BatchState>>,
    /// Absolute virtual time of the capture (a slice boundary in BCS-MPI).
    pub captured_at: SimTime,
}

impl RuntimeImage {
    /// Deep copy sharing nothing with the live runtime or other images
    /// (see [`RespLog::materialized`]). The reference point incremental
    /// recovery is validated against.
    pub fn materialize(&self) -> RuntimeImage {
        let mut img = self.clone();
        img.resp_log = self.resp_log.iter().map(|l| l.materialized()).collect();
        img
    }
}

/// Hand one call to the engine, noting what the rank is now parked in (the
/// raw material of the deadlock diagnostic in [`finish_run`]).
fn issue_call<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    rank: usize,
    call: MpiCall,
) {
    w.pending_call[rank] = Some((call.op_name(), sim.now()));
    E::on_call(w, sim, rank, call);
}

/// Route one rank-yielded call: [`MpiCall::Batch`] is unpacked by the
/// runtime (the engine only ever sees ordinary calls); everything else goes
/// straight to the engine.
fn dispatch_call<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    rank: usize,
    call: MpiCall,
) {
    match call {
        MpiCall::Batch { calls } => {
            assert!(
                w.batches[rank].is_none(),
                "rank {rank} issued a batch while one is in flight"
            );
            let mut queue: VecDeque<MpiCall> = calls.into();
            let first = queue.pop_front().expect("empty MpiCall::Batch");
            assert!(
                first.is_batchable() && queue.iter().all(MpiCall::is_batchable),
                "MpiCall::Batch may contain only batchable calls (see MpiCall::is_batchable)"
            );
            let resps = Vec::with_capacity(queue.len() + 1);
            w.batches[rank] = Some(BatchState { queue, resps });
            issue_call(w, sim, rank, first);
        }
        // Every non-batch call routes straight through; spelled out so a
        // new MpiCall variant fails to compile here instead of silently
        // inheriting the unbatched path (detlint D09).
        call @ (MpiCall::Compute { .. }
        | MpiCall::Now
        | MpiCall::Send { .. }
        | MpiCall::Recv { .. }
        | MpiCall::Wait { .. }
        | MpiCall::Test { .. }
        | MpiCall::Waitall { .. }
        | MpiCall::Testall { .. }
        | MpiCall::Probe { .. }
        | MpiCall::Barrier { .. }
        | MpiCall::Bcast { .. }
        | MpiCall::Reduce { .. }
        | MpiCall::Allgatherv { .. }
        | MpiCall::CommSplit { .. }) => issue_call(w, sim, rank, call),
    }
}

/// Process queued completions until quiescent. Must be called after any
/// sequence of [`ClusterWorld::resume`] calls — scheduled engine events
/// should use [`resume_at`], which does this automatically.
pub fn drain<E: Engine>(w: &mut ClusterWorld<E>, sim: &mut Sim<ClusterWorld<E>>) {
    if w.draining {
        return; // the outer drain loop will pick up new completions
    }
    w.draining = true;
    while let Some((rank, resp)) = w.pending.pop_front() {
        // A rank inside a batch is not resumed per sub-response: the
        // response is accumulated and the next sub-call issued in its
        // place, at the same virtual instant.
        let resp = if w.batches[rank].is_some() {
            let st = w.batches[rank].as_mut().expect("checked above");
            st.resps.push(resp);
            match st.queue.pop_front() {
                Some(next) => {
                    issue_call(w, sim, rank, next);
                    continue;
                }
                None => {
                    let st = w.batches[rank].take().expect("checked above");
                    MpiResp::Batch { resps: st.resps }
                }
            }
        } else {
            resp
        };
        if w.record_resps {
            w.resp_log[rank].push(resp.clone());
        }
        let y = w.harness.resume(ProcId(rank), resp);
        match y {
            ProcYield::Request(call) => dispatch_call(w, sim, rank, call),
            ProcYield::Finished(_) => {
                w.pending_call[rank] = None;
                w.finished += 1;
                w.finish_times[rank] = Some(sim.now());
                E::on_finished(w, sim, rank);
            }
        }
    }
    w.draining = false;
}

/// Schedule `resp` to be delivered to `rank` at virtual time `at`.
///
/// The pending completion is tracked in the world (see
/// [`ClusterWorld::runtime_image`]); the scheduled event only carries its
/// id, so a checkpoint restore can re-create the exact delivery schedule.
pub fn resume_at<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    at: SimTime,
    rank: usize,
    resp: MpiResp,
) {
    let id = w.next_resume_id;
    w.next_resume_id += 1;
    w.pending_resumes.insert(id, (at, rank, resp));
    sim.schedule_at(at, move |w: &mut ClusterWorld<E>, sim| {
        if let Some((_, rank, resp)) = w.pending_resumes.remove(&id) {
            w.resume(rank, resp);
            drain(w, sim);
        }
    });
}

/// Worlds whose engine hosts a BCS cluster expose it as [`bcs_core::BcsWorld`].
impl<E> bcs_core::BcsWorld for ClusterWorld<E>
where
    E: Engine + bcs_core::BcsHost<ClusterWorld<E>>,
{
    fn bcs(&mut self) -> &mut bcs_core::BcsCluster<Self> {
        self.engine.bcs_cluster()
    }
}

/// Outcome of [`run_program`].
pub struct RunResult<R, E> {
    /// Per-rank program return values, indexed by rank.
    pub results: Vec<R>,
    /// Virtual time at which the last rank finished.
    pub elapsed: SimDuration,
    /// Per-rank finish times.
    pub finish_times: Vec<SimTime>,
    /// The engine, for stats inspection.
    pub engine: E,
    /// Total discrete events executed (simulation cost diagnostic).
    pub events: u64,
}

/// Options for [`run_program_opts`].
#[derive(Clone, Debug, Default)]
pub struct RunOpts {
    /// Abort (panic) if virtual time exceeds this bound — catches protocol
    /// livelock in tests.
    pub max_virtual: Option<SimDuration>,
}

/// Boot `program` for `rank` into the harness and run it to its first
/// yield — the one spawn path shared by [`run_program_hooked`] and
/// [`resume_program`].
fn spawn_rank<P: RankProgram>(
    harness: &mut VmHarness<MpiCall, MpiResp>,
    program: &P,
    rank: usize,
    size: usize,
) -> ProcYield<MpiCall> {
    let chan: VmChannel<MpiCall, MpiResp> = VmChannel::new();
    let mpi = AsyncMpi::new(chan.clone(), rank, size);
    let (pid, y) = harness.spawn(chan, program.boot(mpi));
    assert_eq!(pid.0, rank, "rank ids must be dense");
    y
}

/// Run `program` as an MPI job of `layout.ranks` ranks over `engine`,
/// collecting each rank's return value. Panics with a diagnostic if the job
/// deadlocks.
pub fn run_program<E, P>(engine: E, layout: JobLayout, program: P) -> RunResult<P::Out, E>
where
    E: Engine,
    P: RankProgram,
{
    run_program_opts(engine, layout, program, RunOpts::default())
}

/// [`run_program`] with explicit options.
pub fn run_program_opts<E, P>(
    engine: E,
    layout: JobLayout,
    program: P,
    opts: RunOpts,
) -> RunResult<P::Out, E>
where
    E: Engine,
    P: RankProgram,
{
    expect_complete(run_program_hooked(
        engine,
        layout,
        program,
        |_, _| {},
        opts,
        Backend::Vm,
    ))
}

/// Panicking conversion behind [`run_program_opts`].
fn expect_complete<R, E>(out: RunOutcome<R, E>) -> RunResult<R, E> {
    if !out.completed {
        panic!(
            "{}",
            out.diagnostic.as_deref().unwrap_or("MPI job did not complete")
        );
    }
    let finish_times: Vec<SimTime> = out
        .finish_times
        .iter()
        .map(|t| t.expect("finished rank must have a finish time"))
        .collect();
    RunResult {
        results: out
            .results
            .into_iter()
            .map(|r| r.expect("finished rank must have a result"))
            .collect(),
        elapsed: out.elapsed,
        finish_times,
        engine: out.engine,
        events: out.events,
    }
}

/// Outcome of [`run_program_hooked`] / [`resume_program`]: like
/// [`RunResult`] but non-panicking, so a halted run (node failure, horizon)
/// can be inspected and recovered instead of aborting the process.
pub struct RunOutcome<R, E> {
    /// True when every rank's program returned.
    pub completed: bool,
    /// Per-rank results (`None` for ranks that never finished).
    pub results: Vec<Option<R>>,
    /// Virtual time of the last finish (completed) or of the stop instant.
    pub elapsed: SimDuration,
    /// Per-rank finish times.
    pub finish_times: Vec<Option<SimTime>>,
    /// The engine, for stats/checkpoint inspection.
    pub engine: E,
    /// Total discrete events executed.
    pub events: u64,
    /// Human-readable reason when `completed` is false.
    pub diagnostic: Option<String>,
}

/// [`run_program_opts`]'s engine room, with two extra capabilities: a
/// `setup` hook that runs after `bootstrap` but before any rank executes
/// (fault injection, monitors, response recording), and a non-panicking
/// outcome — the run also stops when [`Engine::halted`] turns true.
pub fn run_program_hooked<E, P, S>(
    engine: E,
    layout: JobLayout,
    program: P,
    setup: S,
    opts: RunOpts,
    backend: Backend,
) -> RunOutcome<P::Out, E>
where
    E: Engine,
    P: RankProgram,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
{
    let Backend::Vm = backend;
    let mut sim: Sim<ClusterWorld<E>> = Sim::new();
    if let Some(mv) = opts.max_virtual {
        sim.set_horizon(SimTime::ZERO + mv);
    }
    let mut w = ClusterWorld::new(engine, layout.clone());
    E::bootstrap(&mut w, &mut sim);
    setup(&mut w, &mut sim);

    let size = layout.ranks;
    for rank in 0..size {
        match spawn_rank(&mut w.harness, &program, rank, size) {
            ProcYield::Request(call) => dispatch_call(&mut w, &mut sim, rank, call),
            ProcYield::Finished(_) => {
                w.finished += 1;
                w.finish_times[rank] = Some(SimTime::ZERO);
            }
        }
    }
    drain(&mut w, &mut sim);

    finish_run(w, sim)
}

/// Resume a job from a checkpoint: `engine` must already be restored to the
/// image's state, `rt` is the matching [`RuntimeImage`], and `kickoff` is
/// scheduled at the capture instant to restart the protocol (in BCS-MPI,
/// the slice-boundary resume). Rank programs are re-spawned and silently
/// replayed through their recorded responses — their yielded calls are
/// discarded because every effect of those calls is already part of the
/// restored engine state — leaving each rank parked exactly where the
/// checkpoint caught it. The simulation then continues on the original
/// absolute timeline.
pub fn resume_program<E, P, S, K>(
    engine: E,
    layout: JobLayout,
    program: P,
    rt: &RuntimeImage,
    kickoff: K,
    setup: S,
    opts: RunOpts,
) -> RunOutcome<P::Out, E>
where
    E: Engine,
    P: RankProgram,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
    K: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>) + 'static,
{
    let size = layout.ranks;
    assert_eq!(rt.resp_log.len(), size, "image rank count mismatch");
    assert_eq!(rt.batches.len(), size, "image rank count mismatch");
    let mut sim: Sim<ClusterWorld<E>> = Sim::new();
    if let Some(mv) = opts.max_virtual {
        sim.set_horizon(SimTime::ZERO + mv);
    }
    let mut w = ClusterWorld::new(engine, layout.clone());
    // No bootstrap: the restored engine state already contains the
    // protocol's standing state; `kickoff` restarts its event loop.
    w.record_resps = true;
    w.resp_log = rt.resp_log.clone();
    w.batches = rt.batches.clone();

    for rank in 0..size {
        let mut y = spawn_rank(&mut w.harness, &program, rank, size);
        for resp in rt.resp_log[rank].iter() {
            match y {
                ProcYield::Request(_) => {
                    y = w.harness.resume(ProcId(rank), resp.clone())
                }
                ProcYield::Finished(_) => {
                    panic!("rank {rank} finished before its response log was exhausted")
                }
            }
        }
        match y {
            ProcYield::Request(call) => {
                // The call itself is discarded (its effects live in the
                // restored engine state), but it tells the diagnostics what
                // the rank is parked in; the capture instant stands in for
                // the original issue time.
                w.pending_call[rank] = Some((call.op_name(), rt.captured_at));
                assert!(
                    rt.finish_times[rank].is_none(),
                    "rank {rank} replay diverged from the checkpoint image"
                );
            }
            ProcYield::Finished(_) => {
                assert!(
                    rt.finish_times[rank].is_some(),
                    "rank {rank} replay diverged from the checkpoint image"
                );
                w.finished += 1;
                w.finish_times[rank] = rt.finish_times[rank];
            }
        }
    }

    // Re-create the delivery schedule (scheduling order = original issue
    // order, so same-instant events keep their relative order), then the
    // protocol kickoff at the capture instant.
    for (at, rank, resp) in &rt.pending_resumes {
        resume_at(&mut w, &mut sim, *at, *rank, resp.clone());
    }
    sim.schedule_at(rt.captured_at, move |w: &mut ClusterWorld<E>, sim| {
        kickoff(w, sim);
        drain(w, sim);
    });
    setup(&mut w, &mut sim);

    finish_run(w, sim)
}

/// Cap on per-rank lines in the deadlock diagnostic — at n = 4096 listing
/// every stuck rank would bury the report.
const STUCK_RANKS_SHOWN: usize = 16;

/// Shared tail of the drivers: run to completion/halt and collect.
fn finish_run<E, R>(mut w: ClusterWorld<E>, mut sim: Sim<ClusterWorld<E>>) -> RunOutcome<R, E>
where
    E: Engine,
    R: Send + 'static,
{
    let size = w.layout.ranks;
    let done = sim.run_until(&mut w, |w| w.all_finished() || E::halted(w));
    let completed = w.all_finished();
    let diagnostic = if completed {
        None
    } else {
        let stuck: Vec<usize> = (0..size).filter(|&r| w.finish_times[r].is_none()).collect();
        let mut lines = String::new();
        for &r in stuck.iter().take(STUCK_RANKS_SHOWN) {
            match w.pending_call[r] {
                Some((op, t)) => lines.push_str(&format!("  rank {r}: parked in {op} since t={t}\n")),
                None => lines.push_str(&format!("  rank {r}: never issued a call\n")),
            }
        }
        if stuck.len() > STUCK_RANKS_SHOWN {
            lines.push_str(&format!(
                "  … and {} more stuck ranks\n",
                stuck.len() - STUCK_RANKS_SHOWN
            ));
        }
        Some(format!(
            "MPI job did not complete at t={} ({} of {} ranks finished).\n\
             Stuck ranks:\n{lines}\
             Either the program deadlocked, a failure halted the machine, or the\n\
             virtual-time horizon was hit (run_until={done}).\n\
             Engine state:\n{}",
            sim.now(),
            w.finished,
            size,
            w.engine.describe_pending()
        ))
    };
    let elapsed = if completed {
        w.finish_times
            .iter()
            .map(|t| t.expect("finished rank must have a finish time"))
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO)
    } else {
        sim.now().since(SimTime::ZERO)
    };
    let results: Vec<Option<R>> = (0..size)
        .map(|r| w.harness.take_result::<R>(ProcId(r)))
        .collect();
    RunOutcome {
        completed,
        results,
        elapsed,
        finish_times: w.finish_times.clone(),
        engine: w.engine,
        events: sim.events_executed(),
        diagnostic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_placement() {
        let l = JobLayout::new(31, 2, 62);
        assert_eq!(l.node_of(0), NodeId(0));
        assert_eq!(l.node_of(1), NodeId(0));
        assert_eq!(l.node_of(2), NodeId(1));
        assert_eq!(l.node_of(61), NodeId(30));
        assert_eq!(l.nodes_used(), 31);
        assert_eq!(l.ranks_on(NodeId(0)).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(l.ranks_on(NodeId(30)).collect::<Vec<_>>(), vec![60, 61]);
    }

    #[test]
    fn layout_partial_last_node() {
        let l = JobLayout::new(4, 2, 5);
        assert_eq!(l.nodes_used(), 3);
        assert_eq!(l.ranks_on(NodeId(2)).collect::<Vec<_>>(), vec![4]);
        assert_eq!(l.ranks_on(NodeId(1)).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversubscribed_layout_panics() {
        JobLayout::new(2, 2, 5);
    }

    // A trivial engine: everything completes instantly except Compute,
    // which advances virtual time. Exercises the full driver machinery.
    struct NullEngine;

    impl Engine for NullEngine {
        fn bootstrap(_w: &mut ClusterWorld<Self>, _sim: &mut Sim<ClusterWorld<Self>>) {}

        fn on_call(
            w: &mut ClusterWorld<Self>,
            sim: &mut Sim<ClusterWorld<Self>>,
            rank: usize,
            call: MpiCall,
        ) {
            match call {
                MpiCall::Compute { ns } => {
                    let at = sim.now() + SimDuration::nanos(ns);
                    resume_at(w, sim, at, rank, MpiResp::Ok);
                }
                MpiCall::Now => {
                    w.resume(rank, MpiResp::Time(sim.now().as_nanos()));
                    drain(w, sim);
                }
                other => panic!("NullEngine cannot handle {}", other.op_name()),
            }
        }
    }

    #[test]
    fn run_program_collects_results_and_times() {
        let layout = JobLayout::new(4, 2, 8);
        let out = run_program(NullEngine, layout, |mut mpi: AsyncMpi| async move {
            mpi.compute(SimDuration::micros(100 * (mpi.rank() as u64 + 1)))
                .await;
            mpi.rank() * 10
        });
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(out.elapsed, SimDuration::micros(800));
        assert_eq!(
            out.finish_times[0].since(SimTime::ZERO),
            SimDuration::micros(100)
        );
        assert!(out.events > 0);
    }

    #[test]
    fn virtual_clock_visible_to_ranks() {
        let layout = JobLayout::new(1, 1, 1);
        let out = run_program(NullEngine, layout, |mut mpi: AsyncMpi| async move {
            let t0 = mpi.now().await;
            mpi.compute(SimDuration::millis(3)).await;
            let t1 = mpi.now().await;
            t1.since(t0)
        });
        assert_eq!(out.results[0], SimDuration::millis(3));
    }

    /// Rank 1 computes past the horizon.
    async fn rank1_overruns(mut mpi: AsyncMpi) {
        if mpi.rank() == 1 {
            mpi.compute(SimDuration::secs(10)).await;
        }
    }

    #[test]
    #[should_panic(expected = "did not complete")]
    fn horizon_reports_stuck_ranks() {
        let layout = JobLayout::new(1, 2, 2);
        run_program_opts(
            NullEngine,
            layout,
            rank1_overruns,
            RunOpts {
                max_virtual: Some(SimDuration::secs(1)),
            },
        );
    }

    /// The deadlock diagnostic must name each stuck rank's pending call and
    /// the virtual instant it was issued.
    #[test]
    fn diagnostic_names_stuck_ranks_and_calls() {
        let layout = JobLayout::new(1, 2, 2);
        let out = run_program_hooked(
            NullEngine,
            layout,
            rank1_overruns,
            |_, _| {},
            RunOpts {
                max_virtual: Some(SimDuration::secs(1)),
            },
            Backend::Vm,
        );
        assert!(!out.completed);
        let d = out.diagnostic.expect("incomplete run must carry a diagnostic");
        assert!(
            d.contains("rank 1: parked in compute since t="),
            "diagnostic must name the stuck call:\n{d}"
        );
        assert!(!d.contains("rank 0:"), "rank 0 finished and must not be listed:\n{d}");
    }

    /// The VM runs a rank count that one-OS-thread-per-rank execution could
    /// not: 4096 ranks cost 4096 futures, not 4096 stacks.
    #[test]
    fn vm_backend_scales_past_thread_counts() {
        let n: usize = 4096;
        let layout = JobLayout::new(n.div_ceil(2), 2, n);
        let out = run_program(NullEngine, layout, |mut mpi: AsyncMpi| async move {
            mpi.compute(SimDuration::nanos(mpi.rank() as u64 + 1)).await;
            mpi.rank()
        });
        assert_eq!(out.results.len(), n);
        assert!(out.results.iter().enumerate().all(|(i, &r)| i == r));
        assert_eq!(out.elapsed, SimDuration::nanos(n as u64));
    }
}
