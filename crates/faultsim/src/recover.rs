//! The MM's crash-recovery driver: run, detect, restore, resume.
//!
//! [`run_with_recovery`] executes an MPI job as a sequence of *segments*.
//! Segment 0 is an ordinary run with the fault plan armed and the heartbeat
//! monitor installed. When the monitor declares a node dead (or a
//! data-channel transfer exhausts its retries), the machine halts; the
//! driver then restores every survivor from the last slice-boundary
//! [`CheckpointImage`], replays each rank's recorded responses to park it
//! exactly where the checkpoint caught it, and resumes the slice protocol
//! on the original absolute timeline. Crashed nodes are modeled as
//! repaired-by-reboot: the fabric restore revives them, and only crashes
//! scheduled *after* the detection instant remain armed.
//!
//! Recovery is impossible when no image exists yet or the restart budget is
//! spent; the driver then performs a clean machine-wide abort, returning a
//! [`RecoveryOutcome`] with the reason instead of panicking.

use crate::plan::{CrashEvent, FaultPlan};
use bcs_core::BcsWorld;
use bcs_mpi::{BcsConfig, BcsMpi, CheckpointImage, FailureInfo};
use mpi_api::RankProgram;
use mpi_api::runtime::{
    Backend, ClusterWorld, JobLayout, RunOpts, resume_program, run_program_hooked,
};
use qsnet::NodeId;
use simcore::{Sim, SimDuration, SimTime};
use std::rc::Rc;
use std::sync::Arc;

type W = ClusterWorld<BcsMpi>;

/// `Arc`-shared rank program: every recovery segment boots ranks from the
/// same program value without requiring `P: Clone`.
struct Shared<P>(Arc<P>);

impl<P: RankProgram> RankProgram for Shared<P> {
    type Out = P::Out;

    fn boot(
        &self,
        mpi: mpi_api::AsyncMpi,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Self::Out>>> {
        self.0.boot(mpi)
    }
}

/// Configuration of the recovery machinery around a [`BcsConfig`].
#[derive(Clone, Debug)]
pub struct RecoveryCfg {
    /// Engine configuration; must have `checkpoint_every = Some(k)` and
    /// `checkpoint_images = true` (see [`RecoveryCfg::new`]).
    pub bcs: BcsConfig,
    /// Heartbeat strobe period. Detection is bounded by two periods: a node
    /// that dies right after acking beat `b` is caught at beat `b + 2` at
    /// the latest.
    pub heartbeat_period: SimDuration,
    /// Restarts allowed before the machine aborts.
    pub max_restarts: usize,
    /// Per-segment run options (virtual-time horizon).
    pub opts: RunOpts,
}

impl RecoveryCfg {
    /// Recovery-ready configuration: enables restorable images every
    /// `checkpoint_every` slices, arms the default retry policy for the
    /// data channel, and strobes heartbeats every 4 slices.
    pub fn new(mut bcs: BcsConfig, checkpoint_every: u64) -> RecoveryCfg {
        bcs.checkpoint_every = Some(checkpoint_every);
        bcs.checkpoint_images = true;
        if bcs.retry.is_none() {
            bcs.retry = Some(bcs_core::retry::RetryPolicy::default());
        }
        RecoveryCfg {
            heartbeat_period: bcs.timeslice * 4,
            bcs,
            max_restarts: 8,
            opts: RunOpts {
                max_virtual: Some(SimDuration::secs(60)),
            },
        }
    }
}

/// One detected failure and how the machine responded.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Node declared dead.
    pub node: NodeId,
    /// Injected crash instant, when the declaration matches a planned
    /// crash (`None` for retry-exhaustion declarations against a live
    /// node, which have no single crash instant).
    pub crashed_at: Option<SimTime>,
    /// Virtual instant of the MM's declaration.
    pub detected_at: SimTime,
    /// Slice of the checkpoint the survivors were restored from (`None`
    /// when the failure ended in an abort instead).
    pub restored_from_slice: Option<u64>,
    /// Capture instant of that checkpoint (`None` on abort).
    pub restored_from_at: Option<SimTime>,
}

impl Detection {
    /// Crash-to-declaration latency, when the crash instant is known.
    pub fn latency(&self) -> Option<SimDuration> {
        self.crashed_at.map(|c| self.detected_at.since(c))
    }

    /// Virtual time the restore discards and replays: everything between
    /// the checkpoint capture and the declaration. `None` on abort.
    pub fn rework(&self) -> Option<SimDuration> {
        self.restored_from_at.map(|r| self.detected_at.since(r))
    }
}

/// Outcome of [`run_with_recovery`].
pub struct RecoveryOutcome<R> {
    /// True when every rank's program returned (possibly after restarts).
    pub completed: bool,
    /// Clean-abort reason when the machine gave up.
    pub abort: Option<String>,
    /// Per-rank results (`None` for ranks lost to an abort).
    pub results: Vec<Option<R>>,
    /// Virtual time at which the job finished or the machine stopped.
    pub elapsed: SimDuration,
    /// Number of checkpoint restores performed.
    pub restarts: usize,
    /// Every failure the MM declared, in order.
    pub detections: Vec<Detection>,
    /// The final segment's engine (stats, checkpoints, trace).
    pub engine: BcsMpi,
    /// Discrete events executed across all segments.
    pub events: u64,
}

/// Run `program` under `plan`, recovering from failures at slice-boundary
/// checkpoints. See the module docs for the segment protocol.
pub fn run_with_recovery<P>(
    cfg: &RecoveryCfg,
    layout: JobLayout,
    plan: &FaultPlan,
    program: P,
) -> RecoveryOutcome<P::Out>
where
    P: RankProgram,
{
    assert!(
        cfg.bcs.checkpoint_every.is_some() && cfg.bcs.checkpoint_images,
        "run_with_recovery requires restorable checkpoints \
         (BcsConfig::checkpoint_every + checkpoint_images; see RecoveryCfg::new)"
    );
    if !plan.drops.is_empty() {
        assert!(
            cfg.bcs.retry.is_some(),
            "a plan with data-channel drops needs BcsConfig::retry to be recoverable"
        );
    }

    let program = Arc::new(program);
    let mut detections: Vec<Detection> = Vec::new();
    let mut restarts = 0usize;
    let mut events = 0u64;
    let mut latest: Option<CheckpointImage> = None;

    // Segment 0: fresh run with the full plan armed.
    let mut outcome = {
        let prog = Shared(Arc::clone(&program));
        let plan0 = plan.clone();
        let crashes0 = plan.crashes.clone();
        let hb = cfg.heartbeat_period;
        run_program_hooked(
            BcsMpi::new(cfg.bcs.clone(), &layout),
            layout.clone(),
            prog,
            move |w: &mut W, sim: &mut Sim<W>| {
                w.set_recording(true);
                inject(w, sim, &crashes0, &plan0, hb, SimTime::ZERO);
            },
            cfg.opts.clone(),
            Backend::Vm,
        )
    };

    loop {
        events += outcome.events;
        if let Some(img) = outcome.engine.images.last() {
            latest = Some(img.clone());
        }
        if outcome.completed {
            return RecoveryOutcome {
                completed: true,
                abort: None,
                results: outcome.results,
                elapsed: outcome.elapsed,
                restarts,
                detections,
                engine: outcome.engine,
                events,
            };
        }
        let Some(fail) = outcome.engine.failed.clone() else {
            // Halted with no declared failure: deadlock or horizon. Nothing
            // a restore could fix — abort with the runtime's diagnosis.
            let why = outcome
                .diagnostic
                .clone()
                .unwrap_or_else(|| "run stopped without a declared failure".into());
            return aborted(outcome, restarts, detections, events, why);
        };
        let crashed_at = planned_crash_instant(plan, &fail);
        if restarts >= cfg.max_restarts {
            detections.push(Detection {
                node: fail.node,
                crashed_at,
                detected_at: fail.at,
                restored_from_slice: None,
                restored_from_at: None,
            });
            let why = format!(
                "restart budget exhausted: {} of {} restores used when node {} \
                 was declared dead at {} ({})",
                restarts, cfg.max_restarts, fail.node.0, fail.at, fail.reason
            );
            return aborted(outcome, restarts, detections, events, why);
        }
        let Some(img) = latest.clone() else {
            detections.push(Detection {
                node: fail.node,
                crashed_at,
                detected_at: fail.at,
                restored_from_slice: None,
                restored_from_at: None,
            });
            let why = format!(
                "no checkpoint image to restore from: node {} declared dead at {} ({})",
                fail.node.0, fail.at, fail.reason
            );
            return aborted(outcome, restarts, detections, events, why);
        };
        detections.push(Detection {
            node: fail.node,
            crashed_at,
            detected_at: fail.at,
            restored_from_slice: Some(img.slice),
            restored_from_at: Some(img.captured_at),
        });
        restarts += 1;

        // Crashes at or before the detection are repaired by the restore
        // (the fabric snapshot revives every node); later ones stay armed.
        let remaining = plan.crashes_after(fail.at);
        let engine = BcsMpi::restore_from_image(cfg.bcs.clone(), &layout, &img);
        let prog = Shared(Arc::clone(&program));
        let planr = plan.clone();
        let hb = cfg.heartbeat_period;
        let monitor_at = img.captured_at;
        outcome = resume_program(
            engine,
            layout.clone(),
            prog,
            &img.rt,
            |w: &mut W, sim: &mut Sim<W>| bcs_mpi::resume_from_boundary(w, sim),
            move |w: &mut W, sim: &mut Sim<W>| {
                inject(w, sim, &remaining, &planr, hb, monitor_at);
            },
            cfg.opts.clone(),
        );
    }
}

/// Arm a segment's faults and install the heartbeat monitor.
///
/// `monitor_at` is the instant the MM (re)installs the monitor: `ZERO` for
/// a fresh run, the checkpoint's capture instant for a resumed one — the
/// replay window before it must stay free of monitor traffic. `start_on`
/// resets the ack words at install, so restored (stale-high) ack counters
/// cannot mask a dead node.
fn inject(
    w: &mut W,
    sim: &mut Sim<W>,
    crashes: &[CrashEvent],
    plan: &FaultPlan,
    heartbeat_period: SimDuration,
    monitor_at: SimTime,
) {
    let fabric = &mut w.bcs().fabric;
    fabric.plan_drops(plan.drops.clone());
    for d in &plan.degradations {
        fabric.degrade_link(d.clone());
    }
    for c in crashes {
        let node = c.node;
        sim.schedule_at(c.at, move |w: &mut W, _sim| {
            w.bcs().fabric.kill_node(node);
        });
    }

    let compute = w.layout.compute_nodes;
    let hb_cfg = storm::heartbeat::HeartbeatConfig {
        period: heartbeat_period,
        mgmt: NodeId(compute),
        nodes: (0..compute).map(NodeId).collect(),
    };
    let on_detect: storm::heartbeat::DetectFn<W> = Rc::new(|w, sim, node, beat| {
        if w.engine.failed.is_none() {
            w.engine.failed = Some(FailureInfo {
                node,
                at: sim.now(),
                reason: format!("heartbeat: missed liveness epoch (beat {beat})"),
            });
        }
    });
    if monitor_at == SimTime::ZERO {
        storm::heartbeat::start_on(w, sim, hb_cfg, Some(on_detect));
    } else {
        sim.schedule_at(monitor_at, move |w: &mut W, sim| {
            storm::heartbeat::start_on(w, sim, hb_cfg, Some(on_detect));
        });
    }
}

/// The most recent planned crash of `fail.node` at or before the
/// declaration — the injection this detection answers.
fn planned_crash_instant(plan: &FaultPlan, fail: &FailureInfo) -> Option<SimTime> {
    plan.crashes
        .iter()
        .filter(|c| c.node == fail.node && c.at <= fail.at)
        .map(|c| c.at)
        .max()
}

fn aborted<R>(
    outcome: mpi_api::runtime::RunOutcome<R, BcsMpi>,
    restarts: usize,
    detections: Vec<Detection>,
    events: u64,
    why: String,
) -> RecoveryOutcome<R> {
    RecoveryOutcome {
        completed: false,
        abort: Some(why),
        results: outcome.results,
        elapsed: outcome.elapsed,
        restarts,
        detections,
        engine: outcome.engine,
        events,
    }
}

/// Helper for experiments and tests: the fault-free reference run of the
/// same program (no monitor, no recording, no faults) under `cfg`'s engine
/// configuration with images disabled — the timing baseline against which
/// checkpoint overhead and recovery cost are measured.
pub fn fault_free_reference<P>(
    bcs: &BcsConfig,
    layout: JobLayout,
    program: P,
    opts: RunOpts,
) -> mpi_api::runtime::RunResult<P::Out, BcsMpi>
where
    P: RankProgram,
{
    let mut cfg = bcs.clone();
    cfg.checkpoint_images = false;
    cfg.checkpoint_cost = SimDuration::ZERO;
    mpi_api::runtime::run_program_opts(BcsMpi::new(cfg, &layout), layout, program, opts)
}
