//! The benchmark's workloads: fixed job sets built from a seed, how one
//! job runs, and the oracle each job's outputs must satisfy.
//!
//! Jobs reach the simulator only through its public entry points:
//! `mpi_api::runtime::run_program_hooked` with an explicit engine
//! configuration, and `faultsim::{run_with_recovery, fault_free_reference}`.

use crate::record::{fnv, JobRecord};
use crate::trace::{self, Probed};
use bcs_core::BcsHost;
use bcs_mpi::{BcsConfig, BcsMpi};
use faultsim::{fault_free_reference, run_with_recovery, FaultPlan, FaultProfile, RecoveryCfg};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{
    run_program_hooked, Backend, ClusterWorld, Engine, JobLayout, RunOpts, RunOutcome,
};
use mpi_api::{AsyncMpi, CollAlgo, RankProgram, ReduceOp};
use quadrics_mpi::{QuadricsConfig, QuadricsMpi};
use simcore::{Sim, SimDuration, SimRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SliceIdle,
    HaloP2p,
    AllreduceRdma,
    FaultRecover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SliceIdle,
        Workload::HaloP2p,
        Workload::AllreduceRdma,
        Workload::FaultRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SliceIdle => "slice_idle",
            Workload::HaloP2p => "halo_p2p",
            Workload::AllreduceRdma => "allreduce_rdma",
            Workload::FaultRecover => "fault_recover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Golden record of the job set built from [`crate::DEFAULT_SEED`].
    pub fn golden(self) -> &'static str {
        match self {
            Workload::SliceIdle => include_str!("../golden/slice_idle.txt"),
            Workload::HaloP2p => include_str!("../golden/halo_p2p.txt"),
            Workload::AllreduceRdma => include_str!("../golden/allreduce_rdma.txt"),
            Workload::FaultRecover => include_str!("../golden/fault_recover.txt"),
        }
    }

    /// The workload's fixed job set for `seed`: the same seed always gives
    /// the same jobs with the same inputs.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let mut rng = SimRng::new(seed).split(self as u64);
        match self {
            Workload::SliceIdle => (0..IDLE_JOBS)
                .map(|j| Job::SliceIdle {
                    label: format!("bcs.barrier.{j}"),
                    granularity: SimDuration::millis(10)
                        + SimDuration::micros(rng.range_u64(50, 450)),
                })
                .collect(),
            Workload::HaloP2p => {
                let mut jobs = Vec::new();
                let mut push = |quadrics: bool, stable: bool, rng: &mut SimRng| {
                    jobs.push(Job::Halo {
                        label: format!(
                            "{}.{}",
                            if quadrics { "quadrics" } else { "bcs" },
                            if stable { "stable" } else { "rotating" }
                        ),
                        quadrics,
                        stable,
                        granularity: SimDuration::micros(rng.range_u64(250, 400)),
                    })
                };
                push(true, true, &mut rng);
                push(true, false, &mut rng);
                for _ in 0..HALO_BCS_PAIRS {
                    push(false, true, &mut rng);
                    push(false, false, &mut rng);
                }
                jobs
            }
            Workload::AllreduceRdma => ALLREDUCE_SHAPES
                .iter()
                .map(|&(n, len, reps)| {
                    let input_seed = rng.next_u64();
                    Job::Allreduce {
                        label: format!("bcs.rdma.n{n}.f64x{len}x{reps}"),
                        n,
                        len,
                        reps,
                        input_seed,
                        expected: allreduce_oracle(&allreduce_inputs(input_seed, n, len, reps)),
                    }
                })
                .collect(),
            Workload::FaultRecover => (0..FAULT_JOBS)
                .map(|j| Job::Fault {
                    label: format!("bcs.ring.recover.{j}"),
                    plan_seed: rng.next_u64(),
                    data_seed: rng.next_u64(),
                })
                .collect(),
        }
    }
}

/// `slice_idle`: jobs per set, and barrier iterations per job. One
/// iteration (about 22 slices) keeps a job near 0.1 s, so a run holds the
/// hundred jobs the tail percentile needs.
const IDLE_JOBS: usize = 4;
const IDLE_ITERS: u64 = 1;
const IDLE_RANKS: usize = 4096;

/// `halo_p2p`: BCS-MPI (stable, rotating) pairs per set after the two
/// Quadrics jobs, ranks, and iterations per job. Schedules compile after
/// three identical slices, so eight iterations are the fewest that also
/// replay; 16 ranks keep such a job near 0.2 s.
const HALO_BCS_PAIRS: usize = 2;
const HALO_RANKS: usize = 16;
const HALO_ITERS: u64 = 8;
const HALO_NEIGHBORS: usize = 4;
const HALO_MSGS_PER_PEER: usize = 48;
const HALO_MSG_BYTES: usize = 32;

/// `allreduce_rdma`: (ranks, f64 elements, allreduces) per job. The
/// allreduce counts give both jobs about the same host cost, so that no
/// percentile of the job times falls between two cost modes.
const ALLREDUCE_SHAPES: [(usize, usize, usize); 2] = [(64, 4096, 5), (1024, 512, 2)];

/// `fault_recover`: jobs per set, machine size, ring iterations, checkpoint
/// interval in slices, crash profile, the slice horizon plans cover, and
/// the slices a job's single crash must fall in.
const FAULT_JOBS: usize = 8;
const FAULT_NODES: usize = 32;
const FAULT_CPUS: usize = 2;
const FAULT_ITERS: u64 = 10;
const FAULT_CKPT_EVERY: u64 = 4;
const FAULT_MTBF_SLICES: f64 = 20.0;
const FAULT_HORIZON_SLICES: u64 = 30;
const FAULT_CRASHES: usize = 1;
const FAULT_CRASH_SLICES: std::ops::Range<u64> = 6..20;

/// Virtual-time bound on every run: a livelocked protocol halts instead of
/// spinning forever.
const MAX_VIRTUAL: SimDuration = SimDuration::secs(60);

/// One job of a workload's job set, with its generated inputs.
#[derive(Clone, Debug)]
pub enum Job {
    SliceIdle {
        label: String,
        granularity: SimDuration,
    },
    Halo {
        label: String,
        quadrics: bool,
        stable: bool,
        granularity: SimDuration,
    },
    Allreduce {
        label: String,
        n: usize,
        len: usize,
        reps: usize,
        input_seed: u64,
        /// Host-side fold of the inputs, hashed as the ranks hash theirs.
        expected: u64,
    },
    Fault {
        label: String,
        plan_seed: u64,
        data_seed: u64,
    },
}

/// Host-side quantities of one job, summed per job set by the runner.
pub type Counters = BTreeMap<&'static str, f64>;

/// What running one job yields.
pub struct JobRun {
    pub record: JobRecord,
    /// Host time from job start until the first rank future was polled,
    /// summed over the job's simulator runs.
    pub setup: Duration,
    /// Host time from the first poll until the simulator returned.
    pub sim: Duration,
    pub counters: Counters,
}

/// Host-time split of one simulator run.
struct Timing {
    setup: Duration,
    sim: Duration,
}

/// Close a run that started at `start` and has just returned.
fn timing(start: Instant) -> Timing {
    let end = Instant::now();
    let first = trace::first_poll().unwrap_or(end);
    Timing {
        setup: first.saturating_duration_since(start),
        sim: end.saturating_duration_since(first),
    }
}

fn opts() -> RunOpts {
    RunOpts {
        max_virtual: Some(MAX_VIRTUAL),
    }
}

fn layout(ranks: usize) -> JobLayout {
    JobLayout::new(ranks.div_ceil(2), 2, ranks)
}

/// Run `program` on BCS-MPI, optionally behind a traced fabric.
fn run_bcs<P: RankProgram>(
    cfg: BcsConfig,
    lay: JobLayout,
    program: P,
    traced: bool,
) -> RunOutcome<P::Out, BcsMpi> {
    run_program_hooked(
        BcsMpi::new(cfg, &lay),
        lay,
        Probed(program),
        move |w: &mut ClusterWorld<BcsMpi>, _: &mut Sim<ClusterWorld<BcsMpi>>| {
            if traced {
                trace::install(&mut w.engine.bcs_cluster().fabric, true);
            }
        },
        opts(),
        Backend::Vm,
    )
}

/// Run `program` on the Quadrics engine, optionally behind a traced fabric.
fn run_quadrics<P: RankProgram>(
    lay: JobLayout,
    program: P,
    traced: bool,
) -> RunOutcome<P::Out, QuadricsMpi> {
    run_program_hooked(
        QuadricsMpi::new(QuadricsConfig::default(), &lay),
        lay,
        Probed(program),
        move |w: &mut ClusterWorld<QuadricsMpi>, _: &mut Sim<ClusterWorld<QuadricsMpi>>| {
            if traced {
                trace::install(&mut w.engine.fabric, false);
            }
        },
        opts(),
        Backend::Vm,
    )
}

/// The record of a run that must have completed.
fn record_of<E: Engine>(
    label: &str,
    out: &RunOutcome<u64, E>,
    digest: Option<u64>,
) -> Result<JobRecord, String> {
    if !out.completed {
        return Err(format!(
            "{label}: job did not complete: {}",
            out.diagnostic.as_deref().unwrap_or("no diagnostic")
        ));
    }
    let results = out
        .results
        .iter()
        .map(|r| r.ok_or_else(|| format!("{label}: a finished rank has no result")))
        .collect::<Result<Vec<u64>, String>>()?;
    let finish_ns = out
        .finish_times
        .iter()
        .map(|t| {
            t.map(|t| t.as_nanos())
                .ok_or_else(|| format!("{label}: a rank has no finish time"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(JobRecord {
        label: label.to_string(),
        results,
        elapsed_ns: out.elapsed.as_nanos(),
        finish_ns,
        digest,
        events: out.events,
    })
}

/// Protocol counters of a finished BCS-MPI engine.
fn bcs_counters(c: &mut Counters, e: &BcsMpi, events: u64, nodes: usize) {
    let s = &e.stats;
    let sched = e.sched_stats();
    for (k, v) in [
        ("core.events", events),
        ("core.slices", s.slices),
        ("core.node_slices", s.slices * nodes as u64),
        ("core.descriptors", s.descriptors_exchanged),
        ("core.matches", s.matches),
        ("core.chunks", s.chunks),
        ("core.p2p_bytes", s.p2p_bytes),
        ("core.barriers", s.barriers),
        ("core.reduces", s.reduces),
        ("core.schedule.compiles", sched.compiled),
        ("core.schedule.replays", sched.replays),
        ("core.schedule.invalidations", sched.invalidations),
        ("core.checkpoint.images", e.images.len() as u64),
        (
            "core.checkpoint.image_bytes",
            e.images.iter().map(|i| i.payload_bytes() as u64).sum(),
        ),
    ] {
        *c.entry(k).or_default() += v as f64;
    }
}

impl Job {
    pub fn label(&self) -> &str {
        match self {
            Job::SliceIdle { label, .. }
            | Job::Halo { label, .. }
            | Job::Allreduce { label, .. }
            | Job::Fault { label, .. } => label,
        }
    }

    /// Run the job. Returns its record and host-side figures, or why its
    /// outputs fail the job's oracle.
    pub fn run(&self, traced: bool) -> Result<JobRun, String> {
        let start = Instant::now();
        trace::arm_first_poll();
        let mut counters = Counters::new();
        let label = self.label();
        let (record, t) = match self {
            Job::SliceIdle { granularity, .. } => {
                let cfg = BcsConfig {
                    net: qsnet::NetModel::bluegene_l(),
                    ..BcsConfig::default()
                };
                let lay = layout(IDLE_RANKS);
                let program = apps::synthetic::barrier_loop(apps::synthetic::BarrierLoopCfg {
                    granularity: *granularity,
                    iters: IDLE_ITERS,
                });
                let out = run_bcs(cfg, lay.clone(), program, traced);
                let t = timing(start);
                let rec = record_of(label, &out, Some(out.engine.checkpoint_digest()))?;
                bcs_counters(&mut counters, &out.engine, out.events, lay.nodes_used());
                check_idle(&rec, *granularity, out.engine.cfg.timeslice)?;
                (rec, t)
            }
            Job::Halo {
                quadrics,
                stable,
                granularity,
                ..
            } => {
                let lay = layout(HALO_RANKS);
                let program =
                    apps::synthetic::particle_stress(apps::synthetic::ParticleStressCfg {
                        granularity: *granularity,
                        iters: HALO_ITERS,
                        neighbors: HALO_NEIGHBORS,
                        msgs_per_peer: HALO_MSGS_PER_PEER,
                        msg_bytes: HALO_MSG_BYTES,
                        stable: *stable,
                    });
                let (rec, t) = if *quadrics {
                    let out = run_quadrics(lay, program, traced);
                    let t = timing(start);
                    (record_of(label, &out, None)?, t)
                } else {
                    let out = run_bcs(BcsConfig::default(), lay.clone(), program, traced);
                    let t = timing(start);
                    let rec = record_of(label, &out, Some(out.engine.checkpoint_digest()))?;
                    bcs_counters(&mut counters, &out.engine, out.events, lay.nodes_used());
                    (rec, t)
                };
                let want = halo_oracle(HALO_RANKS);
                if rec.results != want {
                    return Err(format!(
                        "{label}: checksums differ from the host-side oracle"
                    ));
                }
                (rec, t)
            }
            Job::Allreduce {
                n,
                len,
                reps,
                input_seed,
                expected,
                ..
            } => {
                let inputs = Arc::new(allreduce_inputs(*input_seed, *n, *len, *reps));
                let cfg = BcsConfig {
                    net: qsnet::NetModel::infiniband(),
                    fabric: qsnet::FabricKind::Rdma,
                    coll_algo: CollAlgo::OptimalSchedule,
                    ..BcsConfig::default()
                };
                let lay = layout(*n);
                let program = move |mut mpi: AsyncMpi| {
                    let inputs = Arc::clone(&inputs);
                    async move {
                        let me = mpi.rank();
                        let mut folded = Vec::new();
                        for rep in inputs.iter() {
                            let sums = mpi.allreduce_f64(ReduceOp::Sum, &rep[me]).await;
                            folded.extend(sums.iter().map(|x| x.to_bits()));
                        }
                        fnv(folded)
                    }
                };
                let out = run_bcs(cfg, lay.clone(), program, traced);
                let t = timing(start);
                let rec = record_of(label, &out, Some(out.engine.checkpoint_digest()))?;
                bcs_counters(&mut counters, &out.engine, out.events, lay.nodes_used());
                *counters.entry("softfloat.fold_ops").or_default() += (reps * (n - 1) * len) as f64;
                if rec.results.iter().any(|r| r != expected) {
                    return Err(format!(
                        "{label}: allreduce sums differ from the host-side fold"
                    ));
                }
                (rec, t)
            }
            Job::Fault {
                plan_seed,
                data_seed,
                ..
            } => return run_fault(label, *plan_seed, *data_seed, start, counters),
        };
        Ok(JobRun {
            record,
            setup: t.setup,
            sim: t.sim,
            counters,
        })
    }
}

/// Every rank ran its barriers, and no rank finished before the compute
/// time or more than a few slices per barrier after it.
fn check_idle(rec: &JobRecord, granularity: SimDuration, slice: SimDuration) -> Result<(), String> {
    if rec.results.iter().any(|&r| r != IDLE_ITERS) {
        return Err(format!(
            "{}: a rank ran the wrong number of barriers",
            rec.label
        ));
    }
    let lo = granularity.as_nanos() * IDLE_ITERS;
    let hi = lo + 4 * slice.as_nanos() * IDLE_ITERS;
    if rec.finish_ns.iter().any(|&t| t < lo || t > hi) {
        return Err(format!(
            "{}: a finish time lies outside [{lo}, {hi}] ns",
            rec.label
        ));
    }
    Ok(())
}

/// Ring neighbours of `particle_stress`: ±1, ±2, ... up to `count` peers.
fn ring_peers(me: usize, n: usize, count: usize) -> Vec<usize> {
    let mut peers = Vec::new();
    for o in 1..=count.div_ceil(2) {
        peers.push((me + o) % n);
        if peers.len() < count {
            peers.push((me + n - o) % n);
        }
    }
    peers
}

/// Per-rank checksums `particle_stress` must return, computed on the host
/// from the payloads each rank's peers send it: message `m` from rank `p`
/// carries bytes `(p + m + i) mod 256`, and the checksum adds each
/// received message's first and last byte.
fn halo_oracle(n: usize) -> Vec<u64> {
    (0..n)
        .map(|me| {
            let per_iter: u64 = ring_peers(me, n, HALO_NEIGHBORS)
                .into_iter()
                .flat_map(|p| {
                    (0..HALO_MSGS_PER_PEER).map(move |m| {
                        ((p + m) % 256) as u64 + ((p + m + HALO_MSG_BYTES - 1) % 256) as u64
                    })
                })
                .sum();
            per_iter * HALO_ITERS
        })
        .collect()
}

/// Allreduce inputs, indexed `[rep][rank][element]`. Every value is a
/// multiple of 2^-10 below 2^10 in magnitude, so every partial sum over up
/// to 2^20 ranks is exact in f64 and any summation order gives the same
/// bits: the host fold is an oracle independent of the reduction schedule.
fn allreduce_inputs(seed: u64, n: usize, len: usize, reps: usize) -> Vec<Vec<Vec<f64>>> {
    let rng = SimRng::new(seed);
    (0..reps)
        .map(|rep| {
            (0..n)
                .map(|rank| {
                    let mut r = rng.split((rep * n + rank) as u64);
                    (0..len)
                        .map(|_| (r.next_below(1 << 21) as i64 - (1 << 20)) as f64 / 1024.0)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Host-side fold of [`allreduce_inputs`], hashed as each rank hashes the
/// sums it receives.
fn allreduce_oracle(inputs: &[Vec<Vec<f64>>]) -> u64 {
    let mut folded = Vec::new();
    for rep in inputs {
        let mut sums = vec![0.0f64; rep[0].len()];
        for rank in rep {
            for (s, x) in sums.iter_mut().zip(rank) {
                *s += x;
            }
        }
        folded.extend(sums.iter().map(|x| x.to_bits()));
    }
    fnv(folded)
}

/// The ring program of the fault ablation: compute, exchange a payload with
/// both ring neighbours (alternating a chunked 64 KiB message and a small
/// one), fold it into a checksum, and allreduce every third iteration.
fn ring_program(data_seed: u64) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        let mut acc: u64 = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ data_seed;
        for it in 0..FAULT_ITERS {
            mpi.compute(SimDuration::micros(200 + 53 * ((me as u64 + it) % 5)))
                .await;
            let sz = if it % 2 == 0 { 64 * 1024 } else { 512 };
            let payload: Vec<u8> = (0..sz).map(|i| (acc ^ (i as u64)) as u8).collect();
            let s = mpi.isend((me + 1) % n, it as i32, &payload).await;
            let q = mpi
                .irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(it as i32))
                .await;
            let res = mpi.waitall(&[s, q]).await;
            for (i, b) in res[1].0.as_ref().expect("payload").iter().enumerate() {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(*b as u64 ^ (i as u64 & 0xFF));
            }
            if it % 3 == 2 {
                for v in mpi
                    .allreduce_f64(ReduceOp::Sum, &[me as f64, (acc as u32) as f64])
                    .await
                {
                    acc ^= v.to_bits();
                }
            }
        }
        acc
    }
}

/// Pairwise f64 additions one run of [`ring_program`] asks the NICs for.
fn ring_fold_ops(ranks: usize) -> u64 {
    let allreduces = (0..FAULT_ITERS).filter(|it| it % 3 == 2).count();
    (allreduces * (ranks - 1) * 2) as u64
}

/// The first plan generated from `plan_seed`'s stream with exactly
/// [`FAULT_CRASHES`] crashes, all inside [`FAULT_CRASH_SLICES`], so every
/// job recovers the same number of times from a similar point and jobs
/// differ only in which node fails and exactly when.
fn fault_plan(plan_seed: u64, cfg: &BcsConfig) -> FaultPlan {
    let mut rng = SimRng::new(plan_seed);
    loop {
        let plan = FaultPlan::generate(
            rng.next_u64(),
            cfg,
            FAULT_NODES,
            FAULT_HORIZON_SLICES,
            &FaultProfile::crashes(FAULT_MTBF_SLICES),
        );
        let slice = |at: simcore::SimTime| at.as_nanos() / cfg.timeslice.as_nanos();
        if plan.crashes.len() == FAULT_CRASHES
            && plan
                .crashes
                .iter()
                .all(|c| FAULT_CRASH_SLICES.contains(&slice(c.at)))
        {
            return plan;
        }
    }
}

/// A `fault_recover` job: `run_with_recovery` under a generated crash plan,
/// then the fault-free reference run that is its oracle.
fn run_fault(
    label: &str,
    plan_seed: u64,
    data_seed: u64,
    start: Instant,
    mut counters: Counters,
) -> Result<JobRun, String> {
    let lay = JobLayout::new(FAULT_NODES, FAULT_CPUS, FAULT_NODES * FAULT_CPUS);
    let mut rc = RecoveryCfg::new(BcsConfig::default(), FAULT_CKPT_EVERY);
    rc.bcs.checkpoint_cost = SimDuration::micros(50);
    rc.opts = opts();
    let plan = fault_plan(plan_seed, &rc.bcs);
    let out = run_with_recovery(&rc, lay.clone(), &plan, Probed(ring_program(data_seed)));
    let recover = timing(start);

    let ref_start = Instant::now();
    trace::arm_first_poll();
    let reference = fault_free_reference(
        &rc.bcs,
        lay.clone(),
        Probed(ring_program(data_seed)),
        opts(),
    );
    let refer = timing(ref_start);

    if !out.completed {
        return Err(format!(
            "{label}: recovery did not complete: {}",
            out.abort.as_deref().unwrap_or("no reason")
        ));
    }
    let results = out
        .results
        .iter()
        .map(|r| r.ok_or_else(|| format!("{label}: a recovered rank has no result")))
        .collect::<Result<Vec<u64>, String>>()?;
    if results != reference.results {
        return Err(format!(
            "{label}: recovered results differ from the fault-free reference"
        ));
    }
    if out.restarts != FAULT_CRASHES {
        return Err(format!(
            "{label}: {} restores for {FAULT_CRASHES} planned crash(es)",
            out.restarts
        ));
    }
    let events = out.events + reference.events;
    bcs_counters(&mut counters, &out.engine, out.events, lay.nodes_used());
    for (k, v) in [
        ("softfloat.fold_ops", 2.0 * ring_fold_ops(lay.ranks) as f64),
        (
            "faultsim.recover_s",
            (recover.setup + recover.sim).as_secs_f64(),
        ),
        (
            "faultsim.reference_s",
            (refer.setup + refer.sim).as_secs_f64(),
        ),
        ("faultsim.restarts", out.restarts as f64),
        ("faultsim.detections", out.detections.len() as f64),
    ] {
        *counters.entry(k).or_default() += v;
    }
    Ok(JobRun {
        record: JobRecord {
            label: label.to_string(),
            results,
            elapsed_ns: out.elapsed.as_nanos(),
            finish_ns: reference
                .finish_times
                .iter()
                .map(|t| t.as_nanos())
                .collect(),
            digest: Some(out.engine.checkpoint_digest()),
            events,
        },
        setup: recover.setup + refer.setup,
        sim: recover.sim + refer.sim,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_sets_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a: Vec<String> = w.jobs(5).iter().map(|j| format!("{j:?}")).collect();
            let b: Vec<String> = w.jobs(5).iter().map(|j| format!("{j:?}")).collect();
            let c: Vec<String> = w.jobs(6).iter().map(|j| format!("{j:?}")).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}: the seed must change the inputs", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn allreduce_oracle_is_order_independent() {
        let inputs = allreduce_inputs(3, 8, 16, 2);
        let mut reversed = inputs.clone();
        for rep in &mut reversed {
            rep.reverse();
        }
        assert_eq!(allreduce_oracle(&inputs), allreduce_oracle(&reversed));
    }

    #[test]
    fn fault_plans_have_the_pinned_crash_count() {
        let mut rc = RecoveryCfg::new(BcsConfig::default(), FAULT_CKPT_EVERY);
        rc.bcs.checkpoint_cost = SimDuration::micros(50);
        for seed in 0..20 {
            assert_eq!(fault_plan(seed, &rc.bcs).crashes.len(), FAULT_CRASHES);
        }
    }
}
