//! Real gang scheduling inside the BCS-MPI engine (§5.4 remedy 1):
//! "schedule a different parallel job whenever the application blocks for
//! communication, thus making use of the CPU ... without requiring any code
//! modification."

use bcs_repro::bcs_mpi::{BcsConfig, BcsMpi, GangConfig};
use bcs_repro::mpi_api::{AsyncMpi, RankProgram};
use bcs_repro::mpi_api::datatype::ReduceOp;
use bcs_repro::mpi_api::runtime::{JobLayout, run_program};
use bcs_repro::simcore::{SimDuration, SimTime};

/// A blocking-heavy job: compute, then a *blocking* ring exchange scoped to
/// the job's own communicator — while blocked, the node's CPU is free for
/// the other job.
/// Job of a rank under the oversubscribed layout: each node hosts 4 rank
/// slots on 2 physical CPUs — slots {0,1} are job 0, slots {2,3} job 1, so
/// the active job always fills both CPUs.
fn job_of(rank: usize) -> usize {
    (rank % 4) / 2
}

fn shared_gang(ranks: usize) -> GangConfig {
    let mut jobs = vec![Vec::new(), Vec::new()];
    for r in 0..ranks {
        jobs[job_of(r)].push(r);
    }
    GangConfig {
        jobs,
        switch_cost: SimDuration::micros(25),
    }
}

fn two_job_program(steps: u64, compute: SimDuration) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let job = job_of(me) as i64;
        let comm = mpi.comm_split(None, job, 0).await.expect("job communicator");
        let n = comm.size();
        let my = comm.rank;
        let right = comm.world_rank((my + 1) % n);
        let left = comm.world_rank((my + n - 1) % n);
        for step in 0..steps {
            mpi.compute(compute).await;
            let tag = (step % 512) as i32;
            // Blocking exchange: suspends ~1.5 slices — the hole the other
            // job fills.
            mpi.sendrecv(
                right,
                tag,
                &[my as u8; 64],
                bcs_repro::mpi_api::message::SrcSel::Rank(left),
                bcs_repro::mpi_api::message::TagSel::Tag(tag),
            ).await;
        }
        let done = mpi.allreduce_f64_on(&comm, ReduceOp::Sum, &[1.0]).await[0];
        done as u64
    }
}

fn run(gang: Option<GangConfig>, ranks: usize, steps: u64, compute: SimDuration) -> (SimDuration, u64) {
    // 4 rank slots per node: two jobs of 2 ranks each share the node's two
    // physical CPUs (the oversubscription §5.4 contemplates, "not always
    // practical due to memory ... considerations").
    let layout = JobLayout::new(ranks / 4, 4, ranks);
    let mut cfg = BcsConfig::default();
    cfg.gang = gang;
    let out = run_program(
        BcsMpi::new(cfg, &layout),
        layout,
        two_job_program(steps, compute),
    );
    assert!(out.results.iter().all(|&d| d == (ranks / 2) as u64));
    (out.elapsed, out.engine.gang_switches())
}

#[test]
fn two_jobs_overlap_each_others_blocking_holes() {
    let steps = 30;
    let compute = SimDuration::micros(1_300); // ~2.6 slices compute, ~2 blocked
    // Dedicated baseline: every rank gets its own CPU (twice the hardware of
    // the shared runs).
    let (dedicated, sw0) = run(None, 8, steps, compute);
    assert_eq!(sw0, 0);
    // Gang-shared on half the CPUs. The §5.4 claim is against running the
    // two jobs *serially* on that hardware: the second job must come out
    // much cheaper than a full extra run, because it computes inside the
    // first job's blocking slices.
    let (gang, switches) = run(Some(shared_gang(8)), 8, steps, compute);
    assert!(switches > 10, "expected frequent job switches, got {switches}");
    let serial = dedicated.as_secs_f64() * 2.0;
    let vs_serial = gang.as_secs_f64() / serial;
    assert!(
        vs_serial < 0.85,
        "gang makespan is {vs_serial:.2}x serial; blocking holes not reclaimed"
    );
    // And sharing can never beat dedicated hardware.
    let vs_dedicated = gang.as_secs_f64() / dedicated.as_secs_f64();
    assert!(
        (1.0..1.75).contains(&vs_dedicated),
        "gang vs dedicated ratio {vs_dedicated:.2} out of range"
    );
}

#[test]
fn single_job_gang_matches_dedicated_timing() {
    // Gang mode with one job must behave like the plain engine (same
    // compute quantization path, no switches).
    let steps = 10;
    let compute = SimDuration::micros(2_300);
    let program = move |mut mpi: AsyncMpi| async move {
        for _ in 0..steps {
            mpi.compute(compute).await;
            mpi.barrier().await;
        }
        mpi.now().await.as_nanos()
    };
    let layout = || JobLayout::new(4, 2, 8);
    let plain = run_program(
        BcsMpi::new(BcsConfig::default(), &layout()),
        layout(),
        program,
    );
    let mut cfg = BcsConfig::default();
    cfg.gang = Some(GangConfig::round_robin(8, 1));
    let gang = run_program(BcsMpi::new(cfg, &layout()), layout(), program);
    assert_eq!(gang.engine.gang_switches(), 0);
    // Timing may differ by at most one slice (compute quantization).
    let a = plain.elapsed.as_micros_f64();
    let b = gang.elapsed.as_micros_f64();
    assert!(
        (a - b).abs() <= 501.0,
        "single-job gang diverged: {a:.0}us vs {b:.0}us"
    );
}

#[test]
fn gang_runs_are_deterministic() {
    let go = || run(Some(shared_gang(8)), 8, 12, SimDuration::micros(900));
    assert_eq!(go().0, go().0);
}

#[test]
fn descheduled_jobs_communication_still_progresses() {
    // Job 1 sleeps (computes) for a long stretch while job 0 exchanges
    // non-blocking messages: job 0's communication must complete long before
    // job 1's compute ends, because the NIC progresses it regardless of who
    // holds the CPU.
    let layout = JobLayout::new(2, 2, 4);
    // Node 0 hosts ranks {0,1}, node 1 hosts {2,3}; job 0 = {0,2},
    // job 1 = {1,3} (one rank of each job per node).
    let mut cfg = BcsConfig::default();
    cfg.gang = Some(GangConfig::round_robin(4, 2));
    let out = run_program(BcsMpi::new(cfg, &layout), layout, |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        if me % 2 == 1 {
            // Job 1: pure compute hog.
            mpi.compute(SimDuration::millis(50)).await;
            SimTime::ZERO.as_nanos()
        } else {
            // Job 0: a blocking round-trip between its two ranks.
            let peer = if me == 0 { 2 } else { 0 };
            let t0 = mpi.now().await;
            if me == 0 {
                mpi.send(peer, 1, &[1u8; 128]).await;
                mpi.recv_from(peer, 2).await;
            } else {
                mpi.recv_from(peer, 1).await;
                mpi.send(peer, 2, &[2u8; 128]).await;
            }
            mpi.now().await.since(t0).as_nanos()
        }
    });
    // Job 0's exchange finishes in a few slices, far below job 1's 50 ms.
    for (r, &ns) in out.results.iter().enumerate() {
        if r % 2 == 0 {
            assert!(
                ns < 5_000_000,
                "rank {r} exchange took {ns}ns — NIC progress stalled"
            );
        }
    }
}
