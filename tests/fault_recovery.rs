//! End-to-end fault injection & slice-boundary recovery (the `faultsim`
//! subsystem, realizing the paper's §6 transparent-fault-tolerance claim).
//!
//! The headline acceptance path: a node crash injected mid-application is
//! detected by the STORM heartbeat monitor within its epoch bound, the
//! survivors restore from the last slice-boundary checkpoint image, the
//! protocol resumes on the original timeline, and the job completes with
//! results **bit-identical** to the fault-free run. When recovery is
//! impossible (no image, budget spent) the machine aborts cleanly.

use bcs_repro::bcs_core::BcsWorld;
use bcs_repro::bcs_mpi::{BcsConfig, BcsMpi, CheckpointImage};
use bcs_repro::faultsim::{
    FaultPlan, FaultProfile, RecoveryCfg, fault_free_reference, run_with_recovery,
};
use bcs_repro::mpi_api::message::{SrcSel, TagSel};
use bcs_repro::mpi_api::runtime::{
    Backend, ClusterWorld, JobLayout, resume_program, run_program_hooked,
};
use bcs_repro::mpi_api::{AsyncMpi, ReduceOp};
use bcs_repro::qsnet::NodeId;
use bcs_repro::simcore::{Sim, SimDuration};
use proplite::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Deterministic ring workload: neighbor exchange with specific (never
/// wildcard) receives, a mix of chunked and small payloads, and an
/// occasional NIC-side allreduce. Returns a checksum over every received
/// byte and reduced value — any lost, duplicated or corrupted delivery
/// changes it, while pure timing shifts (heartbeat traffic, checkpoint
/// stalls, recovery rework) do not.
async fn ring_program(mut mpi: AsyncMpi, iters: u64) -> u64 {
    let me = mpi.rank();
    let n = mpi.size();
    let mut acc: u64 = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for it in 0..iters {
        mpi.compute(SimDuration::micros(200 + 53 * ((me as u64 + it) % 5))).await;
        let to = (me + 1) % n;
        let from = (me + n - 1) % n;
        let sz = if it % 2 == 0 { 96 * 1024 } else { 512 };
        let payload: Vec<u8> = (0..sz)
            .map(|i| (acc ^ (i as u64).wrapping_mul(0x9E37_79B9)) as u8)
            .collect();
        let s = mpi.isend(to, it as i32, &payload).await;
        let r = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it as i32)).await;
        let res = mpi.waitall(&[s, r]).await;
        let data = res[1].0.as_ref().expect("recv payload");
        assert_eq!(data.len(), sz);
        for (i, b) in data.iter().enumerate() {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(*b as u64 ^ (i as u64 & 0xFF));
        }
        if it % 3 == 2 {
            let g = mpi
                .allreduce_f64(
                    ReduceOp::Sum,
                    &[me as f64 + it as f64 * 0.5, (acc as u32) as f64],
                )
                .await;
            for v in g {
                acc ^= v.to_bits();
            }
        }
    }
    acc
}

fn layout() -> JobLayout {
    JobLayout::new(4, 1, 4)
}

fn recovery_cfg() -> RecoveryCfg {
    RecoveryCfg::new(BcsConfig::default(), 2)
}

fn fault_free_results(rc: &RecoveryCfg, iters: u64) -> Vec<u64> {
    fault_free_reference(
        &rc.bcs,
        layout(),
        move |mpi: AsyncMpi| ring_program(mpi, iters),
        rc.opts.clone(),
    )
    .results
}

/// Satellite 1 + acceptance: the heartbeat monitor (first real consumer of
/// `storm::heartbeat::start_on`) declares a silent node dead within its
/// configured epoch bound, and the machine recovers and completes.
#[test]
fn silent_node_is_detected_within_the_epoch_bound() {
    let rc = recovery_cfg();
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(2), 5);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert_eq!(out.restarts, 1);
    assert_eq!(out.detections.len(), 1);
    let d = &out.detections[0];
    assert_eq!(d.node, NodeId(2));
    let lat = d.latency().expect("planned crash must have a latency");
    // Epoch bound: a node that dies right after acking a strobe is caught
    // by the second following beat; the Compare-And-Write completes within
    // a slice of that.
    let bound = rc.heartbeat_period * 2 + rc.bcs.timeslice;
    assert!(
        lat <= bound,
        "detection took {} (bound {})",
        lat,
        bound
    );
    assert!(d.restored_from_slice.is_some());
}

/// Acceptance: crash → detect → restore → resume completes bit-identical
/// to the fault-free execution.
#[test]
fn recovery_is_bit_identical_to_fault_free() {
    let rc = recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(1), 4);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert!(out.restarts >= 1, "the crash must have forced a restore");
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference, "recovered results diverged from fault-free run");
}

/// The acceptance workload: an NPB CG proxy (halo matvec + transpose
/// exchange + bit-exact NIC allreduces) crashes mid-solve, is detected,
/// restored, and converges to residual bits identical to the fault-free
/// solve.
#[test]
fn cg_proxy_recovers_bit_identically() {
    use bcs_repro::apps::npb::cg::{CgCfg, cg_bench};
    let rc = recovery_cfg();
    let cfg = CgCfg {
        n_local: 64,
        iters: 8,
        iter_compute: SimDuration::micros(300),
    };
    let reference =
        fault_free_reference(&rc.bcs, layout(), cg_bench(cfg.clone()), rc.opts.clone()).results;
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(3), 4);
    let out = run_with_recovery(&rc, layout(), &plan, cg_bench(cfg));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert!(out.restarts >= 1, "the crash must have forced a restore");
    let got: Vec<(u64, u64)> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference, "CG residual bits diverged from fault-free solve");
    for (rho0, rho_n) in &got {
        assert!(f64::from_bits(*rho_n) < f64::from_bits(*rho0));
    }
}

/// Two crashes in sequence: the second strikes after the first recovery.
#[test]
fn survives_two_crashes() {
    let rc = recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let mut plan = FaultPlan::single_crash(&rc.bcs, NodeId(0), 3);
    plan.crashes
        .extend(FaultPlan::single_crash(&rc.bcs, NodeId(3), 9).crashes);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert_eq!(out.restarts, 2);
    assert_eq!(out.detections.len(), 2);
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference);
}

/// Transient data-channel drops are masked by the retry layer without any
/// restore at all: the timeout fires, the DMA is re-issued, and the job
/// completes bit-identically.
#[test]
fn dropped_dmas_are_retried_transparently() {
    let rc = recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let mut plan = FaultPlan::none();
    plan.drops = (0..12).collect();
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "run failed: {:?}", out.abort);
    assert_eq!(out.restarts, 0, "drops must be masked below the restore layer");
    assert!(
        out.engine.fabric_stats().drops >= 1,
        "plan did not hit any bulk transfer"
    );
    assert!(out.engine.retry_stats().retries >= 1);
    assert_eq!(out.engine.retry_stats().aborts, 0);
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference);
}

/// Recovery impossible: with no restart budget the machine aborts cleanly —
/// a reported reason, not a panic or a livelock.
#[test]
fn abort_is_clean_when_restart_budget_is_exhausted() {
    let mut rc = recovery_cfg();
    rc.max_restarts = 0;
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(2), 4);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(!out.completed);
    let why = out.abort.expect("abort reason must be reported");
    assert!(why.contains("restart budget"), "unexpected reason: {why}");
    assert_eq!(out.detections.len(), 1);
    assert!(out.detections[0].restored_from_slice.is_none());
}

/// The same machine, retargeted onto the RDMA-channel fabric: InfiniBand
/// constants, software-emulated multicast/conditionals (`crates/rdmanet`).
/// The recovery stack must be fabric-agnostic — fault plans are keyed by
/// bulk transfer sequence numbers, which both fabrics assign identically.
fn rdma_recovery_cfg() -> RecoveryCfg {
    let mut bcs = BcsConfig::default();
    bcs.fabric = bcs_repro::qsnet::FabricKind::Rdma;
    bcs.net = bcs_repro::qsnet::NetModel::infiniband();
    RecoveryCfg::new(bcs, 2)
}

/// Crash → detect → restore → resume on the RDMA fabric: the snapshot and
/// restore of the software sequencer / QP port clocks must replay to
/// results bit-identical to the fault-free RDMA run.
#[test]
fn rdma_fabric_recovery_is_bit_identical_to_fault_free() {
    let rc = rdma_recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(1), 4);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert!(out.restarts >= 1, "the crash must have forced a restore");
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference, "recovered results diverged from fault-free RDMA run");
}

type CW = ClusterWorld<BcsMpi>;

/// Shadow every checkpoint image the engine captures with an eager
/// [`CheckpointImage::materialize`] deep clone, re-polling once per slice
/// while the job runs. The shadow is taken while the run keeps mutating the
/// engine, so if any post-capture mutation leaked into a shared
/// (copy-on-write) image layer, the incremental image and its deep clone
/// would diverge.
fn shadow_images(
    w: &mut CW,
    sim: &mut Sim<CW>,
    shadow: Rc<RefCell<Vec<CheckpointImage>>>,
    period: SimDuration,
) {
    {
        let mut sh = shadow.borrow_mut();
        while sh.len() < w.engine.images.len() {
            let img = &w.engine.images[sh.len()];
            sh.push(img.materialize());
        }
    }
    if w.finished < w.layout.ranks {
        let sh = shadow.clone();
        sim.schedule_in(period, move |w: &mut CW, sim| {
            shadow_images(w, sim, sh, period)
        });
    }
}

// Satellite 3: property suite over random fault plans.
proplite! {
    // Every case runs 2–3 full machine simulations; keep the counts tight.
    #![config(cases = 12, max_shrink_iters = 6)]

    /// (a) Whatever a seeded plan throws at the machine — crashes, drops,
    /// degradation windows — recovery yields results bit-identical to the
    /// fault-free run.
    #[test]
    fn random_fault_plans_recover_bit_identically(seed in 1u64..1_000_000u64) {
        let rc = recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(6.0), drops: 4, degradations: 1 };
        let plan = FaultPlan::generate(seed, &rc.bcs, 4, 12, &profile);
        let reference = fault_free_results(&rc, 5);
        let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 5));
        prop_assert!(out.completed, "seed {} failed: {:?}", seed, out.abort);
        let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
        prop_assert_eq!(got, reference);
    }

    /// (a') The same guarantee holds on the RDMA-channel fabric: random
    /// fault plans — crashes, bulk-sequence drops, degradation windows —
    /// recover bit-identically with the software-emulated collectives
    /// carrying the strobe and descriptor exchange.
    #[test]
    fn random_fault_plans_recover_bit_identically_on_rdma(seed in 1u64..1_000_000u64) {
        let rc = rdma_recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(6.0), drops: 4, degradations: 1 };
        let plan = FaultPlan::generate(seed, &rc.bcs, 4, 12, &profile);
        let reference = fault_free_results(&rc, 5);
        let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 5));
        prop_assert!(out.completed, "seed {} failed: {:?}", seed, out.abort);
        let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
        prop_assert_eq!(got, reference);
    }

    /// (b') RDMA fault runs replay exactly under the same seed: restored
    /// sequencer/port clocks land the machine on the identical timeline.
    #[test]
    fn same_seed_replays_the_rdma_fault_run_exactly(seed in 1u64..1_000_000u64) {
        let rc = rdma_recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(5.0), drops: 3, degradations: 1 };
        let plan = FaultPlan::generate(seed, &rc.bcs, 4, 10, &profile);
        let a = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 5));
        let b = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 5));
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.restarts, b.restarts);
        prop_assert_eq!(a.elapsed.as_nanos(), b.elapsed.as_nanos());
        prop_assert_eq!(a.results, b.results);
        prop_assert_eq!(&a.engine.checkpoints, &b.engine.checkpoints);
    }

    /// (b) The whole fault experiment is deterministic: the same seed
    /// reproduces the same detections, restore points, checkpoint digests
    /// and virtual finish time.
    #[test]
    fn same_seed_replays_the_fault_run_exactly(seed in 1u64..1_000_000u64) {
        let rc = recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(5.0), drops: 3, degradations: 1 };
        let plan = FaultPlan::generate(seed, &rc.bcs, 4, 10, &profile);
        let a = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 5));
        let b = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 5));
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.restarts, b.restarts);
        prop_assert_eq!(a.elapsed.as_nanos(), b.elapsed.as_nanos());
        prop_assert_eq!(a.results, b.results);
        prop_assert_eq!(&a.engine.checkpoints, &b.engine.checkpoints);
        let da: Vec<_> = a.detections.iter()
            .map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice)).collect();
        let db: Vec<_> = b.detections.iter()
            .map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice)).collect();
        prop_assert_eq!(da, db);
    }

    /// (c) Incremental (copy-on-write) checkpoint images are
    /// indistinguishable from deep clones: restoring — and resuming the
    /// whole job — from either member of each image/materialized pair is
    /// byte-identical, under random fault plans. The deep clones are taken
    /// *while the run keeps mutating the engine* (see [`shadow_images`]),
    /// so a missed unshare anywhere in the COW capture path shows up as a
    /// divergence here.
    #[test]
    fn incremental_images_recover_identically_to_deep_clones(seed in 1u64..1_000_000u64) {
        let rc = recovery_cfg();
        let profile = FaultProfile { mtbf_slices: None, drops: 3, degradations: 1 };
        let plan = FaultPlan::generate(seed, &rc.bcs, 4, 10, &profile);
        let shadow: Rc<RefCell<Vec<CheckpointImage>>> = Rc::new(RefCell::new(Vec::new()));
        let sh = shadow.clone();
        let timeslice = rc.bcs.timeslice;
        let out = run_program_hooked(
            BcsMpi::new(rc.bcs.clone(), &layout()),
            layout(),
            |mpi: AsyncMpi| ring_program(mpi, 5),
            move |w: &mut CW, sim: &mut Sim<CW>| {
                w.set_recording(true);
                let fabric = &mut w.bcs().fabric;
                fabric.plan_drops(plan.drops.clone());
                for d in &plan.degradations {
                    fabric.degrade_link(d.clone());
                }
                shadow_images(w, sim, sh, timeslice);
            },
            rc.opts.clone(),
            Backend::default(),
        );
        prop_assert!(out.completed, "seed {} failed: {:?}", seed, out.diagnostic);
        let mut shadow = shadow.borrow_mut();
        prop_assert!(!shadow.is_empty(), "no image was shadowed mid-run");
        // Boundaries that fell between the last poll and job completion are
        // shadowed now; the engine is quiescent for those, but the bulk of
        // the pairs above were cloned against a still-running machine.
        while shadow.len() < out.engine.images.len() {
            let img = &out.engine.images[shadow.len()];
            shadow.push(img.materialize());
        }
        // Every image restores to the same machine as its deep clone, and
        // both still reconstruct the digest recorded at capture time.
        for (inc, deep) in out.engine.images.iter().zip(shadow.iter()) {
            let ei = BcsMpi::restore_from_image(rc.bcs.clone(), &layout(), inc);
            let ed = BcsMpi::restore_from_image(rc.bcs.clone(), &layout(), deep);
            prop_assert_eq!(ei.capture_checkpoint(), ed.capture_checkpoint());
            prop_assert_eq!(ei.checkpoint_digest(), inc.digest);
            prop_assert_eq!(ed.checkpoint_digest(), inc.digest);
        }
        // Resuming the job to completion from a mid-run pair agrees too:
        // same results, same virtual finish, same downstream digests.
        let mid = out.engine.images.len() / 2;
        let mut outs = Vec::new();
        for img in [&out.engine.images[mid], &shadow[mid]] {
            let engine = BcsMpi::restore_from_image(rc.bcs.clone(), &layout(), img);
            let o = resume_program(
                engine,
                layout(),
                |mpi: AsyncMpi| ring_program(mpi, 5),
                &img.rt,
                |w: &mut CW, sim: &mut Sim<CW>| bcs_repro::bcs_mpi::resume_from_boundary(w, sim),
                |_: &mut CW, _: &mut Sim<CW>| {},
                rc.opts.clone(),
            );
            prop_assert!(o.completed, "resume from slice {} failed", img.slice);
            outs.push((o.results, o.elapsed.as_nanos(), o.engine.checkpoints.clone()));
        }
        prop_assert_eq!(&outs[0], &outs[1]);
    }
}
