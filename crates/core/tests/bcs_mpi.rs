//! End-to-end tests of BCS-MPI: the signature behaviors of buffered
//! coscheduling — slice-quantized blocking delay, full overlap of
//! non-blocking communication, chunking of large messages, NIC-level
//! collectives, and determinism.

use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::AsyncMpi;
use mpi_api::datatype::ReduceOp;
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{JobLayout, run_program};
use simcore::SimDuration;

fn engine(layout: &JobLayout) -> BcsMpi {
    BcsMpi::new(BcsConfig::default(), layout)
}

const SLICE_US: f64 = 500.0;

#[test]
fn blocking_pingpong_costs_slices_not_microseconds() {
    // The heart of the paper's §3.1: a blocking primitive suspends until the
    // first slice boundary after the transfer completes — 1.5 slices mean.
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let iters = 20u64;
        let t0 = mpi.now().await;
        for _ in 0..iters {
            if mpi.rank() == 0 {
                mpi.send(1, 7, &[0u8; 8]).await;
                mpi.recv_from(1, 8).await;
            } else {
                mpi.recv_from(0, 7).await;
                mpi.send(0, 8, &[0u8; 8]).await;
            }
        }
        mpi.now().await.since(t0).as_micros_f64() / iters as f64
    });
    let per_iter = out.results[0];
    // Each iteration = one send + one recv, each at least 1 full slice of
    // quantization; both legs of an iteration complete within 2-4 slices.
    assert!(
        (2.0 * SLICE_US..4.5 * SLICE_US).contains(&per_iter),
        "blocking ping-pong iteration {per_iter:.0}us, expected 2-4.5 slices"
    );
}

#[test]
fn blocking_delay_averages_about_1_5_slices() {
    // Post blocking sends at uniformly distributed offsets inside slices:
    // the measured post-to-restart delay must average ~1.5 slices (§3.1).
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        for i in 0..40u64 {
            // Prime-ish offsets spread posts across slice interiors.
            mpi.compute(SimDuration::micros(137 + (i * 211) % 457)).await;
            if mpi.rank() == 0 {
                mpi.send(1, 1, &[0u8; 64]).await;
            } else {
                mpi.recv(SrcSel::Rank(0), TagSel::Tag(1)).await;
            }
        }
    });
    let h = &out.engine.stats.blocking_delay;
    assert!(h.count() >= 40, "expected blocking samples, got {}", h.count());
    let mean_us = h.mean().as_micros_f64();
    assert!(
        (1.1 * SLICE_US..2.6 * SLICE_US).contains(&mean_us),
        "mean blocking delay {mean_us:.0}us, expected ~1.5-2.5 slices"
    );
}

#[test]
fn nonblocking_fully_overlaps_with_computation() {
    // §3.2: with isend/irecv posted before the compute, the exchange costs
    // (almost) nothing — communication rides the slices under the compute.
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let peer = 1 - mpi.rank();
        let t0 = mpi.now().await;
        for _ in 0..10 {
            let s = mpi.isend(peer, 3, &[1u8; 4096]).await;
            let r = mpi.irecv(SrcSel::Rank(peer), TagSel::Tag(3)).await;
            mpi.compute(SimDuration::millis(10)).await;
            let res = mpi.waitall(&[s, r]).await;
            assert_eq!(res[1].0.as_ref().unwrap().len(), 4096);
        }
        mpi.now().await.since(t0).as_millis_f64()
    });
    for r in &out.results {
        // 100 ms of compute; overlap should keep overhead under 2%.
        assert!(
            *r < 102.0,
            "non-blocking exchange failed to overlap: {r:.2}ms for 100ms compute"
        );
    }
}

#[test]
fn large_message_is_chunked_across_slices() {
    let layout = JobLayout::new(2, 1, 2);
    let mb = 1024 * 1024usize;
    let out = run_program(engine(&layout), layout, move |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            mpi.send(1, 1, &vec![5u8; mb]).await;
            0.0
        } else {
            let t0 = mpi.now().await;
            let d = mpi.recv_from(0, 1).await;
            assert_eq!(d.len(), mb);
            assert!(d.iter().all(|&b| b == 5));
            mpi.now().await.since(t0).as_millis_f64()
        }
    });
    let st = &out.engine.stats;
    assert!(st.chunked_messages >= 1, "1 MiB must not fit one slice budget");
    assert!(
        st.chunks >= 8,
        "1 MiB over ~96 KiB/slice budget needs many chunks, got {}",
        st.chunks
    );
    // ~11 slices of payload + quantization: between 4 and 15 ms.
    assert!(
        (4.0..15.0).contains(&out.results[1]),
        "1 MiB took {:.1}ms",
        out.results[1]
    );
}

#[test]
fn barrier_and_collectives_work_at_62_ranks() {
    let layout = JobLayout::crescendo(62);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        mpi.barrier().await;
        let sum = mpi.allreduce_i64(ReduceOp::Sum, &[me as i64]).await[0];
        let bc = mpi.bcast(5, (me == 5).then(|| vec![9u8; 256]).as_deref()).await;
        let mx = mpi.reduce_f64(0, ReduceOp::Max, &[me as f64 * 1.5]).await;
        (sum, bc.len(), mx.map(|v| v[0]))
    });
    for (r, (sum, bclen, mx)) in out.results.iter().enumerate() {
        assert_eq!(*sum, 61 * 62 / 2);
        assert_eq!(*bclen, 256);
        if r == 0 {
            assert_eq!(mx.unwrap(), 61.0 * 1.5);
        } else {
            assert!(mx.is_none());
        }
    }
    let st = &out.engine.stats;
    assert_eq!(st.barriers, 1);
    assert_eq!(st.bcasts, 1);
    assert_eq!(st.reduces, 2); // allreduce + reduce
}

#[test]
fn collective_latency_is_slice_quantized() {
    // A barrier in BCS-MPI costs a couple of slices (descriptor slice +
    // scheduling + execution + restart), not microseconds.
    let layout = JobLayout::new(4, 2, 8);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let t0 = mpi.now().await;
        for _ in 0..10 {
            mpi.barrier().await;
        }
        mpi.now().await.since(t0).as_micros_f64() / 10.0
    });
    // Back-to-back barriers post right at the restart boundary, so each is
    // picked up by the very next strobe: exactly one slice in steady state.
    let per_barrier = out.results[0];
    assert!(
        (0.9 * SLICE_US..4.0 * SLICE_US).contains(&per_barrier),
        "barrier cost {per_barrier:.0}us, expected 1-4 slices"
    );
}

#[test]
fn wildcards_and_non_overtaking() {
    let layout = JobLayout::new(4, 1, 4);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            let mut from = vec![];
            for _ in 0..6 {
                let (data, st) = mpi.recv(SrcSel::Any, TagSel::Any).await;
                assert_eq!(data.len(), st.bytes);
                from.push((st.source, st.tag, data));
            }
            // Per-source tag order must be preserved (non-overtaking).
            for src in 1..4 {
                let tags: Vec<i32> = from
                    .iter()
                    .filter(|(s, _, _)| *s == src)
                    .map(|(_, t, _)| *t)
                    .collect();
                assert_eq!(tags, vec![10, 20], "source {src} order {tags:?}");
            }
            true
        } else {
            mpi.send(0, 10, &vec![1u8; mpi.rank()]).await;
            mpi.send(0, 20, &vec![2u8; mpi.rank()]).await;
            true
        }
    });
    assert!(out.results[0]);
}

#[test]
fn probe_sees_descriptor_before_receive() {
    let layout = JobLayout::new(2, 1, 2);
    run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            let st = mpi.probe(SrcSel::Rank(1), TagSel::Any).await;
            assert_eq!(st.tag, 77);
            assert_eq!(st.bytes, 3);
            let d = mpi.recv_from(1, 77).await;
            assert_eq!(d, vec![7u8; 3]);
        } else {
            mpi.send(0, 77, &[7u8; 3]).await;
        }
    });
}

#[test]
fn zero_byte_message() {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            mpi.send(1, 1, &[]).await;
            true
        } else {
            let (d, st) = mpi.recv(SrcSel::Rank(0), TagSel::Tag(1)).await;
            d.is_empty() && st.bytes == 0
        }
    });
    assert!(out.results[1]);
}

#[test]
fn composed_collectives_over_bcs() {
    let layout = JobLayout::new(4, 2, 8);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        let ag = mpi.allgather(&[me as u8]).await;
        assert_eq!(
            ag.iter().map(|c| c[0]).collect::<Vec<u8>>(),
            (0..n as u8).collect::<Vec<u8>>()
        );
        let send: Vec<Vec<u8>> = (0..n).map(|d| vec![(me * n + d) as u8]).collect();
        let got = mpi.alltoall(&send).await;
        for (s, c) in got.iter().enumerate() {
            assert_eq!(c[0], (s * n + me) as u8);
        }
        true
    });
    assert!(out.results.iter().all(|&b| b));
}

#[test]
fn deterministic_replay() {
    let run = || {
        let layout = JobLayout::new(8, 2, 16);
        run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
            let peer = (mpi.rank() + 1) % mpi.size();
            let from = (mpi.rank() + mpi.size() - 1) % mpi.size();
            for _ in 0..4 {
                let s = mpi.isend(peer, 1, &[0u8; 2048]).await;
                let r = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(1)).await;
                mpi.compute(SimDuration::micros(1300)).await;
                mpi.waitall(&[s, r]).await;
                mpi.allreduce_i64(ReduceOp::Sum, &[1]).await;
            }
            mpi.now().await.as_nanos()
        })
        .results
    };
    assert_eq!(run(), run());
}

#[test]
fn values_match_baseline_bitexactly() {
    // The NIC softfloat reduce must agree bit-for-bit with the baseline's
    // host-side tree.
    let contributions: Vec<f64> = (0..16)
        .map(|i| (i as f64 * 0.7371 - 3.3).exp() * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();

    let run_bcs = {
        let c = contributions.clone();
        let layout = JobLayout::new(8, 2, 16);
        run_program(engine(&layout), layout, move |mut mpi: AsyncMpi| {
            let c = c.clone();
            async move { mpi.allreduce_f64(ReduceOp::Sum, &[c[mpi.rank()], 1.5]).await }
        })
        .results
    };
    let run_base = {
        let c = contributions.clone();
        let layout = JobLayout::new(8, 2, 16);
        run_program(
            quadrics_mpi::QuadricsMpi::new(quadrics_mpi::QuadricsConfig::default(), &layout),
            layout,
            move |mut mpi: AsyncMpi| {
                let c = c.clone();
                async move { mpi.allreduce_f64(ReduceOp::Sum, &[c[mpi.rank()], 1.5]).await }
            },
        )
        .results
    };
    for (a, b) in run_bcs.iter().zip(&run_base) {
        assert_eq!(a[0].to_bits(), b[0].to_bits(), "NIC vs host reduce differ");
        assert_eq!(a[1].to_bits(), b[1].to_bits());
    }
}

#[test]
fn slice_statistics_accumulate() {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        mpi.compute(SimDuration::millis(5)).await;
        if mpi.rank() == 0 {
            mpi.send(1, 1, &[1u8; 128]).await;
        } else {
            mpi.recv_from(0, 1).await;
        }
    });
    let st = &out.engine.stats;
    assert!(st.slices >= 10, "5ms of compute = at least 10 slices");
    assert_eq!(st.descriptors_exchanged, 1);
    assert_eq!(st.matches, 1);
    assert_eq!(st.chunks, 1);
    assert_eq!(st.overruns, 0);
}

#[test]
fn slice_trace_records_activity() {
    let layout = JobLayout::new(2, 1, 2);
    let mut cfg = BcsConfig::default();
    cfg.trace_slices = true;
    let out = mpi_api::runtime::run_program(BcsMpi::new(cfg, &layout), layout, |mut mpi: AsyncMpi| async move {
        mpi.compute(SimDuration::millis(2)).await;
        if mpi.rank() == 0 {
            mpi.send(1, 1, &[7u8; 2048]).await;
        } else {
            mpi.recv_from(0, 1).await;
        }
        mpi.barrier().await;
    });
    let trace = &out.engine.trace;
    assert!(!trace.is_empty());
    // Slice numbers are dense from 0.
    for (i, r) in trace.iter().enumerate() {
        assert_eq!(r.slice, i as u64);
    }
    // Exactly one exchanged descriptor and one barrier across the run.
    let descs: u64 = trace.iter().map(|r| r.descriptors).sum();
    let colls: u64 = trace.iter().map(|r| r.collectives).sum();
    let bytes: u64 = trace.iter().map(|r| r.bytes).sum();
    assert_eq!(descs, 1);
    assert_eq!(colls, 1);
    assert_eq!(bytes, 2048);
    // The timeline renders only active slices.
    let timeline = bcs_mpi::trace::render_timeline(trace);
    assert!(timeline.contains("2048"));
    assert!(timeline.lines().count() < trace.len());
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    // Every rank simultaneously sendrecvs with its ring neighbour — the
    // classic pattern that deadlocks with blocking sends but not with
    // MPI_Sendrecv.
    let layout = JobLayout::new(4, 2, 8);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let n = mpi.size();
        let me = mpi.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let (data, st) = mpi.sendrecv(
            right,
            5,
            &[me as u8; 16],
            SrcSel::Rank(left),
            TagSel::Tag(5),
        ).await;
        assert_eq!(st.source, left);
        assert_eq!(data, vec![left as u8; 16]);
        true
    });
    assert!(out.results.iter().all(|&b| b));
}
