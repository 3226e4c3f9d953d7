//! Simulator-cost benchmarks: discrete-event throughput of the core engine
//! and the real-time cost of one BCS time slice (the fixed protocol
//! machinery every 500 µs of virtual time).
//!
//! Every benchmark is a deterministic simulation, so its event count is
//! measured once up front and each row reports an events/sec throughput
//! alongside the per-iteration times — the comparable figure for event
//! queue changes.
//!
//! Two of the rows are *gated pairs* (enforced here, run by
//! `scripts/verify.sh` through [`bench::gate::check_speedup`]):
//!
//! * `match_16384_recvs_{indexed,linear_ref}` — the indexed descriptor
//!   matcher against the retained linear-scan reference at 16384 posted
//!   receives; the index must be at least 5x faster. (The scan's per-entry
//!   cost is sub-nanosecond — a predictable branch over a flat vector — so
//!   the O(n log n) index needs thousands of posted receives before its
//!   asymptotic win clears 5x; near n = 1024 the two are at parity.)
//! * `ckpt_image_capture_{incremental,deep_clone}` — re-capturing a
//!   checkpoint image by copy-on-write sharing against the old
//!   field-for-field deep clone; sharing must be at least 5x faster.
//!
//! Run offline: `cargo run --release -p bench --bin engine_throughput
//! [-- --quick]`. Emits `reports/microbench_engine_throughput.csv`.

use bcs_mpi::match_index::reference::LinearRecvList;
use bcs_mpi::match_index::{RecvIndex, RecvSel, SendKey};
use bench::micro::Micro;
use mpi_api::AsyncMpi;
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{Backend, JobLayout, RunOpts, run_program, run_program_hooked};
use simcore::{Sim, SimDuration, SimTime};
use std::hint::black_box;

fn idle_slices() -> u64 {
    // 100 ms of virtual time = 200 empty slices on a 16-node cluster:
    // measures the strobe/poll machinery cost.
    let layout = JobLayout::new(16, 2, 32);
    let out = run_program(
        bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout),
        layout,
        |mut mpi: AsyncMpi| async move { mpi.compute(SimDuration::millis(100)).await },
    );
    black_box(out.events)
}

fn burst_62ranks() -> u64 {
    // 62-rank allreduce + neighbour exchange: end-to-end engine cost.
    let layout = JobLayout::crescendo(62);
    let out = run_program(
        bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout),
        layout,
        |mut mpi: AsyncMpi| async move {
            let peer = (mpi.rank() + 1) % mpi.size();
            let from = (mpi.rank() + mpi.size() - 1) % mpi.size();
            let s = mpi.isend(peer, 1, &[0u8; 4096]).await;
            let r = mpi
                .irecv(
                    mpi_api::message::SrcSel::Rank(from),
                    mpi_api::message::TagSel::Tag(1),
                )
                .await;
            mpi.waitall(&[s, r]).await;
            mpi.allreduce_i64(mpi_api::datatype::ReduceOp::Sum, &[1])
                .await
        },
    );
    black_box(out.events)
}

/// Deterministic large-N matching workload: `n` distinct exact receives
/// (dense (src, tag) collisions across 4 destination ranks) plus a small
/// wildcard tail, then `n` send envelopes delivered in *reverse* post order
/// — the worst case for a front-to-back scan — with every 8th send matching
/// nothing but the wildcard tail. Both matchers process the identical
/// stream; `tests/match_equivalence.rs` proves their outcomes identical, so
/// the pair differs only in data-structure cost.
fn match_streams(n: usize) -> (Vec<RecvSel>, Vec<SendKey>) {
    let mut recvs = Vec::with_capacity(n + n / 64);
    for i in 0..n {
        recvs.push(RecvSel {
            dst_rank: i % 4,
            src: SrcSel::Rank(i / 4 % 8),
            tag: TagSel::Tag((i / 32) as i32),
        });
    }
    for i in 0..n / 64 {
        recvs.push(RecvSel {
            dst_rank: i % 4,
            src: SrcSel::Any,
            tag: TagSel::Any,
        });
    }
    let mut sends = Vec::with_capacity(n);
    for i in (0..n).rev() {
        if i % 8 == 3 {
            // No exact receive selects tag 1_000_000: only a wildcard (or
            // nothing, once the tail is consumed) can absorb it.
            sends.push(SendKey {
                dst_rank: i % 4,
                src_rank: i / 4 % 8,
                tag: 1_000_000,
            });
        } else {
            sends.push(SendKey {
                dst_rank: i % 4,
                src_rank: i / 4 % 8,
                tag: (i / 32) as i32,
            });
        }
    }
    (recvs, sends)
}

fn match_indexed(recvs: &[RecvSel], sends: &[SendKey]) -> usize {
    let mut idx: RecvIndex<usize> = RecvIndex::new();
    for (i, sel) in recvs.iter().enumerate() {
        idx.post(*sel, i);
    }
    let mut matched = 0usize;
    for k in sends {
        if idx.match_first(k).is_some() {
            matched += 1;
        }
    }
    matched
}

fn match_linear(recvs: &[RecvSel], sends: &[SendKey]) -> usize {
    let mut list: LinearRecvList<usize> = LinearRecvList::new();
    for (i, sel) in recvs.iter().enumerate() {
        list.post(*sel, i);
    }
    let mut matched = 0usize;
    for k in sends {
        if list.match_first(k).is_some() {
            matched += 1;
        }
    }
    matched
}

/// A mid-run checkpoint image with real weight behind it: chunked 1 MiB
/// transfers in flight (two outstanding per rank), megabytes of parked
/// payloads, open requests and a populated response log. Of the per-slice
/// images the run produces, the one referencing the most payload bytes is
/// the benchmark subject — that is the image whose deep clone pays the
/// memcpys the copy-on-write capture avoids.
fn checkpoint_image_fixture() -> bcs_mpi::CheckpointImage {
    let layout = JobLayout::new(4, 2, 8);
    let mut cfg = bcs_mpi::BcsConfig::default();
    cfg.checkpoint_every = Some(1);
    cfg.checkpoint_images = true;
    let out = run_program_hooked(
        bcs_mpi::BcsMpi::new(cfg, &layout),
        layout,
        |mut mpi: AsyncMpi| async move {
            let peer = (mpi.rank() + 1) % mpi.size();
            let from = (mpi.rank() + mpi.size() - 1) % mpi.size();
            for it in 0..3i32 {
                let s0 = mpi.isend(peer, it * 2, &vec![0x5Au8; 1024 * 1024]).await;
                let s1 = mpi
                    .isend(peer, it * 2 + 1, &vec![0xA5u8; 1024 * 1024])
                    .await;
                let r0 = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it * 2)).await;
                let r1 = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it * 2 + 1)).await;
                mpi.waitall(&[s0, s1, r0, r1]).await;
            }
        },
        |w, _| w.set_recording(true),
        RunOpts::default(),
        Backend::Vm,
    );
    assert!(out.completed, "fixture job must complete");
    let img = out
        .engine
        .images
        .into_iter()
        .max_by_key(|img| img.payload_bytes())
        .expect("fixture run produced no images");
    assert!(
        img.payload_bytes() > 1024 * 1024,
        "fixture image too light: {} payload bytes",
        img.payload_bytes()
    );
    img
}

fn main() {
    let mut m = Micro::from_args("engine_throughput");

    m.bench_rated("engine", "sim_10k_events", 10_000.0, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        for i in 0..10_000u64 {
            sim.schedule_at(SimTime(i), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        black_box(world)
    });

    let events = idle_slices();
    m.bench_rated(
        "engine",
        "bcs_200_idle_slices_16nodes",
        events as f64,
        idle_slices,
    );

    let events = burst_62ranks();
    m.bench_rated("engine", "bcs_burst_62ranks", events as f64, burst_62ranks);

    // Gated pair 1: indexed descriptor matching vs the linear reference at
    // 16384 posted receives. Rated by matching events (posts + deliveries).
    const MATCH_N: usize = 16384;
    let (recvs, sends) = match_streams(MATCH_N);
    assert_eq!(
        match_indexed(&recvs, &sends),
        match_linear(&recvs, &sends),
        "matchers disagree; run tests/match_equivalence.rs"
    );
    let ops = (recvs.len() + sends.len()) as f64;
    let indexed_ns = {
        let (r, s) = (recvs.clone(), sends.clone());
        m.bench_rated("engine", "match_16384_recvs_indexed", ops, move || {
            black_box(match_indexed(&r, &s))
        })
        .median_ns
    };
    let linear_ns = {
        let (r, s) = (recvs.clone(), sends.clone());
        m.bench_rated("engine", "match_16384_recvs_linear_ref", ops, move || {
            black_box(match_linear(&r, &s))
        })
        .median_ns
    };

    // Gated pair 2: copy-on-write image re-capture vs the old deep clone.
    let img = checkpoint_image_fixture();
    let incremental_ns = {
        let img = img.clone();
        m.bench("engine", "ckpt_image_capture_incremental", move || {
            black_box(img.clone())
        })
        .median_ns
    };
    let deep_ns = {
        let img = img.clone();
        m.bench("engine", "ckpt_image_capture_deep_clone", move || {
            black_box(img.materialize())
        })
        .median_ns
    };

    m.finish();

    let mut failed = false;
    for (name, base, new) in [
        ("indexed matching (16384 recvs)", linear_ns, indexed_ns),
        ("incremental image capture", deep_ns, incremental_ns),
    ] {
        match bench::gate::check_speedup(name, base, new, 5.0) {
            Ok(s) => println!("  gate: {name} {s}"),
            Err(e) => {
                eprintln!("  GATE FAILED: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
