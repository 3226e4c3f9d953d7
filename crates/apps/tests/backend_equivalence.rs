//! Golden replay: the rank-execution backend is unobservable.
//!
//! The thread-per-rank harness this repository used to carry (one parked OS
//! thread per rank) was removed in favour of the stackless VM. Before it
//! went, its observations for a fixed corpus of 20 generated rank programs
//! were frozen in `golden/rank_backend.txt`: per-rank results, per-rank
//! finish times, elapsed virtual time and, on BCS-MPI, the slice-boundary
//! checkpoint digest stream — on both engines. Every record is replayed
//! here on the VM and must match bit for bit. The programs mix compute,
//! barriers, ranked and wildcard receives, waitalls, and allreduces.
//!
//! The corpus is data, not a generator: no change to a strategy or seed
//! derivation can silently swap it. Event counts are host-side cost, not
//! observable behaviour, and are deliberately not part of the records.

use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::datatype::ReduceOp;
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{JobLayout, run_program};
use mpi_api::{AsyncMpi, RankProgram};
use quadrics_mpi::{QuadricsConfig, QuadricsMpi};
use simcore::{SimDuration, SimTime};
use std::fmt::Write as _;

/// The frozen corpus: one record per script, produced on the thread backend.
const GOLDEN: &str = include_str!("golden/rank_backend.txt");

/// One randomized rank program.
#[derive(Clone, Copy, Debug)]
struct Script {
    ranks: usize,
    iters: u64,
    granularity_us: u32,
    msg_bytes: usize,
    /// Ring neighbours messaged per iteration (always < ranks).
    fanout: usize,
    /// Whether each iteration globally synchronizes after computing.
    barrier: bool,
    /// Receive with `SrcSel::Any` instead of naming the source rank.
    wildcard: bool,
    /// Fold an allreduce into each iteration's checksum.
    reduce: bool,
}

impl Script {
    /// Parse a record's first line (see [`Script::header`]).
    fn parse(header: &str) -> Script {
        let mut fields = header.strip_prefix("script ").expect("record header").split(' ');
        let mut next = |key: &str| -> &str {
            let field = fields.next().unwrap_or_else(|| panic!("{key} missing in {header:?}"));
            field
                .strip_prefix(key)
                .and_then(|f| f.strip_prefix('='))
                .unwrap_or_else(|| panic!("expected {key}=... in {header:?}"))
        };
        let script = Script {
            ranks: next("ranks").parse().unwrap(),
            iters: next("iters").parse().unwrap(),
            granularity_us: next("granularity_us").parse().unwrap(),
            msg_bytes: next("msg_bytes").parse().unwrap(),
            fanout: next("fanout").parse().unwrap(),
            barrier: next("barrier").parse().unwrap(),
            wildcard: next("wildcard").parse().unwrap(),
            reduce: next("reduce").parse().unwrap(),
        };
        assert_eq!(script.header(), header, "header does not round-trip");
        script
    }

    /// The record's first line: every field, `key=value`.
    fn header(&self) -> String {
        format!(
            "script ranks={} iters={} granularity_us={} msg_bytes={} fanout={} \
             barrier={} wildcard={} reduce={}",
            self.ranks,
            self.iters,
            self.granularity_us,
            self.msg_bytes,
            self.fanout,
            self.barrier,
            self.wildcard,
            self.reduce
        )
    }
}

fn program(s: Script) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| async move {
        let (me, n) = (mpi.rank(), mpi.size());
        let payload: Vec<u8> = (0..s.msg_bytes).map(|i| (me + i) as u8).collect();
        let mut checksum = 0u64;
        for it in 0..s.iters {
            mpi.compute(SimDuration::micros(s.granularity_us as u64)).await;
            if s.barrier {
                mpi.barrier().await;
            }
            let tag = it as i32;
            let mut reqs = Vec::new();
            for o in 1..=s.fanout {
                reqs.push(mpi.isend((me + o) % n, tag, &payload).await);
            }
            for o in 1..=s.fanout {
                let src = if s.wildcard {
                    SrcSel::Any
                } else {
                    SrcSel::Rank((me + n - o) % n)
                };
                reqs.push(mpi.irecv(src, TagSel::Tag(tag)).await);
            }
            let results = mpi.waitall(&reqs).await;
            for (data, status) in &results[s.fanout..] {
                let d = data.as_ref().expect("recv payload");
                let src = status.as_ref().expect("recv status").source as u64;
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(d[0] as u64)
                    .wrapping_add(d[d.len() - 1] as u64)
                    .wrapping_add(src);
            }
            if s.reduce {
                let red = mpi.allreduce_i64(ReduceOp::Sum, &[checksum as i64]).await;
                checksum = checksum.wrapping_add(red[0] as u64);
            }
        }
        checksum
    }
}

fn layout(ranks: usize) -> JobLayout {
    JobLayout::new(ranks.div_ceil(2), 2, ranks)
}

fn join<T: std::fmt::Display>(xs: impl IntoIterator<Item = T>) -> String {
    xs.into_iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ")
}

/// One engine run, rendered as the record's lines for `engine`: per-rank
/// results, per-rank finish times and elapsed virtual time, plus (BCS only)
/// the slice-boundary checkpoint digest stream. Event counts are host-side
/// cost, not observable behaviour, and are deliberately not frozen.
fn render_run(
    out: &mut String,
    engine: &str,
    results: &[u64],
    finish_times: &[SimTime],
    elapsed: SimDuration,
    checkpoints: Option<&[(u64, u64)]>,
) {
    writeln!(out, "{engine}.results {}", join(results)).unwrap();
    writeln!(
        out,
        "{engine}.finish_ns {}",
        join(finish_times.iter().map(|t| t.as_nanos()))
    )
    .unwrap();
    writeln!(out, "{engine}.elapsed_ns {}", elapsed.as_nanos()).unwrap();
    if let Some(cps) = checkpoints {
        writeln!(
            out,
            "{engine}.checkpoints {}",
            join(cps.iter().map(|(slice, digest)| format!("{slice}:{digest:#018x}")))
        )
        .unwrap();
    }
}

/// Run `s` on both engines and render the record.
fn observe(s: Script) -> String {
    let mut rec = s.header();
    rec.push('\n');
    let lay = layout(s.ranks);
    let mut cfg = BcsConfig::default();
    cfg.checkpoint_every = Some(2);
    let bcs = run_program(BcsMpi::new(cfg, &lay), lay.clone(), program(s));
    render_run(
        &mut rec,
        "bcs",
        &bcs.results,
        &bcs.finish_times,
        bcs.elapsed,
        Some(&bcs.engine.checkpoints),
    );
    let q = run_program(
        QuadricsMpi::new(QuadricsConfig::default(), &lay),
        lay,
        program(s),
    );
    render_run(&mut rec, "quadrics", &q.results, &q.finish_times, q.elapsed, None);
    rec
}

/// Golden records, in corpus order (blank-line separated; `#` lines are
/// commentary).
fn golden_records() -> Vec<String> {
    let body: String = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    body.split("\n\n")
        .map(|r| r.trim_matches('\n'))
        .filter(|r| !r.is_empty())
        .map(|r| format!("{r}\n"))
        .collect()
}

#[test]
fn golden_corpus_holds_twenty_distinct_scripts() {
    let recs = golden_records();
    assert_eq!(recs.len(), 20);
    let mut headers: Vec<&str> = recs.iter().map(|r| r.lines().next().unwrap()).collect();
    headers.sort_unstable();
    headers.dedup();
    assert_eq!(headers.len(), 20, "duplicate scripts in the golden corpus");
}

#[test]
fn vm_replays_the_frozen_thread_backend_corpus() {
    for (i, golden) in golden_records().iter().enumerate() {
        let script = Script::parse(golden.lines().next().expect("non-empty record"));
        let got = observe(script);
        for (g, v) in golden.lines().zip(got.lines()) {
            assert_eq!(v, g, "record {i} diverges from the golden corpus");
        }
        assert_eq!(got.lines().count(), golden.lines().count(), "record {i} shape");
    }
}
