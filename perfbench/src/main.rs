//! perfbench — host-cost benchmark of the BCS-MPI simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--write-golden]
//! ```
//!
//! Runs one workload's fixed job set in a closed loop, one job at a time on
//! one thread, until `--seconds` have passed and at least [`MIN_JOBS`] jobs
//! have run. Every job's outputs are checked against an oracle and against
//! the first (warm-up) pass of the same job set; with the default seed they
//! are also checked against the committed golden record. Untraced
//! (`--trace 0`) the run reports the end-to-end metrics; traced
//! (`--trace 1`) it alternates untraced and traced passes and reports the
//! per-layer split. The last line of standard output is one JSON object.
//! See `README.md` for every metric.

mod calib;
mod record;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Agg, Span};
use workloads::{Counters, Job, Workload};

/// The seed whose job sets the golden records hold.
const DEFAULT_SEED: u64 = 1;
/// Fewest measured jobs in an untraced run: enough that the tail
/// percentile keeps ten jobs beyond it.
const MIN_JOBS: usize = 100;
/// A run stops starting job sets after this long whatever its job count,
/// so that even a much slower simulator finishes within its time limit.
const HARD_CAP: Duration = Duration::from_secs(140);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_golden: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_golden = false;
    while let Some(flag) = args.next() {
        if flag == "--write-golden" {
            write_golden = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        write_golden,
    })
}

/// Refuse variables that retarget the simulator's engines (`REPRO_*`) or
/// switch on its per-call stderr tracing (`BCS_TRACE_*`): the benchmark
/// pins its own configuration.
fn check_pinned_env(keys: impl Iterator<Item = String>) -> Result<(), String> {
    for key in keys {
        if key.starts_with("REPRO_") || key.starts_with("BCS_TRACE_") {
            return Err(format!(
                "environment variable {key} is set; the benchmark pins its own \
                 configuration and will not run with REPRO_* or BCS_TRACE_* set"
            ));
        }
    }
    Ok(())
}

/// One job of one pass, as the runner saw it. Times are raw host seconds;
/// `scale` turns them into calibrated seconds (see [`calib`]).
struct JobOutcome {
    secs: f64,
    scale: f64,
    setup_s: f64,
    sim_s: f64,
    canonical: Option<String>,
    counters: Counters,
    error: Option<String>,
}

/// One pass over the job set.
struct Pass {
    jobs: Vec<JobOutcome>,
    /// Ids of the pass's jobs in the span aggregates.
    first_id: u32,
}

impl Pass {
    /// Calibrated host time of the pass.
    fn wall_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.secs * j.scale).sum()
    }
    fn raw_wall_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.secs).sum()
    }
    /// Calibrated set-up time of the pass.
    fn setup_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.setup_s * j.scale).sum()
    }
    fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.error.is_some()).count()
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic payload".into())
}

struct Runner {
    jobs: Vec<Job>,
    next_id: u32,
    /// Canonical record of each job from its first successful pass.
    reference: Vec<Option<String>>,
}

impl Runner {
    fn pass(&mut self, traced: bool) -> Pass {
        let first_id = self.next_id;
        let mut out = Vec::with_capacity(self.jobs.len());
        for (i, job) in self.jobs.iter().enumerate() {
            let scale = calib::REFERENCE_S / calib::probe();
            trace::begin_job(self.next_id, traced);
            self.next_id += 1;
            let t = Instant::now();
            let res = panic::catch_unwind(AssertUnwindSafe(|| job.run(traced)));
            let secs = t.elapsed().as_secs_f64();
            trace::begin_job(0, false);
            let mut o = JobOutcome {
                secs,
                scale,
                setup_s: 0.0,
                sim_s: 0.0,
                canonical: None,
                counters: Counters::new(),
                error: None,
            };
            match res {
                Ok(Ok(run)) => {
                    let canon = run.record.canonical();
                    o.counters = run.counters;
                    o.counters
                        .insert("simcore.events", run.record.events as f64);
                    o.setup_s = run.setup.as_secs_f64();
                    o.sim_s = run.sim.as_secs_f64();
                    match &self.reference[i] {
                        Some(want) if *want != canon => {
                            o.error = Some(format!(
                                "{}: output differs from the first pass{}:\n  first {want}\n  now   {canon}",
                                job.label(),
                                if traced { " (traced run)" } else { "" }
                            ))
                        }
                        Some(_) => {}
                        None => self.reference[i] = Some(canon.clone()),
                    }
                    o.canonical = Some(canon);
                }
                Ok(Err(why)) => o.error = Some(why),
                Err(p) => {
                    o.error = Some(format!(
                        "{}: panicked: {}",
                        job.label(),
                        panic_text(p.as_ref())
                    ))
                }
            }
            if let Some(e) = &o.error {
                eprintln!("perfbench: job failed: {e}");
            }
            out.push(o);
        }
        Pass {
            jobs: out,
            first_id,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A named metric value with its unit.
type Metric = (String, &'static str, f64);

/// Per-layer metrics of one traced pass.
fn layer_metrics(pass: &Pass, aggs: &BTreeMap<(u32, Span), Agg>) -> Vec<Metric> {
    let mut c = Counters::new();
    let mut sim_s = 0.0;
    for j in &pass.jobs {
        for (k, v) in &j.counters {
            *c.entry(k).or_default() += v;
        }
        sim_s += j.sim_s;
    }
    let ids = pass.first_id..pass.first_id + pass.jobs.len() as u32;
    let mut spans: BTreeMap<Span, Agg> = BTreeMap::new();
    for ((_, span), a) in aggs.range((ids.start, Span::VmPoll)..(ids.end, Span::VmPoll)) {
        let s = spans.entry(*span).or_default();
        s.calls += a.calls;
        s.total += a.total;
        s.self_time += a.self_time;
        s.units += a.units;
        s.root += a.root;
    }
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let span = |s: Span| spans.get(&s).copied().unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let root_s: f64 = spans.values().map(|a| a.root.as_secs_f64()).sum();
    let events = get("simcore.events");

    let mut m: Vec<Metric> = vec![
        ("simcore.events".into(), "count", events),
        ("simcore.events_per_s".into(), "1/s", ratio(events, sim_s)),
        (
            "simcore.ns_per_event".into(),
            "ns",
            ratio(sim_s * 1e9, events),
        ),
        (
            "simcore.unattributed_s".into(),
            "s",
            (sim_s - root_s).max(0.0),
        ),
        (
            "simcore.vm.polls".into(),
            "count",
            span(Span::VmPoll).calls as f64,
        ),
        (
            "simcore.vm.poll_s".into(),
            "s",
            span(Span::VmPoll).total.as_secs_f64(),
        ),
    ];
    for (put, get_, mcast, cond) in [
        (
            Span::QsnetPut,
            Span::QsnetGet,
            Span::QsnetMulticast,
            Span::QsnetConditional,
        ),
        (
            Span::RdmaPut,
            Span::RdmaGet,
            Span::RdmaMulticast,
            Span::RdmaConditional,
        ),
    ] {
        for s in [put, get_] {
            let a = span(s);
            m.push((metric_name(s, "calls"), "count", a.calls as f64));
            m.push((metric_name(s, "self_s"), "s", a.self_time.as_secs_f64()));
            m.push((metric_name(s, "bytes"), "B", a.units as f64));
        }
        let a = span(mcast);
        m.push((metric_name(mcast, "calls"), "count", a.calls as f64));
        m.push((metric_name(mcast, "self_s"), "s", a.self_time.as_secs_f64()));
        m.push((metric_name(mcast, "deliveries"), "count", a.units as f64));
        let a = span(cond);
        m.push((metric_name(cond, "calls"), "count", a.calls as f64));
        m.push((metric_name(cond, "self_s"), "s", a.self_time.as_secs_f64()));
    }
    for s in [Span::CoreDeliveryCb, Span::CoreMcastDestCb] {
        let a = span(s);
        m.push((metric_name(s, "calls"), "count", a.calls as f64));
        m.push((metric_name(s, "self_s"), "s", a.self_time.as_secs_f64()));
    }
    let slices = get("core.slices");
    m.extend([
        ("core.slices".into(), "count", slices),
        ("core.descriptors".into(), "count", get("core.descriptors")),
        ("core.matches".into(), "count", get("core.matches")),
        ("core.chunks".into(), "count", get("core.chunks")),
        ("core.p2p_bytes".into(), "B", get("core.p2p_bytes")),
        ("core.barriers".into(), "count", get("core.barriers")),
        ("core.reduces".into(), "count", get("core.reduces")),
        (
            "core.events_per_slice".into(),
            "count",
            ratio(get("core.events"), slices),
        ),
        (
            "core.schedule.compiles".into(),
            "count",
            get("core.schedule.compiles"),
        ),
        (
            "core.schedule.replays".into(),
            "count",
            get("core.schedule.replays"),
        ),
        (
            "core.schedule.invalidations".into(),
            "count",
            get("core.schedule.invalidations"),
        ),
        (
            "core.schedule.replay_ratio".into(),
            "ratio",
            ratio(get("core.schedule.replays"), get("core.node_slices")),
        ),
        (
            "core.checkpoint.images".into(),
            "count",
            get("core.checkpoint.images"),
        ),
        (
            "core.checkpoint.image_bytes".into(),
            "B",
            get("core.checkpoint.image_bytes"),
        ),
    ]);
    let q = span(Span::QuadricsDeliveryCb);
    m.push((
        "quadrics-mpi.delivery_cb.calls".into(),
        "count",
        q.calls as f64,
    ));
    m.push((
        "quadrics-mpi.delivery_cb.self_s".into(),
        "s",
        q.self_time.as_secs_f64(),
    ));
    let folds = get("softfloat.fold_ops");
    m.push(("softfloat.fold_ops".into(), "count", folds));
    m.push((
        "softfloat.ns_per_fold".into(),
        "ns",
        ratio(
            (span(Span::CoreDeliveryCb).self_time + span(Span::CoreMcastDestCb).self_time)
                .as_secs_f64()
                * 1e9,
            folds,
        ),
    ));
    m.extend([
        ("faultsim.recover_s".into(), "s", get("faultsim.recover_s")),
        (
            "faultsim.reference_s".into(),
            "s",
            get("faultsim.reference_s"),
        ),
        (
            "faultsim.restarts".into(),
            "count",
            get("faultsim.restarts"),
        ),
        (
            "faultsim.detections".into(),
            "count",
            get("faultsim.detections"),
        ),
        (
            "faultsim.overhead_ratio".into(),
            "ratio",
            ratio(get("faultsim.recover_s"), get("faultsim.reference_s")),
        ),
    ]);
    m
}

/// `<span name>.<field>`.
fn metric_name(span: Span, field: &str) -> String {
    format!("{}.{field}", span.name())
}

/// Write the span aggregates, one line per (job, span name).
fn write_spans(
    w: Workload,
    jobs: &[Job],
    aggs: &BTreeMap<(u32, Span), Agg>,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut text = String::from("job\tlabel\tspan\tcalls\ttotal_s\tself_s\tunits\n");
    for ((job, span), a) in aggs {
        let label = jobs[*job as usize % jobs.len()].label();
        writeln!(
            text,
            "{job}\t{label}\t{}\t{}\t{:.9}\t{:.9}\t{}",
            span.name(),
            a.calls,
            a.total.as_secs_f64(),
            a.self_time.as_secs_f64(),
            a.units
        )
        .expect("writing to a String cannot fail");
    }
    std::fs::write(dir.join(format!("spans_{}.tsv", w.name())), text)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--write-golden]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) =
        check_pinned_env(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()))
    {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    run(args)
}

fn run(args: Args) -> ExitCode {
    let w = args.workload;
    let jobs = w.jobs(args.seed);
    let mut d = Runner {
        reference: vec![None; jobs.len()],
        jobs,
        next_id: 0,
    };
    let mut problems: Vec<String> = Vec::new();

    // Warm-up pass: fills the allocator and caches, and fixes the records
    // every later pass must reproduce. Not measured.
    let warm = d.pass(false);
    problems.extend(warm.jobs.iter().filter_map(|j| j.error.clone()));
    let records: Vec<String> = warm
        .jobs
        .iter()
        .map(|j| j.canonical.clone().unwrap_or_default())
        .collect();
    if args.write_golden {
        if args.seed != DEFAULT_SEED || !problems.is_empty() {
            eprintln!("perfbench: golden records come from a clean pass with seed {DEFAULT_SEED}");
            return ExitCode::FAILURE;
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.txt", w.name()));
        let text: String = records.iter().map(|r| format!("{r}\n")).collect();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    if args.seed == DEFAULT_SEED && problems.is_empty() {
        if let Err(e) = record::compare_golden(w.golden(), &records) {
            problems.push(format!("golden record of {}: {e}", w.name()));
        }
    }

    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let el = t0.elapsed();
        let jobs_done: usize = untraced.iter().map(|p| p.jobs.len()).sum();
        let enough = if args.trace {
            traced.len() >= 2
        } else {
            jobs_done >= MIN_JOBS
        };
        if (el >= budget && enough) || el >= HARD_CAP {
            break;
        }
        untraced.push(d.pass(false));
        if args.trace {
            traced.push(d.pass(true));
        }
    }
    let aggs = trace::take_aggs();

    let attempted: usize = untraced.iter().chain(&traced).map(|p| p.jobs.len()).sum();
    let failed: usize = untraced.iter().chain(&traced).map(Pass::failed).sum();
    for p in untraced.iter().chain(&traced) {
        problems.extend(p.jobs.iter().filter_map(|j| j.error.clone()));
    }
    let walls: Vec<f64> = untraced.iter().map(Pass::wall_s).collect();
    let mut report = format!(
        "perfbench workload={} seed={} trace={} passes={} jobs_per_pass={} attempted={attempted} failed={failed}\n",
        w.name(),
        args.seed,
        u8::from(args.trace),
        untraced.len() + traced.len(),
        d.jobs.len()
    );

    let metrics: Vec<Metric> = if !args.trace {
        let tail = stats::tail_percentile(MIN_JOBS).expect("MIN_JOBS leaves room for a tail");
        let job_s: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.jobs.iter().map(|j| j.secs * j.scale))
            .collect();
        if job_s.len() < MIN_JOBS {
            problems.push(format!(
                "only {} jobs ran before the {}s cap; job_s.tail has fewer than 10 jobs beyond it",
                job_s.len(),
                HARD_CAP.as_secs()
            ));
        }
        for (i, job) in d.jobs.iter().enumerate() {
            let xs: Vec<f64> = untraced.iter().map(|p| p.jobs[i].secs).collect();
            writeln!(
                report,
                "  job {:<28} median {:.6} s (raw)",
                job.label(),
                stats::median(&xs)
            )
            .expect("writing to a String cannot fail");
        }
        let raw: Vec<f64> = untraced.iter().map(Pass::raw_wall_s).collect();
        let probes: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.jobs.iter().map(|j| calib::REFERENCE_S / j.scale))
            .collect();
        writeln!(
            report,
            "  raw wall_s {:.6} s; calibration probe median {:.6} s (reference {} s)",
            stats::mean(&raw),
            stats::median(&probes),
            calib::REFERENCE_S
        )
        .expect("writing to a String cannot fail");
        let setups: Vec<f64> = untraced.iter().map(Pass::setup_s).collect();
        let failed_ratio = failed as f64 / attempted.max(1) as f64;
        writeln!(
            report,
            "  job_s.tail is p{tail} of {} jobs; failed_ratio {failed_ratio} ratio",
            job_s.len()
        )
        .expect("writing to a String cannot fail");
        vec![
            ("wall_s".into(), "s", stats::mean(&walls)),
            ("job_s.p50".into(), "s", stats::percentile(&job_s, 50)),
            ("job_s.tail".into(), "s", stats::percentile(&job_s, tail)),
            ("setup_s".into(), "s", stats::median(&setups)),
            ("peak_rss_mb".into(), "MiB", peak_rss_mb().unwrap_or(0.0)),
        ]
    } else {
        let per_pass: Vec<Vec<Metric>> = traced.iter().map(|p| layer_metrics(p, &aggs)).collect();
        let mut m: Vec<Metric> = per_pass[0]
            .iter()
            .enumerate()
            .map(|(i, (name, unit, _))| {
                let xs: Vec<f64> = per_pass.iter().map(|p| p[i].2).collect();
                (name.clone(), *unit, stats::median(&xs))
            })
            .collect();
        let traced_walls: Vec<f64> = traced.iter().map(Pass::wall_s).collect();
        m.push((
            "trace.overhead_ratio".into(),
            "ratio",
            stats::mean(&traced_walls) / stats::mean(&walls),
        ));
        writeln!(
            report,
            "  untraced wall_s {} s, traced wall_s {} s (means of {} passes each)",
            stats::mean(&walls),
            stats::mean(&traced_walls),
            traced.len()
        )
        .expect("writing to a String cannot fail");
        if let Err(e) = write_spans(w, &d.jobs, &aggs) {
            eprintln!("perfbench: cannot write the span table: {e}");
        }
        m
    };

    for (name, unit, value) in &metrics {
        writeln!(report, "  {name:<34} {value:>18.9} {unit}")
            .expect("writing to a String cannot fail");
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    print!("{report}");
    let correct = problems.is_empty() && metrics.iter().all(|m| m.2.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload halo_p2p --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::HaloP2p);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.write_golden),
            (7, 20, true, false)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload slice_idle --trace 2").is_err());
        assert!(args("--workload slice_idle --seed").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload slice_idle --frobnicate 1").is_err());
    }

    #[test]
    fn refuses_engine_and_trace_overrides() {
        let env = |k: &str| ["HOME".to_string(), k.to_string()].into_iter();
        for k in [
            "REPRO_FABRIC",
            "REPRO_COLL",
            "BCS_TRACE_P2P",
            "BCS_TRACE_PHASES",
        ] {
            let err = check_pinned_env(env(k)).expect_err(k);
            assert!(err.contains(k), "the message must name {k}: {err}");
        }
        assert!(check_pinned_env(env("CARGO_TARGET_DIR")).is_ok());
    }
}
