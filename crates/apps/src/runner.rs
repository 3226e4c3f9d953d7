//! Run a workload on either MPI engine and report its runtime.

use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::coll_sched::CollAlgo;
use mpi_api::RankProgram;
use mpi_api::runtime::{JobLayout, RunOpts, run_program_opts};
use qsnet::FabricKind;
use quadrics_mpi::{QuadricsConfig, QuadricsMpi};
use simcore::SimDuration;
use std::fmt;

/// Which MPI implementation to run on.
#[derive(Clone)]
pub enum EngineSel {
    Bcs(BcsConfig),
    Quadrics(QuadricsConfig),
}

impl EngineSel {
    pub fn bcs() -> EngineSel {
        EngineSel::Bcs(BcsConfig::default())
    }

    pub fn quadrics() -> EngineSel {
        EngineSel::Quadrics(QuadricsConfig::default())
    }

    pub fn name(&self) -> &'static str {
        match self {
            EngineSel::Bcs(_) => "BCS-MPI",
            EngineSel::Quadrics(_) => "Quadrics MPI",
        }
    }
}

/// Result of one application run.
pub struct AppOutcome<R> {
    /// Virtual wall time of the job.
    pub elapsed: SimDuration,
    /// Per-rank results (verification values).
    pub results: Vec<R>,
    /// Discrete events executed (simulation cost diagnostic).
    pub events: u64,
}

/// An environment variable held a value outside its accepted option set.
/// Carried instead of silently falling back to a default, so a typo like
/// `REPRO_FABRIC=rmda` aborts the run rather than quietly benchmarking the
/// wrong interconnect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvOptionError {
    /// The environment variable that was set.
    pub var: &'static str,
    /// The rejected value.
    pub got: String,
    /// Every accepted spelling (unset always means the first entry).
    pub valid: &'static [&'static str],
}

impl fmt::Display for EnvOptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is not a recognized option; valid values: {} (unset defaults to {:?})",
            self.var,
            self.got,
            self.valid.join(", "),
            self.valid[0]
        )
    }
}

impl std::error::Error for EnvOptionError {}

/// Interconnect override for app runs: `REPRO_FABRIC=rdma` retargets every
/// engine onto the RDMA-channel fabric (software-emulated collectives),
/// `qsnet` forces the Quadrics-class fabric, and unset leaves each
/// experiment's explicitly configured fabric untouched. Any other value is
/// rejected with [`EnvOptionError`]. One of the sanctioned env-read sites
/// (detlint D04).
pub fn fabric_from_env() -> Result<Option<FabricKind>, EnvOptionError> {
    match std::env::var("REPRO_FABRIC") {
        Ok(v) if v == "qsnet" => Ok(Some(FabricKind::QsNet)),
        Ok(v) if v == "rdma" => Ok(Some(FabricKind::Rdma)),
        Ok(v) => Err(EnvOptionError {
            var: "REPRO_FABRIC",
            got: v,
            valid: &["qsnet", "rdma"],
        }),
        Err(_) => Ok(None),
    }
}

/// Collective-algorithm override for app runs: `REPRO_COLL=hw-multicast`,
/// `binomial` or `optimal` forces the wire schedule on every engine
/// ([`mpi_api::coll_sched::CollAlgo`]); unset leaves each experiment's
/// configured algorithm untouched. Value-plane results are bit-identical
/// under all three, so this only moves the clock. Any other value is
/// rejected with [`EnvOptionError`]. One of the sanctioned env-read sites
/// (detlint D04).
pub fn coll_algo_from_env() -> Result<Option<CollAlgo>, EnvOptionError> {
    match std::env::var("REPRO_COLL") {
        Ok(v) => match CollAlgo::from_label(&v) {
            Some(algo) => Ok(Some(algo)),
            None => Err(EnvOptionError {
                var: "REPRO_COLL",
                got: v,
                valid: &["hw-multicast", "binomial", "optimal"],
            }),
        },
        Err(_) => Ok(None),
    }
}

/// Execute `program` as an MPI job on the selected engine.
pub fn run_app<P: RankProgram>(sel: &EngineSel, layout: JobLayout, program: P) -> AppOutcome<P::Out> {
    // A generous livelock guard: no experiment in the suite runs longer
    // than an hour of virtual time.
    let opts = RunOpts {
        max_virtual: Some(SimDuration::secs(3600)),
    };
    let fabric = fabric_from_env().unwrap_or_else(|e| panic!("{e}"));
    let coll = coll_algo_from_env().unwrap_or_else(|e| panic!("{e}"));
    match sel {
        EngineSel::Bcs(cfg) => {
            let mut cfg = cfg.clone();
            if let Some(kind) = fabric {
                cfg.fabric = kind;
            }
            if let Some(algo) = coll {
                cfg.coll_algo = algo;
            }
            let out = run_program_opts(BcsMpi::new(cfg, &layout), layout, program, opts);
            AppOutcome {
                elapsed: out.elapsed,
                results: out.results,
                events: out.events,
            }
        }
        EngineSel::Quadrics(cfg) => {
            let mut cfg = cfg.clone();
            if let Some(kind) = fabric {
                cfg.fabric = kind;
            }
            if let Some(algo) = coll {
                cfg.coll_algo = algo;
            }
            let out = run_program_opts(QuadricsMpi::new(cfg, &layout), layout, program, opts);
            AppOutcome {
                elapsed: out.elapsed,
                results: out.results,
                events: out.events,
            }
        }
    }
}

/// Percentage slowdown of `bcs` relative to `quadrics`
/// (positive = BCS-MPI slower, the convention of the paper's Table 2).
pub fn slowdown_pct(bcs: SimDuration, quadrics: SimDuration) -> f64 {
    (bcs.as_secs_f64() / quadrics.as_secs_f64() - 1.0) * 100.0
}

/// Near-square process grid `(px, py)` with `px * py == n` and `px <= py`.
pub fn grid_dims(n: usize) -> (usize, usize) {
    let mut best = (1, n);
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            best = (d, n / d);
        }
        d += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dims_near_square() {
        assert_eq!(grid_dims(62), (2, 31));
        assert_eq!(grid_dims(64), (8, 8));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(7), (1, 7));
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn env_option_error_names_the_valid_options() {
        let e = EnvOptionError {
            var: "REPRO_FABRIC",
            got: "rmda".to_string(),
            valid: &["qsnet", "rdma"],
        };
        let msg = e.to_string();
        assert!(msg.contains("REPRO_FABRIC"));
        assert!(msg.contains("rmda"));
        assert!(msg.contains("qsnet, rdma"));
        assert!(msg.contains("defaults to \"qsnet\""));
    }

    #[test]
    fn repro_coll_error_names_every_algorithm() {
        let e = EnvOptionError {
            var: "REPRO_COLL",
            got: "bogus".to_string(),
            valid: &["hw-multicast", "binomial", "optimal"],
        };
        let msg = e.to_string();
        assert!(msg.contains("REPRO_COLL"));
        assert!(msg.contains("hw-multicast, binomial, optimal"));
        assert!(msg.contains("defaults to \"hw-multicast\""));
        // The error's option list is exactly the label set `from_label`
        // accepts.
        for label in e.valid {
            assert!(CollAlgo::from_label(label).is_some());
        }
        assert!(CollAlgo::from_label("bogus").is_none());
    }

    #[test]
    fn slowdown_sign_convention() {
        assert!(slowdown_pct(SimDuration::secs(11), SimDuration::secs(10)) > 9.9);
        assert!(slowdown_pct(SimDuration::secs(9), SimDuration::secs(10)) < 0.0);
    }
}
