//! What a job produced, in a form that can be compared byte for byte.
//!
//! A record holds the model's outputs only: per-rank results, virtual
//! elapsed time, per-rank virtual finish times and the final checkpoint
//! digest. Host-side figures such as the event count ride along for the
//! report but are never compared, because a faster simulator may legally
//! execute fewer events for the same outputs.

use std::fmt::Write as _;

/// FNV-1a folded a whole word at a time. Each step is a bijection of the
/// running hash, so changing any one word always changes the result.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Which job of the workload's job set.
    pub label: String,
    /// Per-rank results, one word each.
    pub results: Vec<u64>,
    /// Virtual time at which the job finished, in ns.
    pub elapsed_ns: u64,
    /// Per-rank virtual finish times in ns; empty where the entry point
    /// does not report them.
    pub finish_ns: Vec<u64>,
    /// `checkpoint_digest()` of the final BCS-MPI engine; `None` on the
    /// Quadrics engine, which has no checkpoint state.
    pub digest: Option<u64>,
    /// Discrete events executed. Informational, never compared.
    pub events: u64,
}

impl JobRecord {
    /// The compared fields as one line: the form golden files store and
    /// the traced run must reproduce byte for byte.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{} ranks={} results={:016x} elapsed_ns={} finish={:016x}/{} digest=",
            self.label,
            self.results.len(),
            fnv(self.results.iter().copied()),
            self.elapsed_ns,
            fnv(self.finish_ns.iter().copied()),
            self.finish_ns.len(),
        )
        .expect("writing to a String cannot fail");
        match self.digest {
            Some(d) => write!(s, "{d:016x}").expect("writing to a String cannot fail"),
            None => s.push('-'),
        }
        s
    }
}

/// Compare a job set's canonical records with a golden file's lines.
pub fn compare_golden(golden: &str, records: &[String]) -> Result<(), String> {
    let want: Vec<&str> = golden.lines().filter(|l| !l.trim().is_empty()).collect();
    if want.len() != records.len() {
        return Err(format!(
            "golden record has {} jobs, the job set has {}",
            want.len(),
            records.len()
        ));
    }
    for (w, got) in want.iter().zip(records) {
        if got != w {
            return Err(format!("golden mismatch:\n  want {w}\n  got  {got}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> JobRecord {
        JobRecord {
            label: "bcs.stable".into(),
            results: vec![7, 11, 13],
            elapsed_ns: 4_500_000,
            finish_ns: vec![4_400_000, 4_500_000, 4_450_000],
            digest: Some(0x0123_4567_89ab_cdef),
            events: 1000,
        }
    }

    fn golden_of(records: &[JobRecord]) -> String {
        records.iter().map(|r| r.canonical() + "\n").collect()
    }

    fn check(golden: &str, records: &[JobRecord]) -> Result<(), String> {
        let got: Vec<String> = records.iter().map(JobRecord::canonical).collect();
        compare_golden(golden, &got)
    }

    #[test]
    fn golden_rejects_a_one_bit_digest_change() {
        let golden = golden_of(&[rec()]);
        assert_eq!(check(&golden, &[rec()]), Ok(()));
        let mut flipped = rec();
        flipped.digest = flipped.digest.map(|d| d ^ 1);
        assert!(check(&golden, &[flipped]).is_err());
    }

    #[test]
    fn golden_accepts_a_changed_event_count() {
        let golden = golden_of(&[rec()]);
        let mut fewer = rec();
        fewer.events = 17;
        assert_eq!(check(&golden, &[fewer]), Ok(()));
    }

    #[test]
    fn golden_rejects_changed_results_times_and_job_count() {
        let golden = golden_of(&[rec()]);
        let mut r = rec();
        r.results[2] ^= 1 << 40;
        assert!(check(&golden, &[r]).is_err());
        let mut r = rec();
        r.finish_ns[0] += 1;
        assert!(check(&golden, &[r]).is_err());
        let mut r = rec();
        r.elapsed_ns += 1;
        assert!(check(&golden, &[r]).is_err());
        let mut r = rec();
        r.digest = None;
        assert!(check(&golden, &[r]).is_err());
        assert!(check(&golden, &[rec(), rec()]).is_err());
    }
}
