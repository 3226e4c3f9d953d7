//! Same-run calibration of the host's memory-system speed.
//!
//! On a shared host the memory system slows down when neighbours load it:
//! on the 2-vCPU machine this benchmark was built on, simulator jobs
//! switched between two speeds about 1.45x apart every few seconds, and
//! the mix drifted over minutes, while a register-only loop kept its speed
//! to within 4%. A fixed heap workload, independent of the simulator, slows
//! down with the simulator: in a 5-minute run interleaving the two, their
//! per-sample correlation on `slice_idle` was 0.78, and over 20 s windows
//! the spread of job time divided by probe time was 0.04, against 0.17 for
//! the raw job time.
//!
//! Each job is therefore preceded by one [`probe`], and the end-to-end
//! timings are reported in *calibrated seconds*: host seconds scaled by
//! [`REFERENCE_S`] ÷ the probe's time. The probe runs none of the
//! simulator's code, so a change to the simulator moves calibrated and raw
//! seconds alike.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Probe time that calibrated seconds are scaled to: a calibrated second
/// is a host second on a host where one [`probe`] takes this long.
pub const REFERENCE_S: f64 = 0.015;

/// Host seconds one fixed allocation-heavy ordered-map workload takes now.
/// The map persists between probes, so a probe never frees it wholesale
/// and leaves the allocator as it found it for the job that follows.
pub fn probe() -> f64 {
    thread_local! {
        static MAP: RefCell<BTreeMap<u64, Vec<u64>>> = const { RefCell::new(BTreeMap::new()) };
    }
    MAP.with(|m| {
        let mut map = m.borrow_mut();
        let t = Instant::now();
        let mut x = 0x1234_5678_9abc_def1u64;
        for i in 0..60_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % 20_000, vec![i; (x % 8) as usize]);
            if i % 3 == 0 {
                map.remove(&((x >> 7) % 20_000));
            }
        }
        std::hint::black_box(&*map);
        t.elapsed().as_secs_f64()
    })
}
