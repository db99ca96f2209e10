//! Host speed, and timings scaled to the reference host's speed.
//!
//! The reference host is a 2-vCPU guest on a shared machine, and how fast
//! it runs changes with what the other tenants do: the same op on the same
//! inputs took 750 ms in one minute and 490 ms in the next. A run's median
//! follows that drift, so raw wall times from runs a few minutes apart
//! cannot be compared within any useful bound.
//!
//! So every timed interval (one op, one pass, one set-up repetition) is
//! bracketed by probes: a fixed job that uses no seal code and keeps as
//! many threads busy as the workload does. The interval's wall time is
//! scaled by the probe's reference time over the mean of the probe before
//! and the probe after it. A change to the program moves the interval and
//! not the probe, so it moves the scaled time by the same share as the
//! wall time; a slower host moves both, and the ratio cancels most of it.
//!
//! The probe allocates and chases pointers through a string-keyed hash map
//! and an ordered map of small vectors, as the analysis does through its
//! IR, PDG and spec tables; on the reference host its time tracked the
//! cold hunt's closer than a compute-only or a DRAM-latency-bound loop.
//! Workloads of more than one lane also hand work between threads (the
//! worker pool, the daemon's connections), and a handoff waits for the
//! host to run a sleeping thread, which a compute job never does: against
//! a compute-only probe those workloads slowed 1.4–1.6 times as much as
//! the probe did. Their probe adds token round trips between two threads.

use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::mpsc;
use std::time::Instant;

/// The compute part of one probe round at the reference speed, ms: a
/// round number near the fastest a run's median took on the reference
/// host (Intel Xeon, Sapphire Rapids, 2 vCPUs).
const REFERENCE_COMPUTE_MS: f64 = 10.0;

/// The handoff part of one probe round at the reference speed, ms, chosen
/// the same way.
const REFERENCE_HANDOFF_MS: f64 = 10.0;

/// Probe time after an interval, as a share of the interval's wall time
/// (at least one round). Longer probes read the host's speed more exactly
/// and leave less of the run to the workload.
const PROBE_SHARE: f64 = 0.1;

/// Keys per map in one compute job.
const PROBE_KEYS: u64 = 24_000;

/// Token round trips in the handoff part of a round.
const PROBE_HANDOFFS: u64 = 1_000;

/// The compute job: fixed, deterministic, and independent of the program.
fn compute_job() -> usize {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut names: HashMap<String, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..PROBE_KEYS {
        *names
            .entry(format!("sym{}", next() % (PROBE_KEYS / 4)))
            .or_default() += 1;
    }
    let mut by_count: Vec<(u32, &String)> = names.iter().map(|(k, v)| (*v, k)).collect();
    by_count.sort();
    let mut edges: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for i in 0..PROBE_KEYS {
        edges
            .entry(next() % (PROBE_KEYS / 2))
            .or_default()
            .push(i as u32);
    }
    let found: usize = (0..PROBE_KEYS)
        .filter_map(|_| edges.get(&(next() % (PROBE_KEYS / 2))).map(Vec::len))
        .sum();
    by_count.len() + found
}

/// Passes a token back and forth between two threads; returns its final
/// value.
fn handoffs() -> u64 {
    let (to_echo, echo_in) = mpsc::channel::<u64>();
    let (to_main, main_in) = mpsc::channel::<u64>();
    std::thread::scope(move |s| {
        s.spawn(move || {
            for v in echo_in {
                if to_main.send(v + 1).is_err() {
                    return;
                }
            }
        });
        let mut token = 0;
        for _ in 0..PROBE_HANDOFFS {
            to_echo
                .send(token)
                .expect("the echo thread runs until the sender drops");
            token = main_in.recv().expect("the echo thread answers every token");
        }
        // Ends the echo thread, which the scope joins.
        drop(to_echo);
        token
    })
}

/// Wall time of one round, ms: the compute job on `lanes` threads at once,
/// then, for more than one lane, the handoffs.
fn probe_round(lanes: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..lanes {
            s.spawn(|| std::hint::black_box(compute_job()));
        }
        std::hint::black_box(compute_job());
    });
    if lanes > 1 {
        std::hint::black_box(handoffs());
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// The probe series of one run.
pub struct Speed {
    lanes: usize,
    /// One round's time at the reference speed, ms.
    reference_ms: f64,
    /// Mean round time of the latest probe, ms.
    last_ms: f64,
    /// Every round, ms.
    rounds_ms: Vec<f64>,
}

impl Speed {
    /// Takes the first probe. `lanes` is how many threads the workload
    /// keeps busy (workers, connections).
    pub fn start(lanes: usize) -> Speed {
        let lanes = lanes.max(1);
        let handoff_ms = if lanes > 1 { REFERENCE_HANDOFF_MS } else { 0.0 };
        let mut speed = Speed {
            lanes,
            reference_ms: REFERENCE_COMPUTE_MS + handoff_ms,
            last_ms: 0.0,
            rounds_ms: Vec::new(),
        };
        speed.last_ms = speed.probe(0.0);
        speed
    }

    /// Probes for at least [`PROBE_SHARE`] of `wall_ms` (one round at
    /// least); returns the mean round time.
    fn probe(&mut self, wall_ms: f64) -> f64 {
        let (mut spent, mut rounds) = (0.0, 0);
        while rounds == 0 || spent < wall_ms * PROBE_SHARE {
            let ms = probe_round(self.lanes);
            self.rounds_ms.push(ms);
            spent += ms;
            rounds += 1;
        }
        spent / rounds as f64
    }

    /// Probes after an interval of `wall_ms` that began at the previous
    /// probe, and returns the factor that scales it to the reference
    /// speed.
    pub fn factor_after(&mut self, wall_ms: f64) -> f64 {
        let before = self.last_ms;
        self.last_ms = self.probe(wall_ms);
        scale_factor(self.reference_ms, before, self.last_ms)
    }

    /// The host's median speed over the run, relative to the reference
    /// (1.0 at the reference speed, 0.5 at half of it).
    pub fn host_speed(&self) -> f64 {
        self.reference_ms / median(&self.rounds_ms)
    }
}

/// The factor scaling an interval between probes of `before_ms` and
/// `after_ms` to the speed at which a round takes `reference_ms`.
fn scale_factor(reference_ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    2.0 * reference_ms / (before_ms + after_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic() {
        assert_eq!(compute_job(), compute_job());
        assert_eq!(handoffs(), PROBE_HANDOFFS);
    }

    #[test]
    fn scaling_uses_the_mean_of_both_probes() {
        assert_eq!(scale_factor(10.0, 10.0, 10.0), 1.0);
        // A host at half speed doubles the probe: the interval is halved.
        assert_eq!(scale_factor(10.0, 20.0, 20.0), 0.5);
        assert_eq!(scale_factor(10.0, 10.0, 30.0), 0.5);
    }

    #[test]
    fn a_probe_lasts_its_share_of_the_interval() {
        let mut speed = Speed::start(2);
        assert_eq!(speed.rounds_ms.len(), 1);
        assert_eq!(
            speed.reference_ms,
            REFERENCE_COMPUTE_MS + REFERENCE_HANDOFF_MS
        );
        let wall_ms = speed.rounds_ms[0] * 4.0 / PROBE_SHARE;
        let f = speed.factor_after(wall_ms);
        assert!(f > 0.0 && f.is_finite());
        let probed: f64 = speed.rounds_ms[1..].iter().sum();
        assert!(probed >= wall_ms * PROBE_SHARE, "{probed} ms");
        assert!(speed.host_speed() > 0.0);
        assert_eq!(Speed::start(1).reference_ms, REFERENCE_COMPUTE_MS);
    }
}
