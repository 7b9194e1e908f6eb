//! Host calibration: measure the synchronization-primitive costs the
//! simulator replays.

use std::time::Instant;

use omp4rs::sync::{Backend, SharedCounter};
use omp4rs::Team;
use simcore::ClaimCost;

/// Measured primitive costs on this host (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveCosts {
    /// One mutex-backend counter claim (lock + add + unlock).
    pub mutex_claim: f64,
    /// One atomic-backend counter claim (`fetch_add`).
    pub atomic_claim: f64,
    /// One team barrier (2 threads, uncontended).
    pub barrier: f64,
    /// One queued task submit + execute round trip.
    pub task_round: f64,
}

impl PrimitiveCosts {
    /// The claim cost for a backend.
    pub fn claim(&self, backend: Backend) -> ClaimCost {
        match backend {
            Backend::Mutex => ClaimCost {
                seconds: self.mutex_claim,
                serializes: true,
            },
            Backend::Atomic => ClaimCost {
                seconds: self.atomic_claim,
                serializes: true,
            },
        }
    }
}

fn time_per_op(reps: u64, f: impl FnMut(u64)) -> f64 {
    let mut f = f;
    let start = Instant::now();
    for i in 0..reps {
        f(i);
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Measure the primitive costs (sub-second total).
pub fn measure_primitives() -> PrimitiveCosts {
    let reps = 200_000;
    let mutex_counter = SharedCounter::new(Backend::Mutex);
    let mutex_claim = time_per_op(reps, |_| {
        std::hint::black_box(mutex_counter.fetch_add(1));
    });
    let atomic_counter = SharedCounter::new(Backend::Atomic);
    let atomic_claim = time_per_op(reps, |_| {
        std::hint::black_box(atomic_counter.fetch_add(1));
    });

    // Barrier: a 1-thread team barrier measures the per-barrier bookkeeping
    // (multi-thread rendezvous latency is what the simulator's max-of-arrival
    // model already captures).
    let team = Team::new(1, Backend::Atomic);
    let barrier = time_per_op(20_000, |_| team.barrier());

    // Task round trip: a queued submit + drain, timed on the queue itself.
    // A one-thread team would include the task (run it at once, with no
    // task node), which is not the spawn cost the simulator replays.
    let queue = team.tasks();
    let task_round = time_per_op(20_000, |_| {
        queue.submit(|| {});
        while queue.run_one() {}
    });

    PrimitiveCosts {
        mutex_claim,
        atomic_claim,
        barrier,
        task_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_sane_magnitudes() {
        let _lock = crate::timing_lock();
        let c = measure_primitives();
        assert!(c.mutex_claim > 0.0 && c.mutex_claim < 1e-5, "{c:?}");
        assert!(c.atomic_claim > 0.0 && c.atomic_claim < 1e-5, "{c:?}");
        assert!(c.barrier > 0.0 && c.barrier < 1e-4, "{c:?}");
        assert!(c.task_round > 0.0 && c.task_round < 1e-3, "{c:?}");
    }

    #[test]
    fn mutex_claim_costs_at_least_as_much_as_atomic() {
        // The design premise of the paper's cruntime.
        let _lock = crate::timing_lock();
        let c = measure_primitives();
        assert!(
            c.mutex_claim >= c.atomic_claim * 0.8,
            "mutex {} vs atomic {}",
            c.mutex_claim,
            c.atomic_claim
        );
    }

    #[test]
    fn claims_map_to_backends() {
        let c = PrimitiveCosts {
            mutex_claim: 1e-7,
            atomic_claim: 1e-8,
            barrier: 1e-6,
            task_round: 1e-6,
        };
        assert_eq!(c.claim(Backend::Mutex).seconds, 1e-7);
        assert_eq!(c.claim(Backend::Atomic).seconds, 1e-8);
        assert!(c.claim(Backend::Mutex).serializes);
    }
}
