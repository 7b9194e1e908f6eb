//! World launcher: spawn ranks, wire channels, collect results.

use std::sync::Arc;

use crossbeam::channel::unbounded;

use crate::comm::Comm;
use crate::netmodel::NetModel;

/// An MPI-style world of `size` ranks.
#[derive(Debug)]
pub struct World;

impl World {
    /// Run `f` on `size` ranks (threads) with a zero-cost network and
    /// return the results in rank order.
    ///
    /// # Panics
    ///
    /// Propagates the first rank's panic after all ranks have been joined.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        World::run_with_net(size, NetModel::local(), f)
    }

    /// Run `f` on `size` ranks under an explicit [`NetModel`].
    ///
    /// # Panics
    ///
    /// Propagates the first rank's panic after all ranks have been joined.
    pub fn run_with_net<R, F>(size: usize, net: NetModel, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        let size = size.max(1);
        let net = Arc::new(net);
        let barrier = Arc::new(std::sync::Barrier::new(size));

        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }

        let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, (rx, slot)) in receivers.iter_mut().zip(results.iter_mut()).enumerate() {
                let comm = Comm::new(
                    rank,
                    size,
                    senders.clone(),
                    rx.take().expect("receiver taken once"),
                    Arc::clone(&barrier),
                    Arc::clone(&net),
                );
                let f = &f;
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("minimpi-rank-{rank}"))
                        .stack_size(16 * 1024 * 1024)
                        .spawn_scoped(scope, move || {
                            *slot = Some(f(&comm));
                        })
                        .expect("failed to spawn rank"),
                );
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_size() {
        let out = World::run(3, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = World::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, vec![comm.rank() as f64]);
            comm.recv(prev, 7)[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn recv_matches_by_tag() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
                comm.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive in reverse tag order: matching must buffer.
                let b = comm.recv(0, 2)[0];
                let a = comm.recv(0, 1)[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = World::run(4, |comm| {
            let data = if comm.rank() == 2 {
                vec![9.0, 8.0]
            } else {
                Vec::new()
            };
            comm.bcast(2, data)
        });
        assert!(out.iter().all(|v| v == &vec![9.0, 8.0]));
    }

    #[test]
    fn gather_in_rank_order() {
        let out = World::run(3, |comm| comm.gather(0, vec![comm.rank() as f64 * 2.0]));
        assert_eq!(out[0], Some(vec![vec![0.0], vec![2.0], vec![4.0]]));
        assert_eq!(out[1], None);
    }

    #[test]
    fn allgather_concatenates() {
        let out = World::run(3, |comm| {
            comm.allgather(vec![comm.rank() as f64, comm.rank() as f64 + 0.5])
        });
        for v in out {
            assert_eq!(v, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5]);
        }
    }

    #[test]
    fn scatter_distributes() {
        let out = World::run(3, |comm| {
            let parts = if comm.rank() == 0 {
                Some(vec![vec![0.0], vec![10.0], vec![20.0]])
            } else {
                None
            };
            comm.scatter(0, parts)[0]
        });
        assert_eq!(out, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn reductions() {
        let out = World::run(4, |comm| {
            let sum = comm.allreduce_sum(comm.rank() as f64 + 1.0);
            let max = comm.allreduce_max(comm.rank() as f64);
            (sum, max)
        });
        assert!(out.iter().all(|&(s, m)| s == 10.0 && m == 3.0));
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = World::run(2, |comm| {
            comm.allreduce_sum_vec(vec![comm.rank() as f64, 1.0])
        });
        assert!(out.iter().all(|v| v == &vec![1.0, 2.0]));
    }

    #[test]
    fn barrier_works() {
        let out = World::run(4, |comm| {
            for _ in 0..10 {
                comm.barrier();
            }
            1
        });
        assert_eq!(out.iter().sum::<i32>(), 4);
    }

    #[test]
    fn collectives_under_net_model() {
        let net = NetModel::cluster(2);
        let out = World::run_with_net(4, net, |comm| comm.allreduce_sum(1.0));
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn recv_timeout_success_and_failure() {
        use std::time::Duration;
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![42.0]);
                // Nothing is ever sent with tag 6: rank 0 times out.
                comm.recv_timeout(1, 6, Duration::from_millis(50))
            } else {
                comm.recv_timeout(0, 5, Duration::from_secs(5))
            }
        });
        assert!(matches!(
            out[0],
            Err(crate::MpiError::Timeout {
                peer: 1,
                tag: 6,
                ..
            })
        ));
        assert_eq!(out[1], Ok(vec![42.0]));
    }

    #[test]
    fn dead_rank_degrades_collectives_to_timeout() {
        use std::time::Duration;
        let start = std::time::Instant::now();
        let out = World::run(3, |comm| {
            if comm.rank() == 2 {
                // Fault injection: this rank goes silent mid-computation.
                comm.inject_failure();
            }
            comm.allgather_timeout(vec![comm.rank() as f64], Duration::from_millis(200))
        });
        // Healthy ranks observe a typed timeout instead of hanging.
        assert!(matches!(
            out[0],
            Err(crate::MpiError::Timeout { peer: 2, .. })
        ));
        assert!(out[1].is_err());
        assert!(start.elapsed() < Duration::from_secs(10), "must not hang");
    }

    #[test]
    fn timed_allreduce_matches_blocking_when_healthy() {
        use std::time::Duration;
        let out = World::run(4, |comm| {
            let sum = comm
                .allreduce_sum_timeout(comm.rank() as f64 + 1.0, Duration::from_secs(5))
                .unwrap();
            let max = comm
                .allreduce_max_timeout(comm.rank() as f64, Duration::from_secs(5))
                .unwrap();
            (sum, max)
        });
        assert!(out.iter().all(|&(s, m)| s == 10.0 && m == 3.0));
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.allgather(vec![5.0]), vec![5.0]);
            comm.allreduce_sum(3.0)
        });
        assert_eq!(out, vec![3.0]);
    }
}
