//! Communicators: point-to-point messaging and collectives.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::error::MpiError;
use crate::netmodel::NetModel;

/// A message in flight: (source rank, tag, payload).
type Packet = (usize, u64, Vec<f64>);

/// Tag space reserved for collectives (user tags must stay below this).
const COLLECTIVE_TAG_BASE: u64 = 1 << 48;

/// A communicator handle owned by one rank.
///
/// Not `Sync`: each rank keeps its own `Comm`, like an MPI process.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    pending: RefCell<Vec<Packet>>,
    barrier: Arc<std::sync::Barrier>,
    net: Arc<NetModel>,
    collective_seq: RefCell<u64>,
    /// Fault injection: a silenced rank drops every outgoing message,
    /// emulating a crashed or partitioned process.
    silenced: Cell<bool>,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Packet>>,
        receiver: Receiver<Packet>,
        barrier: Arc<std::sync::Barrier>,
        net: Arc<NetModel>,
    ) -> Comm {
        Comm {
            rank,
            size,
            senders,
            receiver,
            pending: RefCell::new(Vec::new()),
            barrier,
            net,
            collective_seq: RefCell::new(0),
            silenced: Cell::new(false),
        }
    }

    /// This rank's index (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The number of ranks (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The network model in effect.
    pub fn net(&self) -> &NetModel {
        &self.net
    }

    /// Blocking send (`MPI_Send`). User tags must be `< 2^48`.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range or the world has been torn down.
    pub fn send(&self, dest: usize, tag: u64, data: Vec<f64>) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag too large (reserved for collectives)"
        );
        self.send_raw(dest, tag, data)
            .expect("destination rank has exited");
    }

    fn send_raw(&self, dest: usize, tag: u64, data: Vec<f64>) -> Result<(), MpiError> {
        if self.silenced.get() {
            return Ok(());
        }
        self.net.charge(self.rank, dest, data.len() * 8);
        self.senders[dest]
            .send((self.rank, tag, data))
            .map_err(|_| MpiError::Disconnected { peer: dest, tag })
    }

    /// Fault injection: silence this rank. Every later outgoing message is
    /// dropped, so peers blocked in the `_timeout` receive/collective
    /// variants observe [`MpiError::Timeout`] instead of hanging forever
    /// (the blocking variants would hang, exactly like real MPI).
    pub fn inject_failure(&self) {
        self.silenced.set(true);
    }

    /// Whether [`Comm::inject_failure`] has silenced this rank.
    pub fn is_silenced(&self) -> bool {
        self.silenced.get()
    }

    /// Blocking receive (`MPI_Recv`) matching source and tag.
    ///
    /// # Panics
    ///
    /// Panics if the world has been torn down before a match arrives.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<f64> {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag too large (reserved for collectives)"
        );
        self.recv_raw(src, tag)
    }

    fn recv_raw(&self, src: usize, tag: u64) -> Vec<f64> {
        // Check messages that arrived earlier but did not match then.
        if let Some(data) = self.take_pending(src, tag) {
            return data;
        }
        loop {
            let packet = self.receiver.recv().expect("world torn down during recv");
            if packet.0 == src && packet.1 == tag {
                return packet.2;
            }
            self.pending.borrow_mut().push(packet);
        }
    }

    fn take_pending(&self, src: usize, tag: u64) -> Option<Vec<f64>> {
        let mut pending = self.pending.borrow_mut();
        let pos = pending
            .iter()
            .position(|(s, t, _)| *s == src && *t == tag)?;
        Some(pending.remove(pos).2)
    }

    /// Blocking receive with a deadline. Returns [`MpiError::Timeout`] if no
    /// matching message arrives in time; non-matching messages received
    /// while waiting are buffered as usual.
    pub fn recv_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f64>, MpiError> {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag too large (reserved for collectives)"
        );
        self.recv_raw_deadline(src, tag, Instant::now() + timeout)
    }

    fn recv_raw_deadline(
        &self,
        src: usize,
        tag: u64,
        deadline: Instant,
    ) -> Result<Vec<f64>, MpiError> {
        if let Some(data) = self.take_pending(src, tag) {
            return Ok(data);
        }
        let start = Instant::now();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(MpiError::Timeout {
                    peer: src,
                    tag,
                    waited: start.elapsed(),
                });
            }
            match self.receiver.recv_timeout(remaining) {
                Ok(packet) => {
                    if packet.0 == src && packet.1 == tag {
                        return Ok(packet.2);
                    }
                    self.pending.borrow_mut().push(packet);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(MpiError::Timeout {
                        peer: src,
                        tag,
                        waited: start.elapsed(),
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(MpiError::Disconnected { peer: src, tag })
                }
            }
        }
    }

    fn next_collective_tag(&self) -> u64 {
        let mut seq = self.collective_seq.borrow_mut();
        *seq += 1;
        COLLECTIVE_TAG_BASE + *seq
    }

    /// `MPI_Barrier`.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// `MPI_Bcast`: returns the root's data on every rank.
    pub fn bcast(&self, root: usize, data: Vec<f64>) -> Vec<f64> {
        let tag = self.next_collective_tag();
        if self.rank == root {
            for dest in 0..self.size {
                if dest != root {
                    self.send_raw(dest, tag, data.clone())
                        .expect("destination rank has exited");
                }
            }
            data
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// [`Comm::bcast`] with a deadline applied to every internal receive.
    ///
    /// # Errors
    ///
    /// [`MpiError::Timeout`]/[`MpiError::Disconnected`] when the root's
    /// message never arrives (non-roots) or a destination endpoint is gone.
    pub fn bcast_timeout(
        &self,
        root: usize,
        data: Vec<f64>,
        timeout: Duration,
    ) -> Result<Vec<f64>, MpiError> {
        self.bcast_deadline(root, data, Instant::now() + timeout)
    }

    fn bcast_deadline(
        &self,
        root: usize,
        data: Vec<f64>,
        deadline: Instant,
    ) -> Result<Vec<f64>, MpiError> {
        let tag = self.next_collective_tag();
        if self.rank == root {
            for dest in 0..self.size {
                if dest != root {
                    self.send_raw(dest, tag, data.clone())?;
                }
            }
            Ok(data)
        } else {
            self.recv_raw_deadline(root, tag, deadline)
        }
    }

    /// `MPI_Gather`: root receives every rank's contribution (in rank
    /// order); non-roots receive `None`.
    pub fn gather(&self, root: usize, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        let tag = self.next_collective_tag();
        if self.rank == root {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); self.size];
            out[root] = data;
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv_raw(src, tag);
                }
            }
            Some(out)
        } else {
            self.send_raw(root, tag, data)
                .expect("destination rank has exited");
            None
        }
    }

    /// [`Comm::gather`] with a deadline applied to every internal receive.
    ///
    /// # Errors
    ///
    /// [`MpiError::Timeout`]/[`MpiError::Disconnected`] when any
    /// contribution fails to arrive at the root in time.
    pub fn gather_timeout(
        &self,
        root: usize,
        data: Vec<f64>,
        timeout: Duration,
    ) -> Result<Option<Vec<Vec<f64>>>, MpiError> {
        self.gather_deadline(root, data, Instant::now() + timeout)
    }

    fn gather_deadline(
        &self,
        root: usize,
        data: Vec<f64>,
        deadline: Instant,
    ) -> Result<Option<Vec<Vec<f64>>>, MpiError> {
        let tag = self.next_collective_tag();
        if self.rank == root {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); self.size];
            out[root] = data;
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv_raw_deadline(src, tag, deadline)?;
                }
            }
            Ok(Some(out))
        } else {
            self.send_raw(root, tag, data)?;
            Ok(None)
        }
    }

    /// `MPI_Allgather`: every rank receives every contribution, in rank
    /// order, concatenated (the jacobi exchange in the paper uses this to
    /// reassemble the solution vector).
    pub fn allgather(&self, data: Vec<f64>) -> Vec<f64> {
        let gathered = self.gather(0, data);
        let flat = match gathered {
            Some(parts) => parts.concat(),
            None => Vec::new(),
        };
        self.bcast(0, flat)
    }

    /// [`Comm::allgather`] with a deadline over the whole exchange.
    ///
    /// # Errors
    ///
    /// [`MpiError::Timeout`]/[`MpiError::Disconnected`] when any rank's
    /// contribution is lost — every healthy rank returns the error within
    /// the deadline instead of hanging.
    pub fn allgather_timeout(
        &self,
        data: Vec<f64>,
        timeout: Duration,
    ) -> Result<Vec<f64>, MpiError> {
        let deadline = Instant::now() + timeout;
        let flat = match self.gather_deadline(0, data, deadline)? {
            Some(parts) => parts.concat(),
            None => Vec::new(),
        };
        self.bcast_deadline(0, flat, deadline)
    }

    /// [`Comm::allreduce_max`] with a deadline over the whole exchange.
    ///
    /// # Errors
    ///
    /// See [`Comm::allgather_timeout`].
    pub fn allreduce_max_timeout(&self, value: f64, timeout: Duration) -> Result<f64, MpiError> {
        let deadline = Instant::now() + timeout;
        let parts = self.gather_deadline(0, vec![value], deadline)?;
        let max = parts
            .map(|p| p.iter().map(|v| v[0]).fold(f64::NEG_INFINITY, f64::max))
            .unwrap_or(f64::NEG_INFINITY);
        Ok(self.bcast_deadline(0, vec![max], deadline)?[0])
    }

    /// [`Comm::allreduce_sum`] with a deadline over the whole exchange.
    ///
    /// # Errors
    ///
    /// See [`Comm::allgather_timeout`].
    pub fn allreduce_sum_timeout(&self, value: f64, timeout: Duration) -> Result<f64, MpiError> {
        let deadline = Instant::now() + timeout;
        let parts = self.gather_deadline(0, vec![value], deadline)?;
        let sum = parts.map(|p| p.iter().map(|v| v[0]).sum()).unwrap_or(0.0);
        Ok(self.bcast_deadline(0, vec![sum], deadline)?[0])
    }

    /// `MPI_Scatter`: root splits `parts` (one entry per rank); each rank
    /// receives its part.
    ///
    /// # Panics
    ///
    /// Panics on the root if `parts.len() != size`.
    pub fn scatter(&self, root: usize, parts: Option<Vec<Vec<f64>>>) -> Vec<f64> {
        let tag = self.next_collective_tag();
        if self.rank == root {
            let parts = parts.expect("root must supply scatter parts");
            assert_eq!(parts.len(), self.size, "scatter needs one part per rank");
            let mut own = Vec::new();
            for (dest, part) in parts.into_iter().enumerate() {
                if dest == root {
                    own = part;
                } else {
                    self.send_raw(dest, tag, part)
                        .expect("destination rank has exited");
                }
            }
            own
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// `MPI_Reduce(MPI_SUM)` on a scalar; root gets the sum.
    pub fn reduce_sum(&self, root: usize, value: f64) -> Option<f64> {
        self.gather(root, vec![value])
            .map(|parts| parts.iter().map(|p| p[0]).sum())
    }

    /// `MPI_Allreduce(MPI_SUM)` on a scalar.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        let sum = self.reduce_sum(0, value);
        self.bcast(0, vec![sum.unwrap_or(0.0)])[0]
    }

    /// `MPI_Allreduce(MPI_MAX)` on a scalar (the jacobi convergence check).
    pub fn allreduce_max(&self, value: f64) -> f64 {
        let parts = self.gather(0, vec![value]);
        let max = parts
            .map(|p| p.iter().map(|v| v[0]).fold(f64::NEG_INFINITY, f64::max))
            .unwrap_or(f64::NEG_INFINITY);
        self.bcast(0, vec![max])[0]
    }

    /// Element-wise `MPI_Allreduce(MPI_SUM)` on equal-length vectors.
    pub fn allreduce_sum_vec(&self, value: Vec<f64>) -> Vec<f64> {
        let n = value.len();
        let parts = self.gather(0, value);
        let combined = parts.map(|parts| {
            let mut acc = vec![0.0; n];
            for part in parts {
                for (a, v) in acc.iter_mut().zip(part) {
                    *a += v;
                }
            }
            acc
        });
        self.bcast(0, combined.unwrap_or_default())
    }
}
