//! # minimpi — an in-process message-passing substrate
//!
//! A from-scratch MPI subset standing in for mpi4py + a cluster in the
//! OMP4Py reproduction's hybrid MPI/OpenMP experiment (paper Fig. 8).
//! "Processes" are OS threads with private state communicating only through
//! typed channels; collectives (`allgather`, `allreduce`, `bcast`, …) match
//! MPI semantics. A configurable [`NetModel`] charges per-message latency
//! and per-byte transfer time so multi-node scaling behaviour can be
//! emulated on one machine.
//!
//! # Examples
//!
//! ```
//! use minimpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     comm.allreduce_sum((comm.rank() + 1) as f64)
//! });
//! assert_eq!(sums, vec![10.0, 10.0, 10.0, 10.0]);
//! ```

// Public API items carry doc comments; enum struct-variant fields are
// documented at the variant level.
#![warn(missing_docs)]
#![allow(missing_docs)]

pub mod comm;
pub mod error;
pub mod netmodel;
pub mod world;

pub use comm::Comm;
pub use error::MpiError;
pub use netmodel::NetModel;
pub use world::World;
