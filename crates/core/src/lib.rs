//! # psm-core — the parallel Rete engine
//!
//! The paper's primary contribution (Sections 4–5): exploit parallelism
//! in the Rete algorithm at the granularity of **node activations**, on a
//! shared-memory multiprocessor. This crate is the real-multicore
//! realization of that design:
//!
//! * [`ParallelReteMatcher`] — node-activation parallelism. The engine
//!   reads the sequential matcher's alpha memories and the beta memories
//!   its joins read, which only the caller writes, between phases; a
//!   negative node, and a join whose left input is a negative node or
//!   the top token, owns a private, lock-protected left memory instead.
//!   An activation locks at most the node it runs on, so multiple
//!   activations of *different* nodes and multiple activations of the
//!   *same* node's siblings proceed concurrently, and multiple
//!   working-memory changes from one firing are processed in parallel —
//!   the three parallelism sources of §4. A work-first, work-stealing
//!   [`WorkerPool`] plays the role of the paper's hardware task
//!   scheduler: the thread that calls `process` is worker 0 and drains
//!   at once, `threads − 1` helpers stay parked and are woken only for
//!   a batch big enough to repay the wake, and dispatch reuses its
//!   deques, scratch and buffers instead of hashing and allocating per
//!   phase — so one thread costs what the engine's data structures
//!   cost, and a small batch never pays for a second thread.
//! * [`ProductionParallelMatcher`] — the coarse-grain alternative the
//!   paper rejects: productions are partitioned, each partition matched
//!   sequentially, partitions in parallel, with no sharing across
//!   partitions. Benchmarks on the two engines reproduce the §4
//!   granularity argument on real hardware.
//!
//! Both implement [`ops5::Matcher`] and produce deltas identical to the
//! sequential [`rete::ReteMatcher`] (cross-checked in tests).
//!
//! ## Consistency protocol
//!
//! Within a change batch, retractions are processed (in parallel) to
//! completion before assertions start — a remove/add barrier. A WME the
//! batch both asserts and retracts nets to nothing before either phase.
//!
//! The alpha and beta memories are written by the caller only, between
//! phases: the batch's assertions are filed into the alpha memories when
//! the add phase starts and its retractions unfiled when the remove phase
//! ends, and the tokens each phase's joins emit are filed into their
//! beta memories when that phase ends. Within a phase they are
//! read-only. A join under a beta memory follows the join delta rule for
//! signed changes, Δ(L⋈R) = ΔL⋈R′ + L⋈ΔR: its right activation reads the
//! beta memory as the phase found it, its left activation the alpha
//! memory as the phase leaves it (this phase's retractions hidden by a
//! per-WME phase stamp). Every pair is then made or retracted exactly
//! once, in whatever order the phase's tasks run. A node with a private
//! left memory sees the alpha memory through the same stamp and a record
//! of when its own right activations ran: a left activation skips a WME
//! changed in this phase while, in the add phase, the node's right
//! activations are still to run, or, in the remove phase, have run, so
//! that whichever of a right activation for a new WME and a left
//! activation carrying it runs second finds the pair. The barrier alone
//! would not make the shared memories safe.
//!
//! Within a phase, each left activation's *insert + alpha-memory scan*
//! and each right activation's scan of a private left memory is atomic
//! under the node's lock, and private left-memory entries are signed
//! counts, so a token deletion racing ahead of its own creation
//! (possible downstream of negative nodes) leaves a debt that the later
//! creation cancels. A beta memory nets the same way when the phase's
//! tokens are filed: pluses first, then minuses. Conflict-set deltas are
//! signed multisets with the same cancellation, making the final delta
//! independent of the parallel schedule.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod engine;
pub mod pool;
pub mod production_parallel;
pub mod topology;

pub use engine::{
    FaultAction, FaultInjector, ParallelOptions, ParallelReteMatcher, ParallelStats, WorkerStats,
};
pub use pool::{PoolStats, WorkerPool};
pub use production_parallel::ProductionParallelMatcher;
pub use topology::ParallelTopology;
