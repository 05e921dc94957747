//! # psm-core — the parallel Rete engine
//!
//! The paper's primary contribution (Sections 4–5): exploit parallelism
//! in the Rete algorithm at the granularity of **node activations**, on a
//! shared-memory multiprocessor. This crate is the real-multicore
//! realization of that design:
//!
//! * [`ParallelReteMatcher`] — node-activation parallelism. The engine
//!   is the sequential [`rete::ReteMatcher`] — its memories and its
//!   activation loop — plus a work-first, work-stealing [`WorkerPool`]
//!   in the role of the paper's hardware task scheduler. A batch too
//!   small to repay the phases (under 1 024 changes, as swept on vt)
//!   runs through the sequential loop on the calling thread, so it costs
//!   exactly what the sequential matcher costs and never pays for a
//!   second thread. A bulk batch runs in phases over the same memories, which
//!   only the caller writes, between phases: a task writes nothing
//!   shared but its worker's deque, so multiple activations of
//!   *different* nodes and multiple activations of the *same* node's
//!   siblings proceed concurrently, and multiple working-memory changes
//!   from one firing are processed in parallel — the three parallelism
//!   sources of §4. The thread that calls `process` is worker 0 and
//!   drains at once, the `threads − 1` parked helpers are woken for the
//!   phase, and dispatch reuses its deques, scratch and buffers instead
//!   of hashing and allocating per phase.
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
//! A batch on the sequential loop is the sequential matcher's. For a
//! batch run in phases: within it, retractions are processed (in parallel) to
//! completion before assertions start — a remove/add barrier. A WME the
//! batch both asserts and retracts nets to nothing before either phase.
//!
//! Every memory is written by the caller only, between phases: the
//! batch's assertions are filed into the alpha memories when the add
//! phase starts and its retractions unfiled when the remove phase ends,
//! and what each phase's tasks list for the beta and negative memories
//! is filed when that phase ends. Within a phase they are read-only, and
//! every two-input node reads its token memory as the phase found it
//! (L) and its alpha memory as the phase leaves it (R′, this phase's
//! retractions hidden by a per-WME phase stamp). A join follows the join
//! delta rule for signed changes, Δ(L⋈R) = ΔL⋈R′ + L⋈ΔR. A negative
//! node follows its anti-join counterpart: a left activation of either
//! sign passes its token when no WME of R′ matches it, and the node's
//! right activations of a phase — one task — emit each token of L whose
//! match count leaves zero (add phase) or reaches it (remove phase).
//! Every pair, and every block or unblock, is then made or retracted
//! exactly once, in whatever order the phase's tasks run. The barrier
//! alone would not make the shared memories safe.
//!
//! When a phase ends, a memory nets what it is filed: the negative
//! entries' count changes first (by position, which nothing has moved
//! yet), then every plus, then every minus, so a token deletion that
//! raced ahead of its own creation (possible downstream of negative
//! nodes) cancels it. Conflict-set deltas are signed multisets with the
//! same cancellation, making the final delta independent of the
//! parallel schedule.

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
