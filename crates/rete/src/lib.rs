//! # rete — the Rete match network (Forgy 1982) with instrumentation
//!
//! Implements the match algorithm of Section 2.2 of Gupta, Forgy, Newell
//! & Wedig (ISCA 1986): a data-flow network compiled from production
//! left-hand sides, with
//!
//! * **constant-test (alpha) nodes** shared across productions,
//! * **memory nodes** storing match state between recognize–act cycles,
//! * **two-input (join) nodes** testing joint satisfaction with variable
//!   binding consistency,
//! * **negative nodes** for negated condition elements, and
//! * **terminal nodes** emitting conflict-set changes.
//!
//! Working-memory changes are processed as **node activations** pulled
//! from an explicit task queue — the same unit of work the paper's
//! parallel implementation schedules across processors — so the
//! sequential matcher, the parallel matcher (`psm-core`), and the
//! trace-driven simulator (`psm-sim`) all agree on what an activation is.
//!
//! ## Example
//!
//! ```
//! use ops5::{parse_program, parse_wme, Interpreter};
//! use rete::ReteMatcher;
//!
//! # fn main() -> Result<(), ops5::Error> {
//! let program = parse_program(
//!     "(p rule (a ^x <v>) (b ^y <v>) --> (remove 1))",
//! )?;
//! let matcher = ReteMatcher::compile(&program)?;
//! let mut interp = Interpreter::new(program, matcher);
//! let mut syms = interp.program().symbols.clone();
//! interp.insert(parse_wme("(a ^x 7)", &mut syms)?);
//! interp.insert(parse_wme("(b ^y 7)", &mut syms)?);
//! assert_eq!(interp.run(10)?, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod alpha;
mod heads;
pub mod kernel;
pub mod memory;
pub mod network;
pub mod profile;
pub mod runtime;
pub mod snapshot;
pub mod stats;
pub mod token;
pub mod trace;

pub use alpha::{AlphaId, AlphaNetwork, AlphaNode, AlphaTest};
pub use kernel::{ActivationKind, Sign};
pub use memory::{Memory, NegEntry};
pub use network::{CompileOptions, JoinTest, Network, NetworkStats, NodeId, NodeSpec};
pub use profile::MatchProfile;
pub use runtime::{Memories, MemoryStrategy, ReteMatcher};
pub use snapshot::{Assembly, ImageParts, ImageUpdate, ReteSnapshot, SectionTable};
pub use stats::MatchStats;
pub use token::Token;
pub use trace::{ActivationRecord, ChangeTrace, CycleTrace, Trace, TraceBuilder};
