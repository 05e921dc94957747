//! # ops5 — an OPS5 production-system language substrate
//!
//! This crate implements the OPS5 production-system language described in
//! Section 2 of Gupta, Forgy, Newell & Wedig, *"Parallel Algorithms and
//! Architectures for Rule-Based Systems"* (ISCA 1986): productions with
//! condition elements (constants, variables, predicates, conjunctive and
//! disjunctive tests, negated condition elements), a working memory of
//! attribute–value elements, `make`/`modify`/`remove`/`write`/`halt`
//! right-hand-side actions, LEX and MEA conflict resolution, and the
//! recognize–act interpreter loop.
//!
//! The crate deliberately knows nothing about *how* match is performed:
//! every match algorithm (sequential Rete, parallel Rete, TREAT, the naive
//! non-state-saving matcher, the Oflazer full-state matcher) implements the
//! [`Matcher`] trait, and the [`Interpreter`] is generic over it. This is
//! the seam along which the paper compares algorithms.
//!
//! ## Quick example
//!
//! ```
//! use ops5::{parse_program, Interpreter, Wme};
//!
//! # fn main() -> Result<(), ops5::Error> {
//! let src = r#"
//!   (p hello
//!     (request ^kind greet ^who <w>)
//!     -->
//!     (make greeting ^to <w>)
//!     (remove 1))
//! "#;
//! let program = parse_program(src)?;
//! // Any matcher works here; the `rete` crate provides the fast one.
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ast;
pub mod builder;
pub mod codec;
pub mod conflict;
pub mod effects;
pub mod error;
pub mod explain;
pub mod fxhash;
pub mod interp;
pub mod lexer;
pub mod matcher;
pub mod parser;
pub mod symbol;
pub mod value;
pub mod wme;

pub use ast::{
    match_and_bind, Action, ArithOp, ComputeExpr, ComputeOperand, ConditionElement, PredOp,
    Production, ProductionId, Program, RhsArg, TestArg, ValueTest, VarId,
};
pub use builder::ProductionBuilder;
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use conflict::{compare as compare_instantiations, ConflictSet, Strategy};
pub use effects::{
    production_writes, write_effects, write_set_table, ClassWrites, EffectKind, ProductionWrites,
    SanitizerViolation, WriteEffect, WriteSanitizer, WriteValue,
};
pub use error::Error;
pub use explain::explain_instantiation;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use interp::{CycleOutcome, Interpreter, RunStats};
pub use lexer::{Lexer, Token};
pub use matcher::{Change, Instantiation, MatchDelta, Matcher};
pub use parser::{parse_program, parse_program_lenient, parse_wme, parse_wmes, Parser};
pub use symbol::{SymbolId, SymbolTable};
pub use value::Value;
pub use wme::{TimeTag, WmMarks, WmUpdate, Wme, WmeId, WorkingMemory};
