//! Attribute values.

use std::fmt;

use crate::ast::PredOp;
use crate::symbol::{SymbolId, SymbolTable};

/// A value stored in a working-memory-element attribute.
///
/// OPS5 values are symbolic or numeric constants. We support interned
/// symbols and 64-bit integers; the predicate operators (`<`, `<=`, …)
/// order integers numerically and treat symbols as incomparable, exactly
/// as OPS5's numeric predicates behaved on symbolic atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An interned symbolic constant.
    Sym(SymbolId),
    /// An integer constant.
    Int(i64),
}

impl Value {
    /// Serializes the value into `w` (one tag byte, then the payload).
    pub fn encode(self, w: &mut crate::codec::ByteWriter) {
        match self {
            Value::Sym(s) => {
                w.u8(0);
                w.u32(s.index() as u32);
            }
            Value::Int(i) => {
                w.u8(1);
                w.i64(i);
            }
        }
    }

    /// How many bytes [`Value::encode`] writes.
    pub(crate) fn encoded_len(self) -> usize {
        match self {
            Value::Sym(_) => 1 + 4,
            Value::Int(_) => 1 + 8,
        }
    }

    /// Deserializes a value written by [`Value::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::codec::CodecError`] on a bad tag or truncation.
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> Result<Value, crate::codec::CodecError> {
        match r.u8()? {
            0 => Ok(Value::Sym(SymbolId::from_index(r.u32()? as usize))),
            1 => Ok(Value::Int(r.i64()?)),
            _ => Err(crate::codec::CodecError::Invalid("bad value tag")),
        }
    }

    /// True when the value is a symbol.
    pub fn is_sym(self) -> bool {
        matches!(self, Value::Sym(_))
    }

    /// True when the value is an integer.
    pub fn is_int(self) -> bool {
        matches!(self, Value::Int(_))
    }

    /// Evaluates `self op other`, the heart of every match test.
    ///
    /// Equality and inequality apply to any pair. The ordering predicates
    /// apply only to two integers and are false otherwise (a failed match,
    /// not an error — OPS5 condition tests never abort). `SameType`
    /// (OPS5 `<=>`) is true when both values are symbols or both are
    /// integers.
    ///
    /// # Examples
    ///
    /// ```
    /// use ops5::{Value, PredOp};
    ///
    /// assert!(Value::Int(3).compare(PredOp::Lt, Value::Int(5)));
    /// assert!(!Value::Int(5).compare(PredOp::Lt, Value::Int(3)));
    /// assert!(Value::Int(1).compare(PredOp::SameType, Value::Int(9)));
    /// ```
    pub fn compare(self, op: PredOp, other: Value) -> bool {
        match op {
            PredOp::Eq => self == other,
            PredOp::Ne => self != other,
            PredOp::SameType => matches!(
                (self, other),
                (Value::Sym(_), Value::Sym(_)) | (Value::Int(_), Value::Int(_))
            ),
            PredOp::Lt | PredOp::Le | PredOp::Gt | PredOp::Ge => match (self, other) {
                (Value::Int(a), Value::Int(b)) => match op {
                    PredOp::Lt => a < b,
                    PredOp::Le => a <= b,
                    PredOp::Gt => a > b,
                    PredOp::Ge => a >= b,
                    _ => unreachable!(),
                },
                _ => false,
            },
        }
    }

    /// Renders the value using `symbols` for symbol text.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Value, &'a SymbolTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Value::Sym(s) => write!(f, "{}", self.1.name(*s)),
                    Value::Int(i) => write!(f, "{i}"),
                }
            }
        }
        D(self, symbols)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<SymbolId> for Value {
    fn from(v: SymbolId) -> Self {
        Value::Sym(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn sym(t: &mut SymbolTable, s: &str) -> Value {
        Value::Sym(t.intern(s))
    }

    #[test]
    fn equality_covers_both_kinds() {
        let mut t = SymbolTable::new();
        let red = sym(&mut t, "red");
        let blue = sym(&mut t, "blue");
        assert!(red.compare(PredOp::Eq, red));
        assert!(red.compare(PredOp::Ne, blue));
        assert!(Value::Int(4).compare(PredOp::Eq, Value::Int(4)));
        assert!(Value::Int(4).compare(PredOp::Ne, Value::Int(5)));
        // A symbol never equals an integer.
        assert!(red.compare(PredOp::Ne, Value::Int(0)));
    }

    #[test]
    fn ordering_predicates_are_numeric_only() {
        let mut t = SymbolTable::new();
        let s = sym(&mut t, "sym");
        assert!(Value::Int(1).compare(PredOp::Lt, Value::Int(2)));
        assert!(Value::Int(2).compare(PredOp::Ge, Value::Int(2)));
        assert!(Value::Int(3).compare(PredOp::Le, Value::Int(3)));
        assert!(Value::Int(4).compare(PredOp::Gt, Value::Int(3)));
        // Symbol operands make ordering predicates fail, not panic.
        assert!(!s.compare(PredOp::Lt, Value::Int(2)));
        assert!(!Value::Int(2).compare(PredOp::Gt, s));
        assert!(!s.compare(PredOp::Ge, s));
    }

    #[test]
    fn same_type_matches_kinds() {
        let mut t = SymbolTable::new();
        let a = sym(&mut t, "a");
        let b = sym(&mut t, "b");
        assert!(a.compare(PredOp::SameType, b));
        assert!(Value::Int(1).compare(PredOp::SameType, Value::Int(-7)));
        assert!(!a.compare(PredOp::SameType, Value::Int(1)));
    }

    #[test]
    fn display_renders_symbol_text() {
        let mut t = SymbolTable::new();
        let v = sym(&mut t, "find-blk");
        assert_eq!(format!("{}", v.display(&t)), "find-blk");
        assert_eq!(format!("{}", Value::Int(-3).display(&t)), "-3");
    }

    #[test]
    fn conversions() {
        let mut t = SymbolTable::new();
        let id = t.intern("w");
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(id), Value::Sym(id));
    }
}
