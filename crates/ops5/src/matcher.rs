//! The matcher abstraction every match algorithm implements.
//!
//! The paper compares algorithms along the "amount of state stored" axis
//! (Section 3.2): naive (none), TREAT (alpha memories), Rete (fixed CE
//! combinations), Oflazer (all CE combinations) — and, orthogonally,
//! sequential versus parallel execution. All of them speak the same
//! protocol: working-memory changes in, conflict-set changes out. The
//! [`Matcher`] trait is that protocol, and the interpreter and every
//! experiment in this repository are generic over it.

use std::fmt;

use crate::ast::ProductionId;
use crate::symbol::SymbolTable;
use crate::wme::{WmeId, WorkingMemory};

/// An instantiation: a production together with the WMEs matching its
/// positive condition elements, in condition-element order.
///
/// Two instantiations are equal iff they name the same production and the
/// same WME handles; since handles are never reused, this is exactly
/// OPS5's identity for refraction. They order by production, then by
/// WME handles: the canonical order of a conflict set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instantiation {
    /// The satisfied production.
    pub production: ProductionId,
    /// WMEs matching the positive CEs, in CE order.
    pub wmes: Vec<WmeId>,
}

impl Instantiation {
    /// Creates an instantiation.
    pub fn new(production: ProductionId, wmes: Vec<WmeId>) -> Self {
        Instantiation { production, wmes }
    }

    /// Renders `p3[w1 w7]` style debugging output.
    pub fn display<'a>(&'a self, _symbols: &'a SymbolTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Instantiation);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}[", self.0.production)?;
                for (i, w) in self.0.wmes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{w}")?;
                }
                write!(f, "]")
            }
        }
        D(self)
    }
}

/// The conflict-set changes produced by processing working-memory changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchDelta {
    /// Instantiations that became satisfied.
    pub added: Vec<Instantiation>,
    /// Instantiations that ceased to be satisfied.
    pub removed: Vec<Instantiation>,
}

impl MatchDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nets one later conflict-set change into the delta in place: an
    /// instantiation that an earlier change of the batch removed and this
    /// one adds back (or vice versa) cancels out instead of appearing on
    /// both lists. This is what a terminal node calls per activation.
    pub fn apply(&mut self, inst: Instantiation, added: bool) {
        let (same, opposite) = if added {
            (&mut self.added, &mut self.removed)
        } else {
            (&mut self.removed, &mut self.added)
        };
        match opposite.iter().position(|i| *i == inst) {
            Some(pos) => {
                opposite.swap_remove(pos);
            }
            None => same.push(inst),
        }
    }

    /// Merges `other` (which happened *after* `self`) into a net delta.
    ///
    /// An instantiation added by an earlier change and removed by a later
    /// one (or vice versa) cancels out, so the merged delta describes the
    /// net conflict-set change of the whole batch and can be applied
    /// without ordering information.
    pub fn merge(&mut self, other: MatchDelta) {
        for inst in other.removed {
            self.apply(inst, false);
        }
        for inst in other.added {
            self.apply(inst, true);
        }
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Sorts both lists into a canonical order so deltas from different
    /// matchers (or different parallel schedules) can be compared.
    pub fn canonicalize(&mut self) {
        let key = |i: &Instantiation| (i.production, i.wmes.clone());
        self.added.sort_by_key(key);
        self.added.dedup();
        self.removed.sort_by_key(key);
        self.removed.dedup();
    }
}

/// A working-memory change, the unit of work matchers consume.
///
/// A `modify` action is represented as a `Remove` of the old element plus
/// an `Add` of the new one, exactly as OPS5's Rete implementations did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Change {
    /// The WME was just asserted (it is live in the working memory).
    Add(WmeId),
    /// The WME is about to be retracted (still live while matching).
    Remove(WmeId),
}

impl Change {
    /// The WME the change concerns.
    pub fn wme(self) -> WmeId {
        match self {
            Change::Add(w) | Change::Remove(w) => w,
        }
    }

    /// True for `Add`.
    pub fn is_add(self) -> bool {
        matches!(self, Change::Add(_))
    }
}

/// A match algorithm: consumes working-memory changes, produces
/// conflict-set deltas.
///
/// # Contract
///
/// * On [`Matcher::add_wme`] the WME is already live in `wm`.
/// * On [`Matcher::remove_wme`] the WME is *still* live in `wm`; the
///   caller retracts it afterwards. This lets state-saving matchers locate
///   the state to delete, step 2 of the Section 3.1 cost model.
/// * Deltas must be exact: every reported `added` instantiation is newly
///   satisfied, every `removed` one was previously reported as added.
///   All matchers in this workspace are cross-checked against the naive
///   reference semantics under this contract.
pub trait Matcher {
    /// Processes one assertion.
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta;

    /// Processes one retraction (the WME is still resolvable via `wm`).
    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta;

    /// Processes a batch of changes from one production firing.
    ///
    /// The default processes changes sequentially in order; parallel
    /// matchers override this — processing multiple changes per firing in
    /// parallel is one of the paper's main parallelism sources (§4).
    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        let mut delta = MatchDelta::new();
        for &change in changes {
            match change {
                Change::Add(id) => delta.merge(self.add_wme(wm, id)),
                Change::Remove(id) => delta.merge(self.remove_wme(wm, id)),
            }
        }
        delta
    }

    /// Human-readable algorithm name (for reports and experiment tables).
    fn algorithm_name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_merge_and_canonicalize() {
        let i1 = Instantiation::new(ProductionId(1), vec![WmeId::from_index(2)]);
        let i0 = Instantiation::new(ProductionId(0), vec![WmeId::from_index(5)]);
        let mut d = MatchDelta::new();
        assert!(d.is_empty());
        d.merge(MatchDelta {
            added: vec![i1.clone(), i0.clone()],
            removed: vec![],
        });
        d.canonicalize();
        assert_eq!(d.added, vec![i0, i1], "sorted");
    }

    #[test]
    fn merge_cancels_add_then_remove() {
        let i = Instantiation::new(ProductionId(0), vec![WmeId::from_index(1)]);
        let mut d = MatchDelta {
            added: vec![i.clone()],
            removed: vec![],
        };
        d.merge(MatchDelta {
            added: vec![],
            removed: vec![i],
        });
        assert!(d.is_empty(), "add then remove nets to nothing");
    }

    #[test]
    fn merge_cancels_remove_then_add() {
        let i = Instantiation::new(ProductionId(0), vec![WmeId::from_index(1)]);
        let mut d = MatchDelta {
            added: vec![],
            removed: vec![i.clone()],
        };
        d.merge(MatchDelta {
            added: vec![i],
            removed: vec![],
        });
        assert!(d.is_empty(), "remove then re-add nets to nothing");
    }

    #[test]
    fn change_accessors() {
        let w = WmeId::from_index(3);
        assert_eq!(Change::Add(w).wme(), w);
        assert_eq!(Change::Remove(w).wme(), w);
        assert!(Change::Add(w).is_add());
        assert!(!Change::Remove(w).is_add());
    }

    #[test]
    fn instantiation_display() {
        let syms = SymbolTable::new();
        let i = Instantiation::new(
            ProductionId(2),
            vec![WmeId::from_index(1), WmeId::from_index(4)],
        );
        assert_eq!(format!("{}", i.display(&syms)), "p2[w1 w4]");
    }
}
