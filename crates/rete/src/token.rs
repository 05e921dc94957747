//! Tokens: partial matches flowing through the beta network.

use std::fmt;
use std::sync::Arc;

use ops5::WmeId;

/// A token: the WMEs matching a prefix of a production's positive
/// condition elements, in condition-element order.
///
/// The paper (Section 2.2): *"Each token consists of a list of pointers
/// to working memory elements that match a subsequence of condition
/// elements in a left-hand side."* Negated condition elements contribute
/// no entry.
///
/// Storage is a shared immutable pool allocation (`Arc<[WmeId]>`): a
/// token's WME list is written once at creation and then referenced from
/// every memory, hash-index bucket, trace record, and conflict-set
/// instantiation that mentions it. Cloning bumps a refcount instead of
/// copying the list, so the hash-indexed memories (which hold each token
/// in both the residency list and its index bucket) do not multiply
/// allocation churn. The allocation is freed when the last reference
/// drops — there is no separate arena to reset, so snapshot/restore and
/// partial retract never dangle.
// The manual `PartialEq` is the derived one behind a pointer fast path,
// so equal tokens still hash equally.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Debug, Clone, Eq, Hash, Default)]
pub struct Token(Arc<[WmeId]>);

impl PartialEq for Token {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Retractions carry clones of the originally-inserted token, so
        // memory-removal scans almost always compare a token against an
        // `Arc` sharing its own pool allocation. Pointer identity settles
        // those in two loads; only distinct allocations fall through to
        // the slice compare.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Token {
    /// The empty token fed to the top of the network (matches the empty
    /// prefix of every production).
    pub fn top() -> Self {
        Token::default()
    }

    /// Creates a token from WMEs in CE order.
    pub fn from_wmes(wmes: Vec<WmeId>) -> Self {
        Token(wmes.into())
    }

    /// Extends the token with the WME matching the next positive CE.
    /// The parent's storage is shared, not mutated: the extension is a
    /// fresh pool allocation referencing the same prefix WMEs.
    pub fn extended(&self, wme: WmeId) -> Token {
        // An exact-size iterator collects straight into the `Arc`: one
        // allocation, not a `Vec` plus the copy out of it.
        Token(self.0.iter().copied().chain(std::iter::once(wme)).collect())
    }

    /// The WME at positive-CE position `i`.
    pub fn wme_at(&self, i: usize) -> Option<WmeId> {
        self.0.get(i).copied()
    }

    /// All WMEs, in CE order.
    pub fn wmes(&self) -> &[WmeId] {
        &self.0
    }

    /// Consumes the token, yielding its WME list.
    pub fn into_wmes(self) -> Vec<WmeId> {
        self.0.to_vec()
    }

    /// Number of matched positive CEs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the top token.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether the token references `wme`.
    pub fn contains(&self, wme: WmeId) -> bool {
        self.0.contains(&wme)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> WmeId {
        WmeId::from_index(i)
    }

    #[test]
    fn top_token_is_empty() {
        let t = Token::top();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.wme_at(0), None);
    }

    #[test]
    fn extension_is_persistent() {
        let t = Token::top().extended(w(1));
        let t2 = t.extended(w(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.wme_at(0), Some(w(1)));
        assert_eq!(t2.wme_at(1), Some(w(2)));
        assert!(t2.contains(w(1)));
        assert!(!t.contains(w(2)));
    }

    #[test]
    fn equality_is_structural() {
        let a = Token::from_wmes(vec![w(1), w(2)]);
        let b = Token::top().extended(w(1)).extended(w(2));
        assert_eq!(a, b);
        assert_eq!(a.into_wmes(), vec![w(1), w(2)]);
    }

    #[test]
    fn display_shapes() {
        assert_eq!(format!("{}", Token::top()), "<>");
        assert_eq!(format!("{}", Token::from_wmes(vec![w(3), w(5)])), "<w3 w5>");
    }
}
