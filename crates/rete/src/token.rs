//! Tokens: partial matches flowing through the beta network.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ops5::WmeId;

/// WME ids a token holds in place: with the length, the 24 bytes of the
/// `Vec` header a token stands in for.
const INLINE: usize = 5;

/// A length of at most [`INLINE`]. An enum, not an integer, so that the
/// values it cannot take are what tells an in-place token from a spilled
/// one, and `Some(token)` from `None`: no tag word widens the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Len {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
}

impl Len {
    fn of(n: usize) -> Option<Len> {
        use Len::*;
        [L0, L1, L2, L3, L4, L5].get(n).copied()
    }
}

/// Which of the two a token is follows from its length alone, and the
/// unused ids of an in-place one are all the same, so equal tokens are
/// equal field by field.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    InPlace {
        len: Len,
        wmes: [WmeId; INLINE],
    },
    /// More than [`INLINE`] ids.
    Spilled(Arc<[WmeId]>),
}

/// A token: the WMEs matching a prefix of a production's positive
/// condition elements, in condition-element order.
///
/// The paper (Section 2.2): *"Each token consists of a list of pointers
/// to working memory elements that match a subsequence of condition
/// elements in a left-hand side."* Negated condition elements contribute
/// no entry.
///
/// A token of up to five WMEs — every token of every preset — is a
/// value: its ids sit in the token, so a memory's row *is* the token,
/// cloning one copies three words, comparing two compares them, and
/// nothing is allocated or freed for it. A longer token (a production
/// with more than five positive CEs) keeps its ids in a shared immutable
/// slice, freed when the last clone drops. Either way a token owns what
/// it names — there is no arena to reset, so snapshot/restore and
/// partial retract never dangle — and it hashes as the slice of its
/// ids, whichever it is.
#[derive(Clone, PartialEq, Eq)]
pub struct Token(Repr);

/// The in-place ids of the top token.
fn unused() -> [WmeId; INLINE] {
    [WmeId::from_index(0); INLINE]
}

impl Default for Token {
    fn default() -> Self {
        Token(Repr::InPlace {
            len: Len::L0,
            wmes: unused(),
        })
    }
}

impl Hash for Token {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.wmes().hash(state);
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Token").field(&self.wmes()).finish()
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
        let Some(len) = Len::of(wmes.len()) else {
            return Token(Repr::Spilled(wmes.into()));
        };
        let mut in_place = unused();
        in_place[..wmes.len()].copy_from_slice(&wmes);
        Token(Repr::InPlace {
            len,
            wmes: in_place,
        })
    }

    /// Extends the token with the WME matching the next positive CE.
    /// The parent is left as it is.
    #[inline]
    pub fn extended(&self, wme: WmeId) -> Token {
        if let Repr::InPlace { len, wmes } = &self.0 {
            if let Some(longer) = Len::of(*len as usize + 1) {
                let mut wmes = *wmes;
                wmes[*len as usize] = wme;
                return Token(Repr::InPlace { len: longer, wmes });
            }
        }
        // An exact-size iterator collects straight into the `Arc`: one
        // allocation, not a `Vec` plus the copy out of it.
        let longer = self.wmes().iter().copied().chain(std::iter::once(wme));
        Token(Repr::Spilled(longer.collect()))
    }

    /// The WME at positive-CE position `i`.
    #[inline]
    pub fn wme_at(&self, i: usize) -> Option<WmeId> {
        self.wmes().get(i).copied()
    }

    /// All WMEs, in CE order.
    #[inline]
    pub fn wmes(&self) -> &[WmeId] {
        match &self.0 {
            Repr::InPlace { len, wmes } => &wmes[..*len as usize],
            Repr::Spilled(wmes) => wmes,
        }
    }

    /// Consumes the token, yielding its WME list.
    pub fn into_wmes(self) -> Vec<WmeId> {
        self.wmes().to_vec()
    }

    /// Number of matched positive CEs.
    pub fn len(&self) -> usize {
        self.wmes().len()
    }

    /// True for the top token.
    pub fn is_empty(&self) -> bool {
        self.wmes().is_empty()
    }

    /// Whether the token references `wme`.
    pub fn contains(&self, wme: WmeId) -> bool {
        self.wmes().contains(&wme)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, w) in self.wmes().iter().enumerate() {
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

    fn hash_of<T: Hash + ?Sized>(value: &T) -> [u64; 2] {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let fx = BuildHasherDefault::<ops5::FxHasher>::default();
        let sip = BuildHasherDefault::<DefaultHasher>::default();
        [fx.hash_one(value), sip.hash_one(value)]
    }

    /// However a token of a given length comes to be — from a list, by
    /// extension from the top token, out of a `PSMR` image — it is the
    /// same token: in place up to five WMEs, spilled beyond, and hashed
    /// as the slice of its ids either way.
    #[test]
    fn every_way_to_a_length_makes_the_same_token() {
        use crate::snapshot::{decode_token, encode_tokens};
        for n in 0..=12usize {
            // Id 0, what an in-place token's unused places hold, comes
            // first, fifth and ninth.
            let ids: Vec<WmeId> = (0..n).map(|i| w(i * 3 % 4)).collect();
            let listed = Token::from_wmes(ids.clone());
            let extended = ids.iter().fold(Token::top(), |t, &id| t.extended(id));
            let mut image = ops5::ByteWriter::new();
            encode_tokens(&mut image, std::slice::from_ref(&listed));
            let image = image.finish();
            assert_eq!(image.len(), 4 + 4 * n);
            let decoded = decode_token(&mut ops5::ByteReader::new(&image)).expect("decodes");
            let shown = ids.iter().map(|id| id.to_string()).collect::<Vec<_>>();
            for (how, token) in [
                ("listed", &listed),
                ("extended", &extended),
                ("decoded", &decoded),
            ] {
                let at = format!("{how}, length {n}");
                assert_eq!(token, &listed, "{at}");
                assert_eq!(&listed, token, "{at}");
                assert_eq!(hash_of(token), hash_of(&ids[..]), "{at}");
                assert_eq!(token.wmes(), &ids[..], "{at}");
                assert_eq!((token.len(), token.is_empty()), (n, n == 0), "{at}");
                for i in 0..=n {
                    assert_eq!(token.wme_at(i), ids.get(i).copied(), "{at}");
                }
                assert!(ids.iter().all(|&id| token.contains(id)), "{at}");
                assert!(!token.contains(w(99)), "{at}");
                assert_eq!(token.to_string(), format!("<{}>", shown.join(" ")), "{at}");
                assert_eq!(token.clone().into_wmes(), ids, "{at}");
            }
            // A length is part of a token: padding is not a WME.
            assert_ne!(listed, listed.extended(w(0)), "length {n}");
            assert_ne!(listed.extended(w(0)), listed, "length {n}");
        }
    }

    #[test]
    fn extension_crosses_into_the_spilled_form_and_compares_both_ways() {
        let ids: Vec<WmeId> = (1..=7).map(w).collect();
        let five = Token::from_wmes(ids[..5].to_vec());
        let six = five.extended(ids[5]);
        let seven = six.extended(ids[6]);
        assert_eq!(five.len(), 5, "the parent is left as it is");
        assert_eq!(six, Token::from_wmes(ids[..6].to_vec()));
        assert_eq!(Token::from_wmes(ids[..6].to_vec()), six);
        assert_eq!(seven, Token::from_wmes(ids.clone()), "not the same slice");
        for (shorter, longer) in [(&five, &six), (&six, &seven), (&five, &seven)] {
            assert_ne!(shorter, longer);
            assert_ne!(longer, shorter);
            assert_eq!(&longer.wmes()[..shorter.len()], shorter.wmes());
        }
        let other = Token::from_wmes(ids[..5].to_vec()).extended(w(9));
        assert_ne!(six, other);
        assert_ne!(other, six);
    }

    /// A memory row is a token, a queued payload is a token and a tag:
    /// a field added to `Token` widens every one of them.
    #[test]
    fn a_token_is_three_words_and_leaves_room_for_a_tag() {
        assert_eq!(std::mem::size_of::<Token>(), 24);
        assert_eq!(std::mem::size_of::<Option<Token>>(), 24);
    }

    #[test]
    fn display_shapes() {
        assert_eq!(format!("{}", Token::top()), "<>");
        assert_eq!(format!("{}", Token::from_wmes(vec![w(3), w(5)])), "<w3 w5>");
    }
}
