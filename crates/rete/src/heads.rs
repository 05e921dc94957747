//! One key slot's chain heads, held in key order.
//!
//! A [`Memory`](crate::memory::Memory) finds a chain by its key
//! fingerprint, and a snapshot lists each slot's heads in ascending key
//! order. [`Heads`] is an ordered hash table (O. Amble and D. E. Knuth,
//! "Ordered hash tables", The Computer Journal 17(2), 1974) whose home
//! bucket rises with the key: linear probing from the key's home, no
//! wrap at the end, and each run of occupied buckets in ascending key
//! order. A fingerprint is a multiplicative hash, so its high bits
//! spread the keys over the buckets; and the buckets read from first to
//! last are the heads in ascending key order, whatever order the keys
//! arrived and left in — an image lists them with no sort. A bucket
//! packs its key above its head, so rotated by 32 bits it is the pair's
//! bytes as the image lists them, and the buckets are written to the
//! image as they are, the empty ones written over or cut off
//! ([`Heads::encode`]).

use ops5::ByteWriter;

/// A bucket holding no head: above every held bucket, which packs its
/// key above its head and never holds a head of `NIL`.
const EMPTY: u64 = u64::MAX;

/// Buckets a search compares at once, and the empty buckets always kept
/// behind the last one that holds a head, so that every window from a
/// home lies inside the table and every run ends in an empty bucket.
const WINDOW: usize = 4;

/// See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Heads {
    /// `key << 32 | head`, or [`EMPTY`]: the `homes` buckets keys hash
    /// to, then whatever the last run overflowed into, then `WINDOW`
    /// empty buckets. None at all before the first insert.
    buckets: Vec<u64>,
    /// How many buckets keys hash to: a power of two, or 0 before the
    /// first insert.
    homes: usize,
    len: usize,
}

/// The bucket holding `head` as the head of `key`'s chain.
fn bucket(key: u32, head: u32) -> u64 {
    u64::from(key) << 32 | u64::from(head)
}

impl Heads {
    /// Number of heads held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The bucket `key` is probed for from: never less for a greater
    /// key, so ascending runs make an ascending table.
    #[inline]
    fn home(&self, key: u32) -> usize {
        ((u64::from(key) * self.homes as u64) >> 32) as usize
    }

    /// Where `key` is, and whether it is there: else the bucket it
    /// belongs in, the first from its home that is empty or holds a
    /// greater key.
    ///
    /// From the home on, the buckets below that one are exactly those
    /// holding a smaller key — the rest of its run holds greater keys,
    /// an empty bucket sorts above every key, and a later run's keys
    /// have later homes, so greater keys — so counting them a window at
    /// a time finds it without a branch per bucket.
    #[inline]
    fn seek(&self, key: u32) -> (usize, bool) {
        let below = u64::from(key) << 32;
        let mut at = self.home(key);
        loop {
            let Some(window) = self.buckets.get(at..at + WINDOW) else {
                return (at, false);
            };
            let smaller: usize = window.iter().map(|&b| usize::from(b < below)).sum();
            at += smaller;
            if smaller < WINDOW {
                let held = self.buckets[at];
                return (at, held != EMPTY && held >> 32 == below >> 32);
            }
        }
    }

    /// The head of `key`'s chain.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<u32> {
        let (at, found) = self.seek(key);
        found.then(|| self.buckets[at] as u32)
    }

    /// Makes `head` the head of `key`'s chain, returning the one it
    /// replaces.
    pub(crate) fn insert(&mut self, key: u32, head: u32) -> Option<u32> {
        debug_assert_ne!(head, u32::MAX, "a head is an entry position");
        let (mut at, found) = self.seek(key);
        if found {
            let old = std::mem::replace(&mut self.buckets[at], bucket(key, head));
            return Some(old as u32);
        }
        if (self.len + 1) * 8 > self.homes * 7 {
            self.grow();
            at = self.seek(key).0;
        }
        // Put it in its place and carry the rest of the run up by one
        // bucket, into the empty bucket that ends it.
        let mut carried = bucket(key, head);
        while carried != EMPTY {
            carried = std::mem::replace(&mut self.buckets[at], carried);
            at += 1;
        }
        self.len += 1;
        if self.buckets[self.buckets.len() - WINDOW] != EMPTY {
            self.overflow();
        }
        None
    }

    /// Drops `key`'s chain head, returning it.
    pub(crate) fn remove(&mut self, key: u32) -> Option<u32> {
        let (at, found) = self.seek(key);
        if !found {
            return None;
        }
        let (head, mut at) = (self.buckets[at] as u32, at);
        // Every key after it on its run that is not in its home moves
        // down a bucket: still at or after its home, still in order.
        loop {
            let next = self.buckets[at + 1];
            if next == EMPTY || self.home((next >> 32) as u32) == at + 1 {
                break;
            }
            self.buckets[at] = next;
            at += 1;
        }
        self.buckets[at] = EMPTY;
        self.len -= 1;
        Some(head)
    }

    /// The heads `pairs` lists in strictly ascending key order, in the
    /// home buckets inserting them would have grown to; `None` when a key
    /// does not exceed the one before it. Linear in the pairs, however
    /// their keys cluster.
    pub(crate) fn from_ascending(pairs: &[(u32, u32)]) -> Option<Self> {
        if pairs.windows(2).any(|two| two[0].0 >= two[1].0) {
            return None;
        }
        let mut heads = Heads::default();
        if !pairs.is_empty() {
            let mut homes = 4;
            while pairs.len() * 8 > homes * 7 {
                homes *= 2;
            }
            heads.fill(homes, pairs.iter().map(|&(key, head)| bucket(key, head)));
            heads.len = pairs.len();
        }
        Some(heads)
    }

    /// Doubles the home buckets, refilling them in key order.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.buckets);
        let held = old.into_iter().filter(|&b| b != EMPTY);
        self.fill((self.homes * 2).max(4), held);
    }

    /// Lays `held`, in ascending key order, over `homes` empty home
    /// buckets: each at its home, or just behind the one before it. The
    /// allocation leaves room for a window's worth of overflow, so that a
    /// small table whose last run spills does not reallocate for it.
    fn fill(&mut self, homes: usize, held: impl Iterator<Item = u64>) {
        self.buckets = Vec::with_capacity(homes + 2 * WINDOW);
        self.buckets.resize(homes + WINDOW, EMPTY);
        self.homes = homes;
        let mut next = 0;
        for b in held {
            let at = self.home((b >> 32) as u32).max(next);
            if at + WINDOW == self.buckets.len() {
                self.overflow();
            }
            self.buckets[at] = b;
            next = at + 1;
        }
    }

    /// Adds an empty bucket behind the last, growing the allocation by a
    /// sixteenth of the home buckets (a window's worth at least), not
    /// doubling it as a push would.
    fn overflow(&mut self) {
        self.buckets.reserve_exact(WINDOW.max(self.homes / 16));
        self.buckets.push(EMPTY);
    }

    /// Writes the heads as an image lists them: their count, then each
    /// `(key, head)` in ascending key order, little-endian. A bucket
    /// `key << 32 | head` rotated by 32 bits is that pair's eight bytes,
    /// so every bucket up to the last held one is written where the
    /// cursor is, and the cursor moves past the held ones only: no
    /// branch per bucket. An empty bucket lands where the next held one
    /// is written over it, so nothing is written past the heads and a
    /// writer sized for the image never grows.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.len as u32);
        let out = w.zeroed(8 * self.len);
        let held = self.buckets.iter().rposition(|&b| b != EMPTY);
        let mut at = 0;
        for &b in &self.buckets[..held.map_or(0, |last| last + 1)] {
            out[at..at + 8].copy_from_slice(&b.rotate_left(32).to_le_bytes());
            at += 8 * usize::from(b != EMPTY);
        }
    }

    /// Every `(key, head)`, in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let held = self.buckets.iter().filter(|&&b| b != EMPTY);
        held.map(|&b| ((b >> 32) as u32, b as u32))
    }

    /// Buckets allocated, overflow included (for the tests).
    #[cfg(test)]
    pub(crate) fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the last run ever spilled past the home buckets' window
    /// (for the tests).
    #[cfg(test)]
    pub(crate) fn overflowed(&self) -> bool {
        self.buckets.len() > self.homes + WINDOW
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_obs::Rng64;
    use std::collections::BTreeMap;

    /// Checks `heads` against `model`: the same pairs in ascending key
    /// order, each key found from its home across occupied buckets only,
    /// and the table ending in `WINDOW` empty buckets.
    fn assert_holds(heads: &Heads, model: &BTreeMap<u32, u32>, at: &str) {
        let pairs: Vec<(u32, u32)> = model.iter().map(|(&k, &h)| (k, h)).collect();
        assert!(heads.iter().eq(pairs.iter().copied()), "{at}: key order");
        let (mut bulk, mut single) = (ByteWriter::new(), ByteWriter::new());
        bulk.u8(0xEE);
        single.u8(0xEE);
        heads.encode(&mut bulk);
        single.u32(pairs.len() as u32);
        for &(key, head) in &pairs {
            single.u32(key);
            single.u32(head);
        }
        assert_eq!(bulk.finish(), single.finish(), "{at}: encoded");
        assert_eq!(heads.len(), model.len(), "{at}");
        for (at_bucket, &b) in heads.buckets.iter().enumerate() {
            if b != EMPTY {
                let home = heads.home((b >> 32) as u32);
                assert!(home <= at_bucket, "{at}: {b:x} before its home");
                let run = &heads.buckets[home..at_bucket];
                assert!(run.iter().all(|&b| b != EMPTY), "{at}: gap in run");
            }
        }
        let n = heads.buckets.len();
        if n > 0 {
            assert!(n <= heads.homes + WINDOW + heads.len, "{at}");
            let tail = &heads.buckets[n - WINDOW..];
            assert!(tail.iter().all(|&b| b == EMPTY), "{at}: tail");
        }
    }

    /// Random inserts, replacements and removes against a `BTreeMap`,
    /// with keys spread like fingerprints and with keys all sharing one
    /// home (one long run, shifted both ways); at intervals the table
    /// built from its own listing holds the same.
    #[test]
    fn heads_follow_an_ordered_map() {
        for (seed, spread) in [(1u64, true), (2, false)] {
            let mut rng = Rng64::new(0x4EAD + seed);
            let (mut heads, mut model) = (Heads::default(), BTreeMap::new());
            let steps = if cfg!(miri) { 300 } else { 20_000 };
            for step in 0..steps {
                let key = rng.gen_range(0..400u32);
                let key = if spread {
                    key.wrapping_mul(0x9E37_79B9)
                } else {
                    key
                };
                let at = format!("step {step}");
                if rng.gen_range(0..10u32) < 6 {
                    let head = rng.gen_range(0..1_000u32);
                    assert_eq!(heads.insert(key, head), model.insert(key, head), "{at}");
                } else {
                    assert_eq!(heads.remove(key), model.remove(&key), "{at}");
                }
                assert_eq!(heads.get(key), model.get(&key).copied(), "{at}");
                if step % 97 == 0 {
                    assert_holds(&heads, &model, &at);
                    let pairs: Vec<(u32, u32)> = heads.iter().collect();
                    let rebuilt = Heads::from_ascending(&pairs).expect("ascending");
                    assert_holds(&rebuilt, &model, &format!("{at}, rebuilt"));
                }
            }
            assert_holds(&heads, &model, "end");
            let keys: Vec<u32> = model.keys().copied().collect();
            for key in keys {
                assert_eq!(heads.remove(key), model.remove(&key));
            }
            assert_holds(&heads, &model, "drained");
        }
    }

    /// The extreme keys: 0 and `u32::MAX` are held like any other, the
    /// greatest in the last home bucket or past it, and an absent
    /// `u32::MAX` is not taken for an empty bucket.
    #[test]
    fn the_extreme_keys_are_held() {
        let mut heads = Heads::default();
        assert_eq!(heads.get(u32::MAX), None);
        for (key, head) in [(u32::MAX, 1), (0, 2), (u32::MAX - 1, 3), (1, 4)] {
            assert_eq!(heads.insert(key, head), None);
        }
        let pairs: Vec<_> = heads.iter().collect();
        assert_eq!(pairs, [(0, 2), (1, 4), (u32::MAX - 1, 3), (u32::MAX, 1)]);
        assert_eq!(heads.remove(u32::MAX), Some(1));
        assert_eq!(heads.get(u32::MAX), None);
        assert_eq!(heads.get(u32::MAX - 1), Some(3));
    }

    /// A list that is not strictly ascending builds no table.
    #[test]
    fn only_ascending_keys_build_a_table() {
        assert!(Heads::from_ascending(&[]).is_some_and(|heads| heads.len() == 0));
        assert!(Heads::from_ascending(&[(1, 0), (2, 1)]).is_some());
        assert!(Heads::from_ascending(&[(2, 0), (1, 1)]).is_none());
        assert!(Heads::from_ascending(&[(1, 0), (1, 1)]).is_none());
    }
}
