//! Working memory: the database of assertions productions match against.
//!
//! A working memory's image (`PSMW` v1) is its time-tag counter, its
//! slot count and every slot in id order: a live one as `1`, its tag and
//! its element, a retracted one as a single `0`. Ids are never reused
//! and a slot changes once, from live to retracted, so what changes
//! between two images is the slots retracted in between and the slots
//! appended. [`WorkingMemory::image_since`] builds the next image from
//! the last ([`WmImage`], kept with where each slot starts in it): each
//! run of slots between two retracted ones is copied in one piece, each
//! retracted slot becomes its `0`, the appended slots are encoded, and
//! the header's counter and count are written anew. An image from
//! nothing (no last image, or [`WorkingMemory::snapshot_bytes`]) is the
//! same code with every slot appended, so the bytes are the same.

use std::fmt;
use std::sync::Arc;

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::symbol::{SymbolId, SymbolTable};
use crate::value::Value;

/// A working memory element: a class plus attribute–value pairs.
///
/// Attributes are kept sorted by attribute symbol so lookup is a binary
/// search and structural equality is canonical.
///
/// # Examples
///
/// ```
/// use ops5::{SymbolTable, Wme, Value};
///
/// let mut syms = SymbolTable::new();
/// let class = syms.intern("block");
/// let color = syms.intern("color");
/// let red = syms.intern("red");
/// let wme = Wme::new(class, vec![(color, Value::Sym(red))]);
/// assert_eq!(wme.get(color), Some(Value::Sym(red)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Wme {
    class: SymbolId,
    attrs: Vec<(SymbolId, Value)>,
}

impl Wme {
    /// Creates a WME, sorting the attribute list. A duplicated attribute
    /// keeps its last value, matching OPS5 `make` semantics where later
    /// `^attr value` pairs override earlier ones.
    pub fn new(class: SymbolId, mut attrs: Vec<(SymbolId, Value)>) -> Self {
        attrs.sort_by_key(|(a, _)| *a);
        // Keep the last write for each attribute.
        let mut dedup: Vec<(SymbolId, Value)> = Vec::with_capacity(attrs.len());
        for (a, v) in attrs {
            match dedup.last_mut() {
                Some((pa, pv)) if *pa == a => *pv = v,
                _ => dedup.push((a, v)),
            }
        }
        Wme {
            class,
            attrs: dedup,
        }
    }

    /// The class symbol of this element.
    pub fn class(&self) -> SymbolId {
        self.class
    }

    /// The value of `attr`, if present.
    pub fn get(&self, attr: SymbolId) -> Option<Value> {
        self.attrs
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .map(|i| self.attrs[i].1)
    }

    /// Iterates over `(attribute, value)` pairs in attribute order.
    pub fn attrs(&self) -> impl Iterator<Item = (SymbolId, Value)> + '_ {
        self.attrs.iter().copied()
    }

    /// Number of attribute–value pairs.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the element carries no attributes (class only).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Returns a copy with the given attributes overridden (the `modify`
    /// action applies this, then re-asserts the element).
    pub fn modified(&self, updates: &[(SymbolId, Value)]) -> Wme {
        let mut attrs = self.attrs.clone();
        for &(a, v) in updates {
            match attrs.binary_search_by_key(&a, |(x, _)| *x) {
                Ok(i) => attrs[i].1 = v,
                Err(i) => attrs.insert(i, (a, v)),
            }
        }
        Wme {
            class: self.class,
            attrs,
        }
    }

    /// How many bytes [`Wme::encode`] writes.
    fn encoded_len(&self) -> usize {
        let attrs = self.attrs.iter().map(|&(_, value)| 4 + value.encoded_len());
        4 + 8 + attrs.sum::<usize>()
    }

    /// Serializes the element into `w` (class, then sorted attribute
    /// pairs). The canonical attribute order makes the encoding
    /// deterministic for equal elements.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.class.index() as u32);
        w.usize(self.attrs.len());
        for &(attr, value) in &self.attrs {
            w.u32(attr.index() as u32);
            value.encode(w);
        }
    }

    /// Deserializes an element written by [`Wme::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Wme, CodecError> {
        let class = SymbolId::from_index(r.u32()? as usize);
        let n = r.usize()?;
        let mut attrs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let attr = SymbolId::from_index(r.u32()? as usize);
            let value = Value::decode(r)?;
            attrs.push((attr, value));
        }
        Ok(Wme::new(class, attrs))
    }

    /// Renders the element in OPS5 surface syntax.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Wme, &'a SymbolTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "({}", self.1.name(self.0.class))?;
                for (a, v) in &self.0.attrs {
                    write!(f, " ^{} {}", self.1.name(*a), v.display(self.1))?;
                }
                write!(f, ")")
            }
        }
        D(self, symbols)
    }
}

/// A stable handle to a WME inside a [`WorkingMemory`].
///
/// Handles are never reused within one working memory's lifetime, so a
/// dangling `WmeId` is detectable (`get` returns `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WmeId(pub(crate) u32);

impl WmeId {
    /// Raw index, useful for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from [`WmeId::index`].
    pub fn from_index(i: usize) -> Self {
        WmeId(i as u32)
    }
}

impl fmt::Display for WmeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// The recency time tag OPS5 attaches to every assertion.
///
/// Conflict resolution (LEX/MEA) is defined entirely in terms of these
/// tags: a larger tag means a more recent assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeTag(pub u64);

impl fmt::Display for TimeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

const IMAGE_MAGIC: [u8; 4] = *b"PSMW";
const IMAGE_VERSION: u32 = 1;
/// Magic, version, time-tag counter and slot count: where the first
/// slot of an image starts.
const IMAGE_HEADER: usize = 4 + 4 + 8 + 8;

/// A working memory's `PSMW` image with where each of its slots starts
/// in it: what [`WorkingMemory::image_since`] copies the next image of
/// the same working memory from (see the module docs).
#[derive(Debug, Clone)]
pub struct WmImage {
    /// Shared with whoever holds the image besides (a checkpoint).
    bytes: Arc<Vec<u8>>,
    /// Slot `i` is `starts[i]..starts[i + 1]` of `bytes`.
    starts: Vec<u32>,
}

impl WmImage {
    /// The image's bytes, exactly [`WorkingMemory::snapshot_bytes`].
    pub fn bytes(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// How many slots the image holds.
    fn slots(&self) -> usize {
        self.starts.len() - 1
    }
}

/// Bytes slot `slot` takes in an image.
fn slot_len(slot: &Option<(Wme, TimeTag)>) -> usize {
    slot.as_ref()
        .map_or(1, |(wme, _)| 1 + 8 + wme.encoded_len())
}

/// Writes one slot of an image.
fn encode_slot(w: &mut ByteWriter, slot: &Option<(Wme, TimeTag)>) {
    match slot {
        None => w.u8(0),
        Some((wme, tag)) => {
            w.u8(1);
            w.u64(tag.0);
            wme.encode(w);
        }
    }
}

/// Where byte `at` of an image is, as a slot start.
fn start(at: usize) -> u32 {
    u32::try_from(at).expect("a working-memory image under 4 GiB")
}

/// The working memory: an arena of live WMEs with time tags.
///
/// `add` assigns a fresh [`WmeId`] and the next [`TimeTag`]; `remove`
/// tombstones the slot. Matchers receive `&WorkingMemory` so tokens can
/// store compact `WmeId`s and resolve them on demand.
#[derive(Debug, Clone, Default)]
pub struct WorkingMemory {
    slots: Vec<Option<(Wme, TimeTag)>>,
    next_tag: u64,
    live: usize,
}

impl WorkingMemory {
    /// Creates an empty working memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asserts `wme`, returning its handle and recency tag.
    pub fn add(&mut self, wme: Wme) -> (WmeId, TimeTag) {
        self.next_tag += 1;
        let tag = TimeTag(self.next_tag);
        let id = self.next_id();
        self.slots.push(Some((wme, tag)));
        self.live += 1;
        (id, tag)
    }

    /// The handle the next [`WorkingMemory::add`] will return: ids are
    /// dense and never reused.
    pub fn next_id(&self) -> WmeId {
        WmeId(self.slots.len() as u32)
    }

    /// Retracts `id`. Returns the element if it was live.
    pub fn remove(&mut self, id: WmeId) -> Option<Wme> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let taken = slot.take();
        if taken.is_some() {
            self.live -= 1;
        }
        taken.map(|(w, _)| w)
    }

    /// The element behind `id`, if still live.
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        self.slots.get(id.0 as usize)?.as_ref().map(|(w, _)| w)
    }

    /// The recency tag of `id`, if still live.
    pub fn time_tag(&self, id: WmeId) -> Option<TimeTag> {
        self.slots.get(id.0 as usize)?.as_ref().map(|(_, t)| *t)
    }

    /// Number of live elements (the paper's stable working-memory size
    /// `s` in the Section 3.1 cost model).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no elements are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live `(id, wme, tag)` triples in assertion order.
    pub fn iter(&self) -> impl Iterator<Item = (WmeId, &Wme, TimeTag)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|(w, t)| (WmeId(i as u32), w, *t)))
    }

    /// Iterates over live WMEs of one class, the most common query in
    /// application code inspecting results.
    ///
    /// # Examples
    ///
    /// ```
    /// use ops5::{SymbolTable, Wme, WorkingMemory};
    ///
    /// let mut syms = SymbolTable::new();
    /// let block = syms.intern("block");
    /// let goal = syms.intern("goal");
    /// let mut wm = WorkingMemory::new();
    /// wm.add(Wme::new(block, vec![]));
    /// wm.add(Wme::new(goal, vec![]));
    /// wm.add(Wme::new(block, vec![]));
    /// assert_eq!(wm.by_class(block).count(), 2);
    /// ```
    pub fn by_class(&self, class: SymbolId) -> impl Iterator<Item = (WmeId, &Wme)> {
        self.iter()
            .filter(move |(_, w, _)| w.class() == class)
            .map(|(id, w, _)| (id, w))
    }

    /// Serializes the whole working memory — including tombstoned slots
    /// and the time-tag counter — into a versioned snapshot.
    ///
    /// Restoring the snapshot and replaying the same `add`/`remove`
    /// sequence reproduces identical [`WmeId`]s and [`TimeTag`]s, which
    /// is what makes snapshot + write-ahead-log replay a faithful
    /// recovery strategy (`psm-fault`).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        Arc::unwrap_or_clone(self.image_since(None, &mut Vec::new()).bytes)
    }

    /// The image of this working memory, copied from `last` — an earlier
    /// image of it — except the slots that changed since: `retracted`
    /// names, in any order and once each, every slot retracted since
    /// `last` was taken (a slot appended since may be named or not), and
    /// is left empty. The bytes are [`WorkingMemory::snapshot_bytes`]'s;
    /// the cost is a copy of `last` and the encoding of the slots
    /// appended since. With no `last` every slot is encoded.
    ///
    /// # Panics
    ///
    /// When `retracted` names a slot twice or names a slot of `last` that
    /// is live, or `last` holds more slots than this working memory.
    pub fn image_since(&self, last: Option<&WmImage>, retracted: &mut Vec<WmeId>) -> WmImage {
        retracted.sort_unstable();
        let image = self.encode(last, retracted);
        retracted.clear();
        image
    }

    /// The one `PSMW` encoder: the slots of `last` copied from it in
    /// runs, with each of `retracted` (ascending) among them written as a
    /// retracted slot, then every slot appended since, each encoded. With
    /// no `last` every slot is appended.
    fn encode(&self, last: Option<&WmImage>, retracted: &[WmeId]) -> WmImage {
        let kept = last.map_or(0, WmImage::slots);
        assert!(kept <= self.slots.len(), "an image of this working memory");
        assert!(
            retracted.windows(2).all(|two| two[0] < two[1]),
            "each retracted slot listed once"
        );
        let retracted = retracted.iter().map(|id| id.index()).filter(|&i| i < kept);
        for i in retracted.clone() {
            assert!(self.slots[i].is_none(), "slot {i} listed retracted is live");
        }
        let appended = &self.slots[kept..];
        let copied = last.map_or(IMAGE_HEADER, |last| {
            let shrunk = retracted
                .clone()
                .map(|i| last.starts[i + 1] - last.starts[i] - 1);
            last.bytes.len() - shrunk.map(|n| n as usize).sum::<usize>()
        });
        let size = copied + appended.iter().map(slot_len).sum::<usize>();
        let mut w = ByteWriter::over(Vec::with_capacity(size));
        w.bytes(&IMAGE_MAGIC);
        w.u32(IMAGE_VERSION);
        w.u64(self.next_tag);
        w.usize(self.slots.len());
        let mut starts = Vec::with_capacity(self.slots.len() + 1);
        if let Some(last) = last {
            // Slots `..next` are in the image. A retracted slot only
            // shrinks, so a run lands at or before where it was.
            let mut next = 0;
            for i in retracted.chain([kept]) {
                let (from, to) = (last.starts[next] as usize, last.starts[i] as usize);
                let back = start(from - w.len());
                w.bytes(&last.bytes[from..to]);
                starts.extend(last.starts[next..i].iter().map(|&at| at - back));
                if i < kept {
                    starts.push(start(w.len()));
                    w.u8(0);
                }
                next = i + 1;
            }
        }
        for slot in appended {
            starts.push(start(w.len()));
            encode_slot(&mut w, slot);
        }
        starts.push(start(w.len()));
        debug_assert_eq!(w.len(), size, "the image fills what was reserved");
        WmImage {
            bytes: Arc::new(w.finish()),
            starts,
        }
    }

    /// Rebuilds a working memory from [`WorkingMemory::snapshot_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on bad magic, unsupported version, or
    /// malformed data.
    pub fn restore_snapshot(bytes: &[u8]) -> Result<WorkingMemory, CodecError> {
        let (mut r, version) = ByteReader::with_header(bytes, IMAGE_MAGIC)?;
        if version != IMAGE_VERSION {
            return Err(CodecError::BadVersion {
                supported: IMAGE_VERSION,
                found: version,
            });
        }
        let next_tag = r.u64()?;
        let n = r.usize()?;
        let mut slots = Vec::with_capacity(n.min(1 << 20));
        let mut live = 0usize;
        for _ in 0..n {
            match r.u8()? {
                0 => slots.push(None),
                1 => {
                    let tag = TimeTag(r.u64()?);
                    let wme = Wme::decode(&mut r)?;
                    live += 1;
                    slots.push(Some((wme, tag)));
                }
                _ => return Err(CodecError::Invalid("bad working-memory slot tag")),
            }
        }
        Ok(WorkingMemory {
            slots,
            next_tag,
            live,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn fixture() -> (SymbolTable, Wme) {
        let mut t = SymbolTable::new();
        let class = t.intern("block");
        let color = t.intern("color");
        let size = t.intern("size");
        let red = t.intern("red");
        let wme = Wme::new(class, vec![(size, Value::Int(3)), (color, Value::Sym(red))]);
        (t, wme)
    }

    #[test]
    fn attrs_are_sorted_and_deduped() {
        let mut t = SymbolTable::new();
        let c = t.intern("c");
        let a1 = t.intern("a1");
        let a2 = t.intern("a2");
        let w = Wme::new(
            c,
            vec![
                (a2, Value::Int(1)),
                (a1, Value::Int(2)),
                (a2, Value::Int(9)),
            ],
        );
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(a2), Some(Value::Int(9)), "last write wins");
        let order: Vec<SymbolId> = w.attrs().map(|(a, _)| a).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn get_missing_attr_is_none() {
        let (mut t, wme) = fixture();
        let missing = t.intern("weight");
        assert_eq!(wme.get(missing), None);
    }

    #[test]
    fn modified_overrides_and_inserts() {
        let (mut t, wme) = fixture();
        let color = t.lookup("color").unwrap();
        let weight = t.intern("weight");
        let blue = t.intern("blue");
        let m = wme.modified(&[(color, Value::Sym(blue)), (weight, Value::Int(10))]);
        assert_eq!(m.get(color), Some(Value::Sym(blue)));
        assert_eq!(m.get(weight), Some(Value::Int(10)));
        // The original is untouched.
        assert_eq!(wme.get(weight), None);
        assert_eq!(m.class(), wme.class());
    }

    #[test]
    fn working_memory_add_remove_roundtrip() {
        let (_t, wme) = fixture();
        let mut wm = WorkingMemory::new();
        let (id, tag) = wm.add(wme.clone());
        assert_eq!(wm.len(), 1);
        assert_eq!(wm.get(id), Some(&wme));
        assert_eq!(wm.time_tag(id), Some(tag));
        let removed = wm.remove(id);
        assert_eq!(removed, Some(wme));
        assert_eq!(wm.len(), 0);
        assert_eq!(wm.get(id), None);
        assert_eq!(wm.time_tag(id), None);
        // Double-remove is a no-op.
        assert_eq!(wm.remove(id), None);
        assert_eq!(wm.len(), 0);
    }

    #[test]
    fn time_tags_are_strictly_increasing() {
        let (_t, wme) = fixture();
        let mut wm = WorkingMemory::new();
        let (_, t1) = wm.add(wme.clone());
        let (id, t2) = wm.add(wme.clone());
        wm.remove(id);
        let (_, t3) = wm.add(wme);
        assert!(t1 < t2 && t2 < t3, "tags never reused even after removal");
    }

    #[test]
    fn iter_skips_tombstones() {
        let (_t, wme) = fixture();
        let mut wm = WorkingMemory::new();
        let (a, _) = wm.add(wme.clone());
        let (b, _) = wm.add(wme.clone());
        let (c, _) = wm.add(wme);
        wm.remove(b);
        let ids: Vec<WmeId> = wm.iter().map(|(i, _, _)| i).collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn by_class_filters_and_respects_removals() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let mut wm = WorkingMemory::new();
        let (id1, _) = wm.add(Wme::new(a, vec![]));
        wm.add(Wme::new(b, vec![]));
        wm.add(Wme::new(a, vec![]));
        assert_eq!(wm.by_class(a).count(), 2);
        assert_eq!(wm.by_class(b).count(), 1);
        wm.remove(id1);
        assert_eq!(wm.by_class(a).count(), 1);
        let missing = t.intern("nothing");
        assert_eq!(wm.by_class(missing).count(), 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_slots_tags_and_future_ids() {
        let (_t, wme) = fixture();
        let mut wm = WorkingMemory::new();
        let (a, _) = wm.add(wme.clone());
        let (b, _) = wm.add(wme.clone());
        wm.add(wme.clone());
        wm.remove(b);

        let bytes = wm.snapshot_bytes();
        let mut restored = WorkingMemory::restore_snapshot(&bytes).unwrap();
        assert_eq!(restored.len(), wm.len());
        assert_eq!(restored.get(a), wm.get(a));
        assert_eq!(restored.get(b), None, "tombstone survives the roundtrip");
        assert_eq!(restored.snapshot_bytes(), bytes, "canonical encoding");

        // Replaying the same future operations yields identical ids/tags.
        let (id1, t1) = wm.add(wme.clone());
        let (id2, t2) = restored.add(wme);
        assert_eq!(id1, id2);
        assert_eq!(t1, t2);
    }

    /// An image copied from the last one is the image from nothing,
    /// slot starts included, after every step of seeded add / retract /
    /// modify batches — a step of no change, the first and the last slot
    /// retracted, a WME added and retracted between two images, named
    /// among the retracted ones or not — starting from an empty working
    /// memory, and after several steps between two images.
    #[test]
    fn an_image_copied_from_the_last_is_the_image_from_nothing() {
        use psm_obs::Rng64;
        let mut t = SymbolTable::new();
        let attrs: Vec<SymbolId> = ["a", "b", "c", "d"].iter().map(|a| t.intern(a)).collect();
        let classes: Vec<SymbolId> = ["x", "y"].iter().map(|c| t.intern(c)).collect();
        let steps = if cfg!(miri) { 40 } else { 1500 };
        for (seed, every) in [(1u64, 1usize), (2, 3)] {
            let mut rng = Rng64::new(0x1A6E + seed);
            let wme = |rng: &mut Rng64| {
                let n = rng.gen_range(0..4usize);
                let pairs = (0..n).map(|i| {
                    let value = match rng.gen_bool(0.5) {
                        true => Value::Int(rng.gen_range(-500..500i64)),
                        false => Value::Sym(*rng.choose(&attrs)),
                    };
                    (attrs[i], value)
                });
                let pairs = pairs.collect();
                Wme::new(*rng.choose(&classes), pairs)
            };
            let mut wm = WorkingMemory::new();
            let mut last = wm.image_since(None, &mut Vec::new());
            assert_eq!(last.bytes[..], wm.snapshot_bytes(), "empty");
            let mut retracted = Vec::new();
            for step in 0..steps {
                let live: Vec<WmeId> = wm.iter().map(|(id, _, _)| id).collect();
                let mut retract = |wm: &mut WorkingMemory, id: WmeId, named: bool| {
                    if wm.remove(id).is_some() && named {
                        retracted.push(id);
                    }
                };
                match rng.gen_range(0..8u32) {
                    // No change.
                    0 => {}
                    // The first and the last slot.
                    1 => {
                        for id in [WmeId(0), WmeId(wm.slots.len().saturating_sub(1) as u32)] {
                            retract(&mut wm, id, true);
                        }
                    }
                    // Added and retracted before the next image.
                    2 => {
                        let (id, _) = wm.add(wme(&mut rng));
                        let named = rng.gen_bool(0.5);
                        retract(&mut wm, id, named);
                    }
                    // A modify: the old element out, the new one in.
                    3 if !live.is_empty() => {
                        let id = *rng.choose(&live);
                        retract(&mut wm, id, true);
                        wm.add(wme(&mut rng));
                    }
                    4 | 5 if !live.is_empty() => {
                        let id = *rng.choose(&live);
                        retract(&mut wm, id, true);
                    }
                    _ => {
                        for _ in 0..=rng.gen_range(0..3u32) {
                            wm.add(wme(&mut rng));
                        }
                    }
                }
                if step % every == 0 {
                    let next = wm.image_since(Some(&last), &mut retracted);
                    let fresh = wm.image_since(None, &mut Vec::new());
                    let at = format!("seed {seed}, step {step}");
                    assert!(retracted.is_empty(), "{at}: the list is taken");
                    assert_eq!(next.bytes, fresh.bytes, "{at}");
                    assert_eq!(next.starts, fresh.starts, "{at}");
                    assert_eq!(fresh.bytes[..], wm.snapshot_bytes(), "{at}");
                    assert_eq!(next.bytes.len(), next.bytes.capacity(), "{at}: sized");
                    last = next;
                }
            }
            let restored = WorkingMemory::restore_snapshot(&last.bytes).unwrap();
            assert_eq!(restored.snapshot_bytes(), last.bytes[..]);
        }
    }

    /// A slot listed as retracted that is live is refused, not imaged.
    #[test]
    #[should_panic(expected = "listed retracted is live")]
    fn an_image_refuses_a_live_slot_listed_retracted() {
        let (_t, wme) = fixture();
        let mut wm = WorkingMemory::new();
        let (id, _) = wm.add(wme);
        let last = wm.image_since(None, &mut Vec::new());
        wm.image_since(Some(&last), &mut vec![id]);
    }

    #[test]
    fn restore_rejects_wrong_version() {
        let wm = WorkingMemory::new();
        let mut bytes = wm.snapshot_bytes();
        bytes[4] = 99; // bump the version field
        assert!(matches!(
            WorkingMemory::restore_snapshot(&bytes),
            Err(crate::codec::CodecError::BadVersion { .. })
        ));
    }

    #[test]
    fn display_round_trips_syntax_shape() {
        let (t, wme) = fixture();
        let s = format!("{}", wme.display(&t));
        assert!(s.starts_with("(block"));
        assert!(s.contains("^color red"));
        assert!(s.contains("^size 3"));
        assert!(s.ends_with(')'));
    }
}
