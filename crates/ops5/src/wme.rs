//! Working memory: the database of assertions productions match against.
//!
//! A working memory's image (`PSMW` v1) is its time-tag counter, its
//! slot count and every slot in id order: a live one as `1`, its tag and
//! its element, a retracted one as a single `0`. Ids are never reused
//! and a slot changes once, from live to retracted, so what changes
//! between two images is the slots retracted in between and the slots
//! appended. The next image is made in two halves, the way a matcher's
//! is (`rete::ImageUpdate`). Its owner notes each retraction as it makes
//! it ([`WmMarks::retract`]), and at the image
//! [`WorkingMemory::encode_changes`] lists those slots and encodes the
//! appended ones ([`WmUpdate`]): no pass over the slots that did not
//! change. [`WmUpdate::assemble`] then writes the image from the last
//! one, wherever that is kept: each run of slots between two retracted
//! ones is copied in one piece, each retracted slot becomes its `0`, the
//! appended slots follow, and the header's counter and count are written
//! anew. An image from nothing ([`WorkingMemory::snapshot_bytes`]) is the
//! same pair with every slot appended, so the bytes are the same.

use std::fmt;

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

/// What changed in a working memory since its last image, as its owner
/// notes it: the slots of that image retracted since, and the image's
/// length less what they shrink it by. Read and emptied by
/// [`WorkingMemory::encode_changes`]; before the first image it notes
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct WmMarks {
    /// The last image's slot count and its length as the slots retracted
    /// since leave it; `None` before the first image.
    last: Option<(usize, usize)>,
    retracted: Vec<WmeId>,
}

impl WmMarks {
    /// Notes that slot `id`, which held `wme`, was retracted. A slot the
    /// last image does not hold is not noted: it is encoded with the
    /// slots appended since.
    pub fn retract(&mut self, id: WmeId, wme: &Wme) {
        if let Some((kept, len)) = &mut self.last {
            if id.index() < *kept {
                self.retracted.push(id);
                *len -= 8 + wme.encoded_len();
            }
        }
    }
}

/// A working memory's next `PSMW` image as the slots that changed since
/// its last one ([`WorkingMemory::encode_changes`]), to be assembled with
/// the slots that did not ([`WmUpdate::assemble`]). Reused from one image
/// to the next, it keeps its buffers.
#[derive(Debug, Clone, Default)]
pub struct WmUpdate {
    /// The header's time-tag counter and slot count.
    next_tag: u64,
    slots: usize,
    /// Slots in the image the update is assembled onto.
    kept: usize,
    /// No image before it: every slot is appended.
    whole: bool,
    /// The slots of that image retracted since, ascending.
    retracted: Vec<WmeId>,
    /// The slots appended since, encoded, and where each starts in the
    /// image.
    appended: Vec<u8>,
    appended_at: Vec<u32>,
    /// The image's length.
    len: usize,
    /// Room for the image's slot starts, made by the thread that encodes:
    /// an assembly allocates nothing.
    starts: Vec<u32>,
}

impl WmUpdate {
    /// The length of the image the update makes.
    pub fn image_len(&self) -> usize {
        self.len
    }

    /// Appends the image to `out`: the header, then the slots of `base`
    /// copied in runs between the retracted ones, each of those written
    /// as retracted, then the slots appended since. `base` is the image
    /// before, `starts` where each of its slots starts in it — neither is
    /// read for a whole update — and `starts` is left holding where each
    /// slot starts in the new image.
    ///
    /// # Panics
    ///
    /// When the update is not whole and `starts` is not the slot starts
    /// of an image of as many slots as the last one of its working memory.
    pub fn assemble(&mut self, base: &[u8], starts: &mut Vec<u32>, out: &mut Vec<u8>) {
        assert!(
            self.whole || starts.len() == self.kept + 1,
            "an update assembled onto the image of another working memory"
        );
        let at = out.len();
        let mut w = ByteWriter::over(std::mem::take(out));
        w.bytes(&IMAGE_MAGIC);
        w.u32(IMAGE_VERSION);
        w.u64(self.next_tag);
        w.usize(self.slots);
        let next = &mut self.starts;
        next.clear();
        if !self.whole {
            // Slots `..from` are in the image. A retracted slot only
            // shrinks, so a run lands at or before where it was.
            let mut from = 0;
            for i in self
                .retracted
                .iter()
                .map(|id| id.index())
                .chain([self.kept])
            {
                let (a, b) = (starts[from] as usize, starts[i] as usize);
                let back = start(a - (w.len() - at));
                w.bytes(&base[a..b]);
                next.extend(starts[from..i].iter().map(|&s| s - back));
                if i < self.kept {
                    next.push(start(w.len() - at));
                    w.u8(0);
                }
                from = i + 1;
            }
        }
        next.extend_from_slice(&self.appended_at);
        w.bytes(&self.appended);
        next.push(start(w.len() - at));
        assert_eq!(
            w.len() - at,
            self.len,
            "the image is as long as its update said"
        );
        *out = w.finish();
        std::mem::swap(starts, next);
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
    /// and the time-tag counter — into a versioned snapshot: the image
    /// of an update from nothing.
    ///
    /// Restoring the snapshot and replaying the same `add`/`remove`
    /// sequence reproduces identical [`WmeId`]s and [`TimeTag`]s, which
    /// is what makes snapshot + write-ahead-log replay a faithful
    /// recovery strategy (`psm-fault`).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut update = WmUpdate::default();
        self.encode_changes(&mut WmMarks::default(), &mut update);
        let mut image = Vec::with_capacity(update.image_len());
        update.assemble(&[], &mut Vec::new(), &mut image);
        image
    }

    /// The slots that changed since the last image `marks` were taken
    /// with — each slot of it retracted since, listed, and each slot
    /// appended since, encoded — as `update`, which
    /// [`WmUpdate::assemble`] makes the next image of: the bytes are
    /// [`WorkingMemory::snapshot_bytes`]'s. The marks are emptied and
    /// taken as of that image. With marks that took no image yet, every
    /// slot is appended and the update needs no image before it.
    ///
    /// # Panics
    ///
    /// When the marks list a slot twice or list one that is live, or are
    /// of an image of more slots than this working memory holds.
    pub fn encode_changes(&self, marks: &mut WmMarks, update: &mut WmUpdate) {
        let (kept, len) = marks.last.unwrap_or((0, IMAGE_HEADER));
        assert!(kept <= self.slots.len(), "marks of this working memory");
        update.whole = marks.last.is_none();
        update.kept = kept;
        update.next_tag = self.next_tag;
        update.slots = self.slots.len();
        update.retracted.clear();
        std::mem::swap(&mut update.retracted, &mut marks.retracted);
        update.retracted.sort_unstable();
        assert!(
            update.retracted.windows(2).all(|two| two[0] < two[1]),
            "each retracted slot listed once"
        );
        for id in &update.retracted {
            let i = id.index();
            assert!(self.slots[i].is_none(), "slot {i} listed retracted is live");
        }
        let appended = &self.slots[kept..];
        update.appended.clear();
        let mut w = ByteWriter::over(std::mem::take(&mut update.appended));
        w.reserve(appended.iter().map(slot_len).sum());
        update.appended_at.clear();
        for slot in appended {
            update.appended_at.push(start(len + w.len()));
            encode_slot(&mut w, slot);
        }
        update.appended = w.finish();
        update.len = len + update.appended.len();
        update.starts.clear();
        update.starts.reserve(self.slots.len() + 1);
        marks.last = Some((self.slots.len(), update.len));
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

    /// An image with where each of its slots starts in it.
    #[derive(Default)]
    struct Image {
        bytes: Vec<u8>,
        starts: Vec<u32>,
    }

    /// The image of `wm` that `marks` and `update` make from `last`,
    /// written into a buffer of the size the update says.
    fn image(
        wm: &WorkingMemory,
        marks: &mut WmMarks,
        update: &mut WmUpdate,
        last: &Image,
    ) -> Image {
        wm.encode_changes(marks, update);
        let mut starts = last.starts.clone();
        let mut bytes = Vec::with_capacity(update.image_len());
        update.assemble(&last.bytes, &mut starts, &mut bytes);
        Image { bytes, starts }
    }

    /// An image copied from the last one is the image from nothing,
    /// slot starts included, after every step of seeded add / retract /
    /// modify batches — a step of no change, the first and the last slot
    /// retracted, a WME added and retracted between two images, noted
    /// among the retracted ones or not — starting from an empty working
    /// memory, and after several steps between two images. Two updates
    /// take turns, as they do in a checkpointing supervisor.
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
            let (mut marks, mut updates) = (
                WmMarks::default(),
                [WmUpdate::default(), WmUpdate::default()],
            );
            let mut last = image(&wm, &mut marks, &mut updates[1], &Image::default());
            assert_eq!(last.bytes[..], wm.snapshot_bytes(), "empty");
            for step in 0..steps {
                let live: Vec<WmeId> = wm.iter().map(|(id, _, _)| id).collect();
                let mut retract = |wm: &mut WorkingMemory, id: WmeId, noted: bool| {
                    if let Some(wme) = wm.remove(id).filter(|_| noted) {
                        marks.retract(id, &wme);
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
                        let noted = rng.gen_bool(0.5);
                        retract(&mut wm, id, noted);
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
                    let update = &mut updates[step / every % 2];
                    let next = image(&wm, &mut marks, update, &last);
                    let (mut nothing, mut whole) = (WmMarks::default(), WmUpdate::default());
                    let fresh = image(&wm, &mut nothing, &mut whole, &Image::default());
                    let at = format!("seed {seed}, step {step}");
                    assert!(marks.retracted.is_empty(), "{at}: the list is taken");
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

    /// A slot noted as retracted that is live is refused, not imaged.
    #[test]
    #[should_panic(expected = "listed retracted is live")]
    fn an_image_refuses_a_live_slot_listed_retracted() {
        let (_t, wme) = fixture();
        let mut wm = WorkingMemory::new();
        let (id, _) = wm.add(wme.clone());
        let (mut marks, mut update) = (WmMarks::default(), WmUpdate::default());
        let last = image(&wm, &mut marks, &mut update, &Image::default());
        marks.retract(id, &wme);
        image(&wm, &mut marks, &mut update, &last);
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
