//! The one keyed memory under both matchers.
//!
//! Alpha memories (`T` = a WME id), beta memories (`T` = a token) and
//! negative nodes' memories (`T` = a token with its match count) are
//! the same thing: entries in arrival order, and — for each of the
//! memory's key slots — one chain per key fingerprint threaded
//! through them, newest entry first, so a two-input node with an index
//! key ([`kernel::key_tests`]: all of its
//! equality tests) scans only the entries its WME or token can match,
//! and whatever else shares their fingerprint.
//! Which chain an entry is on is implied by the chain, never stored
//! beside the entry: an entry is held once, whatever the slot count.
//! A memory built with no slots is a plain list
//! ([`MemoryStrategy::Linear`](crate::MemoryStrategy), and every memory
//! no equality join probes).
//!
//! An entry whose key for a slot could not be read when it arrived (a
//! WME lacks one of the attributes) is on no chain of that slot: the
//! equality tests fail for it against everything.
//!
//! The alpha memories are built by one function, [`alpha_memories`],
//! the beta memories by another, [`beta_memories`], and the negative
//! memories by a third, [`negative_memories`], for
//! [`ReteMatcher`](crate::ReteMatcher), which `psm_core`'s node-parallel
//! engine holds: its phases read them from every worker and write them
//! only between phases. A `Memory` is `Sync`, because nothing in it
//! changes through a shared borrow — a negative
//! entry's match count included, which moves only through
//! [`Memory::recount`].
//!
//! A memory does not know which section of a snapshot image it is: the
//! matcher that changes it marks it, at the call that changed it, with
//! the image epoch (the `snapshot` module's `Marks`), and a remove that
//! found nothing marks nothing.

use std::borrow::Borrow;

use ops5::{WmeId, WorkingMemory};

use crate::heads::Heads;
use crate::kernel::{self, KeyPart};
use crate::network::{Network, NodeId, NodeKind, NodeSpec};
use crate::runtime::MemoryStrategy;
use crate::token::Token;

/// Ends a chain; also the link of an entry filed nowhere.
pub(crate) const NIL: u32 = u32::MAX;

/// The parts a key slot reads off an entry, in the order they are
/// folded into its [`fingerprint`](crate::kernel::fingerprint).
pub(crate) type Slot = Box<[KeyPart]>;

/// See the module docs.
#[derive(Debug, Clone)]
pub struct Memory<T> {
    pub(crate) slots: Box<[Slot]>,
    /// Arrival order, swap-removed.
    pub(crate) entries: Vec<T>,
    /// `links[i * k + s]`: the entry after entry `i` on its chain of
    /// slot `s`, for `k` slots.
    pub(crate) links: Vec<u32>,
    /// Per slot, the first entry of each key fingerprint's chain, in
    /// key order; a chain that drains is removed.
    pub(crate) heads: Box<[Heads]>,
    /// The image epoch in which the matcher last marked the memory
    /// changed ([`Marks`](crate::snapshot::Marks)): the mark lives on the
    /// cache line the change itself writes. Not part of the image.
    pub(crate) epoch: u64,
}

/// The slot a right-input WME of `spec` is filed under, and a left
/// activation of `spec` probes its alpha memory by.
fn wme_slot(spec: &NodeSpec) -> Slot {
    kernel::wme_parts(&spec.key).collect()
}

/// The alpha memories of `network`, one per alpha node. Under
/// [`MemoryStrategy::Hashed`] each gets a key slot per list of
/// attributes its successor two-input nodes probe it by — and only
/// those: chaining every attribute of every WME costs more than the
/// probes it could ever save. Under [`MemoryStrategy::Linear`] none.
pub fn alpha_memories(network: &Network, strategy: MemoryStrategy) -> Vec<Memory<WmeId>> {
    let mut slots: Vec<Vec<Slot>> = vec![Vec::new(); network.alpha.len()];
    if strategy == MemoryStrategy::Hashed {
        for spec in network.nodes.iter().filter(|spec| !spec.key.is_empty()) {
            let slots = &mut slots[spec.alpha.expect("keyed node has alpha").index()];
            let slot = wme_slot(spec);
            if !slots.contains(&slot) {
                slots.push(slot);
            }
        }
    }
    slots.into_iter().map(Memory::new).collect()
}

impl Memory<WmeId> {
    /// The slot a left activation of `spec`, a successor of this alpha
    /// memory, probes it by: `None` for a node without an index key and
    /// for a memory built with no slots.
    pub fn probe_slot(&self, spec: &NodeSpec) -> Option<usize> {
        self.slot_for(spec, wme_slot)
    }

    /// Files `id`, live in `wm`.
    pub fn insert_wme(&mut self, id: WmeId, wm: &WorkingMemory) {
        self.insert(id, wme_key(wm));
    }

    /// Unfiles `id` — still live in `wm`, by the matcher contract —
    /// returning whether the memory held it.
    pub fn remove_wme(&mut self, id: WmeId, wm: &WorkingMemory) -> bool {
        self.remove(&id, wme_key(wm)).is_some()
    }
}

/// Reads a slot's key off a WME through the caller's view.
fn wme_key(wm: &WorkingMemory) -> impl Fn(&WmeId, &[KeyPart]) -> Option<u32> + '_ {
    |id, slot| {
        let wme = wm.get(*id)?;
        kernel::fingerprint(slot.iter().map(|&(_, attr)| wme.get(attr)))
    }
}

/// The slot a left-input token of `spec` is filed under, and a right
/// activation of `spec` probes its token memory by.
pub(crate) fn token_slot(spec: &NodeSpec) -> Slot {
    kernel::token_parts(&spec.key).collect()
}

/// The beta memories of `network`, one per beta-memory node, with the
/// node, in node order. Under [`MemoryStrategy::Hashed`] each gets a
/// key slot per list of key parts its join children probe it by. A
/// negative child never probes its parent: it keeps the same tokens,
/// chained under the same key, beside their match counts. Under
/// [`MemoryStrategy::Linear`] none.
pub fn beta_memories(
    network: &Network,
    strategy: MemoryStrategy,
) -> impl Iterator<Item = (NodeId, Memory<Token>)> + '_ {
    let probing = move |spec: &&NodeSpec| {
        strategy == MemoryStrategy::Hashed && spec.kind == NodeKind::Join && !spec.key.is_empty()
    };
    let memory = move |(node, spec): (NodeId, &NodeSpec)| {
        let children = spec.children.iter().map(|&child| network.node(child));
        let mut slots: Vec<Slot> = children.filter(probing).map(token_slot).collect();
        slots.sort_unstable();
        slots.dedup();
        (node, Memory::new(slots))
    };
    let memories = network
        .iter()
        .filter(|(_, spec)| spec.kind == NodeKind::BetaMemory);
    memories.map(memory)
}

impl Memory<Token> {
    /// The slot a right activation of `spec`, a join child of this beta
    /// memory, probes it by: `None` for a node without an index key and
    /// for a memory built with no slots.
    pub fn probe_slot(&self, spec: &NodeSpec) -> Option<usize> {
        self.slot_for(spec, token_slot)
    }

    /// Files `token`, whose WMEs are live in `wm`.
    ///
    /// Key values are read from WMEs that are immutable once made, so
    /// the chains they select are where the token stays until its
    /// removal.
    pub fn insert_token(&mut self, token: Token, wm: &WorkingMemory) {
        self.insert(token, token_key(wm));
    }

    /// Unfiles one entry equal to `token`, returning whether the memory
    /// held one. The caller's view need not resolve the token's WMEs any
    /// more: the entry is then found by identity.
    pub fn remove_token(&mut self, token: &Token, wm: &WorkingMemory) -> bool {
        self.remove(token, token_key(wm)).is_some()
    }
}

/// One entry of a negative node's memory: a token of its left input and
/// how many WMEs of its alpha memory match it. The token passes the node
/// while the count is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegEntry {
    /// The token.
    pub token: Token,
    /// Alpha-memory WMEs matching `token`; moved in a memory only by
    /// [`Memory::recount`].
    pub count: u32,
}

/// A negative node's memory is keyed and searched by token.
impl Borrow<Token> for NegEntry {
    fn borrow(&self) -> &Token {
        &self.token
    }
}

/// Lets a negative node's right activation scan its entries in place
/// ([`Memory::walk`]): the kernel reads the token, the hit notes the
/// position whose count moves.
impl Borrow<Token> for (usize, &NegEntry) {
    fn borrow(&self) -> &Token {
        &self.1.token
    }
}

/// The negative memories of `network`, one per negative node, with the
/// node, in node order. Under [`MemoryStrategy::Hashed`] a node with an
/// index key gets one key slot, its own, which its right activations
/// probe — and so may a join below it whose key reads the same parts.
/// Under [`MemoryStrategy::Linear`] none. A node whose left input holds
/// the top token ([`kernel::top_token_inputs`]) holds it from the start,
/// unblocked: its alpha memory begins empty.
pub fn negative_memories(
    network: &Network,
    strategy: MemoryStrategy,
) -> impl Iterator<Item = (NodeId, Memory<NegEntry>)> + '_ {
    let holds_top = kernel::top_token_inputs(network);
    let memory = move |(node, spec): (NodeId, &NodeSpec)| {
        let keyed = strategy == MemoryStrategy::Hashed && !spec.key.is_empty();
        let mut memory = Memory::new(keyed.then(|| token_slot(spec)).into_iter().collect());
        if holds_top[node.index()] {
            let top = NegEntry {
                token: Token::top(),
                count: 0,
            };
            memory.insert(top, |_: &Token, _| None);
        }
        (node, memory)
    };
    let negatives = network
        .iter()
        .filter(|(_, spec)| spec.kind == NodeKind::Negative);
    negatives.map(memory)
}

impl Memory<NegEntry> {
    /// The slot a right activation of `spec` probes this memory by —
    /// `spec` the negative node itself, or a join below it: `None` for
    /// a node without an index key and for a memory with no slot of its
    /// key parts.
    pub fn probe_slot(&self, spec: &NodeSpec) -> Option<usize> {
        self.slot_for(spec, token_slot)
    }

    /// Files `token`, whose WMEs are live in `wm`, with `count` matches.
    pub fn insert_token(&mut self, token: Token, count: u32, wm: &WorkingMemory) {
        self.insert(NegEntry { token, count }, token_key(wm));
    }

    /// Unfiles one entry of `token`, returning its count, or `None` when
    /// the memory holds none. The entry is found as a beta memory's
    /// `remove_token` finds its token.
    pub fn remove_token(&mut self, token: &Token, wm: &WorkingMemory) -> Option<u32> {
        let removed = self.remove(token, token_key(wm));
        removed.map(|entry| entry.count)
    }

    /// Moves the count of entry `at` by `delta`, returning the count it
    /// had. A count never goes below zero.
    pub fn recount(&mut self, at: usize, delta: i32) -> u32 {
        let count = &mut self.entries[at].count;
        let before = *count;
        debug_assert!(
            i64::from(before) + i64::from(delta) >= 0,
            "negative count underflow"
        );
        *count = before.saturating_add_signed(delta);
        before
    }
}

/// Reads a slot's key off a token through the caller's view.
pub(crate) fn token_key(wm: &WorkingMemory) -> impl Fn(&Token, &[KeyPart]) -> Option<u32> + '_ {
    |token, slot| {
        let part = |&part| kernel::part_value(token, part, |id| wm.get(id));
        kernel::fingerprint(slot.iter().map(part))
    }
}

/// Where the index of a chained entry is stored.
#[derive(Debug, Clone, Copy)]
enum Link {
    Head(usize, u32),
    Next(usize),
}

impl<T> Memory<T> {
    pub(crate) fn new(slots: Vec<Slot>) -> Self {
        Memory {
            heads: slots.iter().map(|_| Heads::default()).collect(),
            slots: slots.into(),
            entries: Vec::new(),
            links: Vec::new(),
            epoch: 0,
        }
    }

    /// The slot reading the parts `slot` reads off `spec`, if `spec` has
    /// an index key and this memory has such a slot.
    fn slot_for(&self, spec: &NodeSpec, slot: fn(&NodeSpec) -> Slot) -> Option<usize> {
        let parts = (!spec.key.is_empty()).then(|| slot(spec))?;
        self.slots.iter().position(|slot| *slot == parts)
    }

    /// The entries, in arrival order as swap-removal left it.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Number of key chains resident.
    pub fn chains(&self) -> usize {
        self.heads.iter().map(Heads::len).sum()
    }

    /// Adds `item`, filing it at the head of the chain of each slot
    /// `key_of` reads a key for.
    pub(crate) fn insert<Q: ?Sized>(
        &mut self,
        item: T,
        key_of: impl Fn(&Q, &[KeyPart]) -> Option<u32>,
    ) where
        T: Borrow<Q>,
    {
        let at = self.entries.len() as u32;
        debug_assert!(at < NIL);
        for (slot, heads) in self.slots.iter().zip(self.heads.iter_mut()) {
            let key = key_of(item.borrow(), slot);
            let next = key.and_then(|key| heads.insert(key, at));
            self.links.push(next.unwrap_or(NIL));
        }
        self.entries.push(item);
    }

    /// Removes the entry equal to `item`, or returns `None` when the
    /// memory does not hold it.
    ///
    /// `key_of` re-reads a key from the (immutable) WMEs it was read
    /// from when the entry was filed. The caller's view may no longer
    /// resolve them; the entry, or the link to it, is then found by
    /// identity instead, so the entry is unfiled from exactly the
    /// chains it was filed on either way. The same goes for the last
    /// entry, which `swap_remove` moves into the freed position.
    pub(crate) fn remove<Q>(
        &mut self,
        item: &Q,
        key_of: impl Fn(&Q, &[KeyPart]) -> Option<u32>,
    ) -> Option<T>
    where
        T: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        let k = self.slots.len();
        let is_item = |(_, entry): &(usize, &T)| (*entry).borrow() == item;
        let on_chain = |s| {
            self.walk(Some((s, key_of(item, &self.slots[s]))))
                .find(is_item)
        };
        let by_identity = || self.walk(None).find(is_item);
        let at = (0..k).find_map(on_chain).or_else(by_identity)?.0;
        let last = self.entries.len() - 1;
        for s in 0..k {
            if let Some(link) = self.link_to(s, at, key_of(item, &self.slots[s])) {
                let next = std::mem::replace(&mut self.links[at * k + s], NIL);
                self.set_link(link, next);
            }
            if at != last {
                let key = key_of(self.entries[last].borrow(), &self.slots[s]);
                if let Some(link) = self.link_to(s, last, key) {
                    self.set_link(link, at as u32);
                }
                self.links[at * k + s] = self.links[last * k + s];
            }
        }
        self.links.truncate(last * k);
        Some(self.entries.swap_remove(at))
    }

    /// The link of slot `s` that names entry `at`: found along the
    /// chain of `key`, or by identity when that fails (the entry's key
    /// could not be re-read). `None` when the entry is on no chain.
    fn link_to(&self, s: usize, at: usize, key: Option<u32>) -> Option<Link> {
        let k = self.slots.len();
        let mut link = key.map(|key| Link::Head(s, key));
        for (i, _) in self.walk(Some((s, key))) {
            if i == at {
                return link;
            }
            link = Some(Link::Next(i * k + s));
        }
        let mut column = self.links.iter().skip(s).step_by(k);
        let next = column.position(|&next| next as usize == at);
        next.map(|i| Link::Next(i * k + s)).or_else(|| {
            let head = self.heads[s].iter().find(|&(_, head)| head as usize == at);
            head.map(|(key, _)| Link::Head(s, key))
        })
    }

    fn set_link(&mut self, link: Link, to: u32) {
        match link {
            Link::Next(i) => self.links[i] = to,
            Link::Head(s, key) if to == NIL => {
                self.heads[s].remove(key);
            }
            Link::Head(s, key) => {
                self.heads[s].insert(key, to);
            }
        }
    }

    /// [`Memory::candidates`] with their positions in
    /// [`Memory::entries`].
    pub fn walk(&self, probe: Option<(usize, Option<u32>)>) -> impl Iterator<Item = (usize, &T)> {
        let k = self.slots.len();
        let (mut at, slot) = match probe {
            None => (0, None),
            Some((s, key)) => {
                let head = key.and_then(|key| self.heads[s].get(key));
                (head.unwrap_or(NIL), Some(s))
            }
        };
        std::iter::from_fn(move || {
            let here = at as usize;
            let entry = self.entries.get(here)?;
            at = slot.map_or(at + 1, |s| self.links[here * k + s]);
            Some((here, entry))
        })
    }

    /// The candidates of one activation: every entry in arrival order
    /// for a `None` probe, else the chain of `(slot, key)`, newest first
    /// — empty for a `None` key (a WME or token without a keyed
    /// attribute matches nothing).
    pub fn candidates(&self, probe: Option<(usize, Option<u32>)>) -> impl Iterator<Item = &T> {
        self.walk(probe).map(|(_, entry)| entry)
    }

    /// Entries reachable from the chain heads, once per slot they are
    /// filed under (for the leak audits).
    pub(crate) fn filed(&self) -> usize {
        let slot = |(s, heads): (usize, &Heads)| {
            let chain = |(key, _)| self.walk(Some((s, Some(key)))).count();
            heads.iter().map(chain).sum::<usize>()
        };
        self.heads.iter().enumerate().map(slot).sum()
    }

    /// Checks what removals and [`Memory::candidates`] rely on,
    /// returning the entries filed on chains, once per slot: every link
    /// (a head or an entry's next) names an entry of the memory, no
    /// entry is named twice within a slot, and every linked entry is on
    /// a chain that starts at a head — chains then neither leave the
    /// memory, nor merge, nor loop.
    ///
    /// # Errors
    ///
    /// Names the first of those properties that does not hold.
    pub fn audit(&self) -> Result<usize, &'static str> {
        let k = self.slots.len();
        if self.links.len() != self.entries.len() * k {
            return Err("links not parallel to entries");
        }
        let mut seen = vec![false; self.links.len()];
        let mut filed = 0;
        for (s, heads) in self.heads.iter().enumerate() {
            for (_, head) in heads.iter() {
                let mut at = head;
                loop {
                    let i = at as usize * k + s;
                    if at as usize >= self.entries.len() || std::mem::replace(&mut seen[i], true) {
                        return Err("chain link out of place");
                    }
                    filed += 1;
                    at = self.links[i];
                    if at == NIL {
                        break;
                    }
                }
            }
        }
        let off_chain = |(&next, &seen): (&u32, &bool)| next != NIL && !seen;
        if self.links.iter().zip(&seen).any(off_chain) {
            return Err("link off every chain");
        }
        Ok(filed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decode_memory, encode_memory, ImageParts};
    use ops5::{ByteReader, ByteWriter, CodecError, SymbolId};
    use psm_obs::Rng64;

    const VALUES: i64 = 4;
    /// A model key is the sum of its part values, so unequal tuples
    /// collide on purpose: `(1, 2)` and `(2, 1)` share a chain.
    const KEYS: u32 = 3 * (VALUES as u32 - 1) + 1;

    /// Items are numbered in arrival order, so "newest first" is
    /// "descending"; beside each, its part values per slot.
    type Model = Vec<(u32, Vec<Vec<Option<i64>>>)>;

    /// No key at all when any part is unreadable.
    fn key(values: &[Vec<Option<i64>>], slot: &[KeyPart]) -> Option<u32> {
        let parts = slot.iter().map(|&(s, part)| values[s][part.index()]);
        parts.sum::<Option<i64>>().map(|sum| sum as u32)
    }

    fn assert_follows(memory: &Memory<u32>, model: &Model, at: &str) {
        let items: Vec<u32> = model.iter().map(|m| m.0).collect();
        assert_eq!(memory.entries, items, "{at}: arrival order, swap-removed");
        assert!(memory.candidates(None).eq(&items), "{at}");
        let (mut filed, mut chains) = (0, 0);
        for (s, slot) in memory.slots.iter().enumerate() {
            assert_eq!(memory.candidates(Some((s, None))).count(), 0, "{at}");
            for k in 0..KEYS {
                let chain: Vec<u32> = memory.candidates(Some((s, Some(k)))).copied().collect();
                let on_chain = model.iter().filter(|m| key(&m.1, slot) == Some(k));
                let mut want: Vec<u32> = on_chain.map(|m| m.0).collect();
                want.sort_by_key(|&item| std::cmp::Reverse(item));
                assert_eq!(chain, want, "{at}: slot {s} chain {k}");
                let head = memory.heads[s].get(k).is_some();
                assert_eq!(head, !want.is_empty(), "{at}: no drained head");
                filed += want.len();
                chains += usize::from(head);
            }
        }
        assert_eq!(memory.filed(), filed, "{at}");
        assert_eq!(memory.audit(), Ok(filed), "{at}");
        assert_eq!(memory.chains(), chains, "{at}");
    }

    /// A memory against a list of `(item, part values per slot)` pairs,
    /// with 0–3 slots of 1–3 parts, through random inserts (any part
    /// unreadable: the entry is on no chain of that slot), removes of
    /// present and absent items, and encode → decode round trips.
    /// Removes re-read keys through a view that may have lost the
    /// removed item's, everyone else's, or both, so the removed entry
    /// and the entry swap-moved into its place are relinked by identity.
    #[test]
    fn memory_follows_a_model_under_every_slot_count() {
        for k in 0..=3usize {
            let mut rng = Rng64::new(0xC4A1 + k as u64);
            let part = |s, p| (s, SymbolId::from_index(p));
            let slots: Vec<Slot> = (0..k)
                .map(|s| (0..=s).map(|p| part(s, p)).collect())
                .collect();
            let mut memory: Memory<u32> = Memory::new(slots.clone());
            let mut model = Model::new();
            let mut arrivals = 0;
            for step in 0..if cfg!(miri) { 150 } else { 2500 } {
                let roll = rng.gen_range(0..10u32);
                if model.is_empty() || roll < 5 {
                    arrivals += 1;
                    let mut value =
                        || (rng.gen_range(0..8u32) > 0).then(|| rng.gen_range(0..VALUES));
                    let values: Vec<Vec<_>> = slots
                        .iter()
                        .map(|slot| slot.iter().map(|_| value()).collect())
                        .collect();
                    memory.insert(arrivals, |_: &u32, slot| key(&values, slot));
                    model.push((arrivals, values));
                } else if roll < 8 {
                    let at = rng.gen_range(0..model.len());
                    let item = model[at].0;
                    let (blind_item, blind_rest) = (rng.gen_bool(0.3), rng.gen_bool(0.3));
                    let key_of = |i: &u32, slot: &[KeyPart]| {
                        let blind = if *i == item { blind_item } else { blind_rest };
                        let known = model.iter().find(|m| m.0 == *i).expect("a resident item");
                        key(&known.1, slot).filter(|_| !blind)
                    };
                    assert_eq!(memory.remove(&item, key_of), Some(item), "step {step}");
                    model.swap_remove(at);
                } else if roll < 9 {
                    let key = rng.gen_range(0..KEYS);
                    let key_of = |i: &u32, _: &[KeyPart]| (*i > arrivals).then_some(key);
                    assert_eq!(memory.remove(&(arrivals + 1), key_of), None, "step {step}");
                } else {
                    let (mut w, mut parts) = (ByteWriter::new(), ImageParts::default());
                    encode_memory(&mut w, &memory, &mut parts, |w, items| {
                        w.u32s(items.iter().copied())
                    });
                    let bytes = w.finish();
                    assert_eq!(parts.entries, 4 * model.len());
                    assert_eq!(parts.links, 4 * k * model.len());
                    assert_eq!(parts.heads, 4 * k + 8 * memory.chains());
                    let mut r = ByteReader::new(&bytes);
                    memory = decode_memory(&mut r, &slots, |r| r.u32()).expect("decodes");
                    assert!(r.is_done());
                }
                assert_follows(&memory, &model, &format!("{k} slots, step {step}"));
            }
        }
    }

    /// A slot's heads are read in the strictly ascending key order every
    /// image lists them in; a section listing them otherwise was not
    /// written by a memory, and is refused.
    #[test]
    fn decode_refuses_heads_out_of_key_order() {
        let slots: Vec<Slot> = vec![Box::new([(0, SymbolId::from_index(0))])];
        let mut memory: Memory<u32> = Memory::new(slots.clone());
        for item in [1u32, 2] {
            memory.insert(item, |&item: &u32, _| Some(item));
        }
        let (mut w, mut parts) = (ByteWriter::new(), ImageParts::default());
        encode_memory(&mut w, &memory, &mut parts, |w, items| {
            w.u32s(items.iter().copied())
        });
        let mut bytes = w.finish();
        let decode = |bytes: &[u8]| decode_memory(&mut ByteReader::new(bytes), &slots, |r| r.u32());
        assert!(decode(&bytes).is_ok());
        // The last 16 bytes are the slot's two `(key, head)` pairs.
        let n = bytes.len();
        bytes[n - 16..].rotate_left(8);
        let refused = decode(&bytes).err();
        assert_eq!(
            refused,
            Some(CodecError::Invalid("chain heads out of key order"))
        );
    }
}
