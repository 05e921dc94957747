//! The two-input node, stated once.
//!
//! Everything about a join or negative node that does not depend on how
//! its memories are reached: the index-key policy ([`key_tests`], kept
//! on [`NodeSpec::key`](crate::NodeSpec), and the two readers
//! [`right_key`] and [`left_key`]), join-test evaluation, the two
//! candidate scans that define what `join_tests` and `pairs_scanned`
//! count, [`Sign`], the anti-join's [`flip`], [`ActivationKind`],
//! which nodes start out holding the dummy top token, and the
//! [`FlightStage`] a matcher files its provenance through.
//!
//! Both runtimes are written on top of it and hold the same state —
//! alpha, beta and negative memories of one keyed type, built by the
//! same functions in [`memory`](crate::memory) — and differ in
//! scheduling and in when they write it: [`ReteMatcher`](crate::ReteMatcher)
//! (the "best known uniprocessor implementation") as each activation
//! runs, `psm_core`'s engine between phases, under delta rules. Each
//! activation in either is "pick candidates (one chain, or the whole
//! memory) → run a kernel scan → route the outputs".

use std::borrow::Borrow;

use ops5::{PredOp, SymbolId, Value, Wme, WmeId};
use psm_obs::{FlightBatch, FlightLabel, FlightRecorder, ProfileKind};

use crate::network::{JoinTest, Network, NodeId, NodeKind};
use crate::token::Token;

/// The index key of a two-input node: every equality join test it has,
/// in test order — empty when it has none (predicate-only joins, and
/// terminals and beta memories, which carry no tests), and the node
/// then scans linearly.
///
/// A right-input WME is filed under the values of its `own_attr`s and a
/// left-input token under the values at its `(token_pos, token_attr)`s;
/// the tests all hold exactly when the two tuples are equal, so an
/// activation need only look at the opposite entries filed under its
/// own tuple. What a memory is keyed by is the tuple's [`fingerprint`]:
/// equal tuples have equal fingerprints, and two unequal tuples that
/// share one share a chain, which costs scanned pairs and never a
/// match, because every candidate still goes through
/// [`eval_join_tests`].
pub fn key_tests(tests: &[JoinTest]) -> Vec<JoinTest> {
    let eq = tests.iter().filter(|t| t.op == PredOp::Eq);
    eq.copied().collect()
}

/// One part of an index key as a memory reads it off an entry:
/// attribute `.1` of the WME at token position `.0` (a WME is its own
/// position 0).
pub type KeyPart = (usize, SymbolId);

/// The parts a right-input WME is filed under for `key`.
pub fn wme_parts(key: &[JoinTest]) -> impl Iterator<Item = KeyPart> + '_ {
    key.iter().map(|t| (0, t.own_attr))
}

/// The parts a left-input token is filed under for `key`.
pub fn token_parts(key: &[JoinTest]) -> impl Iterator<Item = KeyPart> + '_ {
    key.iter().map(|t| (t.token_pos, t.token_attr))
}

/// Folds the part values of an index key, in order, into the 32 bits a
/// memory files it under: `None` for no parts at all, and as soon as
/// one part is `None` (the attribute is absent, so the conjunction
/// fails against everything).
///
/// A symbol or a non-negative integer below 2³¹ keeps all its bits and
/// each step is a bijection of them, so one-part keys over such values
/// never collide.
pub fn fingerprint(parts: impl IntoIterator<Item = Option<Value>>) -> Option<u32> {
    const K: u32 = 0x9E37_79B9;
    let mut folded = None;
    for part in parts {
        let word = match part? {
            Value::Sym(s) => (s.index() as u64) << 1,
            Value::Int(i) => ((i as u64) << 1) | 1,
        };
        let word = word as u32 ^ ((word >> 32) as u32).wrapping_mul(K);
        folded = Some((folded.unwrap_or(0u32).rotate_left(5) ^ word).wrapping_mul(K));
    }
    folded
}

/// The value of key part `part` of `token`.
pub fn part_value<'a>(
    token: &Token,
    (pos, attr): KeyPart,
    resolve: impl Fn(WmeId) -> Option<&'a Wme>,
) -> Option<Value> {
    token.wme_at(pos).and_then(resolve)?.get(attr)
}

/// What a right-input WME is filed under, and probes the left input
/// with, at a node whose index key is `key`.
pub fn right_key(key: &[JoinTest], wme: &Wme) -> Option<u32> {
    fingerprint(wme_parts(key).map(|(_, attr)| wme.get(attr)))
}

/// What a left-input token is filed under, and probes the right input
/// with, at a node whose index key is `key`.
pub fn left_key<'a>(
    key: &[JoinTest],
    token: &Token,
    resolve: impl Fn(WmeId) -> Option<&'a Wme>,
) -> Option<u32> {
    fingerprint(token_parts(key).map(|part| part_value(token, part, &resolve)))
}

/// Evaluates join tests with short-circuiting, returning success and the
/// number of tests evaluated. `resolve` maps the token's WME ids to
/// WMEs (the caller's working memory).
pub fn eval_join_tests<'a>(
    tests: &[JoinTest],
    token: &Token,
    wme: &Wme,
    resolve: impl Fn(WmeId) -> Option<&'a Wme>,
) -> (bool, u32) {
    let mut n = 0u32;
    for t in tests {
        n += 1;
        let theirs = part_value(token, (t.token_pos, t.token_attr), &resolve);
        match (wme.get(t.own_attr), theirs) {
            (Some(a), Some(b)) if a.compare(t.op, b) => {}
            _ => return (false, n),
        }
    }
    (true, n)
}

/// The work one scan performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Join tests evaluated.
    pub tests: u32,
    /// Opposite-memory entries looked at.
    pub scanned: u32,
}

/// Right activation: tests every candidate of the left input against
/// `wme`, calling `hit` with each one that passes. A candidate is a
/// token or any memory entry that lends one out, so `hit` can extend
/// the token (join) or note which entry's match count moves (negative
/// node).
pub fn scan_tokens<'a, C: Borrow<Token>>(
    tests: &[JoinTest],
    candidates: impl IntoIterator<Item = C>,
    wme: &Wme,
    resolve: impl Fn(WmeId) -> Option<&'a Wme>,
    mut hit: impl FnMut(C),
) -> Work {
    let mut work = Work::default();
    for candidate in candidates {
        work.scanned += 1;
        let (ok, n) = eval_join_tests(tests, candidate.borrow(), wme, &resolve);
        work.tests += n;
        if ok {
            hit(candidate);
        }
    }
    work
}

/// Left activation: tests `token` against every candidate WME of the
/// right input, calling `hit` with each one that passes.
///
/// # Panics
///
/// Panics if `resolve` cannot produce a candidate: alpha memories only
/// hold live WMEs.
pub fn scan_wmes<'a>(
    tests: &[JoinTest],
    token: &Token,
    candidates: impl IntoIterator<Item = WmeId>,
    resolve: impl Fn(WmeId) -> Option<&'a Wme>,
    mut hit: impl FnMut(WmeId),
) -> Work {
    let mut work = Work::default();
    for id in candidates {
        work.scanned += 1;
        let wme = resolve(id).expect("right-memory WME is live");
        let (ok, n) = eval_join_tests(tests, token, wme, &resolve);
        work.tests += n;
        if ok {
            hit(id);
        }
    }
    work
}

/// For each node, whether its left input holds the dummy top token from
/// the start: a two-input node compiled from a production's first CE,
/// or one reached from there through a chain of leading negatives
/// (their right memories begin empty, so the top token passes).
pub fn top_token_inputs(network: &Network) -> Vec<bool> {
    let mut reach = vec![false; network.nodes.len()];
    // Nodes are created parents-before-children, so one forward pass
    // settles the chain.
    for (i, spec) in network.nodes.iter().enumerate() {
        reach[i] = matches!(spec.kind, NodeKind::Join | NodeKind::Negative)
            && match spec.left {
                None => true,
                Some(left) => network.node(left).kind == NodeKind::Negative && reach[left.index()],
            };
    }
    reach
}

/// Sign of a change flowing through the network: assertion or retraction.
///
/// Retractions traverse the same paths as assertions and delete the
/// matching state — the deletion strategy of the original Rete
/// implementations (DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Assertion: insert state, add instantiations.
    Plus,
    /// Retraction: delete state, remove instantiations.
    Minus,
}

impl Sign {
    /// True for `Plus`.
    pub fn is_plus(self) -> bool {
        matches!(self, Sign::Plus)
    }

    /// The signed-presence step: `+1` or `-1`.
    pub fn delta(self) -> i32 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }

    /// The opposite sign — what a negative node forwards when a right
    /// match appears (retract) or disappears (re-assert).
    pub fn invert(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

/// The anti-join's flip: what a negative node forwards for a token
/// whose match count moves from `before` by `delta` — a minus when the
/// count leaves zero (the token is blocked), a plus when it reaches
/// zero (unblocked), nothing otherwise.
#[inline]
pub fn flip(before: u32, delta: i32) -> Option<Sign> {
    let after = i64::from(before) + i64::from(delta);
    debug_assert!(after >= 0, "negative count underflow");
    match (before == 0, after == 0) {
        (true, false) => Some(Sign::Minus),
        (false, true) => Some(Sign::Plus),
        _ => None,
    }
}

/// What kind of node an activation ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Constant-test evaluation of one WME against the alpha network
    /// (one record per change, covering all candidate alpha nodes).
    ConstantTest,
    /// An alpha-memory update (insert/delete of a WME).
    AlphaMem,
    /// A two-input node activated from the right (new WME).
    JoinRight,
    /// A two-input node activated from the left (new token).
    JoinLeft,
    /// A negative node activated from the right.
    NegativeRight,
    /// A negative node activated from the left.
    NegativeLeft,
    /// A beta-memory update (insert/delete of a token).
    BetaMem,
    /// A terminal node emitting a conflict-set change.
    Terminal,
}

impl ActivationKind {
    /// Every kind, in declaration order.
    pub const ALL: [ActivationKind; 8] = [
        ActivationKind::ConstantTest,
        ActivationKind::AlphaMem,
        ActivationKind::JoinRight,
        ActivationKind::JoinLeft,
        ActivationKind::NegativeRight,
        ActivationKind::NegativeLeft,
        ActivationKind::BetaMem,
        ActivationKind::Terminal,
    ];

    /// The kind of an activation of a beta node of kind `node`,
    /// arriving on the right (WME) or left (token) input.
    pub fn of(node: NodeKind, right_side: bool) -> ActivationKind {
        match (node, right_side) {
            (NodeKind::Join, true) => ActivationKind::JoinRight,
            (NodeKind::Join, false) => ActivationKind::JoinLeft,
            (NodeKind::Negative, true) => ActivationKind::NegativeRight,
            (NodeKind::Negative, false) => ActivationKind::NegativeLeft,
            (NodeKind::BetaMemory, _) => ActivationKind::BetaMem,
            (NodeKind::Terminal, _) => ActivationKind::Terminal,
        }
    }

    /// Short label for reports, traces, flight records and `/explain`.
    pub fn label(self) -> &'static str {
        match self {
            ActivationKind::ConstantTest => "const",
            ActivationKind::AlphaMem => "amem",
            ActivationKind::JoinRight => "join-R",
            ActivationKind::JoinLeft => "join-L",
            ActivationKind::NegativeRight => "neg-R",
            ActivationKind::NegativeLeft => "neg-L",
            ActivationKind::BetaMem => "bmem",
            ActivationKind::Terminal => "term",
        }
    }

    /// The kind `label` names (inverse of [`ActivationKind::label`]).
    pub fn from_label(label: &str) -> Option<ActivationKind> {
        Self::ALL.into_iter().find(|k| k.label() == label)
    }

    /// The profiler's node taxonomy plus whether the activation arrived
    /// on the right input, so the profile table, the flight recorder
    /// and `/explain` name nodes identically under both runtimes.
    pub fn profile_kind(self) -> (ProfileKind, bool) {
        match self {
            ActivationKind::JoinRight => (ProfileKind::Join, true),
            ActivationKind::JoinLeft => (ProfileKind::Join, false),
            ActivationKind::NegativeRight => (ProfileKind::Negative, true),
            ActivationKind::NegativeLeft => (ProfileKind::Negative, false),
            ActivationKind::BetaMem => (ProfileKind::BetaMem, false),
            ActivationKind::Terminal => (ProfileKind::Terminal, false),
            ActivationKind::ConstantTest | ActivationKind::AlphaMem => (ProfileKind::Other, true),
        }
    }
}

/// A matcher's end of the flight recorder: the records it has staged
/// since it last published and — while the attached recorder has
/// capacity — that recorder's handles for the activation vocabulary,
/// resolved once at attach. Detached (the default), or attached to a
/// recorder that is off, it stages nothing: one branch per would-be
/// record.
#[derive(Debug, Default)]
pub struct FlightStage {
    batch: FlightBatch,
    labels: Option<[FlightLabel; ActivationKind::ALL.len()]>,
}

impl FlightStage {
    /// Stages for `recorder` from here on, discarding anything staged
    /// for its predecessor.
    pub fn attach(&mut self, recorder: &FlightRecorder) {
        self.batch.clear();
        self.labels = recorder
            .enabled()
            .then(|| ActivationKind::ALL.map(|kind| recorder.label(kind.label())));
    }

    /// Stages one activation of `node`: the triggering WME of a right
    /// activation, `None` for a left one.
    #[inline]
    pub fn activation(&mut self, kind: ActivationKind, node: NodeId, wme: Option<WmeId>) {
        if let Some(labels) = &self.labels {
            let wme = wme.map(|id| id.index() as u32);
            self.batch.activation(node.0, labels[kind as usize], wme);
        }
    }

    /// Stages the birth (`Plus`) or death of `token` at `node`.
    #[inline]
    pub fn token(&mut self, node: NodeId, token: &Token, sign: Sign) {
        if self.labels.is_some() {
            let wmes = token.wmes().iter().map(|id| id.index() as u32);
            self.batch.token(node.0, sign.is_plus(), wmes);
        }
    }

    /// Hands everything staged to `recorder`, in order, under one lock.
    pub fn publish(&mut self, recorder: &FlightRecorder) {
        recorder.publish(&mut self.batch);
    }

    /// Discards everything staged.
    pub fn clear(&mut self) {
        self.batch.clear();
    }
}
