//! The conflict set and OPS5's conflict-resolution strategies.
//!
//! Conflict resolution is the second phase of the recognize–act cycle
//! (Section 2.1 of the paper): out of all satisfied instantiations, pick
//! one to fire. OPS5 offers two strategies, both implemented here:
//!
//! * **LEX** — refraction, then recency (time tags sorted descending,
//!   compared lexicographically), then specificity.
//! * **MEA** — like LEX, but the recency of the WME matching the *first*
//!   condition element dominates, which is what makes means–ends-analysis
//!   style goal stacks work.

use std::cmp::{Ordering, Reverse};
use std::collections::HashSet;

use crate::ast::{ProductionId, Program};
use crate::matcher::{Instantiation, MatchDelta};
use crate::wme::{TimeTag, WmeId, WorkingMemory};

/// Conflict-resolution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The LEX strategy (default in OPS5).
    #[default]
    Lex,
    /// The MEA (means–ends analysis) strategy.
    Mea,
}

/// The conflict set: live instantiations plus the refraction memory of
/// already-fired ones.
#[derive(Debug, Clone, Default)]
pub struct ConflictSet {
    live: HashSet<Instantiation>,
    fired: HashSet<Instantiation>,
    peak: usize,
}

impl ConflictSet {
    /// Creates an empty conflict set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a matcher delta: removals first, then additions.
    pub fn apply(&mut self, delta: &MatchDelta) {
        for inst in &delta.removed {
            self.live.remove(inst);
            // Refraction memory is keyed by WME identity; once the
            // instantiation leaves the conflict set its entry can never
            // match again (handles are not reused), so drop it.
            self.fired.remove(inst);
        }
        for inst in &delta.added {
            self.live.insert(inst.clone());
        }
        self.peak = self.peak.max(self.live.len());
    }

    /// Number of live instantiations.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no instantiation is satisfied.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Largest size the conflict set has reached.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Iterates over live instantiations (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.live.iter()
    }

    /// Whether `inst` has fired and is still refracted.
    pub fn has_fired(&self, inst: &Instantiation) -> bool {
        self.fired.contains(inst)
    }

    /// Records that `inst` fired (refraction).
    pub fn mark_fired(&mut self, inst: &Instantiation) {
        self.fired.insert(inst.clone());
    }

    /// Selects the dominant unfired instantiation under `strategy`.
    ///
    /// Returns `None` at quiescence (every live instantiation has already
    /// fired, or the set is empty), which halts the interpreter.
    pub fn select(
        &self,
        wm: &WorkingMemory,
        program: &Program,
        strategy: Strategy,
    ) -> Option<Instantiation> {
        // One rank per candidate, not two per comparison.
        self.live
            .iter()
            .filter(|inst| !self.fired.contains(*inst))
            .max_by_key(|inst| rank(inst, wm, program, strategy))
            .cloned()
    }
}

/// Everything conflict resolution reads about an instantiation, in the
/// order it decides, so that the derived `Ord` *is* the strategy. Under
/// MEA the first CE's time tag comes first (zero under LEX, where it
/// must not decide anything); then LEX recency — the time tags sorted
/// descending and compared lexicographically, the longer dominating on
/// a common prefix, which is how slices order; then specificity; then a
/// deterministic arbitrary tie-break (lower production id, then WMEs)
/// so that runs are reproducible. A WME the working memory no longer
/// holds counts as the oldest.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Rank<'a> {
    mea: TimeTag,
    recency: Vec<TimeTag>,
    specificity: usize,
    tie_break: Reverse<(ProductionId, &'a [WmeId])>,
}

/// Resolves the rank of `inst` against the current working memory.
fn rank<'a>(
    inst: &'a Instantiation,
    wm: &WorkingMemory,
    program: &Program,
    strategy: Strategy,
) -> Rank<'a> {
    let tag = |&w| wm.time_tag(w).unwrap_or_default();
    let mut recency: Vec<TimeTag> = inst.wmes.iter().map(tag).collect();
    recency.sort_unstable_by(|a, b| b.cmp(a));
    Rank {
        mea: match strategy {
            Strategy::Lex => TimeTag::default(),
            Strategy::Mea => inst.wmes.first().map(tag).unwrap_or_default(),
        },
        recency,
        specificity: program.production(inst.production).specificity,
        tie_break: Reverse((inst.production, &inst.wmes)),
    }
}

/// Total order on instantiations under a strategy; `Greater` means
/// "dominates". Exposed so tools (and property tests) can inspect why
/// one instantiation beat another.
pub fn compare(
    a: &Instantiation,
    b: &Instantiation,
    wm: &WorkingMemory,
    program: &Program,
    strategy: Strategy,
) -> Ordering {
    rank(a, wm, program, strategy).cmp(&rank(b, wm, program, strategy))
}

#[cfg(test)]
mod tests {
    use psm_obs::Rng64;

    use super::*;
    use crate::ast::Production;
    use crate::value::Value;
    use crate::wme::Wme;

    fn production(id: u32, specificity: usize) -> Production {
        Production {
            name: format!("p{id}"),
            id: ProductionId(id),
            ces: Vec::new(),
            actions: Vec::new(),
            variables: Vec::new(),
            binding_sites: Vec::new(),
            specificity,
        }
    }

    fn setup(n_wmes: usize) -> (Program, WorkingMemory, Vec<WmeId>) {
        let mut program = Program::new();
        let class = program.symbols.intern("c");
        let attr = program.symbols.intern("a");
        program.productions.push(production(0, 2));
        program.productions.push(production(1, 5));
        let mut wm = WorkingMemory::new();
        let ids = (0..n_wmes)
            .map(|i| {
                wm.add(Wme::new(class, vec![(attr, Value::Int(i as i64))]))
                    .0
            })
            .collect();
        (program, wm, ids)
    }

    #[test]
    fn lex_prefers_recency() {
        let (program, wm, ids) = setup(3);
        let older = Instantiation::new(ProductionId(0), vec![ids[0], ids[1]]);
        let newer = Instantiation::new(ProductionId(0), vec![ids[0], ids[2]]);
        let mut cs = ConflictSet::new();
        cs.apply(&MatchDelta {
            added: vec![older, newer.clone()],
            removed: vec![],
        });
        assert_eq!(cs.select(&wm, &program, Strategy::Lex), Some(newer));
    }

    #[test]
    fn lex_longer_wins_on_equal_prefix() {
        let (program, wm, ids) = setup(3);
        let short = Instantiation::new(ProductionId(0), vec![ids[2]]);
        let long = Instantiation::new(ProductionId(0), vec![ids[2], ids[0]]);
        let mut cs = ConflictSet::new();
        cs.apply(&MatchDelta {
            added: vec![short, long.clone()],
            removed: vec![],
        });
        assert_eq!(cs.select(&wm, &program, Strategy::Lex), Some(long));
    }

    #[test]
    fn specificity_breaks_recency_ties() {
        let (program, wm, ids) = setup(1);
        let weak = Instantiation::new(ProductionId(0), vec![ids[0]]);
        let strong = Instantiation::new(ProductionId(1), vec![ids[0]]);
        let mut cs = ConflictSet::new();
        cs.apply(&MatchDelta {
            added: vec![weak, strong.clone()],
            removed: vec![],
        });
        assert_eq!(cs.select(&wm, &program, Strategy::Lex), Some(strong));
    }

    #[test]
    fn mea_first_ce_recency_dominates() {
        let (program, wm, ids) = setup(3);
        // Under LEX, `a` wins (contains the newest tag anywhere).
        // Under MEA, `b` wins (newest *first-CE* tag).
        let a = Instantiation::new(ProductionId(0), vec![ids[0], ids[2]]);
        let b = Instantiation::new(ProductionId(0), vec![ids[1], ids[0]]);
        let mut cs = ConflictSet::new();
        cs.apply(&MatchDelta {
            added: vec![a.clone(), b.clone()],
            removed: vec![],
        });
        assert_eq!(cs.select(&wm, &program, Strategy::Lex), Some(a));
        assert_eq!(cs.select(&wm, &program, Strategy::Mea), Some(b));
    }

    #[test]
    fn refraction_skips_fired() {
        let (program, wm, ids) = setup(2);
        let only = Instantiation::new(ProductionId(0), vec![ids[0]]);
        let mut cs = ConflictSet::new();
        cs.apply(&MatchDelta {
            added: vec![only.clone()],
            removed: vec![],
        });
        assert_eq!(cs.select(&wm, &program, Strategy::Lex), Some(only.clone()));
        cs.mark_fired(&only);
        assert!(cs.has_fired(&only));
        assert_eq!(cs.select(&wm, &program, Strategy::Lex), None, "quiescent");
        assert_eq!(cs.len(), 1, "still satisfied, just refracted");
    }

    #[test]
    fn removal_clears_refraction() {
        let (program, wm, ids) = setup(1);
        let inst = Instantiation::new(ProductionId(0), vec![ids[0]]);
        let mut cs = ConflictSet::new();
        cs.apply(&MatchDelta {
            added: vec![inst.clone()],
            removed: vec![],
        });
        cs.mark_fired(&inst);
        cs.apply(&MatchDelta {
            added: vec![],
            removed: vec![inst.clone()],
        });
        assert!(cs.is_empty());
        assert!(!cs.has_fired(&inst));
        let _ = (&program, &wm);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let (_program, _wm, ids) = setup(3);
        let mut cs = ConflictSet::new();
        let insts: Vec<_> = ids
            .iter()
            .map(|&w| Instantiation::new(ProductionId(0), vec![w]))
            .collect();
        cs.apply(&MatchDelta {
            added: insts.clone(),
            removed: vec![],
        });
        cs.apply(&MatchDelta {
            added: vec![],
            removed: insts,
        });
        assert_eq!(cs.len(), 0);
        assert_eq!(cs.peak(), 3);
    }

    #[test]
    fn select_is_deterministic_under_full_ties() {
        let (program, wm, ids) = setup(1);
        let a = Instantiation::new(ProductionId(0), vec![ids[0]]);
        let b = Instantiation::new(ProductionId(1), vec![ids[0]]);
        // Force equal specificity.
        let mut program = program;
        program.productions[1].specificity = 2;
        let mut cs = ConflictSet::new();
        cs.apply(&MatchDelta {
            added: vec![a.clone(), b],
            removed: vec![],
        });
        // Lower production id wins the arbitrary tie-break.
        assert_eq!(cs.select(&wm, &program, Strategy::Lex), Some(a));
    }

    /// The strategies step by step, as OPS5 states them: the reference
    /// that [`Rank`]'s derived order must equal.
    fn spelled_out(
        a: &Instantiation,
        b: &Instantiation,
        wm: &WorkingMemory,
        program: &Program,
        strategy: Strategy,
    ) -> Ordering {
        let tag = |w: &WmeId| wm.time_tag(*w).unwrap_or_default();
        let descending = |inst: &Instantiation| {
            let mut tags: Vec<TimeTag> = inst.wmes.iter().map(tag).collect();
            tags.sort_unstable_by(|x, y| y.cmp(x));
            tags
        };
        if strategy == Strategy::Mea {
            let first = |inst: &Instantiation| inst.wmes.first().map(tag).unwrap_or_default();
            match first(a).cmp(&first(b)) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        let (ta, tb) = (descending(a), descending(b));
        for (x, y) in ta.iter().zip(&tb) {
            match x.cmp(y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        let specificity = |inst: &Instantiation| program.production(inst.production).specificity;
        ta.len()
            .cmp(&tb.len())
            .then_with(|| specificity(a).cmp(&specificity(b)))
            .then_with(|| b.production.cmp(&a.production))
            .then_with(|| b.wmes.cmp(&a.wmes))
    }

    /// `compare` and `select` equal the spelled-out strategies on seeded
    /// random conflict sets: recency ties, common prefixes of different
    /// length, one WME under two CEs, specificity ties, WMEs already
    /// gone from working memory, refracted entries, LEX and MEA.
    #[test]
    fn rank_order_is_the_spelled_out_strategy() {
        let rounds = if cfg!(miri) { 3 } else { 200 };
        let mut rng = Rng64::new(0xC0F1);
        for _ in 0..rounds {
            let (mut program, mut wm, ids) = setup(8);
            program.productions[1].specificity = rng.gen_range(2..4usize);
            for &dead in &ids[..rng.gen_range(0..3usize)] {
                wm.remove(dead);
            }
            let insts: Vec<Instantiation> = (0..12)
                .map(|_| {
                    let wmes = (0..rng.gen_range(0..5usize))
                        .map(|_| ids[rng.gen_range(0..ids.len())])
                        .collect();
                    Instantiation::new(ProductionId(rng.gen_range(0..2u32)), wmes)
                })
                .collect();
            let mut cs = ConflictSet::new();
            cs.apply(&MatchDelta {
                added: insts.clone(),
                removed: vec![],
            });
            cs.mark_fired(&insts[0]);
            for strategy in [Strategy::Lex, Strategy::Mea] {
                for a in &insts {
                    for b in &insts {
                        assert_eq!(
                            compare(a, b, &wm, &program, strategy),
                            spelled_out(a, b, &wm, &program, strategy),
                            "{a:?} vs {b:?} under {strategy:?}"
                        );
                    }
                }
                let expected = cs
                    .iter()
                    .filter(|i| !cs.has_fired(i))
                    .max_by(|a, b| spelled_out(a, b, &wm, &program, strategy))
                    .cloned();
                assert_eq!(cs.select(&wm, &program, strategy), expected);
            }
        }
    }
}
