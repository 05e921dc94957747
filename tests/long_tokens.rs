//! Long rules: every matcher agrees on productions whose tokens outgrow
//! the five WME ids a `rete::Token` holds in place.
//!
//! No preset has a production with more than five positive CEs, so the
//! spilled form of a token — and every memory, index key, snapshot
//! section and engine payload that carries one — is reached by no other
//! suite. Here each generated production has six to nine positive CEs
//! and a negation in the middle of its LHS, all joined on one variable;
//! the same change stream goes through the naive matcher, TREAT,
//! sequential Rete with keyed and with linear memories, a Rete matcher
//! that is snapshotted and restored every few batches, and the parallel
//! engine at 1, 2 and 8 threads. All must emit the same conflict-set
//! stream and hold nothing once the working memory is empty.

use std::sync::Arc;

use psm::baselines::{NaiveMatcher, TreatMatcher};
use psm::core::{ParallelOptions, ParallelReteMatcher};
use psm::obs::Rng64;
use psm::ops5::{parse_program, Change, MatchDelta, Matcher, Value, Wme, WmeId, WorkingMemory};
use psm::rete::ReteMatcher;

const CLASSES: [&str; 4] = ["c0", "c1", "c2", "c3"];
const ATTRS: [&str; 2] = ["a0", "a1"];
const VALUES: i64 = 2;
/// Live WMEs at most: with four classes and two values a nine-CE rule
/// then has tens of instantiations, not thousands.
const LIVE: usize = 14;

/// One production per length 6 ..= 9, each `(cK ^aJ <v>)` × length with
/// one `- (cK ^aJ <v>)` somewhere after the second CE and before the
/// last.
fn gen_program(rng: &mut Rng64) -> String {
    let mut src = String::new();
    for positives in 6..=9usize {
        let negated_before = rng.gen_range(2..positives);
        src.push_str(&format!("(p long-{positives}"));
        for ce in 0..positives {
            let ce_text =
                |rng: &mut Rng64| format!("({} ^{} <v>)", rng.choose(&CLASSES), rng.choose(&ATTRS));
            if ce == negated_before {
                src.push_str(&format!(" - {}", ce_text(rng)));
            }
            src.push_str(&format!(" {}", ce_text(rng)));
        }
        src.push_str(" --> (halt))\n");
    }
    src
}

fn canonical(mut delta: MatchDelta) -> MatchDelta {
    delta.canonicalize();
    delta
}

fn run(seed: u64, batches: usize) -> usize {
    let mut rng = Rng64::new(seed);
    let src = gen_program(&mut rng);
    let mut program = parse_program(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let class_ids = CLASSES.map(|class| program.symbols.intern(class));
    let attr_ids = ATTRS.map(|attr| program.symbols.intern(attr));

    let mut rete = ReteMatcher::compile(&program).expect("rete compiles");
    let mut restored = ReteMatcher::compile(&program).expect("rete compiles");
    let mut linear = ReteMatcher::compile_linear(&program).expect("linear rete compiles");
    let mut treat = TreatMatcher::compile(&program).expect("treat compiles");
    let mut naive = NaiveMatcher::new(&program);
    let mut engines = [1, 2, 8].map(|threads| {
        let options = ParallelOptions {
            threads,
            share: true,
        };
        ParallelReteMatcher::compile(&program, options).expect("engine compiles")
    });

    let mut wm = WorkingMemory::new();
    let mut live: Vec<WmeId> = Vec::new();
    let mut longest = 0;
    let mut step = 0;
    let mut draining = false;
    while !(draining && live.is_empty()) {
        draining |= step == batches;
        // Removes first, as a firing's batch has them, and only of what
        // was live before the batch.
        let changes = rng.gen_range(1..=3usize);
        let full = live.len() >= LIVE;
        let leaving = (0..changes).filter(|_| draining || full || rng.gen_bool(0.4));
        let removes = leaving.count().min(live.len());
        let mut batch = Vec::new();
        for _ in 0..removes {
            let at = rng.gen_range(0..live.len());
            batch.push(Change::Remove(live.swap_remove(at)));
        }
        for _ in removes..if draining { 0 } else { changes } {
            let value = |rng: &mut Rng64| Value::Int(rng.gen_range(0..VALUES));
            let attrs = attr_ids.map(|attr| (attr, value(&mut rng)));
            let wme = Wme::new(*rng.choose(&class_ids), attrs.to_vec());
            let (id, _) = wm.add(wme);
            live.push(id);
            batch.push(Change::Add(id));
        }

        if step % 5 == 4 {
            let network = Arc::clone(restored.network());
            restored = ReteMatcher::restore(network, &restored.snapshot()).expect("restores");
        }
        let want = canonical(rete.process(&wm, &batch));
        let long = want.added.iter().chain(&want.removed);
        longest = longest.max(long.map(|inst| inst.wmes.len()).max().unwrap_or(0));
        let [par1, par2, par8] = &mut engines;
        let others: [(&str, &mut dyn Matcher); 7] = [
            ("restored", &mut restored),
            ("linear", &mut linear),
            ("treat", &mut treat),
            ("naive", &mut naive),
            ("engine x1", par1),
            ("engine x2", par2),
            ("engine x8", par8),
        ];
        for (name, matcher) in others {
            let got = canonical(matcher.process(&wm, &batch));
            assert_eq!(want, got, "seed {seed} batch {step}: rete vs {name}\n{src}");
        }
        for change in &batch {
            if let Change::Remove(id) = change {
                wm.remove(*id);
            }
        }
        step += 1;
    }

    for (name, matcher) in [
        ("rete", &rete),
        ("restored", &restored),
        ("linear", &linear),
    ] {
        let left = (
            matcher.resident_tokens(),
            matcher.resident_alpha_entries(),
            matcher.resident_index_entries(),
            matcher.resident_index_buckets(),
            matcher.stats().phantom_removes,
        );
        assert_eq!(left, (0, 0, 0, 0, 0), "seed {seed}: {name} after the drain");
    }
    for (engine, threads) in engines.iter().zip([1, 2, 8]) {
        assert_eq!(
            engine.resident_tokens(),
            0,
            "seed {seed}: engine x{threads}"
        );
    }
    longest
}

#[test]
fn rules_longer_than_a_token_holds_in_place_match_alike_everywhere() {
    let mut longest = Vec::new();
    for seed in 0..8 {
        longest.push(run(0x10C6 + seed, 100));
    }
    println!("longest instantiation per seed: {longest:?}");
    // The suite is only a check of spilled tokens while the generator
    // gets rules of more than five CEs satisfied.
    assert!(
        longest.iter().filter(|&&wmes| wmes > 5).count() >= 5,
        "{longest:?}"
    );
}
