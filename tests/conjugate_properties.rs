//! Randomized conjugate-pair property: matchers stay equivalent on
//! programs where the *same class* feeds both negated and positive CEs.
//!
//! The hardest Rete consistency bug in this codebase (see
//! `shared_class_negative_and_join_stay_consistent` in `rete::runtime`)
//! involved one WME right-activating a negative node and the join
//! directly downstream of it in the same change. That regression test
//! pins one hand-built instance; this property test generates many
//! random programs of the same conjugate shape — every production has a
//! negated CE whose class also appears in a positive CE, joined on a
//! shared variable — and checks Rete, TREAT, the naive matcher and the
//! parallel engine at 1, 2 and 8 threads produce identical conflict-set
//! deltas on random add/remove streams. Half the productions bind a
//! second variable, so their later CEs — positive and negated — test two
//! variables already bound and their nodes are indexed by a two-part key.

use psm::baselines::{NaiveMatcher, TreatMatcher};
use psm::core::{ParallelOptions, ParallelReteMatcher};
use psm::obs::Rng64;
use psm::ops5::{parse_program, Change, Matcher, Program, Value, Wme, WorkingMemory};
use psm::rete::network::NodeKind;
use psm::rete::{MatchStats, ReteMatcher};
use psm::workloads::{programs, GeneratedWorkload, Preset, WorkloadDriver};

const CLASSES: [&str; 2] = ["s", "t"];
const VALUE_DOMAIN: i64 = 3;

/// Generates a program of conjugate-shaped productions: each has a
/// negated CE over a class that some positive CE also tests, all joined
/// on the production's variable `<v>` so one WME can flip a negation and
/// a join in the same change. Every other production binds `<w>` in its
/// first CE too, and each of its later CEs may test both.
fn gen_program(rng: &mut Rng64, productions: usize) -> String {
    let mut src = String::new();
    for i in 0..productions {
        let cls = *rng.choose(&CLASSES);
        let two = rng.gen_bool(0.5);
        let w = |rng: &mut Rng64, attr: &str| {
            if two && rng.gen_bool(0.6) {
                format!(" ^{attr} <w>")
            } else {
                String::new()
            }
        };
        let bind = if two { " ^a1 <w>" } else { "" };
        src.push_str(&format!("(p gen-{i} ({cls} ^a0 <v>{bind})"));
        // The conjugate pair: a negation on the same class (different
        // attribute), then a positive CE on that class again.
        src.push_str(&format!(" - ({cls} ^a1 <v>{})", w(rng, "a2")));
        src.push_str(&format!(" ({cls} ^a2 <v>{})", w(rng, "a0")));
        // Optional extra CE to vary chain depth and cross-class joins.
        if rng.gen_bool(0.5) {
            let other = *rng.choose(&CLASSES);
            if rng.gen_bool(0.3) {
                src.push_str(&format!(" - ({other} ^a0 <v>{})", w(rng, "a1")));
            } else {
                src.push_str(&format!(" ({other} ^a1 <v>{})", w(rng, "a2")));
            }
        }
        src.push_str(" --> (halt))\n");
    }
    src
}

/// A random WME over the shared vocabulary: one class, a random subset
/// of the three attributes, values from a tiny domain so negations
/// block and unblock constantly.
fn gen_wme(rng: &mut Rng64, program: &mut Program) -> Wme {
    let cls_name = *rng.choose(&CLASSES);
    let cls = program.symbols.intern(cls_name);
    let mut attrs = Vec::new();
    for attr in ["a0", "a1", "a2"] {
        if rng.gen_bool(0.6) {
            let a = program.symbols.intern(attr);
            attrs.push((a, Value::Int(rng.gen_range(0..VALUE_DOMAIN))));
        }
    }
    Wme::new(cls, attrs)
}

/// Strips the scan-count fields that legitimately differ between the
/// Linear and Hashed memory strategies: a bucket probe scans (and
/// join-tests) only the candidates whose key matches, while a linear
/// scan visits the whole opposite memory. Every other counter — change
/// and activation flow, memory ops, tokens created, residency peaks,
/// conflict changes, phantom removes — must be byte-identical across
/// strategies.
fn normalized(mut stats: MatchStats) -> MatchStats {
    stats.join_tests = 0;
    stats.pairs_scanned = 0;
    stats
}

/// Drives Rete (hashed default), Rete (linear ablation), TREAT, naive
/// and the parallel engine (1, 2 and 8 threads) through the same random
/// change stream, asserting identical canonicalized deltas on every
/// batch and a clean drain. Returns how many join and how many negative
/// nodes of the program are indexed by two or more equality tests.
fn run_property(seed: u64, batches: usize) -> [usize; 2] {
    let mut rng = Rng64::new(seed);
    let src = gen_program(&mut rng, 6);
    let mut program = parse_program(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));

    let mut rete = ReteMatcher::compile(&program).expect("rete compiles");
    let mut linear = ReteMatcher::compile_linear(&program).expect("linear rete compiles");
    let mut treat = TreatMatcher::compile(&program).expect("treat compiles");
    let mut naive = NaiveMatcher::new(&program);
    let mut parallel = [1, 2, 8].map(|threads| {
        let options = ParallelOptions {
            threads,
            share: true,
        };
        ParallelReteMatcher::compile(&program, options).expect("parallel compiles")
    });
    let composite = [NodeKind::Join, NodeKind::Negative].map(|kind| {
        let nodes = rete.network().iter();
        let composite = nodes.filter(|(_, spec)| spec.kind == kind && spec.key.len() >= 2);
        composite.count()
    });

    let mut wm = WorkingMemory::new();
    let mut live: Vec<psm::ops5::WmeId> = Vec::new();

    let mut check = |wm: &WorkingMemory,
                     batch: &[Change],
                     rete: &mut ReteMatcher,
                     linear: &mut ReteMatcher,
                     treat: &mut TreatMatcher,
                     naive: &mut NaiveMatcher,
                     step: usize| {
        let mut dr = rete.process(wm, batch);
        dr.canonicalize();
        let [par1, par2, par8] = &mut parallel;
        let others: [(&str, &mut dyn Matcher); 6] = [
            ("linear", linear),
            ("treat", treat),
            ("naive", naive),
            ("parallel x1", par1),
            ("parallel x2", par2),
            ("parallel x8", par8),
        ];
        for (name, matcher) in others {
            let mut delta = matcher.process(wm, batch);
            delta.canonicalize();
            assert_eq!(dr, delta, "seed {seed} batch {step}: rete vs {name}\n{src}");
        }
        // The two strategies walk identical activation paths — only the
        // scan counts (stripped by `normalized`) may differ, and hashed
        // may never scan *more* than linear.
        assert_eq!(
            normalized(rete.stats()),
            normalized(linear.stats()),
            "seed {seed} batch {step}: strategy-sensitive MatchStats\n{src}"
        );
        assert!(
            rete.stats().pairs_scanned <= linear.stats().pairs_scanned,
            "seed {seed} batch {step}: hashed scanned more than linear"
        );
        assert_eq!(
            rete.resident_tokens(),
            linear.resident_tokens(),
            "seed {seed} batch {step}: resident-token divergence"
        );
    };

    for step in 0..batches {
        let mut batch = Vec::new();
        // Snapshot so a WME added in this batch is not also removed by it.
        let removable = live.clone();
        let mut removed_this_batch = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let cap_reached = live.len() >= 40;
            if !removable.is_empty() && (cap_reached || rng.gen_bool(0.4)) {
                let id = *rng.choose(&removable);
                if removed_this_batch.contains(&id) {
                    continue;
                }
                removed_this_batch.push(id);
                live.retain(|&l| l != id);
                batch.push(Change::Remove(id));
            } else {
                let (id, _) = wm.add(gen_wme(&mut rng, &mut program));
                live.push(id);
                batch.push(Change::Add(id));
            }
        }
        check(
            &wm,
            &batch,
            &mut rete,
            &mut linear,
            &mut treat,
            &mut naive,
            step,
        );
        for &c in &batch {
            if let Change::Remove(id) = c {
                wm.remove(id);
            }
        }
    }

    // Drain: retracting everything must empty all matcher state the
    // same way, leaving Rete with zero resident tokens and — for the
    // hashed default — zero resident index entries and buckets (the
    // empty-bucket pruning invariant).
    while !live.is_empty() {
        let n = live.len().min(3);
        let batch: Vec<Change> = live.drain(..n).map(Change::Remove).collect();
        check(
            &wm,
            &batch,
            &mut rete,
            &mut linear,
            &mut treat,
            &mut naive,
            usize::MAX,
        );
        for &c in &batch {
            if let Change::Remove(id) = c {
                wm.remove(id);
            }
        }
    }
    assert_eq!(rete.resident_tokens(), 0, "seed {seed}: tokens leaked");
    assert_eq!(
        rete.resident_index_entries(),
        0,
        "seed {seed}: hash-index entries leaked"
    );
    assert_eq!(
        rete.resident_index_buckets(),
        0,
        "seed {seed}: empty hash-index buckets not pruned"
    );
    assert_eq!(
        rete.stats().phantom_removes,
        0,
        "seed {seed}: phantom removes on a healthy run"
    );
    for (matcher, threads) in parallel.iter().zip([1, 2, 8]) {
        let resident = matcher.resident_tokens();
        assert_eq!(resident, 0, "seed {seed}: parallel x{threads} leaked");
    }
    composite
}

#[test]
fn conjugate_pair_programs_keep_matchers_equivalent() {
    let (mut joins, mut negatives) = (0, 0);
    for seed in 0..8 {
        let [j, n] = run_property(seed, 60);
        joins += j;
        negatives += n;
    }
    // The suite is only a check of composite index keys while the
    // generator emits nodes that have one.
    assert!(
        joins >= 4 && negatives >= 4,
        "{joins} joins and {negatives} negative nodes with a two-part key"
    );
}

#[test]
fn conjugate_pair_long_run_single_seed() {
    run_property(101, 250);
}

/// The deferred negative-node ordering case under both memory
/// strategies: one WME that blocks a negative CE *and* feeds the join
/// directly downstream of it in the same change. The runtime defers the
/// negative node's right activation so the block lands before the join
/// sees the candidate; hashed bucket probing must preserve exactly that
/// ordering (and its stats), not just the final conflict set.
#[test]
fn deferred_negative_ordering_matches_across_strategies() {
    let src = "(p r (a ^x <v>) - (b ^block <v>) (b ^val <v>) --> (remove 1))";
    let program = parse_program(src).expect("parses");
    let mut hashed = ReteMatcher::compile(&program).expect("hashed compiles");
    let mut linear = ReteMatcher::compile_linear(&program).expect("linear compiles");
    let mut wm = WorkingMemory::new();
    let mut syms = program.symbols.clone();
    let step = |wm: &mut WorkingMemory,
                hashed: &mut ReteMatcher,
                linear: &mut ReteMatcher,
                batch: Vec<Change>| {
        let mut dh = hashed.process(wm, &batch);
        let mut dl = linear.process(wm, &batch);
        for c in &batch {
            if let Change::Remove(id) = c {
                wm.remove(*id);
            }
        }
        dh.canonicalize();
        dl.canonicalize();
        assert_eq!(dh, dl, "strategy divergence");
        assert_eq!(normalized(hashed.stats()), normalized(linear.stats()));
        (dh.added.len(), dh.removed.len())
    };
    let mut add = |wm: &mut WorkingMemory, lit: &str| {
        let (id, _) = wm.add(psm::ops5::parse_wme(lit, &mut syms).expect("wme parses"));
        id
    };

    let ia = add(&mut wm, "(a ^x 1)");
    assert_eq!(
        step(&mut wm, &mut hashed, &mut linear, vec![Change::Add(ia)]),
        (0, 0)
    );
    // The conjugate WME: blocks the negation and satisfies the positive
    // CE in one change — net nothing, in both directions.
    let w1 = add(&mut wm, "(b ^block 1 ^val 1)");
    assert_eq!(
        step(&mut wm, &mut hashed, &mut linear, vec![Change::Add(w1)]),
        (0, 0)
    );
    assert_eq!(
        step(&mut wm, &mut hashed, &mut linear, vec![Change::Remove(w1)]),
        (0, 0)
    );
    // Pure candidate fires; pure blocker retracts; unblocking re-fires.
    let c = add(&mut wm, "(b ^val 1)");
    assert_eq!(
        step(&mut wm, &mut hashed, &mut linear, vec![Change::Add(c)]),
        (1, 0)
    );
    let bl = add(&mut wm, "(b ^block 1)");
    assert_eq!(
        step(&mut wm, &mut hashed, &mut linear, vec![Change::Add(bl)]),
        (0, 1)
    );
    assert_eq!(
        step(&mut wm, &mut hashed, &mut linear, vec![Change::Remove(bl)]),
        (1, 0)
    );
    // Drain and check the purge invariants on both.
    assert_eq!(
        step(
            &mut wm,
            &mut hashed,
            &mut linear,
            vec![Change::Remove(ia), Change::Remove(c)]
        ),
        (0, 1)
    );
    assert_eq!(hashed.resident_tokens(), 0);
    assert_eq!(linear.resident_tokens(), 0);
    assert_eq!(hashed.resident_index_entries(), 0);
    assert_eq!(hashed.resident_index_buckets(), 0);
}

/// All six presets, driven through identical synthetic change streams
/// under both strategies: the per-cycle firing sequences (canonicalized
/// conflict-set deltas, in order), normalized MatchStats, and resident
/// token counts must be identical, and the drained hashed matcher must
/// return its index to the empty baseline.
#[test]
fn presets_fire_identically_under_both_strategies() {
    for preset in Preset::all() {
        let workload = GeneratedWorkload::generate(preset.spec_small()).expect("generates");
        let mut hashed = ReteMatcher::compile(&workload.program).expect("hashed compiles");
        let mut linear = ReteMatcher::compile_linear(&workload.program).expect("linear compiles");
        // Two drivers with the same seed replay the same stream into
        // two independent working memories with identical WME ids.
        let mut dh = WorkloadDriver::new(workload.clone(), 0xD1FF);
        let mut dl = WorkloadDriver::new(workload, 0xD1FF);
        dh.init(&mut hashed);
        dl.init(&mut linear);
        for cycle in 0..40u32 {
            let bh = dh.next_batch();
            let bl = dl.next_batch();
            assert_eq!(bh, bl, "{}: driver streams diverged", preset.name());
            let mut delta_h = hashed.process(dh.working_memory(), &bh);
            let mut delta_l = linear.process(dl.working_memory(), &bl);
            dh.commit_batch(&bh);
            dl.commit_batch(&bl);
            delta_h.canonicalize();
            delta_l.canonicalize();
            assert_eq!(
                delta_h,
                delta_l,
                "{} cycle {cycle}: firing sequence divergence",
                preset.name()
            );
            assert_eq!(
                hashed.resident_tokens(),
                linear.resident_tokens(),
                "{} cycle {cycle}: token-count divergence",
                preset.name()
            );
        }
        assert_eq!(
            normalized(hashed.stats()),
            normalized(linear.stats()),
            "{}: strategy-sensitive MatchStats",
            preset.name()
        );
        assert!(
            hashed.stats().pairs_scanned <= linear.stats().pairs_scanned,
            "{}: hashed scanned more than linear",
            preset.name()
        );
        // Full churn: retract every live WME and require the index to
        // return to its empty baseline.
        let drain: Vec<Change> = dh
            .working_memory()
            .iter()
            .map(|(id, _, _)| Change::Remove(id))
            .collect();
        let mut delta_h = hashed.process(dh.working_memory(), &drain);
        let mut delta_l = linear.process(dl.working_memory(), &drain);
        delta_h.canonicalize();
        delta_l.canonicalize();
        assert_eq!(delta_h, delta_l, "{}: drain divergence", preset.name());
        assert_eq!(hashed.resident_tokens(), 0, "{}", preset.name());
        assert_eq!(hashed.resident_index_entries(), 0, "{}", preset.name());
        assert_eq!(hashed.resident_index_buckets(), 0, "{}", preset.name());
        assert_eq!(hashed.stats().phantom_removes, 0, "{}", preset.name());
    }
}

/// The `tc-extend` shape under churn: the closure program's working
/// memory over a twelve-node graph, `edge` and `reach` facts asserted
/// two steps in three and a random live one retracted otherwise. Its
/// negative nodes sit below a join and hold hundreds of tokens, entries
/// leave from the middle of their memories and match counts cross zero
/// both ways — what the sequential matcher's bucketed negative memory
/// has to survive. Every matcher that implements a negative node its own
/// way must emit the same deltas, and drain to nothing.
#[test]
fn closure_churn_keeps_negative_memories_equivalent() {
    let (program, _) = programs::transitive_closure(&[]).expect("parses");
    let parallel = |threads| {
        let options = ParallelOptions {
            threads,
            share: true,
        };
        ParallelReteMatcher::compile(&program, options).expect("parallel compiles")
    };
    let mut hashed = ReteMatcher::compile(&program).expect("hashed compiles");
    let mut linear = ReteMatcher::compile_linear(&program).expect("linear compiles");
    let mut treat = TreatMatcher::compile(&program).expect("treat compiles");
    let (mut par1, mut par2) = (parallel(1), parallel(2));

    let mut rng = Rng64::new(0xC105);
    let mut symbols = program.symbols.clone();
    let classes = ["edge", "reach"].map(|c| symbols.intern(c));
    let (from, to) = (symbols.intern("from"), symbols.intern("to"));
    let mut wm = WorkingMemory::new();
    let mut live = Vec::new();
    let mut peak = 0;
    let mut step = |wm: &mut WorkingMemory, change: Change| {
        let mut expected = hashed.process(wm, &[change]);
        expected.canonicalize();
        let others: [(&str, &mut dyn Matcher); 4] = [
            ("linear", &mut linear),
            ("treat", &mut treat),
            ("parallel x1", &mut par1),
            ("parallel x2", &mut par2),
        ];
        for (name, matcher) in others {
            let mut delta = matcher.process(wm, &[change]);
            delta.canonicalize();
            assert_eq!(delta, expected, "{name} at {change:?}");
        }
        if let Change::Remove(id) = change {
            wm.remove(id);
        }
        peak = peak.max(hashed.resident_index_entries());
    };
    for _ in 0..900 {
        if live.is_empty() || rng.gen_range(0..3u32) > 0 {
            let class = classes[usize::from(rng.gen_bool(0.7))];
            let ends = [from, to].map(|attr| (attr, Value::Int(rng.gen_range(0..12i64))));
            let (id, _) = wm.add(Wme::new(class, ends.to_vec()));
            live.push(id);
            step(&mut wm, Change::Add(id));
        } else {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            step(&mut wm, Change::Remove(id));
        }
    }
    for id in live {
        step(&mut wm, Change::Remove(id));
    }
    assert!(peak > 300, "index peaked at {peak} entries");
    assert_eq!(normalized(hashed.stats()), normalized(linear.stats()));
    assert!(hashed.stats().pairs_scanned * 2 < linear.stats().pairs_scanned);
    for (name, rete) in [("hashed", &hashed), ("linear", &linear)] {
        assert_eq!(rete.resident_tokens(), 0, "{name}: tokens leaked");
        assert_eq!(rete.resident_index_entries(), 0, "{name}");
        assert_eq!(rete.resident_index_buckets(), 0, "{name}");
        assert_eq!(rete.stats().phantom_removes, 0, "{name}");
    }
    assert_eq!(par1.resident_tokens(), 0, "parallel x1: tokens leaked");
    assert_eq!(par2.resident_tokens(), 0, "parallel x2: tokens leaked");
}
