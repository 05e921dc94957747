//! Unit tests of `rete::kernel` through its public interface: key
//! selection, test counting, the two scans, the activation vocabulary,
//! top-token seeding and the index bucket.

use ops5::{parse_program, parse_wme, FxHashMap, PredOp, SymbolTable, WmeId, WorkingMemory};
use psm_obs::ProfileKind;
use rete::kernel::{eval_join_tests, scan_tokens, scan_wmes, top_token_inputs, Work};
use rete::network::NodeKind;
use rete::{ActivationKind, Bucket, JoinTest, Network, Sign, Token};

/// A working memory holding `lits`, their ids, and `x`-on-`x` join
/// tests built from `ops`, each against token position 0.
fn fixture(lits: &[&str], ops: &[PredOp]) -> (WorkingMemory, Vec<WmeId>, Vec<JoinTest>) {
    let mut syms = SymbolTable::new();
    let mut wm = WorkingMemory::new();
    let ids = lits
        .iter()
        .map(|lit| wm.add(parse_wme(lit, &mut syms).unwrap()).0)
        .collect();
    let x = syms.intern("x");
    let tests = ops
        .iter()
        .map(|&op| JoinTest {
            own_attr: x,
            op,
            token_pos: 0,
            token_attr: x,
        })
        .collect();
    (wm, ids, tests)
}

#[test]
fn node_key_is_the_first_equality_test_of_two_input_nodes() {
    let program = parse_program(
        r#"
        (p eq (a ^x <v> ^y <w>) (b ^y > <w> ^x <v>) - (c ^x <v>) --> (remove 1))
        (p pred-only (a ^x <v>) (d ^x > <v>) --> (remove 1))
        "#,
    )
    .unwrap();
    let net = Network::compile(&program).unwrap();
    let mut keyed = 0;
    for (_, spec) in net.iter() {
        // What both runtimes derived for themselves before the key
        // moved onto the spec.
        let first_eq = spec.tests.iter().copied().find(|t| t.op == PredOp::Eq);
        match spec.kind {
            NodeKind::Join | NodeKind::Negative => assert_eq!(spec.key, first_eq),
            NodeKind::BetaMemory | NodeKind::Terminal => assert_eq!(spec.key, None),
        }
        keyed += usize::from(spec.key.is_some());
    }
    assert_eq!(
        keyed, 2,
        "the b-join (past its leading `>`) and the negative"
    );
    let pred_only = net.production_chain(ops5::ProductionId(1))[1];
    assert_eq!(net.node(pred_only).tests.len(), 1);
    assert_eq!(net.node(pred_only).key, None, "no equality test to key on");
}

#[test]
fn eval_counts_tests_up_to_the_first_failure() {
    use PredOp::{Eq, Gt};
    let (wm, ids, tests) = fixture(&["(a ^x 1)", "(b ^x 1)", "(b ^x 2)", "(b ^y 1)"], &[Eq, Gt]);
    let resolve = |id| wm.get(id);
    let token = Token::top().extended(ids[0]);
    let eval = |tests: &[JoinTest], wme: WmeId| {
        eval_join_tests(tests, &token, wm.get(wme).unwrap(), resolve)
    };
    assert_eq!(eval(&tests, ids[1]), (false, 2), "1 = 1 holds, 1 > 1 fails");
    assert_eq!(eval(&tests, ids[2]), (false, 1), "2 = 1 fails first");
    assert_eq!(eval(&tests[..1], ids[1]), (true, 1));
    assert_eq!(eval(&[], ids[1]), (true, 0));
    assert_eq!(eval(&tests, ids[3]), (false, 1), "absent attribute fails");
    let dangling = Token::top().extended(WmeId::from_index(99));
    let wme = wm.get(ids[1]).unwrap();
    assert_eq!(eval_join_tests(&tests, &dangling, wme, resolve), (false, 1));
}

#[test]
fn scans_count_every_candidate_and_report_matches_in_order() {
    let (wm, ids, tests) = fixture(
        &["(a ^x 1)", "(a ^x 2)", "(a ^x 1)", "(b ^x 1)", "(b ^y 1)"],
        &[PredOp::Eq],
    );
    let resolve = |id| wm.get(id);
    let tokens: Vec<Token> = ids[..3]
        .iter()
        .map(|&id| Token::top().extended(id))
        .collect();
    let (keyed, unkeyable) = (wm.get(ids[3]).unwrap(), wm.get(ids[4]).unwrap());

    let mut hits = Vec::new();
    let work = scan_tokens(&tests, &tokens, keyed, resolve, |t: &Token| {
        hits.push(t.clone())
    });
    assert_eq!(
        work,
        Work {
            tests: 3,
            scanned: 3
        }
    );
    assert_eq!(hits, [tokens[0].clone(), tokens[2].clone()]);

    let none: &[Token] = &[];
    let never = |_: &Token| panic!("nothing can match");
    assert_eq!(
        scan_tokens(&tests, none, keyed, resolve, never),
        Work::default()
    );
    let work = scan_tokens(&tests, &tokens, unkeyable, resolve, never);
    assert_eq!(
        work,
        Work {
            tests: 3,
            scanned: 3
        }
    );

    let mut hits = Vec::new();
    let wmes = [ids[3], ids[4], ids[3]];
    let work = scan_wmes(&tests, &tokens[0], wmes, resolve, |id| hits.push(id));
    assert_eq!(
        work,
        Work {
            tests: 3,
            scanned: 3
        }
    );
    assert_eq!(hits, [ids[3], ids[3]]);
    let never = |_| panic!("nothing can match");
    assert_eq!(
        scan_wmes(&tests, &tokens[0], [], resolve, never),
        Work::default()
    );
    // No tests at all: every candidate is a match at zero cost.
    let mut n = 0;
    let work = scan_wmes(&[], &tokens[1], wmes, resolve, |_| n += 1);
    assert_eq!(
        (work, n),
        (
            Work {
                tests: 0,
                scanned: 3
            },
            3
        )
    );
}

#[test]
fn activation_kinds_and_labels_cover_every_node_and_side() {
    use NodeKind::{BetaMemory, Join, Negative, Terminal};
    let table = [
        (Join, true, "join-R", ProfileKind::Join),
        (Join, false, "join-L", ProfileKind::Join),
        (Negative, true, "neg-R", ProfileKind::Negative),
        (Negative, false, "neg-L", ProfileKind::Negative),
        (BetaMemory, true, "bmem", ProfileKind::BetaMem),
        (BetaMemory, false, "bmem", ProfileKind::BetaMem),
        (Terminal, true, "term", ProfileKind::Terminal),
        (Terminal, false, "term", ProfileKind::Terminal),
    ];
    for (node, right_side, label, profile) in table {
        let kind = ActivationKind::of(node, right_side);
        assert_eq!(kind.label(), label);
        assert_eq!(kind.profile_kind().0, profile);
        let two_input = matches!(node, Join | Negative);
        assert_eq!(kind.profile_kind().1, two_input && right_side);
    }
    for kind in ActivationKind::ALL {
        assert_eq!(ActivationKind::from_label(kind.label()), Some(kind));
    }
    assert_eq!(ActivationKind::ConstantTest.label(), "const");
    assert_eq!(ActivationKind::AlphaMem.label(), "amem");
    assert_eq!(ActivationKind::from_label("wat"), None);
}

#[test]
fn sign_steps_and_inverts() {
    assert_eq!((Sign::Plus.delta(), Sign::Minus.delta()), (1, -1));
    assert_eq!(Sign::Plus.invert(), Sign::Minus);
    assert_eq!(Sign::Minus.invert(), Sign::Plus);
    assert!(Sign::Plus.is_plus() && !Sign::Minus.is_plus());
}

#[test]
fn top_token_reaches_through_leading_negatives_only() {
    let program = parse_program(
        r#"
        (p lead - (b1) - (b2) (a ^x <v>) (c ^x <v>) --> (remove 3))
        (p mid (a ^x <v>) - (b1) (c ^x <v>) --> (remove 1))
        "#,
    )
    .unwrap();
    let net = Network::compile(&program).unwrap();
    let reach = top_token_inputs(&net);
    let chain = |p| net.production_chain(ops5::ProductionId(p));
    let reached = |p: u32| -> Vec<bool> { chain(p).iter().map(|n| reach[n.index()]).collect() };
    assert_eq!(reached(0), [true, true, true, false]);
    assert_eq!(
        reached(1),
        [true, false, false],
        "a mid-LHS negative is fed by a memory"
    );
    assert_eq!(reach.iter().filter(|&&r| r).count(), 4);
}

#[test]
fn bucket_spills_on_second_entry_and_prunes_when_drained() {
    let mut index: FxHashMap<u8, Bucket<u32>> = FxHashMap::default();
    Bucket::insert(&mut index, 0, 1);
    assert_eq!(index[&0], Bucket::One(1));
    Bucket::insert(&mut index, 0, 2);
    Bucket::insert(&mut index, 0, 3);
    assert_eq!(index[&0].as_slice(), &[1, 2, 3]);
    Bucket::remove(&mut index, &0, &9);
    Bucket::remove(&mut index, &0, &1);
    assert_eq!(index[&0].as_slice(), &[3, 2], "swap-remove order");
    Bucket::remove(&mut index, &0, &3);
    Bucket::remove(&mut index, &0, &2);
    assert!(index.is_empty(), "drained bucket is pruned");
    Bucket::insert(&mut index, 1, 7);
    Bucket::remove(&mut index, &1, &8);
    assert_eq!(index[&1], Bucket::One(7), "a miss leaves a singleton alone");
    Bucket::remove(&mut index, &1, &7);
    Bucket::remove(&mut index, &1, &7);
    assert!(index.is_empty());
}
