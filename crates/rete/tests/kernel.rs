//! Unit tests of `rete::kernel` through its public interface: key
//! selection, test counting, the two scans, the activation vocabulary,
//! and top-token seeding.

use ops5::{parse_program, parse_wme, PredOp, SymbolTable, Value, WmeId, WorkingMemory};
use psm_obs::ProfileKind;
use rete::kernel::{
    eval_join_tests, fingerprint, key_tests, left_key, right_key, scan_tokens, scan_wmes,
    token_parts, top_token_inputs, wme_parts, Work,
};
use rete::network::NodeKind;
use rete::{ActivationKind, JoinTest, Network, Sign, Token};

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
fn node_key_is_every_equality_test_of_a_two_input_node_in_test_order() {
    let program = parse_program(
        r#"
        (p eq (a ^x <v> ^y <w>) (b ^y > <w> ^x <v>) - (c ^x <v> ^y <w>) --> (remove 1))
        (p pred-only (a ^x <v>) (d ^x > <v>) --> (remove 1))
        "#,
    )
    .unwrap();
    let net = Network::compile(&program).unwrap();
    let mut parts = Vec::new();
    for (_, spec) in net.iter() {
        let eq = spec.tests.iter().copied().filter(|t| t.op == PredOp::Eq);
        match spec.kind {
            NodeKind::Join | NodeKind::Negative => assert!(eq.eq(spec.key.iter().copied())),
            NodeKind::BetaMemory | NodeKind::Terminal => assert!(spec.key.is_empty()),
        }
        if !spec.key.is_empty() {
            parts.push(spec.key.len());
        }
    }
    assert_eq!(
        parts,
        [1, 2],
        "the b-join (past its leading `>`) and the negative, on both variables"
    );
    let pred_only = net.node(net.production_chain(ops5::ProductionId(1))[1]);
    assert_eq!(pred_only.tests.len(), 1);
    assert!(pred_only.key.is_empty(), "no equality test to key on");
    // A node without a key files nothing and probes with nothing.
    let mut syms = program.symbols.clone();
    let wme = parse_wme("(d ^x 1)", &mut syms).unwrap();
    assert_eq!(right_key(&pred_only.key, &wme), None);
    assert_eq!(
        left_key(&pred_only.key, &Token::top(), |_| Some(&wme)),
        None
    );
}

#[test]
fn a_wme_and_a_token_passing_every_equality_test_have_one_key() {
    let mut syms = SymbolTable::new();
    let mut wm = WorkingMemory::new();
    let mut add = |lit: &str| wm.add(parse_wme(lit, &mut syms).unwrap()).0;
    let (a, b) = (add("(a ^x 1 ^y red)"), add("(b ^z 2)"));
    let (hit, swapped) = (add("(c ^p 1 ^q 2 ^r red)"), add("(c ^p 2 ^q 1 ^r red)"));
    let (other, short) = (add("(c ^p 1 ^q 3 ^r red)"), add("(c ^p 1 ^r red)"));
    let mut test = |own: &str, op, token_pos, theirs: &str| JoinTest {
        own_attr: syms.intern(own),
        op,
        token_pos,
        token_attr: syms.intern(theirs),
    };
    // c.p = a.x, c.q > a.x (no part of the key), c.q = b.z, c.r = a.y.
    let tests = [
        test("p", PredOp::Eq, 0, "x"),
        test("q", PredOp::Gt, 0, "x"),
        test("q", PredOp::Eq, 1, "z"),
        test("r", PredOp::Eq, 0, "y"),
    ];
    let key = key_tests(&tests);
    assert_eq!(key, [tests[0], tests[2], tests[3]]);
    assert!(wme_parts(&key)
        .map(|part| part.1)
        .eq(key.iter().map(|t| t.own_attr)));
    let theirs = key.iter().map(|t| (t.token_pos, t.token_attr));
    assert!(token_parts(&key).eq(theirs));

    let resolve = |id| wm.get(id);
    let token = Token::top().extended(a).extended(b);
    let of = |id| right_key(&key, wm.get(id).unwrap());
    let theirs = left_key(&key, &token, resolve);
    assert!(theirs.is_some());
    assert_eq!(of(hit), theirs, "equal tuples, equal keys");
    assert!(eval_join_tests(&tests, &token, wm.get(hit).unwrap(), resolve).0);
    // Parts are folded in test order on both sides: the same values
    // under swapped attributes are another key, and so is one other
    // value.
    assert_ne!(of(swapped), theirs);
    assert_ne!(of(other), theirs);
    // One unreadable part and there is no key at all: the conjunction
    // fails against everything.
    assert_eq!(of(short), None, "^q absent");
    assert_eq!(left_key(&key, &Token::top().extended(a), resolve), None);
    let dangling = Token::top().extended(a).extended(WmeId::from_index(99));
    assert_eq!(left_key(&key, &dangling, resolve), None);
    // The one-part case is the same code, and small values keep all
    // their bits: no two of them share a key.
    let one = &key[..1];
    assert_eq!(
        right_key(one, wm.get(hit).unwrap()),
        left_key(one, &token, resolve)
    );
    let small = (0..4096).map(Value::Int);
    let small = small.chain((0..4096).map(|s| Value::Sym(ops5::SymbolId::from_index(s))));
    let keys: std::collections::HashSet<_> = small.map(|v| fingerprint([Some(v)])).collect();
    assert_eq!(keys.len(), 8192);
    assert_eq!(fingerprint([]), None);
    assert_eq!(fingerprint([Some(Value::Int(1)), None]), None);
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
