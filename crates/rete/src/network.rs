//! The compiled Rete network: beta nodes and the LHS compiler.
//!
//! The network is immutable structure; all mutable match state (alpha and
//! beta memories, negative-node counts) lives in the runtime
//! ([`crate::ReteMatcher`]) or, for the parallel engine, behind per-node
//! locks. This split is what lets one compiled network be shared by many
//! executions — including the paper's parallel one, where *"all
//! processors are capable of processing all node activations"* (§5).

use std::collections::HashMap;

use ops5::{
    ConditionElement, Error, PredOp, Production, ProductionId, Program, SymbolId, TestArg,
    ValueTest, VarId,
};

use crate::alpha::{AlphaId, AlphaNetwork, AlphaTest};
use crate::kernel;

/// Handle to a beta-network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index into [`Network::nodes`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A variable-binding consistency test evaluated at a two-input node:
/// `new_wme.own_attr OP token[token_pos].token_attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinTest {
    /// Attribute of the WME arriving on the right input.
    pub own_attr: SymbolId,
    /// Predicate relating the two values.
    pub op: PredOp,
    /// Position in the left token (index over positive CEs).
    pub token_pos: usize,
    /// Attribute of the token's WME at `token_pos`.
    pub token_attr: SymbolId,
}

/// The kind of a beta node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A memory node storing tokens (left input of downstream joins).
    BetaMemory,
    /// A two-input node joining a left memory with an alpha memory.
    Join,
    /// A negated-condition node: stores tokens with match counts,
    /// passing through tokens whose count is zero.
    Negative,
    /// A terminal (production) node emitting conflict-set changes.
    Terminal,
}

/// Structure of one beta node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// What the node is.
    pub kind: NodeKind,
    /// Right input (Join/Negative only).
    pub alpha: Option<AlphaId>,
    /// Left input: a `BetaMemory` or `Negative` node; `None` means the
    /// dummy top node holding the single empty token.
    pub left: Option<NodeId>,
    /// Variable-binding tests (Join/Negative only).
    pub tests: Vec<JoinTest>,
    /// The equality tests both runtimes index this node's memories by
    /// ([`kernel::key_tests`] of `tests`, chosen once here at compile
    /// time); empty means the node scans linearly.
    pub key: Vec<JoinTest>,
    /// For terminals: the production whose instantiations this node
    /// emits. For two-input nodes: the production that *first* requested
    /// the node — exact ownership when compiled with `share: false`
    /// (used by the per-production cost attribution in `psm-sim`), an
    /// approximation under sharing.
    pub production: Option<ProductionId>,
    /// Downstream nodes activated by this node's outputs.
    pub children: Vec<NodeId>,
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Share structurally identical alpha and beta nodes across
    /// productions (standard Rete). Disabling reproduces the sharing
    /// loss the paper charges against production-level parallelism (§4).
    pub share: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { share: true }
    }
}

/// Aggregate structure statistics, reported by the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Number of alpha (constant-test) nodes after sharing.
    pub alpha_nodes: usize,
    /// Alpha patterns requested before sharing.
    pub alpha_requests: usize,
    /// Beta memory nodes.
    pub beta_memories: usize,
    /// Two-input join nodes.
    pub joins: usize,
    /// Negative nodes.
    pub negatives: usize,
    /// Terminal nodes (= productions).
    pub terminals: usize,
    /// Two-input nodes requested before sharing.
    pub join_requests: usize,
}

impl NetworkStats {
    /// Fraction of two-input node requests satisfied by sharing.
    pub fn join_sharing_ratio(&self) -> f64 {
        if self.join_requests == 0 {
            0.0
        } else {
            1.0 - (self.joins + self.negatives) as f64 / self.join_requests as f64
        }
    }
}

/// A compiled Rete network.
#[derive(Debug, Clone)]
pub struct Network {
    /// The alpha (constant-test) network.
    pub alpha: AlphaNetwork,
    /// Beta nodes, indexed by [`NodeId`].
    pub nodes: Vec<NodeSpec>,
    /// For each alpha node, the Join/Negative nodes it right-activates.
    pub alpha_successors: Vec<Vec<NodeId>>,
    /// Per production: the alpha node of each CE (in full-CE order).
    pub ce_alpha: Vec<Vec<AlphaId>>,
    /// Per production: per CE, the join tests against earlier positive
    /// CEs. Exposed for the TREAT and Oflazer baselines, which reuse the
    /// compiler's test classification but not the beta topology.
    pub ce_tests: Vec<Vec<Vec<JoinTest>>>,
    /// Per production: the two-input (Join/Negative) node compiled for
    /// each CE, in full-CE order. Under sharing a node may appear in
    /// several productions' chains.
    pub prod_nodes: Vec<Vec<NodeId>>,
    /// Per production: its terminal node.
    pub prod_terminal: Vec<NodeId>,
    /// Structure statistics.
    pub stats: NetworkStats,
}

impl Network {
    /// Compiles `program` with default options (sharing on).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] when a predicate references a variable
    /// that has no earlier binding occurrence.
    pub fn compile(program: &Program) -> Result<Network, Error> {
        Network::compile_with(program, CompileOptions::default())
    }

    /// Compiles `program` with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] when a predicate references a variable
    /// that has no earlier binding occurrence.
    pub fn compile_with(program: &Program, options: CompileOptions) -> Result<Network, Error> {
        let mut c = Compiler {
            alpha: AlphaNetwork::new(),
            nodes: Vec::new(),
            alpha_successors: Vec::new(),
            ce_alpha: Vec::new(),
            ce_tests: Vec::new(),
            prod_nodes: Vec::new(),
            prod_terminal: Vec::new(),
            join_dedup: HashMap::new(),
            out_mem: HashMap::new(),
            stats: NetworkStats::default(),
            share: options.share,
        };
        for production in &program.productions {
            c.compile_production(production)?;
        }
        c.stats.alpha_nodes = c.alpha.len();
        Ok(Network {
            alpha: c.alpha,
            nodes: c.nodes,
            alpha_successors: c.alpha_successors,
            ce_alpha: c.ce_alpha,
            ce_tests: c.ce_tests,
            prod_nodes: c.prod_nodes,
            prod_terminal: c.prod_terminal,
            stats: c.stats,
        })
    }

    /// The spec of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// Renders the network in Graphviz DOT format (alpha nodes as boxes,
    /// two-input nodes as ellipses, memories as cylinders, terminals as
    /// double octagons) — the picture in the paper's Figure 2-2.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), ops5::Error> {
    /// let program = ops5::parse_program(
    ///     "(p r (a ^x <v>) (b ^x <v>) --> (remove 1))",
    /// )?;
    /// let net = rete::Network::compile(&program)?;
    /// let dot = net.to_dot(&program.symbols);
    /// assert!(dot.starts_with("digraph rete"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self, symbols: &ops5::SymbolTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph rete {\n  rankdir=TB;\n");
        for (i, a) in self.alpha.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  a{i} [shape=box, label=\"α{} {}\\n{} tests\"];",
                i,
                symbols.name(a.class),
                a.tests.len()
            );
        }
        for (i, succs) in self.alpha_successors.iter().enumerate() {
            for s in succs {
                let _ = writeln!(out, "  a{i} -> n{};", s.index());
            }
        }
        for (i, spec) in self.nodes.iter().enumerate() {
            let (shape, label) = match spec.kind {
                NodeKind::Join => ("ellipse", format!("join\\n{} tests", spec.tests.len())),
                NodeKind::Negative => ("ellipse", format!("NOT\\n{} tests", spec.tests.len())),
                NodeKind::BetaMemory => ("cylinder", "memory".to_string()),
                NodeKind::Terminal => (
                    "doubleoctagon",
                    spec.production
                        .map_or("terminal".to_string(), |p| format!("{p}")),
                ),
            };
            let _ = writeln!(out, "  n{i} [shape={shape}, label=\"{label}\"];");
            for child in &spec.children {
                let _ = writeln!(out, "  n{i} -> n{};", child.index());
            }
        }
        out.push_str("}\n");
        out
    }

    /// Iterates all beta nodes with their ids, in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeSpec)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId(i as u32), s))
    }

    /// Number of downstream nodes activated by `id`'s outputs.
    pub fn fan_out(&self, id: NodeId) -> usize {
        self.nodes[id.index()].children.len()
    }

    /// Number of two-input nodes right-activated by `alpha`.
    pub fn alpha_fan_out(&self, alpha: AlphaId) -> usize {
        self.alpha_successors[alpha.index()].len()
    }

    /// The two-input node compiled for each of `production`'s CEs, in
    /// full-CE order. Under sharing, prefix nodes may be shared with
    /// other productions.
    pub fn production_chain(&self, production: ProductionId) -> &[NodeId] {
        &self.prod_nodes[production.index()]
    }

    /// The terminal node of `production`.
    pub fn terminal(&self, production: ProductionId) -> NodeId {
        self.prod_terminal[production.index()]
    }

    /// Beta-chain depth of `production`: the number of two-input nodes a
    /// token traverses from the dummy top node to the terminal (equal to
    /// the production's CE count).
    pub fn beta_chain_depth(&self, production: ProductionId) -> usize {
        self.prod_nodes[production.index()].len()
    }

    /// For each beta node, the number of productions whose chain (or
    /// terminal) includes it — the sharing degree. `1` everywhere when
    /// compiled with `share: false`; memories are attributed through the
    /// joins feeding them.
    pub fn node_use_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for (p, chain) in self.prod_nodes.iter().enumerate() {
            for id in chain {
                counts[id.index()] += 1;
                // A join's output memory serves exactly the productions
                // that use the join.
                for child in &self.nodes[id.index()].children {
                    if self.nodes[child.index()].kind == NodeKind::BetaMemory {
                        counts[child.index()] += 1;
                    }
                }
            }
            counts[self.prod_terminal[p].index()] += 1;
        }
        counts
    }

    /// Productions affected by a WME matching `alpha` — productions with
    /// at least one subscribed CE (the paper's "affected production"
    /// definition, §4).
    pub fn affected_productions(&self, alphas: &[AlphaId]) -> Vec<ProductionId> {
        let mut out: Vec<ProductionId> = alphas
            .iter()
            .flat_map(|a| self.alpha.node(*a).subscribers.iter().map(|&(p, _)| p))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Result of classifying one condition element's tests.
#[derive(Debug, Default)]
struct ClassifiedCe {
    alpha_tests: Vec<AlphaTest>,
    join_tests: Vec<JoinTest>,
    /// Bare-variable binding occurrences `(var, attr)` introduced by this
    /// CE; merged into the outer map only for positive CEs.
    new_bindings: Vec<(VarId, SymbolId)>,
}

struct Compiler {
    alpha: AlphaNetwork,
    nodes: Vec<NodeSpec>,
    alpha_successors: Vec<Vec<NodeId>>,
    ce_alpha: Vec<Vec<AlphaId>>,
    ce_tests: Vec<Vec<Vec<JoinTest>>>,
    prod_nodes: Vec<Vec<NodeId>>,
    prod_terminal: Vec<NodeId>,
    /// `(kind, left, alpha, tests)` → node, for two-input node sharing.
    join_dedup: HashMap<(NodeKind, Option<NodeId>, AlphaId, Vec<JoinTest>), NodeId>,
    /// Join node → its lazily created output beta memory.
    out_mem: HashMap<NodeId, NodeId>,
    stats: NetworkStats,
    share: bool,
}

impl Compiler {
    fn compile_production(&mut self, production: &Production) -> Result<(), Error> {
        // Variables bound by earlier positive CEs: var → (token position,
        // attribute).
        let mut outer: HashMap<VarId, (usize, SymbolId)> = HashMap::new();
        let mut positive_seen = 0usize;
        let mut cur_left: Option<NodeId> = None;
        let mut prod_alphas = Vec::with_capacity(production.ces.len());
        let mut prod_tests = Vec::with_capacity(production.ces.len());
        let mut prod_chain = Vec::with_capacity(production.ces.len());

        for (ce_index, ce) in production.ces.iter().enumerate() {
            let classified = classify_ce(ce, &outer).map_err(|msg| Error::Semantic {
                production: production.name.clone(),
                message: msg,
            })?;
            if !ce.negated {
                for &(v, attr) in &classified.new_bindings {
                    outer.entry(v).or_insert((positive_seen, attr));
                }
            }

            self.stats.alpha_requests += 1;
            let alpha_id = self.alpha.add_pattern(
                ce.class,
                classified.alpha_tests,
                (production.id, ce_index),
                self.share,
            );
            while self.alpha_successors.len() < self.alpha.len() {
                self.alpha_successors.push(Vec::new());
            }
            prod_alphas.push(alpha_id);
            prod_tests.push(classified.join_tests.clone());

            let kind = if ce.negated {
                NodeKind::Negative
            } else {
                NodeKind::Join
            };
            self.stats.join_requests += 1;
            let two_input = self.get_or_create_two_input(
                kind,
                cur_left,
                alpha_id,
                classified.join_tests,
                production.id,
            );
            prod_chain.push(two_input);

            let is_last = ce_index + 1 == production.ces.len();
            if ce.negated {
                // The negative node doubles as the left memory for the
                // next two-input node.
                cur_left = Some(two_input);
            } else {
                positive_seen += 1;
                if !is_last {
                    cur_left = Some(self.output_memory(two_input));
                }
            }
            if is_last {
                let terminal = self.new_node(NodeSpec {
                    kind: NodeKind::Terminal,
                    alpha: None,
                    left: None,
                    tests: Vec::new(),
                    key: Vec::new(),
                    production: Some(production.id),
                    children: Vec::new(),
                });
                self.stats.terminals += 1;
                self.nodes[two_input.index()].children.push(terminal);
                self.prod_terminal.push(terminal);
            }
        }

        self.ce_alpha.push(prod_alphas);
        self.ce_tests.push(prod_tests);
        self.prod_nodes.push(prod_chain);
        Ok(())
    }

    fn get_or_create_two_input(
        &mut self,
        kind: NodeKind,
        left: Option<NodeId>,
        alpha: AlphaId,
        tests: Vec<JoinTest>,
        owner: ProductionId,
    ) -> NodeId {
        let key = (kind, left, alpha, tests.clone());
        if self.share {
            if let Some(&id) = self.join_dedup.get(&key) {
                return id;
            }
        }
        let id = self.new_node(NodeSpec {
            kind,
            alpha: Some(alpha),
            left,
            key: kernel::key_tests(&tests),
            tests,
            production: Some(owner),
            children: Vec::new(),
        });
        match kind {
            NodeKind::Join => self.stats.joins += 1,
            NodeKind::Negative => self.stats.negatives += 1,
            _ => unreachable!("two-input nodes are joins or negatives"),
        }
        self.join_dedup.insert(key, id);
        self.alpha_successors[alpha.index()].push(id);
        if let Some(left) = left {
            self.nodes[left.index()].children.push(id);
        }
        id
    }

    /// The beta memory fed by `join`, created on first demand.
    fn output_memory(&mut self, join: NodeId) -> NodeId {
        if let Some(&mem) = self.out_mem.get(&join) {
            return mem;
        }
        let owner = self.nodes[join.index()].production;
        let mem = self.new_node(NodeSpec {
            kind: NodeKind::BetaMemory,
            alpha: None,
            left: None,
            tests: Vec::new(),
            key: Vec::new(),
            production: owner,
            children: Vec::new(),
        });
        self.stats.beta_memories += 1;
        self.nodes[join.index()].children.push(mem);
        self.out_mem.insert(join, mem);
        mem
    }

    fn new_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(spec);
        id
    }
}

/// Splits a condition element's tests into alpha-level (single WME) and
/// join-level (against earlier positive CEs) tests. Bare-variable binding
/// occurrences are reported in `new_bindings`; inside negated CEs they
/// stay local (the caller simply does not merge them).
fn classify_ce(
    ce: &ConditionElement,
    outer: &HashMap<VarId, (usize, SymbolId)>,
) -> Result<ClassifiedCe, String> {
    let mut out = ClassifiedCe::default();
    // Local (within-CE) binding sites, including ones local to a negated
    // CE.
    let mut local: HashMap<VarId, SymbolId> = HashMap::new();
    for (attr, test) in &ce.tests {
        classify_test(*attr, test, outer, &mut local, &mut out)?;
    }
    Ok(out)
}

fn classify_test(
    attr: SymbolId,
    test: &ValueTest,
    outer: &HashMap<VarId, (usize, SymbolId)>,
    local: &mut HashMap<VarId, SymbolId>,
    out: &mut ClassifiedCe,
) -> Result<(), String> {
    match test {
        ValueTest::Const(v) => out.alpha_tests.push(AlphaTest::Const {
            attr,
            op: PredOp::Eq,
            value: *v,
        }),
        ValueTest::Disj(values) => out.alpha_tests.push(AlphaTest::Disj {
            attr,
            values: values.clone(),
        }),
        ValueTest::Var(v) => {
            if let Some(&local_attr) = local.get(v) {
                // Second occurrence within this CE: intra-element
                // consistency, testable at the alpha level.
                out.alpha_tests.push(AlphaTest::AttrCmp {
                    attr,
                    op: PredOp::Eq,
                    other: local_attr,
                });
            } else if let Some(&(pos, token_attr)) = outer.get(v) {
                out.join_tests.push(JoinTest {
                    own_attr: attr,
                    op: PredOp::Eq,
                    token_pos: pos,
                    token_attr,
                });
            } else {
                local.insert(*v, attr);
                out.new_bindings.push((*v, attr));
                out.alpha_tests.push(AlphaTest::Present { attr });
            }
        }
        ValueTest::Pred(op, arg) => match arg {
            TestArg::Const(c) => out.alpha_tests.push(AlphaTest::Const {
                attr,
                op: *op,
                value: *c,
            }),
            TestArg::Var(v) => {
                if let Some(&local_attr) = local.get(v) {
                    out.alpha_tests.push(AlphaTest::AttrCmp {
                        attr,
                        op: *op,
                        other: local_attr,
                    });
                } else if let Some(&(pos, token_attr)) = outer.get(v) {
                    out.join_tests.push(JoinTest {
                        own_attr: attr,
                        op: *op,
                        token_pos: pos,
                        token_attr,
                    });
                } else {
                    return Err(format!(
                        "predicate `{op}` references variable {v} before any binding occurrence"
                    ));
                }
            }
        },
        ValueTest::Conj(tests) => {
            for t in tests {
                classify_test(attr, t, outer, local, out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::parse_program;

    fn net(src: &str) -> Network {
        Network::compile(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn paper_figure_2_2_network_shape() {
        let program = parse_program(
            r#"
            (p p1 (c1 ^attr1 <x> ^attr2 12)
                  (c2 ^attr1 15 ^attr2 <x>)
                  (c3 ^attr1 <x>)
                  -->
                  (modify 1 ^attr1 12))
            (p p2 (c2 ^attr1 15 ^attr2 <y>)
                  (c4 ^attr1 <y>)
                  -->
                  (remove 2))
            "#,
        )
        .unwrap();
        let n = Network::compile(&program).unwrap();
        // p1's c2 CE tests `^attr2` against an already-bound variable
        // (a join test), while p2's c2 CE *binds* `<y>` there (a Present
        // alpha test), so the two c2 patterns are distinct alpha nodes —
        // 5 requests, 5 nodes.
        assert_eq!(n.stats.alpha_requests, 5);
        assert_eq!(n.stats.alpha_nodes, 5);
        assert_eq!(n.stats.terminals, 2);
        assert_eq!(n.stats.joins, 5);
        // A WME `(c2 ^attr1 15 ^attr2 v)` matches both c2 alpha nodes,
        // so it affects both productions (the paper's affected-set
        // measure).
        let c2 = program.symbols.lookup("c2").unwrap();
        let attr1 = program.symbols.lookup("attr1").unwrap();
        let attr2 = program.symbols.lookup("attr2").unwrap();
        let wme = ops5::Wme::new(
            c2,
            vec![(attr1, ops5::Value::Int(15)), (attr2, ops5::Value::Int(3))],
        );
        let (alphas, _) = n.alpha.matching(&wme);
        assert_eq!(alphas.len(), 2);
        let affected = n.affected_productions(&alphas);
        assert_eq!(affected, vec![ProductionId(0), ProductionId(1)]);
    }

    #[test]
    fn identical_prefixes_share_joins() {
        let n = net(r#"
            (p a (g ^t x) (h ^u <v>) (i ^w <v>) --> (remove 1))
            (p b (g ^t x) (h ^u <v>) (j ^w <v>) --> (remove 1))
        "#);
        // First two joins of each production are structurally identical.
        assert_eq!(n.stats.join_requests, 6);
        assert_eq!(n.stats.joins, 4, "two joins shared");
        assert!(n.stats.join_sharing_ratio() > 0.0);
    }

    #[test]
    fn no_share_option_duplicates_everything() {
        let program = parse_program(
            r#"
            (p a (g ^t x) (h ^u <v>) --> (remove 1))
            (p b (g ^t x) (h ^u <v>) --> (remove 2))
            "#,
        )
        .unwrap();
        let shared = Network::compile(&program).unwrap();
        let unshared = Network::compile_with(&program, CompileOptions { share: false }).unwrap();
        assert!(unshared.stats.alpha_nodes > shared.stats.alpha_nodes);
        assert!(unshared.stats.joins > shared.stats.joins);
        assert_eq!(unshared.stats.join_sharing_ratio(), 0.0);
    }

    #[test]
    fn join_tests_point_at_binding_sites() {
        let n = net("(p r (a ^x <v> ^y 3) (b ^z > <v>) --> (remove 1))");
        // CE 1 compiles one join test: b.z > token[0].x
        let tests = &n.ce_tests[0][1];
        assert_eq!(tests.len(), 1);
        assert_eq!(tests[0].op, PredOp::Gt);
        assert_eq!(tests[0].token_pos, 0);
    }

    #[test]
    fn intra_ce_variable_becomes_alpha_attr_cmp() {
        let n = net("(p r (a ^x <v> ^y <v>) --> (remove 1))");
        let alpha = n.alpha.node(n.ce_alpha[0][0]);
        assert!(alpha
            .tests
            .iter()
            .any(|t| matches!(t, AlphaTest::AttrCmp { op: PredOp::Eq, .. })));
        // No join tests for a single-CE production.
        assert!(n.ce_tests[0][0].is_empty());
    }

    #[test]
    fn negated_ce_builds_negative_node() {
        let n = net("(p r (g ^s 1) - (b ^c red) --> (remove 1))");
        assert_eq!(n.stats.negatives, 1);
        assert_eq!(n.stats.joins, 1);
        // Terminal hangs off the negative node (last CE).
        let neg = n
            .nodes
            .iter()
            .position(|s| s.kind == NodeKind::Negative)
            .unwrap();
        let term_child = n.nodes[neg]
            .children
            .iter()
            .any(|c| n.node(*c).kind == NodeKind::Terminal);
        assert!(term_child);
    }

    #[test]
    fn negated_ce_local_variables_stay_local() {
        // <z> inside the negated CE must not leak into the later positive
        // CE, which binds its own <z>.
        let n = net("(p r (g ^s 1) - (b ^c <z> ^d <z>) (h ^e <z>) --> (remove 1))");
        // The h-CE has no join tests against the negated CE.
        assert!(n.ce_tests[0][2].is_empty());
        // The negated CE carries an intra-CE AttrCmp.
        let neg_alpha = n.alpha.node(n.ce_alpha[0][1]);
        assert!(neg_alpha
            .tests
            .iter()
            .any(|t| matches!(t, AlphaTest::AttrCmp { .. })));
    }

    #[test]
    fn predicate_before_binding_is_rejected() {
        let program = parse_program("(p r (a ^x > <v>) --> (halt))").unwrap();
        let err = Network::compile(&program).unwrap_err();
        assert!(err.to_string().contains("before any binding"));
    }

    #[test]
    fn negative_node_feeds_following_join() {
        let n = net("(p r (g ^s <v>) - (b ^c <v>) (h ^e <v>) --> (remove 1))");
        let neg = NodeId(
            n.nodes
                .iter()
                .position(|s| s.kind == NodeKind::Negative)
                .unwrap() as u32,
        );
        // Some join uses the negative node as its left input.
        assert!(n
            .nodes
            .iter()
            .any(|s| s.kind == NodeKind::Join && s.left == Some(neg)));
    }

    #[test]
    fn production_chain_and_terminal_introspection() {
        let n = net(r#"
            (p a (g ^t x) (h ^u <v>) (i ^w <v>) --> (remove 1))
            (p b (g ^t x) (h ^u <v>) (j ^w <v>) --> (remove 1))
        "#);
        let a = ProductionId(0);
        let b = ProductionId(1);
        assert_eq!(n.beta_chain_depth(a), 3);
        assert_eq!(n.beta_chain_depth(b), 3);
        // Shared two-CE prefix: same first two chain nodes.
        assert_eq!(n.production_chain(a)[..2], n.production_chain(b)[..2]);
        assert_ne!(n.production_chain(a)[2], n.production_chain(b)[2]);
        // Terminals are distinct and of the right kind.
        assert_ne!(n.terminal(a), n.terminal(b));
        assert_eq!(n.node(n.terminal(a)).kind, NodeKind::Terminal);
        assert_eq!(
            n.node(n.terminal(a)).production,
            Some(a),
            "terminal carries its production"
        );
        // Shared prefix nodes are used by both productions.
        let counts = n.node_use_counts();
        assert_eq!(counts[n.production_chain(a)[0].index()], 2);
        assert_eq!(counts[n.production_chain(a)[2].index()], 1);
        // iter covers every node exactly once.
        assert_eq!(n.iter().count(), n.nodes.len());
        // The last join of each production fans out to its terminal only.
        assert_eq!(n.fan_out(n.production_chain(a)[2]), 1);
        // Each alpha feeding the shared prefix right-activates one node.
        assert!(n.alpha_fan_out(n.ce_alpha[0][0]) >= 1);
    }

    #[test]
    fn unshared_chains_are_disjoint() {
        let program = parse_program(
            r#"
            (p a (g ^t x) (h ^u <v>) --> (remove 1))
            (p b (g ^t x) (h ^u <v>) --> (remove 1))
            "#,
        )
        .unwrap();
        let n = Network::compile_with(&program, CompileOptions { share: false }).unwrap();
        let counts = n.node_use_counts();
        assert!(counts.iter().all(|&c| c == 1), "no sharing: {counts:?}");
        let a: std::collections::HashSet<_> = n.production_chain(ProductionId(0)).iter().collect();
        assert!(n
            .production_chain(ProductionId(1))
            .iter()
            .all(|x| !a.contains(x)));
    }

    #[test]
    fn conjunction_splits_into_alpha_and_join_tests() {
        let n = net("(p r (a ^x <v>) (b ^y { > 0 <v> }) --> (remove 1))");
        let alpha = n.alpha.node(n.ce_alpha[0][1]);
        assert!(alpha
            .tests
            .iter()
            .any(|t| matches!(t, AlphaTest::Const { op: PredOp::Gt, .. })));
        assert_eq!(n.ce_tests[0][1].len(), 1, "the <v> equality is a join test");
    }
}
