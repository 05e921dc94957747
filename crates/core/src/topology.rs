//! Flattened network topology for the parallel engine.
//!
//! The sequential runtime routes tokens through explicit beta-memory
//! nodes, each update of one a task of its own. The parallel engine
//! sends a two-input node's tokens straight to the nodes the memory
//! feeds, and files them into the memory itself between phases: this
//! module flattens the memories out of the token routing graph, and says
//! for each node which memory its right activations scan and which one a
//! join's tokens are filed into. The memories are the sequential
//! matcher's, addressed by their nodes.

use ops5::ProductionId;
use rete::network::NodeKind;
use rete::{Network, NodeId};

/// The token memory a right activation of a node scans, as the phase
/// found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeftInput {
    /// None: the node is a beta memory or a terminal.
    None,
    /// The dummy top token alone: a join compiled from a production's
    /// first condition element.
    Top,
    /// This beta-memory node's memory: a join under it.
    Beta(NodeId),
    /// This negative node's memory: the node's own, or that of the
    /// negative node a join is under, whose unblocked tokens the join
    /// reads.
    Negative(NodeId),
}

/// Token routing for the parallel engine: for each two-input node, the
/// downstream nodes that receive its output tokens directly, the token
/// memory it reads and the beta memory its tokens are filed into.
#[derive(Debug, Clone)]
pub struct ParallelTopology {
    /// Per beta node: the two-input and terminal nodes fed by its output
    /// tokens (beta memories flattened away). Indexed by [`NodeId`].
    pub token_children: Vec<Vec<NodeId>>,
    /// Per node: what its right activations scan.
    pub left: Vec<LeftInput>,
    /// Per node: for a join with an output memory, that beta-memory
    /// node — where its tokens are filed.
    pub output_memory: Vec<Option<NodeId>>,
    /// Whether each node participates in parallel execution (two-input
    /// nodes and terminals; memories are `false`).
    pub active: Vec<bool>,
    /// Terminal node → production, for quick emission.
    pub terminal_production: Vec<Option<ProductionId>>,
}

impl ParallelTopology {
    /// Number of nodes that participate in parallel execution (the
    /// two-input and terminal nodes) — the node-level parallelism the
    /// §4 analysis counts.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Derives the flattened topology from a compiled network.
    pub fn from_network(network: &Network) -> Self {
        let n = network.nodes.len();
        let mut token_children = vec![Vec::new(); n];
        let mut active = vec![false; n];
        let mut terminal_production = vec![None; n];
        let mut output_memory = vec![None; n];

        for (idx, spec) in network.nodes.iter().enumerate() {
            match spec.kind {
                NodeKind::Join | NodeKind::Negative => {
                    active[idx] = true;
                    let mut out = Vec::new();
                    for &child in &spec.children {
                        match network.node(child).kind {
                            NodeKind::BetaMemory => {
                                // Skip the memory, route to its children.
                                output_memory[idx] = Some(child);
                                out.extend(network.node(child).children.iter().copied());
                            }
                            _ => out.push(child),
                        }
                    }
                    token_children[idx] = out;
                }
                NodeKind::Terminal => {
                    active[idx] = true;
                    terminal_production[idx] = spec.production;
                }
                NodeKind::BetaMemory => {}
            }
        }
        let left = (network.iter())
            .map(|(node, spec)| match (spec.kind, spec.left) {
                (NodeKind::Negative, _) => LeftInput::Negative(node),
                (NodeKind::Join, None) => LeftInput::Top,
                (NodeKind::Join, Some(left)) if network.node(left).kind == NodeKind::Negative => {
                    LeftInput::Negative(left)
                }
                (NodeKind::Join, Some(left)) => LeftInput::Beta(left),
                (NodeKind::BetaMemory | NodeKind::Terminal, _) => LeftInput::None,
            })
            .collect();
        ParallelTopology {
            token_children,
            left,
            output_memory,
            active,
            terminal_production,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::parse_program;

    #[test]
    fn beta_memories_are_flattened_out() {
        let program =
            parse_program("(p r (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (remove 1))").unwrap();
        let net = Network::compile(&program).unwrap();
        let topo = ParallelTopology::from_network(&net);
        for (idx, spec) in net.nodes.iter().enumerate() {
            for &child in &topo.token_children[idx] {
                assert_ne!(
                    net.node(child).kind,
                    NodeKind::BetaMemory,
                    "memories must not appear in token routing"
                );
            }
            if spec.kind == NodeKind::BetaMemory {
                assert!(!topo.active[idx]);
                assert!(topo.token_children[idx].is_empty());
            }
        }
        // The first join routes (through the flattened memory) to the
        // second join.
        let joins: Vec<usize> = net
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == NodeKind::Join)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(joins.len(), 3);
        assert!(topo.token_children[joins[0]]
            .iter()
            .any(|c| c.index() == joins[1]));
    }

    #[test]
    fn active_count_excludes_memories() {
        let program =
            parse_program("(p r (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (remove 1))").unwrap();
        let net = Network::compile(&program).unwrap();
        let topo = ParallelTopology::from_network(&net);
        let memories = net
            .nodes
            .iter()
            .filter(|s| s.kind == NodeKind::BetaMemory)
            .count();
        assert_eq!(topo.active_count(), net.nodes.len() - memories);
        assert_eq!(topo.active_count(), 4, "3 joins + 1 terminal");
    }

    #[test]
    fn terminals_are_mapped() {
        let program = parse_program("(p only (a ^x 1) --> (halt))").unwrap();
        let net = Network::compile(&program).unwrap();
        let topo = ParallelTopology::from_network(&net);
        let term = net
            .nodes
            .iter()
            .position(|s| s.kind == NodeKind::Terminal)
            .unwrap();
        assert_eq!(topo.terminal_production[term], Some(ops5::ProductionId(0)));
        assert!(topo.active[term]);
    }

    #[test]
    fn shared_memory_fanout_expands() {
        // Two productions share the first join; its output memory feeds
        // two downstream joins, so the flattened join has two token
        // children (plus none via terminal).
        let program = parse_program(
            r#"
            (p a (g ^t x) (h ^u <v>) (i ^w <v>) --> (remove 1))
            (p b (g ^t x) (h ^u <v>) (j ^w <v>) --> (remove 1))
            "#,
        )
        .unwrap();
        let net = Network::compile(&program).unwrap();
        let topo = ParallelTopology::from_network(&net);
        let max_fanout = topo.token_children.iter().map(Vec::len).max().unwrap_or(0);
        assert!(max_fanout >= 2, "shared prefix fans out to both branches");
    }

    /// Every join that feeds a memory files its tokens into it, whether
    /// joins or only negative nodes read it, and the joins below read
    /// it; a negative node reads its own memory, and so do the joins
    /// below it.
    #[test]
    fn each_join_files_into_its_own_memory() {
        let program = parse_program(
            r#"
            (p two (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))
            (p guarded (g ^x <v>) - (n ^x <v>) (c ^x <v>) --> (halt))
            "#,
        )
        .unwrap();
        let net = Network::compile(&program).unwrap();
        let topo = ParallelTopology::from_network(&net);
        let of_kind = |kind| -> Vec<NodeId> {
            let nodes = net.iter().filter(|(_, s)| s.kind == kind);
            nodes.map(|(node, _)| node).collect()
        };
        let memories = of_kind(NodeKind::BetaMemory);
        assert_eq!(memories.len(), 3, "after a, a-b and g");
        for &memory in &memories {
            let [parent] = of_kind(NodeKind::Join)
                .into_iter()
                .filter(|j| net.node(*j).children.contains(&memory))
                .collect::<Vec<_>>()[..]
            else {
                panic!("one join above each memory")
            };
            assert_eq!(topo.output_memory[parent.index()], Some(memory));
            for child in &net.node(memory).children {
                let left = topo.left[child.index()];
                match net.node(*child).kind {
                    NodeKind::Join => assert_eq!(left, LeftInput::Beta(memory)),
                    _ => assert_eq!(left, LeftInput::Negative(*child)),
                }
            }
        }
        let filed = topo.output_memory.iter().flatten().count();
        assert_eq!(filed, 3);
        let [negative] = of_kind(NodeKind::Negative)[..] else {
            panic!("one negative node")
        };
        for child in &net.node(negative).children {
            assert_eq!(topo.left[child.index()], LeftInput::Negative(negative));
        }
        let tops = topo.left.iter().filter(|&&left| left == LeftInput::Top);
        assert_eq!(tops.count(), 2, "the a and g joins");
    }
}
