//! Flattened network topology for the parallel engine.
//!
//! The sequential runtime routes tokens through explicit beta-memory
//! nodes, each update of one a task of its own. The parallel engine
//! sends a two-input node's tokens straight to the nodes the memory
//! feeds, and files them into the memory itself between phases: this
//! module flattens the memories out of the token routing graph, numbers
//! the beta memories the engine keeps — those some join reads as its
//! left input; a memory whose children are all negative nodes is not
//! kept, each of them holding the tokens beside their match counts
//! anyway — and the negative nodes' memories, and says for each node
//! which of them its right activations scan.

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
    /// The beta memory at this position of
    /// [`memories`](ParallelTopology::memories): a join under it.
    Beta(u32),
    /// The memory of the negative node at this position of
    /// [`negatives`](ParallelTopology::negatives): that node's own, or
    /// that of the negative node a join is under, whose unblocked
    /// tokens the join reads.
    Negative(u32),
}

/// Token routing for the parallel engine: for each two-input node, the
/// downstream nodes that receive its output tokens directly, the token
/// memory it reads and the beta memory its tokens are filed into.
#[derive(Debug, Clone)]
pub struct ParallelTopology {
    /// Per beta node: the two-input and terminal nodes fed by its output
    /// tokens (beta memories flattened away). Indexed by [`NodeId`].
    pub token_children: Vec<Vec<NodeId>>,
    /// The beta-memory nodes the engine keeps a memory for, in node
    /// order: those some join reads as its left input.
    pub memories: Vec<NodeId>,
    /// The negative nodes, in node order: each keeps a memory.
    pub negatives: Vec<NodeId>,
    /// Per node: what its right activations scan.
    pub left: Vec<LeftInput>,
    /// Per node: for a join whose output memory is kept, that memory's
    /// position in [`memories`](Self::memories) — where its tokens are
    /// filed.
    pub output_memory: Vec<Option<u32>>,
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
        let mut position = vec![None; n];
        let mut memories = Vec::new();
        let mut negatives = Vec::new();

        for (idx, spec) in network.nodes.iter().enumerate() {
            match spec.kind {
                NodeKind::Join | NodeKind::Negative => {
                    active[idx] = true;
                    if spec.kind == NodeKind::Negative {
                        position[idx] = Some(negatives.len() as u32);
                        negatives.push(NodeId(idx as u32));
                    }
                    let mut out = Vec::new();
                    for &child in &spec.children {
                        match network.node(child).kind {
                            NodeKind::BetaMemory => {
                                // Skip the memory, route to its children.
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
                NodeKind::BetaMemory => {
                    let read = |child: &NodeId| network.node(*child).kind == NodeKind::Join;
                    if spec.children.iter().any(read) {
                        position[idx] = Some(memories.len() as u32);
                        memories.push(NodeId(idx as u32));
                    }
                }
            }
        }
        let at = |node: NodeId| position[node.index()].expect("a memory the engine keeps");
        let left = (network.nodes.iter().enumerate())
            .map(|(idx, spec)| match (spec.kind, spec.left) {
                (NodeKind::Negative, _) => LeftInput::Negative(at(NodeId(idx as u32))),
                (NodeKind::Join, None) => LeftInput::Top,
                (NodeKind::Join, Some(left)) if network.node(left).kind == NodeKind::Negative => {
                    LeftInput::Negative(at(left))
                }
                (NodeKind::Join, Some(left)) => LeftInput::Beta(at(left)),
                (NodeKind::BetaMemory | NodeKind::Terminal, _) => LeftInput::None,
            })
            .collect();
        let output_memory = (network.nodes.iter())
            .map(|spec| {
                let join = spec.kind == NodeKind::Join;
                let mut children = spec.children.iter().filter(|_| join);
                children.find_map(|child| position[child.index()])
            })
            .collect();
        ParallelTopology {
            token_children,
            memories,
            negatives,
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

    /// A memory is kept when a join reads it, and then it is the output
    /// of the join above and the left input of every join below; a
    /// memory only negative nodes read is not kept. Every negative node
    /// keeps a memory, which the joins below it read.
    #[test]
    fn memories_read_by_a_join_are_kept() {
        let program = parse_program(
            r#"
            (p two (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))
            (p guarded (g ^x <v>) - (n ^x <v>) (c ^x <v>) --> (halt))
            "#,
        )
        .unwrap();
        let net = Network::compile(&program).unwrap();
        let topo = ParallelTopology::from_network(&net);
        let of_kind = |kind| -> Vec<usize> {
            let nodes = net.nodes.iter().enumerate();
            nodes
                .filter(|(_, s)| s.kind == kind)
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(of_kind(NodeKind::BetaMemory).len(), 3, "after a, a-b and g");
        assert_eq!(
            topo.memories.len(),
            2,
            "the one under g feeds a negation only"
        );
        for (at, &memory) in topo.memories.iter().enumerate() {
            let at = at as u32;
            let spec = net.node(memory);
            let [parent] = of_kind(NodeKind::Join)
                .into_iter()
                .filter(|&j| net.nodes[j].children.contains(&memory))
                .collect::<Vec<_>>()[..]
            else {
                panic!("one join above each memory")
            };
            assert_eq!(topo.output_memory[parent], Some(at));
            for child in &spec.children {
                assert_eq!(topo.left[child.index()], LeftInput::Beta(at));
            }
        }
        let filed = topo.output_memory.iter().flatten().count();
        assert_eq!(filed, 2);
        let [negative] = of_kind(NodeKind::Negative)[..] else {
            panic!("one negative node")
        };
        assert_eq!(topo.negatives, [NodeId(negative as u32)]);
        assert_eq!(topo.left[negative], LeftInput::Negative(0));
        for child in &net.nodes[negative].children {
            assert_eq!(topo.left[child.index()], LeftInput::Negative(0));
        }
        let tops = topo.left.iter().filter(|&&left| left == LeftInput::Top);
        assert_eq!(tops.count(), 2, "the a and g joins");
    }
}
