//! Flattened network topology for the parallel engine.
//!
//! The sequential runtime routes tokens through explicit beta-memory
//! nodes, each update of one a task of its own. The parallel engine
//! sends a two-input node's tokens straight to the nodes the memory
//! feeds, and files them into the memory itself between phases: this
//! module flattens the memories out of the token routing graph and
//! numbers the ones the engine keeps — those some join reads as its left
//! input. A memory whose children are all negative nodes is not kept:
//! each of them holds the tokens beside their match counts anyway.

use ops5::ProductionId;
use rete::network::NodeKind;
use rete::{Network, NodeId};

/// Token routing for the parallel engine: for each two-input node, the
/// downstream nodes that receive its output tokens directly, and the
/// beta memories its tokens are read from and filed into.
#[derive(Debug, Clone)]
pub struct ParallelTopology {
    /// Per beta node: the two-input and terminal nodes fed by its output
    /// tokens (beta memories flattened away). Indexed by [`NodeId`].
    pub token_children: Vec<Vec<NodeId>>,
    /// The beta-memory nodes the engine keeps a memory for, in node
    /// order: those some join reads as its left input.
    pub memories: Vec<NodeId>,
    /// Per node: for a join whose left input is a beta memory, that
    /// memory's position in [`memories`](Self::memories).
    pub left_memory: Vec<Option<u32>>,
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
    /// two-input and terminal nodes) — the upper bound on per-node
    /// lock contention and the node-level parallelism the §4 analysis
    /// counts.
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

        for (idx, spec) in network.nodes.iter().enumerate() {
            match spec.kind {
                NodeKind::Join | NodeKind::Negative => {
                    active[idx] = true;
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
        let joins = network.nodes.iter().map(|spec| spec.kind == NodeKind::Join);
        let left_memory = (network.nodes.iter().zip(joins.clone()))
            .map(|(spec, join)| position[spec.left.filter(|_| join)?.index()])
            .collect();
        let output_memory = (network.nodes.iter().zip(joins))
            .map(|(spec, join)| {
                let mut children = spec.children.iter().filter(|_| join);
                children.find_map(|child| position[child.index()])
            })
            .collect();
        ParallelTopology {
            token_children,
            memories,
            left_memory,
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
    /// memory only negative nodes read is not kept.
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
            let at = Some(at as u32);
            let spec = net.node(memory);
            let [parent] = of_kind(NodeKind::Join)
                .into_iter()
                .filter(|&j| net.nodes[j].children.contains(&memory))
                .collect::<Vec<_>>()[..]
            else {
                panic!("one join above each memory")
            };
            assert_eq!(topo.output_memory[parent], at);
            for child in &spec.children {
                assert_eq!(topo.left_memory[child.index()], at);
            }
        }
        let filed = topo.output_memory.iter().flatten().count();
        let read = topo.left_memory.iter().flatten().count();
        assert_eq!((filed, read), (2, 2));
        for negative in of_kind(NodeKind::Negative) {
            assert_eq!(topo.left_memory[negative], None);
        }
    }
}
