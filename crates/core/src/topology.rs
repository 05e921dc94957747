//! Flattened network topology for the parallel engine.
//!
//! The sequential runtime routes tokens through explicit beta-memory
//! nodes. The parallel engine gives every two-input node a *private*
//! left memory (so one lock covers a left activation's whole
//! insert-and-scan critical section) and reads its right input from the
//! alpha memory it shares with the sequential matcher's layout, which
//! makes shared beta memories redundant: this module flattens them out
//! of the token routing graph.

use ops5::ProductionId;
use rete::{Network, NodeId};

/// Token routing for the parallel engine: for each two-input node, the
/// downstream nodes that receive its output tokens directly.
#[derive(Debug, Clone)]
pub struct ParallelTopology {
    /// Per beta node: the two-input and terminal nodes fed by its output
    /// tokens (beta memories flattened away). Indexed by [`NodeId`].
    pub token_children: Vec<Vec<NodeId>>,
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

        for (idx, spec) in network.nodes.iter().enumerate() {
            match spec.kind {
                rete::network::NodeKind::Join | rete::network::NodeKind::Negative => {
                    active[idx] = true;
                    let mut out = Vec::new();
                    for &child in &spec.children {
                        match network.node(child).kind {
                            rete::network::NodeKind::BetaMemory => {
                                // Skip the memory, route to its children.
                                out.extend(network.node(child).children.iter().copied());
                            }
                            _ => out.push(child),
                        }
                    }
                    token_children[idx] = out;
                }
                rete::network::NodeKind::Terminal => {
                    active[idx] = true;
                    terminal_production[idx] = spec.production;
                }
                rete::network::NodeKind::BetaMemory => {}
            }
        }
        ParallelTopology {
            token_children,
            active,
            terminal_production,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::parse_program;
    use rete::network::NodeKind;

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
}
