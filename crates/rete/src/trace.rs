//! Node-activation trace capture.
//!
//! The paper's performance results (Section 6) come from a simulator
//! whose input is *"a detailed trace of node activations from an actual
//! run of a production system (the trace contains information about the
//! dependencies between node activations)"*. This module is that trace:
//! while the matcher runs, every node activation is recorded with its
//! spawning parent and the work it performed (tests evaluated, opposite
//! memory entries scanned, tokens emitted). The `psm-sim` crate replays
//! these traces on machine models.

use ops5::ProductionId;

use crate::kernel::ActivationKind;

/// One node activation: the unit of work the parallel implementation
/// schedules (average duration "only 50–100 machine instructions", §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationRecord {
    /// Id within the enclosing [`ChangeTrace`] (dense, starting at 0).
    pub id: u32,
    /// The activation that spawned this one (dependency edge), if any.
    pub parent: Option<u32>,
    /// Node kind.
    pub kind: ActivationKind,
    /// Node identity (alpha id or beta node id, namespaced by kind).
    pub node: u32,
    /// Primitive tests evaluated (constant tests or join tests).
    pub tests: u32,
    /// Entries of the opposite memory scanned (join/negative nodes).
    pub scanned: u32,
    /// Tokens or conflict-set changes emitted.
    pub outputs: u32,
}

/// The activations caused by one working-memory change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeTrace {
    /// Whether the change was an insert (`true`) or delete.
    pub is_add: bool,
    /// Activation DAG in spawn order (parents precede children).
    pub activations: Vec<ActivationRecord>,
    /// Productions affected by this change (paper §4: a production is
    /// affected when the WME matches at least one of its CEs).
    pub affected_productions: Vec<ProductionId>,
}

impl ChangeTrace {
    /// Total primitive work units in this change.
    pub fn total_tests(&self) -> u64 {
        self.activations.iter().map(|a| a.tests as u64).sum()
    }
}

/// The change batch of one production firing (processed in parallel by
/// the paper's implementation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleTrace {
    /// Changes in this batch.
    pub changes: Vec<ChangeTrace>,
}

/// A full run trace: one [`CycleTrace`] per `process` batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Cycles in execution order.
    pub cycles: Vec<CycleTrace>,
}

impl Trace {
    /// Total working-memory changes in the trace.
    pub fn total_changes(&self) -> usize {
        self.cycles.iter().map(|c| c.changes.len()).sum()
    }

    /// Total node activations in the trace.
    pub fn total_activations(&self) -> usize {
        self.cycles
            .iter()
            .flat_map(|c| &c.changes)
            .map(|ch| ch.activations.len())
            .sum()
    }

    /// Mean number of affected productions per change (the paper's ~30).
    pub fn mean_affected_productions(&self) -> f64 {
        let changes: Vec<&ChangeTrace> = self.cycles.iter().flat_map(|c| &c.changes).collect();
        if changes.is_empty() {
            return 0.0;
        }
        let total: usize = changes.iter().map(|c| c.affected_productions.len()).sum();
        total as f64 / changes.len() as f64
    }

    /// Mean changes per cycle.
    pub fn mean_changes_per_cycle(&self) -> f64 {
        if self.cycles.is_empty() {
            return 0.0;
        }
        self.total_changes() as f64 / self.cycles.len() as f64
    }
}

impl Trace {
    /// Serializes the trace to a line-oriented text format, so captured
    /// runs can be archived and replayed through the simulator without
    /// regenerating the workload.
    ///
    /// Format: `C` opens a cycle; `c <+|-> p1,p2,…` opens a change with
    /// its affected productions; `a <parent|-> <kind> <node> <tests>
    /// <scanned> <outputs>` records an activation.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for cycle in &self.cycles {
            out.push_str("C\n");
            for change in &cycle.changes {
                let affected: Vec<String> = change
                    .affected_productions
                    .iter()
                    .map(|p| p.0.to_string())
                    .collect();
                let _ = writeln!(
                    out,
                    "c {} {}",
                    if change.is_add { '+' } else { '-' },
                    affected.join(",")
                );
                for a in &change.activations {
                    let parent = a.parent.map_or("-".to_string(), |p| p.to_string());
                    let _ = writeln!(
                        out,
                        "a {parent} {} {} {} {} {}",
                        a.kind.label(),
                        a.node,
                        a.tests,
                        a.scanned,
                        a.outputs
                    );
                }
            }
        }
        out
    }

    /// Parses a trace previously produced by [`Trace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let mut trace = Trace::default();
        for (lineno, line) in text.lines().enumerate() {
            let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
            let mut parts = line.split_whitespace();
            match parts.next() {
                None => continue,
                Some("C") => trace.cycles.push(CycleTrace::default()),
                Some("c") => {
                    let cycle = trace
                        .cycles
                        .last_mut()
                        .ok_or_else(|| err("change before cycle"))?;
                    let is_add = match parts.next() {
                        Some("+") => true,
                        Some("-") => false,
                        _ => return Err(err("expected + or -")),
                    };
                    let affected = match parts.next() {
                        None => Vec::new(),
                        Some(list) => list
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(|s| {
                                s.parse::<u32>()
                                    .map(ProductionId)
                                    .map_err(|_| err("bad production id"))
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    };
                    cycle.changes.push(ChangeTrace {
                        is_add,
                        activations: Vec::new(),
                        affected_productions: affected,
                    });
                }
                Some("a") => {
                    let change = trace
                        .cycles
                        .last_mut()
                        .and_then(|c| c.changes.last_mut())
                        .ok_or_else(|| err("activation before change"))?;
                    let parent = match parts.next().ok_or_else(|| err("missing parent"))? {
                        "-" => None,
                        s => Some(s.parse::<u32>().map_err(|_| err("bad parent"))?),
                    };
                    let label = parts.next().ok_or_else(|| err("missing kind"))?;
                    let kind = ActivationKind::from_label(label)
                        .ok_or_else(|| err(&format!("unknown kind `{label}`")))?;
                    let mut num = || -> Result<u32, String> {
                        parts
                            .next()
                            .ok_or_else(|| err("missing field"))?
                            .parse()
                            .map_err(|_| err("bad number"))
                    };
                    let node = num()?;
                    let tests = num()?;
                    let scanned = num()?;
                    let outputs = num()?;
                    let id = change.activations.len() as u32;
                    if let Some(p) = parent {
                        if p >= id {
                            return Err(err("parent must precede child"));
                        }
                    }
                    change.activations.push(ActivationRecord {
                        id,
                        parent,
                        kind,
                        node,
                        tests,
                        scanned,
                        outputs,
                    });
                }
                Some(other) => return Err(err(&format!("unknown record `{other}`"))),
            }
        }
        Ok(trace)
    }
}

/// Incremental trace construction driven by the matcher runtime.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
    current_cycle: Option<CycleTrace>,
    current_change: Option<ChangeTrace>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new cycle (one `process` batch).
    pub fn begin_cycle(&mut self) {
        self.flush_cycle();
        self.current_cycle = Some(CycleTrace::default());
    }

    /// Opens a new change within the current cycle (opens a cycle if the
    /// runtime was driven change-by-change).
    pub fn begin_change(&mut self, is_add: bool) {
        if self.current_cycle.is_none() {
            self.current_cycle = Some(CycleTrace::default());
        }
        self.flush_change();
        self.current_change = Some(ChangeTrace {
            is_add,
            ..ChangeTrace::default()
        });
    }

    /// Records an activation, assigning and returning its id.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        kind: ActivationKind,
        node: u32,
        tests: u32,
        scanned: u32,
        outputs: u32,
    ) -> u32 {
        let change = self.current_change.get_or_insert_with(ChangeTrace::default);
        let id = change.activations.len() as u32;
        change.activations.push(ActivationRecord {
            id,
            parent,
            kind,
            node,
            tests,
            scanned,
            outputs,
        });
        id
    }

    /// Sets the affected productions of the current change.
    pub fn set_affected(&mut self, affected: Vec<ProductionId>) {
        if let Some(c) = self.current_change.as_mut() {
            c.affected_productions = affected;
        }
    }

    /// Closes the current cycle.
    pub fn end_cycle(&mut self) {
        self.flush_cycle();
    }

    /// Finishes and returns the trace.
    pub fn finish(mut self) -> Trace {
        self.flush_cycle();
        self.trace
    }

    fn flush_change(&mut self) {
        if let Some(change) = self.current_change.take() {
            self.current_cycle
                .get_or_insert_with(CycleTrace::default)
                .changes
                .push(change);
        }
    }

    fn flush_cycle(&mut self) {
        self.flush_change();
        if let Some(cycle) = self.current_cycle.take() {
            if !cycle.changes.is_empty() {
                self.trace.cycles.push(cycle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_groups_changes_into_cycles() {
        let mut b = TraceBuilder::new();
        b.begin_cycle();
        b.begin_change(true);
        let root = b.record(None, ActivationKind::ConstantTest, 0, 3, 0, 1);
        let a = b.record(Some(root), ActivationKind::AlphaMem, 0, 0, 0, 1);
        b.record(Some(a), ActivationKind::JoinRight, 1, 2, 4, 1);
        b.set_affected(vec![ProductionId(0), ProductionId(3)]);
        b.begin_change(false);
        b.record(None, ActivationKind::ConstantTest, 0, 1, 0, 0);
        b.end_cycle();
        b.begin_cycle();
        b.begin_change(true);
        b.record(None, ActivationKind::ConstantTest, 0, 1, 0, 0);
        let t = b.finish();

        assert_eq!(t.cycles.len(), 2);
        assert_eq!(t.total_changes(), 3);
        assert_eq!(t.total_activations(), 5);
        assert_eq!(t.cycles[0].changes[0].affected_productions.len(), 2);
        assert!(t.cycles[0].changes[0].is_add);
        assert!(!t.cycles[0].changes[1].is_add);
        assert!((t.mean_changes_per_cycle() - 1.5).abs() < 1e-9);
        assert!((t.mean_affected_productions() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn parent_edges_are_preserved() {
        let mut b = TraceBuilder::new();
        b.begin_change(true);
        let r = b.record(None, ActivationKind::ConstantTest, 0, 1, 0, 1);
        let c = b.record(Some(r), ActivationKind::JoinRight, 2, 1, 1, 1);
        let t = b.finish();
        let acts = &t.cycles[0].changes[0].activations;
        assert_eq!(acts[c as usize].parent, Some(r));
        assert_eq!(acts[r as usize].parent, None);
        assert_eq!(acts[0].kind.label(), "const");
    }

    #[test]
    fn empty_cycles_are_dropped() {
        let mut b = TraceBuilder::new();
        b.begin_cycle();
        b.end_cycle();
        let t = b.finish();
        assert!(t.cycles.is_empty());
        assert_eq!(t.mean_changes_per_cycle(), 0.0);
        assert_eq!(t.mean_affected_productions(), 0.0);
    }

    #[test]
    fn text_round_trip() {
        let mut b = TraceBuilder::new();
        b.begin_cycle();
        b.begin_change(true);
        let r = b.record(None, ActivationKind::ConstantTest, 0, 3, 0, 1);
        let a = b.record(Some(r), ActivationKind::AlphaMem, 2, 0, 0, 1);
        b.record(Some(a), ActivationKind::JoinRight, 5, 2, 7, 1);
        b.set_affected(vec![ProductionId(1), ProductionId(4)]);
        b.begin_change(false);
        b.record(None, ActivationKind::ConstantTest, 0, 1, 0, 0);
        b.end_cycle();
        b.begin_cycle();
        b.begin_change(true);
        let r = b.record(None, ActivationKind::ConstantTest, 0, 1, 0, 1);
        b.record(Some(r), ActivationKind::NegativeLeft, 9, 4, 2, 1);
        b.record(Some(r), ActivationKind::Terminal, 10, 0, 0, 1);
        let original = b.finish();

        let text = original.to_text();
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(parsed, original);
        // Idempotent.
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(Trace::from_text("c + 1").is_err(), "change before cycle");
        assert!(
            Trace::from_text("C\na - const 0 0 0 0").is_err(),
            "act before change"
        );
        assert!(
            Trace::from_text("C\nc + \na 5 const 0 0 0 0").is_err(),
            "forward parent"
        );
        assert!(
            Trace::from_text("C\nc + \na - wat 0 0 0 0").is_err(),
            "bad kind"
        );
        assert!(Trace::from_text("Z").is_err(), "unknown record");
        // Empty text is an empty trace.
        assert_eq!(Trace::from_text("").unwrap(), Trace::default());
    }

    #[test]
    fn change_total_tests() {
        let mut b = TraceBuilder::new();
        b.begin_change(true);
        b.record(None, ActivationKind::ConstantTest, 0, 5, 0, 1);
        b.record(None, ActivationKind::JoinRight, 1, 7, 2, 0);
        let t = b.finish();
        assert_eq!(t.cycles[0].changes[0].total_tests(), 12);
    }
}
