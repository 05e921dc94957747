//! The recognize–act interpreter (Section 2.1 of the paper).
//!
//! Each cycle: **match** (delegated to the [`Matcher`]), **conflict
//! resolution** ([`crate::ConflictSet::select`]), **act** (execute the
//! selected production's right-hand side). The act phase turns `make`,
//! `modify` and `remove` actions into a batch of working-memory
//! [`Change`]s which is handed to the matcher as a unit — the batch is
//! exactly what the parallel implementations process concurrently.

use std::sync::Arc;
use std::time::Instant;

use psm_obs::{FlightBatch, FlightRule, Obs, Phase, PhaseProfile};

use crate::ast::{Action, Production, Program, RhsArg, VarId};
use crate::conflict::{ConflictSet, Strategy};
use crate::error::Error;
use crate::matcher::{Change, Instantiation, Matcher};
use crate::symbol::SymbolTable;
use crate::value::Value;
use crate::wme::{Wme, WmeId, WorkingMemory};

/// What one recognize–act cycle did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleOutcome {
    /// A production fired.
    Fired(Instantiation),
    /// No unfired instantiation was satisfied; the interpreter halts.
    Quiescent,
    /// A `(halt)` action executed.
    Halted,
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Recognize–act cycles executed (= production firings).
    pub firings: u64,
    /// Working-memory changes processed (inserts + deletes).
    pub wme_changes: u64,
    /// Working-memory inserts.
    pub inserts: u64,
    /// Working-memory deletes.
    pub deletes: u64,
    /// Largest conflict-set size observed.
    pub conflict_set_peak: usize,
}

impl RunStats {
    /// Average WM changes per firing, the paper's key per-cycle quantity.
    pub fn changes_per_firing(&self) -> f64 {
        if self.firings == 0 {
            0.0
        } else {
            self.wme_changes as f64 / self.firings as f64
        }
    }
}

/// The production-system interpreter, generic over the match algorithm.
///
/// # Examples
///
/// Run a two-rule program to quiescence with any matcher (here the naive
/// reference matcher lives in the `baselines` crate; this example uses a
/// trivial custom matcher elided for brevity).
#[derive(Debug)]
pub struct Interpreter<M> {
    program: Program,
    matcher: M,
    wm: WorkingMemory,
    conflict: ConflictSet,
    strategy: Strategy,
    output: Vec<String>,
    halted: bool,
    stats: RunStats,
    firing_log: Option<Vec<Instantiation>>,
    /// Per-phase (match/select/act) latency histograms; `None` (free)
    /// unless [`Interpreter::enable_phase_profiling`] was called.
    phases: Option<Box<PhaseProfile>>,
    /// Telemetry sink; see [`Interpreter::attach_obs`].
    obs: Option<Arc<Obs>>,
    /// Provenance staged for `obs.flight` since the last publish.
    flight: FlightBatch,
    /// `obs.flight`'s handle for each production's name, by production
    /// index; `None` — stage nothing — unless the attached recorder has
    /// capacity.
    flight_rules: Option<Vec<FlightRule>>,
    /// Debug write-set sanitizer; see [`Interpreter::attach_sanitizer`].
    sanitizer: Option<Arc<crate::effects::WriteSanitizer>>,
}

impl<M: Matcher> Interpreter<M> {
    /// Creates an interpreter over `program` using `matcher`.
    ///
    /// The matcher must have been compiled from the same program.
    pub fn new(program: Program, matcher: M) -> Self {
        Interpreter {
            program,
            matcher,
            wm: WorkingMemory::new(),
            conflict: ConflictSet::new(),
            strategy: Strategy::Lex,
            output: Vec::new(),
            halted: false,
            stats: RunStats::default(),
            firing_log: None,
            phases: None,
            obs: None,
            flight: FlightBatch::new(),
            flight_rules: None,
            sanitizer: None,
        }
    }

    /// Attaches a debug [`crate::effects::WriteSanitizer`]: every firing's
    /// actual WME touches are checked against the production's static
    /// write set (violations are recorded on the sanitizer, never
    /// panicked on). Share the same `Arc` with the matcher's own
    /// `attach_sanitizer` so change batches are cross-checked at both
    /// layers.
    pub fn attach_sanitizer(&mut self, sanitizer: Arc<crate::effects::WriteSanitizer>) {
        self.sanitizer = Some(sanitizer);
    }

    /// The attached write-set sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Arc<crate::effects::WriteSanitizer>> {
        self.sanitizer.as_ref()
    }

    /// Attaches an observability handle. Per-cycle phase latencies are
    /// recorded into `phase.{match,select,act}_ns` registry histograms,
    /// run counters are published under `interp.*` after every cycle,
    /// and — when the handle's flight recorder has capacity — the
    /// interpreter records the conflict-set / firing end of the causal
    /// chain (WME changes with time tags, conflict inserts/removes,
    /// firings), staged locally and published around each match so the
    /// ring keeps the chain in causal order. Matchers take their own
    /// handle via their `attach_obs`; use the same `Arc` so everything
    /// lands in one registry.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.flight.clear();
        self.flight_rules = obs.flight.enabled().then(|| {
            let names = self.program.productions.iter().map(|p| &p.name);
            names.map(|name| obs.flight.rule(name)).collect()
        });
        self.obs = Some(obs);
    }

    /// Starts timing a phase; `None` (no clock read) unless phase
    /// profiling or an observability handle wants the sample.
    fn phase_start(&self) -> Option<Instant> {
        (self.phases.is_some() || self.obs.is_some()).then(Instant::now)
    }

    /// Records the time since `started` as one sample of `phase`, into
    /// the phase profile and the `phase.*_ns` registry histogram.
    fn phase_end(&self, phase: Phase, started: Option<Instant>) {
        let Some(started) = started else { return };
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(phases) = &self.phases {
            phases.histogram(phase).record(ns);
        }
        if let Some(obs) = &self.obs {
            obs.metrics
                .histogram(match phase {
                    Phase::Match => "phase.match_ns",
                    Phase::Select => "phase.select_ns",
                    Phase::Act => "phase.act_ns",
                })
                .record(ns);
        }
    }

    /// Hands the matcher one change batch (the match phase), then folds
    /// its delta into the conflict set, which is conflict resolution's
    /// standing cost and is timed as select.
    fn match_and_resolve(&mut self, changes: &[Change]) {
        // The firing and the changes it made reach the ring ahead of
        // the matcher's records of what they caused.
        self.flight_publish();
        let started = self.phase_start();
        let delta = self.matcher.process(&self.wm, changes);
        self.phase_end(Phase::Match, started);
        self.flight_delta(&delta);
        self.flight_publish();
        let started = self.phase_start();
        self.conflict.apply(&delta);
        self.phase_end(Phase::Select, started);
    }

    /// Hands the staged provenance to the attached recorder.
    fn flight_publish(&mut self) {
        if let Some(obs) = &self.obs {
            obs.flight.publish(&mut self.flight);
        }
    }

    /// Publishes run-level gauges/counters after a cycle.
    fn obs_publish_cycle(&self) {
        if let Some(obs) = &self.obs {
            obs.metrics
                .gauge("interp.conflict_size")
                .set(self.conflict.len() as i64);
            obs.metrics
                .gauge("interp.wm_size")
                .set(self.wm.len() as i64);
            obs.metrics.counter("interp.firings").inc();
        }
    }

    /// Stages the conflict-set delta of one match, with the time tags
    /// that justify each instantiation.
    fn flight_delta(&mut self, delta: &crate::matcher::MatchDelta) {
        let Some(rules) = &self.flight_rules else {
            return;
        };
        for inst in &delta.removed {
            let rule = rules[inst.production.index()];
            self.flight.conflict_remove(rule, flight_ids(inst));
        }
        for inst in &delta.added {
            let rule = rules[inst.production.index()];
            let tags = flight_tags(&self.wm, inst);
            self.flight.conflict_insert(rule, flight_ids(inst), tags);
        }
    }

    /// Stages the firing of `inst`.
    fn flight_firing(&mut self, inst: &Instantiation) {
        if let Some(rules) = &self.flight_rules {
            let rule = rules[inst.production.index()];
            let tags = flight_tags(&self.wm, inst);
            self.flight.firing(rule, flight_ids(inst), tags);
        }
    }

    /// Stages a working-memory change (with its time tag).
    fn flight_wme(&mut self, id: WmeId, is_add: bool) {
        if self.flight_rules.is_some() {
            let time_tag = self.wm.time_tag(id).map_or(0, |t| t.0);
            self.flight.wme_change(id.index() as u32, time_tag, is_add);
        }
    }

    /// Starts recording every fired instantiation (off by default; the
    /// log grows with the run).
    pub fn enable_firing_log(&mut self) {
        self.firing_log = Some(Vec::new());
    }

    /// Starts per-phase (match / select / act) span timing, recorded
    /// into `psm-obs` histograms in nanoseconds. Off by default.
    ///
    /// Select is conflict resolution *including* keeping the conflict
    /// set: a cycle records two select samples, the pick at its start
    /// and the fold of the match delta into the set at its end (an
    /// [`Interpreter::insert`] records the fold alone). Phase totals
    /// stay additive — no two samples overlap.
    pub fn enable_phase_profiling(&mut self) {
        self.phases = Some(Box::new(PhaseProfile::new()));
    }

    /// The per-phase latency profile (if phase profiling is enabled).
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.phases.as_deref()
    }

    /// The fired instantiations recorded so far (empty unless
    /// [`Interpreter::enable_firing_log`] was called).
    pub fn firing_log(&self) -> &[Instantiation] {
        self.firing_log.as_deref().unwrap_or(&[])
    }

    /// Sets the conflict-resolution strategy (default LEX).
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// The program being interpreted.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Mutable access to the program's symbol table, for interning
    /// symbols used by WMEs built at run time. Prefer this over cloning
    /// the table: symbols interned into a clone are unknown to the
    /// interpreter's own table, so `display` cannot resolve them.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.program.symbols
    }

    /// The working memory.
    pub fn working_memory(&self) -> &WorkingMemory {
        &self.wm
    }

    /// The conflict set.
    pub fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }

    /// The underlying matcher.
    pub fn matcher(&self) -> &M {
        &self.matcher
    }

    /// Mutable access to the matcher, e.g. to enable or collect the Rete
    /// node-activation trace mid-run.
    pub fn matcher_mut(&mut self) -> &mut M {
        &mut self.matcher
    }

    /// Lines produced by `write` actions so far.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Counters for the run so far.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.conflict_set_peak = self.conflict.peak();
        s
    }

    /// Asserts an initial WME (before or between runs), updating the
    /// match state.
    pub fn insert(&mut self, wme: Wme) -> WmeId {
        let (id, _) = self.wm.add(wme);
        self.stats.wme_changes += 1;
        self.stats.inserts += 1;
        self.flight_wme(id, true);
        self.match_and_resolve(&[Change::Add(id)]);
        id
    }

    /// Asserts several initial WMEs.
    pub fn insert_all<I: IntoIterator<Item = Wme>>(&mut self, wmes: I) -> Vec<WmeId> {
        wmes.into_iter().map(|w| self.insert(w)).collect()
    }

    /// Runs one recognize–act cycle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Runtime`] if an action references a WME that is no
    /// longer live (cannot happen for programs produced by the parser and
    /// a correct matcher, but guarded for custom [`Matcher`]s).
    pub fn cycle(&mut self) -> Result<CycleOutcome, Error> {
        if self.halted {
            return Ok(CycleOutcome::Halted);
        }
        if let Some(obs) = &self.obs {
            obs.flight.set_cycle(self.stats.firings + 1);
        }
        let started = self.phase_start();
        let selected = self.conflict.select(&self.wm, &self.program, self.strategy);
        if let Some(inst) = &selected {
            self.conflict.mark_fired(inst);
        }
        self.phase_end(Phase::Select, started);
        let Some(inst) = selected else {
            return Ok(CycleOutcome::Quiescent);
        };
        if let Some(log) = self.firing_log.as_mut() {
            log.push(inst.clone());
        }
        self.fire(&inst)?;
        self.stats.firings += 1;
        self.obs_publish_cycle();
        Ok(if self.halted {
            CycleOutcome::Halted
        } else {
            CycleOutcome::Fired(inst)
        })
    }

    /// Runs until quiescence, `halt`, or `max_cycles` firings; returns the
    /// number of firings executed by this call.
    ///
    /// # Errors
    ///
    /// Propagates any [`Error::Runtime`] from [`Interpreter::cycle`].
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, Error> {
        let mut fired = 0;
        while fired < max_cycles {
            match self.cycle()? {
                CycleOutcome::Fired(_) => fired += 1,
                CycleOutcome::Halted => {
                    // The halting cycle itself fired a production.
                    fired += 1;
                    break;
                }
                CycleOutcome::Quiescent => break,
            }
        }
        Ok(fired)
    }

    /// Executes the RHS of `inst`, producing and applying the change
    /// batch. `bind` actions extend the bindings as the RHS proceeds.
    fn fire(&mut self, inst: &Instantiation) -> Result<(), Error> {
        self.flight_firing(inst);
        let started = self.phase_start();
        let production = self.program.production(inst.production);
        let mut bindings = self.extract_bindings(production, inst)?;

        let mut pending_adds: Vec<Wme> = Vec::new();
        // A handful at most, so deduplicated by looking.
        let mut pending_removes: Vec<WmeId> = Vec::new();

        for action in &production.actions {
            match action {
                Action::Make { class, attrs } => {
                    let attrs = attrs
                        .iter()
                        .map(|(a, arg)| Ok((*a, self.resolve(arg, &bindings)?)))
                        .collect::<Result<Vec<_>, Error>>()?;
                    pending_adds.push(Wme::new(*class, attrs));
                }
                Action::Remove { positive_ce } => {
                    let id = self.designated(inst, *positive_ce)?;
                    if !pending_removes.contains(&id) {
                        pending_removes.push(id);
                    }
                }
                Action::Modify { positive_ce, attrs } => {
                    let id = self.designated(inst, *positive_ce)?;
                    let old = self
                        .wm
                        .get(id)
                        .ok_or_else(|| Error::runtime(format!("modify of dead WME {id}")))?;
                    let updates = attrs
                        .iter()
                        .map(|(a, arg)| Ok((*a, self.resolve(arg, &bindings)?)))
                        .collect::<Result<Vec<_>, Error>>()?;
                    pending_adds.push(old.modified(&updates));
                    if !pending_removes.contains(&id) {
                        pending_removes.push(id);
                    }
                }
                Action::Write { args } => {
                    let mut line = String::new();
                    for (i, arg) in args.iter().enumerate() {
                        if i > 0 {
                            line.push(' ');
                        }
                        let v = self.resolve(arg, &bindings)?;
                        line.push_str(&format!("{}", v.display(&self.program.symbols)));
                    }
                    self.output.push(line);
                }
                Action::Halt => self.halted = true,
                Action::Bind { var, value } => {
                    let v = self.resolve(value, &bindings)?;
                    bindings[var.index()] = Some(v);
                }
            }
        }

        // The firing's actual touches are now known; assert they fall
        // inside the production's static write set. The firing context
        // stays open across `matcher.process` so matcher-level batch
        // checks see which production the changes belong to.
        if let Some(s) = &self.sanitizer {
            s.begin_firing(inst.production);
            for wme in &pending_adds {
                s.check_add(inst.production, wme);
            }
            for &id in &pending_removes {
                if let Some(w) = self.wm.get(id) {
                    s.check_remove(inst.production, w.class());
                }
            }
        }

        // Build the batch: removes first, then adds. This ordering is the
        // batch contract parallel matchers rely on (DESIGN.md §6).
        let mut changes: Vec<Change> = pending_removes
            .iter()
            .map(|&id| Change::Remove(id))
            .collect();
        for wme in pending_adds {
            let (id, _) = self.wm.add(wme);
            changes.push(Change::Add(id));
        }
        self.stats.wme_changes += changes.len() as u64;
        self.stats.deletes += pending_removes.len() as u64;
        self.stats.inserts += (changes.len() - pending_removes.len()) as u64;

        self.phase_end(Phase::Act, started);
        for change in &changes {
            match *change {
                Change::Add(id) => self.flight_wme(id, true),
                Change::Remove(id) => self.flight_wme(id, false),
            }
        }
        self.match_and_resolve(&changes);
        if let Some(s) = &self.sanitizer {
            s.end_firing();
        }

        for id in pending_removes {
            self.wm.remove(id);
        }
        Ok(())
    }

    /// The WME matching the designated positive CE of `inst`.
    fn designated(&self, inst: &Instantiation, positive_ce: usize) -> Result<WmeId, Error> {
        inst.wmes.get(positive_ce).copied().ok_or_else(|| {
            Error::runtime(format!(
                "element designator {} out of range for {}",
                positive_ce + 1,
                inst.production
            ))
        })
    }

    /// Reads each bound variable's value out of the instantiation's WMEs.
    fn extract_bindings(
        &self,
        production: &Production,
        inst: &Instantiation,
    ) -> Result<Vec<Option<Value>>, Error> {
        production
            .binding_sites
            .iter()
            .map(|site| match site {
                None => Ok(None),
                Some(site) => {
                    let id =
                        inst.wmes.get(site.positive_ce).copied().ok_or_else(|| {
                            Error::runtime("instantiation shorter than binding site")
                        })?;
                    let wme = self
                        .wm
                        .get(id)
                        .ok_or_else(|| Error::runtime(format!("binding WME {id} is dead")))?;
                    Ok(wme.get(site.attr))
                }
            })
            .collect()
    }

    fn resolve(&self, arg: &RhsArg, bindings: &[Option<Value>]) -> Result<Value, Error> {
        match arg {
            RhsArg::Const(v) => Ok(*v),
            RhsArg::Var(v) => self.lookup_binding(*v, bindings),
            RhsArg::Compute(expr) => self.eval_compute(expr, bindings),
        }
    }

    /// Evaluates a `(compute …)` expression left-associatively.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Runtime`] if an operand is bound to a symbol, or
    /// on division/modulus by zero.
    fn eval_compute(
        &self,
        expr: &crate::ast::ComputeExpr,
        bindings: &[Option<Value>],
    ) -> Result<Value, Error> {
        use crate::ast::{ArithOp, ComputeOperand};
        let operand = |o: &ComputeOperand| -> Result<i64, Error> {
            match o {
                ComputeOperand::Const(i) => Ok(*i),
                ComputeOperand::Var(v) => match self.lookup_binding(*v, bindings)? {
                    Value::Int(i) => Ok(i),
                    Value::Sym(_) => Err(Error::runtime(format!(
                        "compute operand {v} is bound to a symbol"
                    ))),
                },
            }
        };
        let mut acc = operand(&expr.first)?;
        for (op, o) in &expr.rest {
            let rhs = operand(o)?;
            acc = match op {
                ArithOp::Add => acc.wrapping_add(rhs),
                ArithOp::Sub => acc.wrapping_sub(rhs),
                ArithOp::Mul => acc.wrapping_mul(rhs),
                ArithOp::Div => {
                    if rhs == 0 {
                        return Err(Error::runtime("compute division by zero"));
                    }
                    acc / rhs
                }
                ArithOp::Mod => {
                    if rhs == 0 {
                        return Err(Error::runtime("compute modulus by zero"));
                    }
                    acc % rhs
                }
            };
        }
        Ok(Value::Int(acc))
    }

    fn lookup_binding(&self, var: VarId, bindings: &[Option<Value>]) -> Result<Value, Error> {
        bindings
            .get(var.index())
            .copied()
            .flatten()
            .ok_or_else(|| Error::runtime(format!("unbound variable {var} at fire time")))
    }
}

/// The matched WME ids of `inst` as the flight recorder stores them.
fn flight_ids(inst: &Instantiation) -> impl Iterator<Item = u32> + '_ {
    inst.wmes.iter().map(|id| id.index() as u32)
}

/// The time tags of `inst`'s WMEs, aligned with [`flight_ids`] (0 for
/// one no longer in `wm`).
fn flight_tags<'a>(
    wm: &'a WorkingMemory,
    inst: &'a Instantiation,
) -> impl Iterator<Item = u64> + 'a {
    let tag = |id: &WmeId| wm.time_tag(*id).map_or(0, |t| t.0);
    inst.wmes.iter().map(tag)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::ast::ConditionElement;
    use crate::matcher::MatchDelta;
    use crate::parser::{parse_program, parse_wme};

    /// A reference matcher that recomputes all instantiations from scratch
    /// on every change using the AST-level semantics. Slow but obviously
    /// correct; the real baselines live in the `baselines` crate (this one
    /// exists so `ops5` is testable stand-alone).
    #[derive(Debug)]
    struct OracleMatcher {
        program: Program,
        current: HashSet<Instantiation>,
        /// WMEs the matcher considers live (it may lag `wm` within a
        /// batch: removed WMEs stay resolvable there until the batch is
        /// fully processed).
        live: HashSet<WmeId>,
    }

    impl OracleMatcher {
        fn new(program: &Program) -> Self {
            OracleMatcher {
                program: program.clone(),
                current: HashSet::new(),
                live: HashSet::new(),
            }
        }

        fn all_instantiations(&self, wm: &WorkingMemory) -> HashSet<Instantiation> {
            let mut out = HashSet::new();
            for p in &self.program.productions {
                let mut partial: Vec<(Vec<WmeId>, Vec<Option<Value>>)> =
                    vec![(Vec::new(), vec![None; p.variables.len()])];
                for ce in &p.ces {
                    partial = extend(ce, wm, &self.live, partial);
                }
                for (wmes, _) in partial {
                    out.insert(Instantiation::new(p.id, wmes));
                }
            }
            out
        }

        fn refresh(&mut self, wm: &WorkingMemory) -> MatchDelta {
            let next = self.all_instantiations(wm);
            let added = next.difference(&self.current).cloned().collect();
            let removed = self.current.difference(&next).cloned().collect();
            self.current = next;
            MatchDelta { added, removed }
        }
    }

    /// Extends partial matches by one condition element (reference join).
    fn extend(
        ce: &ConditionElement,
        wm: &WorkingMemory,
        live: &HashSet<WmeId>,
        partial: Vec<(Vec<WmeId>, Vec<Option<Value>>)>,
    ) -> Vec<(Vec<WmeId>, Vec<Option<Value>>)> {
        let mut out = Vec::new();
        for (wmes, bindings) in partial {
            if ce.negated {
                let blocked =
                    wm.iter()
                        .filter(|(id, _, _)| live.contains(id))
                        .any(|(_, wme, _)| {
                            // Local variables of the negated CE start unbound.
                            let mut local = bindings.clone();
                            crate::ast::match_and_bind(ce, wme, &mut local)
                        });
                if !blocked {
                    out.push((wmes, bindings));
                }
            } else {
                for (id, wme, _) in wm.iter().filter(|(id, _, _)| live.contains(id)) {
                    let mut b = bindings.clone();
                    if crate::ast::match_and_bind(ce, wme, &mut b) {
                        let mut w = wmes.clone();
                        w.push(id);
                        out.push((w, b));
                    }
                }
            }
        }
        out
    }

    impl Matcher for OracleMatcher {
        fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
            self.live.insert(id);
            self.refresh(wm)
        }
        fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
            self.live.remove(&id);
            self.refresh(wm)
        }
        fn algorithm_name(&self) -> &'static str {
            "oracle"
        }
    }

    fn interpreter(src: &str) -> Interpreter<OracleMatcher> {
        let program = parse_program(src).unwrap();
        let matcher = OracleMatcher::new(&program);
        Interpreter::new(program, matcher)
    }

    #[test]
    fn paper_figure_2_1_fires_and_modifies() {
        let mut interp = interpreter(
            r#"
            (p find-colored-blk
               (goal ^type find-blk ^color <c>)
               (block ^id <i> ^color <c> ^selected no)
               -->
               (modify 2 ^selected yes))
            "#,
        );
        let syms = &mut interp.program.symbols.clone();
        let goal = parse_wme("(goal ^type find-blk ^color red)", syms).unwrap();
        let b1 = parse_wme("(block ^id 1 ^color red ^selected no)", syms).unwrap();
        let b2 = parse_wme("(block ^id 2 ^color blue ^selected no)", syms).unwrap();
        interp.insert_all([goal, b1, b2]);
        assert_eq!(interp.conflict_set().len(), 1, "only the red block matches");

        let fired = interp.run(10).unwrap();
        assert_eq!(fired, 1, "after modify, selected=yes blocks the rule");
        let selected = interp.program().symbols.lookup("selected").unwrap();
        let yes = interp.program().symbols.lookup("yes").unwrap();
        let n = interp
            .working_memory()
            .iter()
            .filter(|(_, w, _)| w.get(selected) == Some(Value::Sym(yes)))
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn counting_loop_runs_to_halt() {
        let mut interp = interpreter(
            r#"
            (p count-up
               (counter ^value <v> ^limit > <v>)
               -->
               (write tick <v>)
               (modify 1 ^value 1))
            (p done
               (counter ^value <v> ^limit <v>)
               -->
               (write done <v>)
               (halt))
            "#,
        );
        // `modify 1 ^value 1` sets value to constant 1; to actually count
        // we need arithmetic OPS5 `compute` which we do not model, so this
        // program "counts" 0 -> 1 then halts at limit 1.
        let syms = &mut interp.program.symbols.clone();
        let c = parse_wme("(counter ^value 0 ^limit 1)", syms).unwrap();
        interp.insert(c);
        let fired = interp.run(100).unwrap();
        assert_eq!(fired, 2);
        assert_eq!(
            interp.output(),
            &["tick 0".to_string(), "done 1".to_string()]
        );
        assert_eq!(interp.cycle().unwrap(), CycleOutcome::Halted);
    }

    #[test]
    fn negated_ce_blocks_until_clear() {
        let mut interp = interpreter(
            r#"
            (p proceed
               (goal ^act go)
               - (obstacle)
               -->
               (write moving)
               (remove 1))
            "#,
        );
        let syms = &mut interp.program.symbols.clone();
        let goal = parse_wme("(goal ^act go)", syms).unwrap();
        let obstacle = parse_wme("(obstacle)", syms).unwrap();
        interp.insert(goal);
        let ob = interp.insert(obstacle);
        assert!(interp.conflict_set().is_empty(), "obstacle blocks");
        // Retract the obstacle through the public API path: a production
        // would do this; here we simulate by removing via matcher contract.
        let delta = interp.matcher.remove_wme(&interp.wm.clone(), ob);
        interp.conflict.apply(&delta);
        interp.wm.remove(ob);
        assert_eq!(interp.conflict_set().len(), 1);
        assert_eq!(interp.run(10).unwrap(), 1);
        assert_eq!(interp.output(), &["moving".to_string()]);
    }

    #[test]
    fn quiescence_without_rules() {
        let mut interp = interpreter("(p r (never ^x 1) --> (halt))");
        assert_eq!(interp.cycle().unwrap(), CycleOutcome::Quiescent);
        assert_eq!(interp.run(5).unwrap(), 0);
    }

    #[test]
    fn refraction_prevents_infinite_refiring() {
        let mut interp = interpreter(
            r#"
            (p loop-forever (thing ^here yes) --> (write saw-it))
            "#,
        );
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(thing ^here yes)", syms).unwrap());
        let fired = interp.run(100).unwrap();
        assert_eq!(fired, 1, "refraction allows exactly one firing");
        assert_eq!(interp.output().len(), 1);
    }

    #[test]
    fn stats_count_changes() {
        let mut interp = interpreter(
            r#"
            (p expand (seed ^n <n>) --> (make leaf ^of <n>) (make leaf2 ^of <n>) (remove 1))
            "#,
        );
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(seed ^n 7)", syms).unwrap());
        interp.run(10).unwrap();
        let stats = interp.stats();
        assert_eq!(stats.firings, 1);
        // 1 initial insert + (1 remove + 2 makes) = 4 changes.
        assert_eq!(stats.wme_changes, 4);
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.deletes, 1);
        assert!((stats.changes_per_firing() - 4.0).abs() < 1e-9);
        assert!(stats.conflict_set_peak >= 1);
    }

    #[test]
    fn compute_evaluates_left_associatively() {
        let mut interp = interpreter(
            r#"
            (p calc (in ^n <n>)
               -->
               (remove 1)
               (write (compute <n> + 1 * 2))      ; (5+1)*2 = 12, no precedence
               (write (compute 10 - <n> - 2))     ; (10-5)-2 = 3
               (write (compute <n> // 2))         ; 2
               (write (compute <n> \\ 3)))        ; 2
            "#,
        );
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(in ^n 5)", syms).unwrap());
        interp.run(5).unwrap();
        assert_eq!(interp.output(), &["12", "3", "2", "2"]);
    }

    #[test]
    fn bind_extends_and_shadows_bindings() {
        let mut interp = interpreter(
            r#"
            (p b (a ^x <n>)
               -->
               (remove 1)
               (bind <tmp> (compute <n> * 2))
               (write first <tmp>)
               (bind <tmp> (compute <tmp> + 1))
               (write then <tmp>)
               (bind <n> 0)
               (write shadowed <n>))
            "#,
        );
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(a ^x 21)", syms).unwrap());
        interp.run(5).unwrap();
        assert_eq!(interp.output(), &["first 42", "then 43", "shadowed 0"]);
    }

    #[test]
    fn compute_division_by_zero_is_a_runtime_error() {
        let mut interp = interpreter("(p bad (in ^n <n>) --> (write (compute 1 // <n>)))");
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(in ^n 0)", syms).unwrap());
        let err = interp.run(5).unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn compute_on_symbol_binding_is_a_runtime_error() {
        let mut interp = interpreter("(p bad (in ^n <n>) --> (write (compute <n> + 1)))");
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(in ^n red)", syms).unwrap());
        let err = interp.run(5).unwrap_err();
        assert!(err.to_string().contains("bound to a symbol"));
    }

    #[test]
    fn sanitizer_stays_clean_on_a_legal_run() {
        let mut interp = interpreter(
            r#"
            (p expand (seed ^n <n>) --> (make leaf ^of <n>) (remove 1))
            (p relabel (leaf ^of <n>) --> (modify 1 ^of 0))
            "#,
        );
        let sanitizer = Arc::new(crate::effects::WriteSanitizer::new(interp.program()));
        interp.attach_sanitizer(Arc::clone(&sanitizer));
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(seed ^n 7)", syms).unwrap());
        interp.run(10).unwrap();
        assert!(interp.stats().firings >= 2);
        // Interpreter-level touch checks plus matcher-batch context ran.
        assert!(sanitizer.checks() > 0);
        assert!(sanitizer.is_clean(), "{:?}", sanitizer.violations());
        assert_eq!(sanitizer.current_firing(), None, "context closed");
    }

    #[test]
    fn variable_bindings_flow_to_rhs() {
        let mut interp = interpreter(
            r#"
            (p copy (src ^val <v> ^tag <t>) --> (make dst ^val <v> ^tag <t>) (remove 1))
            "#,
        );
        let syms = &mut interp.program.symbols.clone();
        interp.insert(parse_wme("(src ^val 42 ^tag hello)", syms).unwrap());
        interp.run(10).unwrap();
        let dst = interp.program().symbols.lookup("dst").unwrap();
        let val = interp.program().symbols.lookup("val").unwrap();
        let found: Vec<_> = interp
            .working_memory()
            .iter()
            .filter(|(_, w, _)| w.class() == dst)
            .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1.get(val), Some(Value::Int(42)));
    }
}
