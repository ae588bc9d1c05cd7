//! The instrumented pass manager.
//!
//! This is where the paper's mechanism plugs into the compiler: every pass
//! execution is recorded as **active** (it changed the IR) or **dormant** (it
//! ran and changed nothing), and before each execution a [`SkipOracle`] —
//! implemented by the `sfcc-state` crate from previous builds' dormancy
//! records — may decide to *skip* the pass entirely. This module holds the
//! records, the oracle interface and the pipeline shape; the one runner,
//! [`crate::run_pipeline`], lives in [`crate::parallel`].

use crate::Pass;
use sfcc_ir::{Fingerprint, Function, ModuleSnapshot};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// What happened to one pass slot on one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassOutcome {
    /// The pass ran and modified the IR.
    Active,
    /// The pass ran and left the IR untouched.
    Dormant,
    /// The pass was skipped on the oracle's advice.
    Skipped,
}

impl fmt::Display for PassOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PassOutcome::Active => "active",
            PassOutcome::Dormant => "dormant",
            PassOutcome::Skipped => "skipped",
        })
    }
}

/// The record of one pass slot's execution on one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Pass name (not unique: a pipeline may repeat a pass).
    pub pass: String,
    /// Position in the flattened pipeline — the stable per-build identity of
    /// this pass execution, used as the dormancy-state key.
    pub slot: usize,
    /// What happened.
    pub outcome: PassOutcome,
    /// Wall-clock time spent running the pass (0 when skipped).
    pub nanos: u64,
    /// Deterministic cost proxy: live instructions when the pass started.
    pub cost_units: u64,
}

/// Everything recorded while compiling one function through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionTrace {
    /// Function name (unqualified).
    pub function: String,
    /// Structural fingerprint when entering the pipeline (pre-optimization).
    pub entry_fingerprint: Fingerprint,
    /// Structural fingerprint after the pipeline.
    pub exit_fingerprint: Fingerprint,
    /// One record per pipeline slot, in execution order.
    pub records: Vec<PassRecord>,
}

impl FunctionTrace {
    /// Number of slots with the given outcome.
    pub fn count(&self, outcome: PassOutcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Total pass-execution wall time in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.records.iter().map(|r| r.nanos).sum()
    }

    /// Total deterministic cost of executed (non-skipped) slots.
    pub fn executed_cost(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome != PassOutcome::Skipped)
            .map(|r| r.cost_units)
            .sum()
    }
}

/// The record of one whole-module pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineTrace {
    /// Module name.
    pub module: String,
    /// One trace per function, in module order.
    pub functions: Vec<FunctionTrace>,
    /// Module snapshots taken during this run (pipeline entry + every
    /// re-snapshot stage after the first). Identical for every pool width.
    pub snapshot_clones: u64,
    /// Σ live instruction count over the functions actually deep-cloned
    /// into snapshots — the deterministic cost proxy for snapshot overhead.
    /// Copy-on-write re-snapshots clone only functions a pass changed since
    /// the previous snapshot, so this is far below `functions × snapshots`
    /// on converged code.
    pub snapshot_cost_units: u64,
    /// Functions whose previous snapshot `Arc` was reused at a re-snapshot
    /// instead of deep-cloned — the copy-on-write savings. Deterministic
    /// and identical for every `--jobs` value.
    pub snapshot_reused: u64,
    /// Cost-balanced batches planned across all stages — the runner's
    /// fan-out unit. The plan ignores the worker count, so the counter is
    /// `--jobs`-invariant.
    pub batch_count: u64,
    /// Largest single-batch total cost (live instructions) planned by any
    /// stage of this run.
    pub batch_max_cost: u64,
}

impl PipelineTrace {
    /// Looks up one function's trace.
    pub fn function(&self, name: &str) -> Option<&FunctionTrace> {
        self.functions.iter().find(|f| f.function == name)
    }

    /// Total deterministic cost of executed (non-skipped) slots across all
    /// functions — the module's cost-unit contribution to a build trace.
    pub fn executed_cost(&self) -> u64 {
        self.functions.iter().map(|f| f.executed_cost()).sum()
    }

    /// Total pass-execution wall time across all functions.
    pub fn total_nanos(&self) -> u64 {
        self.functions.iter().map(|f| f.total_nanos()).sum()
    }

    /// Aggregate outcome counts `(active, dormant, skipped)`.
    pub fn outcome_totals(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for f in &self.functions {
            t.0 += f.count(PassOutcome::Active);
            t.1 += f.count(PassOutcome::Dormant);
            t.2 += f.count(PassOutcome::Skipped);
        }
        t
    }
}

/// Context handed to the oracle for one potential pass execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassQuery<'a> {
    /// Module being compiled.
    pub module: &'a str,
    /// Function about to be transformed (unqualified name).
    pub function: &'a str,
    /// The function's structural fingerprint at pipeline entry.
    pub entry_fingerprint: Fingerprint,
    /// Name of the pass.
    pub pass: &'a str,
    /// Flattened pipeline slot of the pass.
    pub slot: usize,
}

/// Decides whether a pass execution may be skipped.
///
/// The stateless compiler uses [`NeverSkip`]; the stateful compiler supplies
/// an oracle backed by the dormancy database of previous builds.
pub trait SkipOracle {
    /// Returns `true` to skip the pass described by `query`.
    fn should_skip(&self, query: &PassQuery<'_>) -> bool;
}

/// The stateless baseline: every pass always runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverSkip;

impl SkipOracle for NeverSkip {
    fn should_skip(&self, _query: &PassQuery<'_>) -> bool {
        false
    }
}

/// A shared oracle answers as the oracle it wraps.
impl<T: SkipOracle + ?Sized> SkipOracle for Arc<T> {
    fn should_skip(&self, query: &PassQuery<'_>) -> bool {
        (**self).should_skip(query)
    }
}

/// One stage of a pipeline: a pass sequence, optionally preceded by a fresh
/// module snapshot (for passes like inlining that read other functions).
pub struct Stage {
    /// Passes run on every function, in order.
    pub passes: Vec<Box<dyn Pass>>,
    /// Take a fresh snapshot of the whole module before this stage, so its
    /// passes observe the results of earlier stages in *other* functions.
    pub resnapshot: bool,
}

/// An ordered sequence of stages with stable flattened slot numbering.
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("slots", &self.slot_names())
            .finish()
    }
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    pub fn stage(mut self, resnapshot: bool, passes: Vec<Box<dyn Pass>>) -> Self {
        self.stages.push(Stage { passes, resnapshot });
        self
    }

    /// The flattened pass names, indexed by slot.
    pub fn slot_names(&self) -> Vec<&'static str> {
        self.stages
            .iter()
            .flat_map(|s| s.passes.iter().map(|p| p.name()))
            .collect()
    }

    /// Number of flattened pass slots.
    pub fn slot_count(&self) -> usize {
        self.stages.iter().map(|s| s.passes.len()).sum()
    }

    /// The pipeline's stages, in execution order.
    pub(crate) fn stages(&self) -> &[Stage] {
        &self.stages
    }
}

/// Pass-manager execution options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Verify every function after every pass that reported a change.
    /// Defaults to `true` in debug builds.
    pub verify_each: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            verify_each: cfg!(debug_assertions),
        }
    }
}

/// Builds the next copy-on-write snapshot from the current function bodies:
/// functions flagged `dirty` (changed by some pass since `prev` was taken)
/// are deep-cloned into fresh `Arc`s, clean ones reuse `prev`'s `Arc`s at
/// zero copy cost. `prev: None` is the pipeline-entry snapshot, which
/// clones everything. Records the event in the process-global
/// [`crate::snapstats`] counters and returns
/// `(snapshot, cloned_cost_units, reused_functions)`.
///
/// `funcs` must be the same functions, in the same order, as `prev`'s —
/// pipeline stages transform bodies but never add, remove, or reorder
/// functions, so positions align across snapshots.
pub(crate) fn cow_snapshot(
    name: &str,
    funcs: &[&Function],
    dirty: &[bool],
    prev: Option<&ModuleSnapshot>,
) -> (ModuleSnapshot, u64, u64) {
    debug_assert_eq!(funcs.len(), dirty.len());
    let start = Instant::now();
    let mut cost = 0u64;
    let mut reused = 0u64;
    let mut arcs = Vec::with_capacity(funcs.len());
    for (i, func) in funcs.iter().enumerate() {
        match prev {
            Some(prev) if !dirty[i] => {
                debug_assert_eq!(prev.arcs()[i].name, func.name);
                arcs.push(Arc::clone(&prev.arcs()[i]));
                reused += 1;
            }
            _ => {
                cost += func.live_inst_count() as u64;
                arcs.push(Arc::new((*func).clone()));
            }
        }
    }
    let snapshot = ModuleSnapshot::from_arcs(name, arcs);
    crate::snapstats::record_snapshot(cost, reused, start.elapsed().as_nanos() as u64);
    (snapshot, cost, reused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_pipeline;
    use sfcc_ir::{Function, Module};

    /// A test pass that increments a counter and optionally claims a change.
    struct Probe {
        name: &'static str,
        changes: bool,
    }

    impl Pass for Probe {
        fn name(&self) -> &'static str {
            self.name
        }

        fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
            if self.changes {
                // Make a harmless real change so verification passes: append
                // a fresh unreachable block.
                func.add_block();
            }
            self.changes
        }
    }

    fn test_module() -> Module {
        let mut m = Module::new("t");
        let mut f = Function::new("f", vec![], None);
        sfcc_ir::FuncBuilder::at_entry(&mut f).ret(None);
        m.add_function(f);
        m
    }

    struct SkipByName(&'static str);

    impl SkipOracle for SkipByName {
        fn should_skip(&self, q: &PassQuery<'_>) -> bool {
            q.pass == self.0
        }
    }

    #[test]
    fn records_active_and_dormant() {
        let mut m = test_module();
        let pipeline = Pipeline::new().stage(
            false,
            vec![
                Box::new(Probe {
                    name: "a",
                    changes: true,
                }),
                Box::new(Probe {
                    name: "b",
                    changes: false,
                }),
            ],
        );
        let trace = run_pipeline(&mut m, &pipeline, NeverSkip, RunOptions::default(), None);
        let f = trace.function("f").unwrap();
        assert_eq!(f.records.len(), 2);
        assert_eq!(f.records[0].outcome, PassOutcome::Active);
        assert_eq!(f.records[1].outcome, PassOutcome::Dormant);
        assert_eq!(f.records[0].slot, 0);
        assert_eq!(f.records[1].slot, 1);
    }

    #[test]
    fn oracle_skips_pass() {
        let mut m = test_module();
        let pipeline = Pipeline::new().stage(
            false,
            vec![
                Box::new(Probe {
                    name: "a",
                    changes: true,
                }),
                Box::new(Probe {
                    name: "b",
                    changes: true,
                }),
            ],
        );
        let trace = run_pipeline(
            &mut m,
            &pipeline,
            SkipByName("b"),
            RunOptions::default(),
            None,
        );
        let f = trace.function("f").unwrap();
        assert_eq!(f.records[1].outcome, PassOutcome::Skipped);
        assert_eq!(f.records[1].nanos, 0);
        assert_eq!(trace.outcome_totals(), (1, 0, 1));
    }

    #[test]
    fn slots_are_stable_across_stages() {
        let mut m = test_module();
        let pipeline = Pipeline::new()
            .stage(
                false,
                vec![Box::new(Probe {
                    name: "a",
                    changes: false,
                })],
            )
            .stage(
                true,
                vec![Box::new(Probe {
                    name: "b",
                    changes: false,
                })],
            );
        assert_eq!(pipeline.slot_names(), vec!["a", "b"]);
        assert_eq!(pipeline.slot_count(), 2);
        let trace = run_pipeline(&mut m, &pipeline, NeverSkip, RunOptions::default(), None);
        let f = trace.function("f").unwrap();
        assert_eq!(f.records[0].slot, 0);
        assert_eq!(f.records[1].slot, 1);
    }

    #[test]
    fn fingerprints_before_and_after() {
        let mut m = test_module();
        let pipeline = Pipeline::new().stage(
            false,
            vec![Box::new(Probe {
                name: "a",
                changes: true,
            })],
        );
        let trace = run_pipeline(&mut m, &pipeline, NeverSkip, RunOptions::default(), None);
        let f = trace.function("f").unwrap();
        // The probe adds only an unreachable block, which the canonical
        // printer ignores — fingerprints stay equal.
        assert_eq!(f.entry_fingerprint, f.exit_fingerprint);
        assert_ne!(f.entry_fingerprint, Fingerprint::default());
    }

    #[test]
    fn trace_helpers() {
        let rec = |o| PassRecord {
            pass: "p".into(),
            slot: 0,
            outcome: o,
            nanos: 5,
            cost_units: 3,
        };
        let t = FunctionTrace {
            function: "f".into(),
            entry_fingerprint: Fingerprint::default(),
            exit_fingerprint: Fingerprint::default(),
            records: vec![
                rec(PassOutcome::Active),
                rec(PassOutcome::Dormant),
                rec(PassOutcome::Skipped),
            ],
        };
        assert_eq!(t.count(PassOutcome::Active), 1);
        assert_eq!(t.total_nanos(), 15);
        assert_eq!(t.executed_cost(), 6);
    }
}
