//! The incremental build driver.
//!
//! A [`Builder`] owns a [`Compiler`] session and a demand-driven query
//! [`Engine`] whose store of memoized task outputs persists across builds.
//! Each [`Builder::build`] call:
//!
//! 1. opens an engine session, which re-stamps every tracked input (source
//!    files, the module manifest, per-function dormancy state) and
//!    invalidates exactly the tasks downstream of a changed stamp;
//! 2. demands the [`BuildTask::Graph`] task (import extraction, cycle and
//!    missing-import diagnostics, wave scheduling);
//! 3. walks the wave schedule at *function* granularity: each module's
//!    roster comes from its `modcheck` task, each function's `optimizefn`
//!    task is probed for staleness, and the stale functions' union call
//!    closure is optimized as one restricted batch per module on a shared
//!    worker pool — then each module's `codegen` task is demanded, hitting
//!    the store wherever an output fingerprint proves nothing changed
//!    (early cutoff);
//! 4. demands [`BuildTask::Link`], which reuses the memoized program when
//!    no object changed.
//!
//! The old interface-hash staleness cliff is gone: cross-module dependencies
//! attach to per-function `signature(q::g)` fingerprints recorded by the
//! `checkfn` tasks that actually resolved them (see [`crate::tasks`]), so a
//! signature edit re-demands only the functions that call it, and a body
//! edit re-runs exactly one function's pipeline.
//!
//! Dormancy state is read-only while a wave runs: `optimizefn` tasks queue
//! their traces, and the driver commits them once per module at the wave
//! boundary ([`Compiler::commit_state`]). Skip decisions read only the
//! optimized function's own module, and each module belongs to one wave,
//! so every skip decision — and therefore every byte — is independent of
//! demand order and `--jobs`.
//!
//! The compiler session's dormancy state persists across builds (that is
//! the paper's point); [`Builder::clear_cache`] drops only the *query
//! store*, forcing full recompilation while keeping the dormancy state,
//! which is exactly the "fresh checkout, warm state" CI scenario.

use crate::depcheck::{self, DepMutations, DepcheckReport};
use crate::graph::GraphError;
use crate::project::Project;
use crate::report::{BuildReport, FngrainStats, ModuleReport, QueryStats};
use crate::tasks::{call_closure, BuildSpec, BuildTask, WaveBatch};
use sfcc::{CompileError, CompileOutput, Compiler};
use sfcc_backend::LinkError;
use sfcc_passes::{PassOutcome, PipelineTrace};
use sfcc_query::{Engine, QueryError};
use sfcc_trace::{ArgValue, MetricsSnapshot, Registry, SpanId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use crate::tasks::BuildValue;

/// Why a build failed.
#[derive(Debug)]
pub enum BuildError {
    /// The project's import graph is unusable.
    Graph(GraphError),
    /// A module failed to compile.
    Compile {
        /// The failing module.
        module: String,
        /// The compiler's error.
        error: CompileError,
    },
    /// Linking the objects failed.
    Link(LinkError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Graph(e) => write!(f, "{e}"),
            BuildError::Compile { module, error } => {
                write!(f, "module `{module}` failed to compile:\n{error}")
            }
            BuildError::Link(e) => write!(f, "link failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

impl From<LinkError> for BuildError {
    fn from(e: LinkError) -> Self {
        BuildError::Link(e)
    }
}

/// Maps an engine-level failure back to the build's error type. Demand
/// cycles cannot outlive the `graph` task (which rejects cyclic imports
/// first), but are mapped defensively to the same diagnostic.
fn seal(err: QueryError<BuildTask, BuildError>) -> BuildError {
    match err {
        QueryError::Task(e) => e,
        QueryError::Cycle(path) => BuildError::Graph(GraphError::Cycle(
            path.iter()
                .map(|t| t.module().unwrap_or("?").to_string())
                .collect(),
        )),
    }
}

/// The incremental build driver: compiler session + persistent query store.
pub struct Builder {
    compiler: Compiler,
    engine: Engine<BuildTask, BuildValue>,
    jobs: usize,
    tracing: bool,
    depcheck: bool,
    mutations: DepMutations,
}

impl fmt::Debug for Builder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Builder")
            .field("cached_tasks", &self.engine.len())
            .field("jobs", &self.jobs)
            .field("compiler", &self.compiler)
            .finish()
    }
}

impl Builder {
    /// Creates a builder around a compiler session. Builds run sequentially
    /// until [`Builder::with_jobs`] or [`Builder::with_parallelism`] raises
    /// the worker count.
    pub fn new(compiler: Compiler) -> Self {
        Builder {
            compiler,
            engine: Engine::new(),
            jobs: 1,
            tracing: false,
            depcheck: false,
            mutations: DepMutations::new(),
        }
    }

    /// Turns on dependency-soundness checking: subsequent builds record
    /// every task-attributed resource access and faultfs op, diff them
    /// against the engine's declared dependencies, and attach the verdict
    /// as [`BuildReport::depcheck`]. Instrumented builds serialize
    /// process-wide on the access log and are slower; build outputs are
    /// unaffected.
    pub fn with_depcheck(mut self) -> Self {
        self.depcheck = true;
        self
    }

    /// Installs adversarial dependency mutations for subsequent builds —
    /// the fuzzing half of depcheck (see [`DepMutations`]).
    pub fn with_dep_mutations(mut self, mutations: DepMutations) -> Self {
        self.mutations = mutations;
        self
    }

    /// Toggles depcheck on an existing builder (see [`Builder::with_depcheck`]).
    /// The daemon flips this per request: audit builds run instrumented,
    /// ordinary serves do not pay the serialization cost.
    pub fn set_depcheck(&mut self, on: bool) {
        self.depcheck = on;
    }

    /// The optimized IR of one module, reassembled from the query store in
    /// roster (definition) order — available for *any* module the last
    /// build touched, including warm modules whose report entry carries no
    /// [`CompileOutput`] because nothing recompiled. `None` when the store
    /// has no artifacts for the module (never built, or evicted).
    pub fn module_ir(&self, module: &str) -> Option<sfcc_ir::Module> {
        let roster = self
            .engine
            .peek(&BuildTask::ModCheck(module.to_string()))?
            .expect_modcheck()
            .roster
            .clone();
        let mut ir = sfcc_ir::Module::new(module.to_string());
        for f in &roster {
            let art = self
                .engine
                .peek(&BuildTask::OptimizeFn(module.to_string(), f.clone()))?
                .expect_optimizefn();
            ir.functions.push(art.func.clone());
        }
        Some(ir)
    }

    /// Records a hierarchical span trace of every subsequent build
    /// (build → wave → module → phase → function → pass, plus
    /// query/cache/IO events) into [`BuildReport::trace`]. Builds with
    /// tracing installed serialize process-wide (the tracer is global);
    /// the build outputs themselves are unaffected.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Enables parallel compilation within each wave, with one worker per
    /// available core.
    pub fn with_parallelism(self) -> Self {
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        self.with_jobs(cores)
    }

    /// Sets the worker count for within-wave parallel compilation. `1`
    /// (also the floor) means fully sequential builds. The value is a cap,
    /// not a demand: the pool is sized at
    /// `min(jobs, available parallelism)` when builds run, so an oversized
    /// `--jobs` on a small host costs nothing (outputs are byte-identical
    /// for every worker count either way).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The underlying compiler session (state persistence, cache counters).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Drops the query store (forcing the next build to re-execute every
    /// task) while keeping the compiler's dormancy state.
    pub fn clear_cache(&mut self) {
        self.engine.clear();
    }

    /// Builds the project incrementally and links a complete program.
    ///
    /// # Errors
    ///
    /// [`BuildError::Graph`] for a bad import graph, [`BuildError::Compile`]
    /// for the first module that fails to compile, [`BuildError::Link`] if
    /// the final link fails.
    pub fn build(&mut self, project: &Project) -> Result<BuildReport, BuildError> {
        let start = Instant::now();
        let snap_before = sfcc_passes::snapshot_stats();
        let trace_handle = self.tracing.then(sfcc_trace::install);
        // Depcheck instrumentation: the access log captures note_access
        // calls from every thread (task attribution rides across pool
        // spawns); the op recorder is thread-local and resets the op
        // counter, so depcheck builds are incompatible with an installed
        // fault plan — an accepted limitation of the audit mode.
        let access_guard = self.depcheck.then(sfcc_faultfs::record_accesses);
        let op_guard = self.depcheck.then(sfcc_faultfs::record);
        let ops_before = sfcc_faultfs::op_counts();
        let root = sfcc_trace::span("build", "build", 0);

        // Drop tasks of modules that left the project so their objects
        // cannot leak into the link; dependents are invalidated by the
        // missing nodes (and by the manifest stamp).
        self.engine
            .retain(|task| task.module().is_none_or(|m| project.contains(m)));

        // Shared-store session boundary: clear per-session serve records,
        // pick up other processes' commits, and (adversarially) install any
        // seeded key-component drops for this build.
        self.compiler.cas_set_key_drops(self.mutations.key_drops());
        self.compiler.cas_begin_session();

        let mut spec = BuildSpec::new(
            project,
            &mut self.compiler,
            self.jobs,
            self.mutations.clone(),
        );
        self.engine.begin_session(&mut spec);

        let graph = self
            .engine
            .require(&mut spec, &BuildTask::Graph)
            .map_err(seal)?
            .expect_graph();

        // Definition-order function rosters, per module, filled in wave
        // order; drives codegen assembly, report assembly, and end-of-build
        // garbage collection of per-function tasks and state records.
        let mut rosters: HashMap<String, Vec<String>> = HashMap::new();

        let mut wave_ids: Vec<SpanId> = Vec::with_capacity(graph.waves().len());
        for (wave_idx, wave) in graph.waves().iter().enumerate() {
            let wave_span = sfcc_trace::span("wave", format!("wave {wave_idx}"), wave_idx as u64);
            wave_ids.push(wave_span.id());
            // Plan the wave at function grain: demand each module's roster,
            // probe each function's optimizefn for staleness, and assemble
            // one restricted batch per module from the stale functions'
            // union call closure. Probing validates (and where needed
            // executes) the cheap frontend chain — parse, fnast, signature,
            // checkfn, lowerfn — whose fingerprints decide how far each
            // edit's blast radius really extends.
            let mut batches: Vec<WaveBatch> = Vec::new();
            for name in wave {
                self.engine
                    .require(&mut spec, &BuildTask::Interface(name.clone()))
                    .map_err(seal)?;
                let modcheck = self
                    .engine
                    .require(&mut spec, &BuildTask::ModCheck(name.clone()))
                    .map_err(seal)?
                    .expect_modcheck();
                rosters.insert(name.clone(), modcheck.roster.clone());
                let mut stale: Vec<String> = Vec::new();
                for f in &modcheck.roster {
                    let fresh = self
                        .engine
                        .up_to_date(&mut spec, &BuildTask::OptimizeFn(name.clone(), f.clone()))
                        .map_err(seal)?;
                    if !fresh {
                        stale.push(f.clone());
                    }
                }
                if stale.is_empty() {
                    continue;
                }
                // Union call closure of the stale set from memoized lowerfn
                // values, sorted by name so the batch module is identical
                // for every demand order and --jobs value.
                let closure = call_closure(name, &stale, |g| {
                    self.engine
                        .require(&mut spec, &BuildTask::LowerFn(name.clone(), g.to_string()))
                        .map(|v| v.expect_lowerfn())
                })
                .map_err(seal)?;
                let mut ir = sfcc_ir::Module::new(name.clone());
                for func in closure.values() {
                    ir.functions.push((**func).clone());
                }
                batches.push(WaveBatch {
                    module: name.clone(),
                    ir,
                    stale,
                });
            }
            // One restricted run per module with stale functions — on the
            // shared pool when --jobs allows, sequentially otherwise; the
            // same batches either way, so results and traces are identical.
            spec.run_batches(batches);
            let codegen = wave.iter().try_for_each(|name| {
                self.engine
                    .require(&mut spec, &BuildTask::Codegen(name.clone()))
                    .map(drop)
            });
            // Wave boundary: commit the dormancy traces of the wave's
            // optimizefn tasks — even when a codegen failed, since those
            // tasks' recorded stamps already assume the commit — then
            // publish the wave's fresh cache entries so the next wave can
            // hit them, at the same point for every --jobs.
            spec.commit_state();
            codegen.map_err(seal)?;
            spec.flush_cache_inserts();
        }

        let link_span = sfcc_trace::span("link", "link", graph.waves().len() as u64);
        let program = (*self
            .engine
            .require(&mut spec, &BuildTask::Link)
            .map_err(seal)?
            .expect_link())
        .clone();
        drop(link_span);
        let query_log = spec.take_query_log();

        // Function-grain dependency accounting: how often per-function
        // signature pins validated, and how many function-pipeline
        // re-executions the per-function cutoffs saved.
        let mut fngrain = FngrainStats::default();
        for (task, hit) in &query_log {
            if task.starts_with("signature(") {
                if *hit {
                    fngrain.signature_hits += 1;
                } else {
                    fngrain.signature_misses += 1;
                }
            } else if task.starts_with("checkfn(")
                || task.starts_with("lowerfn(")
                || task.starts_with("optimizefn(")
            {
                if *hit {
                    fngrain.cutoff_saved += 1;
                } else {
                    fngrain.fn_tasks_executed += 1;
                }
            }
        }

        // Dependency-soundness verdict: diff the recorded evidence against
        // the engine's dependency traces while the spec (raw stamps) and
        // engine (dep traces) are both still on hand.
        let depcheck_report = match (&access_guard, &op_guard) {
            (Some(accesses), Some(ops)) => Some(depcheck::analyze(
                &self.engine,
                &mut spec,
                &accesses.take(),
                &ops.take(),
            )),
            _ => None,
        };
        drop(op_guard);
        drop(access_guard);

        // Assemble the report from the store: a module counts as rebuilt
        // when any of its per-function pipeline tasks (or its codegen)
        // actually executed this session — validated-but-cached tasks, and
        // the parse/fnast probes whose unchanged fingerprints *caused* the
        // cutoffs, do not count.
        let executed: HashSet<&BuildTask> = self.engine.executed_keys().iter().collect();
        let mut modules = Vec::with_capacity(graph.len());
        for name in graph.topo_order() {
            let roster = rosters.get(name).cloned().unwrap_or_default();
            let rebuilt = executed.contains(&BuildTask::Codegen(name.clone()))
                || roster.iter().any(|f| {
                    [
                        BuildTask::CheckFn(name.clone(), f.clone()),
                        BuildTask::LowerFn(name.clone(), f.clone()),
                        BuildTask::OptimizeFn(name.clone(), f.clone()),
                    ]
                    .iter()
                    .any(|t| executed.contains(t))
                });
            let output = if rebuilt {
                let interface = self
                    .engine
                    .peek(&BuildTask::Interface(name.clone()))
                    .expect("a built module has an interface value")
                    .expect_interface();
                let object = self
                    .engine
                    .peek(&BuildTask::Codegen(name.clone()))
                    .expect("a built module has a codegen value")
                    .expect_codegen();
                // Reassemble the module IR and pipeline trace from the
                // per-function store values, in roster (definition) order.
                // Functions whose optimizefn validated contributed no pass
                // work this build, so only executed ones enter the trace.
                let mut ir = sfcc_ir::Module::new(name.clone());
                let mut functions = Vec::new();
                for f in &roster {
                    let art = self
                        .engine
                        .peek(&BuildTask::OptimizeFn(name.clone(), f.clone()))
                        .expect("a built module has every roster optimizefn value")
                        .expect_optimizefn();
                    ir.functions.push(art.func.clone());
                    if executed.contains(&BuildTask::OptimizeFn(name.clone(), f.clone())) {
                        functions.push(art.ftrace.clone());
                    }
                }
                let snap = spec.take_snapshots(name);
                let trace = PipelineTrace {
                    module: name.clone(),
                    functions,
                    snapshot_clones: snap.clones,
                    snapshot_cost_units: snap.cost_units,
                    snapshot_reused: snap.reused,
                    batch_count: snap.batch_count,
                    batch_max_cost: snap.batch_max_cost,
                };
                Some(CompileOutput {
                    object: (*object).clone(),
                    ir,
                    interface: (*interface).clone(),
                    trace,
                    timings: spec.take_timings(name),
                })
            } else {
                None
            };
            modules.push(ModuleReport {
                name: name.clone(),
                rebuilt,
                output,
            });
        }

        let stats = self.engine.session_stats();
        let query = QueryStats {
            hits: stats.hits,
            misses: stats.misses,
            executed: self
                .engine
                .executed_keys()
                .iter()
                .map(ToString::to_string)
                .collect(),
        };

        let link_ns = spec.link_ns();
        drop(spec);

        // Garbage-collect function-grained tasks (and dormancy records) of
        // functions that left their module's roster, so deleted functions
        // cannot linger in the store or the state database.
        self.engine.retain(|task| match task.function() {
            Some((m, f)) => rosters.get(m).is_some_and(|r| r.iter().any(|g| g == f)),
            None => true,
        });
        for (module, roster) in &rosters {
            self.compiler
                .retain_state_functions(module, |f| roster.iter().any(|g| g == f));
        }

        // Recovery accounting: any quarantine / cold-start decision the
        // compiler session took when it loaded persistent state.
        let events = self.compiler.recovery_events();
        let recovered_files = events.len();
        let quarantined = events
            .iter()
            .filter_map(|e| e.quarantined_to.as_ref())
            .map(|p| p.display().to_string())
            .collect();

        let mut report = BuildReport {
            program,
            wall_ns: start.elapsed().as_nanos() as u64,
            link_ns,
            modules,
            query,
            fngrain,
            jobs: self.jobs,
            outcome: "success".to_string(),
            state_generation: 0,
            recovered_files,
            quarantined,
            depcheck: depcheck_report,
            metrics: MetricsSnapshot::default(),
            trace: None,
        };

        // Populate the metrics registry — the single source for every
        // numeric the JSON report emits — then snapshot it into the report.
        let registry = Registry::new();
        record_report_metrics(&report, graph.waves().len(), &registry);
        self.compiler.record_metrics(&registry);
        let ops = sfcc_faultfs::op_counts().delta_since(&ops_before);
        registry.gauge_set("faultfs.reads", ops.reads);
        registry.gauge_set("faultfs.writes", ops.writes);
        registry.gauge_set("faultfs.renames", ops.renames);
        registry.gauge_set("faultfs.removes", ops.removes);
        registry.gauge_set("faultfs.sync_files", ops.sync_files);
        registry.gauge_set("faultfs.sync_dirs", ops.sync_dirs);
        // Snapshot-clone wall time is jobs-variant and registry-only; the
        // deterministic clone/cost counters live in the report (summed from
        // the per-module traces by record_report_metrics).
        let snap = sfcc_passes::snapshot_stats().delta_since(&snap_before);
        registry.gauge_set("snapshot.wall_ns", snap.wall_ns);
        report.metrics = registry.snapshot();

        // The deterministic portion of the trace (module/phase/function/
        // pass subtrees, query instants, session roll-ups) is emitted
        // synthetically from the assembled report, so its structure cannot
        // depend on worker scheduling.
        if trace_handle.is_some() {
            emit_trace_tree(&report, graph.waves(), &wave_ids, root.id(), &query_log);
            let seq = graph.waves().len() as u64;
            let cache = self.compiler.cache_stats();
            sfcc_trace::emit_instant(
                root.id(),
                "cache",
                "fn-cache",
                seq + 2,
                vec![
                    ("hits", ArgValue::U64(cache.hits)),
                    ("misses", ArgValue::U64(cache.misses)),
                    ("evictions", ArgValue::U64(cache.evictions)),
                    ("entries", ArgValue::U64(cache.entries as u64)),
                ],
            );
            sfcc_trace::emit_instant(
                root.id(),
                "io",
                "faultfs-ops",
                seq + 3,
                vec![
                    ("reads", ArgValue::U64(ops.reads)),
                    ("writes", ArgValue::U64(ops.writes)),
                    ("renames", ArgValue::U64(ops.renames)),
                    ("removes", ArgValue::U64(ops.removes)),
                    ("sync_files", ArgValue::U64(ops.sync_files)),
                    ("sync_dirs", ArgValue::U64(ops.sync_dirs)),
                ],
            );
            if let Some(dc) = &report.depcheck {
                sfcc_trace::emit_instant(
                    root.id(),
                    "depcheck",
                    "dep-soundness",
                    seq + 4,
                    vec![
                        ("findings", ArgValue::U64(dc.findings.len() as u64)),
                        ("tasks_checked", ArgValue::U64(dc.tasks_checked)),
                        ("accesses", ArgValue::U64(dc.accesses)),
                    ],
                );
            }
        }
        drop(root);
        if let Some(handle) = trace_handle {
            report.trace = Some(handle.finish());
        }
        Ok(report)
    }
}

/// Gauges mirroring every numeric field of the JSON report. The report's
/// `to_json` reads these back (see [`BuildReport::to_json`]), so a value
/// recorded here *is* the value the report prints.
fn record_report_metrics(report: &BuildReport, waves: usize, registry: &Registry) {
    registry.gauge_set("build.wall_ns", report.wall_ns);
    registry.gauge_set("build.link_ns", report.link_ns);
    registry.gauge_set("build.compile_ns", report.compile_ns());
    registry.gauge_set("build.rebuilt_count", report.rebuilt_count() as u64);
    registry.gauge_set("build.jobs", report.jobs as u64);
    registry.gauge_set("build.modules", report.modules.len() as u64);
    registry.gauge_set("build.waves", waves as u64);
    registry.gauge_set("build.executed_cost_units", report.executed_cost_units());
    let (active, dormant, skipped) = report.outcome_totals();
    registry.gauge_set("outcomes.active", active as u64);
    registry.gauge_set("outcomes.dormant", dormant as u64);
    registry.gauge_set("outcomes.skipped", skipped as u64);
    registry.gauge_set("query.hits", report.query.hits);
    registry.gauge_set("query.misses", report.query.misses);
    registry.gauge_set("query.executed", report.query.executed.len() as u64);
    registry.gauge_set("fngrain.signature_hits", report.fngrain.signature_hits);
    registry.gauge_set("fngrain.signature_misses", report.fngrain.signature_misses);
    registry.gauge_set(
        "fngrain.fn_tasks_executed",
        report.fngrain.fn_tasks_executed,
    );
    registry.gauge_set("fngrain.cutoff_saved", report.fngrain.cutoff_saved);
    let parallel = report.parallel_stats();
    registry.gauge_set("snapshot.clones", parallel.snapshot_clones);
    registry.gauge_set("snapshot.cost_units", parallel.snapshot_cost_units);
    registry.gauge_set("snapshot.reused", parallel.snapshot_reused);
    registry.gauge_set("batch.count", parallel.batch_count);
    registry.gauge_set("batch.max_cost", parallel.batch_max_cost);
    registry.gauge_set("recovery.recovered_files", report.recovered_files as u64);
    registry.gauge_set("recovery.quarantined", report.quarantined.len() as u64);
    // Depcheck gauges are emitted on *every* build — zeros when the audit
    // is off — so the report schema never loses keys on any exit path.
    let quiet = DepcheckReport::default();
    let (enabled, dc) = match &report.depcheck {
        Some(dc) => (1, dc),
        None => (0, &quiet),
    };
    registry.gauge_set("depcheck.enabled", enabled);
    registry.gauge_set("depcheck.findings", dc.findings.len() as u64);
    registry.gauge_set(
        "depcheck.missing",
        dc.count(crate::depcheck::DepFindingKind::MissingDep) as u64,
    );
    registry.gauge_set(
        "depcheck.redundant",
        dc.count(crate::depcheck::DepFindingKind::RedundantDep) as u64,
    );
    registry.gauge_set(
        "depcheck.stale",
        dc.count(crate::depcheck::DepFindingKind::StaleServe) as u64,
    );
    registry.gauge_set(
        "depcheck.untracked_io",
        dc.count(crate::depcheck::DepFindingKind::UntrackedIo) as u64,
    );
    registry.gauge_set("depcheck.tasks_checked", dc.tasks_checked);
    registry.gauge_set("depcheck.accesses", dc.accesses);
    for agg in report.pass_profile() {
        registry.gauge_set(&format!("pass.{}.total_ns", agg.pass), agg.total_ns);
        registry.gauge_set(&format!("pass.{}.runs", agg.pass), agg.runs);
        registry.gauge_set(&format!("pass.{}.skipped", agg.pass), agg.skipped);
    }
    for agg in report.slowest_slots(usize::MAX) {
        registry.gauge_set(&format!("slot.{}.total_ns", agg.slot), agg.total_ns);
        registry.gauge_set(&format!("slot.{}.runs", agg.slot), agg.runs);
    }
    for module in &report.modules {
        let Some(output) = &module.output else {
            continue;
        };
        let key = |field: &str| format!("module.{}.{field}", module.name);
        let t = &output.timings;
        registry.gauge_set(&key("frontend_ns"), t.frontend_ns);
        registry.gauge_set(&key("lower_ns"), t.lower_ns);
        registry.gauge_set(&key("middle_ns"), t.middle_ns);
        registry.gauge_set(&key("backend_ns"), t.backend_ns);
        registry.gauge_set(&key("state_ns"), t.state_ns);
        registry.gauge_set(&key("optimize_ns"), t.middle_ns + t.state_ns);
        let (a, d, s) = output.outcome_totals();
        registry.gauge_set(&key("active"), a as u64);
        registry.gauge_set(&key("dormant"), d as u64);
        registry.gauge_set(&key("skipped"), s as u64);
    }
}

/// Emits the deterministic synthetic span subtrees of one build: per-module
/// pipelines (module → phase → function → pass, costs in live-instruction
/// units) under their wave spans, and the session's query demand instants
/// sorted by task name so the exported bytes are identical for every
/// `--jobs` value.
fn emit_trace_tree(
    report: &BuildReport,
    waves: &[Vec<String>],
    wave_ids: &[SpanId],
    root: SpanId,
    query_log: &[(String, bool)],
) {
    let mut wave_pos: HashMap<&str, (usize, u64)> = HashMap::new();
    for (w, wave) in waves.iter().enumerate() {
        for (i, name) in wave.iter().enumerate() {
            wave_pos.insert(name.as_str(), (w, i as u64));
        }
    }
    for module in &report.modules {
        let Some(&(w, pos)) = wave_pos.get(module.name.as_str()) else {
            continue;
        };
        let parent = wave_ids.get(w).copied().unwrap_or(root);
        let Some(output) = &module.output else {
            sfcc_trace::emit_instant(
                parent,
                "module",
                &module.name,
                pos,
                vec![("rebuilt", ArgValue::Bool(false))],
            );
            continue;
        };
        let module_span = sfcc_trace::emit_span(
            parent,
            "module",
            &module.name,
            pos,
            0,
            output.timings.total_ns(),
            vec![("rebuilt", ArgValue::Bool(true))],
        );
        let t = &output.timings;
        let phases = [
            ("frontend", t.frontend_ns),
            ("lower", t.lower_ns),
            ("middle", t.middle_ns),
            ("backend", t.backend_ns),
            ("state", t.state_ns),
        ];
        for (pi, (phase, wall_ns)) in phases.iter().enumerate() {
            let phase_span = sfcc_trace::emit_span(
                module_span,
                "phase",
                *phase,
                pi as u64,
                0,
                *wall_ns,
                Vec::new(),
            );
            if *phase != "middle" {
                continue;
            }
            for (fi, func) in output.trace.functions.iter().enumerate() {
                let fn_span = sfcc_trace::emit_span(
                    phase_span,
                    "function",
                    &func.function,
                    fi as u64,
                    0,
                    func.total_nanos(),
                    Vec::new(),
                );
                for (ri, rec) in func.records.iter().enumerate() {
                    // A skipped slot did no work: its span costs nothing
                    // on the deterministic timeline, but still appears
                    // exactly once, tagged with its outcome.
                    let cost = if rec.outcome == PassOutcome::Skipped {
                        0
                    } else {
                        rec.cost_units
                    };
                    sfcc_trace::emit_span(
                        fn_span,
                        "pass",
                        &rec.pass,
                        ri as u64,
                        cost,
                        rec.nanos,
                        vec![
                            ("outcome", ArgValue::Str(rec.outcome.to_string())),
                            ("slot", ArgValue::U64(rec.slot as u64)),
                        ],
                    );
                }
            }
        }
        // Per-stage module-snapshot cloning of this module's restricted
        // optimization runs: deterministic counters (clones, summed
        // deep-clone cost, and copy-on-write Arc reuses), safe in
        // byte-stable traces.
        sfcc_trace::emit_instant(
            module_span,
            "snapshot_clone",
            "snapshots",
            phases.len() as u64,
            vec![
                ("clones", ArgValue::U64(output.trace.snapshot_clones)),
                (
                    "cost_units",
                    ArgValue::U64(output.trace.snapshot_cost_units),
                ),
                ("reused", ArgValue::U64(output.trace.snapshot_reused)),
            ],
        );
    }
    // Query demand instants: one per demanded task, sorted by task name —
    // the *set* is jobs-independent even though the demand order is not.
    let query_span = sfcc_trace::emit_span(
        root,
        "query",
        "queries",
        waves.len() as u64 + 1,
        0,
        0,
        Vec::new(),
    );
    let mut log: Vec<&(String, bool)> = query_log.iter().collect();
    log.sort();
    for (i, (task, hit)) in log.into_iter().enumerate() {
        sfcc_trace::emit_instant(
            query_span,
            "query",
            task,
            i as u64,
            vec![("hit", ArgValue::Bool(*hit))],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::interface_hash;
    use sfcc::Config;

    fn project(files: &[(&str, &str)]) -> Project {
        let mut p = Project::new();
        for (name, src) in files {
            p.set_file(name.to_string(), src.to_string());
        }
        p
    }

    fn three_module_project() -> Project {
        project(&[
            ("base", "fn g(x: int) -> int { return x * 2; }"),
            (
                "lib",
                "import base;\nfn f(x: int) -> int { return base::g(x) + 1; }",
            ),
            (
                "main",
                "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
            ),
        ])
    }

    #[test]
    fn full_build_then_noop_rebuild() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let p = three_module_project();
        let first = builder.build(&p).unwrap();
        assert_eq!(first.rebuilt_count(), 3);
        let again = builder.build(&p).unwrap();
        assert_eq!(again.rebuilt_count(), 0);
        assert_eq!(again.query.misses, 0);
        // The program is still complete and runnable.
        let out = sfcc_backend::run(
            &again.program,
            "main.main",
            &[21],
            sfcc_backend::VmOptions::default(),
        )
        .unwrap();
        assert_eq!(out.return_value, Some(43));
    }

    #[test]
    fn body_edit_rebuilds_one_module() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = three_module_project();
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g(x: int) -> int { return x * 3; }".into(),
        );
        let report = builder.build(&p).unwrap();
        assert_eq!(report.rebuilt_count(), 1);
        assert!(report.module("base").unwrap().rebuilt);
        assert!(!report.module("lib").unwrap().rebuilt);
        assert!(report.module("lib").unwrap().output.is_none());
    }

    #[test]
    fn body_edit_executes_only_that_functions_pipeline() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = three_module_project();
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g(x: int) -> int { return x * 3; }".into(),
        );
        let report = builder.build(&p).unwrap();
        // The re-executed tasks are exactly the edited function's pipeline
        // (plus the parse-level re-extractions whose unchanged fingerprints
        // are what spare everyone else) and the relink. Nothing of lib or
        // main — not even signature probes — re-executes.
        let mut executed = report.query.executed.clone();
        executed.sort();
        assert_eq!(
            executed,
            vec![
                "checkfn(base::g)",
                "codegen(base)",
                "fnast(base::g)",
                "imports(base)",
                "interface(base)",
                "link",
                "lowerfn(base::g)",
                "modcheck(base)",
                "optimizefn(base::g)",
                "parse(base)",
            ]
        );
        assert_eq!(report.query.misses, 10);
        assert!(report.query.hits > 0);
        assert_eq!(report.fngrain.fn_tasks_executed, 3);
    }

    #[test]
    fn added_function_does_not_rebuild_importers() {
        // The headline of function-granularity dependencies: adding a
        // function changes base's *interface hash*, but lib's checkfn
        // recorded a dependency on signature(base::g) alone — which is
        // unchanged — so no lib or main task re-executes. Under the old
        // module-grained taxonomy this edit rebuilt lib.
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = three_module_project();
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g(x: int) -> int { return x * 2; }\nfn extra() -> int { return 7; }".into(),
        );
        let report = builder.build(&p).unwrap();
        assert!(report.module("base").unwrap().rebuilt);
        assert!(!report.module("lib").unwrap().rebuilt);
        assert!(!report.module("main").unwrap().rebuilt);
        assert_eq!(report.rebuilt_count(), 1);
        let executed = &report.query.executed;
        // base re-runs the new function's pipeline and re-assembles its
        // object; the signature pin lib holds on base::g re-executes (its
        // interface dependency changed) but fingerprints identically.
        assert!(executed.iter().any(|t| t == "optimizefn(base::extra)"));
        assert!(executed.iter().any(|t| t == "signature(base::g)"));
        // lib's module-check re-derives (its interface(base) dependency
        // changed) but fingerprints identically, so nothing of lib's — or
        // main's — *pipeline* re-executes: no checkfn, no optimizefn, no
        // codegen, and no per-function task at all.
        assert!(executed.iter().any(|t| t == "modcheck(lib)"));
        for t in executed {
            assert!(!t.contains("lib::"), "lib function task re-executed: {t}");
            assert!(!t.contains("main::"), "main function task re-executed: {t}");
            assert_ne!(t, "codegen(lib)");
            assert_ne!(t, "codegen(main)");
            assert_ne!(t, "modcheck(main)");
        }
        // The cutoff ledger shows the signature pin validating downstream.
        assert!(report.fngrain.signature_hits > 0 || report.fngrain.cutoff_saved > 0);
    }

    #[test]
    fn signature_edit_reaches_only_callers() {
        // Two functions in base, one caller each in lib. Editing g2's
        // signature (and its one caller, atomically) must not re-execute
        // f1's pipeline: f1 depends on signature(base::g1) only.
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            (
                "base",
                "fn g1(x: int) -> int { return x + 1; }\nfn g2(x: int) -> int { return x + 2; }",
            ),
            (
                "lib",
                "import base;\nfn f1(x: int) -> int { return base::g1(x); }\nfn f2(x: int) -> int { return base::g2(x); }",
            ),
        ]);
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g1(x: int) -> int { return x + 1; }\nfn g2(x: int, y: int) -> int { return x + y; }"
                .into(),
        );
        p.set_file(
            "lib".into(),
            "import base;\nfn f1(x: int) -> int { return base::g1(x); }\nfn f2(x: int) -> int { return base::g2(x, x); }"
                .into(),
        );
        let report = builder.build(&p).unwrap();
        let executed = &report.query.executed;
        assert!(executed.iter().any(|t| t == "checkfn(lib::f2)"));
        assert!(!executed.iter().any(|t| t == "checkfn(lib::f1)"));
        assert!(!executed.iter().any(|t| t == "optimizefn(lib::f1)"));
        // g1 itself was not edited either: its whole pipeline validates.
        assert!(!executed.iter().any(|t| t == "checkfn(base::g1)"));
        assert!(!executed.iter().any(|t| t == "optimizefn(base::g1)"));
    }

    #[test]
    fn import_list_change_makes_module_stale() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            ("a", "fn f() -> int { return 1; }"),
            ("main", "fn main(n: int) -> int { return n; }"),
        ]);
        builder.build(&p).unwrap();
        p.set_file(
            "main".into(),
            "import a;\nfn main(n: int) -> int { return a::f() + n; }".into(),
        );
        let report = builder.build(&p).unwrap();
        assert!(report.module("main").unwrap().rebuilt);
        assert!(!report.module("a").unwrap().rebuilt);
    }

    #[test]
    fn removed_module_leaves_the_program() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            ("dead", "fn f() -> int { return 1; }"),
            ("main", "fn main(n: int) -> int { return n; }"),
        ]);
        builder.build(&p).unwrap();
        p.remove_file("dead");
        let report = builder.build(&p).unwrap();
        assert_eq!(report.modules.len(), 1);
        assert!(report.module("dead").is_none());
    }

    #[test]
    fn removed_function_is_garbage_collected() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[(
            "m",
            "fn keep(x: int) -> int { return x; }\nfn gone() -> int { return 1; }",
        )]);
        builder.build(&p).unwrap();
        let before = builder.engine.len();
        p.set_file("m".into(), "fn keep(x: int) -> int { return x; }".into());
        builder.build(&p).unwrap();
        // gone's five per-function tasks left the store.
        assert!(builder.engine.len() < before);
    }

    #[test]
    fn edit_introducing_cycle_is_diagnosed_not_hung() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            ("a", "fn f() -> int { return 1; }"),
            ("b", "import a;\nfn g() -> int { return a::f(); }"),
        ]);
        builder.build(&p).unwrap();
        // The edit closes a cycle a -> b -> a; the incremental build must
        // report it exactly like a from-scratch build would.
        p.set_file(
            "a".into(),
            "import b;\nfn f() -> int { return b::g(); }".into(),
        );
        let err = builder.build(&p).unwrap_err();
        assert_eq!(err.to_string(), "import cycle: a -> b -> a");
        // Fixing the edit recovers without clearing the cache.
        p.set_file("a".into(), "fn f() -> int { return 2; }".into());
        let report = builder.build(&p).unwrap();
        assert!(report.module("a").unwrap().rebuilt);
    }

    #[test]
    fn compile_errors_name_the_module() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let p = project(&[("bad", "fn f( -> int { return 1; }")]);
        let err = builder.build(&p).unwrap_err();
        match err {
            BuildError::Compile { module, .. } => assert_eq!(module, "bad"),
            other => panic!("expected compile error, got {other}"),
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let p = three_module_project();
        let mut seq = Builder::new(Compiler::new(Config::stateless()));
        let mut par = Builder::new(Compiler::new(Config::stateless())).with_jobs(4);
        let a = seq.build(&p).unwrap();
        let b = par.build(&p).unwrap();
        assert_eq!(
            sfcc_backend::image::to_bytes(&a.program),
            sfcc_backend::image::to_bytes(&b.program)
        );
        assert_eq!(a.rebuilt_count(), b.rebuilt_count());
    }

    #[test]
    fn interface_hash_ignores_bodies_and_order() {
        let a = sfcc::extract_interface(
            "m",
            "fn f(x: int) -> int { return 1; }\nfn g() -> int { return 2; }",
        )
        .unwrap();
        let b = sfcc::extract_interface(
            "m",
            "fn g() -> int { return 99; }\nfn f(x: int) -> int { return x * 5; }",
        )
        .unwrap();
        assert_eq!(interface_hash(&a), interface_hash(&b));
        let c = sfcc::extract_interface("m", "fn f(x: int, y: int) -> int { return 1; }").unwrap();
        assert_ne!(interface_hash(&a), interface_hash(&c));
    }
}
