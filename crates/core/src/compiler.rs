//! The compiler session: front end → lowering → (skippable) pass pipeline →
//! object code, with dormancy recording in stateful mode.

use crate::config::{Config, OptLevel};
use crate::fncache::{CacheStats, FunctionCache};
use crate::persist::{self, RecoveryEvent};
use crate::phases::{self, OptimizeOutcome};
use sfcc_backend::CodeObject;
use sfcc_cas::{CasStats, CasStore, KeyComponents, ServedStamps, DEFAULT_BACKEND_VERSION};
use sfcc_codec::fnv64;
use sfcc_frontend::{CheckedModule, Diagnostics, ModuleEnv, ModuleInterface, SourceFile};
use sfcc_ir::Fingerprint;
use sfcc_passes::{
    default_pipeline, minimal_pipeline, scalar_pipeline, FunctionTrace, Pipeline, PipelineTrace,
    RunOptions,
};
use sfcc_pool::PoolScope;
use sfcc_state::{statefile, DecodeError, StateDb};
use std::fmt;
use std::io;
use std::time::Instant;

/// Wall-clock time per compilation phase, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Lexing, parsing, semantic analysis.
    pub frontend_ns: u64,
    /// AST → IR lowering.
    pub lower_ns: u64,
    /// The optimization pipeline (including skipped-pass bookkeeping).
    pub middle_ns: u64,
    /// Codegen to object code.
    pub backend_ns: u64,
    /// State lookup + ingestion (stateful mode overhead).
    pub state_ns: u64,
}

impl PhaseTimings {
    /// Total across all phases.
    pub fn total_ns(&self) -> u64 {
        self.frontend_ns + self.lower_ns + self.middle_ns + self.backend_ns + self.state_ns
    }
}

/// Everything a successful compilation produces.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The relocatable object code.
    pub object: CodeObject,
    /// The optimized IR (useful for inspection and tests).
    pub ir: sfcc_ir::Module,
    /// The module's exported interface.
    pub interface: ModuleInterface,
    /// Per-pass instrumentation.
    pub trace: PipelineTrace,
    /// Phase timings.
    pub timings: PhaseTimings,
}

impl CompileOutput {
    /// `(active, dormant, skipped)` pass-slot totals.
    pub fn outcome_totals(&self) -> (usize, usize, usize) {
        self.trace.outcome_totals()
    }
}

/// A compilation failure.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The source did not parse or type-check; carries rendered diagnostics.
    Frontend {
        /// Human-readable diagnostics.
        rendered: String,
        /// Number of errors.
        errors: usize,
    },
    /// Code generation failed (indicates an internal bug, not bad input).
    Backend(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend { rendered, errors } => {
                write!(f, "{rendered}\n{errors} error(s)")
            }
            CompileError::Backend(msg) => write!(f, "backend failure: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Extracts a module's interface by parsing only (no type checking). Used by
/// build systems to seed the [`ModuleEnv`] before compiling dependents.
pub fn extract_interface(name: &str, source: &str) -> Result<ModuleInterface, CompileError> {
    let mut diags = Diagnostics::new();
    let ast = sfcc_frontend::parser::parse(name, source, &mut diags);
    if diags.has_errors() {
        let file = SourceFile::new(format!("{name}.mc"), source);
        return Err(CompileError::Frontend {
            rendered: diags.render_all(&file),
            errors: diags.error_count(),
        });
    }
    Ok(ModuleInterface::of(&ast))
}

/// A compiler session.
///
/// A session corresponds to one long-lived compiler process (or one state
/// directory on disk): in stateful mode the dormancy database persists
/// across [`Compiler::compile`] calls and, when
/// [`Config::state_path`] is set, across sessions via
/// [`Compiler::save_state`]. The state is written at sequenced points only,
/// and always through [`StateDb::ingest`]: after each module in
/// [`Compiler::compile`], and once per module per wave when an incremental
/// driver calls [`Compiler::commit_state`]. Optimization itself only reads
/// it.
pub struct Compiler {
    config: Config,
    pipeline: Pipeline,
    pipeline_hash: Fingerprint,
    state: StateDb,
    state_load_error: Option<DecodeError>,
    fn_cache: FunctionCache,
    /// The shared content-addressed artifact store, consulted below the
    /// in-process function cache ([`Config::cas_path`]). `None` when
    /// disabled or when opening the store failed (the session degrades to
    /// cache-only; a broken store must never fail a build).
    cas: Option<CasStore>,
    recovery_events: Vec<RecoveryEvent>,
}

impl fmt::Debug for Compiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compiler")
            .field("mode", &self.config.mode.label())
            .field("functions_tracked", &self.state.function_count())
            .finish()
    }
}

impl Compiler {
    /// Creates a session, loading persisted state when configured.
    pub fn new(config: Config) -> Self {
        let pipeline = match config.opt_level {
            OptLevel::O0 => minimal_pipeline(),
            OptLevel::O1 => scalar_pipeline(),
            OptLevel::O2 => default_pipeline(),
        };
        let pipeline_hash = StateDb::pipeline_hash(&pipeline.slot_names());
        let want_state = config.mode.is_stateful();
        let want_cache = config.function_cache;
        let (state, state_load_error, fn_cache, recovery_events) = match &config.state_path {
            Some(path) if want_state || want_cache => {
                let loaded = persist::load(path, want_state, want_cache);
                (loaded.db, loaded.db_error, loaded.cache, loaded.events)
            }
            _ => (StateDb::new(), None, FunctionCache::new(), Vec::new()),
        };
        let cas = config.cas_path.as_ref().and_then(|dir| {
            // The key's flag digest covers exactly the configuration that
            // changes generated code and is *not* already in the pipeline
            // fingerprint: mode (skip policy) and verification. The opt
            // level selects the pass pipeline, so the pipeline component
            // keys it; cache toggles and job counts are excluded by
            // design — they are proven not to change bytes.
            let flag_repr = format!("mode={};verify={}", config.mode.label(), config.verify_each);
            let components = KeyComponents {
                pipeline: pipeline_hash,
                flags: fnv64(flag_repr.as_bytes()),
                backend: config
                    .cas_backend_version
                    .unwrap_or(DEFAULT_BACKEND_VERSION),
                flag_repr,
                pipeline_repr: pipeline.slot_names().join(","),
            };
            CasStore::open_dir(dir, components, config.durability)
                .ok()
                .map(|mut store| {
                    store.set_budget(config.cas_budget);
                    store
                })
        });
        Compiler {
            config,
            pipeline,
            pipeline_hash,
            state,
            state_load_error,
            fn_cache,
            cas,
            recovery_events,
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Why the last state load fell back to a cold start, if it did.
    pub fn state_load_error(&self) -> Option<DecodeError> {
        self.state_load_error
    }

    /// Every quarantine / cold-start decision taken while loading this
    /// session's persistent state (see [`crate::persist`]).
    pub fn recovery_events(&self) -> &[RecoveryEvent] {
        &self.recovery_events
    }

    /// Read access to the dormancy database.
    pub fn state(&self) -> &StateDb {
        &self.state
    }

    /// Serialized size of the current state (experiment E5).
    pub fn state_bytes(&self) -> Vec<u8> {
        statefile::to_bytes(&self.state)
    }

    /// Names of the pipeline's pass slots.
    pub fn pipeline_slots(&self) -> Vec<&'static str> {
        self.pipeline.slot_names()
    }

    /// Compiles one module and, in stateful mode, folds its pass outcomes
    /// into the dormancy state (dropping records of functions the module no
    /// longer defines).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Frontend`] for malformed source.
    pub fn compile(
        &mut self,
        name: &str,
        source: &str,
        env: &ModuleEnv,
    ) -> Result<CompileOutput, CompileError> {
        let mut timings = PhaseTimings::default();
        let (checked, frontend_ns) = phases::frontend(name, source, env)?;
        timings.frontend_ns = frontend_ns;
        let (ir, lower_ns) = phases::lower(&checked, env);
        timings.lower_ns = lower_ns;

        let (ir, outcome) = self.optimize(&ir, None);
        timings.middle_ns = outcome.middle_ns;
        timings.state_ns = outcome.state_ns;

        let (object, backend_ns) = phases::codegen(&ir)?;
        timings.backend_ns = backend_ns;

        self.apply_cache_inserts(outcome.cache_inserts);
        let trace = &outcome.trace;
        timings.state_ns += self.commit_state(name, &trace.functions);
        self.retain_state_functions(name, |f| trace.function(f).is_some());
        Ok(CompileOutput {
            object,
            ir,
            interface: checked.interface,
            trace: outcome.trace,
            timings,
        })
    }

    /// Hit/miss counters of the function-level IR cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.fn_cache.stats()
    }

    /// Publishes the session's cache, dormancy-state, and recovery
    /// telemetry as gauges in `registry` (the build driver calls this once
    /// per build, after compilation finishes).
    pub fn record_metrics(&self, registry: &sfcc_trace::Registry) {
        let cache = self.cache_stats();
        registry.gauge_set("cache.hits", cache.hits);
        registry.gauge_set("cache.misses", cache.misses);
        registry.gauge_set("cache.evictions", cache.evictions);
        registry.gauge_set("cache.entries", cache.entries as u64);
        registry.gauge_set("state.functions", self.state.function_count() as u64);
        registry.gauge_set("state.dormant_slots", self.state.dormant_slot_count());
        registry.gauge_set("state.recorded_skips", self.state.total_recorded_skips());
        registry.gauge_set("recovery.events", self.recovery_events.len() as u64);
        let cas = self.cas_stats().unwrap_or_default();
        registry.gauge_set("cas.enabled", self.cas.is_some() as u64);
        registry.gauge_set("cas.hits", cas.hits);
        registry.gauge_set("cas.misses", cas.misses);
        registry.gauge_set("cas.evictions", cas.evictions);
        registry.gauge_set("cas.publishes", cas.publishes);
        registry.gauge_set("cas.entries", cas.entries);
        registry.gauge_set("cas.bytes", cas.bytes);
    }

    /// The shared artifact store, when the session has one.
    pub fn cas(&self) -> Option<&CasStore> {
        self.cas.as_ref()
    }

    /// Counters of the shared artifact store, when the session has one.
    pub fn cas_stats(&self) -> Option<CasStats> {
        self.cas.as_ref().map(|c| c.stats())
    }

    /// Starts a fresh shared-store session: clears per-session serve
    /// records and refreshes the view of other processes' commits. The
    /// build driver calls this once per build.
    pub fn cas_begin_session(&self) {
        if let Some(cas) = &self.cas {
            cas.begin_session();
        }
    }

    /// Forwards adversarial key-component drops to the shared store (test
    /// hook; see [`CasStore::set_key_drops`]).
    pub fn cas_set_key_drops(&self, components: &[String]) {
        if let Some(cas) = &self.cas {
            cas.set_key_drops(components);
        }
    }

    /// The shared store's serve record for `module::function` this
    /// session, if its lookup hit.
    pub fn cas_served(&self, module: &str, function: &str) -> Option<ServedStamps> {
        self.cas.as_ref().and_then(|c| c.served(module, function))
    }

    /// The honest store-key stamp for a context fingerprint (what a sound
    /// serve record must claim). `None` without a store.
    pub fn cas_honest_stamp(&self, fn_ctx: Fingerprint) -> Option<u64> {
        self.cas.as_ref().map(|c| c.honest_stamp(fn_ctx))
    }

    /// Applies deferred [`crate::OptimizeOutcome::cache_inserts`] to the
    /// session's function cache and publishes them to the shared store (a
    /// no-op when both are disabled). Callers invoke this at a
    /// deterministic boundary — after a module in sequential compilation,
    /// after a wave in the incremental driver — so cache visibility does
    /// not depend on `--jobs`. Local inserts replace same-key entries in
    /// place (byte-identical by the cache-key invariant) and the store
    /// skips already-published keys, so a shared-store hit racing a local
    /// recomputation of the same key converges to identical bytes for
    /// every `--jobs` value.
    pub fn apply_cache_inserts(
        &self,
        inserts: impl IntoIterator<Item = (Fingerprint, sfcc_ir::Function)>,
    ) {
        if !self.config.function_cache && self.cas.is_none() {
            return;
        }
        let inserts: Vec<(Fingerprint, sfcc_ir::Function)> = inserts.into_iter().collect();
        if self.config.function_cache {
            for (key, func) in &inserts {
                self.fn_cache.insert(*key, func.clone());
            }
        }
        if let Some(cas) = &self.cas {
            cas.publish(&inserts);
        }
    }

    /// Persists the state database (and function cache) to the configured
    /// path, atomically: both artifacts become visible together in one
    /// manifest commit (see [`crate::persist`]). Returns the generation
    /// number of the committed manifest, `0` when nothing was saved (no
    /// configured path, or a stateless session without a function cache).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; does nothing (successfully) without a
    /// configured path or in stateless mode.
    pub fn save_state(&self) -> io::Result<u64> {
        if let Some(path) = &self.config.state_path {
            return persist::save(
                path,
                self.config.mode.is_stateful().then_some(&self.state),
                self.config.function_cache.then_some(&self.fn_cache),
                self.config.durability,
            );
        }
        Ok(0)
    }

    /// Drops all accumulated state (for experiments that need a cold start).
    pub fn reset_state(&mut self) {
        self.state = StateDb::new();
    }

    // --- Phase-level API (engine tasks) -------------------------------
    //
    // Incremental engines (sfcc-buildsys's query tasks) call the pipeline
    // one phase at a time, so a build can stop as soon as a phase's output
    // fingerprint is unchanged. `compile` composes the same functions.

    /// Phase 1: parse + type-check (engine task `frontend`). Returns the
    /// checked module and the phase's wall time (ns).
    ///
    /// # Errors
    ///
    /// [`CompileError::Frontend`] for malformed source.
    pub fn phase_frontend(
        &self,
        name: &str,
        source: &str,
        env: &ModuleEnv,
    ) -> Result<(CheckedModule, u64), CompileError> {
        phases::frontend(name, source, env)
    }

    /// Phase 2: AST → IR lowering (engine task `lower`). Returns the IR and
    /// the phase's wall time (ns).
    pub fn phase_lower(&self, checked: &CheckedModule, env: &ModuleEnv) -> (sfcc_ir::Module, u64) {
        phases::lower(checked, env)
    }

    /// Phase 3: the (skippable) optimization pipeline, including
    /// function-cache and shared-store lookup when the session has them —
    /// on `pool`'s workers at function granularity when one is supplied.
    /// Reads the dormancy state and mutates nothing: no ingestion, no cache
    /// population. The returned [`OptimizeOutcome::cache_inserts`] are the
    /// caller's to apply at a deterministic boundary
    /// ([`Compiler::apply_cache_inserts`]), so this is safe to call from
    /// worker threads optimizing independent modules of one wave in
    /// parallel.
    pub fn optimize<'env>(
        &'env self,
        ir: &sfcc_ir::Module,
        pool: Option<&PoolScope<'env>>,
    ) -> (sfcc_ir::Module, OptimizeOutcome) {
        let options = RunOptions {
            verify_each: self.config.verify_each,
        };
        let cache = self.config.function_cache.then_some(&self.fn_cache);
        let mut ir = ir.clone();
        let outcome = phases::optimize(
            &mut ir,
            self.config.mode,
            &self.pipeline,
            &self.state,
            options,
            cache,
            self.cas.as_ref(),
            pool,
        );
        (ir, outcome)
    }

    /// Folds one build's traces of `module`'s functions into the dormancy
    /// state in one [`StateDb::ingest`] — one build-counter bump per call
    /// (stateful mode; a no-op otherwise). The build driver calls this once
    /// per module at the wave boundary. Returns the time spent (ns).
    pub fn commit_state<'t>(
        &mut self,
        module: &str,
        traces: impl IntoIterator<Item = &'t FunctionTrace>,
    ) -> u64 {
        if !self.config.mode.is_stateful() {
            return 0;
        }
        let t = Instant::now();
        self.state.ingest(module, traces, self.pipeline_hash);
        t.elapsed().as_nanos() as u64
    }

    /// Garbage-collects per-function dormancy records of `module`: drops
    /// every record whose function name fails `keep` (deleted or renamed
    /// functions). [`Compiler::compile`] calls this with the functions it
    /// just compiled; the build driver, after a successful build, with the
    /// module's current roster.
    pub fn retain_state_functions(&mut self, module: &str, keep: impl FnMut(&str) -> bool) {
        self.state.retain_functions(module, keep);
    }

    /// Phase 4: optimized IR → object code (engine task `codegen`). Returns
    /// the object and the phase's wall time (ns).
    ///
    /// # Errors
    ///
    /// [`CompileError::Backend`] when codegen fails.
    pub fn phase_codegen(&self, ir: &sfcc_ir::Module) -> Result<(CodeObject, u64), CompileError> {
        phases::codegen(ir)
    }

    /// A deterministic stamp of everything that steers skip decisions for
    /// one function — mode, pipeline, and *that function's* dormancy record
    /// only. Incremental engines record it as a tracked input of the
    /// function's optimize task, so stale skip state invalidates exactly the
    /// functions it would affect. A sibling's commit never touches the
    /// record, so the stamp only moves when the record itself changes.
    pub fn state_stamp_fn(&self, module: &str, function: &str) -> u64 {
        self.state_stamp(|| self.state.function_stamp(module, function))
    }

    /// The [`Compiler::state_stamp_fn`] that `ftrace` leaves once
    /// [`Compiler::commit_state`] folds it in — what an optimize task
    /// records as its input stamp, since its trace is committed only at the
    /// wave boundary.
    pub fn state_stamp_after(&self, module: &str, ftrace: &FunctionTrace) -> u64 {
        self.state_stamp(|| Some(self.state.stamp_after(module, ftrace, self.pipeline_hash)))
    }

    fn state_stamp(&self, record: impl FnOnce() -> Option<u64>) -> u64 {
        let mut repr = format!(
            "mode={};pipeline={:x};",
            self.config.mode.label(),
            self.pipeline_hash.0
        );
        if self.config.mode.is_stateful() {
            match record() {
                Some(stamp) => repr.push_str(&format!("state={stamp:x}")),
                None => repr.push_str("state=absent"),
            }
        }
        fnv64(repr.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_backend::{link_objects, run as vm_run, VmOptions};

    const SRC_V1: &str = "
fn helper(x: int) -> int { return x * 2 + 1; }
fn main(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + helper(i); }
    return s;
}";

    // V2: a small edit inside main (the constant 1 → 2 inside helper call use).
    const SRC_V2: &str = "
fn helper(x: int) -> int { return x * 2 + 1; }
fn main(n: int) -> int {
    let s: int = 2;
    for (let i: int = 0; i < n; i = i + 1) { s = s + helper(i); }
    return s;
}";

    fn run_output(out: &CompileOutput, args: &[i64]) -> Option<i64> {
        let program = link_objects(std::slice::from_ref(&out.object)).unwrap();
        vm_run(&program, "main.main", args, VmOptions::default())
            .unwrap()
            .return_value
    }

    #[test]
    fn stateless_compile_works() {
        let mut c = Compiler::new(Config::stateless().with_verification());
        let out = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        assert_eq!(run_output(&out, &[5]), Some(25));
        let (_, _, skipped) = out.outcome_totals();
        assert_eq!(skipped, 0);
    }

    #[test]
    fn stateful_first_build_skips_nothing() {
        let mut c = Compiler::new(Config::stateful().with_verification());
        let out = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let (_, _, skipped) = out.outcome_totals();
        assert_eq!(skipped, 0, "cold start must not skip");
        assert!(c.state().function_count() > 0, "state must be recorded");
    }

    #[test]
    fn stateful_rebuild_skips_dormant_passes() {
        let mut c = Compiler::new(Config::stateful().with_verification());
        let first = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let second = c.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        let (_, dormant_first, _) = first.outcome_totals();
        let (_, _, skipped_second) = second.outcome_totals();
        assert!(skipped_second > 0, "rebuild should skip dormant passes");
        assert!(
            skipped_second <= dormant_first + 2,
            "cannot skip more than was dormant (±policy slack)"
        );
    }

    #[test]
    fn stateful_and_stateless_agree_behaviourally() {
        let mut stateless = Compiler::new(Config::stateless().with_verification());
        let mut stateful = Compiler::new(Config::stateful().with_verification());
        // Warm up state with v1, then compile v2 with skipping active.
        stateful.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let a = stateless
            .compile("main", SRC_V2, &ModuleEnv::new())
            .unwrap();
        let b = stateful.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        for n in [0, 1, 7, 20] {
            assert_eq!(run_output(&a, &[n]), run_output(&b, &[n]), "n={n}");
        }
    }

    #[test]
    fn frontend_errors_are_reported() {
        let mut c = Compiler::new(Config::stateless());
        let err = c
            .compile("main", "fn broken( {", &ModuleEnv::new())
            .unwrap_err();
        let CompileError::Frontend { errors, rendered } = err else {
            panic!("{err}")
        };
        assert!(errors > 0);
        assert!(rendered.contains("main.mc"), "{rendered}");
    }

    #[test]
    fn state_persists_across_sessions() {
        let dir = std::env::temp_dir().join(format!("sfcc-core-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");

        let cfg = Config::stateful()
            .with_state_path(&path)
            .with_verification();
        let mut first_session = Compiler::new(cfg.clone());
        first_session
            .compile("main", SRC_V1, &ModuleEnv::new())
            .unwrap();
        first_session.save_state().unwrap();

        let mut second_session = Compiler::new(cfg);
        assert!(second_session.state_load_error().is_none());
        let out = second_session
            .compile("main", SRC_V2, &ModuleEnv::new())
            .unwrap();
        let (_, _, skipped) = out.outcome_totals();
        assert!(skipped > 0, "persisted state should enable skipping");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timings_are_populated() {
        let mut c = Compiler::new(Config::stateful());
        let out = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        assert!(out.timings.frontend_ns > 0);
        assert!(out.timings.middle_ns > 0);
        assert!(out.timings.backend_ns > 0);
        assert_eq!(
            out.timings.total_ns(),
            out.timings.frontend_ns
                + out.timings.lower_ns
                + out.timings.middle_ns
                + out.timings.backend_ns
                + out.timings.state_ns
        );
    }

    #[test]
    fn interface_extraction() {
        let iface = extract_interface("m", SRC_V1).unwrap();
        assert!(iface.functions.contains_key("helper"));
        assert!(iface.functions.contains_key("main"));
        assert!(extract_interface("m", "fn bad(").is_err());
    }

    #[test]
    fn o0_pipeline_is_small() {
        let c = Compiler::new(Config::stateless().with_opt_level(OptLevel::O0));
        assert!(c.pipeline_slots().len() <= 3);
    }

    #[test]
    fn opt_levels_are_ordered_and_agree() {
        let o0 = Compiler::new(Config::stateless().with_opt_level(OptLevel::O0));
        let o1 = Compiler::new(Config::stateless().with_opt_level(OptLevel::O1));
        let o2 = Compiler::new(Config::stateless());
        assert!(o0.pipeline_slots().len() < o1.pipeline_slots().len());
        assert!(o1.pipeline_slots().len() < o2.pipeline_slots().len());
        assert!(!o1.pipeline_slots().contains(&"inline"));
        assert!(!o1.pipeline_slots().contains(&"loop-unroll"));

        // All three levels agree behaviourally.
        let src = "fn main(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i * 3; } return s; }";
        let mut results = Vec::new();
        for mut c in [o0, o1, o2] {
            let out = c.compile("main", src, &ModuleEnv::new()).unwrap();
            results.push(run_output(&out, &[9]));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn function_cache_hits_on_unchanged_functions() {
        let mut c = Compiler::new(Config::stateful().with_function_cache().with_verification());
        c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let cold = c.cache_stats();
        assert_eq!(cold.hits, 0);
        assert!(cold.entries > 0);

        // The edit touches main only; helper hits the cache.
        let out = c.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        let warm = c.cache_stats();
        assert!(warm.hits >= 1, "{warm:?}");
        // helper's trace is fully skipped.
        let helper = out.trace.function("helper").unwrap();
        assert_eq!(
            helper.count(sfcc_passes::PassOutcome::Skipped),
            helper.records.len()
        );
        assert_eq!(run_output(&out, &[5]), Some(27));
    }

    #[test]
    fn function_cache_preserves_behaviour() {
        let mut plain = Compiler::new(Config::stateless().with_verification());
        let mut cached =
            Compiler::new(Config::stateful().with_function_cache().with_verification());
        cached.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let a = plain.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        let b = cached.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        for n in [0, 1, 6, 13] {
            assert_eq!(run_output(&a, &[n]), run_output(&b, &[n]), "n={n}");
        }
    }

    #[test]
    fn function_cache_persists_across_sessions() {
        let dir = std::env::temp_dir().join(format!("sfcc-irc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        let cfg = Config::stateful()
            .with_state_path(&path)
            .with_function_cache()
            .with_verification();

        let mut first = Compiler::new(cfg.clone());
        first.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        first.save_state().unwrap();
        assert!(first.cache_stats().entries > 0);

        let mut second = Compiler::new(cfg);
        let out = second.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        assert!(second.cache_stats().hits >= 1, "{:?}", second.cache_stats());
        assert_eq!(run_output(&out, &[5]), Some(27));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn callee_edit_invalidates_caller_cache() {
        let v1 = "fn callee(x: int) -> int { return x + 1; }\nfn caller(x: int) -> int { return callee(x) * 2; }";
        let v2 = "fn callee(x: int) -> int { return x + 5; }\nfn caller(x: int) -> int { return callee(x) * 2; }";
        let mut c = Compiler::new(Config::stateful().with_function_cache().with_verification());
        c.compile("m", v1, &ModuleEnv::new()).unwrap();
        let before = c.cache_stats();
        c.compile("m", v2, &ModuleEnv::new()).unwrap();
        let after = c.cache_stats();
        // caller's context changed with the callee's body: no hits at all.
        assert_eq!(after.hits, before.hits, "caller must not hit a stale entry");
    }

    #[test]
    fn shared_store_hits_across_sessions_byte_identically() {
        let dir = std::env::temp_dir().join(format!("sfcc-cas-compiler-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Session A (no local persistence) populates the shared store.
        let mut a = Compiler::new(Config::stateless().with_cas_path(&dir).with_verification());
        let out_a = a.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let stats_a = a.cas_stats().unwrap();
        assert!(stats_a.publishes > 0, "{stats_a:?}");

        // A fresh session (cold local cache) hits the shared store and
        // produces the same bytes as a plain build.
        let mut b = Compiler::new(Config::stateless().with_cas_path(&dir).with_verification());
        let out_b = b.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let stats_b = b.cas_stats().unwrap();
        assert!(stats_b.hits > 0, "{stats_b:?}");
        assert_eq!(out_a.object, out_b.object);
        assert!(b.cas_served("main", "helper").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_store_misses_across_differing_flags() {
        let dir = std::env::temp_dir().join(format!("sfcc-cas-flags-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = Compiler::new(Config::stateless().with_cas_path(&dir));
        a.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        // Same source, different verify flag: the flag digest differs, so
        // every lookup must miss.
        let mut b = Compiler::new(Config::stateless().with_cas_path(&dir).with_verification());
        b.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let stats = b.cas_stats().unwrap();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert!(stats.misses > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_state_forgets_everything() {
        let mut c = Compiler::new(Config::stateful());
        c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        assert!(c.state().function_count() > 0);
        c.reset_state();
        assert_eq!(c.state().function_count(), 0);
    }
}
