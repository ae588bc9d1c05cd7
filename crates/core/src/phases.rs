//! The compilation pipeline, one phase at a time.
//!
//! [`Compiler::compile`](crate::Compiler::compile) runs a module through
//! frontend → lowering → optimization → codegen as one unit. Incremental
//! engines want the same phases *individually* — a body-only edit should
//! re-run optimize+codegen without re-running the frontend of anything
//! else — so each phase lives here as a free function over explicit state,
//! and the session type re-exposes them as task-callable methods
//! (`Compiler::phase_frontend`, `phase_lower`, `optimize`,
//! `phase_codegen`). `compile` is a composition of these methods; there is
//! exactly one implementation of every phase.

use crate::config::Mode;
use crate::fncache::{context_fingerprints, FunctionCache};
use sfcc_backend::{compile_object, CodeObject};
use sfcc_cas::CasStore;
use sfcc_frontend::{CheckedModule, Diagnostics, ModuleEnv, SourceFile};
use sfcc_ir::{Fingerprint, Function};
use sfcc_passes::{
    run_pipeline, NeverSkip, PassQuery, Pipeline, PipelineTrace, RunOptions, SkipOracle,
};
use sfcc_pool::{run_indexed, PoolScope};
use sfcc_state::{DbOracle, StateDb};
use std::sync::Arc;
use std::time::Instant;

use crate::compiler::CompileError;

/// Lexes, parses, and type-checks one module against its import
/// environment. Returns the checked module and the phase's wall time (ns).
///
/// # Errors
///
/// [`CompileError::Frontend`] with rendered diagnostics for malformed
/// source.
pub fn frontend(
    name: &str,
    source: &str,
    env: &ModuleEnv,
) -> Result<(CheckedModule, u64), CompileError> {
    let t = Instant::now();
    let mut diags = Diagnostics::new();
    let checked = sfcc_frontend::parse_and_check(name, source, env, &mut diags);
    let elapsed = t.elapsed().as_nanos() as u64;
    match checked {
        Some(checked) => Ok((checked, elapsed)),
        None => {
            let file = SourceFile::new(format!("{name}.mc"), source);
            Err(CompileError::Frontend {
                rendered: diags.render_all(&file),
                errors: diags.error_count(),
            })
        }
    }
}

/// Lowers a checked module to IR. Returns the IR and the phase's wall time
/// (ns).
pub fn lower(checked: &CheckedModule, env: &ModuleEnv) -> (sfcc_ir::Module, u64) {
    let t = Instant::now();
    let ir = sfcc_ir::lower_module(checked, env);
    (ir, t.elapsed().as_nanos() as u64)
}

/// What [`optimize`] reports alongside the transformed IR.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// Per-pass instrumentation of the pipeline run.
    pub trace: PipelineTrace,
    /// Wall time of the pass pipeline itself (ns).
    pub middle_ns: u64,
    /// Wall time of function-cache bookkeeping (ns).
    pub state_ns: u64,
    /// Freshly optimized cacheable functions, keyed by context fingerprint.
    /// [`optimize`] does **not** insert them — the caller applies them at a
    /// deterministic point (module or wave boundary) so cache visibility,
    /// and therefore every downstream trace, is identical for every `--jobs`
    /// value. Apply via [`crate::Compiler::apply_cache_inserts`].
    pub cache_inserts: Vec<(Fingerprint, Function)>,
}

/// An oracle layer that force-skips every slot of cache-hit functions so
/// their (already optimized, swapped-in) bodies pass through untouched.
struct CacheHits<'env> {
    hits: std::collections::HashSet<String>,
    inner: Arc<dyn SkipOracle + Send + Sync + 'env>,
}

impl SkipOracle for CacheHits<'_> {
    fn should_skip(&self, query: &PassQuery<'_>) -> bool {
        self.hits.contains(query.function) || self.inner.should_skip(query)
    }
}

/// How a function's pre-pipeline lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LookupHit {
    /// No cached body anywhere: the pipeline must run.
    Miss,
    /// Served by the in-process [`FunctionCache`].
    Local,
    /// Served by the shared artifact store; the local cache gets warmed
    /// with it at the next insert boundary.
    Shared,
}

/// Runs the optimization pipeline over `ir` in place: function-cache
/// lookup (when a cache is supplied), skip-oracle construction from the
/// dormancy state, and the pass pipeline itself — on `pool`'s workers at
/// function granularity when one is supplied. Does **not** ingest the trace
/// or populate the cache — recording dormancy and applying
/// [`OptimizeOutcome::cache_inserts`] are the caller's, at a sequenced
/// point (after the module in `Compiler::compile`, at the wave boundary in
/// the incremental driver), so this function runs against state and cache
/// that stay unchanged while it runs, on worker threads or not.
///
/// Makes no resource-access note for the dormancy state: the
/// function-grained `optimizefn` task notes its own per-function read
/// (`state:m::f`) inside its task scope, while this function may run
/// outside any task scope (batched ahead of demand) where a note would be
/// unattributed or mis-attributed.
#[allow(clippy::too_many_arguments)]
pub fn optimize<'env>(
    ir: &mut sfcc_ir::Module,
    mode: Mode,
    pipeline: &'env Pipeline,
    state: &'env StateDb,
    options: RunOptions,
    cache: Option<&'env FunctionCache>,
    cas: Option<&'env CasStore>,
    pool: Option<&PoolScope<'env>>,
) -> OptimizeOutcome {
    // Function-cache lookup: swap cached optimized bodies in and mark them
    // so the pipeline skips them entirely. The shared store (CAS) is the
    // second level: consulted only on a local miss. Lookups never mutate
    // entries (only counters, recency, and referenced bits), so running
    // them concurrently — here and across modules of one wave — cannot
    // change what any module observes.
    let t = Instant::now();
    let mut hits = std::collections::HashSet::new();
    let mut shared_hits = std::collections::HashSet::new();
    let mut contexts = std::collections::HashMap::new();
    if cache.is_some() || cas.is_some() {
        contexts = context_fingerprints(ir);
        let shared_contexts = Arc::new(contexts.clone());
        let module_name = ir.name.clone();
        let marked: Vec<(Function, LookupHit)> = std::mem::take(&mut ir.functions)
            .into_iter()
            .map(|f| (f, LookupHit::Miss))
            .collect();
        let order: Vec<usize> = (0..marked.len()).collect();
        let marked = run_indexed(pool, marked, &order, move |_, (func, hit)| {
            let Some(&ctx) = shared_contexts.get(&func.name) else {
                return;
            };
            if let Some(mut cached) = cache.and_then(|cache| cache.lookup(ctx)) {
                cached.name = func.name.clone();
                *func = cached;
                *hit = LookupHit::Local;
            } else if let Some(served) =
                cas.and_then(|cas| cas.lookup(&module_name, &func.name, ctx))
            {
                *func = served;
                *hit = LookupHit::Shared;
            }
        });
        ir.functions = Vec::with_capacity(marked.len());
        for (func, hit) in marked {
            if hit != LookupHit::Miss {
                hits.insert(func.name.clone());
            }
            if hit == LookupHit::Shared {
                shared_hits.insert(func.name.clone());
            }
            ir.functions.push(func);
        }
    }
    let mut state_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let base: Arc<dyn SkipOracle + Send + Sync + 'env> = match mode {
        Mode::Stateless => Arc::new(NeverSkip),
        Mode::Stateful(policy) => Arc::new(DbOracle::new(state, policy)),
    };
    let oracle: Arc<dyn SkipOracle + Send + Sync + 'env> = if hits.is_empty() {
        base
    } else {
        Arc::new(CacheHits {
            hits: hits.clone(),
            inner: base,
        })
    };
    let trace = run_pipeline(ir, pipeline, oracle, options, pool);
    let middle_ns = t.elapsed().as_nanos() as u64;

    // Collect cacheable functions for the caller to insert at the next
    // deterministic boundary: freshly optimized ones, plus shared-store
    // hits (which warm the local cache; re-publishing an existing key is
    // a no-op, the store is content-addressed).
    let t = Instant::now();
    let mut cache_inserts = Vec::new();
    if cache.is_some() || cas.is_some() {
        for func in &ir.functions {
            if hits.contains(&func.name) && !shared_hits.contains(&func.name) {
                continue;
            }
            if let Some(&ctx) = contexts.get(&func.name) {
                cache_inserts.push((ctx, func.clone()));
            }
        }
    }
    state_ns += t.elapsed().as_nanos() as u64;

    OptimizeOutcome {
        trace,
        middle_ns,
        state_ns,
        cache_inserts,
    }
}

/// Compiles optimized IR to an object file. Returns the object and the
/// phase's wall time (ns).
///
/// # Errors
///
/// [`CompileError::Backend`] when codegen fails (an internal bug, not bad
/// input).
pub fn codegen(ir: &sfcc_ir::Module) -> Result<(CodeObject, u64), CompileError> {
    let t = Instant::now();
    let object = compile_object(ir).map_err(|e| CompileError::Backend(e.to_string()))?;
    Ok((object, t.elapsed().as_nanos() as u64))
}
