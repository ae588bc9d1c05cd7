//! # sfcc-passes
//!
//! Optimization passes and the instrumented pass manager of the `sfcc`
//! stateful compiler.
//!
//! Every pass reports whether it changed the IR; the pass manager's one
//! runner ([`run_pipeline`]) records each execution as *active* or
//! *dormant* and consults a [`SkipOracle`] before running each pass — the
//! hook through which the stateful compiler (crate `sfcc`) bypasses passes
//! that were dormant in previous builds, reproducing the mechanism of
//! *"Enabling Fine-Grained Incremental Builds by Making Compiler Stateful"*
//! (CGO 2024). The runner takes an optional worker pool: without one it
//! runs on the calling thread, with one it fans functions out in
//! cost-balanced batches, and the result is byte-identical either way.
//!
//! # Examples
//!
//! ```
//! use sfcc_passes::{default_pipeline, run_pipeline, NeverSkip, RunOptions};
//!
//! let f = sfcc_ir::parse_function(r"
//! fn @f(i64) -> i64 {
//! bb0:
//!   v0 = mul i64 p0, 1
//!   v1 = add i64 v0, 0
//!   ret v1
//! }
//! ").unwrap();
//! let mut module = sfcc_ir::Module::new("demo");
//! module.add_function(f);
//!
//! let pipeline = default_pipeline();
//! let trace = run_pipeline(&mut module, &pipeline, NeverSkip, RunOptions::default(), None);
//! let (active, dormant, skipped) = trace.outcome_totals();
//! assert!(active >= 1);      // instcombine fired
//! assert!(dormant > active); // most passes had nothing to do
//! assert_eq!(skipped, 0);    // baseline never skips
//! ```

pub(crate) mod batch;
pub mod constfold;
pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod dse;
pub mod gvn;
pub mod inline;
pub mod instcombine;
pub mod licm;
pub mod loop_delete;
pub mod loop_unroll;
pub mod manager;
pub mod mem2reg;
pub mod memfwd;
pub mod parallel;
pub mod peephole;
pub mod reassociate;
pub mod sccp;
pub mod simplify_cfg;
pub mod snapstats;
pub mod util;

use sfcc_ir::{Function, ModuleSnapshot};

pub use manager::{
    FunctionTrace, NeverSkip, PassOutcome, PassQuery, PassRecord, Pipeline, PipelineTrace,
    RunOptions, SkipOracle,
};
pub use parallel::run_pipeline;
pub use snapstats::{snapshot_stats, SnapshotStats};

/// A function transformation.
///
/// `run` returns `true` when the IR was modified (the pass was *active*) and
/// `false` when it had nothing to do (the pass was *dormant*) — the signal
/// at the core of the stateful compiler's skipping machinery.
///
/// `snapshot` is a read-only, copy-on-write view of the whole module taken
/// at the start of the enclosing pipeline stage
/// ([`sfcc_ir::ModuleSnapshot`]); only the inliner uses it.
pub trait Pass: Send + Sync {
    /// Stable pass name used in traces and dormancy records.
    fn name(&self) -> &'static str;

    /// Transforms `func`; returns whether anything changed.
    fn run(&self, func: &mut Function, snapshot: &ModuleSnapshot) -> bool;
}

/// Names of every pass in [`default_pipeline`], in slot order.
pub fn default_pipeline_slots() -> Vec<&'static str> {
    default_pipeline().slot_names().to_vec()
}

/// The standard `-O2`-style pipeline used throughout the evaluation.
///
/// Stage layout mirrors a classic middle end: SSA construction and early
/// cleanup, inlining against a fresh module snapshot, scalar optimizations,
/// loop optimizations, and late cleanup.
pub fn default_pipeline() -> Pipeline {
    Pipeline::new()
        // Early: SSA construction + first cleanup.
        .stage(
            false,
            vec![
                Box::new(mem2reg::Mem2Reg),
                Box::new(simplify_cfg::SimplifyCfg),
                Box::new(instcombine::InstCombine),
                Box::new(constfold::ConstFold),
                Box::new(dce::Dce),
            ],
        )
        // Inlining observes all functions after early cleanup.
        .stage(
            true,
            vec![
                Box::new(inline::Inline),
                Box::new(simplify_cfg::SimplifyCfg),
            ],
        )
        // Scalar optimizations.
        .stage(
            false,
            vec![
                Box::new(sccp::Sccp),
                Box::new(simplify_cfg::SimplifyCfg),
                Box::new(instcombine::InstCombine),
                Box::new(reassociate::Reassociate),
                Box::new(gvn::Gvn),
                Box::new(cse::Cse),
                Box::new(memfwd::MemFwd),
                Box::new(dse::Dse),
                Box::new(copyprop::CopyProp),
                Box::new(dce::Dce),
            ],
        )
        // Loop optimizations.
        .stage(
            false,
            vec![
                Box::new(licm::Licm),
                Box::new(loop_unroll::LoopUnroll),
                Box::new(loop_delete::LoopDelete),
                Box::new(simplify_cfg::SimplifyCfg),
            ],
        )
        // Late cleanup.
        .stage(
            false,
            vec![
                Box::new(constfold::ConstFold),
                Box::new(instcombine::InstCombine),
                Box::new(dce::Dce),
                Box::new(dce::Adce),
                Box::new(peephole::Peephole),
                Box::new(simplify_cfg::SimplifyCfg),
                Box::new(dce::Dce),
            ],
        )
}

/// A minimal `-O0`-style pipeline: SSA construction plus one CFG cleanup.
pub fn minimal_pipeline() -> Pipeline {
    Pipeline::new().stage(
        false,
        vec![
            Box::new(mem2reg::Mem2Reg),
            Box::new(simplify_cfg::SimplifyCfg),
        ],
    )
}

/// A `-O1`-style pipeline: scalar optimizations only — no inlining, no loop
/// transforms — for fast debug-friendly builds.
pub fn scalar_pipeline() -> Pipeline {
    Pipeline::new().stage(
        false,
        vec![
            Box::new(mem2reg::Mem2Reg),
            Box::new(simplify_cfg::SimplifyCfg),
            Box::new(instcombine::InstCombine),
            Box::new(constfold::ConstFold),
            Box::new(sccp::Sccp),
            Box::new(simplify_cfg::SimplifyCfg),
            Box::new(gvn::Gvn),
            Box::new(memfwd::MemFwd),
            Box::new(copyprop::CopyProp),
            Box::new(dce::Dce),
        ],
    )
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use manager::{NeverSkip, RunOptions};
    use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv};
    use sfcc_ir::Module;

    fn optimize(src: &str) -> (Module, PipelineTrace) {
        let mut d = Diagnostics::new();
        let checked = parse_and_check("m", src, &ModuleEnv::new(), &mut d).expect("valid program");
        let mut module = sfcc_ir::lower_module(&checked, &ModuleEnv::new());
        sfcc_ir::verify_module(&module).unwrap();
        let pipeline = default_pipeline();
        let trace = run_pipeline(
            &mut module,
            &pipeline,
            NeverSkip,
            RunOptions { verify_each: true },
            None,
        );
        sfcc_ir::verify_module(&module).unwrap();
        (module, trace)
    }

    #[test]
    fn pipeline_has_many_slots() {
        let p = default_pipeline();
        assert!(p.slot_count() >= 20, "{:?}", p.slot_names());
    }

    #[test]
    fn optimizes_constant_program_to_return() {
        let (m, _) = optimize(
            "fn f() -> int { let s: int = 0; for (let i: int = 0; i < 5; i = i + 1) { s = s + i; } return s; }",
        );
        let text = m.to_string();
        assert!(text.contains("ret 10"), "{text}");
        assert!(!text.contains("phi"), "{text}");
    }

    #[test]
    fn inline_plus_constants_collapse() {
        let (m, _) = optimize(
            "fn sq(x: int) -> int { return x * x; }\nfn f() -> int { return sq(4) + sq(3); }",
        );
        let text = m.function("f").unwrap().to_string();
        assert!(text.contains("ret 25"), "{text}");
    }

    #[test]
    fn trace_shape_matches_pipeline() {
        let (_, trace) = optimize("fn f(a: int) -> int { return a + 1; }");
        let f = trace.function("f").unwrap();
        assert_eq!(f.records.len(), default_pipeline().slot_count());
        // Slots must be strictly increasing.
        for (i, r) in f.records.iter().enumerate() {
            assert_eq!(r.slot, i);
        }
    }

    #[test]
    fn most_passes_dormant_on_simple_functions() {
        let (_, trace) = optimize("fn f(a: int, b: int) -> int { return a * b + a; }");
        let f = trace.function("f").unwrap();
        let active = f.count(PassOutcome::Active);
        let dormant = f.count(PassOutcome::Dormant);
        assert!(dormant > active * 2, "active={active} dormant={dormant}");
    }

    #[test]
    fn exit_fingerprint_differs_from_entry_when_optimized() {
        let (_, trace) = optimize("fn f(a: int) -> int { let x: int = a * 1; return x + 0; }");
        let f = trace.function("f").unwrap();
        assert_ne!(f.entry_fingerprint, f.exit_fingerprint);
    }

    #[test]
    fn complex_program_survives_full_pipeline() {
        let (m, _) = optimize(
            "
const LIMIT: int = 100;
fn helper(x: int, y: int) -> int {
    if (x > y) { return x - y; }
    return y - x;
}
fn weight(v: int) -> int {
    let w: int = v;
    if (w < 0) { w = -w; }
    if (w > LIMIT) { w = LIMIT; }
    return w;
}
fn f(n: int) -> int {
    let acc: int = 0;
    let hist: [int; 16];
    for (let i: int = 0; i < 16; i = i + 1) {
        hist[i] = 0;
    }
    for (let i: int = 0; i < n; i = i + 1) {
        let h: int = helper(i, n - i);
        let w: int = weight(h);
        hist[w % 16] = hist[w % 16] + 1;
        acc = acc + w * 3;
    }
    let best: int = 0;
    for (let i: int = 0; i < 16; i = i + 1) {
        if (hist[i] > best) { best = hist[i]; }
    }
    return acc + best;
}",
        );
        let text = m.to_string();
        assert!(text.contains("fn @f"), "{text}");
    }

    #[test]
    fn minimal_pipeline_promotes_memory() {
        let mut d = Diagnostics::new();
        let checked = parse_and_check(
            "m",
            "fn f(a: int) -> int { let x: int = a + 2; return x; }",
            &ModuleEnv::new(),
            &mut d,
        )
        .unwrap();
        let mut module = sfcc_ir::lower_module(&checked, &ModuleEnv::new());
        run_pipeline(
            &mut module,
            &minimal_pipeline(),
            NeverSkip,
            RunOptions { verify_each: true },
            None,
        );
        let text = module.to_string();
        assert!(!text.contains("alloca"), "{text}");
    }

    #[test]
    fn pipeline_converges_on_reruns() {
        // Running the pipeline again on its own output must strictly reduce
        // activity, and a third run must not regress past the second — the
        // pipeline is (weakly) converging, which the dormancy mechanism
        // depends on: optimized-and-unchanged code looks dormant.
        let mut d = Diagnostics::new();
        let checked = parse_and_check(
            "m",
            "
fn helper(x: int, y: int) -> int {
    let t: int = x * 2 + y * 2;
    if (t > 100) { return t - 100; }
    return t;
}
fn f(n: int) -> int {
    let acc: int = 0;
    for (let i: int = 0; i < n; i = i + 1) {
        acc = acc + helper(i, n - i);
    }
    return acc;
}",
            &ModuleEnv::new(),
            &mut d,
        )
        .expect("valid program");
        let mut module = sfcc_ir::lower_module(&checked, &ModuleEnv::new());
        let pipeline = default_pipeline();
        let opts = RunOptions { verify_each: true };
        let first = run_pipeline(&mut module, &pipeline, NeverSkip, opts, None)
            .outcome_totals()
            .0;
        let second = run_pipeline(&mut module, &pipeline, NeverSkip, opts, None)
            .outcome_totals()
            .0;
        let third = run_pipeline(&mut module, &pipeline, NeverSkip, opts, None)
            .outcome_totals()
            .0;
        assert!(
            second < first,
            "second run should be quieter: {second} vs {first}"
        );
        assert!(
            third <= second,
            "third run must not regress: {third} vs {second}"
        );
    }
}
