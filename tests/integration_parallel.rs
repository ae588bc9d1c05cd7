//! Determinism of parallel builds: whatever the edit history, `--jobs 1`
//! and `--jobs 8` must produce byte-identical bytecode images **and**
//! byte-identical persisted dormancy state (and function-cache) files.
//! This is the contract that makes the worker count a pure wall-time knob:
//! per-function pipelines read callees from an immutable module snapshot,
//! traces merge in module definition order, and function-cache inserts are
//! applied at wave boundaries for every worker count.

use proptest::prelude::*;
use sfcc::{Compiler, Config};
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::{Builder, Project};
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-it-par-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A stateful builder with the function cache on, persisting under
/// `dir/<tag>.state`, allowed `jobs` workers.
fn builder_with(jobs: usize, dir: &Path, tag: &str) -> Builder {
    let config = Config::stateful()
        .with_state_path(dir.join(format!("{tag}.state")))
        .with_function_cache();
    Builder::new(Compiler::new(config)).with_jobs(jobs)
}

/// Saves the builder's state and returns the raw bytes of the dormancy
/// state file and the function-cache file it persisted. State is published
/// through the atomic-commit manifest, so the logical entries are read
/// back through it rather than as plain files.
fn persisted_bytes(builder: &Builder, dir: &Path, tag: &str) -> (Vec<u8>, Vec<u8>) {
    builder.compiler().save_state().unwrap();
    let cd = sfcc_faultfs::CommitDir::new(&dir.join(format!("{tag}.state")));
    let m = cd.read_manifest().unwrap().unwrap();
    let state = cd.load_entry(m.entry("state").unwrap()).unwrap();
    let cache = cd.load_entry(m.entry("ircache").unwrap()).unwrap();
    (state, cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two builders — one sequential, one racing 8 workers over modules and
    /// functions — replay the same random edit script. After every commit,
    /// images and persisted state must agree byte for byte.
    #[test]
    fn jobs_1_and_jobs_8_builds_are_byte_identical(seed in any::<u64>()) {
        let dir = scratch_dir(&format!("prop-{}", seed % 1000));
        let config = GeneratorConfig::small(seed % 1000);
        let mut model = generate_model(&config);
        let mut script = EditScript::new(seed ^ 0x9e37_79b9_7f4a_7c15);

        let mut seq = builder_with(1, &dir, "seq");
        let mut par = builder_with(8, &dir, "par");

        for commit in 0..6usize {
            if commit > 0 {
                script.commit(&mut model);
            }
            let p = model.render();
            let seq_image = to_bytes(&seq.build(&p).unwrap().program);
            let par_image = to_bytes(&par.build(&p).unwrap().program);
            prop_assert_eq!(seq_image, par_image, "image diverged at commit {}", commit);

            let (seq_state, seq_cache) = persisted_bytes(&seq, &dir, "seq");
            let (par_state, par_cache) = persisted_bytes(&par, &dir, "par");
            prop_assert_eq!(seq_state, par_state, "state diverged at commit {}", commit);
            prop_assert_eq!(seq_cache, par_cache, "fn-cache diverged at commit {}", commit);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Copy-on-write snapshots under cross-batch inliner reads: a seeded module
/// whose ~40 callers all inline a handful of tiny helpers, so the inline
/// stage's re-snapshot must present every batch with identical callee
/// bodies. A deterministic edit script dirties different functions each
/// commit; `--jobs 8` (batched fan-out, CoW re-wraps) must stay
/// byte-identical to `--jobs 1` in images, state, and fn-cache.
#[test]
fn quick_cow_snapshot_byte_identity_under_cross_batch_inlining() {
    let dir = scratch_dir("cow");
    let mut source = String::new();
    // Tiny helpers: well under the inline threshold, so every caller
    // inlines them from the stage snapshot.
    for h in 0..4 {
        source.push_str(&format!(
            "fn h{h}(x: int) -> int {{ return x * {} + {h}; }}\n",
            h + 2
        ));
    }
    for i in 0..40 {
        source.push_str(&format!(
            "fn g{i}(x: int) -> int {{\n  let a: int = h{}(x);\n  let b: int = h{}(a);\n  let acc: int = a + b;\n  for (let j: int = 0; j < {}; j = j + 1) {{\n    acc = acc + h{}(j);\n  }}\n  return acc;\n}}\n",
            i % 4,
            (i + 1) % 4,
            i % 5 + 1,
            (i + 2) % 4
        ));
    }
    source.push_str("fn main(n: int) -> int { return g0(n) + g39(n); }\n");

    let mut p = Project::new();
    p.set_file("main".to_string(), source.clone());

    let mut seq = builder_with(1, &dir, "seq");
    let mut par = builder_with(8, &dir, "par");
    for edit in 0..3 {
        // Edit a helper body: every inlining caller goes stale, and the
        // re-snapshot must re-wrap exactly the functions that changed.
        let edited = source.replace("x * 2 + 0", &format!("x * 2 + {}", 10 + edit));
        p.set_file("main".to_string(), edited);
        let seq_report = seq.build(&p).unwrap();
        let par_report = par.build(&p).unwrap();
        assert_eq!(
            to_bytes(&seq_report.program),
            to_bytes(&par_report.program),
            "image diverged at edit {edit}"
        );
        let (seq_state, seq_cache) = persisted_bytes(&seq, &dir, "seq");
        let (par_state, par_cache) = persisted_bytes(&par, &dir, "par");
        assert_eq!(seq_state, par_state, "state diverged at edit {edit}");
        assert_eq!(seq_cache, par_cache, "fn-cache diverged at edit {edit}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stage that changes no function must re-wrap no function: the
/// re-snapshot reuses every previous `Arc` (zero cloned cost units), with
/// and without a pool, with identical trace counters.
#[test]
fn quick_zero_change_stage_performs_zero_rewraps() {
    use sfcc_passes::{run_pipeline, NeverSkip, Pipeline, RunOptions};

    /// A pass that never touches the IR.
    struct Nop;
    impl sfcc_passes::Pass for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn run(&self, _func: &mut sfcc_ir::Function, _snapshot: &sfcc_ir::ModuleSnapshot) -> bool {
            false
        }
    }

    let build_module = || {
        let mut m = sfcc_ir::Module::new("zero");
        for i in 0..24 {
            let mut f = sfcc_ir::Function::new(
                format!("f{i}"),
                vec![sfcc_ir::Ty::I64],
                Some(sfcc_ir::Ty::I64),
            );
            let mut b = sfcc_ir::FuncBuilder::at_entry(&mut f);
            let v = b.bin(
                sfcc_ir::BinKind::Add,
                sfcc_ir::ValueRef::Param(0),
                sfcc_ir::ValueRef::int(i),
            );
            b.ret(Some(v));
            m.add_function(f);
        }
        m
    };
    let make_pipeline = || {
        Pipeline::new()
            .stage(false, vec![Box::new(Nop)])
            .stage(true, vec![Box::new(Nop)])
    };
    let options = RunOptions { verify_each: true };

    let mut seq_module = build_module();
    let nfuncs = seq_module.functions.len() as u64;
    let initial_cost: u64 = seq_module
        .functions
        .iter()
        .map(|f| f.live_inst_count() as u64)
        .sum();
    let seq_pipeline = make_pipeline();
    let seq = run_pipeline(&mut seq_module, &seq_pipeline, NeverSkip, options, None);

    let mut par_module = build_module();
    let par_pipeline = make_pipeline();
    let par = sfcc_pool::scope(8, |ps| {
        run_pipeline(&mut par_module, &par_pipeline, NeverSkip, options, Some(ps))
    });

    for (label, trace) in [("no pool", &seq), ("8-worker pool", &par)] {
        // Pipeline entry + the resnapshot stage; the Nop stage changed
        // nothing, so the re-snapshot clones zero functions and reuses all.
        assert_eq!(trace.snapshot_clones, 2, "{label}: snapshot count");
        assert_eq!(
            trace.snapshot_cost_units, initial_cost,
            "{label}: only the entry snapshot may deep-clone"
        );
        assert_eq!(
            trace.snapshot_reused, nfuncs,
            "{label}: the re-snapshot must reuse every function Arc"
        );
        assert!(trace.batch_count > 0, "{label}: batches were planned");
    }
    let strip = |mut t: sfcc_passes::PipelineTrace| {
        for f in &mut t.functions {
            for r in &mut f.records {
                r.nanos = 0;
            }
        }
        t
    };
    assert_eq!(strip(seq), strip(par), "traces diverged across pool widths");
}

/// One big module: the single-stale-module path, where all parallelism is
/// function-level. `--jobs 8` must still match `--jobs 1` exactly.
#[test]
fn single_module_function_parallelism_is_deterministic() {
    let dir = scratch_dir("single");
    let mut source = String::new();
    for i in 0..48 {
        source.push_str(&format!(
            "fn f{i}(x: int) -> int {{\n  let acc: int = x;\n  for (let j: int = 0; j < {}; j = j + 1) {{\n    acc = acc * 3 + {i};\n  }}\n  return acc;\n}}\n",
            i % 7 + 1
        ));
    }
    source.push_str("fn main(n: int) -> int { return f0(n) + f47(n); }\n");

    let mut p = Project::new();
    p.set_file("main".to_string(), source.clone());

    let mut seq = builder_with(1, &dir, "seq");
    let mut par = builder_with(8, &dir, "par");
    for edit in 0..3 {
        // A body-only edit of one function re-optimizes just this module.
        let edited = source.replace("acc * 3", &format!("acc * {}", 3 + edit));
        p.set_file("main".to_string(), edited);
        let seq_report = seq.build(&p).unwrap();
        let par_report = par.build(&p).unwrap();
        assert_eq!(
            to_bytes(&seq_report.program),
            to_bytes(&par_report.program),
            "image diverged at edit {edit}"
        );
        let (seq_state, seq_cache) = persisted_bytes(&seq, &dir, "seq");
        let (par_state, par_cache) = persisted_bytes(&par, &dir, "par");
        assert_eq!(seq_state, par_state, "state diverged at edit {edit}");
        assert_eq!(seq_cache, par_cache, "fn-cache diverged at edit {edit}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
