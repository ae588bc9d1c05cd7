//! Function-granularity cross-module dependencies, end to end.
//!
//! The invariant under test: **demand flows per function**. A body edit in
//! a wide module re-executes exactly one function's pipeline; a signature
//! edit re-demands exactly the functions that call it — in the edited
//! module's importers as well as locally — and nothing else. And however
//! narrow the re-execution, the linked image stays byte-identical to a
//! from-scratch build, at every `--jobs` value.

use sfcc::{Compiler, Config};
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::{Builder, Project};
use std::fmt::Write as _;

/// A `wide` module with `n` functions `f0..f{n-1}`, a `consumer` module
/// with one caller `g{i}` per wide function, and a `main` entry.
fn wide_project(n: usize) -> Project {
    let mut wide = String::new();
    let mut consumer = String::from("import wide;\n");
    for i in 0..n {
        let _ = writeln!(wide, "fn f{i}(x: int) -> int {{ return x + {i}; }}");
        let _ = writeln!(
            consumer,
            "fn g{i}(x: int) -> int {{ return wide::f{i}(x) * 2; }}"
        );
    }
    let mut p = Project::new();
    p.set_file("wide".into(), wide);
    p.set_file("consumer".into(), consumer);
    p.set_file(
        "main".into(),
        "import consumer;\nfn main(n: int) -> int { return consumer::g0(n); }".into(),
    );
    p
}

/// `wide_project(n)` after a body-only edit of `wide::f7`.
fn with_body_edit(n: usize) -> Project {
    let mut p = wide_project(n);
    let src = p.file("wide").unwrap().replace(
        "fn f7(x: int) -> int { return x + 7; }",
        "fn f7(x: int) -> int { return x + 700; }",
    );
    p.set_file("wide".into(), src);
    p
}

/// `wide_project(n)` after a signature edit of `wide::f7` plus the matching
/// call-site fix in `consumer::g7` — the realistic atomic cross-module edit.
fn with_signature_edit(n: usize) -> Project {
    let mut p = wide_project(n);
    let wide = p.file("wide").unwrap().replace(
        "fn f7(x: int) -> int { return x + 7; }",
        "fn f7(x: int, y: int) -> int { return x + y; }",
    );
    p.set_file("wide".into(), wide);
    let consumer = p.file("consumer").unwrap().replace(
        "fn g7(x: int) -> int { return wide::f7(x) * 2; }",
        "fn g7(x: int) -> int { return wide::f7(x, 7) * 2; }",
    );
    p.set_file("consumer".into(), consumer);
    p
}

fn clean_image(p: &Project) -> Vec<u8> {
    let mut fresh = Builder::new(Compiler::new(Config::stateless()));
    to_bytes(&fresh.build(p).unwrap().program)
}

#[test]
fn body_edit_in_wide_module_reexecutes_one_functions_pipeline() {
    const N: usize = 32;
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    builder.build(&wide_project(N)).unwrap();
    let p = with_body_edit(N);
    let report = builder.build(&p).unwrap();

    // Exactly one function's pipeline ran: f7's checkfn, lowerfn, and
    // optimizefn. The other 31 wide functions — and all of consumer and
    // main — were spared by per-function fingerprint cutoff.
    assert_eq!(report.fngrain.fn_tasks_executed, 3);
    let executed = &report.query.executed;
    for t in [
        "checkfn(wide::f7)",
        "lowerfn(wide::f7)",
        "optimizefn(wide::f7)",
    ] {
        assert!(executed.iter().any(|e| e == t), "{t} missing: {executed:?}");
    }
    for t in executed {
        // fnast(wide::*) legitimately re-extracts for every function after
        // the re-parse — those unchanged fingerprints are the cutoff — but
        // no *pipeline* kind may touch any function except f7.
        if t.starts_with("checkfn(") || t.starts_with("lowerfn(") || t.starts_with("optimizefn(") {
            assert!(
                t.contains("wide::f7"),
                "untouched function re-executed: {t}"
            );
        }
        assert!(!t.contains("(consumer"), "consumer task ran: {t}");
        assert!(!t.contains("(main"), "main task ran: {t}");
    }
    // No signature re-extraction at all: a body edit leaves every
    // signature fingerprint untouched.
    assert_eq!(report.fngrain.signature_misses, 0);
    assert!(report.module("wide").unwrap().rebuilt);
    assert!(!report.module("consumer").unwrap().rebuilt);
    assert!(!report.module("main").unwrap().rebuilt);

    assert_eq!(to_bytes(&report.program), clean_image(&p));
}

#[test]
fn signature_edit_reexecutes_true_dependents_only() {
    const N: usize = 32;
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    builder.build(&wide_project(N)).unwrap();
    let p = with_signature_edit(N);
    let report = builder.build(&p).unwrap();

    let executed = &report.query.executed;
    // The edited function and its one true dependent re-ran...
    for t in ["optimizefn(wide::f7)", "checkfn(consumer::g7)"] {
        assert!(executed.iter().any(|e| e == t), "{t} missing: {executed:?}");
    }
    // ...and no other function's pipeline did — not the 31 sibling wide
    // functions, not the 31 sibling consumers pinned to other signatures.
    for t in executed {
        if t.starts_with("checkfn(") || t.starts_with("lowerfn(") || t.starts_with("optimizefn(") {
            assert!(
                t.contains("wide::f7") || t.contains("consumer::g7"),
                "untouched function re-executed: {t}"
            );
        }
    }
    // The interface-hash cliff is dead: the other consumers' signature
    // pins all validated. (signature(wide::*) re-executes — the interface
    // changed — but only f7's fingerprint changes.)
    assert!(report.fngrain.signature_hits > 0 || report.fngrain.cutoff_saved > 0);
    assert!(!report.module("main").unwrap().rebuilt);

    assert_eq!(to_bytes(&report.program), clean_image(&p));
}

#[test]
fn fngrain_incremental_builds_are_byte_identical_across_jobs() {
    const N: usize = 16;
    let edits: [fn(usize) -> Project; 3] = [wide_project, with_body_edit, with_signature_edit];

    // Replay the same edit sequence at several --jobs values; images,
    // rebuild counts, and the executed-task *sets* must all agree.
    type Replay = (Vec<Vec<u8>>, Vec<Vec<String>>);
    let mut replays: Vec<Replay> = Vec::new();
    for jobs in [1usize, 4, 8] {
        let mut builder = Builder::new(Compiler::new(Config::stateless())).with_jobs(jobs);
        let mut images = Vec::new();
        let mut tasks = Vec::new();
        for make in &edits {
            let report = builder.build(&make(N)).unwrap();
            images.push(to_bytes(&report.program));
            let mut executed = report.query.executed.clone();
            executed.sort();
            tasks.push(executed);
        }
        replays.push((images, tasks));
    }
    for (images, tasks) in &replays[1..] {
        assert_eq!(images, &replays[0].0, "images diverged across --jobs");
        assert_eq!(tasks, &replays[0].1, "task sets diverged across --jobs");
    }
    // And each step matches a from-scratch build of the same sources.
    for (step, make) in edits.iter().enumerate() {
        assert_eq!(replays[0].0[step], clean_image(&make(N)), "step {step}");
    }
}

#[test]
fn stateful_fngrain_replay_is_deterministic_across_jobs() {
    // Same discipline under dormancy skipping and the function cache: the
    // builds may legally differ from stateless ones, but must be identical
    // across --jobs (dormancy state is read-only within a wave and
    // committed at its boundary, and wave-batched restricted runs make skip
    // decisions demand-order independent).
    const N: usize = 16;
    let edits: [fn(usize) -> Project; 3] = [wide_project, with_body_edit, with_signature_edit];
    let mut images: Vec<Vec<Vec<u8>>> = Vec::new();
    for jobs in [1usize, 4] {
        let config = Config::stateful().with_function_cache();
        let mut builder = Builder::new(Compiler::new(config)).with_jobs(jobs);
        let mut per_step = Vec::new();
        for make in &edits {
            let report = builder.build(&make(N)).unwrap();
            per_step.push(to_bytes(&report.program));
        }
        images.push(per_step);
    }
    assert_eq!(
        images[0], images[1],
        "stateful builds diverged across --jobs"
    );
}
