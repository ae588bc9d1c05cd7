//! Cross-crate integration tests: workload → build system → stateful
//! compiler, including state persistence across builder sessions.

use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::{Builder, Project};
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};

#[test]
fn generated_project_builds_and_runs() {
    let model = generate_model(&GeneratorConfig::small(5));
    let mut builder = Builder::new(Compiler::new(Config::stateless().with_verification()));
    let report = builder.build(&model.render()).unwrap();
    assert_eq!(report.rebuilt_count(), model.modules.len());
    let out = run(&report.program, "main.main", &[3], VmOptions::default()).unwrap();
    assert!(out.executed > 0);
}

#[test]
fn commit_replay_rebuilds_minimally() {
    let mut model = generate_model(&GeneratorConfig::small(8));
    let mut script = EditScript::new(2);
    let mut builder = Builder::new(Compiler::new(Config::stateful().with_verification()));
    builder.build(&model.render()).unwrap();

    for _ in 0..10 {
        let commit = script.commit(&mut model);
        let report = builder.build(&model.render()).unwrap();
        // A body edit rebuilds exactly the edited module; an interface
        // change (add-fn) additionally rebuilds dependents.
        assert!(report.rebuilt_count() >= 1, "commit {commit:?}");
        assert!(
            report.module(&commit.module).unwrap().rebuilt,
            "commit {commit:?}"
        );
        if commit.kind != sfcc_workload::EditKind::AddFunction {
            assert_eq!(
                report.rebuilt_count(),
                1,
                "body edit must stay local: {commit:?}"
            );
        }
    }
}

#[test]
fn state_survives_builder_sessions_on_disk() {
    let dir = std::env::temp_dir().join(format!("sfcc-it-build-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let state_path = dir.join("state.bin");

    let mut model = generate_model(&GeneratorConfig::small(77));
    let mut script = EditScript::new(4);

    // Session 1: full build, persist.
    {
        let mut builder = Builder::new(Compiler::new(
            Config::stateful()
                .with_state_path(&state_path)
                .with_verification(),
        ));
        builder.build(&model.render()).unwrap();
        builder.compiler().save_state().unwrap();
    }

    // Session 2: fresh process-equivalent, same state dir — skipping works
    // on the first incremental build.
    {
        let mut builder = Builder::new(Compiler::new(
            Config::stateful()
                .with_state_path(&state_path)
                .with_verification(),
        ));
        script.commit(&mut model);
        let report = builder.build(&model.render()).unwrap();
        let (_, _, skipped) = report.outcome_totals();
        assert!(skipped > 0, "persisted state must enable skipping");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_state_degrades_to_cold_start() {
    let dir = std::env::temp_dir().join(format!("sfcc-it-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let state_path = dir.join("state.bin");
    std::fs::write(&state_path, b"not a state file at all").unwrap();

    let compiler = Compiler::new(Config::stateful().with_state_path(&state_path));
    assert!(compiler.state_load_error().is_some());
    let mut builder = Builder::new(compiler);
    let model = generate_model(&GeneratorConfig::small(3));
    let report = builder.build(&model.render()).unwrap();
    let (_, _, skipped) = report.outcome_totals();
    assert_eq!(skipped, 0, "cold start must not skip");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn project_round_trips_through_directory() {
    let dir = std::env::temp_dir().join(format!("sfcc-it-dir-{}", std::process::id()));
    let model = generate_model(&GeneratorConfig::small(13));
    let project = model.render();
    project.write_to_dir(&dir).unwrap();
    let loaded = Project::from_dir(&dir).unwrap();
    assert_eq!(project, loaded);

    // The loaded-from-disk project builds identically.
    let mut a = Builder::new(Compiler::new(Config::stateless()));
    let mut b = Builder::new(Compiler::new(Config::stateless()));
    let ra = a.build(&project).unwrap();
    let rb = b.build(&loaded).unwrap();
    let oa = run(&ra.program, "main.main", &[5], VmOptions::default()).unwrap();
    let ob = run(&rb.program, "main.main", &[5], VmOptions::default()).unwrap();
    assert_eq!(oa.return_value, ob.return_value);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parallel_and_sequential_stateful_builds_agree() {
    let mut model = generate_model(&GeneratorConfig::small(31));
    let mut script = EditScript::new(6);
    let policy = SkipPolicy::PreviousBuild;

    let mut seq = Builder::new(Compiler::new(Config::stateless().with_policy(policy)));
    let mut par =
        Builder::new(Compiler::new(Config::stateless().with_policy(policy))).with_parallelism();

    for _ in 0..4 {
        let project = model.render();
        let ra = seq.build(&project).unwrap();
        let rb = par.build(&project).unwrap();
        let oa = run(&ra.program, "main.main", &[7], VmOptions::default()).unwrap();
        let ob = run(&rb.program, "main.main", &[7], VmOptions::default()).unwrap();
        assert_eq!(oa.prints, ob.prints);
        assert_eq!(oa.return_value, ob.return_value);
        script.commit(&mut model);
    }
}

#[test]
fn committed_demo_project_builds_and_runs() {
    // The hand-written project in demo/ must stay green.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let project = Project::from_dir(&dir).expect("demo directory exists");
    assert_eq!(project.len(), 3);
    let mut builder = Builder::new(Compiler::new(Config::stateful().with_verification()));
    let report = builder.build(&project).unwrap();
    let out = run(&report.program, "main.main", &[5], VmOptions::default()).unwrap();
    assert_eq!(out.return_value, Some(824));
    assert_eq!(out.prints.len(), 20);

    // And the stateful rebuild skips.
    builder.clear_cache();
    let again = builder.build(&project).unwrap();
    assert!(again.outcome_totals().2 > 0);
}

/// Optimize tasks record the `state:m::f` stamp their trace will leave, and
/// the driver commits the traces at the wave boundary. If the recorded
/// stamp disagreed with the committed record, every re-optimized function
/// would invalidate itself on the next build; so after every commit of an
/// edit script, a no-op rebuild must miss nothing and leave the state
/// bytes untouched — at every `--jobs` value.
#[test]
fn wave_commits_leave_noop_rebuilds_clean_across_jobs() {
    for jobs in [1usize, 4] {
        let mut model = generate_model(&GeneratorConfig::small(12));
        let mut script = EditScript::new(9);
        let mut builder =
            Builder::new(Compiler::new(Config::stateful().with_function_cache())).with_jobs(jobs);
        for commit in 0..6 {
            if commit > 0 {
                script.commit(&mut model);
            }
            let project = model.render();
            let report = builder.build(&project).unwrap();
            assert!(
                report.metrics.scalar("build.waves").unwrap() > 1,
                "the project must span several waves"
            );
            let state = builder.compiler().state_bytes();
            let noop = builder.build(&project).unwrap();
            assert_eq!(noop.query.misses, 0, "jobs {jobs}, commit {commit}");
            assert_eq!(noop.rebuilt_count(), 0, "jobs {jobs}, commit {commit}");
            assert_eq!(
                builder.compiler().state_bytes(),
                state,
                "jobs {jobs}, commit {commit}: a no-op rebuild wrote state"
            );
        }
    }
}

/// A build that fails in a later wave still commits the dormancy records
/// of the waves before it: their optimize tasks are memoized with the
/// post-commit stamps, so the repaired build re-executes none of them.
#[test]
fn failed_build_keeps_earlier_waves_state_commits() {
    let base_v1 = "fn g(x: int) -> int { return x * 2; }";
    let lib_ok = "import base;\nfn f(x: int) -> int { return base::g(x) + 1; }";
    let mut p = Project::new();
    p.set_file("base".into(), base_v1.into());
    p.set_file("lib".into(), lib_ok.into());
    p.set_file(
        "main".into(),
        "import lib;\nfn main(n: int) -> int { return lib::f(n); }".into(),
    );
    let mut builder = Builder::new(Compiler::new(Config::stateful()));
    builder.build(&p).unwrap();
    let counter = |b: &Builder| b.compiler().state().module("base").unwrap().build_counter;
    assert_eq!(counter(&builder), 1);
    let stamp_before = builder.compiler().state_stamp_fn("base", "g");

    // Wave 0 (base) re-optimizes g; wave 1 (lib) fails type checking.
    p.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 3; }".into(),
    );
    p.set_file(
        "lib".into(),
        "import base;\nfn f(x: int) -> int { return base::g(x, x) + 1; }".into(),
    );
    match builder.build(&p).unwrap_err() {
        sfcc_buildsys::BuildError::Compile { module, .. } => assert_eq!(module, "lib"),
        other => panic!("expected lib to fail compiling, got {other}"),
    }
    assert_eq!(counter(&builder), 2, "wave 0's commit landed");
    assert_ne!(builder.compiler().state_stamp_fn("base", "g"), stamp_before);

    // The repaired build re-executes nothing of wave 0.
    p.set_file("lib".into(), lib_ok.into());
    let report = builder.build(&p).unwrap();
    assert!(!report.module("base").unwrap().rebuilt);
    assert!(
        !report.query.executed.iter().any(|t| t.contains("base::")),
        "wave-0 function task re-executed: {:?}",
        report.query.executed
    );
    assert_eq!(counter(&builder), 2);
}
