//! Dependency-soundness matrix for `depcheck`.
//!
//! The invariant under test: **the incremental engine's declared
//! dependencies and the build's actual resource accesses agree, and any
//! disagreement is flagged before the byte-identity oracle can tell the
//! difference**. Clean builds — sequential, parallel, stateful, and the
//! committed demo project — must produce zero findings; every seeded lie
//! (`DepMutations`) must produce exactly the expected finding with task and
//! resource provenance; a frozen input stamp must surface as a stale serve
//! on the very build whose output went wrong.

use sfcc::{Compiler, Config};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::{
    validate_report_json, Builder, DepFindingKind, DepMutations, DepcheckReport, Project,
};

fn project(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new();
    for (name, src) in files {
        p.set_file((*name).to_string(), (*src).to_string());
    }
    p
}

/// Three modules exercising every task kind: per-module imports, interface,
/// frontend, lower, optimize, codegen, plus the singleton graph and link.
fn project_v1() -> Project {
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

/// `project_v1` with `base` edited — main.main(21) becomes 64 instead of 43.
fn project_v2() -> Project {
    project(&[
        ("base", "fn g(x: int) -> int { return x * 3; }"),
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

/// One cold depcheck-instrumented build of `project_v1` with `mutations`
/// injected, returning its analysis.
fn depcheck_build(mutations: DepMutations) -> DepcheckReport {
    let mut builder = Builder::new(Compiler::new(Config::stateless()))
        .with_depcheck()
        .with_dep_mutations(mutations);
    let report = builder.build(&project_v1()).unwrap();
    report.depcheck.expect("depcheck was enabled")
}

#[test]
fn quick_clean_build_has_zero_findings_cold_and_warm() {
    let mut builder = Builder::new(Compiler::new(Config::stateless())).with_depcheck();
    let p = project_v1();

    // Cold: every task kind executes and its declared inputs must match its
    // accesses exactly.
    let cold = builder.build(&p).unwrap().depcheck.unwrap();
    assert!(
        cold.is_clean(),
        "cold build must be clean:\n{}",
        cold.render()
    );
    assert!(cold.tasks_checked > 0, "the audit must have seen tasks");
    assert!(cold.accesses > 0, "the audit must have seen accesses");

    // Warm no-op: nothing executes; every store-served task passes the
    // stamp audit.
    let warm = builder.build(&p).unwrap().depcheck.unwrap();
    assert!(
        warm.is_clean(),
        "warm build must be clean:\n{}",
        warm.render()
    );
    assert!(warm.tasks_checked > 0, "served tasks must still be audited");
}

#[test]
fn clean_parallel_stateful_build_has_zero_findings() {
    // Task attribution must survive the work-stealing pool and the stateful
    // skip/cache machinery: same zero-findings bar with jobs=4, dormancy
    // skipping, and the function cache all on.
    let config = Config::stateful().with_function_cache();
    let mut builder = Builder::new(Compiler::new(config))
        .with_depcheck()
        .with_jobs(4);
    let p = project_v1();
    for label in ["cold", "warm"] {
        let dc = builder.build(&p).unwrap().depcheck.unwrap();
        assert!(
            dc.is_clean(),
            "{label} parallel stateful build must be clean:\n{}",
            dc.render()
        );
    }
}

#[test]
fn committed_demo_project_depchecks_clean() {
    // The acceptance bar for `minicc depcheck demo`, as a test: cold build
    // plus no-op rebuild of the hand-written demo project, zero findings.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let p = Project::from_dir(&dir).expect("demo directory exists");
    let mut builder = Builder::new(Compiler::new(Config::stateless())).with_depcheck();
    let mut merged = builder.build(&p).unwrap().depcheck.unwrap();
    merged.merge(builder.build(&p).unwrap().depcheck.unwrap());
    assert!(
        merged.is_clean(),
        "demo project must depcheck clean:\n{}",
        merged.render()
    );
}

#[test]
fn quick_seeded_missing_dep_is_caught_for_every_task_kind() {
    // Input-carrying tasks lie by *dropping* a declaration they need. In
    // the function-grained taxonomy the raw inputs are per-module source
    // (imports, parse), the manifest (graph), and the *per-function*
    // dormancy stamp (optimizefn).
    let dropped = [
        ("imports(base)", "src:base"),
        ("parse(base)", "src:base"),
        ("graph", "manifest"),
        ("optimizefn(base::g)", "state:base::g"),
    ];
    for (task, input) in dropped {
        let dc = depcheck_build(DepMutations::new().drop_dep(task, input));
        assert_eq!(
            dc.findings.len(),
            1,
            "dropping {input} from {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::MissingDep, "{task}");
        assert_eq!(f.task, task);
        assert_eq!(f.resource, input);
    }

    // ...input-free tasks (the derivation chain from parse to link declares
    // only Task deps) lie by *accessing* a resource they never declare —
    // including every per-function kind.
    let ghosts = [
        ("interface(base)", "ghost:iface"),
        ("modcheck(base)", "ghost:level"),
        ("fnast(base::g)", "ghost:ast"),
        ("signature(base::g)", "ghost:sig"),
        ("checkfn(base::g)", "ghost:checked"),
        ("lowerfn(base::g)", "ghost:ir"),
        ("codegen(base)", "ghost:obj"),
        ("link", "ghost:image"),
    ];
    for (task, resource) in ghosts {
        let dc = depcheck_build(DepMutations::new().phantom_access(task, resource));
        assert_eq!(
            dc.findings.len(),
            1,
            "phantom access {resource} by {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::MissingDep, "{task}");
        assert_eq!(f.task, task);
        assert_eq!(f.resource, resource);
    }
}

#[test]
fn quick_seeded_redundant_dep_is_caught_for_every_task_kind() {
    let tasks = [
        "imports(base)",
        "parse(base)",
        "interface(base)",
        "graph",
        "modcheck(base)",
        "fnast(base::g)",
        "signature(base::g)",
        "checkfn(base::g)",
        "lowerfn(base::g)",
        "optimizefn(base::g)",
        "codegen(base)",
        "link",
    ];
    for task in tasks {
        let dc = depcheck_build(DepMutations::new().phantom_dep(task, "phantom:seeded"));
        assert_eq!(
            dc.findings.len(),
            1,
            "phantom dep on {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::RedundantDep, "{task}");
        assert_eq!(f.task, task);
        assert_eq!(f.resource, "phantom:seeded");
    }
}

#[test]
fn frozen_stamp_surfaces_as_stale_serve_on_the_wrong_build() {
    // A frozen input stamp is the canonical silent wrong build: the edit to
    // `base` never invalidates its dependents, so the store serves the old
    // program. Depcheck must flag the stale serve on exactly the build whose
    // bytes went wrong.
    let mut lying = Builder::new(Compiler::new(Config::stateless()))
        .with_depcheck()
        .with_dep_mutations(DepMutations::new().freeze_stamp("src:base"));
    let mut honest = Builder::new(Compiler::new(Config::stateless()));

    // Build 1: the frozen stamp equals the raw stamp, so nothing is stale
    // yet and the audit is clean.
    let first = lying.build(&project_v1()).unwrap();
    assert!(first.depcheck.unwrap().is_clean());

    // Build 2 after the edit: invalidation is suppressed.
    let stale = lying.build(&project_v2()).unwrap();
    let dc = stale.depcheck.unwrap();
    assert!(
        dc.count(DepFindingKind::StaleServe) > 0,
        "suppressed invalidation must surface as stale serves:\n{}",
        dc.render()
    );
    assert!(
        dc.findings
            .iter()
            .all(|f| f.kind == DepFindingKind::StaleServe && f.resource == "src:base"),
        "every finding must point at the frozen input:\n{}",
        dc.render()
    );

    // The flagged build really is wrong: it still computes v1's answer
    // while an honest build of v2 computes the new one.
    let lied = run(&stale.program, "main.main", &[21], VmOptions::default()).unwrap();
    assert_eq!(
        lied.return_value,
        Some(43),
        "the stale serve kept v1's output"
    );
    let truth = honest.build(&project_v2()).unwrap();
    let out = run(&truth.program, "main.main", &[21], VmOptions::default()).unwrap();
    assert_eq!(out.return_value, Some(64));
}

#[test]
fn quick_depcheck_counters_always_present_in_report_json() {
    // Satellite regression: the depcheck block must exist — zeroed, not
    // absent — on reports from builds that never enabled the audit, so
    // `validate_report_json` holds on every exit path.
    let mut plain = Builder::new(Compiler::new(Config::stateless()));
    let report = plain.build(&project_v1()).unwrap();
    let json = report.to_json();
    validate_report_json(&json).expect("plain report must match the schema");
    assert!(
        json.contains("\"depcheck\":{\"enabled\":false,\"missing\":0,\"redundant\":0,"),
        "{json}"
    );

    // And with the audit on plus seeded findings, the same schema holds and
    // the findings serialize with full provenance.
    let mut audited = Builder::new(Compiler::new(Config::stateless()))
        .with_depcheck()
        .with_dep_mutations(DepMutations::new().drop_dep("graph", "manifest"));
    let report = audited.build(&project_v1()).unwrap();
    let json = report.to_json();
    validate_report_json(&json).expect("audited report must match the schema");
    assert!(
        json.contains("\"depcheck\":{\"enabled\":true,\"missing\":1,"),
        "{json}"
    );
    assert!(
        json.contains("{\"kind\":\"missing-dep\",\"task\":\"graph\",\"resource\":\"manifest\","),
        "{json}"
    );
}

#[test]
fn recovery_build_report_json_still_validates() {
    // The other error path of satellite 3: a build that recovers from
    // quarantined state must still emit schema-valid JSON with both the
    // recovery counters and the (zeroed) depcheck block present.
    let dir = std::env::temp_dir().join(format!(
        "sfcc-depcheck-recovery-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join(".sfcc-state");
    std::fs::write(&state, b"garbage, not a state file").unwrap();

    let config = Config::stateful().with_state_path(&state);
    let mut builder = Builder::new(Compiler::new(config));
    let report = builder.build(&project_v1()).unwrap();
    assert!(
        report.recovered_files > 0,
        "the garbage state must quarantine"
    );
    let json = report.to_json();
    validate_report_json(&json).expect("recovery report must match the schema");
    assert!(
        json.contains("\"recovery\":{\"recovered_files\":"),
        "{json}"
    );
    assert!(json.contains("\"depcheck\":{\"enabled\":false,"), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quick_cas_enabled_audit_stays_clean_cold_and_warm() {
    // Satellite: the shared artifact store routes every read and write
    // through its own task scope, and serves are audited via the
    // `cas:module::function` stamp channel — so attaching a store must
    // never cost a finding: not untracked I/O on the cold (publishing)
    // build, not a stale serve on the warm (fully served) one.
    let dir = std::env::temp_dir().join(format!(
        "sfcc-depcheck-cas-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let config = || Config::stateless().with_cas_path(&dir);
    let mut cold = Builder::new(Compiler::new(config())).with_depcheck();
    let dc = cold.build(&project_v1()).unwrap().depcheck.unwrap();
    assert!(
        dc.is_clean(),
        "publishing through the store must stay clean:\n{}",
        dc.render()
    );

    // A fresh builder over the warm store: every function is served from
    // the shared store and the serve stamps must all audit honest.
    let mut warm = Builder::new(Compiler::new(config())).with_depcheck();
    let dc = warm.build(&project_v1()).unwrap().depcheck.unwrap();
    assert!(
        dc.is_clean(),
        "store-served build must stay clean:\n{}",
        dc.render()
    );
    let stats = warm.compiler().cas_stats().unwrap();
    assert!(
        stats.hits > 0,
        "the warm build must actually be served: {stats:?}"
    );

    // The report's cas block reflects the serves and still validates.
    let report = Builder::new(Compiler::new(config()))
        .build(&project_v1())
        .unwrap();
    let json = report.to_json();
    validate_report_json(&json).unwrap();
    assert!(
        json.contains("\"cas\":{\"enabled\":true,\"hits\":"),
        "{json}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quick_rogue_io_outside_any_dependency_channel_is_flagged() {
    // Untracked-I/O regression seed: a task that touches the durable I/O
    // layer on a path no dependency channel tracks must be flagged, with
    // the task and path in the finding. This pins the audit that exempts
    // the store's own scope — the exemption must not widen past `cas`.
    let tasks = ["link", "codegen(base)", "optimizefn(base::g)"];
    for task in tasks {
        let dc =
            depcheck_build(DepMutations::new().rogue_io(task, "/nonexistent/sfcc-rogue-probe"));
        assert_eq!(
            dc.findings.len(),
            1,
            "rogue I/O by {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::UntrackedIo, "{task}");
        assert_eq!(f.task, task);
        assert!(
            f.resource.contains("sfcc-rogue-probe"),
            "the finding must name the path: {f:?}"
        );
    }
}

#[test]
fn quick_concurrent_unaudited_builds_are_not_charged_to_the_audit() {
    // The access log is process-global, but it records only the audited
    // session. Unaudited builds of the same project running at the same
    // time — plain and through a shared store, so their task labels and
    // resources (`src:base`, `cas:base::g`) overlap the audited build's —
    // must never surface as findings against it.
    let dir = std::env::temp_dir().join(format!(
        "sfcc-depcheck-crosstalk-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let noise = [Config::stateless(), Config::stateless().with_cas_path(&dir)];
        for config in noise {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let mut b = Builder::new(Compiler::new(config.clone())).with_jobs(2);
                    b.build(&project_v1()).unwrap();
                    b.build(&project_v2()).unwrap();
                }
            });
        }
        // Stop the noise even when an audit assertion unwinds, or the
        // scope would wait on it forever.
        struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let _stop = StopOnDrop(&stop);
        for round in 0..8 {
            let mut audited = Builder::new(Compiler::new(Config::stateless())).with_depcheck();
            for label in ["cold", "warm"] {
                let dc = audited.build(&project_v1()).unwrap().depcheck.unwrap();
                assert!(
                    dc.is_clean(),
                    "round {round}: {label} audit charged with another session's accesses:\n{}",
                    dc.render()
                );
            }
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
}
