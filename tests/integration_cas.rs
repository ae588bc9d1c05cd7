//! Soundness matrix for the shared content-addressed artifact store
//! (`sfcc-cas`).
//!
//! The invariant under test: **a shared store may only ever change *where*
//! optimized IR comes from, never *what* it is**. Two distinct projects
//! built under identical configuration hit each other's artifacts
//! byte-identically; any single key component changed — function
//! fingerprint, pass pipeline, flag digest, backend version — forces a
//! miss; a seeded key-dropping lie (`DepMutations::drop_flag_from_key`)
//! produces a stale serve that depcheck flags on the very build it
//! happens; racing builders from separate processes never corrupt the
//! store; eviction under a tight budget costs recompiles, never wrong
//! hits; and a crash at every durable op during a publish leaves the store
//! fsck-clean. Tests prefixed `quick_` form the `ci.sh --quick` sweep.

use sfcc::{Compiler, Config};
use sfcc_backend::{disasm_program, run, VmOptions};
use sfcc_buildsys::{
    validate_report_json, BuildReport, Builder, DepFindingKind, DepMutations, Project,
};
use sfcc_faultfs::{self as ffs, Fault, FaultPlan};
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sfcc-cas-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cleanup(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

fn project(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new();
    for (name, src) in files {
        p.set_file((*name).to_string(), (*src).to_string());
    }
    p
}

/// Three modules, one function each: the canonical fixture.
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

/// A *different* project that shares `base` (and its one function) with
/// `project_v1` verbatim but has its own entry point.
fn project_other() -> Project {
    project(&[
        ("base", "fn g(x: int) -> int { return x * 2; }"),
        (
            "main",
            "import base;\nfn main(n: int) -> int { return base::g(n) + 7; }",
        ),
    ])
}

/// `project_v1` with `base` edited: every function fingerprint downstream
/// of `g` changes.
fn project_v1_edit() -> Project {
    project(&[
        ("base", "fn g(x: int) -> int { return x * 2 + 5; }"),
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

/// Builds `p` with a fresh compiler under `config`, returning the builder
/// (for stats) and the report.
fn build(config: Config, p: &Project, jobs: usize) -> (Builder, BuildReport) {
    let mut builder = Builder::new(Compiler::new(config)).with_jobs(jobs);
    let report = builder.build(p).unwrap();
    (builder, report)
}

/// The byte-level identity of a build: the disassembly of the linked
/// program, which covers every function body the store could have served.
fn fingerprint_of(report: &BuildReport) -> String {
    disasm_program(&report.program)
}

fn main_of(report: &BuildReport, arg: i64) -> i64 {
    run(&report.program, "main.main", &[arg], VmOptions::default())
        .unwrap()
        .return_value
        .unwrap()
}

// ---------------------------------------------------------------------------
// Cross-project sharing
// ---------------------------------------------------------------------------

#[test]
fn quick_two_projects_share_artifacts_byte_identically() {
    let store = tmpdir("share");

    // Reference: `project_other` built with no store attached.
    let (_, reference) = build(
        Config::stateless().with_function_cache(),
        &project_other(),
        1,
    );

    // Project A warms the store.
    let (a, _) = build(Config::stateless().with_cas_path(&store), &project_v1(), 1);
    let stats = a.compiler().cas_stats().unwrap();
    assert!(stats.publishes > 0, "a cold build must publish: {stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");

    // Project B — a different project sharing `base::g` — hits A's artifact.
    let (b, report) = build(
        Config::stateless().with_cas_path(&store),
        &project_other(),
        1,
    );
    let stats = b.compiler().cas_stats().unwrap();
    assert!(
        stats.hits > 0,
        "the shared function must hit across projects: {stats:?}"
    );

    // The served artifact must be invisible at the byte level.
    assert_eq!(fingerprint_of(&report), fingerprint_of(&reference));
    assert_eq!(main_of(&report, 21), 49);

    // The store itself must audit sound: nothing quarantined, manifest
    // intact. Replaced-generation debris (shared commits never GC; see
    // `CommitDir::commit_shared`) is swept on the first pass, after which
    // the audit must be fully clean.
    let fsck = sfcc_cas::fsck(&store).unwrap();
    assert!(
        fsck.quarantined.is_empty() && !fsck.repaired_manifest,
        "{fsck:?}"
    );
    assert!(sfcc_cas::fsck(&store).unwrap().clean());
    cleanup(&store);
}

#[test]
fn quick_same_project_full_hit_on_second_session() {
    let store = tmpdir("rehit");
    let (_, first) = build(Config::stateless().with_cas_path(&store), &project_v1(), 1);
    let (b, second) = build(Config::stateless().with_cas_path(&store), &project_v1(), 1);
    let stats = b.compiler().cas_stats().unwrap();
    assert_eq!(
        stats.misses, 0,
        "a warm store must serve everything: {stats:?}"
    );
    assert!(stats.hits >= 3, "{stats:?}");
    assert_eq!(stats.publishes, 0, "nothing new to publish: {stats:?}");
    assert_eq!(fingerprint_of(&first), fingerprint_of(&second));
    cleanup(&store);
}

// ---------------------------------------------------------------------------
// Key discipline: every component changed forces a miss
// ---------------------------------------------------------------------------

#[test]
fn quick_every_key_component_forces_a_miss() {
    let store = tmpdir("keymiss");
    build(Config::stateless().with_cas_path(&store), &project_v1(), 1);

    // (fn) Edited source: the edited function's fingerprint changes, so it
    // must miss and republish. Its unchanged dependents keep their context
    // fingerprints (fine-grained cutoff) and legitimately still hit — the
    // oracle is byte-identity with a store-free build of the edit.
    let (_, reference) = build(
        Config::stateless().with_function_cache(),
        &project_v1_edit(),
        1,
    );
    let (c, report) = build(
        Config::stateless().with_cas_path(&store),
        &project_v1_edit(),
        1,
    );
    let stats = c.compiler().cas_stats().unwrap();
    assert!(stats.misses >= 1, "the edited fn must miss: {stats:?}");
    assert!(
        stats.publishes >= 1,
        "the edited fn must republish: {stats:?}"
    );
    assert_eq!(fingerprint_of(&report), fingerprint_of(&reference));

    // Each remaining component gets a fresh store so the previous probe's
    // publishes cannot mask it.
    for (label, config) in [
        (
            "pipeline",
            Config::stateless()
                .with_cas_path(&store)
                .with_opt_level(sfcc::OptLevel::O1),
        ),
        (
            "flags",
            Config::stateless()
                .with_cas_path(&store)
                .with_verification(),
        ),
        (
            "backend",
            Config::stateless()
                .with_cas_path(&store)
                .with_cas_backend_version(2),
        ),
    ] {
        let (c, _) = build(config, &project_v1(), 1);
        let stats = c.compiler().cas_stats().unwrap();
        assert_eq!(
            stats.hits, 0,
            "component `{label}` must key the store: {stats:?}"
        );
        assert!(stats.misses > 0, "component `{label}`: {stats:?}");
    }

    // Control: the matching configuration still hits.
    let (c, _) = build(Config::stateless().with_cas_path(&store), &project_v1(), 1);
    assert!(c.compiler().cas_stats().unwrap().hits >= 3);
    cleanup(&store);
}

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

#[test]
fn quick_report_schema_pins_the_cas_block() {
    let store = tmpdir("schema");
    let (_, with_cas) = build(Config::stateless().with_cas_path(&store), &project_v1(), 1);
    let json = with_cas.to_json();
    validate_report_json(&json).unwrap();
    assert!(
        json.contains("\"cas\":{\"enabled\":true"),
        "an attached store must surface in the report: {json}"
    );

    // Without a store the block is present, zeroed, and still validates.
    let (_, without) = build(Config::stateless(), &project_v1(), 1);
    let json = without.to_json();
    validate_report_json(&json).unwrap();
    assert!(json.contains("\"cas\":{\"enabled\":false"));
    cleanup(&store);
}

// ---------------------------------------------------------------------------
// Seeded key-dropping lies: depcheck flags the stale serve (satellite 1)
// ---------------------------------------------------------------------------

/// Seeds the store through a builder whose key derivation drops
/// `component`, then rebuilds under a configuration differing only in that
/// component (or, for `fn`, the same configuration — dropping the function
/// fingerprint already makes distinct functions collide). The under-keyed
/// lookup cross-serves, and the depcheck stamp audit must flag it as a
/// stale serve on that very build.
fn stale_serve_matrix(component: &str, seed_config: Config, probe_config: Config) {
    let store = tmpdir(&format!("lie-{component}"));
    let drops = DepMutations::new().drop_flag_from_key(component);

    let mut seeder = Builder::new(Compiler::new(seed_config.with_cas_path(&store)))
        .with_dep_mutations(drops.clone());
    seeder.build(&project_v1()).unwrap();

    let mut probe = Builder::new(Compiler::new(probe_config.with_cas_path(&store)))
        .with_depcheck()
        .with_dep_mutations(drops);
    let report = probe.build(&project_v1()).unwrap();
    let stats = probe.compiler().cas_stats().unwrap();
    assert!(
        stats.hits > 0,
        "the under-keyed store must cross-serve for `{component}`: {stats:?}"
    );
    let depcheck = report.depcheck.expect("depcheck was enabled");
    let stale: Vec<_> = depcheck
        .findings
        .iter()
        .filter(|f| f.kind == DepFindingKind::StaleServe && f.resource.starts_with("cas:"))
        .collect();
    assert!(
        !stale.is_empty(),
        "dropping `{component}` from the key must surface as a stale serve, got:\n{}",
        depcheck.render()
    );
    cleanup(&store);
}

#[test]
fn quick_dropped_fn_component_is_flagged_as_stale_serve() {
    // Same configuration both sides: with the function fingerprint dropped,
    // `base::g`, `lib::f`, and `main::main` all collide on one key.
    stale_serve_matrix("fn", Config::stateless(), Config::stateless());
}

#[test]
fn dropped_pipeline_component_is_flagged_as_stale_serve() {
    stale_serve_matrix(
        "pipeline",
        Config::stateless(),
        Config::stateless().with_opt_level(sfcc::OptLevel::O1),
    );
}

#[test]
fn dropped_flags_component_is_flagged_as_stale_serve() {
    stale_serve_matrix(
        "flags",
        Config::stateless(),
        Config::stateless().with_verification(),
    );
}

#[test]
fn dropped_backend_component_is_flagged_as_stale_serve() {
    stale_serve_matrix(
        "backend",
        Config::stateless(),
        Config::stateless().with_cas_backend_version(2),
    );
}

#[test]
fn honest_keys_survive_the_same_depcheck_audit() {
    // Control for the matrix above: the same differing-configuration
    // rebuild *without* the key-dropping lie misses instead of
    // cross-serving, and the audit stays clean.
    let store = tmpdir("honest");
    build(Config::stateless().with_cas_path(&store), &project_v1(), 1);
    let mut probe = Builder::new(Compiler::new(
        Config::stateless()
            .with_cas_path(&store)
            .with_opt_level(sfcc::OptLevel::O1),
    ))
    .with_depcheck();
    let report = probe.build(&project_v1()).unwrap();
    assert_eq!(probe.compiler().cas_stats().unwrap().hits, 0);
    let depcheck = report.depcheck.unwrap();
    assert!(depcheck.is_clean(), "{}", depcheck.render());
    cleanup(&store);
}

// ---------------------------------------------------------------------------
// Concurrent multi-process access
// ---------------------------------------------------------------------------

/// Hidden worker: one racing builder process. Gated on `SFCC_CAS_RACE_DIR`
/// so a normal test run passes through it instantly; the race test below
/// re-execs this binary with the variable set.
#[test]
fn race_worker_entry() {
    let Ok(store) = std::env::var("SFCC_CAS_RACE_DIR") else {
        return;
    };
    let seed: u64 = std::env::var("SFCC_CAS_RACE_SEED")
        .unwrap()
        .parse()
        .unwrap();
    // Alternate project shapes so publishes and hits race each other.
    let p = if seed.is_multiple_of(2) {
        project_v1()
    } else {
        project_other()
    };
    let (_, report) = build(
        Config::stateless().with_cas_path(PathBuf::from(&store)),
        &p,
        2,
    );
    let expected = if seed.is_multiple_of(2) { 43 } else { 49 };
    assert_eq!(main_of(&report, 21), expected);
}

#[test]
fn racing_builder_processes_never_corrupt_the_store() {
    let store = tmpdir("race");
    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = (0..4u64)
        .map(|seed| {
            std::process::Command::new(&exe)
                .args(["race_worker_entry", "--exact", "--test-threads=1"])
                .env("SFCC_CAS_RACE_DIR", &store)
                .env("SFCC_CAS_RACE_SEED", seed.to_string())
                // Captured, so the children's test-harness lines do not
                // interleave with this harness's output.
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    for child in children {
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "a racing builder failed: {:?}\n{}{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Whatever interleaving happened, nothing in the store may be corrupt:
    // no quarantined artifact, no manifest repair. Losing publishers may
    // leave orphaned generation files — benign debris the audit sweeps —
    // after which the store must be fully clean.
    let fsck = sfcc_cas::fsck(&store).unwrap();
    assert!(
        fsck.quarantined.is_empty() && !fsck.repaired_manifest,
        "racing builders corrupted the store: {fsck:?}"
    );
    let second = sfcc_cas::fsck(&store).unwrap();
    assert!(second.clean(), "audit did not converge: {second:?}");

    // ...and serve byte-identical artifacts to a fresh consumer.
    let (_, reference) = build(Config::stateless().with_function_cache(), &project_v1(), 1);
    let (c, report) = build(Config::stateless().with_cas_path(&store), &project_v1(), 1);
    assert!(c.compiler().cas_stats().unwrap().hits > 0);
    assert_eq!(fingerprint_of(&report), fingerprint_of(&reference));
    cleanup(&store);
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

#[test]
fn quick_eviction_under_a_tight_budget_never_produces_a_wrong_hit() {
    let store = tmpdir("evict");
    let (_, reference) = build(Config::stateless().with_function_cache(), &project_v1(), 1);

    // A budget below one artifact forces the store to evict everything it
    // publishes; the discipline under test is that it evicts, misses, and
    // recompiles — never serves a stale or partial entry.
    let (a, _) = build(
        Config::stateless()
            .with_cas_path(&store)
            .with_cas_budget(64),
        &project_v1(),
        1,
    );
    let stats = a.compiler().cas_stats().unwrap();
    assert!(stats.evictions > 0, "{stats:?}");
    assert!(stats.bytes <= 64, "the budget must hold: {stats:?}");

    let (b, report) = build(
        Config::stateless()
            .with_cas_path(&store)
            .with_cas_budget(64),
        &project_v1(),
        1,
    );
    let stats = b.compiler().cas_stats().unwrap();
    assert_eq!(stats.hits, 0, "evicted keys must miss: {stats:?}");
    assert_eq!(fingerprint_of(&report), fingerprint_of(&reference));
    assert_eq!(main_of(&report, 21), 43);

    // Sound after eviction: nothing quarantined, manifest intact; the
    // first pass may sweep replaced-generation debris, then fully clean.
    let fsck = sfcc_cas::fsck(&store).unwrap();
    assert!(
        fsck.quarantined.is_empty() && !fsck.repaired_manifest,
        "{fsck:?}"
    );
    assert!(sfcc_cas::fsck(&store).unwrap().clean());
    cleanup(&store);
}

// ---------------------------------------------------------------------------
// Crash safety
// ---------------------------------------------------------------------------

#[test]
fn crash_at_every_op_during_cas_publish_leaves_the_store_fsck_clean() {
    let p = project_v1();
    let (_, reference) = build(Config::stateless().with_function_cache(), &p, 1);
    let want = fingerprint_of(&reference);

    // Record the durable-op trace of one cold CAS session; every op in it
    // belongs to the store (the build itself is stateless).
    let n = {
        let dir = tmpdir("crash-rec");
        let rec = ffs::record();
        build(Config::stateless().with_cas_path(&dir), &p, 1);
        let n = rec.take().len() as u64;
        drop(rec);
        cleanup(&dir);
        n
    };
    assert!(
        n >= 5,
        "a publish must perform several durable ops, got {n}"
    );

    // K = n + 1 is the fault-free boundary trial.
    for k in 1..=n + 1 {
        let store = tmpdir(&format!("crash-k{k}"));
        {
            let _g = ffs::install(FaultPlan::single(Fault::CrashAt(k)));
            // The build itself must survive the store's death: artifacts
            // come from local computation when the store cannot serve.
            let mut builder =
                Builder::new(Compiler::new(Config::stateless().with_cas_path(&store)));
            let report = builder.build(&p).unwrap();
            assert_eq!(
                fingerprint_of(&report),
                want,
                "a store crash at op {k} leaked into the output"
            );
        }
        // First audit repairs whatever the crash left; the second must
        // find nothing — repair converges.
        sfcc_cas::fsck(&store).unwrap();
        let second = sfcc_cas::fsck(&store).unwrap();
        assert!(
            second.clean(),
            "fsck did not converge after op {k}: {second:?}"
        );

        // A clean session against the repaired store stays byte-identical.
        let (_, report) = build(Config::stateless().with_cas_path(&store), &p, 1);
        assert_eq!(fingerprint_of(&report), want, "after crash at op {k}");
        cleanup(&store);
    }
}

// ---------------------------------------------------------------------------
// Jobs invariance over a shared store (satellite: wave-boundary insert race)
// ---------------------------------------------------------------------------

#[test]
fn quick_jobs_invariance_over_a_partially_warm_store() {
    // Seed the store with v1, then build the *edited* project: some
    // functions hit the store, the edited chain computes locally, and the
    // two paths race at wave boundaries under --jobs. Every jobs value
    // must produce byte-identical output.
    let store = tmpdir("jobs");
    build(Config::stateless().with_cas_path(&store), &project_v1(), 1);

    let (_, no_cas) = build(
        Config::stateless().with_function_cache(),
        &project_v1_edit(),
        1,
    );
    let want = fingerprint_of(&no_cas);

    for jobs in [1, 2, 8] {
        let (c, report) = build(
            Config::stateless().with_cas_path(&store),
            &project_v1_edit(),
            jobs,
        );
        assert_eq!(
            fingerprint_of(&report),
            want,
            "jobs={jobs} diverged over the shared store"
        );
        let stats = c.compiler().cas_stats().unwrap();
        assert!(
            stats.hits + stats.misses > 0,
            "jobs={jobs} never consulted the store: {stats:?}"
        );
    }
    cleanup(&store);
}
