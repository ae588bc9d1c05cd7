//! Differential correctness harness for the warm build daemon.
//!
//! The daemon's whole value is serving builds from memory — engine,
//! function cache, CAS handle, and per-function dormancy stamps resident —
//! so the thing to prove is that *warmth never changes an answer*. The
//! suite holds warm serves to three differentials:
//!
//! 1. **Warm daemon ≡ warm in-process oracle, byte for byte.** An oracle
//!    [`Builder`] replays the same edit script with the same durable-op
//!    sequence as the daemon's session. Image, dormancy-state, IR-cache
//!    bytes, and the report's rebuild decisions must all match after every
//!    commit — across `--jobs` values and across separate-but-equivalent
//!    CAS stores.
//! 2. **Warm daemon ≡ cold CLI sessions on outputs.** A fresh-builder cold
//!    session (one `minicc build --stateful --fn-cache` equivalent) of the
//!    same tree must produce the identical image, and a cold session must
//!    *accept* the daemon's state directory as-is (zero recovered files).
//!    Full state-byte identity is deliberately not asserted here: a cold
//!    build re-executes every function task and ingests fresh traces into
//!    the dormancy bookkeeping, while a warm engine validates without
//!    ingesting — same decisions, different history counters.
//! 3. **Across kill + restart.** A restarted daemon starts a fresh engine
//!    over the committed snapshot, exactly like a cold build does — so
//!    there the *full* byte identity (state and cache included) must hold
//!    against a cold lineage forked from the same snapshot.
//!
//! Concurrency, admission control (typed busy/timeout, queue bounds),
//! session confinement, flag-keyed session recycling, protocol rejection,
//! and warm depcheck audits (clean serves, seeded frozen-stamp lie caught)
//! ride along. Tests prefixed `quick_` form the `ci.sh --quick` subset.

use sfcc::{Compiler, Config, Durability};
use sfcc_buildsys::serve::BuildService;
use sfcc_buildsys::{BuildReport, Builder, DepMutations, Project};
use sfcc_daemon::{
    roundtrip, Daemon, DaemonHandle, DaemonOptions, ErrorKind, Reply, Request, Service,
};
use sfcc_faultfs::CommitDir;
use sfcc_trace::json;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

// ─── scratch + project plumbing ───

fn tmproot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-serve-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cleanup(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// Writes `p` as the complete tree at `dir` (stale `.mc` modules removed —
/// `write_to_dir` alone would leave deleted modules behind).
fn write_tree(dir: &Path, p: &Project) {
    fs::create_dir_all(dir).unwrap();
    for dirent in fs::read_dir(dir).unwrap() {
        let path = dirent.unwrap().path();
        if path.extension().is_some_and(|e| e == "mc") {
            fs::remove_file(&path).unwrap();
        }
    }
    p.write_to_dir(dir).unwrap();
}

fn fixture(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new();
    for (name, src) in files {
        p.set_file((*name).to_string(), (*src).to_string());
    }
    p
}

fn fixture_v1() -> Project {
    fixture(&[
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

fn fixture_v2() -> Project {
    fixture(&[
        ("base", "fn g(x: int) -> int { return x * 2; }"),
        (
            "lib",
            "import base;\nfn f(x: int) -> int { return base::g(x) + 3; }",
        ),
        (
            "main",
            "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
        ),
    ])
}

fn copy_tree(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for dirent in fs::read_dir(src).unwrap() {
        let dirent = dirent.unwrap();
        let to = dst.join(dirent.file_name());
        if dirent.path().is_dir() {
            copy_tree(&dirent.path(), &to);
        } else {
            fs::copy(dirent.path(), &to).unwrap();
        }
    }
}

// ─── daemon plumbing ───

fn start_daemon(root: &Path, configure: impl FnOnce(&mut DaemonOptions)) -> DaemonHandle {
    start_daemon_with(root, configure, BuildService::factory())
}

fn start_daemon_with(
    root: &Path,
    configure: impl FnOnce(&mut DaemonOptions),
    factory: sfcc_daemon::ServiceFactory,
) -> DaemonHandle {
    let mut options = DaemonOptions::new(root);
    options.socket = root.join("daemon.sock");
    configure(&mut options);
    Daemon::bind(options, factory).expect("bind daemon").spawn()
}

const WARM_FLAGS: &[&str] = &["--stateful", "--fn-cache"];

fn args_of(base: &[&str], extra: &[String]) -> Vec<String> {
    base.iter()
        .map(|s| s.to_string())
        .chain(extra.iter().cloned())
        .collect()
}

fn request(cmd: &str, dir: &Path, args: &[String]) -> Request {
    Request {
        cmd: cmd.to_string(),
        dir: Some(dir.display().to_string()),
        module: None,
        out: None,
        args: args.to_vec(),
        prog_args: Vec::new(),
    }
}

fn must_ok(socket: &Path, req: &Request) -> Reply {
    let reply = roundtrip(socket, req).expect("daemon transport");
    assert!(reply.ok, "request `{}` failed: {}", req.cmd, reply.raw);
    reply
}

fn must_err(socket: &Path, req: &Request) -> (ErrorKind, String) {
    let reply = roundtrip(socket, req).expect("daemon transport");
    assert!(
        !reply.ok,
        "request `{}` unexpectedly ok: {}",
        req.cmd, reply.raw
    );
    reply.error.expect("failed replies carry a typed error")
}

// ─── artifacts + oracle ───

/// Every byte a build leaves behind, plus the report's decision fields
/// (wall-clock excluded — it is the one legitimately nondeterministic
/// report field).
#[derive(PartialEq, Debug)]
struct Artifacts {
    image: Vec<u8>,
    state: Vec<u8>,
    cache: Vec<u8>,
    decisions: String,
}

fn image_path(dir: &Path) -> PathBuf {
    dir.with_extension("sbx")
}

/// The rebuild decisions of the persisted report: per-module rebuilt
/// flags, pass-outcome totals, query hit/miss counts, state generation.
fn decisions(dir: &Path) -> String {
    let text = fs::read_to_string(dir.join(".sfcc-report.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let mut out = String::new();
    for module in doc.get("modules").unwrap().as_arr().unwrap() {
        out.push_str(&format!(
            "{}={};",
            module.get("name").unwrap().as_str().unwrap(),
            module.get("rebuilt").unwrap().as_bool().unwrap(),
        ));
    }
    let query = doc.get("query").unwrap();
    out.push_str(&format!(
        "gen={};hits={};misses={}",
        doc.get("state_generation").unwrap().as_u64().unwrap(),
        query.get("hits").unwrap().as_u64().unwrap(),
        query.get("misses").unwrap().as_u64().unwrap(),
    ));
    out
}

fn artifacts(dir: &Path) -> Artifacts {
    let cd = CommitDir::new(&dir.join(".sfcc-state"));
    let manifest = cd.read_manifest().unwrap().expect("committed manifest");
    Artifacts {
        image: fs::read(image_path(dir)).unwrap(),
        state: cd.load_entry(manifest.entry("state").unwrap()).unwrap(),
        cache: cd.load_entry(manifest.entry("ircache").unwrap()).unwrap(),
        decisions: decisions(dir),
    }
}

fn warm_config(dir: &Path, cas: Option<&Path>) -> Config {
    let mut config = Config::stateful()
        .with_state_path(dir.join(".sfcc-state"))
        .with_function_cache();
    if let Some(cas) = cas {
        config = config.with_cas_path(cas.to_path_buf());
    }
    config
}

/// The in-process warm oracle: a persistent [`Builder`] replaying the
/// daemon session's exact durable-op sequence (build → save state → write
/// report → write image) against its own project directory.
struct Oracle {
    dir: PathBuf,
    builder: Builder,
}

impl Oracle {
    fn new(dir: &Path, jobs: usize, cas: Option<&Path>) -> Oracle {
        Oracle {
            dir: dir.to_path_buf(),
            builder: Builder::new(Compiler::new(warm_config(dir, cas))).with_jobs(jobs),
        }
    }

    fn build(&mut self) -> Artifacts {
        let p = Project::from_dir(&self.dir).unwrap();
        let mut report = self.builder.build(&p).unwrap();
        report.state_generation = self.builder.compiler().save_state().unwrap();
        fs::write(self.dir.join(".sfcc-report.json"), report.to_json()).unwrap();
        sfcc_backend::image::save_with(&report.program, &image_path(&self.dir), Durability::Fast)
            .unwrap();
        artifacts(&self.dir)
    }
}

/// One *cold* session: a fresh builder, engine empty — the in-process
/// equivalent of one `minicc build --stateful --fn-cache` invocation.
fn cold_session(dir: &Path, jobs: usize) -> BuildReport {
    let mut builder = Builder::new(Compiler::new(warm_config(dir, None))).with_jobs(jobs);
    let p = Project::from_dir(dir).unwrap();
    let mut report = builder.build(&p).unwrap();
    report.state_generation = builder.compiler().save_state().unwrap();
    fs::write(dir.join(".sfcc-report.json"), report.to_json()).unwrap();
    sfcc_backend::image::save_with(&report.program, &image_path(dir), Durability::Fast).unwrap();
    report
}

/// Drives `commits` edit-script steps against a warm daemon and the warm
/// oracle simultaneously, asserting full byte identity after every commit.
fn differential_run(tag: &str, seed: u64, jobs: usize, commits: usize, cas: bool) {
    let root = tmproot(tag);
    let warm_dir = root.join("warm");
    let oracle_dir = root.join("oracle");
    let (warm_cas, oracle_cas) = if cas {
        (Some(root.join("cas-warm")), Some(root.join("cas-oracle")))
    } else {
        (None, None)
    };

    let mut model = generate_model(&GeneratorConfig::small(seed));
    let mut script = EditScript::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    write_tree(&warm_dir, &model.render());
    write_tree(&oracle_dir, &model.render());

    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    let mut extra = Vec::new();
    if let Some(cas) = &warm_cas {
        extra.push("--cas".to_string());
        extra.push(cas.display().to_string());
    }
    extra.push("--jobs".to_string());
    extra.push(jobs.to_string());
    let args = args_of(WARM_FLAGS, &extra);
    let mut oracle = Oracle::new(&oracle_dir, jobs, oracle_cas.as_deref());

    for commit in 0..=commits {
        if commit > 0 {
            script.commit(&mut model);
            let p = model.render();
            write_tree(&warm_dir, &p);
            write_tree(&oracle_dir, &p);
        }
        must_ok(&socket, &request("build", &warm_dir, &args));
        let warm = artifacts(&warm_dir);
        let want = oracle.build();
        assert_eq!(
            warm.image, want.image,
            "commit {commit}: warm image diverges from oracle (seed {seed}, jobs {jobs})"
        );
        assert_eq!(
            warm.state, want.state,
            "commit {commit}: warm dormancy state diverges (seed {seed}, jobs {jobs})"
        );
        assert_eq!(
            warm.cache, want.cache,
            "commit {commit}: warm IR cache diverges (seed {seed}, jobs {jobs})"
        );
        assert_eq!(
            warm.decisions, want.decisions,
            "commit {commit}: warm rebuild decisions diverge (seed {seed}, jobs {jobs})"
        );
    }

    // The warm `ir` serve must match the oracle's store-reassembled IR.
    let module = "main";
    let mut ir_req = request("ir", &warm_dir, &args);
    ir_req.module = Some(module.to_string());
    let reply = must_ok(&socket, &ir_req);
    let warm_ir = reply
        .body
        .get("ir")
        .and_then(|v| v.as_str())
        .expect("ir reply carries text")
        .to_string();
    let oracle_ir = sfcc_ir::module_to_string(&oracle.builder.module_ir(module).unwrap());
    // Both sides build once more inside the comparison window; rebuild the
    // oracle first so its store is as fresh as the daemon's.
    assert_eq!(warm_ir, oracle_ir, "warm ir serve diverges (seed {seed})");

    handle.shutdown();
    cleanup(&root);
}

// ─── 1. warm vs oracle byte identity ───

#[test]
fn quick_warm_daemon_matches_warm_oracle_byte_for_byte() {
    differential_run("oracle-q", 7, 1, 3, false);
}

#[test]
fn warm_daemon_matches_oracle_across_jobs_and_seeds() {
    for seed in [11, 12] {
        for jobs in [1, 8] {
            differential_run(&format!("oracle-{seed}-{jobs}"), seed, jobs, 5, false);
        }
    }
}

#[test]
fn warm_daemon_matches_oracle_with_cas_warm_stores() {
    differential_run("oracle-cas", 21, 2, 4, true);
}

// ─── 2. warm vs cold CLI sessions ───

#[test]
fn quick_cold_build_accepts_warm_daemon_state_dir() {
    let root = tmproot("cold-accept");
    let warm_dir = root.join("warm");
    let mut model = generate_model(&GeneratorConfig::small(3));
    let mut script = EditScript::new(99);
    write_tree(&warm_dir, &model.render());

    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    for _ in 0..3 {
        must_ok(&socket, &request("build", &warm_dir, &args));
        script.commit(&mut model);
        write_tree(&warm_dir, &model.render());
    }
    must_ok(&socket, &request("build", &warm_dir, &args));
    let warm = artifacts(&warm_dir);
    handle.shutdown();

    // Fork the daemon's on-disk world and run a cold session over it: the
    // state dir must be accepted as-is (nothing recovered, nothing
    // quarantined) and the image must come out byte-identical.
    let cold_dir = root.join("cold");
    copy_tree(&warm_dir, &cold_dir);
    let report = cold_session(&cold_dir, 1);
    assert_eq!(
        report.recovered_files, 0,
        "cold build rejected the daemon's state dir"
    );
    assert!(report.quarantined.is_empty());
    let cold = artifacts(&cold_dir);
    assert_eq!(
        warm.image, cold.image,
        "cold rebuild of the daemon's tree produced a different image"
    );
    cleanup(&root);
}

#[test]
fn warm_run_serve_matches_cold_vm_results() {
    let root = tmproot("run-diff");
    let warm_dir = root.join("warm");
    let cold_dir = root.join("cold");
    write_tree(&warm_dir, &fixture_v1());
    write_tree(&cold_dir, &fixture_v1());

    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    for (version, expected) in [(fixture_v1(), 43), (fixture_v2(), 45)] {
        write_tree(&warm_dir, &version);
        write_tree(&cold_dir, &version);
        let mut run_req = request("run", &warm_dir, &args);
        run_req.prog_args = vec![21];
        let reply = must_ok(&socket, &run_req);
        let warm_result = match reply.body.get("return") {
            Some(json::Value::Num(n)) => *n as i64,
            other => panic!("run reply carries no return value: {other:?}"),
        };
        let report = cold_session(&cold_dir, 1);
        let cold_out = sfcc_backend::run(
            &report.program,
            "main.main",
            &[21],
            sfcc_backend::VmOptions::default(),
        )
        .unwrap();
        assert_eq!(warm_result, expected);
        assert_eq!(cold_out.return_value, Some(expected));
    }
    handle.shutdown();
    cleanup(&root);
}

// ─── 3. kill + restart ───

#[test]
fn quick_restarted_daemon_first_build_matches_cold_lineage() {
    let root = tmproot("restart");
    let warm_dir = root.join("warm");
    let mut model = generate_model(&GeneratorConfig::small(17));
    let mut script = EditScript::new(17);
    write_tree(&warm_dir, &model.render());

    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    must_ok(&socket, &request("build", &warm_dir, &args));
    script.commit(&mut model);
    write_tree(&warm_dir, &model.render());
    must_ok(&socket, &request("build", &warm_dir, &args));
    // Kill the daemon (graceful path; the crash matrix in
    // integration_crash.rs covers mid-commit kills op by op).
    handle.shutdown();

    // Fork the committed snapshot into a cold lineage, apply the same next
    // edit to both, and compare the restarted daemon's first build against
    // the cold session byte for byte: both start a fresh engine over the
    // identical snapshot, so even the dormancy-history bytes must agree.
    let cold_dir = root.join("cold");
    copy_tree(&warm_dir, &cold_dir);
    fs::copy(image_path(&warm_dir), image_path(&cold_dir)).unwrap();
    script.commit(&mut model);
    let p = model.render();
    write_tree(&warm_dir, &p);
    write_tree(&cold_dir, &p);

    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    must_ok(&socket, &request("build", &warm_dir, &args));
    let warm = artifacts(&warm_dir);
    cold_session(&cold_dir, 1);
    let cold = artifacts(&cold_dir);
    assert_eq!(warm.image, cold.image, "restart: image diverges from cold");
    assert_eq!(
        warm.state, cold.state,
        "restart: dormancy state diverges from cold"
    );
    assert_eq!(
        warm.cache, cold.cache,
        "restart: IR cache diverges from cold"
    );
    assert_eq!(
        warm.decisions, cold.decisions,
        "restart: rebuild decisions diverge from cold"
    );
    handle.shutdown();
    cleanup(&root);
}

// ─── concurrency + admission control ───

#[test]
fn concurrent_clients_on_distinct_projects_never_bleed() {
    let root = tmproot("conc");
    let handle = start_daemon(&root, |options| {
        options.max_active = 2;
        options.max_queued = 32;
    });
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);

    let threads: Vec<_> = (0..3)
        .map(|i| {
            let root = root.clone();
            let socket = socket.clone();
            let args = args.clone();
            std::thread::spawn(move || {
                let warm_dir = root.join(format!("warm{i}"));
                let oracle_dir = root.join(format!("oracle{i}"));
                let mut model = generate_model(&GeneratorConfig::small(31 + i));
                let mut script = EditScript::new(100 + i);
                let mut oracle = Oracle::new(&oracle_dir, 1, None);
                for commit in 0..3 {
                    script.commit(&mut model);
                    let p = model.render();
                    write_tree(&warm_dir, &p);
                    write_tree(&oracle_dir, &p);
                    let mut req = request("build", &warm_dir, &args);
                    req.args.push("--jobs".to_string());
                    req.args.push("1".to_string());
                    must_ok(&socket, &req);
                    let warm = artifacts(&warm_dir);
                    let want = oracle.build();
                    assert_eq!(
                        warm, want,
                        "client {i} commit {commit}: warm serve diverged — cross-session bleed?"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
    cleanup(&root);
}

/// A service that sleeps, for driving the admission gate deterministically.
struct Sleepy(Duration);

impl Service for Sleepy {
    fn handle(&mut self, _request: &Request) -> Result<String, String> {
        std::thread::sleep(self.0);
        Ok("\"slept\":true".to_string())
    }
    fn snapshot(&mut self) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn quick_overload_returns_typed_busy_and_timeout_never_hangs() {
    let root = tmproot("overload");
    for i in 0..3 {
        fs::create_dir_all(root.join(format!("p{i}"))).unwrap();
    }
    let handle = start_daemon_with(
        &root,
        |options| {
            options.max_active = 1;
            options.max_queued = 1;
            options.request_timeout = Duration::from_millis(300);
        },
        Box::new(|_, _| Ok(Box::new(Sleepy(Duration::from_millis(900))))),
    );
    let socket = handle.socket();

    // Occupy the single worker slot...
    let holder = {
        let socket = socket.clone();
        let root = root.clone();
        std::thread::spawn(move || must_ok(&socket, &request("build", &root.join("p0"), &[])))
    };
    std::thread::sleep(Duration::from_millis(150));
    // ...then fill the one queue slot with a request that must time out...
    let queued = {
        let socket = socket.clone();
        let root = root.clone();
        std::thread::spawn(move || must_err(&socket, &request("build", &root.join("p1"), &[])))
    };
    std::thread::sleep(Duration::from_millis(100));
    // ...and overflow: the third concurrent request is rejected instantly.
    let started = std::time::Instant::now();
    let (kind, message) = must_err(&socket, &request("build", &root.join("p2"), &[]));
    assert_eq!(
        kind,
        ErrorKind::Busy,
        "overflow must be a typed busy: {message}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "busy rejection must be immediate, not a hang"
    );
    let (kind, message) = queued.join().unwrap();
    assert_eq!(
        kind,
        ErrorKind::Timeout,
        "queued request must surface a typed timeout: {message}"
    );
    holder.join().unwrap();

    let stats = must_ok(&socket, &Request::bare("stats"));
    let daemon = stats.body.get("daemon").unwrap();
    assert!(daemon.get("busy").unwrap().as_u64().unwrap() >= 1);
    assert!(daemon.get("timeouts").unwrap().as_u64().unwrap() >= 1);
    handle.shutdown();
    cleanup(&root);
}

#[test]
fn quick_projects_outside_the_root_are_rejected_typed() {
    let root = tmproot("confine");
    let outside = tmproot("confine-outside");
    write_tree(&outside.join("p"), &fixture_v1());
    let handle = start_daemon(&root, |_| {});
    let (kind, _) = must_err(
        &handle.socket(),
        &request("build", &outside.join("p"), &args_of(WARM_FLAGS, &[])),
    );
    assert_eq!(kind, ErrorKind::OutsideRoot);
    handle.shutdown();
    cleanup(&root);
    cleanup(&outside);
}

#[test]
fn sessions_recycle_cleanly_when_flags_change() {
    let root = tmproot("recycle");
    let dir = root.join("p");
    write_tree(&dir, &fixture_v1());
    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    must_ok(&socket, &request("build", &dir, &args_of(WARM_FLAGS, &[])));
    // Different flag signature → the session snapshots and restarts cold;
    // the serve must still succeed and leave consistent artifacts.
    let o1 = args_of(&["--stateful", "--fn-cache", "-O1"], &[]);
    must_ok(&socket, &request("build", &dir, &o1));
    let stats = must_ok(&socket, &Request::bare("stats"));
    let created = stats
        .body
        .get("daemon")
        .unwrap()
        .get("sessions_created")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        created >= 2,
        "flag change must recycle the session, got {created}"
    );
    let _ = artifacts(&dir);
    handle.shutdown();
    cleanup(&root);
}

// ─── protocol rejection (in-process; the CLI contract rides in
//     crates/buildsys/tests/cli.rs) ───

#[test]
fn quick_malformed_requests_get_typed_errors_not_hangs() {
    use std::io::Write as _;
    let root = tmproot("malformed");
    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();

    // Valid frame, invalid JSON.
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    sfcc_daemon::protocol::write_frame(&mut stream, b"not json").unwrap();
    let payload = sfcc_daemon::protocol::read_frame(&mut stream)
        .unwrap()
        .unwrap();
    let reply = Reply::parse(String::from_utf8(payload).unwrap()).unwrap();
    assert_eq!(reply.error.unwrap().0, ErrorKind::Malformed);

    // Valid JSON, unknown command.
    let (kind, _) = must_err(&socket, &Request::bare("frobnicate"));
    assert_eq!(kind, ErrorKind::Malformed);

    // Hostile length prefix: rejected before allocation, connection closed.
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let answer = sfcc_daemon::protocol::read_frame(&mut stream).unwrap();
    if let Some(payload) = answer {
        let reply = Reply::parse(String::from_utf8(payload).unwrap()).unwrap();
        assert_eq!(reply.error.unwrap().0, ErrorKind::Malformed);
    }

    // The daemon survives all of the above.
    must_ok(&socket, &Request::bare("ping"));
    handle.shutdown();
    cleanup(&root);
}

// ─── warm depcheck audits ───

#[test]
fn quick_warm_depcheck_is_clean_and_a_frozen_stamp_lie_is_caught() {
    // Honest daemon: warm serves audit clean.
    let root = tmproot("depcheck-clean");
    let dir = root.join("p");
    write_tree(&dir, &fixture_v1());
    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    must_ok(&socket, &request("build", &dir, &args));
    write_tree(&dir, &fixture_v2());
    must_ok(&socket, &request("build", &dir, &args));
    let reply = must_ok(&socket, &request("depcheck", &dir, &args));
    assert_eq!(
        reply.body.get("clean").and_then(|v| v.as_bool()),
        Some(true),
        "warm serves must audit clean: {}",
        reply.raw
    );
    handle.shutdown();
    cleanup(&root);

    // Lying daemon: a frozen source stamp makes the engine serve stale
    // results after an edit; the warm depcheck audit must catch it.
    let root = tmproot("depcheck-lie");
    let dir = root.join("p");
    write_tree(&dir, &fixture_v1());
    let handle = start_daemon_with(
        &root,
        |_| {},
        Box::new(|dir, args| {
            Ok(Box::new(BuildService::new_with(
                dir,
                args,
                DepMutations::new().freeze_stamp("src:lib"),
            )?))
        }),
    );
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    must_ok(&socket, &request("build", &dir, &args));
    write_tree(&dir, &fixture_v2());
    let reply = must_ok(&socket, &request("depcheck", &dir, &args));
    assert_eq!(
        reply.body.get("clean").and_then(|v| v.as_bool()),
        Some(false),
        "the frozen-stamp lie escaped the warm audit: {}",
        reply.raw
    );
    handle.shutdown();
    cleanup(&root);
}
