//! CLI-level coverage for the `minicc` observability and recovery
//! commands: exit codes and stderr/stdout contracts of `stats`,
//! `trace-check`, and `fsck` against a clean project, quarantined state
//! files, and a missing state dir. Tests prefixed `quick_` form the CI
//! smoke subset.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A scratch copy of the checked-in `demo/` project (three modules).
fn demo_copy(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    for entry in std::fs::read_dir(demo).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "mc") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
    }
    dir
}

fn minicc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minicc"))
        .args(args)
        .output()
        .expect("failed to launch minicc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn quick_stats_without_report_fails_with_hint() {
    let dir = demo_copy("stats-missing");
    let out = minicc(&["stats", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "stats must fail before any build");
    let err = stderr(&out);
    assert!(
        err.contains(".sfcc-report.json") && err.contains("run `minicc build"),
        "stderr must name the missing report and hint at `build`: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_build_then_stats_renders_registry() {
    let dir = demo_copy("stats-ok");
    let d = dir.to_str().unwrap();
    let built = minicc(&["build", d]);
    assert!(built.status.success(), "build failed: {}", stderr(&built));
    assert!(
        dir.join(".sfcc-report.json").is_file(),
        "report not persisted"
    );

    let out = minicc(&["stats", d]);
    assert!(out.status.success(), "stats failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("metric(s)"), "missing header: {text}");
    for metric in [
        "build.wall_ns",
        "query.misses",
        "outcomes.dormant",
        "cache.hits",
    ] {
        assert!(
            text.contains(metric),
            "stats output missing {metric}: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_trace_export_validates_and_is_deterministic() {
    let dir_a = demo_copy("trace-a");
    let dir_b = demo_copy("trace-b");
    let trace_a = dir_a.join("trace.json");
    let trace_b = dir_b.join("trace.json");
    let run = |dir: &Path, trace: &Path, jobs: &str| {
        let out = minicc(&[
            "build",
            dir.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        assert!(
            out.status.success(),
            "traced build failed: {}",
            stderr(&out)
        );
    };
    // Two cold builds of identical sources, opposite parallelism.
    run(&dir_a, &trace_a, "1");
    run(&dir_b, &trace_b, "8");
    let bytes_a = std::fs::read(&trace_a).unwrap();
    let bytes_b = std::fs::read(&trace_b).unwrap();
    assert_eq!(
        bytes_a, bytes_b,
        "trace bytes differ between --jobs 1 and 8"
    );

    let out = minicc(&["trace-check", trace_a.to_str().unwrap()]);
    assert!(out.status.success(), "trace-check failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("valid") && text.contains("pass event(s)"),
        "unexpected trace-check summary: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn quick_trace_check_rejects_invalid_and_missing() {
    let dir = scratch_dir("trace-bad");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
    let out = minicc(&["trace-check", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "malformed trace must be rejected");

    let missing = dir.join("nope.json");
    let out = minicc(&["trace-check", missing.to_str().unwrap()]);
    assert!(!out.status.success(), "missing trace file must be rejected");
    assert!(
        stderr(&out).contains("nope.json"),
        "stderr must name the missing file: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_clean_after_stateful_build() {
    let dir = demo_copy("fsck-clean");
    let d = dir.to_str().unwrap();
    let built = minicc(&["build", d, "--stateful", "--fn-cache"]);
    assert!(built.status.success(), "build failed: {}", stderr(&built));

    let out = minicc(&["fsck", d]);
    assert!(out.status.success(), "fsck failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("2 file(s) checked") && text.contains("clean"),
        "clean state dir must verify both entries: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_quarantines_corrupt_manifest_then_recovers() {
    let dir = demo_copy("fsck-corrupt");
    let d = dir.to_str().unwrap();
    let built = minicc(&["build", d, "--stateful", "--fn-cache"]);
    assert!(built.status.success(), "build failed: {}", stderr(&built));

    // Flip one byte in the middle of the commit manifest.
    let manifest = dir.join(".sfcc-state.manifest");
    let mut bytes = std::fs::read(&manifest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&manifest, &bytes).unwrap();

    let out = minicc(&["fsck", d]);
    assert!(
        out.status.success(),
        "fsck must not fail on corruption: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("quarantined"),
        "corrupt manifest not quarantined: {text}"
    );
    assert!(
        dir.join(".sfcc-state.manifest.corrupt").is_file(),
        "quarantined manifest must be preserved with a .corrupt suffix"
    );
    assert!(
        text.contains("next stateful build recompiles"),
        "fsck must explain the recovery path: {text}"
    );

    // A second fsck finds nothing left to quarantine, and a rebuild
    // recreates a clean state dir from scratch.
    let again = minicc(&["fsck", d]);
    assert!(again.status.success());
    assert!(
        stdout(&again).contains("clean"),
        "second fsck not clean: {}",
        stdout(&again)
    );
    let rebuilt = minicc(&["build", d, "--stateful", "--fn-cache"]);
    assert!(
        rebuilt.status.success(),
        "rebuild failed: {}",
        stderr(&rebuilt)
    );
    let final_check = minicc(&["fsck", d]);
    assert!(stdout(&final_check).contains("2 file(s) checked"));
    assert!(stdout(&final_check).contains("clean"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_missing_state_dir_reports_clean() {
    let dir = scratch_dir("fsck-missing");
    let missing = dir.join("no-such-project");
    let out = minicc(&["fsck", missing.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "fsck of absent state must succeed: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("0 file(s) checked") && text.contains("clean"),
        "absent state must be vacuously clean: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_without_operand_prints_usage() {
    let out = minicc(&["fsck"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("usage:"),
        "missing usage: {}",
        stderr(&out)
    );
}

// ---------------------------------------------------------------------------
// `minicc serve` / `minicc client` protocol contract (real processes)
// ---------------------------------------------------------------------------

/// A live `minicc serve` child process. Killed on drop so a failing test
/// never leaks a daemon.
struct ServeProc {
    child: Option<std::process::Child>,
    socket: PathBuf,
}

impl ServeProc {
    fn socket(&self) -> &str {
        self.socket.to_str().unwrap()
    }

    /// Asks the daemon to shut down and returns its captured output.
    fn shutdown_and_wait(mut self) -> Output {
        let out = minicc(&["client", self.socket(), "shutdown"]);
        assert!(out.status.success(), "shutdown must succeed");
        self.child.take().unwrap().wait_with_output().unwrap()
    }

    /// Sends SIGTERM to the daemon and returns its captured output.
    fn terminate_and_wait(mut self) -> Output {
        let child = self.child.take().unwrap();
        let pid = child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("launch kill");
        assert!(status.success(), "kill -TERM must succeed");
        child.wait_with_output().unwrap()
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_serve(root: &Path, extra: &[&str]) -> ServeProc {
    let socket = root.join("d.sock");
    let child = Command::new(env!("CARGO_BIN_EXE_minicc"))
        .arg("serve")
        .arg(root)
        .arg("--socket")
        .arg(&socket)
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("launch minicc serve");
    let proc = ServeProc {
        child: Some(child),
        socket,
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        if minicc(&["client", proc.socket(), "ping"]).status.success() {
            return proc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon did not come up within 20s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn write_project(dir: &Path, files: &[(&str, &str)]) {
    std::fs::create_dir_all(dir).unwrap();
    for (name, src) in files {
        std::fs::write(dir.join(format!("{name}.mc")), src).unwrap();
    }
}

fn v1_files() -> Vec<(&'static str, &'static str)> {
    vec![
        ("base", "fn g(x: int) -> int { return x * 2; }"),
        (
            "lib",
            "import base;\nfn f(x: int) -> int { return base::g(x) + 1; }",
        ),
        (
            "main",
            "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
        ),
    ]
}

#[test]
fn quick_serve_client_lifecycle_contract() {
    let root = scratch_dir("serve-life");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let dir = dir.to_str().unwrap().to_string();
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    // Cold served build: summary + image path on stdout, exit 0.
    let out = minicc(&["client", &sock, "build", &dir, "--stateful", "--fn-cache"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("built 3 module(s)"), "{text}");
    assert!(text.contains("wrote "), "{text}");

    // Warm rebuild: nothing recompiles, the engine answers from memory.
    let out = minicc(&["client", &sock, "build", &dir, "--stateful", "--fn-cache"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("(0 recompiled)"), "{}", stdout(&out));

    // Warm run and IR serves.
    let out = minicc(&[
        "client",
        &sock,
        "run",
        &dir,
        "--stateful",
        "--fn-cache",
        "--",
        "21",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("main.main([21]) = 43"),
        "{}",
        stdout(&out)
    );
    let out = minicc(&[
        "client",
        &sock,
        "ir",
        &dir,
        "main",
        "--stateful",
        "--fn-cache",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("fn @main"), "{}", stdout(&out));

    // Stats is served inline and reports the session.
    let out = minicc(&["client", &sock, "stats"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"daemon\""), "{}", stdout(&out));

    // Malformed client commands are rejected before touching the wire.
    let out = minicc(&["client", &sock, "frobnicate"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown client command"),
        "{}",
        stderr(&out)
    );

    // Graceful shutdown removes the socket; shutdown is idempotent; a
    // dead socket is a transport failure (exit 2) for ordinary commands.
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("shut down cleanly"),
        "{}",
        stdout(&out)
    );
    assert!(!Path::new(&sock).exists(), "socket file must be removed");
    let out = minicc(&["client", &sock, "shutdown"]);
    assert!(out.status.success(), "second shutdown must be idempotent");
    assert!(
        stdout(&out).contains("daemon: already gone"),
        "{}",
        stdout(&out)
    );
    let out = minicc(&["client", &sock, "ping"]);
    assert_eq!(out.status.code(), Some(2), "dead socket must exit 2");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_stale_socket_is_recovered_on_bind() {
    let root = scratch_dir("serve-stale");
    let socket = root.join("d.sock");
    // A dead daemon leaves its socket file behind: bind one and drop it
    // without unlinking.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists(), "stale socket file must remain on disk");

    let daemon = spawn_serve(&root, &[]);
    let out = minicc(&["client", daemon.socket(), "ping"]);
    assert!(out.status.success(), "daemon must recover the stale socket");
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_second_daemon_on_a_live_socket_is_refused() {
    let root = scratch_dir("serve-dup");
    let daemon = spawn_serve(&root, &[]);

    let out = Command::new(env!("CARGO_BIN_EXE_minicc"))
        .arg("serve")
        .arg(&root)
        .arg("--socket")
        .arg(&daemon.socket)
        .output()
        .unwrap();
    assert!(!out.status.success(), "second daemon must be refused");
    assert!(stderr(&out).contains("already serving"), "{}", stderr(&out));

    // The live daemon is unharmed.
    let out = minicc(&["client", daemon.socket(), "ping"]);
    assert!(out.status.success());
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_sigterm_snapshots_and_a_cold_build_accepts() {
    let root = scratch_dir("serve-term");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let dir_s = dir.to_str().unwrap().to_string();
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    let out = minicc(&["client", &sock, "build", &dir_s, "--stateful", "--fn-cache"]);
    assert!(out.status.success(), "{}", stderr(&out));

    // kill -TERM at an arbitrary quiet point: the daemon drains, snapshots,
    // and exits cleanly.
    let out = daemon.terminate_and_wait();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("shut down cleanly"),
        "{}",
        stdout(&out)
    );
    assert!(!Path::new(&sock).exists(), "socket file must be removed");

    // A cold CLI build accepts the daemon's state directory: no recovery,
    // and the warm state serves (nothing reported recovered).
    let out = minicc(&["build", "--stateful", "--fn-cache", &dir_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        !stdout(&out).contains("recovered from"),
        "cold build must accept the daemon's state dir: {}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_daemon_flag_falls_back_to_local_when_unreachable() {
    let root = scratch_dir("serve-fallback");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let missing = root.join("no-daemon.sock");
    let out = minicc(&[
        "build",
        "--daemon",
        missing.to_str().unwrap(),
        "--stateful",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unreachable; serving locally"),
        "fallback must be announced on stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_daemon_flag_routes_through_a_live_daemon() {
    let root = scratch_dir("serve-route");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let daemon = spawn_serve(&root, &[]);

    let out = minicc(&[
        "build",
        "--daemon",
        daemon.socket(),
        "--stateful",
        "--fn-cache",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("built 3 module(s)"),
        "{}",
        stdout(&out)
    );

    // The request went through the daemon, not a local session.
    let out = minicc(&["client", daemon.socket(), "stats"]);
    assert!(
        stdout(&out).contains("\"sessions_created\":1"),
        "{}",
        stdout(&out)
    );
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// A project big enough that one cold build holds the daemon's single
/// worker slot for a while: a long import chain (sequential waves) of
/// modules with several optimizable functions each.
fn slow_project(dir: &Path, modules: usize) {
    std::fs::create_dir_all(dir).unwrap();
    for i in 0..modules {
        let mut src = String::new();
        if i > 0 {
            src.push_str(&format!("import m{:03};\n", i - 1));
        }
        for f in 0..6 {
            src.push_str(&format!(
                "fn f{f}(x: int) -> int {{ let a: int = x * {m}; let b: int = a + {f}; \
                 let c: int = b * 2 - x; return c + a * b; }}\n",
                m = i + 1,
            ));
        }
        std::fs::write(dir.join(format!("m{i:03}.mc")), src).unwrap();
    }
}

/// Polls `client stats` until the daemon reports an active request.
fn wait_for_active(sock: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let out = minicc(&["client", sock, "stats"]);
        if stdout(&out).contains("\"active\":1") {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "first build never became active"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn client_busy_and_timeout_exit_codes() {
    // Busy: one worker slot, zero queue slots — while a slow build holds
    // the slot, a second project's request is rejected immediately with
    // exit 3.
    let root = scratch_dir("serve-busy");
    slow_project(&root.join("big"), 220);
    write_project(&root.join("small"), &v1_files());
    let daemon = spawn_serve(&root, &["--max-active", "1", "--max-queued", "0"]);
    let sock = daemon.socket().to_string();

    let holder = {
        let sock = sock.clone();
        let big = root.join("big").to_str().unwrap().to_string();
        std::thread::spawn(move || {
            minicc(&["client", &sock, "build", &big, "--stateful", "--jobs", "1"])
        })
    };
    wait_for_active(&sock);
    let out = minicc(&[
        "client",
        &sock,
        "build",
        root.join("small").to_str().unwrap(),
        "--stateful",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "busy must exit 3: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("daemon error (busy)"),
        "{}",
        stderr(&out)
    );
    let held = holder.join().unwrap();
    assert!(held.status.success(), "{}", stderr(&held));
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);

    // Timeout: two requests on the *same* project serialize on the session
    // slot; with a short request timeout the second gets a typed timeout,
    // exit 4 — never a hang.
    let root = scratch_dir("serve-timeout");
    slow_project(&root.join("big"), 220);
    let daemon = spawn_serve(
        &root,
        &[
            "--max-active",
            "2",
            "--max-queued",
            "4",
            "--timeout-ms",
            "150",
        ],
    );
    let sock = daemon.socket().to_string();
    let holder = {
        let sock = sock.clone();
        let big = root.join("big").to_str().unwrap().to_string();
        std::thread::spawn(move || {
            minicc(&["client", &sock, "build", &big, "--stateful", "--jobs", "1"])
        })
    };
    wait_for_active(&sock);
    let out = minicc(&[
        "client",
        &sock,
        "build",
        root.join("big").to_str().unwrap(),
        "--stateful",
    ]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "timeout must exit 4: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("daemon error (timeout)"),
        "{}",
        stderr(&out)
    );
    let held = holder.join().unwrap();
    assert!(held.status.success(), "{}", stderr(&held));
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// `build`/`depcheck --report json --daemon` print the report the reply
/// embeds — the same bytes the daemon's build persisted.
#[test]
fn quick_report_json_over_the_daemon_prints_the_report() {
    let root = scratch_dir("serve-report");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let d = dir.to_str().unwrap();
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    let out = minicc(&[
        "build",
        "--daemon",
        &sock,
        "--stateful",
        "--report",
        "json",
        d,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    sfcc_buildsys::validate_report_json(text.trim())
        .unwrap_or_else(|e| panic!("not a build report ({e}): {text}"));
    let persisted = std::fs::read_to_string(dir.join(".sfcc-report.json")).unwrap();
    assert_eq!(
        text.trim(),
        persisted,
        "printed report differs from the persisted one"
    );

    let out = minicc(&[
        "depcheck",
        "--daemon",
        &sock,
        "--stateful",
        "--report",
        "json",
        d,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    sfcc_buildsys::validate_report_json(text.trim())
        .unwrap_or_else(|e| panic!("not a build report ({e}): {text}"));
    let doc = sfcc_trace::json::parse(text.trim()).unwrap();
    let audit = doc.get("depcheck").unwrap();
    assert_eq!(
        audit.get("enabled").and_then(|v| v.as_bool()),
        Some(true),
        "{text}"
    );
    assert_eq!(
        audit
            .get("findings")
            .and_then(|v| v.as_arr())
            .map(<[_]>::len),
        Some(0)
    );

    // Both requests were served by the daemon, not a local fallback.
    let out = minicc(&["client", &sock, "stats"]);
    assert!(stdout(&out).contains("\"serves\":2"), "{}", stdout(&out));
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// A daemon build is not traced, so `--trace` with `--daemon` (or
/// `client`) is a usage error raised before any request reaches the
/// daemon — never a silent exit 0 without the trace file.
#[test]
fn quick_trace_with_daemon_is_refused_before_any_request() {
    let root = scratch_dir("serve-trace");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let d = dir.to_str().unwrap();
    let trace = root.join("t.json");
    let t = trace.to_str().unwrap();
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    let routed = minicc(&["build", "--daemon", &sock, "--trace", t, "--stateful", d]);
    let direct = minicc(&["client", &sock, "build", d, "--trace", t]);
    for out in [routed, direct] {
        assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
        let err = stderr(&out);
        assert!(
            err.contains("`--trace`") && err.contains("`--daemon`"),
            "the usage error must name both flags: {err}"
        );
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    }
    assert!(!trace.exists(), "no trace may be written");
    let out = minicc(&["client", &sock, "stats"]);
    let text = stdout(&out);
    assert!(
        text.contains("\"serves\":0") && text.contains("\"sessions_created\":0"),
        "no build request may reach the daemon: {text}"
    );
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// Cold and `--daemon` runs of one command on two fresh copies of one tree
/// print the same lines in the same order; only the build time and the
/// image path may differ. The tree carries a corrupt state file, so the
/// first build of each copy also reports its recovery.
#[test]
fn quick_cold_and_daemon_print_the_same_lines() {
    let root = std::fs::canonicalize(scratch_dir("serve-parity")).unwrap();
    let template = root.join("template");
    std::fs::create_dir_all(&template).unwrap();
    let demo = demo_copy("serve-parity-src");
    for entry in std::fs::read_dir(&demo).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, template.join(path.file_name().unwrap())).unwrap();
    }
    let _ = std::fs::remove_dir_all(&demo);
    let flags = ["--stateful", "--fn-cache", "--jobs", "1"];
    let t = template.to_str().unwrap();
    let out = minicc(&[&["build", t][..], &flags[..]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let cache = std::fs::read_dir(&template)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with(".sfcc-state.ircache.g") && !name.ends_with(".corrupt")
        })
        .expect("a committed ircache generation");
    std::fs::write(&cache, b"junk").unwrap();

    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();
    let copy = |tag: &str| {
        let dir = root.join(tag);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&template).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        dir.to_str().unwrap().to_string()
    };
    let normalize = |text: &str, dir: &str| -> Vec<String> {
        text.replace(dir, "<dir>")
            .lines()
            .map(|line| {
                if line.starts_with("wrote ") {
                    return "wrote <image>".to_string();
                }
                match (line.find(") in "), line.find(" ms;")) {
                    (Some(a), Some(b)) if a < b => format!("{}) in N{}", &line[..a], &line[b..]),
                    _ => line.to_string(),
                }
            })
            .collect()
    };
    for (cmd, extra) in [
        ("build", vec![]),
        ("run", vec!["--", "5"]),
        ("ir", vec!["mathx"]),
        ("depcheck", vec![]),
    ] {
        let cold_dir = copy(&format!("cold-{cmd}"));
        let warm_dir = copy(&format!("warm-{cmd}"));
        let (operands, args) = match extra.first() {
            Some(&"--") => (vec![], extra.clone()),
            _ => (extra.clone(), vec![]),
        };
        let cold = minicc(&[&[cmd, cold_dir.as_str()][..], &operands, &flags, &args].concat());
        let warm = minicc(
            &[
                &[cmd, "--daemon", sock.as_str(), warm_dir.as_str()][..],
                &operands,
                &flags,
                &args,
            ]
            .concat(),
        );
        assert!(cold.status.success(), "cold {cmd}: {}", stderr(&cold));
        assert!(warm.status.success(), "daemon {cmd}: {}", stderr(&warm));
        assert!(
            !stderr(&warm).contains("serving locally"),
            "{}",
            stderr(&warm)
        );
        let cold_lines = normalize(&stdout(&cold), &cold_dir);
        let warm_lines = normalize(&stdout(&warm), &warm_dir);
        assert_eq!(
            cold_lines, warm_lines,
            "`{cmd}` prints differently over the daemon"
        );
        if cmd == "build" {
            assert!(
                cold_lines[0].starts_with(
                    "recovered from 1 corrupt persistent file(s); quarantined: <dir>/"
                ),
                "{cold_lines:?}"
            );
            assert!(cold_lines[2].starts_with("fn-grain: "), "{cold_lines:?}");
        }
    }
    let out = minicc(&["client", &sock, "stats"]);
    assert!(stdout(&out).contains("\"serves\":4"), "{}", stdout(&out));
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}
