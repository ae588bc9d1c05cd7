//! `cli-session`: the same one-commit edit stream served two ways. The
//! cold lane runs a fresh `minicc build --stateful --fn-cache --jobs 1`
//! process per edit, as the README shows; the warm lane sends the same
//! build request over the unix socket to a `minicc serve` daemon child,
//! one client, closed loop.
//!
//! The traced run adds two in-process lanes that replay the `minicc build`
//! session call by call (load project, open the compiler on the state
//! directory, build, save state, save image), one untraced and one built
//! `with_tracing`, so every call can be timed from outside.

use crate::calib::{self, Timed};
use crate::common::{fresh_dir, peak_rss_mb, sync_tree, History, Outcome, Params};
use crate::layers::{self, BuildLayers, LayerLog};
use crate::oracle::{Oracle, Reference};
use crate::resident::stateless_steps;
use crate::spans::SpanLog;
use crate::stats::{median_count, ms, Samples};
use sfcc::{Compiler, Config, Durability};
use sfcc_buildsys::{Builder, Project};
use sfcc_daemon::{roundtrip_with_timeout, ErrorKind, Request};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A no-op rebuild follows every this many edits.
const NOOP_EVERY: usize = 4;
/// A cold build of a fresh copy of the tree follows every this many edits.
const CLEAN_EVERY: usize = 5;
/// Flags of every build, cold or warm.
const BUILD_FLAGS: [&str; 4] = ["--stateful", "--fn-cache", "--jobs", "1"];
/// Longest a single build may take before it counts as failed.
const BUILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Environment that would change what `minicc` does.
const MINICC_ENV: [&str; 4] = [
    "SFCC_CAS",
    "SFCC_CAS_BUDGET",
    "SFCC_FAULT_PLAN",
    "SFCC_DAEMON_MUTATIONS",
];

/// A `minicc serve` child process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(minicc: &Path, root: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let mut cmd = Command::new(minicc);
        cmd.arg("serve").arg(root).arg("--socket").arg(&socket);
        let child = quiet(&mut cmd)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", minicc.display()))?;
        let mut daemon = Daemon { child, socket };
        let start = Instant::now();
        loop {
            if daemon
                .send(&Request::bare("ping"), Duration::from_secs(2))
                .is_ok()
            {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("minicc serve exited with {status}"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("minicc serve did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn send(&self, request: &Request, timeout: Duration) -> Result<sfcc_daemon::Reply, String> {
        roundtrip_with_timeout(&self.socket, request, timeout)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to shut down and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let asked = self.send(&Request::bare("shutdown"), Duration::from_secs(10));
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("minicc serve did not shut down".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn quiet(cmd: &mut Command) -> &mut Command {
    for var in MINICC_ENV {
        cmd.env_remove(var);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
}

/// Runs the reference kernel, then one fresh `minicc build` process;
/// returns the process's wall time (ns) and the kernel's time (ms).
fn cold_build(minicc: &Path, dir: &Path, spans: &SpanLog) -> Result<(u64, f64), String> {
    let kernel_ms = calib::kernel_ms();
    let mut cmd = Command::new(minicc);
    cmd.arg("build")
        .arg(dir)
        .args(BUILD_FLAGS)
        .arg("-o")
        .arg(dir.join("out.sbx"));
    spans.set_lane("cold");
    let span = spans.enter("minicc build");
    let output = quiet(&mut cmd)
        .output()
        .map_err(|e| format!("cannot run minicc: {e}"))?;
    let ns = span.done();
    if !output.status.success() {
        return Err(format!(
            "minicc build exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok((ns, kernel_ms))
}

/// What a warm build returned.
struct Warm {
    roundtrip_ns: u64,
    wall_ns: u64,
    kernel_ms: f64,
}

/// Runs the reference kernel, then sends one build request to the daemon;
/// a refusal counts in `rejected`.
fn warm_build(
    daemon: &Daemon,
    dir: &Path,
    spans: &SpanLog,
    rejected: &mut u64,
) -> Result<Warm, String> {
    let request = Request {
        cmd: "build".into(),
        dir: Some(dir.display().to_string()),
        out: Some(dir.join("out.sbx").display().to_string()),
        args: BUILD_FLAGS.map(String::from).to_vec(),
        ..Request::default()
    };
    let kernel_ms = calib::kernel_ms();
    spans.set_lane("warm");
    let span = spans.enter("daemon.roundtrip");
    let reply = daemon.send(&request, BUILD_TIMEOUT);
    let roundtrip_ns = span.done();
    let reply = reply?;
    if let Some((kind, message)) = &reply.error {
        if matches!(kind, ErrorKind::Busy | ErrorKind::Timeout) {
            *rejected += 1;
        }
        return Err(format!(
            "daemon refused the build ({}): {message}",
            kind.label()
        ));
    }
    let wall_ns = reply
        .body
        .get("wall_ns")
        .and_then(|v| v.as_u64())
        .ok_or("daemon reply has no wall_ns")?;
    Ok(Warm {
        roundtrip_ns,
        wall_ns,
        kernel_ms,
    })
}

/// Loads the image a build wrote and checks it against the reference.
fn check_image(
    dir: &Path,
    oracle: Option<&Oracle>,
    spans: &SpanLog,
) -> Result<(u64, usize), String> {
    let program = sfcc_backend::image::load(&dir.join("out.sbx"))?;
    let steps = oracle.ok_or("no reference")?.check(&program, spans)?;
    Ok((steps, program.total_code_size()))
}

/// Timings of one in-process replay of a `minicc build` session.
struct Session {
    wall_ns: u64,
    layers: BuildLayers,
    load_ns: u64,
    open_ns: u64,
    save_state_ns: u64,
    save_image_ns: u64,
    ops: sfcc_faultfs::OpCounts,
}

/// Replays `minicc build <dir> --stateful --fn-cache --jobs 1` in process.
fn replay(
    dir: &Path,
    traced: bool,
    lane: &'static str,
    spans: &SpanLog,
) -> Result<Session, String> {
    spans.set_lane(lane);
    let ops_before = sfcc_faultfs::op_counts();
    let session = spans.enter("session");
    let span = spans.enter("Project::from_dir");
    let project = Project::from_dir(dir).map_err(|e| format!("cannot load project: {e}"))?;
    let load_ns = span.done();
    let config = Config::stateful()
        .with_state_path(dir.join(".sfcc-state"))
        .with_function_cache();
    let span = spans.enter("Compiler::new");
    let compiler = Compiler::new(config);
    let open_ns = span.done();
    let mut builder = Builder::new(compiler).with_jobs(1);
    if traced {
        builder = builder.with_tracing();
    }
    let span = spans.enter("Builder::build");
    let report = builder.build(&project);
    let build_ns = span.done();
    let report = report.map_err(|e| e.to_string())?;
    let span = spans.enter("Compiler::save_state");
    builder
        .compiler()
        .save_state()
        .map_err(|e| format!("cannot save state: {e}"))?;
    let save_state_ns = span.done();
    let span = spans.enter("image::save_with");
    sfcc_backend::image::save_with(&report.program, &dir.join("out.sbx"), Durability::Fast)
        .map_err(|e| format!("cannot save image: {e}"))?;
    let save_image_ns = span.done();
    let wall_ns = session.done();
    Ok(Session {
        wall_ns,
        layers: BuildLayers::of(&report, build_ns),
        load_ns,
        open_ns,
        save_state_ns,
        save_image_ns,
        ops: sfcc_faultfs::op_counts().delta_since(&ops_before),
    })
}

/// Bytes of the committed state and function-cache generation files.
fn state_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let live =
            name.starts_with(".sfcc-state.state.") || name.starts_with(".sfcc-state.ircache.");
        if live && !name.ends_with(".corrupt") {
            total += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(total)
}

/// The lanes that serve each edit; the traced run adds the two replays.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Cold,
    Warm,
    Replay,
    Traced,
}

/// The lane directories of one set-up, all holding the same tree.
struct Dirs {
    cold: PathBuf,
    warm: PathBuf,
    replay: PathBuf,
    traced: PathBuf,
}

impl Dirs {
    fn all(&self, trace: bool) -> Vec<&Path> {
        let mut dirs = vec![self.cold.as_path(), self.warm.as_path()];
        if trace {
            dirs.extend([self.replay.as_path(), self.traced.as_path()]);
        }
        dirs
    }
}

/// Runs `cli-session`.
///
/// # Errors
///
/// Set-up could not complete (no result is printed then).
pub fn run(params: &Params, out: &mut Outcome) -> Result<(), String> {
    let minicc = params
        .minicc
        .clone()
        .ok_or("cli-session needs --minicc <path>")?;
    let window = params.scale.window(params.workload);
    let spans = SpanLog::new(params.trace);
    out.note("jobs.cold", 1);
    out.note("jobs.warm", 1);
    let mut rejected = 0u64;

    let mut setup_s = Timed::default();
    let mut clean = Timed::default();
    let mut setup: Option<(Daemon, Dirs, History, Reference)> = None;
    for i in 0..params.scale.setups() {
        if let Some((daemon, ..)) = setup.take() {
            Daemon::stop(daemon)?;
        }
        let kernel_before = calib::kernel_ms();
        let start = Instant::now();
        spans.set_lane("setup");
        let history = History::new(&params.scale.preset(), params.seed);
        let base = fresh_dir(&params.work.join(format!("s{i}")))?;
        let base = base.canonicalize().map_err(|e| e.to_string())?;
        let dirs = Dirs {
            cold: base.join("cold"),
            warm: base.join("root").join("warm"),
            replay: base.join("replay"),
            traced: base.join("traced"),
        };
        for dir in dirs.all(params.trace) {
            sync_tree(dir, &history.project, None)?;
        }
        let mut reference = Reference::default();
        let oracle = Oracle::of(&mut reference, &history.project, &spans)?;
        // The socket path stays relative: unix socket paths are short.
        let socket = params.work.join(format!("s{i}.sock"));
        let daemon = Daemon::start(&minicc, &base.join("root"), socket)?;
        let cold = cold_build(&minicc, &dirs.cold, &spans)
            .and_then(|t| check_image(&dirs.cold, Some(&oracle), &spans).map(|_| t));
        if let Some((ns, kernel_ms)) = out.check("priming cold build", cold) {
            clean.push(ms(ns), kernel_ms);
        }
        let warm = warm_build(&daemon, &dirs.warm, &spans, &mut rejected)
            .and_then(|_| check_image(&dirs.warm, Some(&oracle), &spans));
        out.check("priming warm build", warm);
        if params.trace {
            for (dir, traced, lane) in [
                (&dirs.replay, false, "replay"),
                (&dirs.traced, true, "traced"),
            ] {
                let built = replay(dir, traced, lane, &spans)
                    .and_then(|_| check_image(dir, Some(&oracle), &spans));
                out.check("priming replay", built);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        setup_s.push(elapsed, (kernel_before + calib::kernel_ms()) / 2.0);
        setup = Some((daemon, dirs, history, reference));
    }
    let (daemon, dirs, mut history, mut reference) = setup.ok_or("no set-up ran")?;

    let mut cold = Timed::default();
    let mut warm = Timed::default();
    let mut noop = Timed::default();
    let mut program_steps = Vec::new();
    let mut code_insts = Vec::new();
    let mut ratio = Samples::default();
    let mut daemon_overhead = Samples::default();
    let mut cli_overhead = Samples::default();
    let mut replayed = LayerLog::default();
    let mut plain_builds = Samples::default();
    let mut project_load = Samples::default();
    let mut state_load = Samples::default();
    let mut state_save = Samples::default();
    let mut image_save = Samples::default();
    let mut faultfs = [Vec::new(), Vec::new(), Vec::new()];
    let mut figures = None;
    let deadline = params.deadline();
    while history.edits < window || Instant::now() < deadline {
        let previous = history.advance(None);
        let in_window = history.edits <= window;
        for dir in dirs.all(params.trace) {
            sync_tree(dir, &history.project, Some(&previous))?;
        }
        let oracle = out.check(
            "reference",
            Oracle::of(&mut reference, &history.project, &spans),
        );
        let oracle = oracle.as_ref();
        if history.edits == window {
            out.note("window_digest", format!("{:016x}", history.digest()));
        }

        let mut cold_ns = None;
        let mut warm_ns = None;
        let mut lanes = vec![Lane::Cold, Lane::Warm];
        if params.trace {
            lanes.extend([Lane::Replay, Lane::Traced]);
        }
        if history.edits % 2 == 1 {
            lanes.reverse();
        }
        let mut replay_ns = None;
        for lane in lanes {
            match lane {
                Lane::Cold => {
                    let built = cold_build(&minicc, &dirs.cold, &spans)
                        .and_then(|t| check_image(&dirs.cold, oracle, &spans).map(|f| (t, f)));
                    if let Some(((ns, kernel_ms), (steps, insts))) = out.check("cold build", built)
                    {
                        cold.push(ms(ns), kernel_ms);
                        if in_window {
                            program_steps.push(steps);
                            code_insts.push(insts as u64);
                        }
                        cold_ns = Some(ns);
                        if history.edits == window {
                            let base = match (params.trace, oracle) {
                                (true, Some(o)) => {
                                    stateless_steps(&history.project, o, &spans, out)
                                }
                                _ => None,
                            };
                            figures = Some((steps, state_bytes(&dirs.cold)?, base));
                        }
                    }
                }
                Lane::Warm => {
                    let built = warm_build(&daemon, &dirs.warm, &spans, &mut rejected)
                        .and_then(|w| check_image(&dirs.warm, oracle, &spans).map(|_| w));
                    if let Some(w) = out.check("warm build", built) {
                        warm.push(ms(w.roundtrip_ns), w.kernel_ms);
                        warm_ns = Some(w.roundtrip_ns);
                        daemon_overhead.push(ms(w.roundtrip_ns.saturating_sub(w.wall_ns)));
                    }
                }
                Lane::Replay => {
                    let built = replay(&dirs.replay, false, "replay", &spans)
                        .and_then(|s| check_image(&dirs.replay, oracle, &spans).map(|_| s));
                    if let Some(s) = out.check("replayed session", built) {
                        replay_ns = Some(s.wall_ns);
                        plain_builds.push(ms(s.layers.wall_ns));
                    }
                }
                Lane::Traced => {
                    let built = replay(&dirs.traced, true, "traced", &spans)
                        .and_then(|s| check_image(&dirs.traced, oracle, &spans).map(|_| s));
                    if let Some(s) = out.check("traced session", built) {
                        project_load.push(ms(s.load_ns));
                        state_load.push(ms(s.open_ns));
                        state_save.push(ms(s.save_state_ns));
                        image_save.push(ms(s.save_image_ns));
                        if in_window {
                            faultfs[0].push(s.ops.writes);
                            faultfs[1].push(s.ops.renames);
                            faultfs[2].push(s.ops.sync_files);
                        }
                        replayed.push(s.layers, in_window);
                    }
                }
            }
        }
        if let (Some(c), Some(w)) = (cold_ns, warm_ns) {
            ratio.push(c as f64 / w as f64);
        }
        if let (Some(c), Some(r)) = (cold_ns, replay_ns) {
            cli_overhead.push(ms(c) - ms(r));
        }
        if !params.trace && history.edits % NOOP_EVERY == 0 {
            let built = cold_build(&minicc, &dirs.cold, &spans)
                .and_then(|t| check_image(&dirs.cold, oracle, &spans).map(|_| t));
            if let Some((ns, kernel_ms)) = out.check("cold no-op build", built) {
                noop.push(ms(ns), kernel_ms);
            }
        }
        if !params.trace && history.edits % CLEAN_EVERY == 0 {
            let dir = dirs.cold.with_file_name("clean");
            sync_tree(&fresh_dir(&dir)?, &history.project, None)?;
            let built = cold_build(&minicc, &dir, &spans)
                .and_then(|t| check_image(&dir, oracle, &spans).map(|_| t));
            if let Some((ns, kernel_ms)) = out.check("cold clean build", built) {
                clean.push(ms(ns), kernel_ms);
            }
        }
    }
    let rss = peak_rss_mb(&daemon.pid());
    daemon.stop()?;
    let (final_steps, state, stateless) = figures.ok_or("the counted window did not complete")?;

    out.note("edits", history.edits);
    out.note("window_edits", window);
    let m = &mut out.metrics;
    let x = &mut out.extra;
    if params.trace {
        replayed.report(m, 1);
        m.median("buildsys.project_load_ms", &project_load, "ms");
        m.median("core.state_load_ms", &state_load, "ms");
        m.median("backend.image_save_ms", &image_save, "ms");
        layers::add_faultfs(m, &faultfs);
        let stateless = stateless.ok_or("no stateless program")? as f64;
        m.add(
            "passes.quality_loss_pct",
            (final_steps as f64 / stateless - 1.0) * 100.0,
            "%",
        );
        // Not part of the result line: no other workload has these layers.
        x.median("core.state_save_ms", &state_save, "ms");
        x.median("buildsys.cli_overhead_ms", &cli_overhead, "ms");
        x.median("daemon.overhead_ms", &daemon_overhead, "ms");
        x.add("daemon.rejected", rejected as f64, "count");
        let traced = replayed.wall().median().unwrap_or(0.0);
        let plain = plain_builds.median().unwrap_or(f64::NAN);
        m.add("trace.overhead_pct", (traced / plain - 1.0) * 100.0, "%");
        spans.print_self_times();
        let _ = spans.write_chrome(&params.work.with_extension("spans.json"));
    } else {
        cold.report(m, x, "edit_ms_p50", "ms");
        warm.report(m, x, "alt_edit_ms_p50", "ms");
        m.median("lane_ratio_p50", &ratio, "ratio");
        noop.report(m, x, "noop_ms_p50", "ms");
        clean.report(m, x, "clean_build_ms", "ms");
        m.add("peak_rss_mb", rss.unwrap_or(f64::NAN), "MiB");
        m.add("state_bytes", state as f64, "bytes");
        m.add(
            "program_steps",
            median_count(&program_steps),
            "instructions",
        );
        m.add("code_insts", median_count(&code_insts), "instructions");
        setup_s.report(m, x, "setup_s", "s");
        x.median("cold_edit_ms_p50", &cold.scaled, "ms");
        x.p90("cold_edit_ms_p90", &cold.scaled);
        x.median("warm_edit_ms_p50", &warm.scaled, "ms");
        x.p90("warm_edit_ms_p90", &warm.scaled);
        x.add("daemon.rejected", rejected as f64, "count");
    }
    Ok(())
}
