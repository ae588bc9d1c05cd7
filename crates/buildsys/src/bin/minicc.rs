//! `minicc` — the command-line driver for MiniC projects.
//!
//! ```text
//! minicc build <dir> [-o out.sbx] [build flags]   compile + link to an image
//! minicc run   <dir> [build flags] -- <args...>   build and run main.main
//! minicc exec  <file.sbx> -- <args...>            run a prebuilt image
//! minicc ir    <dir> <module> [build flags]       print a module's optimized IR
//! minicc bc    <dir> [build flags]                disassemble the linked program
//! minicc state <state-file>                       inspect a dormancy-state file
//! minicc fsck  <dir|state-file> [image.sbx...]    verify + repair state/CAS dirs
//! minicc stats <dir>                              metrics of the last build
//! minicc trace-check <trace.json>                 validate an exported trace
//! minicc depcheck <dir> [build flags]             audit dependency soundness
//! ```
//!
//! Build flags: `--stateful` (persist dormancy state in `<dir>/.sfcc-state`),
//! `--stateless` (default), `--fn-cache`, `--cas <dir>` (shared
//! content-addressed artifact store; `SFCC_CAS`/`SFCC_CAS_BUDGET` env
//! equivalents), `--jobs N` (default: all cores),
//! `--durable` (fsync durable writes), `-O0`/`-O1`/`-O2`; `build` also
//! accepts `--report json` for a machine-readable summary including
//! query-engine hit/miss counts and corruption-recovery counters, and
//! `--trace <out.json>` to export a deterministic Chrome/Perfetto span
//! trace of the build (`--trace-wall` adds non-deterministic wall-clock
//! annotations). Every `build` persists its JSON report to
//! `<dir>/.sfcc-report.json`, which `minicc stats` pretty-prints.
//!
//! Fault injection (testing only): `--fault-plan <spec>` or the
//! `SFCC_FAULT_PLAN` environment variable installs a deterministic fault
//! plan (see `sfcc-faultfs`) for the whole invocation, e.g.
//! `SFCC_FAULT_PLAN=crash-at:5 minicc build p --stateful` simulates a crash
//! at the fifth durable I/O operation.

use sfcc::persist;
use sfcc_backend::{disasm_program, load_image, RunOutput};
use sfcc_buildsys::serve::{
    run_main, BuildService, BuildSummary, SessionFlags, REPORT_FILE, STALE_REPORT_FILE,
};
use sfcc_buildsys::DepMutations;
use sfcc_daemon::{Daemon, DaemonOptions, ErrorKind, Reply, Request};
use sfcc_faultfs::FaultPlan;
use sfcc_trace::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "minicc — incremental MiniC compiler driver

usage:
  minicc build <dir> [-o <out.sbx>] [--report json] [--trace <out.json>] [build flags]
  minicc run   <dir> [build flags] -- <args...>
  minicc exec  <file.sbx> -- <args...>
  minicc ir    <dir> <module> [build flags]
  minicc bc    <dir> [build flags]
  minicc state <state-file>
  minicc fsck  <dir|state-file> [image.sbx ...]
  minicc stats <dir>
  minicc trace-check <trace.json>
  minicc depcheck <dir> [--report json] [build flags]
  minicc serve <root-dir> [--socket <path>] [serve flags]
  minicc client <socket> <build|run|ir|depcheck|stats|ping|shutdown> [...]

build flags:
  --stateful     stateful compilation; state persists in <dir>/.sfcc-state
  --stateless    stateless compilation (default)
  --fn-cache     enable the function-level IR cache
  --cas <dir>    attach a shared content-addressed artifact store rooted at
                 <dir>/.sfcc-cas; artifacts are keyed on (function
                 fingerprint, pass pipeline, flag digest, backend version),
                 so distinct projects built with identical configuration
                 share optimized IR byte-identically (implies --fn-cache;
                 SFCC_CAS=<dir> is equivalent)
  --cas-budget <bytes>  evict least-recently-used store entries beyond this
                 size budget (SFCC_CAS_BUDGET=<bytes> is equivalent)
  --jobs <N>     worker threads on one shared pool, stolen between module
                 waves and per-function optimization tasks (default: all
                 available cores); every value produces byte-identical
                 output — N only changes wall time
  --parallel     alias for the default --jobs behavior
  --durable      fsync state/cache/image writes (crash-consistent either
                 way; --durable also survives OS-level crashes)
  --report json  (build/depcheck) print a JSON build report instead of the
                 summary
  --trace <out.json>  (build) export a Chrome/Perfetto trace of the build;
                 the timeline is deterministic cost units, so the bytes are
                 identical across runs and --jobs values; refused with
                 --daemon (a served build is not traced)
  --trace-wall   annotate trace events with measured wall-clock nanoseconds
                 (makes the trace non-deterministic)
  -O0 | -O1 | -O2  optimization level (default -O2)
  --daemon <socket>  (build/run/ir/depcheck) serve the request through a
                 warm `minicc serve` daemon when one is reachable at
                 <socket>; falls back to a local cold build otherwise.
                 Both routes run the same build session and print the
                 same output

build daemon:
  `minicc serve <root-dir>` starts a warm build daemon on a unix socket
  (default <root-dir>/daemon.sock): per-project sessions keep the query
  engine, function cache, CAS handle, and per-function dormancy stamps
  resident, so repeat builds skip cold start. Projects must live under
  <root-dir>. Serve flags: --socket <path>, --max-active <N> (default 2),
  --max-queued <N> (default 16), --timeout-ms <N> (default 30000),
  --idle-snapshot-ms <N>. SIGTERM at any point leaves every state dir
  acceptable to a cold `minicc build`.
  `minicc client <socket> <cmd> ...` sends one request. Exit codes:
    0  success (and `shutdown` of an already-gone daemon)
    1  the request failed (build error, depcheck findings)
    2  transport failure (cannot connect, protocol error) or, for
       depcheck, the audited build itself failed
    3  daemon at capacity (typed busy; retry later)
    4  request timed out in the daemon's admission queue

observability:
  every `build` persists its JSON report to <dir>/.sfcc-report.json;
  `minicc stats <dir>` pretty-prints that report's metrics registry, and
  `minicc trace-check <trace.json>` validates an exported trace (schema +
  strict span nesting) and prints summary statistics. A build that fails
  moves the previous report to .sfcc-report.json.stale first, so `stats`
  can never mistake it for the failed build's telemetry.

dependency soundness:
  `minicc depcheck <dir>` runs an instrumented cold build plus a no-op
  rebuild (read-only: no state is saved, no report file is written) and
  diffs every task's actual resource accesses against its declared
  dependencies. fsck-style exit codes make it CI-gateable:
    0  clean — declared deps match observed accesses exactly
    1  findings — missing/redundant deps, stale serves, or untracked I/O
    2  the audited build itself failed

fault injection (testing):
  --fault-plan <spec>   deterministic fault plan for this invocation, e.g.
                        crash-at:5, torn:3:16, fail:2, enospc:1,
                        bitflip:4:12, fail-rename:1 (comma-separated);
                        the SFCC_FAULT_PLAN env var is equivalent";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The fault plan applies to the whole invocation, so it is peeled off
    // before command dispatch; the guard stays alive until exit.
    let mut plan_spec = std::env::var("SFCC_FAULT_PLAN").ok();
    if let Some(i) = args.iter().position(|a| a == "--fault-plan") {
        if i + 1 >= args.len() {
            eprintln!("`--fault-plan` expects a spec\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        plan_spec = Some(args.remove(i + 1));
        args.remove(i);
    }
    let _fault_guard = match plan_spec.as_deref() {
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => Some(sfcc_faultfs::install(plan)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "build" | "run" | "ir" | "bc" | "depcheck" => cmd_session(command, rest),
        "exec" => cmd_exec(rest),
        "state" => cmd_state(rest),
        "fsck" => cmd_fsck(rest),
        "stats" => cmd_stats(rest),
        "trace-check" => cmd_trace_check(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// Options of one build-class invocation: the session flags plus what only
/// this invocation uses.
#[derive(Default)]
struct BuildFlags {
    /// The flags the build session is configured (a daemon session keyed)
    /// under; parsed by [`SessionFlags::accept`].
    session: SessionFlags,
    /// `--report json`: emit a machine-readable build report.
    report_json: bool,
    /// `--trace <path>`: export a Chrome-trace JSON of the build.
    trace: Option<PathBuf>,
    /// `--trace-wall`: include wall-clock annotations in the trace.
    trace_wall: bool,
    /// `--daemon <socket>`: route through a warm daemon when reachable.
    daemon: Option<PathBuf>,
    /// Non-flag operands in order (directory, module name, …).
    operands: Vec<String>,
    /// `-o` argument, when given.
    output: Option<PathBuf>,
    /// Everything after `--` (program arguments).
    program_args: Vec<i64>,
}

fn parse_flags(args: &[String]) -> Result<BuildFlags, String> {
    let mut flags = BuildFlags::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if flags.session.accept(arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--report" => {
                let format = iter.next().ok_or("`--report` expects a format")?;
                if format != "json" {
                    return Err(format!(
                        "unsupported report format `{format}` (only `json`)"
                    ));
                }
                flags.report_json = true;
            }
            "--trace" => {
                let path = iter.next().ok_or("`--trace` expects an output path")?;
                flags.trace = Some(PathBuf::from(path));
            }
            "--trace-wall" => flags.trace_wall = true,
            "--daemon" => {
                let socket = iter.next().ok_or("`--daemon` expects a socket path")?;
                flags.daemon = Some(PathBuf::from(socket));
            }
            "-o" => {
                let path = iter.next().ok_or("`-o` expects a path")?;
                flags.output = Some(PathBuf::from(path));
            }
            "--" => {
                for value in iter.by_ref() {
                    let n: i64 = value
                        .parse()
                        .map_err(|_| format!("program argument `{value}` is not an integer"))?;
                    flags.program_args.push(n);
                }
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n\n{USAGE}"));
            }
            operand => flags.operands.push(operand.to_string()),
        }
    }
    Ok(flags)
}

/// The project directory and, for `ir`, the module a build-class command
/// names.
fn operands<'a>(cmd: &str, flags: &'a BuildFlags) -> Result<(&'a str, Option<&'a str>), String> {
    match (cmd, flags.operands.as_slice()) {
        ("ir", [dir, module]) => Ok((dir, Some(module))),
        ("ir", _) => Err(format!(
            "`ir` expects a project directory and a module name\n\n{USAGE}"
        )),
        (_, [dir]) => Ok((dir, None)),
        _ => Err(format!("`{cmd}` expects one project directory\n\n{USAGE}")),
    }
}

/// What `main.main(args)` printed and returned (`run`, `exec`).
fn program_output(out: &RunOutput, args: &[i64]) -> String {
    let mut text: String = out.prints.iter().map(|v| format!("{v}\n")).collect();
    match out.return_value {
        Some(v) => text.push_str(&format!("main.main({args:?}) = {v}\n")),
        None => text.push_str(&format!("main.main({args:?}) returned\n")),
    }
    text + &format!("({} instructions executed)\n", out.executed)
}

/// Prints a depcheck verdict (cold or served) and returns its exit code:
/// 0 clean, 1 findings.
fn print_depcheck(render: &str, clean: bool, dir: &str) -> ExitCode {
    print!("{render}");
    if clean {
        println!(
            "depcheck `{dir}`: clean — every declared dependency was accessed and \
             every access was declared"
        );
    }
    ExitCode::from(u8::from(!clean))
}

/// `build` / `run` / `ir` / `bc` / `depcheck`: one call on a build session
/// — a daemon's when `--daemon` reaches one (`bc` is never served), else a
/// cold one opened here and served once.
fn cmd_session(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let (dir, module) = operands(cmd, &flags)?;
    if cmd != "bc" {
        if let Some(code) = try_daemon(cmd, &flags)? {
            return Ok(code);
        }
    }
    let mut session =
        BuildService::open(Path::new(dir), flags.session.clone(), DepMutations::new());
    if cmd == "depcheck" {
        // A failed audited build exits 2, distinct from findings (1), so CI
        // can tell a broken project apart from a lying one.
        let report = match session.depcheck() {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{e}");
                return Ok(ExitCode::from(2));
            }
        };
        let audit = report.depcheck.as_ref().expect("depcheck merges an audit");
        if flags.report_json {
            // The rebuild's report, carrying the merged verdict.
            println!("{}", report.to_json());
            return Ok(ExitCode::from(u8::from(!audit.is_clean())));
        }
        return Ok(print_depcheck(&audit.render(), audit.is_clean(), dir));
    }
    if flags.trace.is_some() {
        session = session.with_tracing();
    }
    let (report, text) = match (cmd, module) {
        ("build", _) => {
            let (report, image) = session.build(flags.output.as_deref())?;
            let text = if flags.report_json {
                format!("{}\n", report.to_json())
            } else {
                BuildSummary::of(&report).build_lines(&image.display().to_string())
            };
            (report, text)
        }
        ("run", _) => {
            let (report, out) = session.run(&flags.program_args)?;
            let text = BuildSummary::of(&report).run_lines(flags.session.fn_cache)
                + &program_output(&out, &flags.program_args);
            (report, text)
        }
        ("ir", Some(module)) => session.ir(module)?,
        _ => {
            let report = session.build_report()?;
            let text = disasm_program(&report.program);
            (report, text)
        }
    };
    if let Some(path) = &flags.trace {
        let trace = report
            .trace
            .as_ref()
            .expect("a traced builder records a trace");
        std::fs::write(path, trace.to_chrome_json(flags.trace_wall))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_exec(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let [image] = flags.operands.as_slice() else {
        return Err(format!("`exec` expects one .sbx image\n\n{USAGE}"));
    };
    let program =
        load_image(Path::new(image)).map_err(|e| format!("cannot load `{image}`: {e}"))?;
    let out = run_main(&program, &flags.program_args)?;
    print!("{}", program_output(&out, &flags.program_args));
    Ok(ExitCode::SUCCESS)
}

/// Resolves a `<dir>` or `<state-file>` operand to the state base path:
/// a directory means its `.sfcc-state` inside.
fn state_base(operand: &str) -> PathBuf {
    let path = Path::new(operand);
    if path.is_dir() {
        path.join(".sfcc-state")
    } else {
        path.to_path_buf()
    }
}

fn cmd_state(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(format!("`state` expects one state-file path\n\n{USAGE}"));
    };
    let path = state_base(path);
    let db = match persist::peek_state(&path) {
        Ok(Some(db)) => db,
        Ok(None) => return Err(format!("no state file at `{}`", path.display())),
        Err(reason) => {
            return Err(format!(
                "state file `{}` is unreadable: {reason} (run `minicc fsck` to repair)",
                path.display()
            ));
        }
    };
    println!(
        "state file {} — {} module(s), {} function(s) tracked",
        path.display(),
        db.modules.len(),
        db.function_count(),
    );
    let mut module_names: Vec<&String> = db.modules.keys().collect();
    module_names.sort();
    for module_name in module_names {
        let module = &db.modules[module_name];
        println!("\nmodule {module_name} (build #{}):", module.build_counter);
        let mut fn_names: Vec<&String> = module.functions.keys().collect();
        fn_names.sort();
        for fn_name in fn_names {
            let record = &module.functions[fn_name];
            let bitmap: String = record
                .slots
                .iter()
                .map(|slot| if slot.dormant { '.' } else { 'A' })
                .collect();
            let skips: u32 = record.slots.iter().map(|slot| slot.times_skipped).sum();
            println!("  {fn_name:<20} {bitmap}  ({skips} skip(s) so far)");
        }
    }
    println!("\n(A = pass was active at the last build, . = dormant/skippable)");
    Ok(ExitCode::SUCCESS)
}

fn cmd_fsck(args: &[String]) -> Result<ExitCode, String> {
    let Some((target, images)) = args.split_first() else {
        return Err(format!(
            "`fsck` expects a project directory or state-file path\n\n{USAGE}"
        ));
    };
    let base = state_base(target);
    let images: Vec<PathBuf> = images.iter().map(PathBuf::from).collect();
    let report = sfcc::persist::fsck(&base, &images)
        .map_err(|e| format!("fsck of `{}` failed: {e}", base.display()))?;
    println!(
        "fsck {}: {} file(s) checked",
        base.display(),
        report.checked
    );
    for path in &report.quarantined {
        println!("  quarantined {}", path.display());
    }
    for path in &report.removed {
        println!("  removed orphan {}", path.display());
    }
    if report.repaired_manifest {
        println!("  manifest rewritten without the corrupt entries");
    }
    if report.clean() {
        println!("  clean");
    } else {
        println!("  next stateful build recompiles what was lost and rewrites the state");
    }
    // A directory operand may also root a shared artifact store; audit it
    // too, validating every artifact's checksum *and* embedded provenance.
    let target_path = Path::new(target);
    let cas_manifest =
        sfcc_faultfs::CommitDir::new(&target_path.join(sfcc_cas::CAS_BASE)).manifest_path();
    if target_path.is_dir() && cas_manifest.exists() {
        let cas_report = sfcc_cas::fsck(target_path)
            .map_err(|e| format!("cas fsck of `{}` failed: {e}", target_path.display()))?;
        println!(
            "cas fsck {}: {} artifact(s) checked",
            target_path.join(sfcc_cas::CAS_BASE).display(),
            cas_report.checked
        );
        for path in &cas_report.quarantined {
            println!("  quarantined {path}");
        }
        if cas_report.removed > 0 {
            println!("  removed {} orphan file(s)", cas_report.removed);
        }
        if cas_report.repaired_manifest {
            println!("  manifest rewritten without the corrupt entries");
        }
        if cas_report.clean() {
            println!("  clean");
        } else if cas_report.quarantined.is_empty() && !cas_report.repaired_manifest {
            // Orphan debris only (shared commits never GC replaced
            // generations) — nothing referenced was touched.
            println!("  clean after sweep");
        } else {
            println!(
                "  the store lost artifacts, not correctness: evicted keys miss and recompile"
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let [dir] = args else {
        return Err(format!("`stats` expects one project directory\n\n{USAGE}"));
    };
    let path = Path::new(dir).join(REPORT_FILE);
    let stale_path = Path::new(dir).join(STALE_REPORT_FILE);
    if !path.exists() && stale_path.exists() {
        // A build parked the previous report and never completed; refusing
        // beats presenting the prior build's telemetry as current.
        return Err(format!(
            "the last build of `{dir}` did not complete; `{}` holds the report of the \
             previous successful build (rebuild to refresh)",
            stale_path.display()
        ));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read `{}`: {e} (run `minicc build {dir}` first)",
            path.display()
        )
    })?;
    let doc = sfcc_trace::json::parse(&text)
        .map_err(|e| format!("`{}` is not valid JSON: {e}", path.display()))?;
    // Reports predating the outcome stamp are treated as unverifiable.
    let outcome = doc
        .get("outcome")
        .and_then(sfcc_trace::json::Value::as_str)
        .unwrap_or("unknown");
    if outcome != "success" {
        println!("WARNING: this report's build outcome is `{outcome}`, not `success`");
    }
    let report_generation = doc
        .get("state_generation")
        .and_then(sfcc_trace::json::Value::as_u64)
        .unwrap_or(0);
    // When the project has a persistent state directory, cross-check the
    // report against its current generation: a newer state commit means a
    // later build ran and this telemetry is not from it.
    if report_generation > 0 {
        let state_dir = Path::new(dir).join(".sfcc-state");
        if let Ok(Some(manifest)) = sfcc_faultfs::CommitDir::new(&state_dir).read_manifest() {
            if manifest.generation > report_generation {
                println!(
                    "WARNING: this report is stale — it was saved at state generation \
                     {report_generation}, but the state directory is at generation {} \
                     (rebuild to refresh)",
                    manifest.generation
                );
            }
        }
    }
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| format!("`{}` has no \"metrics\" block", path.display()))?;
    let snapshot = sfcc_trace::MetricsSnapshot::from_json(metrics)
        .map_err(|e| format!("`{}`: {e}", path.display()))?;
    println!(
        "metrics of the last build of `{dir}` ({} metric(s)):\n",
        snapshot.len()
    );
    print!("{}", snapshot.render_pretty());
    // Copy-on-write snapshot economics at a glance: how much cloning the
    // re-snapshot stages actually did vs. how much the dirty-bit rule saved.
    if let (Some(clones), Some(reused)) = (
        snapshot.scalar("snapshot.clones"),
        snapshot.scalar("snapshot.reused"),
    ) {
        let cost = snapshot.scalar("snapshot.cost_units").unwrap_or(0);
        let batches = snapshot.scalar("batch.count").unwrap_or(0);
        println!(
            "\nsnapshot reuse: {reused} function(s) reused across {clones} snapshot(s) \
             ({cost} cost units cloned, {batches} batch(es) planned)"
        );
    }
    Ok(ExitCode::SUCCESS)
}

// ─── build daemon: `minicc serve` / `minicc client` / `--daemon` ───

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut root: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut max_active = 2usize;
    let mut max_queued = 16usize;
    let mut timeout_ms = 30_000u64;
    let mut idle_ms: Option<u64> = None;
    let mut iter = args.iter();
    let number = |flag: &str, value: Option<&String>| -> Result<u64, String> {
        let value = value.ok_or_else(|| format!("`{flag}` expects a number"))?;
        value
            .parse()
            .map_err(|_| format!("`{flag}` expects a number, got `{value}`"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--socket" => {
                let path = iter.next().ok_or("`--socket` expects a path")?;
                socket = Some(PathBuf::from(path));
            }
            "--max-active" => max_active = number("--max-active", iter.next())?.max(1) as usize,
            "--max-queued" => max_queued = number("--max-queued", iter.next())? as usize,
            "--timeout-ms" => timeout_ms = number("--timeout-ms", iter.next())?.max(1),
            "--idle-snapshot-ms" => {
                idle_ms = Some(number("--idle-snapshot-ms", iter.next())?.max(1));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown serve flag `{other}`\n\n{USAGE}"));
            }
            operand if root.is_none() => root = Some(PathBuf::from(operand)),
            other => return Err(format!("`serve` expects one root directory, got `{other}`")),
        }
    }
    let root = root.ok_or_else(|| format!("`serve` expects a root directory\n\n{USAGE}"))?;
    std::fs::create_dir_all(&root)
        .map_err(|e| format!("cannot create `{}`: {e}", root.display()))?;
    let mut options = DaemonOptions::new(&root);
    if let Some(path) = socket {
        options.socket = path;
    }
    options.max_active = max_active;
    options.max_queued = max_queued;
    options.request_timeout = Duration::from_millis(timeout_ms);
    options.idle_snapshot = idle_ms.map(Duration::from_millis);
    let socket_path = options.socket.clone();
    sfcc_daemon::install_term_handler();
    let daemon = Daemon::bind(options, BuildService::factory())?;
    println!(
        "minicc daemon: serving projects under `{}` on `{}`",
        root.display(),
        socket_path.display()
    );
    daemon.run();
    println!("minicc daemon: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// Builds the daemon request of a build-class command. `--trace` is
/// refused: a daemon build is not traced, and exiting 0 without the trace
/// file would hide that.
fn remote_request(cmd: &str, flags: &BuildFlags) -> Result<Request, String> {
    if flags.trace.is_some() {
        return Err(format!(
            "`--trace` cannot be combined with `--daemon` (or `client`): daemon builds \
             are not traced; build locally to export a trace\n\n{USAGE}"
        ));
    }
    let (dir, module) = operands(cmd, flags)?;
    let dir = std::fs::canonicalize(dir)
        .map_err(|e| format!("cannot resolve project directory `{dir}`: {e}"))?;
    // The daemon resolves paths against its own working directory.
    let out = flags
        .output
        .as_deref()
        .map(|path| std::path::absolute(path).unwrap_or_else(|_| path.to_path_buf()));
    Ok(Request {
        cmd: cmd.to_string(),
        dir: Some(dir.display().to_string()),
        module: module.map(str::to_string),
        out: out.map(|path| path.display().to_string()),
        args: flags.session.to_args(),
        prog_args: flags.program_args.clone(),
    })
}

/// Reports a failed daemon reply on stderr and returns its documented exit
/// code; `None` for a successful reply.
fn reply_error(cmd: &str, reply: &Reply) -> Option<ExitCode> {
    let (kind, message) = reply.error.as_ref()?;
    eprintln!("daemon error ({}): {message}", kind.label());
    Some(match kind {
        ErrorKind::Busy => ExitCode::from(3),
        ErrorKind::Timeout => ExitCode::from(4),
        ErrorKind::Build if cmd == "depcheck" => ExitCode::from(2),
        _ => ExitCode::FAILURE,
    })
}

/// Prints a build-class daemon reply through the renderer the cold command
/// uses, decoding the summary from the report the reply embeds.
fn render_reply(request: &Request, flags: &BuildFlags, reply: &Reply) -> Result<ExitCode, String> {
    if let Some(code) = reply_error(&request.cmd, reply) {
        return Ok(code);
    }
    let body = &reply.body;
    let raw_report = || {
        json::raw_field(&reply.raw, "report")?
            .ok_or_else(|| "daemon reply carries no report".to_string())
    };
    let summary = || {
        BuildSummary::from_report_json(body.get("report").ok_or("daemon reply carries no report")?)
    };
    let text = |key: &str| body.get(key).and_then(Value::as_str).unwrap_or_default();
    let (dir, _) = operands(&request.cmd, flags)?;
    match request.cmd.as_str() {
        "build" if flags.report_json => println!("{}", raw_report()?),
        "build" => print!("{}", summary()?.build_lines(text("image"))),
        "run" => {
            let int = |v: &Value| match v {
                Value::Num(n) => Some(*n as i64),
                _ => None,
            };
            let out = RunOutput {
                prints: body
                    .get("prints")
                    .and_then(Value::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(int)
                    .collect(),
                return_value: body.get("return").and_then(int),
                executed: body.get("executed").and_then(Value::as_u64).unwrap_or(0),
                per_function: Vec::new(),
            };
            print!(
                "{}{}",
                summary()?.run_lines(flags.session.fn_cache),
                program_output(&out, &flags.program_args)
            );
        }
        "ir" => print!("{}", text("ir")),
        _ => {
            let clean = body.get("clean").and_then(Value::as_bool).unwrap_or(false);
            if flags.report_json {
                println!("{}", raw_report()?);
                return Ok(ExitCode::from(u8::from(!clean)));
            }
            return Ok(print_depcheck(text("render"), clean, dir));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Whether a daemon answers pings at `socket` right now.
fn daemon_reachable(socket: &Path) -> bool {
    sfcc_daemon::roundtrip_with_timeout(socket, &Request::bare("ping"), Duration::from_secs(5))
        .map(|reply| reply.ok)
        .unwrap_or(false)
}

/// Routes a build-class command through `--daemon` when the daemon is
/// reachable. `Ok(None)` means "serve locally instead" (no daemon
/// requested, or the daemon is unreachable — the auto-connect fallback).
fn try_daemon(cmd: &str, flags: &BuildFlags) -> Result<Option<ExitCode>, String> {
    let Some(socket) = flags.daemon.as_deref() else {
        return Ok(None);
    };
    let request = remote_request(cmd, flags)?;
    if !daemon_reachable(socket) {
        eprintln!(
            "daemon at `{}` is unreachable; serving locally",
            socket.display()
        );
        return Ok(None);
    }
    let reply = sfcc_daemon::roundtrip(socket, &request)
        .map_err(|e| format!("daemon request failed: {e}"))?;
    render_reply(&request, flags, &reply).map(Some)
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let Some((socket, rest)) = args.split_first() else {
        return Err(format!(
            "`client` expects a socket path and a command\n\n{USAGE}"
        ));
    };
    let Some((cmd, rest)) = rest.split_first() else {
        return Err(format!(
            "`client` expects a command after the socket\n\n{USAGE}"
        ));
    };
    let socket = Path::new(socket);
    match cmd.as_str() {
        // ping/stats: show the raw JSON body.
        "ping" | "stats" => match sfcc_daemon::roundtrip(socket, &Request::bare(cmd)) {
            Ok(reply) => Ok(reply_error(cmd, &reply).unwrap_or_else(|| {
                println!("{}", reply.raw);
                ExitCode::SUCCESS
            })),
            Err(e) => {
                eprintln!("{e}");
                Ok(ExitCode::from(2))
            }
        },
        // Shutdown is idempotent: a dead socket means the daemon is
        // already down, which is the requested state — exit 0.
        "shutdown" => match sfcc_daemon::roundtrip(socket, &Request::bare("shutdown")) {
            Ok(_) => {
                println!("daemon: shutting down");
                Ok(ExitCode::SUCCESS)
            }
            Err(_) => {
                println!("daemon: already gone");
                Ok(ExitCode::SUCCESS)
            }
        },
        "build" | "run" | "ir" | "depcheck" => {
            let flags = parse_flags(rest)?;
            let request = remote_request(cmd, &flags)?;
            match sfcc_daemon::roundtrip(socket, &request) {
                Ok(reply) => render_reply(&request, &flags, &reply),
                Err(e) => {
                    eprintln!("{e}");
                    Ok(ExitCode::from(2))
                }
            }
        }
        other => Err(format!("unknown client command `{other}`\n\n{USAGE}")),
    }
}

fn cmd_trace_check(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(format!("`trace-check` expects one trace file\n\n{USAGE}"));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let summary = sfcc_trace::validate_chrome_trace(&text)
        .map_err(|e| format!("`{path}` is not a valid trace: {e}"))?;
    println!(
        "{path}: valid — {} event(s) ({} span(s), {} instant(s)), max depth {}, {} pass event(s)",
        summary.events, summary.complete, summary.instants, summary.max_depth, summary.pass_events
    );
    Ok(ExitCode::SUCCESS)
}
