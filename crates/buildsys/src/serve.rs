//! The build session behind every build-class `minicc` command — one
//! session code path, served once or kept resident.
//!
//! A [`BuildService`] wraps a [`Builder`] configured from [`SessionFlags`]
//! and answers typed build / run / ir / depcheck calls. A cold `minicc
//! build` opens one and serves a single call; `minicc serve` (through
//! `sfcc-daemon`, which owns sockets, framing, admission, and session
//! slots) keeps one per project resident, so its query engine, function
//! cache, CAS handle, and per-function dormancy stamps survive between
//! requests — the paper's statefulness applied across process boundaries.
//! Either way a build performs the same durable ops in the same order
//! (park report → build → commit state → write report → write image), so
//! a crash mid-request leaves exactly the states a cold build's crash
//! would, and both routes print from one typed [`BuildSummary`].

use crate::report::FngrainStats;
use crate::{BuildReport, Builder, DepMutations, Project};
use sfcc::{Compiler, Config, Durability, OptLevel};
use sfcc_backend::{run, Program, RunOutput, VmOptions};
use sfcc_daemon::{Request, Service};
use sfcc_trace::json::{self, Value};
use sfcc_trace::MetricsSnapshot;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The build flags a session is configured (and a daemon session keyed)
/// under — the subset of `minicc` build flags that outlives one invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionFlags {
    /// `--stateful`: persist dormancy state in `<dir>/.sfcc-state`.
    pub stateful: bool,
    /// `--fn-cache`: enable the function-level IR cache.
    pub fn_cache: bool,
    /// `--cas <dir>`: attach a shared content-addressed artifact store.
    pub cas: Option<PathBuf>,
    /// `--cas-budget <bytes>`.
    pub cas_budget: Option<u64>,
    /// `--jobs <N>`; `None` means all available cores.
    pub jobs: Option<usize>,
    /// `--durable`: fsync durable writes.
    pub durable: bool,
    /// `-O0` / `-O1` / `-O2` (the default).
    pub opt: OptLevel,
}

impl SessionFlags {
    /// Parses session flags (verbatim CLI flag syntax), e.g. the `args` of
    /// a daemon request.
    ///
    /// # Errors
    ///
    /// Names the first unknown or malformed flag.
    pub fn parse(args: &[String]) -> Result<SessionFlags, String> {
        let mut flags = SessionFlags::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if !flags.accept(arg, &mut iter)? {
                return Err(format!("unknown session flag `{arg}`"));
            }
        }
        Ok(flags)
    }

    /// Applies `arg` when it is a session flag, taking its value from
    /// `rest`; `Ok(false)` leaves a non-session argument to the caller.
    ///
    /// # Errors
    ///
    /// A session flag with a missing or malformed value.
    pub fn accept<'a>(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        match arg {
            "--stateful" => self.stateful = true,
            "--stateless" => self.stateful = false,
            "--fn-cache" => self.fn_cache = true,
            "--cas" => {
                let dir = rest.next().ok_or("`--cas` expects a store directory")?;
                self.cas = Some(PathBuf::from(dir));
            }
            "--cas-budget" => {
                let value = rest.next().ok_or("`--cas-budget` expects a byte count")?;
                self.cas_budget = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`--cas-budget` expects a number, got `{value}`"))?,
                );
            }
            "--jobs" => {
                let value = rest.next().ok_or("`--jobs` expects a worker count")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("`--jobs` expects a number, got `{value}`"))?;
                if n == 0 {
                    return Err("`--jobs` expects at least 1 worker".to_string());
                }
                self.jobs = Some(n);
            }
            "--parallel" => self.jobs = None,
            "--durable" => self.durable = true,
            "-O0" => self.opt = OptLevel::O0,
            "-O1" => self.opt = OptLevel::O1,
            "-O2" => self.opt = OptLevel::O2,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The canonical argument rendering [`SessionFlags::parse`] reads back:
    /// fixed order, defaults omitted, the store path made absolute (a
    /// daemon keys sessions on these args and resolves paths against its
    /// own working directory).
    pub fn to_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        if self.stateful {
            args.push("--stateful".to_string());
        }
        if self.fn_cache {
            args.push("--fn-cache".to_string());
        }
        if let Some(cas) = &self.cas {
            let cas = std::path::absolute(cas).unwrap_or_else(|_| cas.clone());
            args.push("--cas".to_string());
            args.push(cas.display().to_string());
        }
        if let Some(budget) = self.cas_budget {
            args.push("--cas-budget".to_string());
            args.push(budget.to_string());
        }
        if let Some(jobs) = self.jobs {
            args.push("--jobs".to_string());
            args.push(jobs.to_string());
        }
        if self.durable {
            args.push("--durable".to_string());
        }
        match self.opt {
            OptLevel::O0 => args.push("-O0".to_string()),
            OptLevel::O1 => args.push("-O1".to_string()),
            OptLevel::O2 => {}
        }
        args
    }

    /// The compiler configuration these flags select for `dir`, environment
    /// fallbacks (`SFCC_CAS`, `SFCC_CAS_BUDGET`) included. Worker counts are
    /// not compiler configuration: the session's [`Builder`] owns them.
    pub fn config(&self, dir: &Path) -> Config {
        let mut config = if self.stateful {
            Config::stateful().with_state_path(dir.join(".sfcc-state"))
        } else {
            Config::stateless()
        }
        .with_opt_level(self.opt);
        if self.fn_cache {
            config = config.with_function_cache();
        }
        // `--cas` wins over the environment; either attaches the shared
        // store (and implies the function cache, which fronts it).
        let cas_dir = self
            .cas
            .clone()
            .or_else(|| std::env::var("SFCC_CAS").ok().map(PathBuf::from));
        if let Some(store) = cas_dir {
            config = config.with_cas_path(store);
            let budget = self
                .cas_budget
                .or_else(|| std::env::var("SFCC_CAS_BUDGET").ok()?.parse().ok());
            if let Some(budget) = budget {
                config = config.with_cas_budget(budget);
            }
        }
        if self.durable {
            config = config.with_durability(Durability::Durable);
        }
        config
    }
}

/// Parses a `SFCC_DAEMON_MUTATIONS`-style spec into [`DepMutations`] —
/// the adversarial hook the depcheck audit tests seed lies through
/// (e.g. `freeze-stamp:state:main::main`). Comma-separated entries.
///
/// # Errors
///
/// Names the first unknown mutation kind.
pub fn parse_mutations(spec: &str) -> Result<DepMutations, String> {
    let mut mutations = DepMutations::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        match entry.split_once(':') {
            Some(("freeze-stamp", input)) => {
                mutations = mutations.freeze_stamp(input);
            }
            _ => return Err(format!("unknown dependency mutation `{entry}`")),
        }
    }
    Ok(mutations)
}

/// Runs `main.main` of `program` on `args`. The VM zero-fills missing
/// argument registers, so the argument count must match exactly: a
/// forgotten `-- <n>` fails loudly instead of running `main` on zeros.
///
/// # Errors
///
/// An arity mismatch or a runtime error.
pub fn run_main(program: &Program, args: &[i64]) -> Result<RunOutput, String> {
    if let Some(id) = program.func_id("main.main") {
        let arity = program.func(id).arity as usize;
        if args.len() != arity {
            return Err(format!(
                "main.main takes {arity} argument(s), got {} (pass them after `--`)",
                args.len()
            ));
        }
    }
    run(program, "main.main", args, VmOptions::default())
        .map_err(|e| format!("runtime error: {e:?}"))
}

/// What a build did: the one source of the human output of both routes.
/// The cold CLI takes it from the in-memory report ([`BuildSummary::of`]),
/// a daemon client from the report its reply embeds
/// ([`BuildSummary::from_report_json`]).
#[derive(Debug, Clone)]
pub struct BuildSummary {
    modules: u64,
    rebuilt: u64,
    wall_ns: u64,
    active: u64,
    dormant: u64,
    skipped: u64,
    hits: u64,
    misses: u64,
    fngrain: FngrainStats,
    recovered: u64,
    quarantined: Vec<String>,
    cache_hits: u64,
    cache_misses: u64,
}

impl BuildSummary {
    /// The summary of an in-memory report.
    pub fn of(report: &BuildReport) -> BuildSummary {
        BuildSummary::from_metrics(&report.metrics, report.quarantined.clone())
    }

    /// The summary of a report as [`BuildReport::to_json`] rendered it.
    ///
    /// # Errors
    ///
    /// A document without the report's `metrics` or `recovery` blocks.
    pub fn from_report_json(doc: &Value) -> Result<BuildSummary, String> {
        let metrics = doc
            .get("metrics")
            .ok_or("report has no \"metrics\" block")?;
        let quarantined = doc
            .get("recovery")
            .and_then(|r| r.get("quarantined"))
            .and_then(Value::as_arr)
            .ok_or("report has no \"recovery.quarantined\" list")?
            .iter()
            .filter_map(|path| path.as_str().map(str::to_string))
            .collect();
        Ok(BuildSummary::from_metrics(
            &MetricsSnapshot::from_json(metrics)?,
            quarantined,
        ))
    }

    /// Every count comes from the build's metrics registry, the report's
    /// single source for its numeric fields.
    fn from_metrics(metrics: &MetricsSnapshot, quarantined: Vec<String>) -> BuildSummary {
        let m = |name: &str| metrics.scalar(name).unwrap_or(0);
        BuildSummary {
            modules: m("build.modules"),
            rebuilt: m("build.rebuilt_count"),
            wall_ns: m("build.wall_ns"),
            active: m("outcomes.active"),
            dormant: m("outcomes.dormant"),
            skipped: m("outcomes.skipped"),
            hits: m("query.hits"),
            misses: m("query.misses"),
            fngrain: FngrainStats {
                signature_hits: m("fngrain.signature_hits"),
                signature_misses: m("fngrain.signature_misses"),
                fn_tasks_executed: m("fngrain.fn_tasks_executed"),
                cutoff_saved: m("fngrain.cutoff_saved"),
            },
            recovered: m("recovery.recovered_files"),
            quarantined,
            cache_hits: m("cache.hits"),
            cache_misses: m("cache.misses"),
        }
    }

    /// What `build` prints: recovery (when any), the build and fn-grain
    /// lines, and the image written.
    pub fn build_lines(&self, image: &str) -> String {
        let mut out = String::new();
        if self.recovered > 0 {
            let quarantined = if self.quarantined.is_empty() {
                "(none)".to_string()
            } else {
                self.quarantined.join(", ")
            };
            out = format!(
                "recovered from {} corrupt persistent file(s); quarantined: {quarantined}\n",
                self.recovered
            );
        }
        let f = &self.fngrain;
        out + &format!(
            "built {} module(s) ({} recompiled) in {:.2} ms; pass slots: {} active, {} dormant, {} skipped; queries: {} hit(s), {} miss(es)\n\
             fn-grain: {} signature pin(s) held, {} re-extracted; {} function pipeline task(s) ran, {} saved by cutoff\n\
             wrote {image}\n",
            self.modules,
            self.rebuilt,
            self.wall_ns as f64 / 1e6,
            self.active,
            self.dormant,
            self.skipped,
            self.hits,
            self.misses,
            f.signature_hits,
            f.signature_misses,
            f.fn_tasks_executed,
            f.cutoff_saved,
        )
    }

    /// What `run` prints before the program's output; the function-cache
    /// line only under `--fn-cache`.
    pub fn run_lines(&self, fn_cache: bool) -> String {
        let mut out = format!(
            "built {} module(s) ({} recompiled, {} pass slot(s) skipped)\n",
            self.modules, self.rebuilt, self.skipped,
        );
        if fn_cache {
            let _ = writeln!(
                out,
                "fn-cache: {} hit(s), {} miss(es)",
                self.cache_hits, self.cache_misses
            );
        }
        out
    }
}

/// One project's build session: a [`Builder`] plus the flags it was
/// configured under.
pub struct BuildService {
    dir: PathBuf,
    flags: SessionFlags,
    builder: Builder,
    /// Whether the builder holds state newer than the last durable save.
    /// Builds save their own state before responding, so this only flips
    /// when a build dies between mutating and saving.
    dirty: bool,
}

/// The report file every build persists, `minicc stats`'s input.
pub const REPORT_FILE: &str = ".sfcc-report.json";
/// Where the previous report is parked while a build runs. A build that
/// fails leaves it here, so `minicc stats` can tell "the last build did
/// not complete" apart from "here is the last build's telemetry".
pub const STALE_REPORT_FILE: &str = ".sfcc-report.json.stale";

impl BuildService {
    /// A daemon session for `dir` under `args` (verbatim CLI build flags).
    /// Mutation specs (the depcheck fuzzing hook) come from the
    /// `SFCC_DAEMON_MUTATIONS` environment variable.
    ///
    /// # Errors
    ///
    /// Bad flags or a bad mutation spec.
    pub fn new(dir: &Path, args: &[String]) -> Result<BuildService, String> {
        let mutations = match std::env::var("SFCC_DAEMON_MUTATIONS") {
            Ok(spec) => parse_mutations(&spec)?,
            Err(_) => DepMutations::new(),
        };
        BuildService::new_with(dir, args, mutations)
    }

    /// [`BuildService::new`] with explicit dependency mutations — the
    /// in-process hook the audit tests seed lies through without touching
    /// process-global environment.
    ///
    /// # Errors
    ///
    /// Bad flags.
    pub fn new_with(
        dir: &Path,
        args: &[String],
        mutations: DepMutations,
    ) -> Result<BuildService, String> {
        Ok(BuildService::open(
            dir,
            SessionFlags::parse(args)?,
            mutations,
        ))
    }

    /// A session for `dir` under already-parsed `flags`.
    pub fn open(dir: &Path, flags: SessionFlags, mutations: DepMutations) -> BuildService {
        let mut builder = Builder::new(Compiler::new(flags.config(dir)));
        builder = match flags.jobs {
            Some(jobs) => builder.with_jobs(jobs),
            None => builder.with_parallelism(),
        };
        if !mutations.is_empty() {
            builder = builder.with_dep_mutations(mutations);
        }
        BuildService {
            dir: dir.to_path_buf(),
            flags,
            builder,
            dirty: false,
        }
    }

    /// Records a span trace of every build into [`BuildReport::trace`].
    pub fn with_tracing(mut self) -> BuildService {
        self.builder = self.builder.with_tracing();
        self
    }

    /// A [`sfcc_daemon::ServiceFactory`] over [`BuildService::new`].
    pub fn factory() -> sfcc_daemon::ServiceFactory {
        Box::new(|dir, args| Ok(Box::new(BuildService::new(dir, args)?)))
    }

    fn load_project(&self) -> Result<Project, String> {
        let project = Project::from_dir(&self.dir)
            .map_err(|e| format!("cannot load project `{}`: {e}", self.dir.display()))?;
        if project.is_empty() {
            return Err(format!("no .mc files in `{}`", self.dir.display()));
        }
        Ok(project)
    }

    /// Builds the project: park the previous report → build → save state
    /// (when stateful) → write `.sfcc-report.json` → drop the parked
    /// report. The report is written with plain `std::fs`, deliberately
    /// outside the fault-injectable I/O layer, so telemetry never shifts a
    /// fault plan's op numbering.
    ///
    /// # Errors
    ///
    /// The build, the state save, or the report write failed.
    pub fn build_report(&mut self) -> Result<BuildReport, String> {
        let project = self.load_project()?;
        // Park the previous report first: if this build fails or crashes,
        // `stats` must not serve yesterday's numbers as today's.
        let report_path = self.dir.join(REPORT_FILE);
        let stale_path = self.dir.join(STALE_REPORT_FILE);
        if report_path.exists() {
            let _ = std::fs::rename(&report_path, &stale_path);
        }
        // Dirty from the moment the engine may mutate until the state is
        // durably committed: if the save below fails (or the build dies
        // partway), the shutdown/idle snapshot retries the commit.
        self.dirty = true;
        let mut report = self.builder.build(&project).map_err(|e| e.to_string())?;
        if self.flags.stateful {
            report.state_generation = self
                .builder
                .compiler()
                .save_state()
                .map_err(|e| format!("cannot save state: {e}"))?;
        }
        self.dirty = false;
        std::fs::write(&report_path, report.to_json())
            .map_err(|e| format!("cannot write `{}`: {e}", report_path.display()))?;
        let _ = std::fs::remove_file(&stale_path);
        Ok(report)
    }

    /// [`BuildService::build_report`], then writes the linked image to
    /// `out` (default `<dir>.sbx`); returns the report and the image path.
    pub fn build(&mut self, out: Option<&Path>) -> Result<(BuildReport, PathBuf), String> {
        let report = self.build_report()?;
        let out = out.map_or_else(|| self.dir.with_extension("sbx"), Path::to_path_buf);
        let durability = if self.flags.durable {
            Durability::Durable
        } else {
            Durability::Fast
        };
        sfcc_backend::image::save_with(&report.program, &out, durability)
            .map_err(|e| format!("cannot write `{}`: {e}", out.display()))?;
        Ok((report, out))
    }

    /// [`BuildService::build_report`], then [`run_main`] on `args`.
    pub fn run(&mut self, args: &[i64]) -> Result<(BuildReport, RunOutput), String> {
        let report = self.build_report()?;
        let out = run_main(&report.program, args)?;
        Ok((report, out))
    }

    /// [`BuildService::build_report`], then one module's optimized IR,
    /// reassembled from the query store and rendered.
    pub fn ir(&mut self, module: &str) -> Result<(BuildReport, String), String> {
        let report = self.build_report()?;
        let ir = self
            .builder
            .module_ir(module)
            .ok_or_else(|| format!("no module `{module}` in `{}`", self.dir.display()))?;
        Ok((report, sfcc_ir::module_to_string(&ir)))
    }

    /// Audits dependency soundness: an instrumented build (whose access
    /// diff covers every task kind it executes) and a no-op rebuild (whose
    /// stamp audit covers store serves), findings merged into the
    /// rebuild's report. Read-only — saves no state and writes no report
    /// file — so it can run against a checkout without dirtying it.
    ///
    /// # Errors
    ///
    /// The project does not load or an audited build failed.
    pub fn depcheck(&mut self) -> Result<BuildReport, String> {
        let project = self.load_project()?;
        self.builder.set_depcheck(true);
        let audit = self
            .builder
            .build(&project)
            .map_err(|e| format!("depcheck: audited build failed: {e}"))
            .and_then(|first| {
                let mut second = self
                    .builder
                    .build(&project)
                    .map_err(|e| format!("depcheck: no-op rebuild failed: {e}"))?;
                let mut merged = first.depcheck.unwrap_or_default();
                merged.merge(second.depcheck.take().unwrap_or_default());
                second.depcheck = Some(merged);
                Ok(second)
            });
        self.builder.set_depcheck(false);
        audit
    }
}

/// Appends `,"report":<report JSON>` to a reply payload.
fn push_report(payload: &mut String, report: &BuildReport) {
    payload.push_str(",\"report\":");
    payload.push_str(&report.to_json());
}

impl Service for BuildService {
    fn handle(&mut self, request: &Request) -> Result<String, String> {
        match request.cmd.as_str() {
            "build" => {
                let (report, out) = self.build(request.out.as_deref().map(Path::new))?;
                let (active, dormant, skipped) = report.outcome_totals();
                let mut payload = String::from("\"image\":");
                json::escape_into(&mut payload, &out.display().to_string());
                payload.push_str(&format!(
                    ",\"modules\":{},\"rebuilt\":{},\"generation\":{},\"recovered\":{},\
                     \"active\":{active},\"dormant\":{dormant},\"skipped\":{skipped},\
                     \"hits\":{},\"misses\":{},\"wall_ns\":{}",
                    report.modules.len(),
                    report.rebuilt_count(),
                    report.state_generation,
                    report.recovered_files,
                    report.query.hits,
                    report.query.misses,
                    report.wall_ns,
                ));
                push_report(&mut payload, &report);
                Ok(payload)
            }
            "run" => {
                let (report, out) = self.run(&request.prog_args)?;
                let prints: Vec<String> = out.prints.iter().map(i64::to_string).collect();
                let mut payload = format!("\"prints\":[{}]", prints.join(","));
                match out.return_value {
                    Some(v) => payload.push_str(&format!(",\"return\":{v}")),
                    None => payload.push_str(",\"return\":null"),
                }
                payload.push_str(&format!(
                    ",\"executed\":{},\"modules\":{},\"rebuilt\":{},\"skipped\":{}",
                    out.executed,
                    report.modules.len(),
                    report.rebuilt_count(),
                    report.outcome_totals().2,
                ));
                push_report(&mut payload, &report);
                Ok(payload)
            }
            "ir" => {
                let module = request
                    .module
                    .as_deref()
                    .ok_or("`ir` requires a \"module\" field")?;
                let (_, ir) = self.ir(module)?;
                let mut payload = String::from("\"module\":");
                json::escape_into(&mut payload, module);
                payload.push_str(",\"ir\":");
                json::escape_into(&mut payload, &ir);
                Ok(payload)
            }
            "depcheck" => {
                let report = self.depcheck()?;
                let audit = report.depcheck.as_ref().expect("depcheck merges an audit");
                let mut payload = format!(
                    "\"clean\":{},\"findings\":{},\"render\":",
                    audit.is_clean(),
                    audit.findings.len()
                );
                json::escape_into(&mut payload, &audit.render());
                push_report(&mut payload, &report);
                Ok(payload)
            }
            other => Err(format!("session cannot serve `{other}`")),
        }
    }

    fn snapshot(&mut self) -> Result<(), String> {
        // Builds persist their own state before responding, so this only
        // writes when a request mutated without saving; re-saving
        // unconditionally would advance the state generation past what a
        // cold build lineage produces and break byte-identity.
        if self.dirty && self.flags.stateful {
            self.builder
                .compiler()
                .save_state()
                .map_err(|e| format!("cannot save state: {e}"))?;
            self.dirty = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_flags_roundtrip_through_to_args() {
        let args: Vec<String> = [
            "--stateful",
            "--fn-cache",
            "--cas",
            "/store",
            "--cas-budget",
            "4096",
            "--jobs",
            "3",
            "--durable",
            "-O1",
        ]
        .map(String::from)
        .to_vec();
        let flags = SessionFlags::parse(&args).unwrap();
        assert_eq!(flags.to_args(), args, "canonical rendering");
        assert_eq!(SessionFlags::parse(&flags.to_args()).unwrap(), flags);
        let defaults = SessionFlags::parse(&["-O2".into(), "--parallel".into()]).unwrap();
        assert_eq!(defaults, SessionFlags::default());
        assert!(defaults.to_args().is_empty(), "defaults are omitted");
        assert!(SessionFlags::parse(&["--report".into()]).is_err());
    }
}
