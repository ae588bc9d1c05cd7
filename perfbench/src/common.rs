//! What every workload shares: run parameters, the outcome being
//! assembled, the working tree on disk, and the edit history.

use crate::stats::MetricSet;
use sfcc_buildsys::Project;
use sfcc_workload::{Commit, EditScript, GeneratorConfig, ProjectModel};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-commit edits, resident stateful and stateless builders.
    EditLoop,
    /// 16-function body edits on a worker pool, plus clean builds.
    WideEdit,
    /// The CLI: a fresh `minicc build` process against a warm daemon.
    CliSession,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::EditLoop, Workload::WideEdit, Workload::CliSession];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EditLoop => "edit-loop",
            Workload::WideEdit => "wide-edit",
            Workload::CliSession => "cli-session",
        }
    }

    /// Why the workload is in the benchmark (one line, as in
    /// BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::EditLoop => {
                "large project, one-commit edits (50/25/15/10 mix) on resident stateful and stateless Builders, 1 job: per-build fixed cost dominates, as in the paper's E4"
            }
            Workload::WideEdit => {
                "large project, 16-function body edits on resident stateful and stateless Builders with 2 jobs, plus clean builds: passes, codegen and the pool do the work"
            }
            Workload::CliSession => {
                "large project, one-commit edits served by a fresh minicc build process and by a minicc serve daemon: the user's path through persistence, CLI and daemon"
            }
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size of a run: the benchmark proper, or the reduced scale its tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `large` preset.
    Full,
    /// `small` preset and short histories, for tests.
    Reduced,
}

/// Generator seed of the project every run edits. The project is part of
/// the workload's definition, as in the repository's E4 and E18 setups;
/// the run's `--seed` draws the edit history. Runs at different seeds then
/// differ in what is edited, not in project size, which would otherwise
/// swing every timing by a fifth between seeds.
pub const PROJECT_SEED: u64 = 42;

impl Scale {
    /// The generator preset of the project.
    pub fn preset(self) -> GeneratorConfig {
        match self {
            Scale::Full => GeneratorConfig::large(PROJECT_SEED),
            Scale::Reduced => GeneratorConfig::small(PROJECT_SEED),
        }
    }

    /// Edits at the start of the history whose counts are reported; they
    /// always run, so count-type metrics repeat exactly at a seed.
    pub fn window(self, workload: Workload) -> usize {
        match (self, workload) {
            (Scale::Reduced, _) => 4,
            (Scale::Full, Workload::CliSession) => 12,
            (Scale::Full, _) => 24,
        }
    }

    /// How many times set-up runs (its median is `setup_s`).
    pub fn setups(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Reduced => 2,
        }
    }
}

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the edit history.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory the run owns.
    pub work: PathBuf,
    /// Benchmark or test scale.
    pub scale: Scale,
    /// The `minicc` binary (`cli-session` only).
    pub minicc: Option<PathBuf>,
    /// Worker threads the host offers.
    pub cores: usize,
}

impl Params {
    /// End of the measured phase, if it starts now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Builds whose output the oracle checked.
    pub attempted: u64,
    /// Builds that errored, were refused, or disagreed with the oracle.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: MetricSet,
    /// Workload-specific figures printed but not part of the result line.
    pub extra: MetricSet,
    /// `key=value` run context.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one checked build; returns the value when it passed.
    pub fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    /// Records a context entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }
}

/// The generated project and its edit history.
#[derive(Debug)]
pub struct History {
    /// The project model the edits mutate.
    model: ProjectModel,
    script: EditScript,
    /// Rendered sources of the current version.
    pub project: Project,
    /// Edits applied so far.
    pub edits: usize,
    digest: u64,
}

impl History {
    /// Generates the project of `preset`; `seed` draws the edits.
    pub fn new(preset: &GeneratorConfig, seed: u64) -> History {
        let model = sfcc_workload::generate_model(preset);
        let project = model.render();
        History {
            model,
            script: EditScript::new(seed ^ 0x5EED_0ED1),
            project,
            edits: 0,
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Applies the next edit (`wide` functions at once, or one commit) and
    /// re-renders the edited modules; returns the previous rendering.
    pub fn advance(&mut self, wide: Option<usize>) -> Project {
        let commits: Vec<Commit> = match wide {
            Some(n) => self.script.wide_commit(&mut self.model, n),
            None => vec![self.script.commit(&mut self.model)],
        };
        let previous = self.project.clone();
        for c in &commits {
            let module = self
                .model
                .modules
                .iter()
                .find(|m| m.name == c.module)
                .expect("edits name a module of the model");
            self.project
                .set_file(c.module.clone(), self.model.render_module(module));
            for b in format!("{}:{}:{};", c.kind.label(), c.module, c.function).bytes() {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
        }
        self.edits += 1;
        previous
    }

    /// FNV-1a digest of every edit applied so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Writes the modules of `project` that differ from `previous` into `dir`.
///
/// # Errors
///
/// I/O failures.
pub fn sync_tree(dir: &Path, project: &Project, previous: Option<&Project>) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (name, source) in project.iter() {
        if previous.and_then(|p| p.file(name)) != Some(source) {
            let path = dir.join(format!("{name}.mc"));
            std::fs::write(&path, source)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Peak resident set (VmHWM) of process `pid` (`self` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fresh, empty directory.
///
/// # Errors
///
/// I/O failures.
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}
