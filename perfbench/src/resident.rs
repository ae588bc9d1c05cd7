//! `edit-loop` and `wide-edit`: two resident `Builder`s replay the same
//! edit history in one process, closed loop, one client.
//!
//! The untraced run pairs a stateful lane with a stateless one. The traced
//! run pairs the stateful lane, now built `with_tracing`, with an untraced
//! stateful twin, so the cost of tracing itself is measured too.

use crate::calib::{self, Timed};
use crate::common::{fresh_dir, peak_rss_mb, sync_tree, History, Outcome, Params, Workload};
use crate::layers::{self, BuildLayers, LayerLog};
use crate::oracle::{Oracle, Reference};
use crate::spans::SpanLog;
use crate::stats::{median_count, ms, Samples};
use sfcc::{Compiler, Config, Durability};
use sfcc_backend::Program;
use sfcc_buildsys::{Builder, Project};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Functions a `wide-edit` commit touches.
const WIDE_FUNCTIONS: usize = 16;
/// A no-op rebuild follows every this many edits.
const NOOP_EVERY: usize = 4;
/// A from-scratch build follows every this many `edit-loop` edits, and
/// every [`WIDE_CLEAN_EVERY`] `wide-edit` edits: enough samples that one
/// slow stretch of the host does not set the median.
const CLEAN_EVERY: usize = 15;
const WIDE_CLEAN_EVERY: usize = 4;

struct Lane {
    label: &'static str,
    builder: Builder,
    edit: Timed,
    layers: LayerLog,
    program: Option<Program>,
}

impl Lane {
    fn new(
        label: &'static str,
        config: Config,
        jobs: usize,
        traced: bool,
        spans: &SpanLog,
    ) -> (Lane, u64) {
        spans.set_lane(label);
        let span = spans.enter("Compiler::new");
        let compiler = Compiler::new(config);
        let new_ns = span.done();
        let mut builder = Builder::new(compiler).with_jobs(jobs);
        if traced {
            builder = builder.with_tracing();
        }
        let lane = Lane {
            label,
            builder,
            edit: Timed::default(),
            layers: LayerLog::default(),
            program: None,
        };
        (lane, new_ns)
    }

    /// Runs the reference kernel, then builds `project` and checks the
    /// program against the reference.
    fn build(
        &mut self,
        project: &Project,
        oracle: Option<&Oracle>,
        spans: &SpanLog,
    ) -> Result<Built, String> {
        let kernel_ms = calib::kernel_ms();
        spans.set_lane(self.label);
        let span = spans.enter("Builder::build");
        let result = self.builder.build(project);
        let wall_ns = span.done();
        let report = result.map_err(|e| e.to_string())?;
        let layers = BuildLayers::of(&report, wall_ns);
        let steps = oracle
            .ok_or("no reference")?
            .check(&report.program, spans)?;
        self.program = Some(report.program);
        Ok(Built {
            layers,
            steps,
            kernel_ms,
        })
    }
}

/// One checked build.
struct Built {
    /// Its layers, the call's wall time among them.
    layers: BuildLayers,
    /// VM steps of its program on the oracle's arguments.
    steps: u64,
    /// The reference kernel's time just before it (ms).
    kernel_ms: f64,
}

impl Built {
    fn wall_ms(&self) -> f64 {
        ms(self.layers.wall_ns)
    }
}

fn lane_config(stateful: bool) -> Config {
    if stateful {
        Config::stateful()
    } else {
        Config::stateless()
    }
}

/// One set-up: the generated project on disk and both lanes primed.
struct Setup {
    history: History,
    reference: Reference,
    dir: PathBuf,
    primary: Lane,
    second: Lane,
}

fn load(dir: &Path, spans: &SpanLog) -> Result<(Project, u64), String> {
    spans.set_lane("stateful");
    let span = spans.enter("Project::from_dir");
    let project = Project::from_dir(dir).map_err(|e| format!("cannot load project: {e}"))?;
    Ok((project, span.done()))
}

/// Runs `edit-loop` or `wide-edit`.
///
/// # Errors
///
/// Set-up could not complete (no result is printed then).
pub fn run(params: &Params, out: &mut Outcome) -> Result<(), String> {
    let wide = (params.workload == Workload::WideEdit).then_some(WIDE_FUNCTIONS);
    let jobs = match params.workload {
        Workload::WideEdit => params.cores.clamp(1, 2),
        _ => 1,
    };
    let clean_every = if wide.is_some() {
        WIDE_CLEAN_EVERY
    } else {
        CLEAN_EVERY
    };
    let window = params.scale.window(params.workload);
    let spans = SpanLog::new(params.trace);
    let second_label = if params.trace { "twin" } else { "stateless" };
    out.note("jobs.stateful", jobs);
    out.note(&format!("jobs.{second_label}"), jobs);

    let mut setup_s = Timed::default();
    let mut clean = Timed::default();
    let mut compiler_new = Samples::default();
    let mut setup = None;
    for i in 0..params.scale.setups() {
        drop(setup.take());
        let kernel_before = calib::kernel_ms();
        let start = Instant::now();
        spans.set_lane("setup");
        let history = History::new(&params.scale.preset(), params.seed);
        let dir = fresh_dir(&params.work.join(format!("tree{i}")))?;
        sync_tree(&dir, &history.project, None)?;
        let (project, _) = load(&dir, &spans)?;
        let mut reference = Reference::default();
        let oracle = Oracle::of(&mut reference, &project, &spans)?;
        let (mut primary, new_ns) =
            Lane::new("stateful", lane_config(true), jobs, params.trace, &spans);
        compiler_new.push(ms(new_ns));
        let (mut second, _) =
            Lane::new(second_label, lane_config(params.trace), jobs, false, &spans);
        for lane in [&mut primary, &mut second] {
            let built = out.check("priming build", lane.build(&project, Some(&oracle), &spans));
            if let (Some(b), "stateful") = (built, lane.label) {
                clean.push(b.wall_ms(), b.kernel_ms);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        setup_s.push(elapsed, (kernel_before + calib::kernel_ms()) / 2.0);
        setup = Some(Setup {
            history,
            reference,
            dir,
            primary,
            second,
        });
    }
    let Setup {
        mut history,
        mut reference,
        dir,
        mut primary,
        mut second,
    } = setup.ok_or("no set-up ran")?;

    let mut noop = Timed::default();
    let mut program_steps = Vec::new();
    let mut code_insts = Vec::new();
    let mut ratio = Samples::default();
    let mut project_load = Samples::default();
    let mut image_save = Samples::default();
    let mut faultfs = [Vec::new(), Vec::new(), Vec::new()];
    let mut window_figures = None;
    let image = dir.join("out.sbx");
    let deadline = params.deadline();
    while history.edits < window || Instant::now() < deadline {
        let previous = history.advance(wide);
        let in_window = history.edits <= window;
        sync_tree(&dir, &history.project, Some(&previous))?;
        let (project, load_ns) = load(&dir, &spans)?;
        project_load.push(ms(load_ns));
        let oracle = out.check("reference", Oracle::of(&mut reference, &project, &spans));

        // Alternate which lane builds first, so neither always runs on a
        // cache the other just warmed.
        let order: [&mut Lane; 2] = if history.edits % 2 == 0 {
            [&mut primary, &mut second]
        } else {
            [&mut second, &mut primary]
        };
        let mut walls = [None, None];
        for lane in order {
            let ops_before = sfcc_faultfs::op_counts();
            let built = lane.build(&project, oracle.as_ref(), &spans);
            if let Some(b) = out.check(lane.label, built) {
                if let (Some(program), "stateful", true) = (&lane.program, lane.label, in_window) {
                    program_steps.push(b.steps);
                    code_insts.push(program.total_code_size() as u64);
                }
                lane.edit.push(b.wall_ms(), b.kernel_ms);
                walls[usize::from(lane.label != "stateful")] = Some(b.layers.wall_ns);
                lane.layers.push(b.layers, in_window);
            }
            if let (Some(program), "stateful") = (&lane.program, lane.label) {
                let span = spans.enter("image::save_with");
                let saved = sfcc_backend::image::save_with(program, &image, Durability::Fast);
                image_save.push(ms(span.done()));
                saved.map_err(|e| format!("cannot save image: {e}"))?;
                let ops = sfcc_faultfs::op_counts().delta_since(&ops_before);
                if in_window {
                    faultfs[0].push(ops.writes);
                    faultfs[1].push(ops.renames);
                    faultfs[2].push(ops.sync_files);
                }
            }
        }

        if let [Some(a), Some(b)] = walls {
            ratio.push(a as f64 / b as f64);
        }
        if !params.trace && history.edits % NOOP_EVERY == 0 {
            let built = primary.build(&project, oracle.as_ref(), &spans);
            if let Some(b) = out.check("no-op", built) {
                noop.push(b.wall_ms(), b.kernel_ms);
            }
        }
        if !params.trace && history.edits % clean_every == 0 {
            let (mut fresh, _) = Lane::new("clean", lane_config(true), jobs, false, &spans);
            let built = fresh.build(&project, oracle.as_ref(), &spans);
            if let Some(b) = out.check("clean", built) {
                clean.push(b.wall_ms(), b.kernel_ms);
            }
        }
        if history.edits == window {
            out.note("window_digest", format!("{:016x}", history.digest()));
            window_figures = Some(window_end(
                &primary,
                &second,
                oracle.as_ref(),
                &project,
                params,
                &spans,
                out,
            )?);
        }
    }
    let window_figures = window_figures.ok_or("the counted window did not complete")?;

    out.note("edits", history.edits);
    out.note("window_edits", window);
    let m = &mut out.metrics;
    let x = &mut out.extra;
    if params.trace {
        primary.layers.report(m, jobs);
        m.median("buildsys.project_load_ms", &project_load, "ms");
        m.median("core.state_load_ms", &compiler_new, "ms");
        m.median("backend.image_save_ms", &image_save, "ms");
        layers::add_faultfs(m, &faultfs);
        m.add(
            "passes.quality_loss_pct",
            window_figures.quality_loss_pct,
            "%",
        );
        let traced = primary.layers.wall().median().unwrap_or(0.0);
        let plain = second.layers.wall().median().unwrap_or(f64::NAN);
        m.add("trace.overhead_pct", (traced / plain - 1.0) * 100.0, "%");
        spans.print_self_times();
        let _ = spans.write_chrome(&params.work.with_extension("spans.json"));
    } else {
        primary.edit.report(m, x, "edit_ms_p50", "ms");
        second.edit.report(m, x, "alt_edit_ms_p50", "ms");
        m.median("lane_ratio_p50", &ratio, "ratio");
        noop.report(m, x, "noop_ms_p50", "ms");
        clean.report(m, x, "clean_build_ms", "ms");
        m.add(
            "peak_rss_mb",
            peak_rss_mb("self").unwrap_or(f64::NAN),
            "MiB",
        );
        m.add("state_bytes", window_figures.state_bytes as f64, "bytes");
        m.add(
            "program_steps",
            median_count(&program_steps),
            "instructions",
        );
        m.add("code_insts", median_count(&code_insts), "instructions");
        setup_s.report(m, x, "setup_s", "s");
        x.p90("edit_ms_p90", &primary.edit.scaled);
        x.median("stateless_edit_ms_p50", &second.edit.scaled, "ms");
        // The paper's figure: summed stateless minus summed stateful edit
        // time, over summed stateless edit time.
        let slow = second.edit.raw.sum();
        x.add(
            "stateful_speedup_pct",
            (slow - primary.edit.raw.sum()) / slow * 100.0,
            "%",
        );
    }
    Ok(())
}

struct WindowFigures {
    state_bytes: usize,
    quality_loss_pct: f64,
}

/// Figures taken once, when the counted window ends: they depend only on
/// the seed.
fn window_end(
    primary: &Lane,
    second: &Lane,
    oracle: Option<&Oracle>,
    project: &Project,
    params: &Params,
    spans: &SpanLog,
    out: &mut Outcome,
) -> Result<WindowFigures, String> {
    let oracle = oracle.ok_or("no reference at the window's end")?;
    let program = primary.program.as_ref().ok_or("no stateful program")?;
    let program_steps = oracle.check(program, spans)?;
    // The untraced run's second lane is stateless already; the traced run
    // builds the stateless twin of the final program from scratch.
    let stateless_steps = if params.trace {
        stateless_steps(project, oracle, spans, out)
    } else {
        second
            .program
            .as_ref()
            .map(|p| oracle.check(p, spans))
            .transpose()?
    }
    .ok_or("no stateless program")?;
    Ok(WindowFigures {
        state_bytes: primary.builder.compiler().state_bytes().len(),
        quality_loss_pct: (program_steps as f64 / stateless_steps as f64 - 1.0) * 100.0,
    })
}

/// VM steps of `project` built from scratch by a stateless compiler: the
/// base of `passes.quality_loss_pct`.
pub fn stateless_steps(
    project: &Project,
    oracle: &Oracle,
    spans: &SpanLog,
    out: &mut Outcome,
) -> Option<u64> {
    let (mut lane, _) = Lane::new("stateless", lane_config(false), 1, false, spans);
    let built = lane.build(project, Some(oracle), spans);
    out.check("stateless reference build", built)
        .map(|b| b.steps)
}
