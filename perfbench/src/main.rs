//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <edit-loop|wide-edit|cli-session|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--minicc <path>] [--work <dir>]
//! ```
//!
//! `all` runs the three workloads one after the other in this process.
//! Each run generates the project and draws an edit history from the seed, measures for
//! `--seconds`, checks every build's program against the reference
//! interpreter, and prints one JSON result line last. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exits 1 when any
//! build failed or disagreed with the reference, 2 when the run could not
//! be set up (no result line then).

mod calib;
mod cli;
mod common;
mod layers;
mod oracle;
mod resident;
mod spans;
mod stats;

use common::{Outcome, Params, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, in result-line order (every workload reports all).
pub const END_TO_END: [&str; 10] = [
    "edit_ms_p50",
    "alt_edit_ms_p50",
    "lane_ratio_p50",
    "noop_ms_p50",
    "clean_build_ms",
    "peak_rss_mb",
    "state_bytes",
    "program_steps",
    "code_insts",
    "setup_s",
];

/// Per-layer metrics, in result-line order (every workload reports all).
pub const PER_LAYER: [&str; 35] = [
    "buildsys.unattributed_ms",
    "buildsys.fn_tasks_executed",
    "buildsys.cutoff_saved",
    "buildsys.rebuilt_modules",
    "buildsys.project_load_ms",
    "query.hits",
    "query.misses",
    "query.hit_ratio",
    "state.ingest_ms",
    "state.functions",
    "state.dormant_slots",
    "core.state_load_ms",
    "core.fncache_hits",
    "core.fncache_misses",
    "frontend.ms",
    "ir.lower_ms",
    "passes.ms",
    "passes.cost_units",
    "passes.slots_active",
    "passes.slots_dormant",
    "passes.slots_skipped",
    "passes.skip_ratio",
    "passes.snapshot_clones",
    "passes.snapshot_reused",
    "passes.quality_loss_pct",
    "pool.jobs",
    "pool.batch_count",
    "pool.batch_max_cost",
    "backend.codegen_ms",
    "backend.link_ms",
    "backend.image_save_ms",
    "faultfs.writes",
    "faultfs.renames",
    "faultfs.sync_files",
    "trace.overhead_pct",
];

fn main() -> ExitCode {
    let runs = match parse_args(std::env::args().skip(1).collect()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for params in runs {
        match run(&params) {
            Ok((outcome, line)) => {
                print!("{}", render(&params, &outcome));
                println!("{line}");
                if outcome.failed > 0 {
                    code = ExitCode::from(1);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", params.workload.name());
                return ExitCode::from(2);
            }
        }
    }
    code
}

/// Runs one workload in a fresh scratch directory; returns the outcome and
/// the result line.
///
/// # Errors
///
/// Set-up failed, or a metric the result line needs was not measured.
pub fn run(params: &Params) -> Result<(Outcome, String), String> {
    common::fresh_dir(&params.work)?;
    let mut outcome = Outcome::default();
    outcome.note("workload", params.workload.name());
    outcome.note("seed", params.seed);
    outcome.note("detected_cores", params.cores);
    let result = match params.workload {
        Workload::CliSession => cli::run(params, &mut outcome),
        _ => resident::run(params, &mut outcome),
    };
    let _ = std::fs::remove_dir_all(&params.work);
    result?;
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.extra.add("failed_frac", failed_frac, "ratio");
    let names: &[&str] = if params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics = outcome.metrics.to_json(names)?;
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok((outcome, line))
}

fn render(params: &Params, outcome: &Outcome) -> String {
    let mut out = format!(
        "perfbench {} (trace {})\nwhy: {}\ncontext:",
        params.workload.name(),
        u8::from(params.trace),
        params.workload.why()
    );
    for (k, v) in &outcome.context {
        out.push_str(&format!(" {k}={v}"));
    }
    out.push_str(if params.trace {
        "\nper-layer metrics:\n"
    } else {
        "\nend-to-end metrics:\n"
    });
    out.push_str(&outcome.metrics.render());
    out.push_str("workload-specific figures (printed only):\n");
    out.push_str(&outcome.extra.render());
    out.push_str(&format!(
        "builds checked against the reference: {}, failed: {}\n",
        outcome.attempted, outcome.failed
    ));
    for e in &outcome.errors {
        out.push_str(&format!("  failure: {e}\n"));
    }
    out
}

/// Parses the command line into one run per selected workload.
fn parse_args(args: Vec<String>) -> Result<Vec<Params>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut minicc = None;
    let mut work = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` expects a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (edit-loop, wide-edit, cli-session, all)")
                })?;
                workload = Some(vec![w]);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "`--seed` expects an integer")?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| "`--seconds` expects a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("`--seconds` must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` expects 0 or 1".into()),
                });
            }
            "--minicc" => minicc = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workloads = workload.ok_or("`--workload` is required")?;
    let seed = seed.ok_or("`--seed` is required")?;
    let seconds = seconds.ok_or("`--seconds` is required")?;
    let trace = trace.unwrap_or(false);
    let work = work.unwrap_or_else(|| PathBuf::from(".bench_work"));
    Ok(workloads
        .into_iter()
        .map(|workload| Params {
            workload,
            seed,
            seconds,
            trace,
            work: work.join(format!("{}-{}", workload.name(), u8::from(trace))),
            scale: Scale::Full,
            minicc: minicc.clone(),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
        })
        .collect())
}

#[cfg(test)]
mod tests;
