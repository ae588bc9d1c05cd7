//! E13: function-level parallel optimization scaling.
//!
//! The optimize phase runs every function's pass pipeline as an independent
//! task on a shared work-stealing pool (`sfcc-pool`), with the inliner
//! reading callees from an immutable pre-stage snapshot. This experiment
//! sweeps the worker count over (a) a single module with ~64 functions —
//! pure function-level parallelism, the case module-level parallelism
//! cannot touch — and (b) a cold full build of a standard generated
//! project, where module waves and function tasks share one pool.
//!
//! Scaling is bounded by the host: the JSON artifact records
//! `detected_cores`, and on a single-core container every speedup is ≈1×
//! by construction (the table is still meaningful as an overhead check).
//! Byte-identity of the optimized IR across worker counts is asserted on
//! every run.

use crate::table::{ms, Table};
use crate::{Scale, DEFAULT_SEED};
use sfcc::{Compiler, Config};
use sfcc_buildsys::Builder;
use sfcc_frontend::ModuleEnv;
use sfcc_ir::print::module_to_string;
use sfcc_workload::{generate_model, GeneratorConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Worker counts the experiment sweeps.
const JOBS: [usize; 4] = [1, 2, 4, 8];

/// One swept point: a worker count and its best-of-reps timings.
struct Point {
    jobs: usize,
    /// Optimize-phase wall time (ns), best of the repetitions.
    optimize_ns: u64,
    /// Full-build wall time (ns), best of the repetitions (project sweep
    /// only; 0 for the single-module sweep).
    wall_ns: u64,
    /// Module snapshots taken during one repetition (deterministic and
    /// jobs-invariant, bracketed per rep via `delta_since`).
    snapshot_clones: u64,
    /// Live instructions deep-cloned into snapshots during one repetition
    /// (deterministic, jobs-invariant).
    cost_units: u64,
}

fn speedup(base: u64, now: u64) -> f64 {
    if now == 0 {
        return 1.0;
    }
    base as f64 / now as f64
}

/// Signed overhead of `now` vs `base`, in percent (negative = faster).
fn overhead_pct(base: u64, now: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (now as f64 - base as f64) / base as f64 * 100.0
}

/// A generated project whose one library module carries `functions`
/// functions (plus a tiny `main` on top).
fn single_module_config(functions: usize) -> GeneratorConfig {
    GeneratorConfig {
        seed: DEFAULT_SEED + 70,
        modules: 1,
        functions_per_module: (functions, functions),
        stmts_per_function: (8, 14),
        import_density: 0.0,
        callees_per_function: (1, 3),
        name: "single-large".into(),
    }
}

/// E13: optimize-phase wall time vs `--jobs`, single large module and
/// standard project. Returns the rendered tables and the machine-readable
/// JSON written to `BENCH_parallel.json`.
pub fn parallel_scaling(scale: Scale) -> (String, String) {
    let reps = match scale {
        Scale::Quick => 3,
        Scale::Full => 10,
    };
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);

    // (a) Single large module: frontend + lower once, then time the
    // optimize phase alone at each worker count.
    let functions = 64;
    let model = generate_model(&single_module_config(functions));
    let project = model.render();
    let big = project
        .names()
        .filter(|&n| n != "main")
        .max_by_key(|&n| project.file(n).map_or(0, str::len))
        .expect("generated project has a library module");
    let source = project.file(big).expect("module has source");
    let compiler = Compiler::new(Config::stateless());
    let env = ModuleEnv::new();
    let (checked, _) = compiler
        .phase_frontend(big, source, &env)
        .expect("generated module compiles");
    let (ir, _) = compiler.phase_lower(&checked, &env);

    // Repetitions are interleaved across worker counts (rep-major, not
    // jobs-major): host-load drift then lands on every sweep point equally
    // instead of biasing whichever point happened to run during a noisy
    // window — the overhead gate compares points against each other.
    let mut reference: Option<String> = None;
    let mut single: Vec<Point> = JOBS
        .iter()
        .map(|&jobs| Point {
            jobs,
            optimize_ns: u64::MAX,
            wall_ns: 0,
            snapshot_clones: 0,
            cost_units: 0,
        })
        .collect();
    for _ in 0..reps {
        for point in &mut single {
            // Bracket each repetition: the snapshot counters are
            // process-global, so only the delta belongs to this run.
            let snap_before = sfcc_passes::snapshot_stats();
            let t = Instant::now();
            // Capped at the host's parallelism and the function count;
            // a width of 1 runs inline on this thread.
            let width = sfcc_pool::effective_jobs(point.jobs).min(ir.functions.len().max(1));
            let (optimized, _) = sfcc_pool::scope(width, |ps| compiler.optimize(&ir, Some(ps)));
            point.optimize_ns = point.optimize_ns.min(t.elapsed().as_nanos() as u64);
            let snap = sfcc_passes::snapshot_stats().delta_since(&snap_before);
            // Deterministic per run; any repetition reports the same.
            point.snapshot_clones = snap.clones;
            point.cost_units = snap.cost_units;
            let text = module_to_string(&optimized);
            match &reference {
                None => reference = Some(text),
                Some(expected) => assert_eq!(
                    expected, &text,
                    "optimized IR diverged between worker counts"
                ),
            }
        }
    }

    // (b) Standard workload: cold full builds of a generated project, the
    // shared pool covering module waves and function tasks together.
    let project_config = scale.single(DEFAULT_SEED + 71);
    let standard = generate_model(&project_config).render();
    // Interleaved rep-major sweep, for the same drift-evening reason.
    let mut project_points: Vec<Point> = JOBS
        .iter()
        .map(|&jobs| Point {
            jobs,
            optimize_ns: u64::MAX,
            wall_ns: u64::MAX,
            snapshot_clones: 0,
            cost_units: 0,
        })
        .collect();
    for _ in 0..reps {
        for point in &mut project_points {
            let snap_before = sfcc_passes::snapshot_stats();
            let mut builder =
                Builder::new(Compiler::new(Config::stateless())).with_jobs(point.jobs);
            let report = builder.build(&standard).expect("generated project builds");
            let snap = sfcc_passes::snapshot_stats().delta_since(&snap_before);
            point.snapshot_clones = snap.clones;
            point.cost_units = snap.cost_units;
            let optimize_ns: u64 = report
                .modules
                .iter()
                .filter_map(|m| report.optimize_ns(&m.name))
                .sum();
            point.wall_ns = point.wall_ns.min(report.wall_ns);
            point.optimize_ns = point.optimize_ns.min(optimize_ns);
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "detected cores: {cores}\n");
    let _ = writeln!(
        out,
        "single module, {functions} functions (optimize phase only):"
    );
    let mut table = Table::new(&[
        "jobs",
        "optimize-ms",
        "speedup-vs-1",
        "overhead-%",
        "snapshots",
        "cost-units",
    ]);
    let base = single[0].optimize_ns;
    for p in &single {
        table.row(&[
            p.jobs.to_string(),
            ms(p.optimize_ns),
            format!("{:.2}x", speedup(base, p.optimize_ns)),
            format!("{:+.2}", overhead_pct(base, p.optimize_ns)),
            p.snapshot_clones.to_string(),
            p.cost_units.to_string(),
        ]);
    }
    out.push_str(&table.render());

    let _ = writeln!(
        out,
        "\n{} project, cold full build (shared pool):",
        project_config.name
    );
    let mut table = Table::new(&[
        "jobs",
        "build-ms",
        "optimize-ms",
        "speedup-vs-1",
        "overhead-%",
    ]);
    let base = project_points[0].wall_ns;
    for p in &project_points {
        table.row(&[
            p.jobs.to_string(),
            ms(p.wall_ns),
            ms(p.optimize_ns),
            format!("{:.2}x", speedup(base, p.wall_ns)),
            format!("{:+.2}", overhead_pct(base, p.wall_ns)),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nshape check: with enough cores, optimize time falls as workers\n\
         are added until function granularity runs out; on a single-core\n\
         host every row is ~1x and the sweep degenerates to an overhead\n\
         check. Output byte-identity across worker counts is asserted.\n",
    );

    let mut json = String::from("{\"experiment\":\"parallel_scaling\",");
    let _ = write!(
        json,
        "\"detected_cores\":{cores},\"reps\":{reps},\"single_module\":{{\"functions\":{functions},\"sweep\":["
    );
    let base = single[0].optimize_ns;
    for (i, p) in single.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"jobs\":{},\"optimize_ns\":{},\"speedup_vs_1\":{:.4},\"overhead_pct\":{:.2},\"snapshot_clones\":{},\"cost_units\":{}}}",
            p.jobs,
            p.optimize_ns,
            speedup(base, p.optimize_ns),
            overhead_pct(base, p.optimize_ns),
            p.snapshot_clones,
            p.cost_units
        );
    }
    let _ = write!(
        json,
        "]}},\"project_build\":{{\"preset\":\"{}\",\"sweep\":[",
        project_config.name
    );
    let base = project_points[0].wall_ns;
    for (i, p) in project_points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"jobs\":{},\"wall_ns\":{},\"optimize_ns\":{},\"speedup_vs_1\":{:.4},\"overhead_pct\":{:.2},\"snapshot_clones\":{},\"cost_units\":{}}}",
            p.jobs,
            p.wall_ns,
            p.optimize_ns,
            speedup(base, p.wall_ns),
            overhead_pct(base, p.wall_ns),
            p.snapshot_clones,
            p.cost_units
        );
    }
    json.push_str("]}}");
    (out, json)
}

/// CI gate over the experiment's JSON artifact: the single-module sweep's
/// widest worker count (`jobs=8`) must not exceed `jobs=1` optimize time by
/// more than `max_pct` percent. On a single-core host the sweep measures
/// pure fan-out overhead, so this pins the cost of `--jobs` misconfiguration.
/// Returns the measured overhead percentage on success.
pub fn gate_single_module_overhead(json: &str, max_pct: f64) -> Result<f64, String> {
    let doc = sfcc_trace::json::parse(json).map_err(|e| format!("invalid experiment JSON: {e}"))?;
    let sweep = doc
        .get("single_module")
        .and_then(|m| m.get("sweep"))
        .and_then(sfcc_trace::json::Value::as_arr)
        .ok_or("missing single_module.sweep")?;
    let optimize_ns_at = |jobs: u64| -> Result<u64, String> {
        sweep
            .iter()
            .find(|p| p.get("jobs").and_then(sfcc_trace::json::Value::as_u64) == Some(jobs))
            .and_then(|p| p.get("optimize_ns"))
            .and_then(sfcc_trace::json::Value::as_u64)
            .ok_or(format!("missing sweep point for jobs={jobs}"))
    };
    let base = optimize_ns_at(1)?;
    let wide = optimize_ns_at(*JOBS.last().expect("sweep is nonempty") as u64)?;
    let pct = overhead_pct(base, wide);
    if pct > max_pct {
        return Err(format!(
            "jobs={} optimize time exceeds jobs=1 by {pct:.2}% (budget {max_pct:.2}%)",
            JOBS.last().unwrap()
        ));
    }
    Ok(pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_runs_and_reports_every_worker_count() {
        let (table, json) = parallel_scaling(Scale::Quick);
        for jobs in JOBS {
            assert!(json.contains(&format!("\"jobs\":{jobs}")), "{json}");
        }
        assert!(table.contains("speedup-vs-1"), "{table}");
        assert!(table.contains("overhead-%"), "{table}");
        assert!(json.contains("\"detected_cores\":"), "{json}");
        assert!(json.contains("\"overhead_pct\":"), "{json}");
        assert!(json.contains("\"snapshot_clones\":"), "{json}");
        assert!(json.contains("\"cost_units\":"), "{json}");
        // A permissive gate must accept the artifact it was built from.
        gate_single_module_overhead(&json, 1e9).expect("gate parses its own artifact");
    }

    #[test]
    fn gate_rejects_overhead_beyond_budget() {
        let json = r#"{"experiment":"parallel_scaling","single_module":{"sweep":[
            {"jobs":1,"optimize_ns":1000},{"jobs":8,"optimize_ns":1100}]}}"#;
        let err = gate_single_module_overhead(json, 5.0).unwrap_err();
        assert!(err.contains("10.00%"), "{err}");
        assert!(gate_single_module_overhead(json, 15.0).is_ok());
    }

    #[test]
    fn gate_reports_missing_sweep_points() {
        let json = r#"{"single_module":{"sweep":[{"jobs":1,"optimize_ns":1000}]}}"#;
        let err = gate_single_module_overhead(json, 5.0).unwrap_err();
        assert!(err.contains("jobs=8"), "{err}");
    }
}
