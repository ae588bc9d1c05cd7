//! Golden-trace suite for the observability layer: exported build traces
//! must be well-formed Chrome trace JSON with strictly nested spans, carry
//! every pass execution exactly once (tagged active/dormant/skipped), and
//! be **byte-identical** across repeated runs and across `--jobs 1` vs
//! `--jobs 8`. The metrics registry must agree with every numeric field of
//! the JSON report, the report must match its pinned schema, and — the
//! no-observer-effect property — enabling tracing and metrics must change
//! no build output (images, persisted state, cache, rebuild decisions)
//! over random edit scripts. Tests prefixed `quick_` form the CI smoke
//! subset.

use proptest::prelude::*;
use sfcc::{Compiler, Config};
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::{validate_report_json, BuildReport, Builder, Project};
use sfcc_trace::json::{self, Value};
use sfcc_trace::validate_chrome_trace;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-it-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn three_module_project() -> Project {
    let mut p = Project::new();
    p.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 2 + 1; }".into(),
    );
    p.set_file(
        "lib".into(),
        "import base;\nfn f(x: int) -> int { return base::g(x) + 3; }".into(),
    );
    p.set_file(
        "main".into(),
        "import lib;\nfn main(n: int) -> int { return lib::f(n); }".into(),
    );
    p
}

fn traced_builder(jobs: usize) -> Builder {
    Builder::new(Compiler::new(Config::stateless()))
        .with_jobs(jobs)
        .with_tracing()
}

fn chrome_json(report: &BuildReport) -> String {
    report
        .trace
        .as_ref()
        .expect("a traced build records a trace")
        .to_chrome_json(false)
}

#[test]
fn quick_trace_is_wellformed_and_strictly_nested() {
    let mut builder = traced_builder(2);
    let report = builder.build(&three_module_project()).unwrap();
    let text = chrome_json(&report);
    let summary = validate_chrome_trace(&text).expect("exported trace must validate");
    // The full hierarchy is present: build > wave > module > phase >
    // function > pass.
    assert_eq!(summary.max_depth, 6, "unexpected hierarchy: {summary:?}");
    assert!(summary.complete > 0, "no spans recorded");
    assert!(summary.instants > 0, "no query instants recorded");
    assert!(summary.pass_events > 0, "no pass spans recorded");
    // Wall-clock must be absent from the deterministic export, present in
    // the annotated one.
    assert!(!text.contains("wall_ns"));
    assert!(report
        .trace
        .as_ref()
        .unwrap()
        .to_chrome_json(true)
        .contains("wall_ns"));
}

/// Every pass execution of the build appears in the trace exactly once,
/// tagged with its outcome; the tag totals equal the report's.
#[test]
fn quick_every_pass_execution_appears_exactly_once_tagged() {
    let mut builder = traced_builder(1);
    let report = builder.build(&three_module_project()).unwrap();
    let recorded: usize = report
        .modules
        .iter()
        .filter_map(|m| m.output.as_ref())
        .flat_map(|out| out.trace.functions.iter())
        .map(|f| f.records.len())
        .sum();
    let (active, dormant, skipped) = report.outcome_totals();

    let doc = json::parse(&chrome_json(&report)).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let mut tags = (0usize, 0usize, 0usize);
    let mut pass_events = 0usize;
    for ev in events {
        if ev.get("cat").and_then(Value::as_str) != Some("pass") {
            continue;
        }
        pass_events += 1;
        let outcome = ev
            .get("args")
            .and_then(|a| a.get("outcome"))
            .and_then(Value::as_str)
            .expect("every pass span is tagged with its outcome");
        match outcome {
            "active" => tags.0 += 1,
            "dormant" => tags.1 += 1,
            "skipped" => tags.2 += 1,
            other => panic!("unknown outcome tag {other:?}"),
        }
    }
    assert_eq!(
        pass_events, recorded,
        "pass executions must appear exactly once"
    );
    assert_eq!(tags, (active, dormant, skipped));
}

/// The golden property: exported trace bytes are identical across repeated
/// cold runs, across `--jobs 1` vs `--jobs 8`, and across warm incremental
/// rebuilds of the same edit.
#[test]
fn trace_bytes_identical_across_jobs_and_runs() {
    let p = three_module_project();
    let mut seq = traced_builder(1);
    let mut par = traced_builder(8);
    let cold_seq = chrome_json(&seq.build(&p).unwrap());
    let cold_par = chrome_json(&par.build(&p).unwrap());
    assert_eq!(
        cold_seq, cold_par,
        "cold trace diverged between jobs 1 and 8"
    );

    // A second cold run from a fresh builder reproduces the same bytes.
    let rerun = chrome_json(&traced_builder(1).build(&p).unwrap());
    assert_eq!(cold_seq, rerun, "cold trace not reproducible across runs");

    // A warm incremental rebuild (query hits, partial recompilation) must
    // also be jobs-independent.
    let mut edited = three_module_project();
    edited.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 5 + 1; }".into(),
    );
    let warm_seq = chrome_json(&seq.build(&edited).unwrap());
    let warm_par = chrome_json(&par.build(&edited).unwrap());
    assert_eq!(
        warm_seq, warm_par,
        "warm trace diverged between jobs 1 and 8"
    );
    assert_ne!(cold_seq, warm_seq, "warm trace should differ from cold");
    // The warm trace records cache-hit demand instants.
    assert!(warm_seq.contains("\"hit\":true"));
}

#[test]
fn quick_report_json_matches_pinned_schema() {
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    let report = builder.build(&three_module_project()).unwrap();
    let text = report.to_json();
    validate_report_json(&text).expect("report must match its schema");

    // Schema drift is an error, not a silent pass: a renamed key, a
    // missing block, and invalid JSON are all rejected.
    let renamed = text.replace("\"metrics\":", "\"telemetry\":");
    assert!(validate_report_json(&renamed).is_err());
    assert!(validate_report_json("{}").is_err());
    assert!(validate_report_json("not json").is_err());
}

/// Consistency: every numeric field the JSON report prints equals the
/// matching metrics-registry value — the registry is the single source.
#[test]
fn quick_report_numerics_equal_metrics_registry() {
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    let p = three_module_project();
    builder.build(&p).unwrap();
    // Second build with one edit: mixes hits, misses, and dormancy.
    let mut edited = three_module_project();
    edited.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 7 + 1; }".into(),
    );
    let report = builder.build(&edited).unwrap();
    let doc = json::parse(&report.to_json()).unwrap();
    let metrics = &report.metrics;

    let field = |v: &Value, path: &[&str]| -> u64 {
        let mut cur = v.clone();
        for key in path {
            cur = cur
                .get(key)
                .unwrap_or_else(|| panic!("missing {path:?}"))
                .clone();
        }
        cur.as_u64()
            .unwrap_or_else(|| panic!("{path:?} not a number"))
    };
    let check = |json_value: u64, metric: &str| {
        assert_eq!(
            Some(json_value),
            metrics.scalar(metric),
            "report field disagrees with registry metric {metric:?}"
        );
    };

    check(field(&doc, &["wall_ns"]), "build.wall_ns");
    check(field(&doc, &["link_ns"]), "build.link_ns");
    check(field(&doc, &["compile_ns"]), "build.compile_ns");
    check(field(&doc, &["rebuilt_count"]), "build.rebuilt_count");
    check(field(&doc, &["jobs"]), "build.jobs");
    for outcome in ["active", "dormant", "skipped"] {
        check(
            field(&doc, &["outcomes", outcome]),
            &format!("outcomes.{outcome}"),
        );
    }
    check(field(&doc, &["query", "hits"]), "query.hits");
    check(field(&doc, &["query", "misses"]), "query.misses");
    check(
        field(&doc, &["recovery", "recovered_files"]),
        "recovery.recovered_files",
    );
    for row in doc.get("pass_profile").and_then(Value::as_arr).unwrap() {
        let pass = row.get("pass").and_then(Value::as_str).unwrap();
        check(field(row, &["total_ns"]), &format!("pass.{pass}.total_ns"));
        check(field(row, &["runs"]), &format!("pass.{pass}.runs"));
        check(field(row, &["skipped"]), &format!("pass.{pass}.skipped"));
    }
    for row in doc.get("slowest_slots").and_then(Value::as_arr).unwrap() {
        let slot = field(row, &["slot"]);
        check(field(row, &["total_ns"]), &format!("slot.{slot}.total_ns"));
        check(field(row, &["runs"]), &format!("slot.{slot}.runs"));
    }
    for module in doc.get("modules").and_then(Value::as_arr).unwrap() {
        if module.get("timings_ns").is_none() {
            continue;
        }
        let name = module.get("name").and_then(Value::as_str).unwrap();
        for (json_key, metric_key) in [
            ("frontend", "frontend_ns"),
            ("lower", "lower_ns"),
            ("middle", "middle_ns"),
            ("backend", "backend_ns"),
            ("state", "state_ns"),
        ] {
            check(
                field(module, &["timings_ns", json_key]),
                &format!("module.{name}.{metric_key}"),
            );
        }
        check(
            field(module, &["optimize_ns"]),
            &format!("module.{name}.optimize_ns"),
        );
        for outcome in ["active", "dormant", "skipped"] {
            check(
                field(module, &["outcomes", outcome]),
                &format!("module.{name}.{outcome}"),
            );
        }
    }
}

/// A stateful builder with the function cache on, persisting under
/// `dir/<tag>.state`.
fn stateful_builder(dir: &Path, tag: &str, traced: bool) -> Builder {
    let config = Config::stateful()
        .with_state_path(dir.join(format!("{tag}.state")))
        .with_function_cache();
    let builder = Builder::new(Compiler::new(config)).with_jobs(2);
    if traced {
        builder.with_tracing()
    } else {
        builder
    }
}

/// Persisted dormancy-state and function-cache bytes, via the commit
/// manifest.
fn persisted_bytes(builder: &Builder, dir: &Path, tag: &str) -> (Vec<u8>, Vec<u8>) {
    builder.compiler().save_state().unwrap();
    let cd = sfcc_faultfs::CommitDir::new(&dir.join(format!("{tag}.state")));
    let m = cd.read_manifest().unwrap().unwrap();
    let state = cd.load_entry(m.entry("state").unwrap()).unwrap();
    let cache = cd.load_entry(m.entry("ircache").unwrap()).unwrap();
    (state, cache)
}

/// Everything a build decided, minus the telemetry block and wall times.
#[derive(Debug, PartialEq)]
struct Decisions {
    rebuilt: Vec<(String, bool)>,
    outcomes: (usize, usize, usize),
    hits: u64,
    misses: u64,
    executed: Vec<String>,
    cost_units: u64,
}

fn decisions(report: &BuildReport) -> Decisions {
    Decisions {
        rebuilt: report
            .modules
            .iter()
            .map(|m| (m.name.clone(), m.rebuilt))
            .collect(),
        outcomes: report.outcome_totals(),
        hits: report.query.hits,
        misses: report.query.misses,
        executed: report.query.executed.clone(),
        cost_units: report.executed_cost_units(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// No observer effect: a traced builder and an untraced builder
    /// replaying the same random edit script produce byte-identical
    /// images, state files, and cache files, and identical build
    /// decisions (rebuild flags, query stats, pass outcomes).
    #[test]
    fn tracing_changes_no_build_output(seed in any::<u64>()) {
        let dir = scratch_dir(&format!("prop-{}", seed % 1000));
        let config = GeneratorConfig::small(seed % 1000);
        let mut model = generate_model(&config);
        let mut script = EditScript::new(seed ^ 0x51ed_2701_89ab_cdef);

        let mut plain = stateful_builder(&dir, "plain", false);
        let mut traced = stateful_builder(&dir, "traced", true);

        for commit in 0..4usize {
            if commit > 0 {
                script.commit(&mut model);
            }
            let p = model.render();
            let plain_report = plain.build(&p).unwrap();
            let traced_report = traced.build(&p).unwrap();

            prop_assert!(plain_report.trace.is_none());
            prop_assert!(traced_report.trace.is_some());
            prop_assert_eq!(
                to_bytes(&plain_report.program),
                to_bytes(&traced_report.program),
                "image diverged at commit {}", commit
            );
            prop_assert_eq!(
                decisions(&plain_report),
                decisions(&traced_report),
                "build decisions diverged at commit {}", commit
            );
            let (plain_state, plain_cache) = persisted_bytes(&plain, &dir, "plain");
            let (traced_state, traced_cache) = persisted_bytes(&traced, &dir, "traced");
            prop_assert_eq!(plain_state, traced_state, "state diverged at commit {}", commit);
            prop_assert_eq!(plain_cache, traced_cache, "fn-cache diverged at commit {}", commit);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
