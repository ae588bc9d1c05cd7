//! The benchmark's own tests, at reduced scale (`small` preset, short
//! histories).

use super::{run, END_TO_END, PER_LAYER};
use crate::common::{Outcome, Params, Scale, Workload};
use crate::layers::BuildLayers;
use crate::stats::Metric;
use sfcc::{Compiler, Config};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `minicc` binary of this target directory, built on first use.
fn minicc() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let exe = std::env::current_exe().expect("test binary path");
        // <target>/<profile>/deps/<test binary>
        let target = exe
            .ancestors()
            .nth(3)
            .expect("target directory")
            .to_path_buf();
        let path = target.join("release").join("minicc");
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "sfcc-buildsys",
                "--bin",
                "minicc",
            ])
            .arg("--manifest-path")
            .arg(&manifest)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building minicc failed");
        path
    })
    .clone()
}

fn params(workload: Workload, seed: u64, trace: bool) -> Params {
    Params {
        workload,
        seed,
        seconds: 0.2,
        trace,
        // Relative and short: the cli-session socket lives here.
        work: PathBuf::from(format!(
            "target/tw/{}-{seed}-{}",
            workload.name(),
            u8::from(trace)
        )),
        scale: Scale::Reduced,
        minicc: (workload == Workload::CliSession).then(minicc),
        cores: 2,
    }
}

fn run_ok(workload: Workload, seed: u64, trace: bool) -> (Outcome, String) {
    let (outcome, line) = run(&params(workload, seed, trace))
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
    assert!(outcome.attempted > 0);
    (outcome, line)
}

fn metric<'a>(outcome: &'a Outcome, name: &str) -> &'a Metric {
    outcome
        .metrics
        .get(name)
        .unwrap_or_else(|| panic!("{name} missing"))
}

/// `(name, unit)` of a metric list in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let value = sfcc_trace::json::parse(&text).expect("BENCHMARK.json parses");
    let list = value
        .get(section)
        .and_then(|v| v.as_arr())
        .expect("metric list");
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_match_the_result_lines() {
    let names = |section| {
        declared(section)
            .into_iter()
            .map(|(n, _)| n)
            .collect::<Vec<_>>()
    };
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
    for name in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn workload_rationales_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let value = sfcc_trace::json::parse(&text).expect("BENCHMARK.json parses");
    let listed = value
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workloads");
    assert_eq!(listed.len(), Workload::ALL.len());
    for (entry, workload) in listed.iter().zip(Workload::ALL) {
        let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).expect(k);
        assert_eq!(field("name"), workload.name());
        assert_eq!(field("why"), workload.why());
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (outcome, line) = run_ok(workload, 7, trace);
            let section = if trace { "per_layer" } else { "end_to_end" };
            for (name, unit) in declared(section) {
                let m = metric(&outcome, &name);
                assert_eq!(m.unit, unit, "{} {name}", workload.name());
                assert!(m.value.is_finite(), "{} {name}", workload.name());
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{line}"
                );
            }
            for m in outcome.metrics.0.iter().chain(&outcome.extra.0) {
                assert!(valid_name(&m.name), "{}", m.name);
            }
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for key in ["detected_cores", "seed", "window_digest"] {
                assert!(outcome.context.iter().any(|(k, _)| k == key), "{key}");
            }
        }
    }
}

#[test]
fn p90_is_omitted_without_ten_samples_beyond_it() {
    let (outcome, _) = run_ok(Workload::EditLoop, 3, false);
    let edits = metric(&outcome, "edit_ms_p50").samples.expect("p50");
    assert!(edits < 100, "reduced runs are short");
    assert!(outcome.extra.get("edit_ms_p90").is_none());
}

#[test]
fn count_metrics_repeat_at_a_seed_and_histories_differ_across_seeds() {
    let digest = |o: &Outcome| {
        let (_, v) = o
            .context
            .iter()
            .find(|(k, _)| k == "window_digest")
            .expect("digest");
        v.clone()
    };
    for workload in Workload::ALL {
        let (a, _) = run_ok(workload, 11, true);
        let (b, _) = run_ok(workload, 11, true);
        let (c, _) = run_ok(workload, 12, true);
        for m in a.metrics.0.iter().filter(|m| m.unit == "count") {
            assert_eq!(
                m.value,
                metric(&b, &m.name).value,
                "{} {}",
                workload.name(),
                m.name
            );
        }
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        let (a, _) = run_ok(workload, 11, false);
        let (b, _) = run_ok(workload, 11, false);
        for name in ["state_bytes", "program_steps", "code_insts"] {
            assert_eq!(metric(&a, name).value, metric(&b, name).value, "{name}");
        }
    }
}

#[test]
fn traced_build_parts_add_up_to_build_wall() {
    let mut model = generate_model(&GeneratorConfig::small(5));
    let mut script = EditScript::new(5);
    let mut builder = Builder::new(Compiler::new(Config::stateful())).with_tracing();
    for _ in 0..4 {
        let project = model.render();
        let start = std::time::Instant::now();
        let report = builder.build(&project).expect("builds");
        let wall_ns = start.elapsed().as_nanos() as u64;
        let layers = BuildLayers::of(&report, wall_ns);
        let sum = layers.phases_ns() as i64 + layers.link_ns as i64 + layers.unattributed_ns();
        assert_eq!(sum, wall_ns as i64);
        assert!(
            layers.wall_ns >= report.wall_ns,
            "the call encloses the build"
        );
        assert!(report.trace.is_some());
        script.commit(&mut model);
    }
}
