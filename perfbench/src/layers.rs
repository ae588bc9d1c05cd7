//! Per-layer figures of one build, read from outside the program: the
//! `BuildReport` fields, its metrics snapshot, and the wall time of the
//! `Builder::build` call measured around it.

use crate::stats::{median_count, MetricSet, Samples};
use sfcc_buildsys::BuildReport;

/// The layer split of one `Builder::build` call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildLayers {
    /// Wall time of the call, measured around it (ns).
    pub wall_ns: u64,
    /// Front end (lex, parse, check), summed over rebuilt modules (ns).
    pub frontend_ns: u64,
    /// AST to IR lowering (ns).
    pub lower_ns: u64,
    /// Pass pipeline (ns).
    pub middle_ns: u64,
    /// Code generation (ns).
    pub backend_ns: u64,
    /// Dormancy-state lookup and ingestion (ns).
    pub state_ns: u64,
    /// Final link (ns).
    pub link_ns: u64,
    /// Deterministic counters, in [`COUNTS`] order.
    pub counts: [u64; COUNTS.len()],
}

/// Names of the per-build counters, as reported.
pub const COUNTS: [&str; 17] = [
    "buildsys.fn_tasks_executed",
    "buildsys.cutoff_saved",
    "buildsys.rebuilt_modules",
    "query.hits",
    "query.misses",
    "state.functions",
    "state.dormant_slots",
    "core.fncache_hits",
    "core.fncache_misses",
    "passes.cost_units",
    "passes.slots_active",
    "passes.slots_dormant",
    "passes.slots_skipped",
    "passes.snapshot_clones",
    "passes.snapshot_reused",
    "pool.batch_count",
    "pool.batch_max_cost",
];

impl BuildLayers {
    /// Splits `report`, whose `Builder::build` call took `wall_ns`.
    pub fn of(report: &BuildReport, wall_ns: u64) -> BuildLayers {
        let mut layers = BuildLayers {
            wall_ns,
            link_ns: report.link_ns,
            ..BuildLayers::default()
        };
        for out in report.modules.iter().filter_map(|m| m.output.as_ref()) {
            layers.frontend_ns += out.timings.frontend_ns;
            layers.lower_ns += out.timings.lower_ns;
            layers.middle_ns += out.timings.middle_ns;
            layers.backend_ns += out.timings.backend_ns;
            layers.state_ns += out.timings.state_ns;
        }
        let (active, dormant, skipped) = report.outcome_totals();
        let parallel = report.parallel_stats();
        let scalar = |name: &str| report.metrics.scalar(name).unwrap_or(0);
        layers.counts = [
            report.fngrain.fn_tasks_executed,
            report.fngrain.cutoff_saved,
            report.rebuilt_count() as u64,
            report.query.hits,
            report.query.misses,
            scalar("state.functions"),
            scalar("state.dormant_slots"),
            scalar("cache.hits"),
            scalar("cache.misses"),
            report.executed_cost_units(),
            active as u64,
            dormant as u64,
            skipped as u64,
            parallel.snapshot_clones,
            parallel.snapshot_reused,
            parallel.batch_count,
            parallel.batch_max_cost,
        ];
        layers
    }

    /// Phases summed (ns).
    pub fn phases_ns(&self) -> u64 {
        self.frontend_ns + self.lower_ns + self.middle_ns + self.backend_ns + self.state_ns
    }

    /// Build wall minus phases minus link (ns). Negative when phases of
    /// different modules overlap on a worker pool.
    pub fn unattributed_ns(&self) -> i64 {
        self.wall_ns as i64 - self.phases_ns() as i64 - self.link_ns as i64
    }

    fn count(&self, name: &str) -> u64 {
        let i = COUNTS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        self.counts[i]
    }
}

/// Layer figures of a lane's builds: times over every build, counts over
/// the fixed first window of the history only, so they repeat exactly.
#[derive(Debug, Default)]
pub struct LayerLog {
    timed: Vec<BuildLayers>,
    counted: Vec<BuildLayers>,
}

impl LayerLog {
    /// Records one build; `in_window` marks builds of the counted window.
    pub fn push(&mut self, layers: BuildLayers, in_window: bool) {
        if in_window {
            self.counted.push(layers.clone());
        }
        self.timed.push(layers);
    }

    /// Median `Builder::build` wall time (ms).
    pub fn wall(&self) -> Samples {
        self.times(|l| l.wall_ns as f64)
    }

    fn times(&self, f: impl Fn(&BuildLayers) -> f64) -> Samples {
        let mut s = Samples::default();
        for l in &self.timed {
            s.push(f(l) / 1e6);
        }
        s
    }

    /// Adds the per-layer metrics of these builds to `set`.
    pub fn report(&self, set: &mut MetricSet, jobs: usize) {
        set.median(
            "buildsys.unattributed_ms",
            &self.times(|l| l.unattributed_ns() as f64),
            "ms",
        );
        set.median("frontend.ms", &self.times(|l| l.frontend_ns as f64), "ms");
        set.median("ir.lower_ms", &self.times(|l| l.lower_ns as f64), "ms");
        set.median("passes.ms", &self.times(|l| l.middle_ns as f64), "ms");
        set.median("state.ingest_ms", &self.times(|l| l.state_ns as f64), "ms");
        set.median(
            "backend.codegen_ms",
            &self.times(|l| l.backend_ns as f64),
            "ms",
        );
        set.median("backend.link_ms", &self.times(|l| l.link_ns as f64), "ms");
        for name in COUNTS {
            let values: Vec<u64> = self.counted.iter().map(|l| l.count(name)).collect();
            set.add(name, median_count(&values), "count");
        }
        let hits: u64 = self.counted.iter().map(|l| l.count("query.hits")).sum();
        let misses: u64 = self.counted.iter().map(|l| l.count("query.misses")).sum();
        set.add("query.hit_ratio", ratio(hits, hits + misses), "ratio");
        let slots = |name| self.counted.iter().map(|l| l.count(name)).sum::<u64>();
        let skipped = slots("passes.slots_skipped");
        let all = skipped + slots("passes.slots_active") + slots("passes.slots_dormant");
        set.add("passes.skip_ratio", ratio(skipped, all), "ratio");
        set.add("pool.jobs", jobs as f64, "count");
    }
}

/// Durable operations per edit, medians over the counted window.
pub fn add_faultfs(set: &mut MetricSet, per_edit: &[Vec<u64>; 3]) {
    for (name, values) in ["faultfs.writes", "faultfs.renames", "faultfs.sync_files"]
        .into_iter()
        .zip(per_edit)
    {
        set.add(name, median_count(values), "count");
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_sum_to_build_wall() {
        let layers = BuildLayers {
            wall_ns: 1_000,
            frontend_ns: 100,
            lower_ns: 50,
            middle_ns: 300,
            backend_ns: 80,
            state_ns: 20,
            link_ns: 40,
            ..BuildLayers::default()
        };
        let sum = layers.phases_ns() as i64 + layers.link_ns as i64 + layers.unattributed_ns();
        assert_eq!(sum, 1_000);
    }
}
