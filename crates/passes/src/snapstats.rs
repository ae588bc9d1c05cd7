//! Process-global counters for per-stage module-snapshot building.
//!
//! Both pipeline runners snapshot the module being optimized — once at
//! pipeline entry and once more at every re-snapshot stage boundary — so
//! that cross-function passes (the inliner) read callee bodies race-free.
//! Snapshots are copy-on-write ([`sfcc_ir::ModuleSnapshot`]): only
//! functions that changed since the previous snapshot are deep-cloned, the
//! rest reuse the previous snapshot's `Arc`s. These counters make both
//! sides of that trade measurable: what was actually cloned (`clones`,
//! `cost_units`, `wall_ns`) and what the copy-on-write rule saved
//! (`reused`).
//!
//! `clones`, `cost_units`, and `reused` are deterministic and identical
//! across `--jobs` values — the runner snapshots at exactly the same
//! points with identical dirty sets for every pool width — so they are safe to
//! surface in byte-stable traces. `wall_ns` is wall-clock and belongs only
//! in the (jobs-variant) metrics registry.
//!
//! The counters are process-global and monotonic: a consumer reporting on
//! *one* build (or one sweep point) must capture [`snapshot_stats`] at the
//! start and report [`SnapshotStats::delta_since`] that capture — reading
//! the absolute totals conflates every build the process has run.

use std::sync::atomic::{AtomicU64, Ordering};

static CLONES: AtomicU64 = AtomicU64::new(0);
static COST_UNITS: AtomicU64 = AtomicU64::new(0);
static REUSED: AtomicU64 = AtomicU64::new(0);
static WALL_NS: AtomicU64 = AtomicU64::new(0);

/// Cumulative snapshot counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Number of module snapshots taken.
    pub clones: u64,
    /// Σ live instruction count over every function actually deep-cloned
    /// into a snapshot (deterministic cost proxy, jobs-invariant).
    pub cost_units: u64,
    /// Functions whose previous snapshot `Arc` was reused instead of
    /// cloned — the copy-on-write savings (deterministic, jobs-invariant).
    pub reused: u64,
    /// Wall time spent building snapshots, in nanoseconds (jobs-variant).
    pub wall_ns: u64,
}

impl SnapshotStats {
    /// Counter deltas accumulated since `earlier` was captured. This is the
    /// only sound way to attribute the process-global counters to one build
    /// when several run back to back in one process.
    pub fn delta_since(&self, earlier: &SnapshotStats) -> SnapshotStats {
        SnapshotStats {
            clones: self.clones.wrapping_sub(earlier.clones),
            cost_units: self.cost_units.wrapping_sub(earlier.cost_units),
            reused: self.reused.wrapping_sub(earlier.reused),
            wall_ns: self.wall_ns.wrapping_sub(earlier.wall_ns),
        }
    }
}

/// Reads the process-global snapshot counters.
pub fn snapshot_stats() -> SnapshotStats {
    SnapshotStats {
        clones: CLONES.load(Ordering::Relaxed),
        cost_units: COST_UNITS.load(Ordering::Relaxed),
        reused: REUSED.load(Ordering::Relaxed),
        wall_ns: WALL_NS.load(Ordering::Relaxed),
    }
}

/// Records one module snapshot that deep-cloned `cost_units` total live
/// instructions, reused `reused` unchanged functions, and took `wall_ns` to
/// build. Called by the pipeline runners.
pub(crate) fn record_snapshot(cost_units: u64, reused: u64, wall_ns: u64) {
    CLONES.fetch_add(1, Ordering::Relaxed);
    COST_UNITS.fetch_add(cost_units, Ordering::Relaxed);
    REUSED.fetch_add(reused, Ordering::Relaxed);
    WALL_NS.fetch_add(wall_ns, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_delta_subtracts() {
        let before = snapshot_stats();
        record_snapshot(10, 3, 100);
        record_snapshot(5, 1, 50);
        let delta = snapshot_stats().delta_since(&before);
        // Other tests in the process may also record; lower bounds only.
        assert!(delta.clones >= 2);
        assert!(delta.cost_units >= 15);
        assert!(delta.reused >= 4);
        assert!(delta.wall_ns >= 150);
    }

    #[test]
    fn delta_isolates_back_to_back_consumers() {
        // Two consumers bracketing their own work see only their own
        // recordings, even though the counters are process-global. A
        // sentinel far above any realistic pipeline cost distinguishes
        // "inherited the previous bracket's totals" (the bug this guards
        // against) from concurrent recordings by other tests.
        const SENTINEL: u64 = 1_000_000_007;
        let first_before = snapshot_stats();
        record_snapshot(SENTINEL, 2, 10);
        let first = snapshot_stats().delta_since(&first_before);
        assert!(first.clones >= 1 && first.cost_units >= SENTINEL && first.reused >= 2);

        let second_before = snapshot_stats();
        let second = snapshot_stats().delta_since(&second_before);
        assert!(
            second.cost_units < SENTINEL,
            "a fresh bracket must not inherit earlier recordings: {second:?}"
        );
    }
}
