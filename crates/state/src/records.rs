//! Dormancy records: what the stateful compiler remembers between builds.
//!
//! The paper's central data structure. For every function the compiler
//! keeps, per pipeline *slot* (pass position), whether the pass was active
//! or dormant in the previous build and how many consecutive builds it has
//! been dormant — enough to drive every skip policy in the evaluation.

use sfcc_ir::Fingerprint;
use sfcc_passes::{FunctionTrace, PassOutcome};
use std::collections::HashMap;

/// Per-(function, slot) dormancy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotRecord {
    /// Outcome of the most recent *executed* run of this slot
    /// (`true` = dormant). Skipped slots keep their previous value — a skip
    /// is a bet that the pass is still dormant.
    pub dormant: bool,
    /// Number of consecutive builds (executed or skipped) this slot has been
    /// dormant; reset to zero when the pass fires.
    pub dormant_streak: u32,
    /// Total times this slot was skipped for this function (statistics).
    pub times_skipped: u32,
    /// Sliding window of the last up-to-8 builds' outcomes, newest in bit 0
    /// (`1` = dormant or skipped-as-dormant). Drives the majority policy.
    pub history: u8,
    /// How many builds have contributed to `history` (saturates at 8).
    pub observations: u8,
}

impl SlotRecord {
    /// Number of dormant outcomes among the last `window` observed builds.
    pub fn dormant_in_window(&self, window: u8) -> u32 {
        let n = window.min(self.observations).min(8);
        if n == 0 {
            return 0;
        }
        let mask = if n >= 8 { u8::MAX } else { (1u8 << n) - 1 };
        (self.history & mask).count_ones()
    }

    /// Builds actually observed within `window` (≤ 8).
    pub fn window_len(&self, window: u8) -> u8 {
        window.min(self.observations).min(8)
    }
}

/// What the compiler remembers about one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionRecord {
    /// Structural fingerprint at pipeline entry in the recorded build.
    pub fingerprint: Fingerprint,
    /// Fingerprint after the pipeline (used to detect output changes).
    pub exit_fingerprint: Fingerprint,
    /// One record per pipeline slot.
    pub slots: Vec<SlotRecord>,
    /// Build counter value when this record was last refreshed.
    pub last_build: u64,
}

impl FunctionRecord {
    /// A deterministic stamp of this record's skip-relevant content.
    ///
    /// It excludes `last_build` and any module-wide counter: equal stamps
    /// mean the record would drive identical skip decisions for this one
    /// function. That makes the stamp
    /// stable across no-op rebuilds and independent of the order in which
    /// sibling functions were re-optimized — the property the per-function
    /// `state:module::function` build input relies on.
    pub fn content_stamp(&self) -> u64 {
        let mut repr = format!("{:x}/{:x}", self.fingerprint.0, self.exit_fingerprint.0);
        for slot in &self.slots {
            repr.push_str(&format!(
                "|{}{}s{}h{}o{}",
                slot.dormant as u8,
                slot.dormant_streak,
                slot.times_skipped,
                slot.history,
                slot.observations
            ));
        }
        crate::codec::fnv64(repr.as_bytes())
    }

    /// Whether the slot at `index` is recorded dormant.
    pub fn is_dormant(&self, index: usize) -> bool {
        self.slots.get(index).is_some_and(|s| s.dormant)
    }

    /// The dormant streak of the slot at `index` (0 when unknown).
    pub fn streak(&self, index: usize) -> u32 {
        self.slots.get(index).map_or(0, |s| s.dormant_streak)
    }
}

/// Per-module dormancy state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleState {
    /// Hash of the pipeline's slot names; a mismatch invalidates the state.
    pub pipeline_hash: Fingerprint,
    /// Function name → record. Keyed by *name* so that an edited function
    /// inherits its predecessor's dormancy profile (the paper's transfer
    /// assumption: small edits rarely change which passes matter).
    pub functions: HashMap<String, FunctionRecord>,
    /// Monotonic build counter for this module.
    pub build_counter: u64,
}

/// The complete on-disk state: one entry per module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateDb {
    /// Module name → state.
    pub modules: HashMap<String, ModuleState>,
}

impl StateDb {
    /// Creates an empty database (a cold start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total function records across all modules.
    pub fn function_count(&self) -> usize {
        self.modules.values().map(|m| m.functions.len()).sum()
    }

    /// Read access to a module's state.
    pub fn module(&self, name: &str) -> Option<&ModuleState> {
        self.modules.get(name)
    }

    /// Slots currently believed dormant, across all modules and functions
    /// (telemetry gauge for the metrics registry).
    pub fn dormant_slot_count(&self) -> u64 {
        self.modules
            .values()
            .flat_map(|m| m.functions.values())
            .flat_map(|f| f.slots.iter())
            .filter(|s| s.dormant)
            .count() as u64
    }

    /// Lifetime skip decisions recorded across all slots (telemetry gauge
    /// for the metrics registry).
    pub fn total_recorded_skips(&self) -> u64 {
        self.modules
            .values()
            .flat_map(|m| m.functions.values())
            .flat_map(|f| f.slots.iter())
            .map(|s| u64::from(s.times_skipped))
            .sum()
    }

    /// Hash of a pipeline's slot names, for invalidation.
    pub fn pipeline_hash(slot_names: &[&str]) -> Fingerprint {
        Fingerprint::of_str(&slot_names.join("\u{1f}"))
    }

    /// Folds one build's traces of `module_name`'s functions into the
    /// database — the one method that writes function records.
    ///
    /// * A pipeline-hash mismatch resets the module before ingesting.
    /// * The module's build counter advances once per call, so a driver
    ///   commits each module's traces of one build in a single call.
    /// * Skipped slots extend their dormant streak (the skip presumed
    ///   dormancy) and bump the skip counter.
    /// * Records of functions absent from `traces` are left untouched;
    ///   deleted functions are garbage-collected explicitly with
    ///   [`StateDb::retain_functions`].
    pub fn ingest<'t>(
        &mut self,
        module_name: &str,
        traces: impl IntoIterator<Item = &'t FunctionTrace>,
        pipeline_hash: Fingerprint,
    ) {
        let module = self.modules.entry(module_name.to_string()).or_default();
        if module.pipeline_hash != pipeline_hash {
            module.functions.clear();
            module.pipeline_hash = pipeline_hash;
        }
        module.build_counter += 1;
        let build = module.build_counter;
        for ftrace in traces {
            let fresh = merge(module.functions.get(&ftrace.function), ftrace, build);
            module.functions.insert(ftrace.function.clone(), fresh);
        }
    }

    /// The [`FunctionRecord::content_stamp`] of the record
    /// [`StateDb::ingest`] will write for `ftrace` — what
    /// [`StateDb::function_stamp`] returns once it is committed. Lets a
    /// driver that defers its writes know the stamp ahead of the write.
    pub fn stamp_after(
        &self,
        module_name: &str,
        ftrace: &FunctionTrace,
        pipeline_hash: Fingerprint,
    ) -> u64 {
        let old = self
            .modules
            .get(module_name)
            .filter(|m| m.pipeline_hash == pipeline_hash)
            .and_then(|m| m.functions.get(&ftrace.function));
        // The build counter is not part of the content stamp.
        merge(old, ftrace, 0).content_stamp()
    }

    /// Drops function records of `module_name` whose names fail `keep` —
    /// the garbage-collection companion to [`StateDb::ingest`].
    pub fn retain_functions(&mut self, module_name: &str, mut keep: impl FnMut(&str) -> bool) {
        if let Some(module) = self.modules.get_mut(module_name) {
            module.functions.retain(|name, _| keep(name));
        }
    }

    /// The stamp of one function's record, or `None` when the module or
    /// function has no state yet.
    pub fn function_stamp(&self, module_name: &str, function: &str) -> Option<u64> {
        self.modules
            .get(module_name)?
            .functions
            .get(function)
            .map(FunctionRecord::content_stamp)
    }
}

/// Merges one function's new trace into its previous record.
fn merge(old: Option<&FunctionRecord>, trace: &FunctionTrace, build: u64) -> FunctionRecord {
    let mut slots = Vec::with_capacity(trace.records.len());
    for (i, rec) in trace.records.iter().enumerate() {
        let prev = old
            .and_then(|o| o.slots.get(i))
            .copied()
            .unwrap_or_default();
        let push_history = |dormant_bit: bool| -> (u8, u8) {
            (
                (prev.history << 1) | dormant_bit as u8,
                prev.observations.saturating_add(1).min(8),
            )
        };
        let slot = match rec.outcome {
            PassOutcome::Active => {
                let (history, observations) = push_history(false);
                SlotRecord {
                    dormant: false,
                    dormant_streak: 0,
                    times_skipped: prev.times_skipped,
                    history,
                    observations,
                }
            }
            PassOutcome::Dormant => {
                let (history, observations) = push_history(true);
                SlotRecord {
                    dormant: true,
                    dormant_streak: prev.dormant_streak.saturating_add(1),
                    times_skipped: prev.times_skipped,
                    history,
                    observations,
                }
            }
            // A skip presumes dormancy; record it as such so the window
            // reflects the compiler's acted-upon belief.
            PassOutcome::Skipped => {
                let (history, observations) = push_history(true);
                SlotRecord {
                    dormant: prev.dormant,
                    dormant_streak: prev.dormant_streak.saturating_add(1),
                    times_skipped: prev.times_skipped.saturating_add(1),
                    history,
                    observations,
                }
            }
        };
        slots.push(slot);
    }
    FunctionRecord {
        fingerprint: trace.entry_fingerprint,
        exit_fingerprint: trace.exit_fingerprint,
        slots,
        last_build: build,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_passes::PassRecord;

    fn trace_of(func: &str, outcomes: &[PassOutcome]) -> FunctionTrace {
        FunctionTrace {
            function: func.to_string(),
            entry_fingerprint: Fingerprint(1),
            exit_fingerprint: Fingerprint(2),
            records: outcomes
                .iter()
                .enumerate()
                .map(|(slot, &outcome)| PassRecord {
                    pass: format!("p{slot}"),
                    slot,
                    outcome,
                    nanos: 1,
                    cost_units: 1,
                })
                .collect(),
        }
    }

    /// Ingests one function's trace as a build of its own.
    fn ingest_one(db: &mut StateDb, module: &str, func: &str, outcomes: &[PassOutcome]) {
        db.ingest(module, [&trace_of(func, outcomes)], HASH);
    }

    const HASH: Fingerprint = Fingerprint(99);

    #[test]
    fn ingest_creates_records() {
        let mut db = StateDb::new();
        ingest_one(
            &mut db,
            "m",
            "f",
            &[PassOutcome::Active, PassOutcome::Dormant],
        );
        let rec = &db.module("m").unwrap().functions["f"];
        assert!(!rec.is_dormant(0));
        assert!(rec.is_dormant(1));
        assert_eq!(rec.streak(1), 1);
        assert_eq!(db.function_count(), 1);
    }

    #[test]
    fn streaks_accumulate_and_reset() {
        let mut db = StateDb::new();
        for _ in 0..3 {
            ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        }
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 3);
        ingest_one(&mut db, "m", "f", &[PassOutcome::Active]);
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 0);
    }

    #[test]
    fn skip_extends_streak_and_counts() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        ingest_one(&mut db, "m", "f", &[PassOutcome::Skipped]);
        let rec = &db.module("m").unwrap().functions["f"];
        assert!(rec.is_dormant(0));
        assert_eq!(rec.streak(0), 2);
        assert_eq!(rec.slots[0].times_skipped, 1);
    }

    #[test]
    fn deleted_functions_are_garbage_collected() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        ingest_one(&mut db, "m", "g", &[PassOutcome::Dormant]);
        db.retain_functions("m", |name| name == "g");
        assert!(!db.module("m").unwrap().functions.contains_key("f"));
        assert!(db.module("m").unwrap().functions.contains_key("g"));
    }

    #[test]
    fn pipeline_change_resets_module() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 1);
        db.ingest(
            "m",
            [&trace_of("f", &[PassOutcome::Dormant])],
            Fingerprint(7),
        );
        // Reset: streak restarts at 1, not 2.
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 1);
    }

    #[test]
    fn build_counter_increments() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "m", "f", &[]);
        ingest_one(&mut db, "m", "f", &[]);
        assert_eq!(db.module("m").unwrap().build_counter, 2);
        assert_eq!(db.module("m").unwrap().functions["f"].last_build, 2);
        // One call is one build, however many functions it carries.
        let (f, g) = (trace_of("f", &[]), trace_of("g", &[]));
        db.ingest("m", [&f, &g], HASH);
        let module = db.module("m").unwrap();
        assert_eq!(module.build_counter, 3);
        assert_eq!(module.functions["f"].last_build, 3);
        assert_eq!(module.functions["g"].last_build, 3);
    }

    #[test]
    fn pipeline_hash_distinguishes_orders() {
        let a = StateDb::pipeline_hash(&["x", "y"]);
        let b = StateDb::pipeline_hash(&["y", "x"]);
        let c = StateDb::pipeline_hash(&["x", "y"]);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn ingest_leaves_siblings_alone() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        let before = db.module("m").unwrap().functions["f"].clone();
        ingest_one(&mut db, "m", "g", &[PassOutcome::Active]);
        let module = db.module("m").unwrap();
        assert_eq!(module.functions["f"], before, "sibling survives unchanged");
        assert!(module.functions.contains_key("g"));
    }

    #[test]
    fn ingest_pipeline_mismatch_drops_sibling_records() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        db.ingest(
            "m",
            [&trace_of("g", &[PassOutcome::Dormant])],
            Fingerprint(7),
        );
        let module = db.module("m").unwrap();
        assert!(!module.functions.contains_key("f"), "old pipeline cleared");
        assert_eq!(module.functions["g"].streak(0), 1);
    }

    #[test]
    fn retain_functions_gcs_deleted_names() {
        let mut db = StateDb::new();
        let (f, g) = (
            trace_of("f", &[PassOutcome::Dormant]),
            trace_of("g", &[PassOutcome::Dormant]),
        );
        db.ingest("m", [&f, &g], HASH);
        db.retain_functions("m", |name| name == "g");
        assert!(!db.module("m").unwrap().functions.contains_key("f"));
        assert!(db.module("m").unwrap().functions.contains_key("g"));
    }

    #[test]
    fn function_stamp_ignores_build_counters() {
        let mut a = StateDb::new();
        let mut b = StateDb::new();
        let t = trace_of("f", &[PassOutcome::Dormant]);
        a.ingest("m", [&t], HASH);
        for _ in 0..5 {
            b.ingest("m", [], HASH);
        }
        b.ingest("m", [&t], HASH);
        assert_eq!(
            a.function_stamp("m", "f").unwrap(),
            b.function_stamp("m", "f").unwrap(),
            "stamps must not depend on how many builds have run"
        );
        assert!(a.function_stamp("m", "nope").is_none());
        assert!(a.function_stamp("other", "f").is_none());
    }

    #[test]
    fn function_stamp_tracks_slot_content() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        let before = db.function_stamp("m", "f").unwrap();
        ingest_one(&mut db, "m", "f", &[PassOutcome::Dormant]);
        let after = db.function_stamp("m", "f").unwrap();
        assert_ne!(before, after, "streak growth is skip-relevant content");
    }

    #[test]
    fn stamp_after_matches_the_committed_record() {
        let mut db = StateDb::new();
        let (f, g) = (
            trace_of("f", &[PassOutcome::Dormant, PassOutcome::Active]),
            trace_of("g", &[PassOutcome::Active, PassOutcome::Dormant]),
        );
        db.ingest("m", [&f, &g], HASH);
        let next = trace_of("f", &[PassOutcome::Skipped, PassOutcome::Dormant]);
        for hash in [HASH, Fingerprint(7)] {
            let mut committed = db.clone();
            let predicted = db.stamp_after("m", &next, hash);
            committed.ingest("m", [&next], hash);
            assert_eq!(
                Some(predicted),
                committed.function_stamp("m", "f"),
                "pipeline hash {hash:?}"
            );
        }
        // A mismatched hash predicts a fresh record, not a merged one.
        assert_ne!(
            db.stamp_after("m", &next, HASH),
            db.stamp_after("m", &next, Fingerprint(7))
        );
        // Unknown modules and functions predict a fresh record too.
        let mut fresh = StateDb::new();
        let predicted = fresh.stamp_after("new", &next, HASH);
        fresh.ingest("new", [&next], HASH);
        assert_eq!(Some(predicted), fresh.function_stamp("new", "f"));
    }

    #[test]
    fn modules_are_independent() {
        let mut db = StateDb::new();
        ingest_one(&mut db, "a", "f", &[PassOutcome::Dormant]);
        ingest_one(&mut db, "b", "f", &[PassOutcome::Active]);
        assert!(db.module("a").unwrap().functions["f"].is_dormant(0));
        assert!(!db.module("b").unwrap().functions["f"].is_dormant(0));
    }
}
