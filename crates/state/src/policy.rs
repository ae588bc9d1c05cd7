//! Skip policies: how dormancy history turns into skip decisions.
//!
//! [`DbOracle`] implements the pass manager's [`SkipOracle`] against a
//! [`StateDb`], under a configurable [`SkipPolicy`]. The paper's design
//! point is [`SkipPolicy::PreviousBuild`]; the others exist for the
//! ablation study (experiment E10).

use crate::records::StateDb;
use sfcc_passes::{PassQuery, SkipOracle};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which dormant passes may be skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkipPolicy {
    /// Never skip — the stateless baseline.
    Never,
    /// Skip a pass that was dormant in the previous build (the paper's
    /// design point).
    PreviousBuild,
    /// Skip a pass only after it has been dormant `k` builds in a row —
    /// a more conservative bet.
    Consecutive(u32),
    /// Skip a pass that was dormant in a strict majority of the last
    /// `window` observed builds (window capped at 8) — tolerant of one-off
    /// activity, unlike the streak policies.
    MajorityDormant(u8),
    /// Skip every pass with *any* record (upper bound on time savings; used
    /// only to bound the ablation, not a correct design).
    AlwaysSkipKnown,
}

impl SkipPolicy {
    /// A short stable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            SkipPolicy::Never => "never".to_string(),
            SkipPolicy::PreviousBuild => "prev-build".to_string(),
            SkipPolicy::Consecutive(k) => format!("consec-{k}"),
            SkipPolicy::MajorityDormant(w) => format!("majority-{w}"),
            SkipPolicy::AlwaysSkipKnown => "always".to_string(),
        }
    }
}

/// A [`SkipOracle`] backed by a [`StateDb`].
///
/// Holds the database by reference for the duration of one compilation; the
/// driver ingests the resulting trace afterwards.
#[derive(Debug)]
pub struct DbOracle<'a> {
    db: &'a StateDb,
    policy: SkipPolicy,
    /// Pipeline slots that must never be skipped (e.g. passes later passes
    /// structurally depend on — `mem2reg` feeds everything).
    protected: HashSet<usize>,
    skips: AtomicU64,
    queries: AtomicU64,
}

impl<'a> DbOracle<'a> {
    /// Creates an oracle over `db` with `policy` and no protected slots.
    pub fn new(db: &'a StateDb, policy: SkipPolicy) -> Self {
        DbOracle {
            db,
            policy,
            protected: HashSet::new(),
            skips: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    /// Marks pipeline slots that must always execute.
    pub fn with_protected(mut self, slots: impl IntoIterator<Item = usize>) -> Self {
        self.protected = slots.into_iter().collect();
        self
    }

    /// `(queries, skips)` counters accumulated so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.skips.load(Ordering::Relaxed),
        )
    }
}

impl<'a> SkipOracle for DbOracle<'a> {
    fn should_skip(&self, query: &PassQuery<'_>) -> bool {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if self.policy == SkipPolicy::Never || self.protected.contains(&query.slot) {
            return false;
        }
        let Some(module) = self.db.module(query.module) else {
            return false;
        };
        let Some(record) = module.functions.get(query.function) else {
            return false;
        };
        if query.slot >= record.slots.len() {
            return false; // pipeline grew; unknown slot must run
        }
        let skip = match self.policy {
            SkipPolicy::Never => false,
            SkipPolicy::PreviousBuild => record.is_dormant(query.slot),
            SkipPolicy::Consecutive(k) => {
                record.is_dormant(query.slot) && record.streak(query.slot) >= k
            }
            SkipPolicy::MajorityDormant(window) => {
                let slot = record.slots[query.slot];
                let n = slot.window_len(window);
                n > 0 && slot.dormant_in_window(window) * 2 > n as u32
            }
            SkipPolicy::AlwaysSkipKnown => true,
        };
        if skip {
            self.skips.fetch_add(1, Ordering::Relaxed);
        }
        skip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::Fingerprint;
    use sfcc_passes::{FunctionTrace, PassOutcome, PassRecord};

    fn db_with(outcome_rounds: &[&[PassOutcome]]) -> StateDb {
        let mut db = StateDb::new();
        for outcomes in outcome_rounds {
            let trace = FunctionTrace {
                function: "f".into(),
                entry_fingerprint: Fingerprint(1),
                exit_fingerprint: Fingerprint(1),
                records: outcomes
                    .iter()
                    .enumerate()
                    .map(|(slot, &outcome)| PassRecord {
                        pass: format!("p{slot}"),
                        slot,
                        outcome,
                        nanos: 0,
                        cost_units: 0,
                    })
                    .collect(),
            };
            db.ingest("m", [&trace], Fingerprint(9));
        }
        db
    }

    fn query<'a>(slot: usize) -> PassQuery<'a> {
        PassQuery {
            module: "m",
            function: "f",
            entry_fingerprint: Fingerprint(1),
            pass: "p",
            slot,
        }
    }

    #[test]
    fn never_policy_never_skips() {
        let db = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&db, SkipPolicy::Never);
        assert!(!oracle.should_skip(&query(0)));
        assert_eq!(oracle.stats(), (1, 0));
    }

    #[test]
    fn previous_build_skips_dormant_only() {
        let db = db_with(&[&[PassOutcome::Dormant, PassOutcome::Active]]);
        let oracle = DbOracle::new(&db, SkipPolicy::PreviousBuild);
        assert!(oracle.should_skip(&query(0)));
        assert!(!oracle.should_skip(&query(1)));
        assert_eq!(oracle.stats(), (2, 1));
    }

    #[test]
    fn consecutive_policy_requires_streak() {
        let one = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&one, SkipPolicy::Consecutive(2));
        assert!(!oracle.should_skip(&query(0)));

        let two = db_with(&[&[PassOutcome::Dormant], &[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&two, SkipPolicy::Consecutive(2));
        assert!(oracle.should_skip(&query(0)));
    }

    #[test]
    fn unknown_function_never_skips() {
        let db = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&db, SkipPolicy::PreviousBuild);
        let q = PassQuery {
            module: "m",
            function: "brand_new",
            entry_fingerprint: Fingerprint(5),
            pass: "p",
            slot: 0,
        };
        assert!(!oracle.should_skip(&q));
    }

    #[test]
    fn unknown_slot_never_skips() {
        let db = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&db, SkipPolicy::PreviousBuild);
        assert!(!oracle.should_skip(&query(5)));
    }

    #[test]
    fn protected_slots_always_run() {
        let db = db_with(&[&[PassOutcome::Dormant, PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&db, SkipPolicy::PreviousBuild).with_protected([0]);
        assert!(!oracle.should_skip(&query(0)));
        assert!(oracle.should_skip(&query(1)));
    }

    #[test]
    fn always_policy_skips_known_functions() {
        let db = db_with(&[&[PassOutcome::Active]]);
        let oracle = DbOracle::new(&db, SkipPolicy::AlwaysSkipKnown);
        assert!(oracle.should_skip(&query(0)));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SkipPolicy::Never.label(), "never");
        assert_eq!(SkipPolicy::PreviousBuild.label(), "prev-build");
        assert_eq!(SkipPolicy::Consecutive(3).label(), "consec-3");
        assert_eq!(SkipPolicy::MajorityDormant(4).label(), "majority-4");
        assert_eq!(SkipPolicy::AlwaysSkipKnown.label(), "always");
    }

    #[test]
    fn majority_policy_tolerates_one_off_activity() {
        // D D A D: 3 of 4 dormant — majority-4 skips, prev-build also skips
        // (last was dormant), but consec-2 does not (streak reset by A).
        let db = db_with(&[
            &[PassOutcome::Dormant],
            &[PassOutcome::Dormant],
            &[PassOutcome::Active],
            &[PassOutcome::Dormant],
        ]);
        assert!(DbOracle::new(&db, SkipPolicy::MajorityDormant(4)).should_skip(&query(0)));
        assert!(!DbOracle::new(&db, SkipPolicy::Consecutive(2)).should_skip(&query(0)));
    }

    #[test]
    fn majority_policy_resists_mostly_active_slots() {
        // A A D: 1 of 3 dormant — last outcome dormant, so prev-build would
        // skip, but majority-4 (3 observed) does not.
        let db = db_with(&[
            &[PassOutcome::Active],
            &[PassOutcome::Active],
            &[PassOutcome::Dormant],
        ]);
        assert!(!DbOracle::new(&db, SkipPolicy::MajorityDormant(4)).should_skip(&query(0)));
        assert!(DbOracle::new(&db, SkipPolicy::PreviousBuild).should_skip(&query(0)));
    }

    #[test]
    fn majority_policy_with_no_observations_never_skips() {
        let db = StateDb::new();
        let oracle = DbOracle::new(&db, SkipPolicy::MajorityDormant(4));
        assert!(!oracle.should_skip(&query(0)));
    }
}
