//! The pipeline runner, fanned out at function granularity on a shared
//! work-stealing pool when the caller supplies one.
//!
//! [`run_pipeline`] is the only runner. Its output is byte-identical for
//! every pool width — including no pool at all:
//!
//! * Within a stage, passes read callee bodies only from the immutable
//!   pre-stage snapshot, so functions of one stage are mutually
//!   independent and can run in any order — including concurrently.
//! * Stage boundaries are barriers: a stage's tasks all finish before the
//!   next stage (and any re-snapshot) begins.
//! * Per-function [`FunctionTrace`]s are assembled in module definition
//!   order regardless of completion order, so the merged
//!   [`PipelineTrace`] — and everything derived from it (dormancy state,
//!   emitted IR, bytecode images) — does not depend on scheduling.
//!
//! Fan-out is *batched*: each stage's functions are pre-bucketed into
//! cost-balanced batches ([`crate::batch::plan_batches`], largest
//! live-instruction cost first into the least-loaded bin) and one pool task
//! runs per batch, so tiny functions share a task's fixed cost instead of
//! each paying it. Batches are serviced largest-total-cost-first. The plan
//! depends only on costs and roster order — never on the worker count — so
//! batch composition and counters are identical for every `--jobs` value.
//! Without a pool, or with a one-worker pool, the same batches run in plan
//! order on the calling thread ([`sfcc_pool::run_batched`]).
//!
//! Snapshots are copy-on-write: a re-snapshot deep-clones only functions
//! some pass changed since the previous snapshot and reuses the previous
//! `Arc` for the rest. The pipeline-entry snapshot already equals the
//! first stage's input, so a re-snapshot flag on the first stage is a
//! no-op.
//!
//! The oracle must be deterministic (a pure function of each query) for the
//! byte-identity guarantee to extend to recorded outcomes; every oracle in
//! this workspace satisfies that.

use std::sync::Arc;
use std::time::Instant;

use sfcc_ir::{fingerprint, verify_function, Fingerprint, Function, Module, ModuleSnapshot};
use sfcc_pool::{run_batched, PoolScope};

use crate::manager::{
    cow_snapshot, FunctionTrace, PassOutcome, PassQuery, PassRecord, Pipeline, PipelineTrace,
    RunOptions, SkipOracle, Stage,
};

/// Per-function unit of work: the function body being optimized, its
/// accumulated trace, and the copy-on-write dirty bit (set when a pass
/// changes the function, cleared at each re-snapshot). Each task owns
/// exactly one cell for the duration of a stage, so no synchronization is
/// needed on the payload itself.
struct FnCell {
    func: Function,
    trace: FunctionTrace,
    dirty: bool,
}

/// Runs `pipeline` over every function of `module`, consulting `oracle`
/// before each pass execution, and returns the full instrumentation trace.
/// With a `pool`, each stage's batches fan out onto its workers; without
/// one, they run on the calling thread. The result is identical either way
/// (see the module docs for the argument).
///
/// # Panics
///
/// Panics if [`RunOptions::verify_each`] is set and a pass produces invalid
/// IR — that is a compiler bug, not an input error. A panic inside a worker
/// task is propagated to the caller.
pub fn run_pipeline<'env>(
    module: &mut Module,
    pipeline: &'env Pipeline,
    oracle: impl SkipOracle + Send + Sync + 'env,
    options: RunOptions,
    pool: Option<&PoolScope<'env>>,
) -> PipelineTrace {
    let oracle = Arc::new(oracle);
    let stages = pipeline.stages();
    let mut cells: Vec<FnCell> = std::mem::take(&mut module.functions)
        .into_iter()
        .map(|func| FnCell {
            trace: FunctionTrace {
                function: func.name.clone(),
                entry_fingerprint: Fingerprint::default(),
                exit_fingerprint: Fingerprint::default(),
                records: Vec::new(),
            },
            func,
            dirty: false,
        })
        .collect();
    if stages.is_empty() {
        // No stage runs to take the fingerprints; the body is unchanged.
        for cell in &mut cells {
            cell.trace.entry_fingerprint = fingerprint(&cell.func);
            cell.trace.exit_fingerprint = cell.trace.entry_fingerprint;
        }
    }
    let mut snapshot_clones = 0u64;
    let mut snapshot_cost_units = 0u64;
    let mut snapshot_reused = 0u64;
    let mut batch_count = 0u64;
    let mut batch_max_cost = 0u64;
    // Pre-stage snapshot: the inliner (and any other cross-function pass)
    // reads callee bodies from here, never from the cells being mutated.
    let mut snapshot = {
        let funcs: Vec<&Function> = cells.iter().map(|c| &c.func).collect();
        let dirty = vec![false; cells.len()];
        let (snap, cost, reused) = cow_snapshot(&module.name, &funcs, &dirty, None);
        snapshot_clones += 1;
        snapshot_cost_units += cost;
        snapshot_reused += reused;
        Arc::new(snap)
    };

    let last_stage = stages.len().saturating_sub(1);
    let mut slot_base = 0usize;
    for (si, stage) in stages.iter().enumerate() {
        if si > 0 && stage.resnapshot {
            // Rebuild the snapshot from the current (post-previous-stage)
            // function bodies: copy-on-write, so only functions some pass
            // actually changed are deep-cloned — the rest reuse the previous
            // snapshot's `Arc`s.
            let funcs: Vec<&Function> = cells.iter().map(|c| &c.func).collect();
            let dirty: Vec<bool> = cells.iter().map(|c| c.dirty).collect();
            let (snap, cost, reused) = cow_snapshot(&module.name, &funcs, &dirty, Some(&snapshot));
            snapshot = Arc::new(snap);
            snapshot_clones += 1;
            snapshot_cost_units += cost;
            snapshot_reused += reused;
            for cell in &mut cells {
                cell.dirty = false;
            }
        }

        // Cost-balanced batches, largest-total-cost-first; one pool task per
        // batch. The plan depends only on costs and roster order — never the
        // worker count.
        let costs: Vec<u64> = cells
            .iter()
            .map(|c| c.func.live_inst_count() as u64)
            .collect();
        let plan = crate::batch::plan_batches(&costs);
        batch_count += plan.batches.len() as u64;
        batch_max_cost = batch_max_cost.max(plan.max_cost);

        let stage_snapshot = Arc::clone(&snapshot);
        let stage_oracle = Arc::clone(&oracle);
        let first = si == 0;
        let last = si == last_stage;
        cells = run_batched(pool, cells, &plan.batches, move |_, cell| {
            run_stage_on_function(
                cell,
                stage,
                slot_base,
                &stage_snapshot,
                stage_oracle.as_ref(),
                options,
                first,
                last,
            );
        });
        slot_base += stage.passes.len();
    }

    let mut functions = Vec::with_capacity(cells.len());
    let mut traces = Vec::with_capacity(cells.len());
    for cell in cells {
        functions.push(cell.func);
        traces.push(cell.trace);
    }
    module.functions = functions;
    PipelineTrace {
        module: module.name.clone(),
        functions: traces,
        snapshot_clones,
        snapshot_cost_units,
        snapshot_reused,
        batch_count,
        batch_max_cost,
    }
}

/// Runs one stage's passes over one function, recording into its trace.
/// This is the per-task body.
#[allow(clippy::too_many_arguments)]
fn run_stage_on_function(
    cell: &mut FnCell,
    stage: &Stage,
    slot_base: usize,
    snapshot: &ModuleSnapshot,
    oracle: &dyn SkipOracle,
    options: RunOptions,
    first_stage: bool,
    last_stage: bool,
) {
    if first_stage {
        cell.trace.entry_fingerprint = fingerprint(&cell.func);
    }
    for (pass_idx, pass) in stage.passes.iter().enumerate() {
        let slot = slot_base + pass_idx;
        let query = PassQuery {
            module: &snapshot.name,
            function: &cell.trace.function,
            entry_fingerprint: cell.trace.entry_fingerprint,
            pass: pass.name(),
            slot,
        };
        if oracle.should_skip(&query) {
            cell.trace.records.push(PassRecord {
                pass: pass.name().to_string(),
                slot,
                outcome: PassOutcome::Skipped,
                nanos: 0,
                cost_units: cell.func.live_inst_count() as u64,
            });
            continue;
        }
        let cost_units = cell.func.live_inst_count() as u64;
        let start = Instant::now();
        let changed = pass.run(&mut cell.func, snapshot);
        let nanos = start.elapsed().as_nanos() as u64;
        if changed {
            cell.dirty = true;
        }
        if options.verify_each && changed {
            let func = &cell.func;
            verify_function(func)
                .unwrap_or_else(|e| panic!("pass '{}' broke the IR: {e}\n{func}", pass.name()));
        }
        cell.trace.records.push(PassRecord {
            pass: pass.name().to_string(),
            slot,
            outcome: if changed {
                PassOutcome::Active
            } else {
                PassOutcome::Dormant
            },
            nanos,
            cost_units,
        });
    }
    if last_stage {
        cell.trace.exit_fingerprint = fingerprint(&cell.func);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_pipeline, NeverSkip};
    use sfcc_frontend::parse_and_check;
    use sfcc_ir::lower_module;

    /// A deterministic oracle that skips a fixed set of slots, to exercise
    /// the Skipped path in parallel.
    struct SkipSlots(Vec<usize>);

    impl SkipOracle for SkipSlots {
        fn should_skip(&self, q: &PassQuery<'_>) -> bool {
            self.0.contains(&q.slot)
        }
    }

    fn sample_module() -> Module {
        let src = r#"
            fn leaf(x: int) -> int { return x * 2 + 1; }
            fn helper(a: int, b: int) -> int {
                let t: int = leaf(a);
                let u: int = leaf(b);
                return t + u * 3;
            }
            fn looped(n: int) -> int {
                let acc: int = 0;
                for (let i: int = 0; i < n; i = i + 1) {
                    acc = acc + helper(i, n);
                }
                return acc;
            }
            fn deadish(p: int) -> int {
                let unused: int = p * 99;
                let keep: int = p + 4;
                return keep;
            }
            fn main() -> int {
                return looped(10) + deadish(7) + helper(1, 2);
            }
        "#;
        let env = sfcc_frontend::ModuleEnv::new();
        let mut d = sfcc_frontend::Diagnostics::new();
        let checked = parse_and_check("par", src, &env, &mut d).expect("sample module must check");
        lower_module(&checked, &env)
    }

    /// Clears the timing fields, which legitimately differ run to run.
    fn strip_nanos(mut trace: PipelineTrace) -> PipelineTrace {
        for f in &mut trace.functions {
            for r in &mut f.records {
                r.nanos = 0;
            }
        }
        trace
    }

    /// The shipped pipeline, plus one whose first stage asks for a
    /// re-snapshot — a no-op, since the entry snapshot already holds the
    /// first stage's input.
    fn pipelines() -> Vec<Pipeline> {
        let first_stage_resnapshot = Pipeline::new()
            .stage(
                true,
                vec![
                    Box::new(crate::mem2reg::Mem2Reg),
                    Box::new(crate::inline::Inline),
                ],
            )
            .stage(
                true,
                vec![Box::new(crate::inline::Inline), Box::new(crate::dce::Dce)],
            );
        vec![default_pipeline(), first_stage_resnapshot]
    }

    /// Runs every pipeline of [`pipelines`] without a pool and under a
    /// `jobs`-worker pool and asserts identical IR, traces and counters.
    fn assert_matches_sequential(oracle: impl SkipOracle + Send + Sync + 'static, jobs: usize) {
        let options = RunOptions { verify_each: true };
        let oracle = Arc::new(oracle);
        for pipeline in pipelines() {
            let mut seq = sample_module();
            let seq_trace = run_pipeline(&mut seq, &pipeline, Arc::clone(&oracle), options, None);

            let mut par = sample_module();
            let par_trace = sfcc_pool::scope(jobs, |ps| {
                run_pipeline(&mut par, &pipeline, Arc::clone(&oracle), options, Some(ps))
            });

            assert_eq!(seq.to_string(), par.to_string(), "optimized IR diverged");
            assert_eq!(
                strip_nanos(seq_trace),
                strip_nanos(par_trace),
                "traces diverged"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_never_skip() {
        assert_matches_sequential(NeverSkip, 4);
    }

    #[test]
    fn parallel_matches_sequential_with_skips() {
        assert_matches_sequential(SkipSlots(vec![0, 3, 7, 11]), 4);
    }

    #[test]
    fn single_worker_pool_matches_sequential() {
        assert_matches_sequential(NeverSkip, 1);
    }
}
