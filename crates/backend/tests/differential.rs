//! Differential property testing of the backend against an independent
//! reference evaluator.
//!
//! Random straight-line SSA functions are (1) evaluated directly with a
//! tiny big-step interpreter over the IR, (2) compiled to bytecode and run
//! in the VM, and (3) optimized with the full `-O2` pipeline, recompiled,
//! and run again. All three must agree — including on trap behaviour.

use proptest::prelude::*;
use sfcc_backend::{link_objects, run, VmError, VmOptions};
use sfcc_ir::{
    BinKind, FuncBuilder, Function, IcmpPred, InstId, Module, Op, Terminator, Ty, ValueRef, ENTRY,
};
use sfcc_passes::{default_pipeline, run_pipeline, NeverSkip, RunOptions};
use std::collections::HashMap;

/// Reference semantics for one straight-line function on `args`.
/// Returns `Ok(value)` or `Err(())` on an arithmetic trap.
fn reference_eval(func: &Function, args: &[i64]) -> Result<i64, ()> {
    let mut values: HashMap<InstId, i64> = HashMap::new();
    let read = |v: ValueRef, values: &HashMap<InstId, i64>| -> i64 {
        match v {
            ValueRef::Const(_, c) => c,
            ValueRef::Param(i) => args[i as usize],
            ValueRef::Inst(id) => values[&id],
        }
    };
    for &iid in &func.block(ENTRY).insts {
        let inst = func.inst(iid);
        let result = match &inst.op {
            Op::Bin(kind) => {
                let a = read(inst.args[0], &values);
                let b = read(inst.args[1], &values);
                kind.eval(a, b).ok_or(())?
            }
            Op::Icmp(pred) => {
                let a = read(inst.args[0], &values);
                let b = read(inst.args[1], &values);
                pred.eval(a, b) as i64
            }
            Op::Select => {
                let c = read(inst.args[0], &values);
                if c != 0 {
                    read(inst.args[1], &values)
                } else {
                    read(inst.args[2], &values)
                }
            }
            other => panic!("generator produced unsupported op {other:?}"),
        };
        values.insert(iid, result);
    }
    match &func.block(ENTRY).term {
        Terminator::Ret(Some(v)) => Ok(read(*v, &values)),
        other => panic!("generator produced terminator {other:?}"),
    }
}

/// One generation step of the random function body.
#[derive(Debug, Clone)]
enum Step {
    Bin(BinKind, usize, usize, i64),
    Icmp(IcmpPred, usize, usize),
    Select(usize, usize, usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let bin = prop_oneof![
        Just(BinKind::Add),
        Just(BinKind::Sub),
        Just(BinKind::Mul),
        Just(BinKind::Sdiv),
        Just(BinKind::Srem),
        Just(BinKind::And),
        Just(BinKind::Or),
        Just(BinKind::Xor),
        Just(BinKind::Shl),
        Just(BinKind::Ashr),
    ];
    let pred = prop_oneof![
        Just(IcmpPred::Eq),
        Just(IcmpPred::Ne),
        Just(IcmpPred::Slt),
        Just(IcmpPred::Sle),
        Just(IcmpPred::Sgt),
        Just(IcmpPred::Sge),
    ];
    prop_oneof![
        (bin, any::<usize>(), any::<usize>(), -64i64..64)
            .prop_map(|(k, a, b, c)| Step::Bin(k, a, b, c)),
        (pred, any::<usize>(), any::<usize>()).prop_map(|(p, a, b)| Step::Icmp(p, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(c, a, b)| Step::Select(c, a, b)),
    ]
}

/// Builds a well-typed straight-line function from the step list. Tracks
/// separate pools of i64 and i1 values so every pick is type-correct.
fn build_function(steps: &[Step]) -> Function {
    let mut f = Function::new("main", vec![Ty::I64, Ty::I64], Some(Ty::I64));
    let mut b = FuncBuilder::at_entry(&mut f);
    let mut ints: Vec<ValueRef> = vec![ValueRef::Param(0), ValueRef::Param(1)];
    let mut bools: Vec<ValueRef> = vec![ValueRef::bool(false)];
    for step in steps {
        match step {
            Step::Bin(kind, a, bi, c) => {
                let lhs = ints[a % ints.len()];
                let rhs = if c % 3 == 0 {
                    ValueRef::int(*c)
                } else {
                    ints[bi % ints.len()]
                };
                ints.push(b.bin(*kind, lhs, rhs));
            }
            Step::Icmp(pred, a, bi) => {
                let lhs = ints[a % ints.len()];
                let rhs = ints[bi % ints.len()];
                bools.push(b.icmp(*pred, lhs, rhs));
            }
            Step::Select(c, a, bi) => {
                let cond = bools[c % bools.len()];
                let lhs = ints[a % ints.len()];
                let rhs = ints[bi % ints.len()];
                ints.push(b.select(cond, lhs, rhs));
            }
        }
    }
    let ret = *ints.last().expect("params always present");
    b.ret(Some(ret));
    f
}

fn vm_result(func: Function, args: &[i64]) -> Result<i64, VmError> {
    let mut module = Module::new("main");
    module.add_function(func);
    let program = link_objects(&[sfcc_backend::compile_object(&module).unwrap()]).unwrap();
    run(&program, "main.main", args, VmOptions::default()).map(|o| o.return_value.unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reference evaluator == compiled VM == optimized-then-compiled VM.
    #[test]
    fn three_way_agreement(
        steps in proptest::collection::vec(arb_step(), 1..24),
        x in -1000i64..1000,
        y in prop_oneof![Just(0i64), Just(-1i64), -1000i64..1000],
    ) {
        let func = build_function(&steps);
        sfcc_ir::verify_function(&func).unwrap();
        let args = [x, y];

        let want = reference_eval(&func, &args);
        let got = vm_result(func.clone(), &args);

        // Optimize a whole module containing the function, then run again.
        let mut module = Module::new("main");
        module.add_function(func);
        run_pipeline(
            &mut module,
            &default_pipeline(),
            NeverSkip,
            RunOptions { verify_each: true },
            None,
        );
        let opt_func = module.functions.pop().unwrap();
        let got_opt = vm_result(opt_func, &args);

        match want {
            Ok(v) => {
                prop_assert_eq!(got.clone().unwrap(), v, "unoptimized VM disagrees");
                // The optimizer may legally *remove* a trap (dead or folded
                // division), but a successful reference result must match.
                prop_assert_eq!(got_opt.unwrap(), v, "optimized VM disagrees");
            }
            Err(()) => {
                // Reference traps ⇒ the unoptimized VM must trap too.
                prop_assert_eq!(got.unwrap_err(), VmError::ArithmeticTrap);
                // The optimized build may trap or may have eliminated the
                // trapping instruction as dead — both are allowed; what it
                // must not do is produce a *different* trap kind.
                if let Err(e) = got_opt {
                    prop_assert_eq!(e, VmError::ArithmeticTrap);
                }
            }
        }
    }
}
