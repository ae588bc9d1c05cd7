//! Cross-crate integration tests: front end → driver → backend → VM.

use sfcc::{Compiler, Config, Mode, OptLevel, SkipPolicy};
use sfcc_backend::{link_objects, run, CodeObject, VmOptions};
use sfcc_frontend::ModuleEnv;

fn run_main(object: &CodeObject, args: &[i64]) -> i64 {
    let program = link_objects(std::slice::from_ref(object)).unwrap();
    run(&program, "main.main", args, VmOptions::default())
        .unwrap()
        .return_value
        .unwrap()
}

#[test]
fn whole_program_compiles_and_runs() {
    let src = "
const SCALE: int = 3;
fn tri(n: int) -> int {
    let s: int = 0;
    for (let i: int = 1; i <= n; i = i + 1) { s = s + i; }
    return s;
}
fn main(n: int) -> int { return tri(n) * SCALE; }";
    let mut compiler = Compiler::new(Config::stateless().with_verification());
    let out = compiler.compile("main", src, &ModuleEnv::new()).unwrap();
    assert_eq!(run_main(&out.object, &[4]), 30);
    assert_eq!(run_main(&out.object, &[0]), 0);
}

#[test]
fn o0_and_o2_agree_on_observable_behaviour() {
    let src = "
fn collatz_steps(n: int) -> int {
    let x: int = n;
    let steps: int = 0;
    while (x != 1) {
        if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
        steps = steps + 1;
        print(x);
    }
    return steps;
}
fn main(n: int) -> int { return collatz_steps(n + 1); }";
    let mut o0 = Compiler::new(
        Config::stateless()
            .with_opt_level(OptLevel::O0)
            .with_verification(),
    );
    let mut o2 = Compiler::new(Config::stateless().with_verification());
    let slow = o0.compile("main", src, &ModuleEnv::new()).unwrap();
    let fast = o2.compile("main", src, &ModuleEnv::new()).unwrap();
    for n in [1, 5, 11, 26] {
        let pa = link_objects(std::slice::from_ref(&slow.object)).unwrap();
        let pb = link_objects(std::slice::from_ref(&fast.object)).unwrap();
        let ra = run(&pa, "main.main", &[n], VmOptions::default()).unwrap();
        let rb = run(&pb, "main.main", &[n], VmOptions::default()).unwrap();
        assert_eq!(ra.prints, rb.prints, "n={n}");
        assert_eq!(ra.return_value, rb.return_value, "n={n}");
        assert!(rb.executed <= ra.executed, "O2 should not be slower: n={n}");
    }
}

#[test]
fn every_skip_policy_preserves_behaviour() {
    let v1 = "
fn mix(a: int, b: int) -> int { return (a ^ b) * 3 + (a & b); }
fn main(n: int) -> int {
    let acc: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { acc = acc + mix(i, n); }
    return acc;
}";
    let v2 = v1.replace("* 3", "* 5");
    let env = ModuleEnv::new();

    let mut reference = Compiler::new(Config::stateless().with_verification());
    let want = reference.compile("main", &v2, &env).unwrap();

    for policy in [
        SkipPolicy::PreviousBuild,
        SkipPolicy::Consecutive(2),
        SkipPolicy::AlwaysSkipKnown,
    ] {
        let mut c = Compiler::new(Config::stateless().with_policy(policy).with_verification());
        c.compile("main", v1, &env).unwrap();
        c.compile("main", v1, &env).unwrap(); // build streaks
        let got = c.compile("main", &v2, &env).unwrap();
        for n in [0, 3, 9] {
            assert_eq!(
                run_main(&got.object, &[n]),
                run_main(&want.object, &[n]),
                "policy {policy:?}, n={n}"
            );
        }
    }
}

#[test]
fn mode_reporting_is_accurate() {
    let c = Compiler::new(Config::stateful());
    assert!(c.config().mode.is_stateful());
    assert_eq!(c.config().mode, Mode::Stateful(SkipPolicy::PreviousBuild));
    let c = Compiler::new(Config::stateless());
    assert!(!c.config().mode.is_stateful());
}

#[test]
fn skipping_never_fires_for_changed_signatures() {
    // Renaming a function breaks the name-keyed record chain: the renamed
    // function is "new" and must run everything.
    let v1 =
        "fn helper(x: int) -> int { return x + 1; }\nfn main(n: int) -> int { return helper(n); }";
    let v2 =
        "fn assist(x: int) -> int { return x + 1; }\nfn main(n: int) -> int { return assist(n); }";
    let env = ModuleEnv::new();
    let mut c = Compiler::new(Config::stateful().with_verification());
    c.compile("main", v1, &env).unwrap();
    let out = c.compile("main", v2, &env).unwrap();
    // `main` changed (callee name) and may skip; `assist` is new and may not.
    let assist = out
        .trace
        .functions
        .iter()
        .find(|f| f.function == "assist")
        .unwrap();
    assert_eq!(
        assist.count(sfcc_passes::PassOutcome::Skipped),
        0,
        "new function must not inherit skips"
    );
}

#[test]
fn deep_recursion_is_contained() {
    let src = "
fn down(n: int) -> int {
    if (n <= 0) { return 0; }
    return down(n - 1) + 1;
}
fn main(n: int) -> int { return down(n); }";
    let mut c = Compiler::new(Config::stateless().with_verification());
    let out = c.compile("main", src, &ModuleEnv::new()).unwrap();
    let program = link_objects(std::slice::from_ref(&out.object)).unwrap();
    // Within limits it works…
    let ok = run(&program, "main.main", &[100], VmOptions::default()).unwrap();
    assert_eq!(ok.return_value, Some(100));
    // …and beyond the depth limit it fails cleanly instead of crashing.
    let err = run(&program, "main.main", &[100_000], VmOptions::default()).unwrap_err();
    assert!(matches!(err, sfcc_backend::VmError::StackOverflow));
}
