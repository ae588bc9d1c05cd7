//! # sfcc-backend
//!
//! The code-generation backend of the `sfcc` stateful compiler: lowering
//! SSA IR to register-machine bytecode (with out-of-SSA phi elimination),
//! a two-phase linker, and a bounds-checked virtual machine used by the
//! evaluation to run compiled programs and measure dynamic instruction
//! counts.
//!
//! # Examples
//!
//! ```
//! use sfcc_backend::{link, run, VmOptions};
//!
//! let f = sfcc_ir::parse_function(r"
//! fn @main(i64) -> i64 {
//! bb0:
//!   v0 = mul i64 p0, p0
//!   call @print(v0)
//!   ret v0
//! }
//! ").unwrap();
//! let mut module = sfcc_ir::Module::new("main");
//! module.add_function(f);
//!
//! let program = link(&[module])?;
//! let out = run(&program, "main.main", &[7], VmOptions::default())?;
//! assert_eq!(out.return_value, Some(49));
//! assert_eq!(out.prints, vec![49]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bytecode;
pub mod codegen;
pub mod disasm;
pub mod image;
pub mod link;
pub mod object;
pub mod vm;

pub use bytecode::{Bc, CodeBlob, FuncId, Program, Src};
pub use codegen::{compile_function, CallResolver, CodegenError};
pub use disasm::{disasm_blob, disasm_program};
pub use image::{load as load_image, save as save_image, IMAGE_VERSION};
pub use link::{link, LinkError};
pub use object::{compile_object, link_objects, CodeObject};
pub use vm::{run, RunOutput, VmError, VmOptions, DEFAULT_FUEL, DEFAULT_MAX_DEPTH};

#[cfg(test)]
mod end_to_end {
    use super::*;
    use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv};
    use sfcc_passes::{default_pipeline, minimal_pipeline, run_pipeline, NeverSkip};

    /// Compiles MiniC source (single module `main`) at the given
    /// optimization level and runs it.
    fn compile_and_run(src: &str, optimize: bool, args: &[i64]) -> RunOutput {
        let mut d = Diagnostics::new();
        let checked = parse_and_check("main", src, &ModuleEnv::new(), &mut d)
            .unwrap_or_else(|| panic!("frontend errors: {d:?}"));
        let mut module = sfcc_ir::lower_module(&checked, &ModuleEnv::new());
        let pipeline = if optimize {
            default_pipeline()
        } else {
            minimal_pipeline()
        };
        run_pipeline(
            &mut module,
            &pipeline,
            NeverSkip,
            sfcc_passes::RunOptions { verify_each: true },
            None,
        );
        let program = link(&[module]).unwrap();
        run(&program, "main.main", args, VmOptions::default())
            .unwrap_or_else(|e| panic!("vm error: {e}"))
    }

    /// Checks that -O0 and -O2 produce identical observable behaviour, and
    /// returns (unopt_cost, opt_cost).
    fn check_equivalence(src: &str, args: &[i64]) -> (u64, u64) {
        let slow = compile_and_run(src, false, args);
        let fast = compile_and_run(src, true, args);
        assert_eq!(slow.prints, fast.prints, "print mismatch for {src}");
        assert_eq!(
            slow.return_value, fast.return_value,
            "return mismatch for {src}"
        );
        (slow.executed, fast.executed)
    }

    #[test]
    fn fib_runs_correctly() {
        let out = compile_and_run(
            "fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\nfn main(n: int) -> int { return fib(n); }",
            true,
            &[12],
        );
        assert_eq!(out.return_value, Some(144));
    }

    #[test]
    fn optimization_preserves_behaviour_on_loops() {
        // The loop recomputes `n * n + n / 3` every iteration: LICM + GVN
        // hoist it, so the optimized build must execute fewer instructions.
        let (slow, fast) = check_equivalence(
            "fn main(n: int) -> int {
                let s: int = 0;
                for (let i: int = 0; i < n; i = i + 1) {
                    let k: int = n * n + n;
                    let k2: int = n * n + n;
                    s = s + i * k + k2;
                    print(s);
                }
                return s;
            }",
            &[15],
        );
        assert!(fast < slow, "optimized should be cheaper: {fast} vs {slow}");
    }

    #[test]
    fn optimization_preserves_behaviour_on_arrays() {
        check_equivalence(
            "fn main(n: int) -> int {
                let a: [int; 32];
                for (let i: int = 0; i < 32; i = i + 1) { a[i] = i * i; }
                let s: int = 0;
                for (let i: int = 0; i < 32; i = i + 1) {
                    if (a[i] % 2 == 0) { s = s + a[i]; }
                }
                print(s);
                return s + n;
            }",
            &[5],
        );
    }

    #[test]
    fn optimization_preserves_short_circuit_effects() {
        check_equivalence(
            "fn noisy(x: int) -> bool { print(x); return x > 0; }
             fn main(n: int) -> int {
                if (n > 3 && noisy(n)) { return 1; }
                if (n > 100 || noisy(n + 7)) { return 2; }
                return 3;
             }",
            &[4],
        );
    }

    #[test]
    fn optimization_preserves_division_guard() {
        check_equivalence(
            "fn main(n: int) -> int {
                let s: int = 0;
                for (let i: int = 1; i < n; i = i + 1) {
                    s = s + 1000 / i;
                }
                return s;
            }",
            &[20],
        );
    }

    #[test]
    fn cross_function_behaviour_stable() {
        check_equivalence(
            "fn weight(v: int) -> int { if (v < 0) { return -v; } return v; }
             fn scale(v: int, k: int) -> int { return weight(v) * k; }
             fn main(n: int) -> int {
                let acc: int = 0;
                for (let i: int = -n; i < n; i = i + 2) {
                    acc = acc + scale(i, 3);
                }
                print(acc);
                return acc;
             }",
            &[9],
        );
    }

    #[test]
    fn unrolled_loops_behave_identically() {
        check_equivalence(
            "fn main(n: int) -> int {
                let s: int = 0;
                for (let i: int = 0; i < 6; i = i + 1) { s = s + i * n; }
                return s;
            }",
            &[7],
        );
    }

    #[test]
    fn booleans_survive_pipeline() {
        check_equivalence(
            "fn main(n: int) -> int {
                let flags: [bool; 10];
                for (let i: int = 0; i < 10; i = i + 1) { flags[i] = i % 3 == 0; }
                let c: int = 0;
                for (let i: int = 0; i < 10; i = i + 1) {
                    if (flags[i]) { c = c + 1; }
                }
                return c * n;
            }",
            &[2],
        );
    }
}
