//! The output oracle: every timed build's program is run on fixed
//! arguments by the VM and compared with the reference interpreter
//! (`sfcc_refinterp`, an AST walker that shares no code with the backend).

use crate::spans::SpanLog;
use sfcc_backend::{run as vm_run, Program, VmError, VmOptions};
use sfcc_buildsys::graph::parse_imports;
use sfcc_buildsys::{DepGraph, Project};
use sfcc_frontend::{parse_and_check, CheckedModule, Diagnostics, ModuleEnv, ModuleInterface};
use sfcc_refinterp::{Machine, RefError, RefOptions};
use std::collections::HashMap;

/// Arguments `main.main` is run on for every check.
pub const ARGS: [i64; 2] = [3, 11];

/// What one run observably did: prints and return value, or a trap kind.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Returned(Vec<i64>, Option<i64>),
    Trapped(&'static str),
}

fn ref_outcome(result: Result<sfcc_refinterp::RefOutput, RefError>) -> Outcome {
    match result {
        Ok(out) => Outcome::Returned(out.prints, out.return_value),
        Err(RefError::ArithmeticTrap) => Outcome::Trapped("arithmetic"),
        Err(RefError::OutOfBounds { .. }) => Outcome::Trapped("bounds"),
        Err(RefError::StackOverflow) => Outcome::Trapped("stack"),
        Err(RefError::OutOfFuel) => Outcome::Trapped("fuel"),
        Err(e) => Outcome::Trapped(if matches!(e, RefError::BadArity) {
            "arity"
        } else {
            "entry"
        }),
    }
}

fn vm_outcome(result: &Result<sfcc_backend::RunOutput, VmError>) -> Outcome {
    match result {
        Ok(out) => Outcome::Returned(out.prints.clone(), out.return_value),
        Err(VmError::ArithmeticTrap) => Outcome::Trapped("arithmetic"),
        Err(VmError::OutOfBounds { .. }) => Outcome::Trapped("bounds"),
        Err(VmError::StackOverflow) => Outcome::Trapped("stack"),
        Err(VmError::OutOfFuel) => Outcome::Trapped("fuel"),
        Err(_) => Outcome::Trapped("vm"),
    }
}

/// The reference front end's checked modules, kept across versions so
/// only modules whose source or imported interfaces changed are checked
/// again.
#[derive(Debug, Default)]
pub struct Reference {
    modules: HashMap<String, Checked>,
}

#[derive(Debug)]
struct Checked {
    source: String,
    imports: Vec<String>,
    interfaces: Vec<ModuleInterface>,
    module: CheckedModule,
}

/// Reference outcomes of one project version on [`ARGS`].
#[derive(Debug)]
pub struct Oracle {
    expected: Vec<Outcome>,
}

impl Oracle {
    /// Type-checks `project` and runs it through the reference interpreter.
    ///
    /// # Errors
    ///
    /// The project does not check (the generator emitted invalid code).
    pub fn of(
        reference: &mut Reference,
        project: &Project,
        spans: &SpanLog,
    ) -> Result<Oracle, String> {
        let imports = project
            .iter()
            .map(|(name, source)| {
                let cached = reference.modules.get(name).filter(|c| c.source == source);
                let imports = match cached {
                    Some(c) => c.imports.clone(),
                    None => parse_imports(name, source),
                };
                (name.to_string(), imports)
            })
            .collect();
        let graph = DepGraph::from_imports(imports).map_err(|e| e.to_string())?;
        let mut env = ModuleEnv::new();
        let mut modules = Vec::new();
        for name in graph.topo_order() {
            let source = project.file(name).ok_or("module vanished")?;
            let interfaces: Vec<ModuleInterface> = graph
                .imports_of(name)
                .iter()
                .filter_map(|i| env.get(i).cloned())
                .collect();
            let fresh = reference
                .modules
                .get(name)
                .is_some_and(|c| c.source == source && c.interfaces == interfaces);
            if !fresh {
                let mut diags = Diagnostics::new();
                let module = parse_and_check(name, source, &env, &mut diags)
                    .ok_or_else(|| format!("reference front end rejects `{name}`"))?;
                reference.modules.insert(
                    name.clone(),
                    Checked {
                        source: source.to_string(),
                        imports: graph.imports_of(name).to_vec(),
                        interfaces,
                        module,
                    },
                );
            }
            let checked = &reference.modules[name].module;
            env.insert(name.clone(), ModuleInterface::of(&checked.ast));
            modules.push(checked.clone());
        }
        reference.modules.retain(|name, _| project.contains(name));
        let machine = Machine::new(modules);
        let expected = ARGS
            .iter()
            .map(|&arg| {
                let _span = spans.enter("refinterp.run");
                ref_outcome(machine.run("main", "main", &[arg], RefOptions::default()))
            })
            .collect();
        Ok(Oracle { expected })
    }

    /// Runs `program` on the VM and compares with the reference. Returns
    /// the executed VM instructions summed over [`ARGS`].
    ///
    /// # Errors
    ///
    /// The first argument on which the VM disagrees with the reference.
    pub fn check(&self, program: &Program, spans: &SpanLog) -> Result<u64, String> {
        let mut steps = 0;
        for (arg, want) in ARGS.iter().zip(&self.expected) {
            let got = {
                let _span = spans.enter("vm.run");
                vm_run(program, "main.main", &[*arg], VmOptions::default())
            };
            if let Ok(out) = &got {
                steps += out.executed;
            }
            let got = vm_outcome(&got);
            if &got != want {
                return Err(format!("main.main({arg}): vm {got:?}, reference {want:?}"));
            }
        }
        Ok(steps)
    }
}
