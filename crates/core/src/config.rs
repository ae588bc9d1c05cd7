//! Compiler session configuration.

use sfcc_faultfs::Durability;
use sfcc_state::SkipPolicy;
use std::path::PathBuf;

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// SSA construction only.
    O0,
    /// Scalar optimizations without inlining or loop transforms.
    O1,
    /// The full default pipeline.
    #[default]
    O2,
}

/// Whether the compiler keeps state across builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The conventional stateless compiler: every pass always runs, nothing
    /// is remembered. This is the paper's baseline.
    Stateless,
    /// The stateful compiler: dormancy is recorded every build and passes
    /// are skipped according to the policy.
    Stateful(SkipPolicy),
}

impl Mode {
    /// The stateful mode at the paper's design point
    /// ([`SkipPolicy::PreviousBuild`]).
    pub fn stateful_default() -> Mode {
        Mode::Stateful(SkipPolicy::PreviousBuild)
    }

    /// Whether this mode records and uses dormancy state.
    pub fn is_stateful(&self) -> bool {
        matches!(self, Mode::Stateful(_))
    }

    /// A short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            Mode::Stateless => "stateless".to_string(),
            Mode::Stateful(p) => format!("stateful/{}", p.label()),
        }
    }
}

/// Configuration of a [`crate::Compiler`] session.
#[derive(Debug, Clone)]
pub struct Config {
    /// Stateless baseline or stateful compilation.
    pub mode: Mode,
    /// Optimization level.
    pub opt_level: OptLevel,
    /// Verify the IR after every pass that reports a change (slow; meant
    /// for tests).
    pub verify_each: bool,
    /// Where to persist the state database; `None` keeps state in memory
    /// only (it still survives across compilations within one session).
    pub state_path: Option<PathBuf>,
    /// Enable the function-level IR cache (the reproduction's extension,
    /// see [`crate::fncache`]): functions whose context fingerprint matches
    /// a previous compilation reuse their optimized IR outright.
    pub function_cache: bool,
    /// How hard durable writes (state, cache, images) try to survive an
    /// OS-level crash. Both modes are crash-consistent; see
    /// [`Durability`].
    pub durability: Durability,
    /// Directory of a shared content-addressed artifact store
    /// (`sfcc-cas`), consulted as a second level below the in-process
    /// function cache. `None` disables the store.
    pub cas_path: Option<PathBuf>,
    /// Size budget (bytes) for the shared store: publishes evict
    /// least-recently-used artifacts until the store fits. `None` never
    /// evicts.
    pub cas_budget: Option<u64>,
    /// Override of the backend format version baked into every store key
    /// (defaults to [`sfcc_cas::DEFAULT_BACKEND_VERSION`]); tests use it
    /// to prove the component is load-bearing.
    pub cas_backend_version: Option<u32>,
}

impl Config {
    /// A stateless `-O2` configuration (the baseline).
    pub fn stateless() -> Self {
        Config {
            mode: Mode::Stateless,
            opt_level: OptLevel::O2,
            verify_each: false,
            state_path: None,
            function_cache: false,
            durability: Durability::Fast,
            cas_path: None,
            cas_budget: None,
            cas_backend_version: None,
        }
    }

    /// A stateful `-O2` configuration at the paper's design point.
    pub fn stateful() -> Self {
        Config {
            mode: Mode::stateful_default(),
            ..Config::stateless()
        }
    }

    /// Sets the optimization level; returns `self` for chaining.
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Sets the skip policy (switching to stateful mode).
    pub fn with_policy(mut self, policy: SkipPolicy) -> Self {
        self.mode = Mode::Stateful(policy);
        self
    }

    /// Enables per-pass IR verification.
    pub fn with_verification(mut self) -> Self {
        self.verify_each = true;
        self
    }

    /// Sets the state-file path.
    pub fn with_state_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.state_path = Some(path.into());
        self
    }

    /// Enables the function-level IR cache.
    pub fn with_function_cache(mut self) -> Self {
        self.function_cache = true;
        self
    }

    /// Sets the durability mode for state/cache/image writes.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Points the session at a shared content-addressed artifact store
    /// directory (also enables the function cache, which fronts it).
    pub fn with_cas_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cas_path = Some(path.into());
        self.function_cache = true;
        self
    }

    /// Sets the shared store's size budget in bytes.
    pub fn with_cas_budget(mut self, budget: u64) -> Self {
        self.cas_budget = Some(budget);
        self
    }

    /// Overrides the backend format version in the store key (test hook).
    pub fn with_cas_backend_version(mut self, version: u32) -> Self {
        self.cas_backend_version = Some(version);
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::stateless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = Config::stateless()
            .with_opt_level(OptLevel::O0)
            .with_policy(SkipPolicy::Consecutive(2))
            .with_verification()
            .with_state_path("/tmp/x")
            .with_function_cache();
        assert_eq!(c.opt_level, OptLevel::O0);
        assert!(c.mode.is_stateful());
        assert!(c.verify_each);
        assert!(c.state_path.is_some());
        assert!(c.function_cache);
    }

    #[test]
    fn labels() {
        assert_eq!(Mode::Stateless.label(), "stateless");
        assert_eq!(Mode::stateful_default().label(), "stateful/prev-build");
    }
}
