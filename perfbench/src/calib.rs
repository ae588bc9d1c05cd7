//! Host-speed normalization of timings.
//!
//! On a shared host the speed of the same code drifts by a quarter within
//! minutes (neighbours on sibling hardware threads), so raw medians of
//! separate runs differ by more than any useful bound. Each timed sample is
//! therefore paired with a fixed reference kernel, owned by the benchmark
//! and timed just before the sample: the sample is scaled by
//! [`NOMINAL_MS`] over the kernel's time and so reads as milliseconds on a
//! host where the kernel takes [`NOMINAL_MS`]. Program changes move the
//! scaled figure exactly as they move the raw one, because the kernel never
//! runs program code. Raw medians are printed next to the scaled ones.

use crate::stats::{MetricSet, Samples};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Instant;

/// The kernel's wall time on an undisturbed 2-vCPU Xeon VM, in ms.
pub const NOMINAL_MS: f64 = 1.0;

/// Runs the reference kernel twice; returns the faster wall time in ms.
/// The first run also brings its data back into cache after whatever ran
/// before, so the figure follows the host's speed, not the last build's
/// footprint.
pub fn kernel_ms() -> f64 {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        (0..2)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(k.run());
                start.elapsed().as_nanos() as f64 / 1e6
            })
            .fold(f64::INFINITY, f64::min)
    })
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// String hashing, table probing and sorting over data allocated once, so
/// no run depends on the allocator's state: the kind of work a build does,
/// at a fixed size.
struct Kernel {
    keys: Vec<String>,
    table: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>,
    order: Vec<usize>,
}

/// Distinct keys the kernel hashes and sorts.
const KEYS: usize = 8000;

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            keys: (0..KEYS as u64)
                .map(|i| format!("task:{}:{}", i % 97, (i * 2_654_435_761) % 40_009))
                .collect(),
            table: HashMap::with_capacity_and_hasher(KEYS, BuildHasherDefault::default()),
            order: Vec::with_capacity(KEYS),
        }
    }

    fn run(&mut self) -> u64 {
        self.table.clear();
        for (i, key) in self.keys.iter().enumerate() {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            *self.table.entry(h.finish()).or_insert(i) ^= i;
        }
        self.order.clear();
        self.order.extend(0..KEYS);
        let keys = &self.keys;
        self.order.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]));
        self.order
            .iter()
            .zip(self.table.values())
            .fold(0u64, |acc, (&i, &v)| {
                acc.wrapping_mul(31).wrapping_add((i ^ v) as u64)
            })
    }
}

/// Samples of one timing, raw and scaled to the nominal host speed.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// As measured, ms (or s).
    pub raw: Samples,
    /// Scaled by [`NOMINAL_MS`] over the paired kernel time.
    pub scaled: Samples,
}

impl Timed {
    /// Adds a sample measured right after a kernel run of `kernel_ms`.
    pub fn push(&mut self, value: f64, kernel_ms: f64) {
        self.raw.push(value);
        self.scaled.push(value * NOMINAL_MS / kernel_ms);
    }

    /// Adds the scaled median to `metrics` as `name`, and the raw median
    /// to `printed` as `raw.<name>`.
    pub fn report(
        &self,
        metrics: &mut MetricSet,
        printed: &mut MetricSet,
        name: &str,
        unit: &'static str,
    ) {
        metrics.median(name, &self.scaled, unit);
        printed.median(&format!("raw.{name}"), &self.raw, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_proportional() {
        let mut k = Kernel::new();
        assert_eq!(k.run(), k.run());
        let mut t = Timed::default();
        t.push(10.0, NOMINAL_MS * 2.0);
        assert_eq!(t.scaled.median(), Some(5.0));
        assert_eq!(t.raw.median(), Some(10.0));
    }
}
