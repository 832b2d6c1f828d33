//! Machine-speed reference. On a shared host the CPU's speed drifts by
//! tens of percent within a minute, and every piece of code slows down
//! together. The benchmark therefore times a fixed kernel of its own next
//! to every slot and scales each host time by the speed measured around
//! it: `scaled = host × NOMINAL_NS / reference`. The kernel is benchmark
//! code, identical on every commit, so a slower program still reads
//! slower; only the host's drift cancels. Unscaled times go to the
//! report on standard error.

use std::time::Instant;

/// Elements sorted per round of the reference kernel: 2 KiB, so the
/// kernel runs from the L1 cache and its time does not depend on what
/// the program left in the larger caches.
const REF_LEN: usize = 256;
/// Sorting rounds per reference run (about 0.4 ms in all).
const REF_ROUNDS: usize = 100;

/// Scaled times read as host times on a machine where one reference run
/// takes exactly this long, nanoseconds.
pub const NOMINAL_NS: f64 = 450_000.0;

/// Samples either side of a slot that its speed estimate pools.
const WINDOW: usize = 1;

/// Runs the reference kernel once; returns its host time in nanoseconds.
pub fn reference_ns() -> u64 {
    let start = Instant::now();
    let mut v = [0u64; REF_LEN];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..REF_ROUNDS {
        for slot in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        std::hint::black_box(&mut v).sort_unstable();
        acc = acc.wrapping_add(v[REF_LEN / 2]);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// Scale factor for the machine's speed right now, from the median of
/// three reference runs.
pub fn current_factor() -> f64 {
    let s = Speed {
        samples: (0..3).map(|_| reference_ns()).collect(),
    };
    s.factor()
}

/// Reference samples taken along one pass: sample `i` was taken just
/// before slot `i`, the last one after the final slot.
#[derive(Debug, Default, Clone)]
pub struct Speed {
    /// Reference host times, nanoseconds.
    pub samples: Vec<u64>,
}

impl Speed {
    /// Takes one sample.
    pub fn sample(&mut self) {
        self.samples.push(reference_ns());
    }

    /// Host nanoseconds spent in the reference kernel.
    pub fn spent_ns(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Scale factor for slot `i`: nominal over the median of the samples
    /// taken just before and just after the slot, widened by [`WINDOW`]
    /// on each side.
    pub fn factor_at(&self, i: usize) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 1.0;
        }
        let lo = i.saturating_sub(WINDOW).min(n - 1);
        let hi = (i + 1 + WINDOW).min(n - 1);
        let window: Vec<f64> = self.samples[lo..=hi].iter().map(|&s| s as f64).collect();
        NOMINAL_NS / crate::stats::median(&window).expect("non-empty window")
    }

    /// Scale factor for a whole pass: nominal over the median sample.
    pub fn factor(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&s| s as f64).collect();
        crate::stats::median(&all).map_or(1.0, |m| NOMINAL_NS / m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_pools_the_samples_around_a_slot() {
        let nominal = NOMINAL_NS as u64;
        let s = Speed {
            samples: vec![nominal, 2 * nominal, 2 * nominal, nominal, nominal],
        };
        assert_eq!(s.factor_at(0), 0.5);
        assert_eq!(s.factor_at(1), 1.0 / 1.5);
        assert_eq!(s.factor_at(3), 1.0);
        assert_eq!(s.factor_at(9), 1.0);
        assert_eq!(s.factor(), 1.0);
        assert_eq!(Speed::default().factor_at(3), 1.0);
    }

    #[test]
    fn reference_kernel_takes_measurable_time() {
        assert!(reference_ns() > 0);
    }
}
