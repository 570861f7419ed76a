//! Deterministic data-generation helpers shared by the workloads.
//!
//! Every generator is a pure function of `(seed, partition)` so executors
//! can materialize partitions independently and recomputation after a
//! failure reproduces identical data — the property Spark's lineage-based
//! recovery relies on.

use splitserve_rt::rng::SmallRng;

/// A deterministic RNG for partition `part` of a dataset seeded `seed`.
///
/// Delegates to the runtime's canonical per-task seeding rule
/// ([`splitserve_rt::rng::derive_seed`], the SplitMix64 finalizer over
/// `(seed, part)`), so the stream is identical wherever the task body
/// runs — inline, on a worker thread, or recomputed after a failure.
pub(crate) fn partition_rng(seed: u64, part: usize) -> SmallRng {
    SmallRng::for_stream(seed, part as u64)
}

/// Splits `total` items into `parts` near-equal ranges; returns the
/// half-open range of partition `part`.
pub(crate) fn partition_range(total: u64, parts: usize, part: usize) -> (u64, u64) {
    assert!(part < parts, "partition {part} out of {parts}");
    let parts = parts as u64;
    let part = part as u64;
    let base = total / parts;
    let extra = total % parts;
    let start = part * base + part.min(extra);
    let len = base + u64::from(part < extra);
    (start, start + len)
}

/// A bounded power-law sample in `[1, max]` with tail exponent `alpha` —
/// used for web-graph out-degrees.
pub(crate) fn power_law(rng: &mut SmallRng, alpha: f64, max: u64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    // Inverse CDF of a truncated Pareto starting at 1.
    let x = (1.0 - u * (1.0 - (max as f64).powf(1.0 - alpha))).powf(1.0 / (1.0 - alpha));
    (x as u64).clamp(1, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_rng_is_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| partition_rng(1, 0).gen()).collect();
        assert!(a.iter().all(|x| *x == a[0]), "same (seed, part) same stream");
        let x: u64 = partition_rng(1, 0).gen();
        let y: u64 = partition_rng(1, 1).gen();
        let z: u64 = partition_rng(2, 0).gen();
        assert_ne!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn partition_range_covers_exactly() {
        for total in [0u64, 1, 7, 100, 101] {
            for parts in [1usize, 3, 8] {
                let mut covered = 0;
                let mut next = 0;
                for p in 0..parts {
                    let (s, e) = partition_range(total, parts, p);
                    assert_eq!(s, next, "ranges contiguous");
                    covered += e - s;
                    next = e;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn power_law_bounded_and_skewed() {
        let mut rng = partition_rng(3, 0);
        let samples: Vec<u64> = (0..10_000).map(|_| power_law(&mut rng, 2.2, 100)).collect();
        assert!(samples.iter().all(|d| (1..=100).contains(d)));
        let ones = samples.iter().filter(|d| **d == 1).count();
        let big = samples.iter().filter(|d| **d > 50).count();
        assert!(ones > big * 10, "distribution must be head-heavy");
    }
}
