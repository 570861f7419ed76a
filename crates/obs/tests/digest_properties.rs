//! Property tests for the streaming quantile digest: the three claims the
//! telemetry plane leans on.
//!
//! 1. **Merge is commutative and associative** — byte-identical canonical
//!    state regardless of merge tree shape or order.
//! 2. **Rank-error bound** — every reported quantile is within relative
//!    error `alpha` of the exact order statistic of a sorted reference,
//!    including on adversarial (heavy-tailed, clustered, mixed-sign)
//!    distributions.
//! 3. **Partition independence** — splitting a stream across 1 or 4
//!    partitions and merging yields byte-identical snapshots, the
//!    invariant the ledgers' per-tenant → fleet merges stand on.

use splitserve_obs::QuantileDigest;
use splitserve_rt::check::{self, Gen};

/// Generates an adversarial value stream: uniform, heavy-tailed
/// (log-scale magnitudes down to 1e-12 and up to 1e12), tightly
/// clustered, or sign-mixed — chosen per case.
fn adversarial_values(g: &mut Gen) -> Vec<f64> {
    let n = g.usize_in(1, 800);
    let shape = g.usize_in(0, 3);
    (0..n)
        .map(|_| {
            let v = match shape {
                // Uniform.
                0 => g.f64_in(-100.0, 100.0),
                // Heavy-tailed: exponents straddling the digest's
                // MIN_TRACKABLE cutoff and f64's comfortable range.
                1 => {
                    let exp = g.f64_in(-12.0, 12.0);
                    10f64.powf(exp)
                }
                // Tight cluster around one point (quantile plateaus).
                2 => 42.0 + g.f64_in(-1e-6, 1e-6),
                // Mixed-sign bimodal.
                _ => {
                    if g.bool() {
                        g.f64_in(-1000.0, -1.0)
                    } else {
                        g.f64_in(1.0, 1000.0)
                    }
                }
            };
            if g.usize_in(0, 99) == 0 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

#[test]
fn merge_is_commutative_and_associative() {
    check::run("digest_merge_commutative_associative", 200, |g| {
        let a_vals = adversarial_values(g);
        let b_vals = adversarial_values(g);
        let c_vals = adversarial_values(g);
        let digest_of = |vals: &[f64]| {
            let mut d = QuantileDigest::default();
            for v in vals {
                d.record(*v);
            }
            d
        };
        let (a, b, c) = (digest_of(&a_vals), digest_of(&b_vals), digest_of(&c_vals));

        // Commutativity: a+b == b+a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.canonical_bytes(), ba.canonical_bytes(), "merge not commutative");

        // Associativity: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(
            ab_c.canonical_bytes(),
            a_bc.canonical_bytes(),
            "merge not associative"
        );

        // And both equal the single-stream digest over the concatenation.
        let mut whole = QuantileDigest::default();
        for v in a_vals.iter().chain(&b_vals).chain(&c_vals) {
            whole.record(*v);
        }
        assert_eq!(ab_c.canonical_bytes(), whole.canonical_bytes());
    });
}

#[test]
fn quantiles_stay_within_the_relative_error_bound() {
    check::run("digest_rank_error_bound", 200, |g| {
        let values = adversarial_values(g);
        let mut d = QuantileDigest::default();
        for v in &values {
            d.record(*v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let alpha = d.alpha();
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
            let exact = sorted[rank];
            let est = d.quantile(q).expect("non-empty digest");
            // Relative error bound on the magnitude; the sub-MIN_TRACKABLE
            // band collapses to the exact zero bucket.
            let tolerance = alpha * exact.abs() + 1e-9;
            assert!(
                (est - exact).abs() <= tolerance,
                "q={q}: est {est} vs exact {exact} (n={}, tol {tolerance})",
                sorted.len()
            );
        }
    });
}

#[test]
fn partitioned_recording_is_byte_identical_to_single_stream() {
    check::run("digest_partition_independence", 200, |g| {
        let values = adversarial_values(g);
        // workers=1: one digest records everything.
        let mut single = QuantileDigest::default();
        for v in &values {
            single.record(*v);
        }
        // workers=4: round-robin partitions merged in a scrambled order.
        let mut shards = [
            QuantileDigest::default(),
            QuantileDigest::default(),
            QuantileDigest::default(),
            QuantileDigest::default(),
        ];
        for (i, v) in values.iter().enumerate() {
            shards[i % 4].record(*v);
        }
        let order = match g.usize_in(0, 2) {
            0 => [0, 1, 2, 3],
            1 => [3, 1, 0, 2],
            _ => [2, 3, 1, 0],
        };
        let mut merged = QuantileDigest::default();
        for idx in order {
            merged.merge(&shards[idx]);
        }
        assert_eq!(
            merged.canonical_bytes(),
            single.canonical_bytes(),
            "partitioned digest diverged from the single stream"
        );
    });
}

#[test]
fn non_finite_inputs_survive_partitioned_merges() {
    check::run("digest_nonfinite_partitioned", 50, |g| {
        let n = g.usize_in(1, 200);
        let values: Vec<f64> = (0..n)
            .map(|_| match g.usize_in(0, 9) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => g.f64_in(-10.0, 10.0),
            })
            .collect();
        let mut single = QuantileDigest::default();
        let mut a = QuantileDigest::default();
        let mut b = QuantileDigest::default();
        for (i, v) in values.iter().enumerate() {
            single.record(*v);
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        a.merge(&b);
        assert_eq!(a.canonical_bytes(), single.canonical_bytes());
        assert_eq!(a.dropped(), single.dropped());
    });
}
