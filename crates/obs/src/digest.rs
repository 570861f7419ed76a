//! Mergeable streaming quantile digest.
//!
//! The paper's latency claims are quantile claims (p95/p99 task latency,
//! SLO attainment), and fixed-bucket histograms can only answer them to
//! bucket resolution. [`QuantileDigest`] closes that gap with a
//! DDSketch-style log-bucketed sketch: values land in geometric buckets
//! `(γ^(i-1), γ^i]` with `γ = (1+α)/(1-α)`, so any reported quantile is
//! within **relative error α** of an exact order statistic (default
//! α = 1%).
//!
//! The log-bucket layout was chosen over t-digest/GK deliberately: those
//! sketches are insertion-order sensitive, so per-worker sketches merged
//! in different orders yield different summaries. Here a bucket is a pure
//! count, merging is count addition, and therefore **merge is exactly
//! commutative, associative and partition-independent** — digests merged
//! in any order are byte-identical to one digest over the same multiset
//! ([`QuantileDigest::canonical_bytes`]), which is what lets the ledgers
//! merge per-tenant digests into class and fleet digests.

use std::collections::BTreeMap;

/// Default relative-accuracy parameter: reported quantiles are within
/// 1% of an exact order statistic.
pub(crate) const DEFAULT_DIGEST_ALPHA: f64 = 0.01;

/// Magnitudes at or below this collapse into the exact zero bucket; the
/// sketch does not distinguish sub-nanosecond (virtual) latencies from
/// zero.
pub(crate) const MIN_TRACKABLE: f64 = 1e-9;

/// A mergeable, deterministic streaming quantile sketch.
///
/// Records finite `f64`s (non-finite values are counted and dropped) and
/// answers `quantile(q)` within relative error `alpha`. Two digests with
/// the same `alpha` merge by bucket-count addition, so the merged state
/// depends only on the multiset of recorded values — never on recording
/// or merge order.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileDigest {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Counts for positive values, keyed by bucket index `i` such that
    /// `γ^(i-1) < v ≤ γ^i`.
    pos: BTreeMap<i32, u64>,
    /// Counts for negative values, keyed by the bucket index of `-v`.
    neg: BTreeMap<i32, u64>,
    /// Values with `|v| ≤ MIN_TRACKABLE`.
    zero: u64,
    /// Finite values recorded (including the zero bucket).
    count: u64,
    /// Non-finite values rejected.
    dropped: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileDigest {
    fn default() -> Self {
        QuantileDigest::new(DEFAULT_DIGEST_ALPHA)
    }
}

impl QuantileDigest {
    /// A digest with relative accuracy `alpha` (`0 < alpha < 1`).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileDigest {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zero: 0,
            count: 0,
            dropped: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The digest's relative-accuracy parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Finite values recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite values rejected so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` when nothing finite was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    fn bucket(&self, magnitude: f64) -> i32 {
        // γ^(i-1) < magnitude ≤ γ^i  ⇔  i = ⌈ln(m)/ln(γ)⌉. The range of
        // finite f64 magnitudes above MIN_TRACKABLE maps well inside i32.
        (magnitude.ln() / self.ln_gamma).ceil() as i32
    }

    /// The representative value of bucket `i`: the geometric midpoint
    /// `2γ^i/(γ+1)`, which is within relative `alpha` of every value in
    /// the bucket.
    fn bucket_value(&self, i: i32) -> f64 {
        2.0 * self.gamma.powi(i) / (self.gamma + 1.0)
    }

    /// Records one value. Non-finite values are counted in
    /// [`QuantileDigest::dropped`] and otherwise ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.dropped += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v.abs() <= MIN_TRACKABLE {
            self.zero += 1;
        } else if v > 0.0 {
            *self.pos.entry(self.bucket(v)).or_insert(0) += 1;
        } else {
            *self.neg.entry(self.bucket(-v)).or_insert(0) += 1;
        }
    }

    /// Merges `other` into `self` by bucket-count addition. Exactly
    /// commutative and associative.
    ///
    /// # Panics
    ///
    /// Panics when the two digests were built with different `alpha`
    /// (their buckets are incompatible).
    pub fn merge(&mut self, other: &QuantileDigest) {
        assert_eq!(
            self.alpha.to_bits(),
            other.alpha.to_bits(),
            "cannot merge digests with different alpha"
        );
        for (i, c) in &other.pos {
            *self.pos.entry(*i).or_insert(0) += c;
        }
        for (i, c) in &other.neg {
            *self.neg.entry(*i).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.dropped += other.dropped;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q ∈ [0, 1]`: an estimate within relative
    /// error `alpha` of the exact order statistic of rank
    /// `⌊q·(count−1)⌋` (zero-based) over everything recorded. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Zero-based rank of the order statistic we are after.
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut cum = 0u64;
        // Negative values first, most negative (largest magnitude) first.
        for (i, c) in self.neg.iter().rev() {
            cum += c;
            if cum > rank {
                return Some(-self.bucket_value(*i));
            }
        }
        cum += self.zero;
        if cum > rank {
            return Some(0.0);
        }
        for (i, c) in &self.pos {
            cum += c;
            if cum > rank {
                return Some(self.bucket_value(*i));
            }
        }
        // Rounding left us past the last bucket; clamp to the maximum.
        Some(self.max)
    }

    /// A canonical, deterministic byte serialization of the digest state.
    /// Two digests over the same multiset of values — regardless of
    /// recording order, sharding, or merge order — serialize to identical
    /// bytes.
    ///
    /// Test aid: only tests call this.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 12 * (self.pos.len() + self.neg.len()));
        out.extend_from_slice(&self.alpha.to_bits().to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.zero.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        for (sign, map) in [(b'-', &self.neg), (b'+', &self.pos)] {
            out.push(sign);
            out.extend_from_slice(&(map.len() as u64).to_le_bytes());
            for (i, c) in map {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_has_no_quantiles() {
        let d = QuantileDigest::default();
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    fn quantiles_are_within_alpha_of_exact() {
        let mut d = QuantileDigest::default();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.01).collect();
        for v in &values {
            d.record(*v);
        }
        for q in [0.0f64, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = values[(q * 999.0).floor() as usize];
            let est = d.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= d.alpha() * exact.abs() + 1e-12,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(d.min(), Some(0.01));
        assert_eq!(d.max(), Some(10.0));
    }

    #[test]
    fn merge_equals_single_stream() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = QuantileDigest::default();
        let mut a = QuantileDigest::default();
        let mut b = QuantileDigest::default();
        for (i, v) in values.iter().enumerate() {
            whole.record(*v);
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.canonical_bytes(), whole.canonical_bytes());
        assert_eq!(ba.canonical_bytes(), whole.canonical_bytes());
    }

    #[test]
    fn negative_and_zero_values_order_correctly() {
        let mut d = QuantileDigest::default();
        for v in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            d.record(v);
        }
        assert!(d.quantile(0.0).unwrap() < -9.0);
        assert_eq!(d.quantile(0.5).unwrap(), 0.0);
        assert!(d.quantile(1.0).unwrap() > 9.0);
    }

    #[test]
    fn non_finite_values_are_dropped_and_counted() {
        let mut d = QuantileDigest::default();
        d.record(f64::NAN);
        d.record(f64::INFINITY);
        d.record(1.0);
        assert_eq!(d.dropped(), 2);
        assert_eq!(d.count(), 1);
        assert_eq!(d.quantile(0.5), Some(d.quantile(0.5).unwrap()));
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merging_mismatched_alpha_panics() {
        let mut a = QuantileDigest::new(0.01);
        let b = QuantileDigest::new(0.02);
        a.merge(&b);
    }
}
