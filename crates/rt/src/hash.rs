//! Fast, seeded, deterministic hashing for the shuffle data plane.
//!
//! Shuffle partitioning must satisfy two constraints at once: it is the
//! hottest per-record operation in every wide stage (CloudSort hashes
//! every key at least twice — map-side bucketing and combine grouping),
//! and it must be **frozen forever** so that a run recorded in
//! `results_paper.txt` partitions identically on any toolchain. The
//! standard library's `DefaultHasher` fails the first constraint (SipHash
//! is keyed for DoS resistance the simulator does not need) and only
//! accidentally satisfies the second (its algorithm is explicitly
//! documented as subject to change).
//!
//! [`XxHash64`] implements the XXH64 algorithm: 64-bit multiply/rotate
//! lanes over 32-byte stripes, consuming long keys at several bytes per
//! cycle while still avalanching well on the 8-byte integer keys the
//! workloads use. The byte streams it produces are pinned by golden
//! values in this module's tests; changing them is a wire-format break.
//!
//! [`shuffle_hash`] is the one entry point the engine uses: XXH64 with
//! the fixed `SHUFFLE_HASH_SEED`, so every map task of every run places
//! a given key in the same bucket.

use std::hash::{Hash, Hasher};

/// The fixed seed every shuffle hash uses (`b"SPLITSRV"` as a big-endian
/// integer). Changing it re-partitions every shuffle and invalidates all
/// recorded benchmark trajectories.
pub(crate) const SHUFFLE_HASH_SEED: u64 = 0x53504c4954535256;

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte chunk"))
}

#[inline]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4-byte chunk"))
}

/// A streaming XXH64 hasher with an explicit seed.
///
/// Implements [`std::hash::Hasher`], so any `K: Hash` key feeds it
/// directly. Unlike `DefaultHasher`, the output is part of this crate's
/// stability contract.
///
/// # Examples
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use splitserve_rt::hash::XxHash64;
///
/// let mut h = XxHash64::with_seed(7);
/// 42u64.hash(&mut h);
/// let a = h.finish();
/// let mut h2 = XxHash64::with_seed(7);
/// 42u64.hash(&mut h2);
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Debug, Clone)]
pub struct XxHash64 {
    seed: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    v4: u64,
    buf: [u8; 32],
    buf_len: usize,
    total_len: u64,
}

impl XxHash64 {
    /// A hasher with the given seed.
    pub fn with_seed(seed: u64) -> XxHash64 {
        XxHash64 {
            seed,
            v1: seed.wrapping_add(P1).wrapping_add(P2),
            v2: seed.wrapping_add(P2),
            v3: seed,
            v4: seed.wrapping_sub(P1),
            buf: [0; 32],
            buf_len: 0,
            total_len: 0,
        }
    }

    #[inline]
    fn consume_stripe(&mut self, stripe: &[u8]) {
        self.v1 = round(self.v1, read_u64(&stripe[0..]));
        self.v2 = round(self.v2, read_u64(&stripe[8..]));
        self.v3 = round(self.v3, read_u64(&stripe[16..]));
        self.v4 = round(self.v4, read_u64(&stripe[24..]));
    }
}

impl Hasher for XxHash64 {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        // Top up a partially-filled buffer first.
        if self.buf_len > 0 {
            let need = 32 - self.buf_len;
            let take = need.min(bytes.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len < 32 {
                return;
            }
            let stripe = self.buf;
            self.consume_stripe(&stripe);
            self.buf_len = 0;
        }
        // Whole stripes straight from the input, no copy.
        while bytes.len() >= 32 {
            let (stripe, rest) = bytes.split_at(32);
            self.consume_stripe(stripe);
            bytes = rest;
        }
        // Stash the tail.
        self.buf[..bytes.len()].copy_from_slice(bytes);
        self.buf_len = bytes.len();
    }

    fn finish(&self) -> u64 {
        let mut acc = if self.total_len >= 32 {
            let mut a = self
                .v1
                .rotate_left(1)
                .wrapping_add(self.v2.rotate_left(7))
                .wrapping_add(self.v3.rotate_left(12))
                .wrapping_add(self.v4.rotate_left(18));
            a = merge_round(a, self.v1);
            a = merge_round(a, self.v2);
            a = merge_round(a, self.v3);
            merge_round(a, self.v4)
        } else {
            self.seed.wrapping_add(P5)
        };
        acc = acc.wrapping_add(self.total_len);
        let mut tail = &self.buf[..self.buf_len];
        while tail.len() >= 8 {
            acc ^= round(0, read_u64(tail));
            acc = acc.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            acc ^= u64::from(read_u32(tail)).wrapping_mul(P1);
            acc = acc.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            acc ^= u64::from(b).wrapping_mul(P5);
            acc = acc.rotate_left(11).wrapping_mul(P1);
        }
        acc ^= acc >> 33;
        acc = acc.wrapping_mul(P2);
        acc ^= acc >> 29;
        acc = acc.wrapping_mul(P3);
        acc ^ (acc >> 32)
    }
}

/// Hashes one value with XXH64 under the fixed `SHUFFLE_HASH_SEED` —
/// the hash every shuffle bucket decision derives from.
///
/// A key goes to reduce partition `hash % P`, so all keys one reduce task
/// holds share `hash % P` — for a power-of-two `P`, the hash's low
/// `log2 P` bits. A per-task structure over these hashes (the engine's
/// grouping tables) must index by other bits, or it uses `1/P` of itself.
///
/// # Examples
///
/// ```
/// use splitserve_rt::hash::shuffle_hash;
///
/// assert_eq!(shuffle_hash(&7u64), shuffle_hash(&7u64));
/// assert_ne!(shuffle_hash(&7u64), shuffle_hash(&8u64));
/// ```
#[inline]
pub fn shuffle_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = XxHash64::with_seed(SHUFFLE_HASH_SEED);
    value.hash(&mut h);
    h.finish()
}

/// One-shot XXH64 of `bytes` under `seed`.
///
/// # Examples
///
/// ```
/// use splitserve_rt::hash::xxh64;
///
/// assert_eq!(xxh64(0, b"abc"), 0x44bc_2cf5_ad77_0999);
/// ```
pub fn xxh64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = XxHash64::with_seed(seed);
    h.write(bytes);
    h.finish()
}

/// The workspace's one pin mechanism: panics unless `xxh64(0, bytes)`
/// equals `pin`. The message names the artifact and carries the new
/// digest and length, so a deliberate byte change is one copy-paste and
/// an accidental one says what moved.
///
/// Test aid: only tests call this.
#[track_caller]
pub fn assert_pinned(name: &str, bytes: &[u8], pin: u64) {
    let got = xxh64(0, bytes);
    assert!(
        got == pin,
        "{name} drifted from its pin {pin:016x}: digest {got:016x} (len {})",
        bytes.len()
    );
}

/// A fast, fixed-seed multiplicative hasher for small integer keys
/// (FxHash-style word folding).
///
/// The scheduler's hot maps are keyed by dense integers — attempt ids,
/// shuffle ids, `(job, stage)` pairs — where SipHash's DoS hardening is
/// pure overhead: the keys come from the simulator itself, never from an
/// adversary. `FxHasher64` folds each word in with a rotate + multiply,
/// costing a couple of cycles per `u64`. It is deterministic across runs
/// and platforms, so switching a `HashMap` to it makes iteration order
/// *more* reproducible than `RandomState`, never less.
///
/// Not suitable for the shuffle's record partitioning (weak avalanche on
/// the low bits) — that stays on [`XxHash64`].
#[derive(Debug, Default, Clone)]
pub struct FxHasher64 {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            self.add_word(read_u64(rest));
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Mix the high bits down: HashMap buckets use the low bits.
        let h = self.hash;
        h ^ (h >> 32)
    }
}

/// `BuildHasher` for [`FxHasher64`]: a zero-sized, fixed-seed state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher64;
    #[inline]
    fn build_hasher(&self) -> FxHasher64 {
        FxHasher64::default()
    }
}

/// A `HashMap` keyed with the fast fixed-seed hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed with the fast fixed-seed hasher.
pub type FastSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values freeze the byte streams forever: any change to the
    /// algorithm (or its constants) re-partitions every recorded shuffle
    /// and must fail loudly here.
    #[test]
    fn golden_values_are_frozen() {
        let golden: &[(u64, &[u8], u64)] = &[
            (0, b"", 0xef46_db37_51d8_e999),
            (0, b"a", 0xd24e_c4f1_a98c_6e5b),
            (0, b"abc", 0x44bc_2cf5_ad77_0999),
            (
                0,
                b"0123456789abcdef0123456789abcdef0123456789abcdef",
                0xe352_1644_4a3c_253b,
            ),
        ];
        for (seed, input, expect) in golden {
            assert_eq!(
                xxh64(*seed, input),
                *expect,
                "XXH64(seed={seed}, {input:?}) drifted"
            );
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        splitserve_rt_check_split(|bytes, splits| {
            let one_shot = xxh64(SHUFFLE_HASH_SEED, bytes);
            let mut h = XxHash64::with_seed(SHUFFLE_HASH_SEED);
            let mut rest = bytes;
            for &s in splits {
                let (a, b) = rest.split_at(s.min(rest.len()));
                h.write(a);
                rest = b;
            }
            h.write(rest);
            assert_eq!(h.finish(), one_shot, "chunking must not change the hash");
        });
    }

    /// Drives the streaming property over deterministic pseudo-random
    /// inputs and chunkings without depending on the `check` harness's
    /// public surface from inside the crate.
    fn splitserve_split_cases() -> Vec<(Vec<u8>, Vec<usize>)> {
        let mut rng = crate::Rng::seed_from_u64(0x5eed);
        (0..64)
            .map(|_| {
                let n = rng.gen_range(0u64..200) as usize;
                let mut bytes = vec![0u8; n];
                rng.fill(&mut bytes);
                let splits = (0..rng.gen_range(0u64..5))
                    .map(|_| rng.gen_range(0u64..64) as usize)
                    .collect();
                (bytes, splits)
            })
            .collect()
    }

    fn splitserve_rt_check_split(mut f: impl FnMut(&[u8], &[usize])) {
        for (bytes, splits) in splitserve_split_cases() {
            f(&bytes, &splits);
        }
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        const BUCKETS: u64 = 16;
        let mut counts = [0u64; BUCKETS as usize];
        for k in 0u64..16_000 {
            counts[(shuffle_hash(&k) % BUCKETS) as usize] += 1;
        }
        let expect = 16_000 / BUCKETS;
        for (b, c) in counts.iter().enumerate() {
            assert!(
                (*c as i64 - expect as i64).unsigned_abs() < expect / 4,
                "bucket {b} holds {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        use std::hash::BuildHasher;
        let h = |k: u64| FxBuildHasher.hash_one(k);
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Sequential keys must not collide in the low bits HashMap uses.
        let mut low: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for k in 0u64..1024 {
            low.insert(h(k) & 0x3ff);
        }
        assert!(low.len() > 512, "low-bit spread too poor: {}", low.len());
    }

    #[test]
    fn fx_hasher_handles_byte_tails() {
        use std::hash::BuildHasher;
        let h = |s: &str| FxBuildHasher.hash_one(s);
        assert_eq!(h("abc"), h("abc"));
        assert_ne!(h("abc"), h("abd"));
        assert_ne!(h("0123456789"), h("0123456788"));
    }

    #[test]
    fn seed_changes_the_stream() {
        assert_ne!(xxh64(0, b"key"), xxh64(1, b"key"));
        assert_ne!(xxh64(SHUFFLE_HASH_SEED, b"key"), xxh64(0, b"key"));
    }

    #[test]
    fn assert_pinned_passes_on_the_pin_and_reports_a_one_byte_change() {
        let artifact = b"{\"workers\":1}";
        let pin = xxh64(0, artifact);
        assert_pinned("demo artifact", artifact, pin);
        let changed = b"{\"workers\":2}";
        let err = std::panic::catch_unwind(|| assert_pinned("demo artifact", changed, pin))
            .expect_err("a one-byte change must fail the pin");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("demo artifact"), "names the artifact: {msg}");
        assert!(
            msg.contains(&format!("{:016x}", xxh64(0, changed))),
            "carries the new digest: {msg}"
        );
        assert!(msg.contains("len 13"), "carries the length: {msg}");
    }

    #[test]
    fn hasher_integration_with_std_hash() {
        // Tuples, strings and integers all route through `write`.
        assert_eq!(
            shuffle_hash(&(1u64, "x".to_string())),
            shuffle_hash(&(1u64, "x".to_string()))
        );
        assert_ne!(shuffle_hash(&1u32), shuffle_hash(&2u32));
    }
}
