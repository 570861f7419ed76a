//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in has slow phases: for tens of seconds
//! at a time every CPU-bound program runs 10–40 % slower, whichever program
//! it is (a pure arithmetic loop in another language shows the same swings).
//! A median over one run cannot escape a phase that outlasts the run, so raw
//! wall time differs between two runs of the same code by more than any
//! useful regression bound.
//!
//! The timed loop therefore runs a fixed kernel — std only, allocation-free,
//! about 2 × 12 ms, so no change to the program under test can move it —
//! right before and right after every measured interval, and scales the interval by how fast
//! the kernel ran against its nominal time. The scored timings are *nominal
//! seconds*: host seconds on a host where the kernel takes exactly
//! `NOMINAL_S`. Raw seconds and the speed factor are reported beside them
//! (`run.wall_raw_s`, `run.host_speed`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on a quiet host of the class the committed numbers
/// come from (2-core Xeon 2.1 GHz VM), which makes nominal seconds there
/// equal host seconds.
pub const NOMINAL_S: f64 = 0.012;

const WORDS: usize = 400_000;
const KEYS: u64 = 50_000;

/// The kernel's buffers, allocated once and reused: a kernel run that
/// allocated would time the allocator and the page faults behind it, which
/// depend on what the workload just did to the heap and not on how fast the
/// host is.
struct Kernel {
    words: Vec<u64>,
    counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::warmed());
}

impl Kernel {
    fn warmed() -> Kernel {
        let mut kernel = Kernel {
            words: vec![0; WORDS],
            counts: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
        };
        // Touch every page and grow the map to its final size.
        kernel.seconds();
        kernel
    }

    /// The mix follows the workloads': integer arithmetic, a sort over
    /// 3 MB, a sequential fold, and hash-map updates with a fixed-key hasher.
    fn seconds(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for w in &mut self.words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.words.sort_unstable();
        let mut fold = 0u64;
        for _ in 0..2 {
            for w in &self.words {
                fold = (fold ^ w)
                    .wrapping_mul(0x0000_0100_0000_01B3)
                    .rotate_left(23);
            }
        }
        self.counts.clear();
        for w in self.words.iter().take(100_000) {
            *self.counts.entry(w % KEYS).or_insert(0) += 1;
        }
        black_box((fold, self.counts.len()));
        t.elapsed().as_secs_f64()
    }
}

/// Seconds the calibration kernel takes right now: the mean of two runs,
/// which measurably steadies the estimate against blips shorter than a run.
pub fn kernel_seconds() -> f64 {
    KERNEL.with_borrow_mut(|k| (k.seconds() + k.seconds()) / 2.0)
}

/// Host speed around an interval bracketed by two kernel runs: 1 on the
/// nominal host, below 1 on a slower one. Multiply host seconds by it to
/// get nominal seconds.
pub fn speed(kernel_before_s: f64, kernel_after_s: f64) -> f64 {
    2.0 * NOMINAL_S / (kernel_before_s + kernel_after_s)
}
