//! # splitserve-rt — the in-tree runtime
//!
//! The SplitServe reproduction must build and test **hermetically**: the
//! build environment has no reachable crate registry, and the benchmark
//! trajectory is only trustworthy if the baseline is byte-for-byte
//! deterministic. This crate supplies the three third-party surfaces the
//! workspace used to import, with zero dependencies of its own:
//!
//! * [`rng`] — a seedable xoshiro256++ PRNG (SplitMix64 seeding) with the
//!   `seed_from_u64` / `gen` / `gen_range` / `gen_bool` / `shuffle` / `fill`
//!   surface the simulator, workloads and benches draw from. Unlike an
//!   external `rand`, its streams are frozen forever: a seed recorded in
//!   `results_paper.txt` replays identically on any toolchain.
//! * [`bytes`] — a cheap-to-clone shared byte buffer ([`bytes::Bytes`])
//!   used for shuffle blocks.
//! * [`check`] — a deterministic property-testing harness (seeded case
//!   generation, fixed iteration budget, failing-seed reporting) that the
//!   workspace's property suites run on.
//!
//! Three further modules serve the parallel shuffle data plane:
//!
//! * [`hash`] — a seeded XXH64 hasher with a fixed shuffle seed, so
//!   bucket placement is fast *and* frozen across runs and toolchains;
//!   [`hash::assert_pinned`] is the workspace's one artifact-pin helper.
//! * [`pool`] — a bounded pool of reusable scratch vectors (per-thread
//!   lock-free free lists under one byte budget): encode buffers, the
//!   lists that hold them and hash-table indexes, so a task body
//!   allocates little beyond what it hands on.
//! * [`worker`] — a fixed-size worker-thread pool the engine offloads
//!   task bodies onto; `rng::derive_seed` is the per-task seeding rule
//!   that keeps those bodies deterministic wherever they run.
//! * [`intern`] — a process-wide string interner handing out copyable
//!   `u32` symbols ([`Interned`]); executor ids and other hot-loop names
//!   ride on it so the scheduler's steady-state path never clones a
//!   `String`.
//!
//! And one serves the event loop:
//!
//! * [`slab`] — a slot table ([`Slab`]) for state parked until an event
//!   names it by index: event payloads, flows, store requests, task bodies.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bytes;
pub mod check;
pub mod hash;
pub mod intern;
pub mod pool;
pub mod rng;
pub mod slab;
pub mod worker;

pub use bytes::Bytes;
pub use hash::{FastMap, FastSet};
pub use intern::Interned;
pub use rng::Rng;
pub use slab::Slab;
pub use worker::{TaskHandle, WorkerPool};
