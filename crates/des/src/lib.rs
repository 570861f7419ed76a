//! # splitserve-des — deterministic discrete-event simulation kernel
//!
//! The timing substrate for the SplitServe reproduction. Everything that
//! "takes time" in the simulated cloud — VM boots, Lambda cold starts,
//! shuffle transfers, S3 throttling — is expressed as events on the single
//! virtual clock owned by [`Sim`].
//!
//! The crate provides four building blocks:
//!
//! - [`Sim`] — the event loop: a cancellable priority queue of events —
//!   allocation-free `(handler, token)` pairs for an [`EventHandler`], or
//!   `FnOnce(&mut Sim)` callbacks (the benchmark's seam) — with
//!   deterministic FIFO tie-breaking and a seeded RNG, so every run is
//!   reproducible from its seed. The
//!   queue keeps pre-scheduled far-future events in an append-only sorted
//!   run, out of the small heap the near-term events churn through.
//! - [`SimTime`] / [`SimDuration`] — exact microsecond-resolution time.
//! - [`Fabric`] — a fluid-flow network with max–min fair bandwidth sharing,
//!   modeling NICs, EBS pipes and Lambda uplinks under contention.
//! - [`TokenBucket`] — request-rate limiting (S3/SQS throttling).
//! - [`Dist`] — seedable distributions (normal, log-normal, exponential,
//!   Pareto) for latency and boot-time models.
//!
//! # Examples
//!
//! ```
//! use splitserve_des::{Dist, Sim, SimDuration};
//!
//! let mut sim = Sim::new(7);
//! let boot = Dist::normal(110.0, 15.0).clamped(60.0, 240.0);
//! let delay = SimDuration::from_secs_f64(boot.sample(sim.rng()));
//! sim.schedule_in(delay, |sim| println!("VM ready at {}", sim.now()));
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dist;
mod fabric;
mod queue;
mod sim;
mod time;
mod token;

pub use dist::Dist;
pub use fabric::{Fabric, FlowId, LinkId, LinkPath};
pub use sim::{EventHandler, EventId, Sim};
pub use time::{SimDuration, SimTime};
pub use token::TokenBucket;
