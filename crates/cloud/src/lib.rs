//! # splitserve-cloud — the simulated IaaS/FaaS substrate
//!
//! Models the two AWS services whose *timing and pricing asymmetry* the
//! SplitServe paper exploits:
//!
//! - **VMs** (EC2 m4 family): minutes-long boot delays, per-second billing
//!   with a 60-second minimum, generous per-node memory and dedicated
//!   EBS/network bandwidth ([`InstanceType`], [`Cloud::request_vm`]).
//! - **Cloud functions** (Lambda): ~100 ms warm starts, 100 ms-granularity
//!   GB-second billing plus an invocation fee, ≤3 GB memory, a hard
//!   15-minute lifetime, and network bandwidth proportional to memory with
//!   per-container jitter ([`Cloud::invoke_lambda`]).
//!
//! Every resource's spend lands in a `Ledger` so experiments can report
//! the same cost columns the paper does (Figures 1 and 8).
//!
//! # Examples
//!
//! ```
//! use splitserve_cloud::{Cloud, CloudEvent, CloudListener, CloudSpec, M4_LARGE};
//! use splitserve_des::{Fabric, Sim};
//! use std::{cell::Cell, rc::Rc};
//!
//! /// The cloud's owner: executor registration would happen here.
//! struct Owner(Cell<u32>);
//!
//! impl CloudListener for Owner {
//!     fn on_cloud_event(self: Rc<Self>, _sim: &mut Sim, event: CloudEvent) {
//!         if let CloudEvent::LambdaReady(_) = event {
//!             self.0.set(self.0.get() + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(1);
//! let cloud = Cloud::new(CloudSpec::default(), Fabric::new());
//! let owner = Rc::new(Owner(Cell::new(0)));
//! cloud.set_listener(&owner);
//!
//! // A job arrives: two cores are free on a VM, three more come from Lambdas.
//! let vm = cloud.provision_vm_ready(&mut sim, M4_LARGE);
//! for _ in 0..3 {
//!     cloud.invoke_lambda(&mut sim, 0, 1536);
//! }
//! sim.run();
//! assert_eq!((cloud.vm_cores(vm), owner.0.get()), (2, 3));
//! ```

#![warn(missing_docs)]

mod billing;
mod cloud;
pub mod coldstart;
mod instance;
mod pricing;

pub use billing::Category;
pub use cloud::{Cloud, CloudEvent, CloudListener, CloudSpec, LambdaId, VmId};
pub use coldstart::{
    ColdStartPolicy, ColdStartSpec, EvictReason, HybridHistogram, HybridHistogramSpec, ParkOrigin,
    PoolDecision, PoolEvent, PoolStats, UnloadOnPressure, WarmPool,
};
pub use instance::{
    fewest_instances_for_cores, InstanceType, M4_10XLARGE, M4_16XLARGE, M4_4XLARGE, M4_LARGE,
    M4_XLARGE,
};
pub use pricing::{
    fig1_crossover, fig1_vcpu_cost_at, lambda_compute_cost, lambda_core_share, lambda_cost,
    vm_cost, S3_USD_PER_GET, S3_USD_PER_PUT, SQS_USD_PER_REQUEST,
};
