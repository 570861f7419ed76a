//! Property tests for the pricing and billing rules — the arithmetic
//! behind every cost figure in the reproduction.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_cloud::{
    fig1_vcpu_cost_at, lambda_compute_cost, lambda_cost, vm_cost, Cloud, CloudEvent,
    CloudListener, CloudSpec, LambdaId, M4_10XLARGE, M4_LARGE, M4_XLARGE,
};
use splitserve_des::{Dist, Fabric, Sim, SimDuration, SimTime};
use splitserve_rt::check;

fn quiet_spec() -> CloudSpec {
    CloudSpec {
        vm_boot: Dist::constant(110.0),
        lambda_warm_start: Dist::constant(0.1),
        lambda_cold_start: Dist::constant(3.0),
        lambda_net_jitter: Dist::constant(1.0),
        ..CloudSpec::default()
    }
}

/// The cloud's listener in these runs: records the hold a test gave each
/// Lambda and releases the Lambda that long after it comes up.
struct Releaser {
    cloud: Cloud,
    holds: RefCell<Vec<(LambdaId, SimDuration)>>,
}

impl Releaser {
    fn on(cloud: &Cloud) -> Rc<Releaser> {
        let releaser = Rc::new(Releaser {
            cloud: cloud.clone(),
            holds: RefCell::default(),
        });
        cloud.set_listener(&releaser);
        releaser
    }

    fn release_after(&self, id: LambdaId, hold: SimDuration) {
        self.holds.borrow_mut().push((id, hold));
    }
}

impl CloudListener for Releaser {
    fn on_cloud_event(self: Rc<Self>, sim: &mut Sim, event: CloudEvent) {
        let CloudEvent::LambdaReady(id) = event else {
            return;
        };
        let hold = self.holds.borrow().iter().find(|(l, _)| *l == id).map(|(_, h)| *h);
        if let Some(hold) = hold {
            let cloud = self.cloud.clone();
            sim.schedule_in(hold, move |sim| cloud.release_lambda(sim, id));
        }
    }
}

/// Running longer never costs less, on either substrate.
#[test]
fn costs_are_monotone_in_runtime() {
    check::run("costs_are_monotone_in_runtime", 128, |g| {
        let a = g.u64_in(0, 10_000_000);
        let b = g.u64_in(0, 10_000_000);
        let (lo, hi) = (a.min(b), a.max(b));
        let lo_d = SimDuration::from_millis(lo);
        let hi_d = SimDuration::from_millis(hi);
        for itype in [&M4_LARGE, &M4_XLARGE, &M4_10XLARGE] {
            assert!(vm_cost(itype, lo_d) <= vm_cost(itype, hi_d));
        }
        for mem in [512u64, 1536, 3008] {
            assert!(lambda_compute_cost(mem, lo_d) <= lambda_compute_cost(mem, hi_d));
        }
    });
}

/// VM billing: never below the 60 s minimum, never above runtime + 1 s
/// of rounding.
#[test]
fn vm_billing_bounds() {
    check::run("vm_billing_bounds", 128, |g| {
        let ms = g.u64_in(0, 20_000_000);
        let d = SimDuration::from_millis(ms);
        let cost = vm_cost(&M4_LARGE, d);
        let per_sec = M4_LARGE.hourly_usd / 3600.0;
        let min_cost = per_sec * 60.0;
        assert!(cost >= min_cost - 1e-12);
        let upper = per_sec * (d.as_secs_f64().max(60.0) + 1.0);
        assert!(cost <= upper + 1e-12);
    });
}

/// Lambda billing: exact 100 ms quantization — cost is a multiple of
/// the 100 ms price, and within one quantum of the fluid cost.
#[test]
fn lambda_billing_quantizes() {
    check::run("lambda_billing_quantizes", 128, |g| {
        let ms = g.u64_in(0, 5_000_000);
        let mem = g.u64_in(128, 3_008);
        let d = SimDuration::from_millis(ms);
        let cost = lambda_compute_cost(mem, d);
        let per_100ms = lambda_compute_cost(mem, SimDuration::from_millis(100));
        if per_100ms <= 0.0 {
            return; // degenerate memory size; nothing to quantize
        }
        let quanta = cost / per_100ms;
        assert!((quanta - quanta.round()).abs() < 1e-6, "not quantized: {quanta}");
        let fluid = per_100ms * (ms as f64 / 100.0);
        assert!(cost + 1e-12 >= fluid, "billed below fluid cost");
        assert!(cost <= fluid + per_100ms + 1e-12, "over-billed by more than a quantum");
    });
}

/// Figure 1's defining property: at every instant before the
/// crossover the Lambda is cheaper; after it, never cheaper again.
#[test]
fn fig1_crossover_is_a_single_crossing() {
    check::run("fig1_crossover_is_a_single_crossing", 128, |g| {
        let ms = g.u64_in(100, 7_200_000);
        let x = splitserve_cloud::fig1_crossover(&M4_LARGE, SimDuration::from_secs(7_200))
            .expect("crossover exists");
        let t = SimDuration::from_millis(ms);
        let (vm, la) = fig1_vcpu_cost_at(&M4_LARGE, t);
        if t < x {
            assert!(la <= vm + 1e-12, "lambda pricier before crossover at {t}");
        } else {
            // From the crossover on, the lambda never undercuts the VM:
            // both are monotone staircases and the lambda's slope is
            // strictly steeper.
            assert!(la >= vm - 1e-9, "lambda cheaper after crossover at {t}");
        }
    });
}

/// End-to-end ledger consistency: for an arbitrary schedule of VM and
/// Lambda sessions, after shutdown the accrued cost equals the
/// finalized total, and the total equals the sum of the per-resource
/// prices.
#[test]
fn ledger_matches_hand_computed_bill() {
    check::run("ledger_matches_hand_computed_bill", 48, |g| {
        let vm_secs = g.vec(0, 4, |g| g.u64_in(1, 400));
        let lambda_secs = g.vec(0, 4, |g| g.u64_in(1, 400));
        let mut sim = Sim::new(1);
        let cloud = Cloud::new(quiet_spec(), Fabric::new());
        let mut expected = 0.0;
        for s in &vm_secs {
            let vm = cloud.provision_vm_ready(&mut sim, M4_LARGE.clone());
            let c = cloud.clone();
            let dur = SimDuration::from_secs(*s);
            sim.schedule_in(dur, move |sim| c.terminate_vm(sim, vm));
            expected += vm_cost(&M4_LARGE, dur);
        }
        let releaser = Releaser::on(&cloud);
        for s in &lambda_secs {
            let dur = SimDuration::from_secs(*s);
            let id = cloud.invoke_lambda(&mut sim, 0, 1536);
            releaser.release_after(id, dur);
            expected += lambda_cost(1536, dur);
        }
        sim.run();
        let total = cloud.total_cost();
        assert!((total - expected).abs() < 1e-9, "total {total} vs expected {expected}");
        assert!((cloud.accrued_cost(sim.now()) - total).abs() < 1e-12);
    });
}

/// Warm-pool conservation: invocations never exceed warm starts +
/// cold starts, and releases re-warm the pool.
#[test]
fn start_counts_add_up() {
    check::run("start_counts_add_up", 48, |g| {
        let n = g.usize_in(1, 20);
        let mut sim = Sim::new(2);
        let spec = CloudSpec { prewarmed_lambdas: 3, ..quiet_spec() };
        let cloud = Cloud::new(spec, Fabric::new());
        let releaser = Releaser::on(&cloud);
        for _ in 0..n {
            let id = cloud.invoke_lambda(&mut sim, 0, 1536);
            releaser.release_after(id, SimDuration::from_secs(1));
        }
        sim.run_until(SimTime::from_secs(500));
        let stats = cloud.pool_stats();
        let (warm, cold) = (stats.warm_starts, stats.cold_starts);
        assert_eq!(warm + cold, n as u64);
        // Sequential-ish invokes with 3 prewarmed: at most the bursts that
        // overlapped beyond pool depth went cold.
        assert!(warm >= 3.min(n) as u64);
    });
}
