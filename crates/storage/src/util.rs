//! Small helpers shared by the store implementations.

use splitserve_des::{Fabric, LinkPath, Sim, SimDuration};

/// Waits `delay`, then moves `bytes` across `links`, then runs `then`.
/// The standard shape of a storage operation: request latency followed by a
/// bandwidth-constrained transfer.
pub(crate) fn delay_then_flow(
    sim: &mut Sim,
    fabric: &Fabric,
    delay: SimDuration,
    links: LinkPath,
    bytes: u64,
    then: impl FnOnce(&mut Sim) + 'static,
) {
    if delay.is_zero() {
        fabric.start_flow(sim, links.as_slice(), bytes, then);
    } else {
        let fabric = fabric.clone();
        sim.schedule_in(delay, move |sim| {
            fabric.start_flow(sim, links.as_slice(), bytes, then);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_then_flow_sequences_latency_and_transfer() {
        let mut sim = Sim::new(0);
        let fabric = Fabric::new();
        let l = fabric.add_link(100.0, "l");
        let done = std::rc::Rc::new(std::cell::Cell::new(0.0));
        let d = std::rc::Rc::clone(&done);
        delay_then_flow(
            &mut sim,
            &fabric,
            SimDuration::from_secs(2),
            LinkPath::new(&[l]),
            300,
            move |sim| d.set(sim.now().as_secs_f64()),
        );
        sim.run();
        assert_eq!(done.get(), 5.0); // 2 s latency + 3 s transfer
    }
}
