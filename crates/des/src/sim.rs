//! The event loop: a deterministic, cancellable discrete-event scheduler.
//!
//! [`Sim`] owns the virtual clock and a priority queue of events (see
//! `queue.rs` for its shape). Each event is a boxed `FnOnce(&mut Sim)`;
//! domain components (cloud, storage, engine) live in `Rc<RefCell<…>>`
//! handles captured by those closures. Two events scheduled for the same
//! instant fire in scheduling order (a monotonically increasing sequence
//! number breaks ties), which makes every run with the same seed
//! bit-for-bit reproducible.

use splitserve_rt::Rng;

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable with [`Sim::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// An event callback. It receives the simulator so it can read the clock and
/// schedule follow-up events.
pub type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// Liveness of scheduled events, one bit per sequence number.
///
/// Sequence numbers are dense and monotonically increasing, so a bitmap
/// beats a hash set on the scheduler's hottest edge: every event is
/// inserted once at schedule time and cleared once at fire/cancel time,
/// and both become single word operations instead of hashes. Memory is
/// one bit per event ever scheduled (an 8 M-event run costs 1 MB) and is
/// the one part of the simulator that grows with a run's length rather
/// than with its pending events.
#[derive(Default)]
struct LiveBits {
    words: Vec<u64>,
}

impl LiveBits {
    #[inline]
    fn insert(&mut self, seq: u64) {
        let (w, b) = ((seq >> 6) as usize, seq & 63);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    /// Clears the bit, reporting whether it was set — the cancel
    /// contract: `true` exactly once per scheduled event, then `false`
    /// forever (fired and cancelled events look identical).
    #[inline]
    fn remove(&mut self, seq: u64) -> bool {
        let (w, b) = ((seq >> 6) as usize, seq & 63);
        match self.words.get_mut(w) {
            Some(word) if *word & (1 << b) != 0 => {
                *word &= !(1 << b);
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn contains(&self, seq: u64) -> bool {
        let (w, b) = ((seq >> 6) as usize, seq & 63);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }
}

/// A deterministic discrete-event simulator.
///
/// # Examples
///
/// ```
/// use splitserve_des::{Sim, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(42);
/// let fired = Rc::new(Cell::new(false));
/// let flag = Rc::clone(&fired);
/// sim.schedule_in(SimDuration::from_secs(5), move |sim| {
///     assert_eq!(sim.now(), SimTime::from_secs(5));
///     flag.set(true);
/// });
/// sim.run();
/// assert!(fired.get());
/// ```
pub struct Sim {
    now: SimTime,
    queue: EventQueue,
    live: LiveBits,
    next_seq: u64,
    executed: u64,
    rng: Rng,
    seed: u64,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .field("seed", &self.seed)
            .finish()
    }
}

impl Sim {
    /// Creates a simulator with its clock at [`SimTime::ZERO`] and a
    /// deterministic RNG seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            live: LiveBits::default(),
            next_seq: 0,
            executed: 0,
            rng: Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled tombstones not
    /// yet reaped).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The simulator's deterministic random number generator.
    ///
    /// All stochastic behaviour in a simulation must draw from this RNG so
    /// runs are reproducible from the seed alone.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (events cannot fire
    /// in the past).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.queue.push(at, seq, Box::new(f));
        EventId(seq)
    }

    /// Schedules `f` to run after `delay` from now.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Sim) + 'static,
    ) -> EventId {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation clock overflow");
        self.schedule_at(at, f)
    }

    /// Schedules `f` to run at the current instant, after all callbacks
    /// already queued for this instant.
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.schedule_at(self.now, f)
    }

    /// Cancels a pending event. Returns `true` if the event had not yet
    /// fired (or been cancelled); cancelling an already-fired event is a
    /// harmless no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // The live set is the source of truth; queue entries for dead ids
        // are skipped when popped.
        self.live.remove(id.0)
    }

    /// Executes the next pending event, advancing the clock to its time.
    /// Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        while let Some((key, f)) = self.queue.pop() {
            if !self.live.remove(key.seq) {
                continue; // cancelled
            }
            debug_assert!(key.at >= self.now, "event queue went backwards");
            self.now = key.at;
            self.executed += 1;
            f(self);
            return true;
        }
        false
    }

    /// Runs until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with `time <= deadline`, then sets the clock to
    /// `deadline` (if it is later than the last event executed).
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            // Peek for the next live event.
            let next_at = loop {
                match self.queue.peek() {
                    None => break None,
                    Some(e) if !self.live.contains(e.seq) => {
                        self.queue.pop();
                    }
                    Some(e) => break Some(e.at),
                }
            };
            match next_at {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn recorder() -> (Rc<RefCell<Vec<u32>>>, impl Fn(u32) -> EventFn) {
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let make = move |tag: u32| -> EventFn {
            let l = Rc::clone(&l);
            Box::new(move |_sim: &mut Sim| l.borrow_mut().push(tag))
        };
        (log, make)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(0);
        let (log, make) = recorder();
        sim.schedule_at(SimTime::from_secs(3), make(3));
        sim.schedule_at(SimTime::from_secs(1), make(1));
        sim.schedule_at(SimTime::from_secs(2), make(2));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Sim::new(0);
        let (log, make) = recorder();
        for tag in 0..10 {
            sim.schedule_at(SimTime::from_secs(1), make(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_suppresses_event() {
        let mut sim = Sim::new(0);
        let (log, make) = recorder();
        let keep = sim.schedule_at(SimTime::from_secs(1), make(1));
        let drop_id = sim.schedule_at(SimTime::from_secs(2), make(2));
        sim.schedule_at(SimTime::from_secs(3), make(3));
        assert!(sim.cancel(drop_id));
        assert!(!sim.cancel(drop_id), "double-cancel reports false");
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 3]);
        assert!(!sim.cancel(keep), "cancelling a fired event reports false");
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            l.borrow_mut().push(sim.now().as_micros());
            let l2 = Rc::clone(&l);
            sim.schedule_in(SimDuration::from_secs(2), move |sim| {
                l2.borrow_mut().push(sim.now().as_micros());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1_000_000, 3_000_000]);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new(0);
        let (log, make) = recorder();
        sim.schedule_at(SimTime::from_secs(1), make(1));
        sim.schedule_at(SimTime::from_secs(10), make(10));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 10]);
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut sim = Sim::new(0);
        let (log, make) = recorder();
        let head = sim.schedule_at(SimTime::from_secs(1), make(1));
        sim.schedule_at(SimTime::from_secs(2), make(2));
        sim.cancel(head);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(0);
        sim.schedule_at(SimTime::from_secs(5), |_| {});
        sim.run();
        sim.schedule_at(SimTime::from_secs(1), |_| {});
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Sim::new(7);
        let mut b = Sim::new(7);
        let mut c = Sim::new(8);
        let xa: u64 = a.rng().gen();
        let xb: u64 = b.rng().gen();
        let xc: u64 = c.rng().gen();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn executed_and_pending_counters() {
        let mut sim = Sim::new(0);
        let (_log, make) = recorder();
        sim.schedule_at(SimTime::from_secs(1), make(1));
        sim.schedule_at(SimTime::from_secs(2), make(2));
        assert_eq!(sim.pending_events(), 2);
        sim.step();
        assert_eq!(sim.executed_events(), 1);
        assert_eq!(sim.pending_events(), 1);
    }
}
