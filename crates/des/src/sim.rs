//! The event loop: a deterministic, cancellable discrete-event scheduler.
//!
//! [`Sim`] owns the virtual clock and a priority queue of events (see
//! `queue.rs` for its shape). Library code schedules every event as a
//! `(handler, token)` pair for an [`EventHandler`] ([`Sim::notify_at`]):
//! the pair is stored inline in the queue's slab, so scheduling allocates
//! nothing, and the `u64` token names state the component parked for the
//! event. A boxed `FnOnce(&mut Sim)` ([`Sim::schedule_at`],
//! [`Sim::schedule_in`]) is the benchmark's seam and a test convenience.
//!
//! Both forms are one stream: one queue, one sequence counter, one
//! [`Sim::cancel`], one [`Sim::step`]. Two events scheduled for the same
//! instant fire in scheduling order (a monotonically increasing sequence
//! number breaks ties), which makes every run with the same seed
//! bit-for-bit reproducible.

use std::collections::VecDeque;
use std::rc::Rc;

use splitserve_rt::Rng;

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable with [`Sim::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// An event callback. It receives the simulator so it can read the clock and
/// schedule follow-up events.
pub(crate) type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// A component that takes events as `(handler, token)` pairs rather than
/// closures: what [`Sim::notify_at`] schedules and what a fabric flow
/// started with `Fabric::start_flow_notify` calls on completion.
///
/// The receiver is the `Rc` the event carried, handed back: a component
/// whose public handle wraps an `Rc` of its shared state rebuilds that
/// handle from it at no cost.
///
/// # Examples
///
/// ```
/// use splitserve_des::{EventHandler, Sim, SimDuration};
/// use std::{cell::RefCell, rc::Rc};
///
/// /// Logs `(token, seconds)` per event.
/// struct Log(RefCell<Vec<(u64, u64)>>);
///
/// impl EventHandler for Log {
///     fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64) {
///         self.0.borrow_mut().push((token, sim.now().as_micros() / 1_000_000));
///     }
/// }
///
/// let mut sim = Sim::new(0);
/// let log = Rc::new(Log(RefCell::default()));
/// sim.notify_in(SimDuration::from_secs(2), log.clone(), 7);
/// let early = sim.notify_in(SimDuration::from_secs(1), log.clone(), 8);
/// sim.cancel(early);
/// sim.run();
/// assert_eq!(*log.0.borrow(), [(7, 2)]);
/// ```
pub trait EventHandler {
    /// The event scheduled under `token` fired (`sim.now()` is its time).
    fn on_event(self: Rc<Self>, sim: &mut Sim, token: u64);
}

/// What an event runs when it fires.
pub(crate) enum Action {
    /// A boxed closure: one allocation per event.
    Call(EventFn),
    /// A handler and the token it parked state under: stored inline.
    Notify(Rc<dyn EventHandler>, u64),
}

impl Action {
    #[inline]
    pub(crate) fn run(self, sim: &mut Sim) {
        match self {
            Action::Call(f) => f(sim),
            Action::Notify(handler, token) => handler.on_event(sim, token),
        }
    }
}

/// Liveness of scheduled events, one bit per sequence number, over the
/// window of sequence numbers that can still be live.
///
/// Sequence numbers are dense and monotonically increasing, so a bitmap
/// beats a hash set on the scheduler's hottest edge: every event is
/// inserted once at schedule time and cleared once at fire/cancel time,
/// and both become single word operations instead of hashes. And because
/// they only grow, a leading word whose 64 numbers have all been drawn and
/// cleared can never be set again: it is retired, so memory follows the
/// span between the oldest pending event and the newest, not the number
/// of events ever scheduled.
#[derive(Default)]
struct LiveBits {
    /// Word `i` holds sequence numbers `64 * (base + i) ..`.
    words: VecDeque<u64>,
    /// Leading words retired so far.
    base: u64,
    /// Bits set.
    count: usize,
}

impl LiveBits {
    /// Sets the bit of `seq`, which must exceed every `seq` inserted
    /// before.
    #[inline]
    fn insert(&mut self, seq: u64) {
        let (w, b) = (((seq >> 6) - self.base) as usize, seq & 63);
        if w == self.words.len() {
            self.words.push_back(0);
        }
        self.words[w] |= 1 << b;
        self.count += 1;
    }

    /// Clears the bit, reporting whether it was set — the cancel
    /// contract: `true` exactly once per scheduled event, then `false`
    /// forever (fired and cancelled events look identical, in a retired
    /// word or a kept one).
    #[inline]
    fn remove(&mut self, seq: u64) -> bool {
        let Some(w) = (seq >> 6).checked_sub(self.base) else {
            return false;
        };
        match self.words.get_mut(w as usize) {
            Some(word) if *word & (1 << (seq & 63)) != 0 => {
                *word &= !(1 << (seq & 63));
                self.count -= 1;
                // The last word is the one new sequence numbers land in;
                // every word before it is fully drawn.
                while self.words.len() > 1 && self.words[0] == 0 {
                    self.words.pop_front();
                    self.base += 1;
                }
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn contains(&self, seq: u64) -> bool {
        (seq >> 6)
            .checked_sub(self.base)
            .and_then(|w| self.words.get(w as usize))
            .is_some_and(|word| word & (1 << (seq & 63)) != 0)
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
            .field("pending", &self.live.count)
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

    /// Number of events scheduled so far — fired, pending and cancelled
    /// alike: the sequence numbers drawn. Against
    /// [`Sim::executed_events`] it shows cancel-and-re-schedule churn that
    /// no virtual result can.
    ///
    /// Test aid: only tests call this.
    pub fn scheduled_events(&self) -> u64 {
        self.next_seq
    }

    /// Number of events still pending: scheduled, not yet fired, not
    /// cancelled. (A cancelled event's queue entry stays behind until its
    /// time comes and is skipped then; it is not counted here.)
    pub fn pending_events(&self) -> usize {
        self.live.count
    }

    /// The simulator's deterministic random number generator.
    ///
    /// All stochastic behaviour in a simulation must draw from this RNG so
    /// runs are reproducible from the seed alone.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Schedules `f` to run at absolute time `at`. Benchmark seam: library
    /// code schedules typed events ([`Sim::notify_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (events cannot fire
    /// in the past).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.schedule(at, Action::Call(Box::new(f)))
    }

    /// Schedules `handler.on_event(sim, token)` at absolute time `at`,
    /// without allocating. Ordering, ties and [`Sim::cancel`] are those of
    /// [`Sim::schedule_at`]: the two forms draw from one sequence.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn notify_at(&mut self, at: SimTime, handler: Rc<dyn EventHandler>, token: u64) -> EventId {
        self.schedule(at, Action::Notify(handler, token))
    }

    /// [`Sim::notify_at`], `delay` from now.
    pub fn notify_in(
        &mut self,
        delay: SimDuration,
        handler: Rc<dyn EventHandler>,
        token: u64,
    ) -> EventId {
        self.notify_at(self.after(delay), handler, token)
    }

    fn after(&self, delay: SimDuration) -> SimTime {
        self.now
            .checked_add(delay)
            .expect("simulation clock overflow")
    }

    /// The one way onto the queue: draws the next sequence number.
    pub(crate) fn schedule(&mut self, at: SimTime, action: Action) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.queue.push(at, seq, action);
        EventId(seq)
    }

    /// Schedules `f` to run after `delay` from now. Benchmark seam, like
    /// [`Sim::schedule_at`].
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Sim) + 'static,
    ) -> EventId {
        self.schedule_at(self.after(delay), f)
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
        while let Some((key, action)) = self.queue.pop() {
            if !self.live.remove(key.seq) {
                continue; // cancelled
            }
            debug_assert!(key.at >= self.now, "event queue went backwards");
            self.now = key.at;
            self.executed += 1;
            action.run(self);
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

    /// Pushes each token it is handed onto the shared log.
    struct Typed(Rc<RefCell<Vec<u32>>>);

    impl EventHandler for Typed {
        fn on_event(self: Rc<Self>, _sim: &mut Sim, token: u64) {
            self.0.borrow_mut().push(token as u32);
        }
    }

    #[test]
    fn counters_count_both_kinds_and_only_live_events_are_pending() {
        let mut sim = Sim::new(0);
        let (log, make) = recorder();
        let typed = Rc::new(Typed(Rc::clone(&log)));
        sim.schedule_at(SimTime::from_secs(1), make(1));
        sim.notify_at(SimTime::from_secs(2), typed.clone(), 2);
        let dropped = sim.notify_at(SimTime::from_secs(3), typed, 3);
        assert_eq!((sim.scheduled_events(), sim.pending_events()), (3, 3));
        sim.step();
        assert_eq!((sim.executed_events(), sim.pending_events()), (1, 2));
        // A cancelled event stops counting as pending at once.
        sim.cancel(dropped);
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!((sim.executed_events(), sim.pending_events()), (2, 0));
        assert_eq!(sim.scheduled_events(), 3);
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn typed_and_boxed_events_of_one_instant_fire_in_scheduling_order() {
        let mut sim = Sim::new(0);
        let (log, make) = recorder();
        let typed = Rc::new(Typed(Rc::clone(&log)));
        for tag in 0..10 {
            if tag % 2 == 0 {
                sim.schedule_at(SimTime::from_secs(1), make(tag));
            } else {
                sim.notify_in(SimDuration::from_secs(1), typed.clone(), u64::from(tag));
            }
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_suppresses_a_typed_event_once_and_only_once() {
        let mut sim = Sim::new(0);
        let (log, _make) = recorder();
        let typed = Rc::new(Typed(Rc::clone(&log)));
        let keep = sim.notify_at(SimTime::from_secs(1), typed.clone(), 1);
        let drop_id = sim.notify_at(SimTime::from_secs(2), typed.clone(), 2);
        assert!(sim.cancel(drop_id));
        assert!(!sim.cancel(drop_id), "double-cancel reports false");
        sim.run();
        assert_eq!(*log.borrow(), vec![1]);
        assert!(!sim.cancel(keep), "cancelling a fired event reports false");
        // The cancelled event's handler reference went with its queue entry.
        assert_eq!(Rc::strong_count(&typed), 1);
    }

    /// The hold model: every event schedules its successor a random delay
    /// ahead, so the pending population stays put while sequence numbers
    /// run away from it.
    struct Hold {
        left: RefCell<u64>,
    }

    impl EventHandler for Hold {
        fn on_event(self: Rc<Self>, sim: &mut Sim, _token: u64) {
            let more = {
                let mut left = self.left.borrow_mut();
                *left = left.saturating_sub(1);
                *left > 0
            };
            if more {
                let delay = SimDuration::from_micros(sim.rng().gen_range(1..1_000_000u64));
                sim.notify_in(delay, self, 0);
            }
        }
    }

    #[test]
    fn live_bits_follow_the_pending_window_not_the_run_length() {
        let mut sim = Sim::new(1);
        let hold = Rc::new(Hold {
            left: RefCell::new(500_000),
        });
        let first = sim.notify_in(SimDuration::from_micros(1), hold.clone(), 0);
        for _ in 1..1_000 {
            let delay = SimDuration::from_micros(sim.rng().gen_range(1..1_000_000u64));
            sim.notify_in(delay, hold.clone(), 0);
        }
        let mut peak_words = 0;
        while sim.step() {
            assert!(sim.pending_events() <= 1_000);
            peak_words = peak_words.max(sim.live.words.len());
        }
        assert!(sim.scheduled_events() >= 500_000);
        // One bit per event ever scheduled would be 7 813 words.
        assert!(peak_words < 1_024, "live bitmap grew to {peak_words} words");
        assert!(sim.live.base > 7_000 && sim.live.count == 0);
        assert!(!sim.cancel(first), "a long-fired id, its word long retired");
        assert!(!sim.live.contains(first.0));
    }
}
