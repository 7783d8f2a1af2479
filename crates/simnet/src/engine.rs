//! The discrete-event engine: a virtual clock and an ordered event queue.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Something that happens at a scheduled instant.
///
/// Closures are events through the blanket impl. A typed event that
/// passes through several stages (a message in flight: depart, arrive,
/// deliver) implements this itself and hands its own box back to
/// [`Simulation::schedule_event`] for the next stage, so only its first
/// stage allocates.
pub trait Event {
    /// Runs the event at its instant; `sim.now()` is that instant.
    fn fire(self: Box<Self>, sim: &mut Simulation);
}

impl<F: FnOnce(&mut Simulation) + 'static> Event for F {
    fn fire(self: Box<Self>, sim: &mut Simulation) {
        (*self)(sim)
    }
}

/// Largest drained bucket buffer kept for reuse, in keys.
const KEEP_BUCKET_CAPACITY: usize = 64;

/// A queued instant and the slot holding its payload.
#[derive(Clone, Copy)]
struct Key {
    at: u64,
    slot: u32,
}

/// A monotone radix queue: pops in `(at, insertion order)` order, given
/// that nothing is pushed earlier than the last popped instant.
///
/// Instants equal to `base` (the last popped instant) wait in the `now`
/// FIFO. Any other instant sits in bucket `b`, where `b` is the highest
/// bit in which it differs from `base`; `mask` has bit `b` set while
/// bucket `b` is non-empty. When `now` runs dry, the lowest non-empty
/// bucket holds the earliest instants: its minimum becomes the new
/// `base`, its entries at that instant move to `now` and the rest fall
/// into strictly lower buckets. Every entry therefore moves at most 64
/// times, and push is O(1).
///
/// Ties need no sequence numbers. A bucket index depends only on the
/// instant and `base`, and moving `base` to a value in bucket `b` keeps
/// every higher bucket's index valid, so all entries for one instant
/// always share a bucket. Pushes append and redistribution drains in
/// order into a single target, so they stay in insertion order.
///
/// Buckets hold 16-byte keys only; payloads stay put in a slab.
struct EventQueue<T> {
    base: u64,
    now: VecDeque<u32>,
    buckets: [Vec<Key>; 64],
    mask: u64,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> EventQueue<T> {
    fn new() -> Self {
        EventQueue {
            base: 0,
            now: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mask: 0,
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Queues `item` at instant `at`, which must not precede the last
    /// popped instant.
    fn push(&mut self, at: u64, item: T) {
        debug_assert!(at >= self.base, "radix queue is monotone");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(item);
                slot
            }
            None => {
                self.slots.push(Some(item));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        if at == self.base {
            self.now.push_back(slot);
        } else {
            let b = bucket(at ^ self.base);
            self.buckets[b].push(Key { at, slot });
            self.mask |= 1 << b;
        }
        self.len += 1;
    }

    /// Pops the earliest item if it is due at or before `deadline`.
    ///
    /// A refused pop leaves `base` where it was, so an item pushed
    /// afterwards between the last popped instant and `deadline` still
    /// comes out first.
    fn pop_until(&mut self, deadline: u64) -> Option<(u64, T)> {
        if self.now.is_empty() {
            if self.mask == 0 {
                return None;
            }
            let b = self.mask.trailing_zeros() as usize;
            let min = self.buckets[b]
                .iter()
                .map(|k| k.at)
                .min()
                .expect("mask marks non-empty buckets");
            if min > deadline {
                return None;
            }
            self.advance(b, min);
        } else if self.base > deadline {
            return None;
        }
        let slot = self.now.pop_front().expect("advance filled `now`");
        let item = self.slots[slot as usize]
            .take()
            .expect("queued slots hold an item");
        self.free.push(slot);
        self.len -= 1;
        Some((self.base, item))
    }

    /// Moves `base` to `min`, the earliest instant, found in bucket `b`.
    fn advance(&mut self, b: usize, min: u64) {
        self.base = min;
        self.mask &= !(1 << b);
        let mut keys = std::mem::take(&mut self.buckets[b]);
        for k in keys.drain(..) {
            if k.at == min {
                self.now.push_back(k.slot);
            } else {
                let i = bucket(k.at ^ min);
                self.buckets[i].push(k);
                self.mask |= 1 << i;
            }
        }
        // Keep a small buffer for the next refill, but hand a large one
        // back: over a run each bucket in turn holds most of the queue,
        // and buffers kept at their high-water marks would add up.
        if keys.capacity() <= KEEP_BUCKET_CAPACITY {
            self.buckets[b] = keys;
        }
    }
}

/// The bucket of an instant whose bits differ from `base` as in `diff`
/// (non-zero): the index of the highest differing bit.
fn bucket(diff: u64) -> usize {
    63 - diff.leading_zeros() as usize
}

/// A deterministic discrete-event simulation.
///
/// Events are closures (or other [`Event`]s) scheduled at virtual
/// instants; [`Simulation::run`]
/// executes them in timestamp order (insertion order on ties) while
/// advancing the clock. Closures receive `&mut Simulation` so they can
/// schedule follow-up events; shared world state lives in
/// `Rc<RefCell<...>>` captured by the closures.
///
/// # Example
///
/// ```
/// use eckv_simnet::{SimDuration, Simulation};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Simulation::new();
/// let order = Rc::new(RefCell::new(Vec::new()));
/// for (label, at) in [("b", 20), ("a", 10)] {
///     let order = order.clone();
///     sim.schedule_in(SimDuration::from_micros(at), move |_| {
///         order.borrow_mut().push(label);
///     });
/// }
/// sim.run();
/// assert_eq!(*order.borrow(), vec!["a", "b"]);
/// ```
pub struct Simulation {
    now: SimTime,
    queue: EventQueue<Box<dyn Event>>,
    executed: u64,
    pending_hwm: usize,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            pending_hwm: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// The most events ever pending at once.
    pub fn pending_hwm(&self) -> usize {
        self.pending_hwm
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Simulation::now`]).
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.schedule_event(at, Box::new(action));
    }

    /// Schedules an already boxed `event` to fire at absolute time `at`.
    /// An event re-queuing itself for a later stage passes its own box
    /// back here, which allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Simulation::now`]).
    pub fn schedule_event(&mut self, at: SimTime, event: Box<dyn Event>) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.queue.push(at.as_nanos(), event);
        self.pending_hwm = self.pending_hwm.max(self.queue.len());
    }

    /// Schedules `action` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F)
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.schedule_at(self.now + delay, action);
    }

    /// Runs until no events remain. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until the queue drains or the clock passes `deadline`.
    /// Events scheduled exactly at `deadline` are executed.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.step_until(deadline.as_nanos()) {}
        // If the queue drained early, the clock simply stays at the last
        // executed event.
        self.now
    }

    /// Executes the next event, if any. Returns whether one ran.
    pub fn step(&mut self) -> bool {
        self.step_until(u64::MAX)
    }

    /// Executes the next event if it is due at or before `deadline`.
    fn step_until(&mut self, deadline: u64) -> bool {
        match self.queue.pop_until(deadline) {
            Some((at, event)) => {
                debug_assert!(at >= self.now.as_nanos(), "clock must be monotonic");
                self.now = SimTime::from_nanos(at);
                self.executed += 1;
                event.fire(self);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cell::RefCell;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut sim = Simulation::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, at_us) in [("late", 30), ("tie1", 10), ("tie2", 10), ("early", 5)] {
            let order = order.clone();
            sim.schedule_in(SimDuration::from_micros(at_us), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["early", "tie1", "tie2", "late"]);
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        sim.schedule_in(SimDuration::from_micros(1), move |sim| {
            let seen3 = seen2.clone();
            seen2.borrow_mut().push(sim.now().as_nanos());
            sim.schedule_in(SimDuration::from_micros(2), move |sim| {
                seen3.borrow_mut().push(sim.now().as_nanos());
            });
        });
        let end = sim.run();
        assert_eq!(*seen.borrow(), vec![1_000, 3_000]);
        assert_eq!(end, SimTime::from_nanos(3_000));
    }

    #[test]
    fn a_typed_event_requeues_its_own_box_in_fifo_order() {
        type Log = Rc<RefCell<Vec<(u64, &'static str)>>>;
        struct Stages {
            left: u32,
            log: Log,
        }
        impl Event for Stages {
            fn fire(mut self: Box<Self>, sim: &mut Simulation) {
                self.log.borrow_mut().push((sim.now().as_nanos(), "stage"));
                if self.left > 0 {
                    self.left -= 1;
                    let at = sim.now() + SimDuration::from_nanos(10);
                    sim.schedule_event(at, self);
                }
            }
        }
        let log: Log = Rc::default();
        let mut sim = Simulation::new();
        sim.schedule_event(
            SimTime::ZERO,
            Box::new(Stages {
                left: 2,
                log: log.clone(),
            }),
        );
        let l = log.clone();
        sim.schedule_at(SimTime::from_nanos(10), move |sim| {
            l.borrow_mut().push((sim.now().as_nanos(), "closure"));
        });
        sim.run();
        // The closure was queued for 10 ns before the event re-queued
        // itself there, so it runs first.
        assert_eq!(
            *log.borrow(),
            vec![(0, "stage"), (10, "closure"), (10, "stage"), (20, "stage")]
        );
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new();
        let count = Rc::new(RefCell::new(0));
        for us in [1u64, 2, 3, 4, 5] {
            let count = count.clone();
            sim.schedule_in(SimDuration::from_micros(us), move |_| {
                *count.borrow_mut() += 1;
            });
        }
        sim.run_until(SimTime::from_nanos(3_000));
        assert_eq!(*count.borrow(), 3);
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(*count.borrow(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_in(SimDuration::from_micros(10), |sim| {
            sim.schedule_at(SimTime::from_nanos(1), |_| {});
        });
        sim.run();
    }

    /// The binary-heap queue the radix queue replaced, kept as the
    /// reference it must agree with.
    struct HeapQueue<T> {
        heap: BinaryHeap<HeapEntry<T>>,
        next_seq: u64,
    }

    struct HeapEntry<T> {
        at: u64,
        seq: u64,
        item: T,
    }

    impl<T> PartialEq for HeapEntry<T> {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl<T> Eq for HeapEntry<T> {}
    impl<T> PartialOrd for HeapEntry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for HeapEntry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            // A max-heap: invert so the earliest instant pops first.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, at: u64, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(HeapEntry { at, seq, item });
        }

        fn pop_until(&mut self, deadline: u64) -> Option<(u64, T)> {
            if self.heap.peek()?.at > deadline {
                return None;
            }
            self.heap.pop().map(|e| (e.at, e.item))
        }
    }

    /// A delay drawn to hit ties, near neighbours, every bucket and the
    /// far future.
    fn delay(rng: &mut SimRng) -> u64 {
        match rng.next_below(6) {
            0 => 0,
            1 => rng.next_below(4),
            2 => rng.next_below(1_000),
            3 => rng.next_below(1_000_000),
            4 => 1 << rng.next_below(62),
            _ => rng.next_below(1 << 40),
        }
    }

    #[test]
    fn radix_queue_pops_like_the_binary_heap() {
        for seed in 0..40u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut radix = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut now = 0u64;
            let mut id = 0u64;
            for _ in 0..2_000 {
                match rng.next_below(10) {
                    // Schedule a burst, as an event handler would.
                    0..=4 => {
                        for _ in 0..=rng.next_below(4) {
                            // Half the bursts aim at a coarse grid of
                            // instants, so one instant collects events
                            // pushed from many different bases.
                            let at = if rng.next_below(2) == 0 {
                                ((now >> 10) + rng.next_below(4)) << 10
                            } else {
                                now.saturating_add(delay(&mut rng))
                            }
                            .max(now);
                            radix.push(at, id);
                            heap.push(at, id);
                            id += 1;
                        }
                    }
                    // Run up to a deadline that may fall between instants.
                    5 => {
                        let deadline = now.saturating_add(delay(&mut rng));
                        loop {
                            let got = radix.pop_until(deadline);
                            assert_eq!(got, heap.pop_until(deadline), "seed {seed}");
                            match got {
                                Some((at, _)) => now = at,
                                None => break,
                            }
                        }
                    }
                    // Step once.
                    _ => {
                        let got = radix.pop_until(u64::MAX);
                        assert_eq!(got, heap.pop_until(u64::MAX), "seed {seed}");
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                }
                assert_eq!(radix.len(), heap.heap.len(), "seed {seed}");
            }
            while let Some(got) = radix.pop_until(u64::MAX) {
                assert_eq!(Some(got), heap.pop_until(u64::MAX), "seed {seed}");
            }
            assert!(heap.heap.is_empty());
        }
    }

    #[test]
    fn simulation_matches_the_heap_reference_with_nested_scheduling() {
        // Events reschedule followers from inside their handlers; the log
        // of (instant, id) must equal the order the reference heap pops
        // the same schedule in.
        type Log = Rc<RefCell<Vec<(u64, u64)>>>;
        fn schedule(sim: &mut Simulation, rng: &Rc<RefCell<SimRng>>, log: &Log, id: u64) {
            let d = delay(&mut rng.borrow_mut()) % (1 << 30);
            let (rng2, log2) = (rng.clone(), log.clone());
            sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                log2.borrow_mut().push((sim.now().as_nanos(), id));
                let children = rng2.borrow_mut().next_below(3);
                for c in 0..children {
                    if id < 3_000 {
                        schedule(sim, &rng2, &log2, id * 3 + c + 1);
                    }
                }
            });
        }
        for seed in 0..10u64 {
            let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(seed)));
            let log: Log = Rc::default();
            let mut sim = Simulation::new();
            for id in 0..20 {
                schedule(&mut sim, &rng, &log, 100_000 + id);
            }
            let mut max_pending = sim.events_pending();
            let mut deadline = 0;
            while sim.events_pending() > 0 {
                deadline += 1 << 27;
                sim.run_until(SimTime::from_nanos(deadline));
                max_pending = max_pending.max(sim.events_pending());
            }
            let log = log.borrow();
            assert_eq!(sim.events_executed(), log.len() as u64);
            assert!(sim.pending_hwm() >= max_pending);
            let mut sorted = log.clone();
            sorted.sort_by_key(|&(at, _)| at);
            assert_eq!(*log, sorted, "seed {seed}: instants run in order");
            // Ties keep their scheduling order: replay the schedule through
            // the heap and compare whole logs.
            let mut heap = HeapQueue::new();
            let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(seed)));
            let mut expect = Vec::new();
            for id in 0..20 {
                let d = delay(&mut rng.borrow_mut()) % (1 << 30);
                heap.push(d, 100_000 + id);
            }
            while let Some((at, id)) = heap.pop_until(u64::MAX) {
                expect.push((at, id));
                let children = rng.borrow_mut().next_below(3);
                for c in 0..children {
                    if id < 3_000 {
                        let d = delay(&mut rng.borrow_mut()) % (1 << 30);
                        heap.push(at + d, id * 3 + c + 1);
                    }
                }
            }
            assert_eq!(*log, expect, "seed {seed}");
        }
    }

    #[test]
    fn run_until_does_not_skip_an_event_scheduled_after_it_stopped() {
        let mut sim = Simulation::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        sim.schedule_at(SimTime::from_nanos(100), move |_| o.borrow_mut().push(100));
        sim.run_until(SimTime::from_nanos(50));
        assert_eq!(sim.events_executed(), 0);
        let o = order.clone();
        sim.schedule_at(SimTime::from_nanos(60), move |_| o.borrow_mut().push(60));
        sim.run();
        assert_eq!(*order.borrow(), vec![60, 100]);
    }

    #[test]
    fn pending_hwm_counts_the_fullest_queue() {
        let mut sim = Simulation::new();
        for us in 1..=5 {
            sim.schedule_in(SimDuration::from_micros(us), |_| {});
        }
        sim.run_until(SimTime::from_nanos(2_000));
        sim.schedule_in(SimDuration::from_micros(1), |_| {});
        sim.run();
        assert_eq!(sim.pending_hwm(), 5);
        assert_eq!(sim.events_executed(), 6);
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<u64> {
            let mut sim = Simulation::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..50u64 {
                let log = log.clone();
                sim.schedule_in(SimDuration::from_nanos((i * 37) % 13), move |sim| {
                    log.borrow_mut().push(sim.now().as_nanos() * 1000 + i);
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }
}
