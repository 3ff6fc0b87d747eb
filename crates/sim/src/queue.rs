//! The event queue: a calendar-queue scheduler.
//!
//! [`EventQueue`] is a *calendar queue* (R. Brown, CACM 1988) with O(1)
//! amortized insert and pop. Events are hashed into rotating day-buckets
//! by timestamp; events more than one "year" (bucket count × bucket
//! width) ahead wait in an overflow heap until the clock comes within a
//! year of them. The bucket count doubles and halves with occupancy and
//! the bucket width is re-estimated from the live event spread on every
//! resize, so the average bucket holds O(1) events across six orders of
//! magnitude of queue size.
//!
//! Events pop strictly by `(time, seq)`, so simultaneous events pop in
//! the order they were scheduled and runs replay deterministically.
//! `tests/queue_equiv.rs` proptests that order against a test-local
//! `BinaryHeap` oracle, simultaneous events included.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The total order events pop in: time first, then insertion sequence
/// (FIFO among simultaneous events).
///
/// The sequence number is a `u64` that increments once per scheduled
/// event and must never wrap: at 10⁹ events/sec it would take ~580 years
/// to overflow, so wrapping is treated as a logic error (debug-asserted
/// at the increment) rather than handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedKey {
    time: SimTime,
    seq: u64,
}

impl PartialOrd for SchedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SchedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A queued event: its key plus its payload.
struct Entry<E> {
    key: SchedKey,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other.key.cmp(&self.key)
    }
}

/// Initial (and minimum) bucket count; always a power of two so the
/// bucket index is a mask, not a modulo.
const MIN_BUCKETS: usize = 4;

/// A calendar-queue scheduler: a priority queue of timestamped events
/// with a monotonic clock, O(1) amortized insert and pop.
///
/// `pop` returns events in nondecreasing `(time, seq)` order and
/// advances [`EventQueue::now`]; scheduling an event before `now` is a
/// logic error and panics, which catches causality bugs at their source.
///
/// # Structure
///
/// * `buckets[i]` holds events whose timestamp hashes to day `i` of the
///   current year (`bucket = (t / width) & mask`), each bucket sorted
///   descending so its minimum is the last element;
/// * events further than one year ahead of `now` wait in `overflow` (a
///   min-heap) and migrate into buckets as the clock approaches them;
/// * on every factor-of-two occupancy change the bucket array resizes
///   and the width is re-estimated from the live event spread, keeping
///   mean occupancy O(1).
pub struct EventQueue<E> {
    /// Each bucket sorted descending by `SchedKey`; min at the tail.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket width in milliseconds (always ≥ 1).
    width: u64,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: usize,
    /// `width * buckets.len()`: the calendar year in milliseconds.
    year: u64,
    /// Events ≥ one year ahead of `now`, as a min-heap.
    overflow: BinaryHeap<Entry<E>>,
    /// Events currently in `buckets` (excludes `overflow`).
    in_buckets: usize,
    /// The current simulated time (the timestamp of the last pop).
    now: SimTime,
    /// The next event's insertion sequence number.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("buckets", &self.buckets.len())
            .field("width_ms", &self.width)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1,
            mask: MIN_BUCKETS - 1,
            year: MIN_BUCKETS as u64,
            overflow: BinaryHeap::new(),
            in_buckets: 0,
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (diagnostics).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — events cannot be
    /// scheduled in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduling into the past: {at} < {now}", now = self.now);
        debug_assert!(self.next_seq != u64::MAX, "event sequence counter exhausted");
        let key = SchedKey { time: at, seq: self.next_seq };
        self.next_seq += 1;
        self.insert(Entry { key, event });
        let n = self.len();
        if n > 2 * self.buckets.len()
            || (n < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS)
        {
            self.resize(n);
        }
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.remove_min()?;
        self.now = entry.key.time;
        let n = self.len();
        if n > 0 && n < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.resize(n);
        }
        Some((entry.key.time, entry.event))
    }

    /// Pops the earliest event only if it is at or before `horizon`.
    ///
    /// Use this to run a simulation to a fixed end time while leaving
    /// later events (e.g. pending renewals) unprocessed.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// The timestamp of the next event, if any.
    ///
    /// Overflow events migrate into buckets lazily (only on
    /// [`Self::pop`]), so after the clock jumps an overflow event can
    /// sit within the current year while a later arrival lands in a
    /// bucket — the answer is the minimum over both stores.
    pub fn peek_time(&self) -> Option<SimTime> {
        let bucketed = (self.in_buckets > 0).then(|| self.locate_min().time);
        let overflow = self.overflow.peek().map(|e| e.key.time);
        match (bucketed, overflow) {
            (Some(b), Some(o)) => Some(b.min(o)),
            (b, o) => b.or(o),
        }
    }

    /// Places an entry into its bucket or the overflow year.
    ///
    /// Invariant: every bucketed entry satisfies `time < insert_now +
    /// year ≤ now + year` (the clock only advances), so a one-year lap
    /// starting at `now`'s bucket always covers every bucketed event.
    fn insert(&mut self, entry: Entry<E>) {
        let t = entry.key.time.as_millis();
        if t - self.now.as_millis() >= self.year {
            self.overflow.push(entry);
            return;
        }
        let bucket = &mut self.buckets[(t / self.width) as usize & self.mask];
        // Sorted descending: find where this key slots so the tail stays
        // the minimum. Most inserts land near the front (later times).
        let pos = bucket.partition_point(|e| e.key > entry.key);
        bucket.insert(pos, entry);
        self.in_buckets += 1;
    }

    /// Moves overflow events that are now within one year of the clock
    /// into their buckets.
    fn migrate_overflow(&mut self) {
        let now = self.now.as_millis();
        while let Some(head) = self.overflow.peek() {
            if head.key.time.as_millis() - now >= self.year {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry");
            let t = entry.key.time.as_millis();
            let bucket = &mut self.buckets[(t / self.width) as usize & self.mask];
            let pos = bucket.partition_point(|e| e.key > entry.key);
            bucket.insert(pos, entry);
            self.in_buckets += 1;
        }
    }

    /// The bucket holding the minimum bucketed entry. Requires
    /// `in_buckets > 0`.
    ///
    /// Scans one calendar lap from `now`'s bucket: window `k` covers
    /// timestamps `[(start+k)·width, (start+k+1)·width)`; the first
    /// bucket whose minimum falls inside its window holds the global
    /// minimum (windows are disjoint and increasing, and the insert
    /// invariant guarantees every bucketed event lies within one lap).
    fn locate_min_bucket(&self) -> usize {
        let start = self.now.as_millis() / self.width;
        for k in 0..=self.buckets.len() as u64 {
            let idx = (start + k) as usize & self.mask;
            if let Some(tail) = self.buckets[idx].last() {
                if tail.key.time.as_millis() < (start + k + 1) * self.width {
                    return idx;
                }
            }
        }
        unreachable!("bucketed event outside its calendar year");
    }

    /// The minimum bucketed key. Requires `in_buckets > 0`.
    fn locate_min(&self) -> SchedKey {
        self.buckets[self.locate_min_bucket()].last().expect("nonempty bucket").key
    }

    /// Removes and returns the overall minimum entry.
    fn remove_min(&mut self) -> Option<Entry<E>> {
        self.migrate_overflow();
        if self.in_buckets > 0 {
            // Bucketed events are all < now + year; overflow events are
            // all ≥ now + year, so the bucket minimum wins outright.
            let idx = self.locate_min_bucket();
            self.in_buckets -= 1;
            self.buckets[idx].pop()
        } else {
            self.overflow.pop()
        }
    }

    /// Rebuilds the calendar for the current occupancy: bucket count is
    /// the next power of two ≥ `n`, width the mean gap between live
    /// events (estimated from their spread), and every event re-hashed.
    /// O(n), amortized O(1) per operation by the factor-of-two trigger.
    fn resize(&mut self, n: usize) {
        let count = n.next_power_of_two().max(MIN_BUCKETS);
        let mut drained: Vec<Entry<E>> = Vec::with_capacity(n);
        for bucket in &mut self.buckets {
            drained.append(bucket);
        }
        drained.extend(self.overflow.drain());

        // Deterministic width estimate in the style of Brown's original:
        // twice the mean gap between the soonest events, so near-term
        // buckets hold O(1) events even when a long tail (e.g. renewals
        // days out) stretches the overall spread. Far-tail events simply
        // ride the overflow year. Simultaneous bursts degenerate to the
        // uniform-spread estimate, then to width 1.
        const SAMPLE: usize = 32;
        let mut soonest: Vec<u64> = Vec::with_capacity(SAMPLE);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for e in &drained {
            let t = e.key.time.as_millis();
            lo = lo.min(t);
            hi = hi.max(t);
            match soonest.binary_search(&t) {
                Ok(pos) | Err(pos) if pos < SAMPLE => {
                    if soonest.len() == SAMPLE {
                        soonest.pop();
                    }
                    soonest.insert(pos, t);
                }
                _ => {}
            }
        }
        let head_spread = soonest.last().unwrap() - soonest[0];
        self.width = if head_spread > 0 {
            (2 * head_spread / soonest.len() as u64).max(1)
        } else {
            ((hi - lo) / n as u64).max(1)
        };
        self.mask = count - 1;
        self.year = self.width.saturating_mul(count as u64);
        if self.buckets.len() != count {
            self.buckets.resize_with(count, Vec::new);
        }
        self.in_buckets = 0;
        for entry in drained {
            self.insert(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(10), 'b');
        assert_eq!(q.pop_until(SimTime::from_secs(5)).map(|(_, e)| e), Some('a'));
        assert_eq!(q.pop_until(SimTime::from_secs(5)), None);
        assert_eq!(q.len(), 1, "later event stays queued");
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'x');
        q.pop();
        q.schedule_in(SimTime::from_secs(3), 'y');
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn far_future_events_ride_the_overflow_year() {
        let mut q = EventQueue::new();
        // Tight cluster now, one event years of bucket-widths away.
        for i in 0..8u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.schedule(SimTime::from_days(400), 99);
        let mut order = Vec::new();
        while let Some((_, e)) = q.pop() {
            order.push(e);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7, 99]);
    }

    #[test]
    fn grows_and_shrinks_through_resizes() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_millis(i * 37 % 50_000), i);
        }
        assert!(q.buckets.len() >= 4096, "grew with occupancy: {}", q.buckets.len());
        let mut last = SimTime::ZERO;
        let mut popped = 0u64;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, 10_000);
    }

    #[test]
    fn sched_key_orders_by_time_then_seq() {
        let a = SchedKey { time: SimTime::from_secs(1), seq: 9 };
        let b = SchedKey { time: SimTime::from_secs(2), seq: 0 };
        let c = SchedKey { time: SimTime::from_secs(1), seq: 10 };
        assert!(a < b && a < c && c < b);
    }
}
