//! Differential tests: the calendar-queue [`EventQueue`] must produce
//! exactly the pop sequence of a binary-heap oracle — same `(time, seq)`
//! total order, same FIFO tie-breaks — for random schedules, including
//! interleaved schedule/pop traffic and bursts of simultaneous events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use whopay_sim::{sim_rng, EventQueue, SimTime};

/// The oracle: the heap scheduler the calendar queue replaced. A
/// min-heap of `(time, seq, payload)` pops in `(time, seq)` order by
/// construction, since `seq` is unique.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    now: SimTime,
    next_seq: u64,
}

impl HeapQueue {
    fn schedule_in(&mut self, delay: SimTime, payload: u64) {
        self.heap.push(Reverse((self.now + delay, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((time, _, payload)) = self.heap.pop()?;
        self.now = time;
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }
}

/// Replays `script` against both queues in lockstep, comparing every
/// observable: popped (time, payload), clock, lengths, peeked times.
///
/// Script steps: `Schedule(delay_ms)` (relative to the current clock, so
/// it is always legal) and `Pop`.
#[derive(Debug, Clone, Copy)]
enum Step {
    Schedule(u64),
    Pop,
}

fn replay(steps: &[Step]) {
    let mut cal = EventQueue::new();
    let mut heap = HeapQueue::default();
    let mut payload = 0u64;
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Schedule(delay) => {
                let d = SimTime::from_millis(delay);
                cal.schedule_in(d, payload);
                heap.schedule_in(d, payload);
                payload += 1;
            }
            Step::Pop => {
                assert_eq!(cal.pop(), heap.pop(), "pop at step {i}");
            }
        }
        // Peek after *every* step: a pop can jump the clock far enough
        // that an overflow event enters the current year, and the next
        // schedule may bucket a later event — the peek must still see
        // the overflow minimum (the `peek_bug` regression).
        assert_eq!(cal.peek_time(), heap.peek_time(), "peek at step {i}");
        assert_eq!(cal.now(), heap.now, "clock at step {i}");
        assert_eq!(cal.len(), heap.heap.len(), "len at step {i}");
        assert_eq!(cal.scheduled_count(), heap.next_seq);
    }
    // Drain whatever is left: full order equivalence.
    loop {
        let (a, b) = (cal.pop(), heap.pop());
        assert_eq!(a, b, "drain");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #[test]
    fn random_schedules_pop_identically(
        delays in proptest::collection::vec(0u64..500_000, 1..300),
    ) {
        let steps: Vec<Step> = delays.into_iter().map(Step::Schedule).collect();
        replay(&steps);
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_in_lockstep(
        ops in proptest::collection::vec(0u64..1_000_000, 10..400),
    ) {
        // Derive a mixed script deterministically from the input: low
        // bits choose the action, high bits the delay. Clamp delays to a
        // few scales so resizes and the overflow year both trigger.
        let steps: Vec<Step> = ops
            .iter()
            .map(|&v| {
                if v % 3 == 0 {
                    Step::Pop
                } else if v % 7 == 0 {
                    Step::Schedule((v >> 3) * 1000) // far future: overflow year
                } else {
                    Step::Schedule((v >> 3) % 5_000)
                }
            })
            .collect();
        replay(&steps);
    }

    #[test]
    fn simultaneous_bursts_break_ties_fifo(
        burst in 2usize..60,
        t in 0u64..10_000,
        extra in proptest::collection::vec(0u64..10_000, 0..40),
    ) {
        let mut steps: Vec<Step> = Vec::new();
        // A burst of identical timestamps among scattered events.
        for &e in &extra {
            steps.push(Step::Schedule(e));
        }
        for _ in 0..burst {
            steps.push(Step::Schedule(t));
        }
        replay(&steps);
    }
}

/// Exponential inter-arrival traffic shaped like the load simulator's
/// (many short payment gaps, occasional multi-day renewals), driven to
/// full drain.
#[test]
fn loadsim_shaped_traffic_pops_identically() {
    use rand::RngExt;
    let mut rng = sim_rng(0xCA1E);
    let mut steps = Vec::new();
    for i in 0..5_000u64 {
        steps.push(match i % 11 {
            0 => Step::Pop,
            1 => Step::Schedule(259_200_000), // a 3-day renewal
            _ => Step::Schedule(rng.random_range(0..600_000)),
        });
    }
    replay(&steps);
}

/// The calendar queue's causality guard: scheduling before `now` panics
/// after the clock has advanced.
#[test]
#[should_panic(expected = "scheduling into the past")]
fn calendar_queue_still_panics_on_past_scheduling() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_secs(10), ());
    q.pop();
    q.schedule(SimTime::from_secs(9), ());
}
