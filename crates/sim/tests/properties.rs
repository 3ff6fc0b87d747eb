//! Property-based tests for the discrete-event engine.

use proptest::prelude::*;
use whopay_sim::{sim_rng, EventQueue, SimTime};

proptest! {
    #[test]
    fn events_pop_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn ties_break_in_insertion_order(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_millis(t), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_never_returns_later_events(times in proptest::collection::vec(0u64..1000, 1..100), horizon in 0u64..1000) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_millis(t), t);
        }
        let horizon = SimTime::from_millis(horizon);
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop_until(horizon) {
            prop_assert!(t <= horizon);
            popped += 1;
        }
        let expected = times.iter().filter(|&&t| SimTime::from_millis(t) <= horizon).count();
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn exponential_samples_are_positive_and_deterministic(seed in any::<u64>(), mean_mins in 1u64..600) {
        use whopay_sim::dist::Exponential;
        let dist = Exponential::from_mean(SimTime::from_mins(mean_mins));
        let a: Vec<u64> = {
            let mut rng = sim_rng(seed);
            (0..20).map(|_| dist.sample_time(&mut rng).as_millis()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = sim_rng(seed);
            (0..20).map(|_| dist.sample_time(&mut rng).as_millis()).collect()
        };
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|&ms| ms >= 1));
    }

    #[test]
    fn on_off_churn_alternates_and_advances(seed in any::<u64>(), mu_m in 1u64..600, nu_m in 1u64..600) {
        use whopay_sim::{LifecycleConfig, LifecycleProcess};
        let mut rng = sim_rng(seed);
        let cfg = LifecycleConfig::on_off(SimTime::from_mins(mu_m), SimTime::from_mins(nu_m));
        let mut churn = LifecycleProcess::start(cfg, &mut rng);
        let mut prev_state = churn.is_connected();
        let mut prev_time = SimTime::ZERO;
        for _ in 0..50 {
            let t = churn.next_transition();
            prop_assert!(t > prev_time);
            let now = churn.step(&mut rng).is_connected();
            prop_assert_ne!(now, prev_state);
            prev_state = now;
            prev_time = t;
        }
    }

    #[test]
    fn sim_time_units_compose(h in 0u64..10_000) {
        prop_assert_eq!(SimTime::from_hours(h), SimTime::from_mins(h * 60));
        prop_assert_eq!(SimTime::from_hours(h).as_hours_f64(), h as f64);
    }
}
