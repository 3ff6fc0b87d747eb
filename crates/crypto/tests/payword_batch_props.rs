//! `SkipVerifier::receive_batch` takes its candidates best-first without
//! sorting (or allocating) when the highest index settles the batch. This
//! suite pins it to the semantics it replaced — try every candidate in
//! descending index order, equals in batch order, stop at the first that
//! extends the chain — on shuffled, duplicated, stale and corrupted
//! batches: same units gained, same `best()`, same `hashes()`.

use proptest::prelude::*;

use whopay_crypto::payword::{Payword, PaywordChain, SkipVerifier};
use whopay_crypto::testing::test_rng;

/// The replaced implementation, kept as the oracle.
fn receive_batch_sorted(verifier: &mut SkipVerifier, paywords: &[Payword]) -> u64 {
    let mut order: Vec<usize> = (0..paywords.len()).collect();
    order.sort_by(|&a, &b| paywords[b].index.cmp(&paywords[a].index));
    let mut gained = 0;
    for i in order {
        gained += verifier.receive(paywords[i]).unwrap_or(0);
        if gained > 0 {
            break;
        }
    }
    gained
}

/// How one batch entry is derived from the chain's genuine paywords.
#[derive(Debug, Clone)]
enum Entry {
    /// The genuine payword at this (wrapped) position.
    Genuine(usize),
    /// A genuine index under a word with one byte flipped.
    Forged(usize, usize),
    /// A genuine word under an index shifted up by this much (possibly
    /// past the capacity).
    Shifted(usize, u64),
}

/// Four genuine entries for every forged and every shifted one.
fn entry() -> impl Strategy<Value = Entry> {
    (0u64..1 << 32).prop_map(|bits| {
        let position = (bits >> 8) as usize % 64;
        match bits % 6 {
            0..=3 => Entry::Genuine(position),
            4 => Entry::Forged(position, (bits >> 16) as usize % 32),
            _ => Entry::Shifted(position, 1 + (bits >> 16) % 39),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn best_first_equals_descending_sort(
        seed in 0u64..1_000,
        capacity in 1u64..200,
        every in 1u64..24,
        already in 0u64..200,
        batches in prop::collection::vec(prop::collection::vec(entry(), 0..12), 1..4),
    ) {
        let mut rng = test_rng(seed);
        let mut chain = PaywordChain::generate(capacity as usize, &mut rng);
        let genuine: Vec<Payword> = (0..capacity).map(|_| chain.spend(1).unwrap()).collect();
        let checkpoints = chain.checkpoints(every);
        let mut new = SkipVerifier::new(chain.root(), capacity, every, checkpoints.clone());
        let mut old = SkipVerifier::new(chain.root(), capacity, every, checkpoints);
        // Start mid-chain so that part of every batch is stale.
        if let Some(&start) = genuine.get((already % capacity) as usize) {
            prop_assert_eq!(new.receive(start), old.receive(start));
        }

        for batch in batches {
            let paywords: Vec<Payword> = batch
                .iter()
                .map(|e| match *e {
                    Entry::Genuine(i) => genuine[i % genuine.len()],
                    Entry::Forged(i, byte) => {
                        let mut p = genuine[i % genuine.len()];
                        p.word[byte] ^= 0x40;
                        p
                    }
                    Entry::Shifted(i, by) => {
                        let p = genuine[i % genuine.len()];
                        Payword { index: p.index + by, word: p.word }
                    }
                })
                .collect();
            let gained = new.receive_batch(&paywords);
            prop_assert_eq!(gained, receive_batch_sorted(&mut old, &paywords));
            prop_assert_eq!(new.best(), old.best());
            prop_assert_eq!(new.hashes(), old.hashes());
            // Replaying the batch is free and gains nothing.
            let hashes = new.hashes();
            prop_assert_eq!(new.receive_batch(&paywords), receive_batch_sorted(&mut old, &paywords));
            prop_assert_eq!(new.hashes(), old.hashes());
            if gained > 0 && paywords.iter().all(|p| p.index <= new.best().index) {
                prop_assert_eq!(new.hashes(), hashes);
            }
        }
    }
}
