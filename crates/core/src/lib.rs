#![warn(missing_docs)]

//! WhoPay: a scalable and anonymous payment system for peer-to-peer
//! environments.
//!
//! This crate implements the protocol of *WhoPay* (Wei, Chen, Smith, Vo;
//! ICDCS 2006): a PPay-style peer-to-peer payment system where **coins are
//! public keys**. Holdership of a coin is knowledge of the private key
//! matching the coin's current *binding*; fresh holder keys per hop make
//! payments anonymous and unlinkable, while group signatures keep every
//! actor accountable to a trusted judge (the *fairness* property).
//!
//! # Entities
//!
//! * [`Broker`] — mints coins, redeems deposits, stands in for offline
//!   owners (downtime transfers/renewals), detects double deposits.
//! * [`Judge`] — enrolls peers into the group-signature group and opens
//!   signatures when the broker refers fraud.
//! * [`Peer`] — everyone else: coin owners manage the coins they issued;
//!   coin holders spend anonymously by transfer or deposit.
//! * [`CoinShop`] — optional issuer-anonymity middlemen (§5.2).
//!
//! # A complete payment
//!
//! ```
//! use whopay_core::{Broker, Judge, Peer, PurchaseMode, SystemParams, Timestamp};
//! use whopay_crypto::testing;
//!
//! # fn main() -> Result<(), whopay_core::CoreError> {
//! let mut rng = testing::test_rng(7);
//! let params = SystemParams::new(testing::tiny_group().clone());
//! let mut judge = Judge::new(params.group().clone(), &mut rng);
//! let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
//!
//! let gk_a = judge.enroll(whopay_core::PeerId(1), &mut rng);
//! let mut alice = Peer::new(
//!     whopay_core::PeerId(1),
//!     params.clone(),
//!     broker.public_key().clone(),
//!     judge.public_key().clone(),
//!     gk_a,
//!     &mut rng,
//! );
//! let gk_b = judge.enroll(whopay_core::PeerId(2), &mut rng);
//! let mut bob = Peer::new(
//!     whopay_core::PeerId(2),
//!     params.clone(),
//!     broker.public_key().clone(),
//!     judge.public_key().clone(),
//!     gk_b,
//!     &mut rng,
//! );
//! broker.register_peer(alice.id(), alice.public_key().clone());
//! broker.register_peer(bob.id(), bob.public_key().clone());
//!
//! let now = Timestamp(0);
//!
//! // Alice buys a coin…
//! let (req, pending) = alice.create_purchase_request(PurchaseMode::Identified, &mut rng);
//! let minted = broker.handle_purchase(&req, &mut rng)?;
//! let coin = alice.complete_purchase(minted, pending, now, &mut rng)?;
//!
//! // …and issues it to Bob, who deposits it.
//! let (invite, session) = bob.begin_receive(&mut rng);
//! let grant = alice.issue_coin(coin, &invite, now, &mut rng)?;
//! bob.accept_grant(grant, session, now)?;
//! let dep = bob.request_deposit(coin, &mut rng)?;
//! let receipt = broker.handle_deposit(&dep, now)?;
//! bob.complete_deposit(coin);
//! assert_eq!(receipt.value, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Extensions implemented
//!
//! * Real-time double-spending detection over a Chord DHT — [`dsd`].
//! * Issuer anonymity: coin shops ([`shop`]), owner-anonymous coins with
//!   i3 handles ([`PurchaseMode::AnonymousWithHandle`]), lazy
//!   synchronization ([`Peer::adopt_public_state`]).
//! * Layered coins for offline transfer — [`layered`].
//! * PayWord micropayment aggregation over WhoPay — [`micropay`].

pub mod audit;
pub mod broker;
pub mod codec;
pub mod coin;
pub mod dsd;
pub mod error;
pub mod journal;
pub mod judge;
pub mod layered;
pub mod ledger;
pub mod merkle;
pub mod messages;
pub mod micropay;
pub mod params;
pub mod peer;
pub mod replay;
pub mod service;
pub mod shard;
pub mod shop;
pub mod sigcache;
pub mod types;
pub mod view;
pub mod wire;

pub use audit::{Auditor, Invariant, Violation};
pub use broker::{Broker, BrokerStats, FraudCase, PrepareReport, Upcoming};
pub use coin::{Binding, BindingSigner, DoubleSpendEvidence, MintedCoin, OwnerTag, PublicBindingState};
pub use error::CoreError;
pub use journal::{ChainSnapshot, CoinSnapshot, Journal, JournalEntry, JournalOp, StateRecord};
pub use judge::{Judge, RevealedIdentity};
pub use ledger::{BindingProof, CoinLeaf, SignedRoot, StateLedger};
pub use merkle::{InclusionProof, MerkleTree};
pub use messages::{
    CoinGrant, DepositReceipt, DepositRequest, GrantVerdicts, PaymentInvite, PurchaseRequest,
    ReceiveSession, RenewalRequest, TransferRequest,
};
pub use micropay::{
    ChainCommitment, MicropayHost, MicropayReceiver, MicropaySender, RedeemChainRequest,
    RedemptionReceipt,
};
pub use params::SystemParams;
pub use peer::{HeldCoin, OwnedCoin, Peer, PendingPurchase, PurchaseMode};
pub use replay::ServedOp;
pub use shard::{shard_of, shard_of_chain, ShardedBroker};
pub use shop::CoinShop;
pub use sigcache::{CacheKeyer, SigCache};
pub use types::{ChainId, CoinId, PeerId, Timestamp};
pub use view::{RequestView, ResponseView};
