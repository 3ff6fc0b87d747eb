//! Replay memos: the idempotency layer that makes retries safe.
//!
//! Under a faulty network the same mutating request can reach a peer or
//! the broker more than once — a duplicated delivery, or a client
//! retrying after a lost/timed-out response whose mutation actually
//! applied. Every mutating handler therefore remembers the *last served
//! operation* per coin: the exact request it honoured and the exact
//! response it produced. When the identical request arrives again, the
//! handler returns the memo instead of double-applying.
//!
//! The idempotency key is the entire request: the retry layer resends
//! byte-identical requests (they are built once and reused across
//! attempts), so full structural equality distinguishes a retry from a
//! genuinely new — and genuinely conflicting — operation. A *different*
//! request against the same coin still takes the normal verification
//! path and is rejected as stale or double-spent as before.
//!
//! At the broker the memo is also the unit of mutation: the served op is
//! what a handler hands `Broker::commit` and what the journal entry of
//! that mutation holds ([`crate::journal::JournalOp::Served`]).

use std::sync::Arc;

use whopay_crypto::payword::Payword;
use whopay_num::BigUint;

use crate::coin::{Binding, MintedCoin};
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, Nonce, PurchaseRequest, RenewalRequest, TransferRequest,
};
use crate::micropay::{ChainCommitment, RedeemChainRequest, RedemptionReceipt};

/// The last mutating operation a handler served for one coin: the
/// honoured request plus the response it produced.
///
/// One memo lives per coin, replaced in place on every served op, so
/// the largest variant's footprint is the per-coin cost either way —
/// boxing would only add indirection to the hot replay comparison.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServedOp {
    /// The broker minted this coin for this purchase request.
    Purchase {
        /// The purchase request that was honoured.
        request: PurchaseRequest,
        /// The minted coin returned to the buyer.
        minted: MintedCoin,
    },
    /// The owner issued the coin's first holder binding.
    Issue {
        /// The payee holder key the grant binds to.
        holder_pk: BigUint,
        /// The payee's challenge nonce.
        nonce: Nonce,
        /// The grant returned to the payee.
        grant: CoinGrant,
    },
    /// A transfer request was honoured (owner online path or broker
    /// downtime path).
    Transfer {
        /// The transfer request that was honoured.
        request: TransferRequest,
        /// The grant returned to the requester.
        grant: CoinGrant,
    },
    /// A renewal request was honoured.
    Renewal {
        /// The renewal request that was honoured.
        request: RenewalRequest,
        /// The renewed binding returned to the requester.
        binding: Binding,
    },
    /// The broker accepted this deposit.
    Deposit {
        /// The deposit request that was honoured.
        request: DepositRequest,
        /// The receipt returned to the depositor.
        receipt: DepositReceipt,
    },
    /// The broker settled this micropayment chain redemption.
    RedeemChain {
        /// The commitment of the redemption request that was honoured —
        /// one copy, shared with the broker's chain record and the
        /// journal entry of the redemption.
        commitment: Arc<ChainCommitment>,
        /// The payword of that request.
        payword: Payword,
        /// The receipt returned to the redeemer.
        receipt: RedemptionReceipt,
    },
}

impl ServedOp {
    /// The memoised mint, if this memo records exactly `request`.
    pub fn replay_purchase(&self, request: &PurchaseRequest) -> Option<&MintedCoin> {
        match self {
            ServedOp::Purchase { request: served, minted } if served == request => Some(minted),
            _ => None,
        }
    }

    /// The memoised first-issue grant, if this memo records exactly
    /// `(holder_pk, nonce)`.
    pub fn replay_issue(&self, holder_pk: &BigUint, nonce: &Nonce) -> Option<&CoinGrant> {
        match self {
            ServedOp::Issue { holder_pk: pk, nonce: n, grant } if pk == holder_pk && n == nonce => {
                Some(grant)
            }
            _ => None,
        }
    }

    /// The memoised transfer grant, if this memo records exactly
    /// `request`.
    pub fn replay_transfer(&self, request: &TransferRequest) -> Option<&CoinGrant> {
        match self {
            ServedOp::Transfer { request: served, grant } if served == request => Some(grant),
            _ => None,
        }
    }

    /// The memoised renewed binding, if this memo records exactly
    /// `request`.
    pub fn replay_renewal(&self, request: &RenewalRequest) -> Option<&Binding> {
        match self {
            ServedOp::Renewal { request: served, binding } if served == request => Some(binding),
            _ => None,
        }
    }

    /// The memoised deposit receipt, if this memo records exactly
    /// `request`.
    pub fn replay_deposit(&self, request: &DepositRequest) -> Option<&DepositReceipt> {
        match self {
            ServedOp::Deposit { request: served, receipt } if served == request => Some(receipt),
            _ => None,
        }
    }

    /// The memoised redemption receipt, if this memo records exactly
    /// `request`.
    pub fn replay_redeem_chain(&self, request: &RedeemChainRequest) -> Option<&RedemptionReceipt> {
        match self {
            ServedOp::RedeemChain { commitment, payword, receipt }
                if *payword == request.payword && **commitment == request.commitment =>
            {
                Some(receipt)
            }
            _ => None,
        }
    }
}
