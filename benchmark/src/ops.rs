//! Client-side calls, in the three ways a run can make them.
//!
//! * [`Calls::Via`]: the repo's `service::*_via` helpers, as every
//!   end-to-end number uses them.
//! * [`Calls::ViaObs`]: the `*_via_obs` flavours with a live context, for
//!   the cost of the repo's own client and dispatch spans.
//! * [`Calls::Hand`]: the same public functions the helpers call, driven
//!   by hand with a benchmark span around each (`wire.encode` →
//!   `net.deliver` → `wire.resp_decode`), for the per-layer budget.

use std::cell::Cell;

use rand::Rng;
use whopay_core::codec;
use whopay_core::ledger::BindingProof;
use whopay_core::micropay::{ChainCommitment, RedeemChainRequest, RedemptionReceipt};
use whopay_core::service::{self, CallError};
use whopay_core::wire::{Request, Response};
use whopay_core::{
    Binding, ChainId, CoinGrant, CoinId, CoreError, DepositReceipt, DepositRequest, PaymentInvite,
    Peer, PurchaseMode, RenewalRequest, Timestamp, TransferRequest,
};
use whopay_crypto::payword::Payword;
use whopay_net::{EndpointId, Network};
use whopay_obs::Obs;

use crate::trace::within;

/// How client calls are made (see the module docs).
#[derive(Clone)]
pub enum Calls {
    Via,
    ViaObs(Obs),
    Hand,
}

thread_local! {
    /// Request bytes, response bytes and exchanges seen by [`exchange`]
    /// and [`tally`] since [`take_tally`].
    static TALLY: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Counts one exchange's frame sizes towards `wire.req_bytes` and
/// `wire.resp_bytes`.
pub fn tally(request_len: usize, response_len: usize) {
    TALLY.with(|t| {
        let (req, resp, n) = t.get();
        t.set((req + request_len as u64, resp + response_len as u64, n + 1));
    });
}

/// `(request bytes, response bytes, exchanges)` since the last call.
pub fn take_tally() -> (u64, u64, u64) {
    TALLY.with(|t| t.replace((0, 0, 0)))
}

/// One hand-driven exchange: what `service`'s private `call_traced` does
/// between the client-side build and complete steps.
pub fn exchange(
    net: &mut Network,
    from: EndpointId,
    to: EndpointId,
    request: &Request,
) -> Result<Response, CallError> {
    let mut req_buf = codec::pooled();
    within("wire.encode", || request.encode_into(&mut req_buf));
    let mut resp_buf = codec::pooled();
    within("net.deliver", || net.request_into(from, to, &req_buf, &mut resp_buf))
        .map_err(CallError::Network)?;
    tally(req_buf.len(), resp_buf.len());
    match within("wire.resp_decode", || Response::decode(&resp_buf)).map_err(CallError::Protocol)? {
        Response::Error(e) => Err(CallError::Remote(e)),
        other => Ok(other),
    }
}

fn unexpected<T>() -> Result<T, CallError> {
    Err(CallError::Protocol(CoreError::Malformed))
}

impl Calls {
    /// `purchase_via` creates the coin key inside the call, so the caller
    /// cannot route by coin; any shard endpoint serves any coin (the
    /// router locks the owning shard), and every mode does the same.
    pub fn purchase<R: Rng + ?Sized>(
        &self,
        net: &mut Network,
        me: EndpointId,
        broker_ep: EndpointId,
        peer: &mut Peer,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinId, CallError> {
        let mode = PurchaseMode::Identified;
        match self {
            Calls::Via => service::purchase_via(net, me, broker_ep, peer, mode, now, rng),
            Calls::ViaObs(obs) => {
                service::purchase_via_obs(net, me, broker_ep, peer, mode, now, rng, obs)
            }
            Calls::Hand => {
                let (req, pending) =
                    within("peer.build_purchase", || peer.create_purchase_request(mode, rng));
                match exchange(net, me, broker_ep, &Request::Purchase(req))? {
                    Response::Minted(minted) => within("peer.complete_purchase", || {
                        peer.complete_purchase(minted, pending, now, rng)
                    })
                    .map_err(CallError::Protocol),
                    _ => unexpected(),
                }
            }
        }
    }

    pub fn issue(
        &self,
        net: &mut Network,
        me: EndpointId,
        owner_ep: EndpointId,
        coin: CoinId,
        invite: &PaymentInvite,
    ) -> Result<CoinGrant, CallError> {
        match self {
            Calls::Via => service::request_issue_via(net, me, owner_ep, coin, invite),
            Calls::ViaObs(obs) => service::request_issue_via_obs(net, me, owner_ep, coin, invite, obs),
            Calls::Hand => {
                match exchange(net, me, owner_ep, &Request::Issue { coin, invite: invite.clone() })? {
                    Response::Grant(grant) => Ok(*grant),
                    _ => unexpected(),
                }
            }
        }
    }

    pub fn transfer(
        &self,
        net: &mut Network,
        me: EndpointId,
        target_ep: EndpointId,
        request: TransferRequest,
        downtime: bool,
    ) -> Result<CoinGrant, CallError> {
        match self {
            Calls::Via => service::request_transfer_via(net, me, target_ep, request, downtime),
            Calls::ViaObs(obs) => {
                service::request_transfer_via_obs(net, me, target_ep, request, downtime, obs)
            }
            Calls::Hand => {
                match exchange(net, me, target_ep, &Request::Transfer { request, downtime })? {
                    Response::Grant(grant) => Ok(*grant),
                    _ => unexpected(),
                }
            }
        }
    }

    pub fn renewal(
        &self,
        net: &mut Network,
        me: EndpointId,
        target_ep: EndpointId,
        request: RenewalRequest,
        downtime: bool,
    ) -> Result<Binding, CallError> {
        match self {
            Calls::Via => service::request_renewal_via(net, me, target_ep, request, downtime),
            Calls::ViaObs(obs) => {
                service::request_renewal_via_obs(net, me, target_ep, request, downtime, obs)
            }
            Calls::Hand => match exchange(net, me, target_ep, &Request::Renewal { request, downtime })?
            {
                Response::Binding(binding) => Ok(binding),
                _ => unexpected(),
            },
        }
    }

    pub fn deposit(
        &self,
        net: &mut Network,
        me: EndpointId,
        broker_ep: EndpointId,
        request: DepositRequest,
    ) -> Result<DepositReceipt, CallError> {
        match self {
            Calls::Via => service::deposit_via(net, me, broker_ep, request),
            Calls::ViaObs(obs) => service::deposit_via_obs(net, me, broker_ep, request, obs),
            Calls::Hand => match exchange(net, me, broker_ep, &Request::Deposit(request))? {
                Response::Receipt(receipt) => Ok(receipt),
                _ => unexpected(),
            },
        }
    }

    pub fn binding_proof(
        &self,
        net: &mut Network,
        me: EndpointId,
        broker_ep: EndpointId,
        coin: CoinId,
    ) -> Result<BindingProof, CallError> {
        match self {
            Calls::Via => service::binding_proof_via(net, me, broker_ep, coin),
            Calls::ViaObs(obs) => service::binding_proof_via_obs(net, me, broker_ep, coin, obs),
            Calls::Hand => match exchange(net, me, broker_ep, &Request::BindingProof { coin })? {
                Response::Proof(proof) if proof.leaf.coin == coin => Ok(*proof),
                _ => unexpected(),
            },
        }
    }

    pub fn sync<R: Rng + ?Sized>(
        &self,
        net: &mut Network,
        me: EndpointId,
        broker_ep: EndpointId,
        peer: &mut Peer,
        rng: &mut R,
    ) -> Result<usize, CallError> {
        match self {
            Calls::Via => service::sync_via(net, me, broker_ep, peer, rng),
            Calls::ViaObs(obs) => service::sync_via_obs(net, me, broker_ep, peer, rng, obs),
            Calls::Hand => {
                let req = within("peer.build_sync", || {
                    let mut challenge = [0u8; 32];
                    rng.fill_bytes(&mut challenge);
                    let response = peer.sign_identity_challenge(&challenge, rng);
                    Request::Sync { peer: peer.id(), challenge: challenge.to_vec(), response }
                });
                match exchange(net, me, broker_ep, &req)? {
                    Response::Bindings(bindings) => within("peer.adopt_bindings", || {
                        let mut adopted = 0;
                        for b in bindings {
                            if peer.adopt_broker_binding(b).map_err(CallError::Protocol)? {
                                adopted += 1;
                            }
                        }
                        Ok(adopted)
                    }),
                    _ => unexpected(),
                }
            }
        }
    }

    pub fn open_chain(
        &self,
        net: &mut Network,
        me: EndpointId,
        host_ep: EndpointId,
        commitment: ChainCommitment,
    ) -> Result<ChainId, CallError> {
        match self {
            Calls::Via => service::open_chain_via(net, me, host_ep, commitment),
            Calls::ViaObs(obs) => service::open_chain_via_obs(net, me, host_ep, commitment, obs),
            Calls::Hand => {
                let expected = commitment.chain_id();
                match exchange(net, me, host_ep, &Request::OpenChain(commitment))? {
                    Response::ChainAccepted(chain) if chain == expected => Ok(chain),
                    _ => unexpected(),
                }
            }
        }
    }

    #[inline]
    pub fn tick(
        &self,
        net: &mut Network,
        me: EndpointId,
        host_ep: EndpointId,
        chain: ChainId,
        payword: Payword,
    ) -> Result<(u64, u64), CallError> {
        match self {
            Calls::Via => service::tick_via(net, me, host_ep, chain, payword),
            Calls::ViaObs(obs) => service::tick_via_obs(net, me, host_ep, chain, payword, obs),
            Calls::Hand => match exchange(net, me, host_ep, &Request::Tick { chain, payword })? {
                Response::TickAck { gained, total } => Ok((gained, total)),
                _ => unexpected(),
            },
        }
    }

    pub fn tick_batch(
        &self,
        net: &mut Network,
        me: EndpointId,
        host_ep: EndpointId,
        chain: ChainId,
        paywords: Vec<Payword>,
    ) -> Result<(u64, u64), CallError> {
        match self {
            Calls::Via => service::tick_batch_via(net, me, host_ep, chain, paywords),
            Calls::ViaObs(obs) => service::tick_batch_via_obs(net, me, host_ep, chain, paywords, obs),
            Calls::Hand => match exchange(net, me, host_ep, &Request::TickBatch { chain, paywords })? {
                Response::TickAck { gained, total } => Ok((gained, total)),
                _ => unexpected(),
            },
        }
    }

    pub fn redeem(
        &self,
        net: &mut Network,
        me: EndpointId,
        broker_ep: EndpointId,
        request: RedeemChainRequest,
    ) -> Result<RedemptionReceipt, CallError> {
        match self {
            Calls::Via => service::redeem_chain_via(net, me, broker_ep, request),
            Calls::ViaObs(obs) => service::redeem_chain_via_obs(net, me, broker_ep, request, obs),
            Calls::Hand => {
                let chain = request.commitment.chain_id();
                match exchange(net, me, broker_ep, &Request::RedeemChain(request))? {
                    Response::Redeemed(receipt) if receipt.chain == chain => Ok(receipt),
                    _ => unexpected(),
                }
            }
        }
    }
}
