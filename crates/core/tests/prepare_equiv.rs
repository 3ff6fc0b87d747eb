//! `prepare` is advisory, `serve` authoritative.
//!
//! A generated history of broker requests — honest ones, re-deliveries
//! (of refused requests too, whose verdict the first delivery took),
//! forged holder / binding / identity / group signatures, keys outside
//! the subgroup (zero, the modulus, random elements, and a real key
//! multiplied by `−1` or another small-order element, signed for by
//! whoever holds the real secret so that the plain signature equation
//! holds exactly) as purchased coin keys, as the holder key of a
//! broker-signed or a coin-key-signed binding and as the key a peer is
//! registered under, group signatures with a ciphertext half outside the
//! subgroup (zero, the modulus, a random element, and a half its own
//! signer twisted so that both verification equations hold all the same),
//! forged responses and scalars out of range, stale and superseding
//! bindings, double deposits, coins the broker never minted — is cut into
//! arbitrary groups, from one request to a round of two dozen, so that a
//! shard's share straddles the three chains a lane call takes, and run
//! through four identically seeded sharded brokers:
//!
//! * **batched**: every group is submitted and drained, so each shard
//!   endpoint sees its share in `prepare` and settles it — one exact
//!   chain per untrusted element, eight to a lane call where the host has
//!   the engine — before serving;
//! * **per request**: every request goes through `request_into`, which
//!   shows it to `prepare` as a group of one — a lone deposit or downtime
//!   request settles its chains in one lane call — and then serves it;
//! * **mixed**: each group's first request goes through `request_into`,
//!   and the rest are drained;
//! * **never prepared**: every request goes through `request_into` to an
//!   endpoint wrapped so that `prepare` never reaches it — service as it
//!   is with no verdict parked, the reference the others are held to.
//!
//! All four agree byte for byte on every response, and at the end on
//! every shard's snapshot, counters, journal, committed `(root, seq)` and
//! verdict-cache accounting. No history is excepted. A group that cannot
//! owe a lane call's worth of chains (a lone identified purchase) is not
//! walked and leaves the last call's untaken verdicts parked, so the
//! handlers also meet verdict tables built over other bytes.
//!
//! The same histories have one more reader: after every round each shard
//! of the batched world is recovered from its journal bytes, and the
//! replayed broker must hold the live one's records and counters with no
//! auditor violation — which is the statement that every replayed entry,
//! accepted, refused, replayed or delivered twice, recomputed the root
//! the live broker committed (`recover` re-canonicalises the leaf layout
//! afterwards, so the final root itself is not comparable).

use std::sync::Arc;

use proptest::prelude::*;
use whopay_core::service::{
    attach_client, attach_shard_endpoints, attach_shard_endpoints_obs, shard_endpoints, shared_clock,
};
use whopay_core::wire::{Request, Response};
use whopay_core::{
    Binding, Broker, CoinId, DepositRequest, Journal, Judge, MintedCoin, OwnerTag, PaymentInvite, Peer,
    PeerId, PendingPurchase, PurchaseMode, PurchaseRequest, ReceiveSession, RenewalRequest,
    ShardedBroker, SystemParams, Timestamp, TransferRequest,
};
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey, GroupSignature};
use whopay_crypto::testing::{small_order_element, test_rng, tiny_group, twisted_group_signature};
use whopay_net::{Endpoint, EndpointId, Network};
use whopay_num::BigUint;
use whopay_obs::{Metrics, Obs};

const NOW: Timestamp = Timestamp(0);
const SHARDS: usize = 2;
const PEERS: usize = 4;
/// Coins in play: enough that a round left uncut hands each shard a group
/// in which `Broker::prepare` proves first-seen holder keys.
const COINS: usize = 12;

/// How one world delivers a group of requests.
#[derive(Clone, Copy)]
enum Delivery {
    Batched { threads: usize },
    PerRequest,
    Mixed,
    NeverPrepared,
}

/// A shard endpoint that `prepare` never reaches.
struct NeverPrepares<E>(E);

impl<E: Endpoint> Endpoint for NeverPrepares<E> {
    fn serve(&mut self, request: &[u8], out: &mut Vec<u8>) {
        self.0.serve(request, out);
    }
}

/// One sharded broker behind its endpoints.
struct Server {
    net: Network,
    sharded: Arc<ShardedBroker>,
    eps: Vec<EndpointId>,
    client: EndpointId,
    delivery: Delivery,
    /// The per-request world's registry: its `broker.prepare.*` counters.
    metrics: Arc<Metrics>,
}

impl Server {
    fn new(
        params: &SystemParams,
        gpk: &GroupPublicKey,
        keys: &DsaKeyPair,
        delivery: Delivery,
    ) -> Server {
        let sharded =
            Arc::new(ShardedBroker::with_keys(params.clone(), gpk.clone(), keys.clone(), SHARDS));
        sharded.enable_journals();
        let mut net = Network::new();
        net.set_drain_threads(match delivery {
            Delivery::Batched { threads } => threads,
            _ => 1,
        });
        let (clock, metrics) = (shared_clock(NOW), Arc::new(Metrics::new()));
        let eps = match delivery {
            Delivery::PerRequest => {
                let obs = Obs::with_metrics(metrics.clone());
                attach_shard_endpoints_obs(&mut net, sharded.clone(), clock, 0x5EED, obs)
            }
            Delivery::NeverPrepared => shard_endpoints(sharded.clone(), clock, 0x5EED, Obs::disabled())
                .into_iter()
                .enumerate()
                .map(|(i, ep)| net.register_parallel(&format!("unprepared-{i}"), NeverPrepares(ep)))
                .collect(),
            _ => attach_shard_endpoints(&mut net, sharded.clone(), clock, 0x5EED),
        };
        let client = attach_client(&mut net, "client");
        Server { net, sharded, eps, client, delivery, metrics }
    }

    /// Delivers one group, each frame to its coin's owning shard.
    fn deliver(&mut self, group: &[(CoinId, Vec<u8>)]) -> Vec<Vec<u8>> {
        let to = |coin: &CoinId| self.eps[self.sharded.shard_of_coin(coin)];
        let direct = match self.delivery {
            Delivery::Batched { .. } => 0,
            Delivery::PerRequest | Delivery::NeverPrepared => group.len(),
            Delivery::Mixed => 1,
        };
        let mut out = Vec::with_capacity(group.len());
        for (coin, frame) in &group[..direct.min(group.len())] {
            let mut response = Vec::new();
            self.net.request_into(self.client, to(coin), frame, &mut response).expect("no faults");
            out.push(response);
        }
        for (coin, frame) in &group[direct.min(group.len())..] {
            self.net.submit(self.client, to(coin), frame.clone());
        }
        out.extend(self.net.drain().into_iter().map(|d| d.result.expect("no faults")));
        out
    }
}

/// Where a coin stands, as its clients know it.
enum Stage {
    /// Purchase request built, not yet answered. `poison`: once minted,
    /// the owner issues the coin to a key outside the subgroup (picked as
    /// [`Clients::non_member`] picks).
    Buying {
        pending: PendingPurchase,
        poison: Option<u8>,
    },
    /// `holder` holds it; `owner` minted it.
    Held {
        holder: usize,
    },
    /// A transfer to `next` is in flight.
    Moving {
        holder: usize,
        next: usize,
        session: ReceiveSession,
    },
    /// A renewal is in flight.
    Renewing {
        holder: usize,
    },
    /// A deposit is in flight (`twice`: a second, differently signed
    /// deposit rides along and must be refused as a double spend).
    Depositing {
        holder: usize,
    },
    /// Bound to a key outside the subgroup: every further request fails.
    Poisoned(Box<Poison>),
    Done,
}

/// A coin bound to a key outside the subgroup, by the broker or by its
/// owner.
struct Poison {
    minted: MintedCoin,
    current: Binding,
    /// What it takes to sign for the key, if anybody can.
    twist: Option<Twisted>,
}

/// A key outside the subgroup that somebody can sign for all the same:
/// `y·eta` for a real key `y = g^x` and an element `eta` of small order.
#[derive(Clone)]
struct Twisted {
    real: DsaKeyPair,
    eta: BigUint,
}

struct Coin {
    owner: usize,
    id: Option<CoinId>,
    stage: Stage,
}

struct Clients {
    params: SystemParams,
    gpk: GroupPublicKey,
    spare: GroupMemberKey,
    peers: Vec<Peer>,
    coins: Vec<Coin>,
    rng: rand::rngs::StdRng,
    /// Requests held back for the next round (stale bindings).
    delayed: Vec<(CoinId, Request)>,
    /// A group signature over some other message, for transplanting.
    foreign_gsig: GroupSignature,
    /// Non-member holder keys handed to the broker in transfers, with
    /// what it takes to sign for the twisted ones.
    twists: Vec<(BigUint, Option<Twisted>)>,
}

fn tampered(sig: &DsaSignature) -> DsaSignature {
    DsaSignature::from_parts(sig.r().clone(), sig.s() + &BigUint::one())
}

fn reexpired(b: &Binding) -> Binding {
    Binding::from_parts(
        b.coin_pk().clone(),
        b.holder_pk().clone(),
        b.seq(),
        Timestamp(b.expires().0 + 1),
        b.signer(),
        b.raw_sig().clone(),
    )
}

impl Clients {
    /// A key outside the order-`q` subgroup, by `pick`: zero, the
    /// modulus, past the modulus, a random element of `Z_p*`, or a real
    /// key twisted by [`small_order_element`].
    fn non_member(&mut self, pick: u8) -> (BigUint, Option<Twisted>) {
        let group = self.params.group().clone();
        let p = group.modulus().clone();
        let eta = match pick % 6 {
            0 => return (BigUint::zero(), None),
            1 => return (p, None),
            2 => return (&p + &BigUint::from(7u64), None),
            3 => loop {
                let x = BigUint::random_below(&mut self.rng, &p);
                if !x.is_zero() && !group.is_element(&x) {
                    return (x, None);
                }
            },
            pick => small_order_element(&group, pick == 5),
        };
        let real = DsaKeyPair::generate(&group, &mut self.rng);
        let key = group.elem_ring().mul(real.public().element(), &eta);
        assert!(!group.is_element(&key));
        (key, Some(Twisted { real, eta }))
    }

    /// A group signature the broker must refuse where it is asked for
    /// `sig` over `msg`: one over another message, `sig` with a forged
    /// response or a scalar out of range, with a ciphertext half that is
    /// no unit or no member — or one whose signer twisted a half so that
    /// its membership is the only thing wrong with it.
    fn refused_group_sig(&mut self, msg: &[u8], sig: &GroupSignature) -> GroupSignature {
        let group = self.params.group().clone();
        let (p, q, one) = (group.modulus(), group.order(), BigUint::one());
        let (c1, c2) = (sig.ciphertext().c1().clone(), sig.ciphertext().c2().clone());
        let (e, z_r, z_x) = (sig.challenge_scalar().clone(), sig.z_r().clone(), sig.z_x().clone());
        let with = |c1: BigUint, c2: BigUint, e: &BigUint, z_r: &BigUint, z_x: BigUint| {
            GroupSignature::from_parts(
                ElGamalCiphertext::from_parts(c1, c2),
                e.clone(),
                z_r.clone(),
                z_x,
            )
        };
        match rand::RngExt::random_range(&mut self.rng, 0..10u8) {
            0 => self.foreign_gsig.clone(),
            1 => with(c1, c2, &e, &z_r, group.scalar_ring().add(&z_x, &one)),
            2 => with(c1, c2, &e, &(&z_r + q), z_x),
            3 => with(c1, c2, &(&e + q), &z_r, z_x),
            4 => with(BigUint::zero(), c2, &e, &z_r, z_x),
            5 => with(c1, p.clone(), &e, &z_r, z_x),
            6 => with(BigUint::random_below(&mut self.rng, p), c2, &e, &z_r, z_x),
            7 => with(c1, group.elem_ring().neg(&c2), &e, &z_r, z_x),
            pick => {
                let eta = small_order_element(&group, pick == 9);
                let twists = if pick == 9 { [&eta, &one] } else { [&one, &eta] };
                twisted_group_signature(&group, &self.gpk, msg, twists, &mut self.rng)
            }
        }
    }

    /// A well-formed holder signature over `msg` for a coin bound to a
    /// non-member key. Under a twisted key it is the real key's, chosen so
    /// that the claim `g^a·key^b = R` holds *exactly* (`eta^b = 1`) — the
    /// one thing wrong with it is the key's membership. Otherwise it is
    /// some unrelated key's.
    fn poisoned_signature(&mut self, twist: &Option<Twisted>, msg: &[u8]) -> DsaSignature {
        let group = self.params.group().clone();
        let Some(Twisted { real, eta }) = twist else {
            return DsaKeyPair::generate(&group, &mut self.rng).sign(&group, msg, &mut self.rng);
        };
        loop {
            let sig = real.sign(&group, msg, &mut self.rng);
            let scalar = group.scalar_ring();
            let b = scalar.mul(sig.r(), &scalar.inv(sig.s()).expect("s is a unit"));
            if group.elem_ring().pow(eta, &b).is_one() {
                return sig;
            }
        }
    }

    /// The requests `coin` contributes to this round, chosen by `tag`.
    fn step(&mut self, at: usize, tag: u8, out: &mut Vec<(CoinId, Request)>) {
        let group = self.params.group().clone();
        let (action, mutation) = (tag % 4, tag / 4 % 12);
        let owner = self.coins[at].owner;
        let stage = std::mem::replace(&mut self.coins[at].stage, Stage::Done);
        self.coins[at].stage = match stage {
            Stage::Done if self.coins[at].id.is_none() => {
                let mode =
                    if tag & 0x40 == 0 { PurchaseMode::Identified } else { PurchaseMode::Anonymous };
                let (mut request, pending) =
                    self.peers[owner].create_purchase_request(mode, &mut self.rng);
                let id = CoinId::from_pk(&request.coin_pk);
                self.coins[at].id = Some(id);
                match mutation {
                    2 | 3 => {
                        request.identity_sig = request.identity_sig.as_ref().map(tampered);
                        if mutation == 2 {
                            // Refused, and delivered twice.
                            out.push((id, Request::Purchase(request.clone())));
                        }
                    }
                    4 => {
                        let msg = PurchaseRequest::signed_bytes(&request.owner, &request.coin_pk);
                        request.group_sig =
                            request.group_sig.as_ref().map(|sig| self.refused_group_sig(&msg, sig))
                    }
                    5 => {
                        // A coin key outside the subgroup, identity-signed.
                        let (coin_pk, _) = self.non_member(tag / 48);
                        let tag = OwnerTag::Identified(self.peers[owner].id());
                        let msg = PurchaseRequest::signed_bytes(&tag, &coin_pk);
                        let sig = self.peers[owner].sign_identity_challenge(&msg, &mut self.rng);
                        let junk = PurchaseRequest {
                            owner: tag,
                            coin_pk,
                            identity_sig: Some(sig),
                            group_sig: None,
                        };
                        out.push((CoinId::from_pk(&junk.coin_pk), Request::Purchase(junk)));
                    }
                    6 => out.push((id, Request::Purchase(request.clone()))),
                    _ => {}
                }
                out.push((id, Request::Purchase(request)));
                Stage::Buying { pending, poison: (mutation == 7).then_some(tag / 48) }
            }
            Stage::Held { holder } => {
                let id = self.coins[at].id.expect("held coins are minted");
                let next = (holder + 1 + usize::from(tag >> 6) % (PEERS - 1)) % PEERS;
                match action {
                    // Downtime transfer.
                    0 | 1 => {
                        let (invite, session) = self.peers[next].begin_receive(&mut self.rng);
                        let mut request = self.peers[holder]
                            .request_transfer(id, &invite, &mut self.rng)
                            .expect("holder holds the coin");
                        match mutation {
                            2 | 3 => {
                                request.holder_sig = tampered(&request.holder_sig);
                                if mutation == 2 {
                                    out.push((
                                        id,
                                        Request::Transfer { request: request.clone(), downtime: true },
                                    ));
                                }
                            }
                            4 => {
                                let msg = TransferRequest::signed_bytes(
                                    &request.current,
                                    &request.new_holder_pk,
                                    &request.nonce,
                                );
                                request.group_sig = self.refused_group_sig(&msg, &request.group_sig)
                            }
                            5 => request.current = reexpired(&request.current),
                            6 => out.push((
                                id,
                                Request::Transfer { request: request.clone(), downtime: true },
                            )),
                            7 => {
                                // The same binding again next round, once
                                // the broker has moved past it.
                                let (other, _) = self.peers[owner].begin_receive(&mut self.rng);
                                let late = self.peers[holder]
                                    .request_transfer(id, &other, &mut self.rng)
                                    .expect("holder holds the coin");
                                self.delayed
                                    .push((id, Request::Transfer { request: late, downtime: true }));
                            }
                            8 => {
                                // To a holder key outside the subgroup:
                                // the broker binds the coin to it, and
                                // nothing signed under it is ever taken.
                                let (holder_pk, twist) = self.non_member(tag / 48);
                                self.twists.push((holder_pk.clone(), twist));
                                let mut nonce = [0u8; 32];
                                rand::Rng::fill_bytes(&mut self.rng, &mut nonce);
                                let msg = PaymentInvite::signed_bytes(&holder_pk, &nonce);
                                let group_sig = self.spare.sign(&group, &self.gpk, &msg, &mut self.rng);
                                let invite = PaymentInvite { holder_pk, nonce, group_sig };
                                request = self.peers[holder]
                                    .request_transfer(id, &invite, &mut self.rng)
                                    .expect("holder holds the coin");
                            }
                            _ => {}
                        }
                        out.push((id, Request::Transfer { request, downtime: true }));
                        Stage::Moving { holder, next, session }
                    }
                    // Downtime renewal.
                    2 => {
                        let mut request = self.peers[holder]
                            .request_renewal(id, &mut self.rng)
                            .expect("holder holds the coin");
                        match mutation {
                            2 | 3 => {
                                request.holder_sig = tampered(&request.holder_sig);
                                if mutation == 2 {
                                    out.push((
                                        id,
                                        Request::Renewal { request: request.clone(), downtime: true },
                                    ));
                                }
                            }
                            4 => {
                                let msg = RenewalRequest::signed_bytes(&request.current);
                                request.group_sig = self.refused_group_sig(&msg, &request.group_sig)
                            }
                            5 => request.current = reexpired(&request.current),
                            6 => out.push((
                                id,
                                Request::Renewal { request: request.clone(), downtime: true },
                            )),
                            9 => {
                                // The owner comes back and serves a
                                // transfer itself: the next binding the
                                // broker sees is newer and coin-key-signed.
                                let held =
                                    self.peers[holder].held_coin(&id).expect("held").binding.clone();
                                let _ = self.peers[owner].adopt_broker_binding(held);
                                let (invite, session) = self.peers[next].begin_receive(&mut self.rng);
                                let transfer = self.peers[holder]
                                    .request_transfer(id, &invite, &mut self.rng)
                                    .expect("holder holds the coin");
                                if let Ok(grant) =
                                    self.peers[owner].handle_transfer(transfer, NOW, &mut self.rng)
                                {
                                    self.peers[next]
                                        .accept_grant(grant, session, NOW)
                                        .expect("owner grant");
                                    self.peers[holder].complete_transfer(id);
                                    self.coins[at].stage = Stage::Held { holder: next };
                                    return;
                                }
                            }
                            _ => {}
                        }
                        out.push((id, Request::Renewal { request, downtime: true }));
                        Stage::Renewing { holder }
                    }
                    // Deposit.
                    _ => {
                        let mut request = self.peers[holder]
                            .request_deposit(id, &mut self.rng)
                            .expect("holder holds the coin");
                        match mutation {
                            2 | 3 => {
                                request.holder_sig = tampered(&request.holder_sig);
                                if mutation == 2 {
                                    out.push((id, Request::Deposit(request.clone())));
                                }
                            }
                            4 => {
                                let msg = DepositRequest::signed_bytes(&request.binding);
                                request.group_sig = self.refused_group_sig(&msg, &request.group_sig)
                            }
                            5 => request.binding = reexpired(&request.binding),
                            6 => out.push((id, Request::Deposit(request.clone()))),
                            10 => {
                                // A second, differently signed deposit.
                                let twice = self.peers[holder]
                                    .request_deposit(id, &mut self.rng)
                                    .expect("holder holds the coin");
                                self.delayed.push((id, Request::Deposit(twice)));
                            }
                            11 => {
                                // A coin this broker never minted.
                                let ghost = DsaKeyPair::generate(&group, &mut self.rng);
                                let pk = ghost.public().element().clone();
                                let junk = DepositRequest {
                                    minted: MintedCoin::from_parts(
                                        OwnerTag::Anonymous,
                                        pk.clone(),
                                        request.minted.broker_sig().clone(),
                                    ),
                                    binding: Binding::from_parts(
                                        pk,
                                        request.binding.holder_pk().clone(),
                                        1,
                                        request.binding.expires(),
                                        request.binding.signer(),
                                        request.binding.raw_sig().clone(),
                                    ),
                                    holder_sig: request.holder_sig.clone(),
                                    group_sig: request.group_sig.clone(),
                                };
                                out.push((junk.minted.id(), Request::Deposit(junk)));
                            }
                            _ => {}
                        }
                        out.push((id, Request::Deposit(request)));
                        Stage::Depositing { holder }
                    }
                }
            }
            Stage::Poisoned(poison) => {
                let Poison { minted, current, twist } = &*poison;
                let id = self.coins[at].id.expect("poisoned coins are minted");
                let sign = |clients: &mut Self, msg: &[u8]| {
                    let group_sig = clients.spare.sign(&group, &clients.gpk, msg, &mut clients.rng);
                    (clients.poisoned_signature(twist, msg), group_sig)
                };
                let request = match action {
                    0 | 1 => {
                        let (invite, _) = self.peers[owner].begin_receive(&mut self.rng);
                        let msg =
                            TransferRequest::signed_bytes(current, &invite.holder_pk, &invite.nonce);
                        let (holder_sig, group_sig) = sign(self, &msg);
                        let request = TransferRequest {
                            current: current.clone(),
                            new_holder_pk: invite.holder_pk,
                            nonce: invite.nonce,
                            holder_sig,
                            group_sig,
                        };
                        Request::Transfer { request, downtime: true }
                    }
                    2 => {
                        let msg = RenewalRequest::signed_bytes(current);
                        let (holder_sig, group_sig) = sign(self, &msg);
                        let request =
                            RenewalRequest { current: current.clone(), holder_sig, group_sig };
                        Request::Renewal { request, downtime: true }
                    }
                    _ => {
                        let msg = DepositRequest::signed_bytes(current);
                        let (holder_sig, group_sig) = sign(self, &msg);
                        Request::Deposit(DepositRequest {
                            minted: minted.clone(),
                            binding: current.clone(),
                            holder_sig,
                            group_sig,
                        })
                    }
                };
                out.push((id, request));
                Stage::Poisoned(poison)
            }
            other => other,
        };
    }

    /// Takes in the answer to the request `coin` had in flight.
    fn apply(&mut self, at: usize, response: Response) {
        let owner = self.coins[at].owner;
        let id = self.coins[at].id.expect("a request was sent");
        let stage = std::mem::replace(&mut self.coins[at].stage, Stage::Done);
        self.coins[at].stage = match (stage, response) {
            (Stage::Buying { pending, poison }, Response::Minted(minted)) => {
                self.peers[owner]
                    .complete_purchase(minted, pending, NOW, &mut self.rng)
                    .expect("own coin");
                let holder = (owner + 1) % PEERS;
                let (mut invite, session) = self.peers[holder].begin_receive(&mut self.rng);
                let twist = poison.map(|pick| {
                    // The binding the broker will be shown is the owner's
                    // own, to a key nothing signed under is taken for.
                    let (holder_pk, twist) = self.non_member(pick);
                    let msg = PaymentInvite::signed_bytes(&holder_pk, &invite.nonce);
                    let group = self.params.group();
                    let group_sig = self.spare.sign(group, &self.gpk, &msg, &mut self.rng);
                    invite = PaymentInvite { holder_pk, nonce: invite.nonce, group_sig };
                    twist
                });
                let grant =
                    self.peers[owner].issue_coin(id, &invite, NOW, &mut self.rng).expect("issue");
                match twist {
                    Some(twist) => {
                        let (minted, current) = (grant.minted, grant.binding);
                        Stage::Poisoned(Box::new(Poison { minted, current, twist }))
                    }
                    None => {
                        self.peers[holder].accept_grant(grant, session, NOW).expect("issued grant");
                        Stage::Held { holder }
                    }
                }
            }
            (Stage::Buying { .. }, _) => {
                // Refused: start over with a fresh key.
                self.coins[at].id = None;
                Stage::Done
            }
            (Stage::Moving { holder, next, session }, Response::Grant(grant)) => {
                self.peers[holder].complete_transfer(id);
                let (minted, current) = (grant.minted.clone(), grant.binding.clone());
                match self.peers[next].accept_grant(*grant, session, NOW) {
                    Ok(_) => Stage::Held { holder: next },
                    // Bound to a key outside the subgroup (mutation 8).
                    Err(_) => {
                        let at = self.twists.iter().position(|(key, _)| key == current.holder_pk());
                        let twist = at.and_then(|at| self.twists.swap_remove(at).1);
                        Stage::Poisoned(Box::new(Poison { minted, current, twist }))
                    }
                }
            }
            (Stage::Moving { holder, .. }, _) => Stage::Held { holder },
            (Stage::Renewing { holder }, Response::Binding(binding)) => {
                self.peers[holder].apply_renewal(id, binding).expect("renewed binding");
                Stage::Held { holder }
            }
            (Stage::Renewing { holder }, _) => Stage::Held { holder },
            (Stage::Depositing { holder }, Response::Receipt(_)) => {
                self.peers[holder].complete_deposit(id);
                // The slot starts over with a fresh coin.
                self.coins[at].id = None;
                Stage::Done
            }
            (Stage::Depositing { holder }, _) => Stage::Held { holder },
            (other, _) => other,
        };
    }
}

/// What one shard looks like from outside, for comparison.
fn shard_state(server: &Server, i: usize) -> String {
    let broker = server.sharded.lock_shard(i);
    let cache = broker.sig_cache();
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\ncache {} hits {} misses {} held",
        broker.snapshot(),
        broker.stats(),
        broker.committed_root(),
        broker.journal().map(|j| j.to_bytes()),
        cache.hits(),
        cache.misses(),
        cache.len(),
    )
}

/// Runs the history `tags` encodes; returns the broker counters summed
/// over shards and the chains the per-request world's `prepare` handed to
/// lane calls (for the coverage checks). With `twisted_registrations`
/// the first two peers are on the brokers' books under their identity
/// key times an element of small order — of order two, and of the least
/// odd order there is: no subgroup member, and yet the key their identity
/// signatures are verified under, as they stand.
fn run(tags: &[u8], threads: usize, twisted_registrations: bool) -> (whopay_core::BrokerStats, u64) {
    let mut rng = test_rng(0x9E7A1);
    let params = SystemParams::new(tiny_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let keys = DsaKeyPair::generate(&group, &mut rng);
    let mut servers = [
        Server::new(&params, &gpk, &keys, Delivery::Batched { threads }),
        Server::new(&params, &gpk, &keys, Delivery::PerRequest),
        Server::new(&params, &gpk, &keys, Delivery::Mixed),
        Server::new(&params, &gpk, &keys, Delivery::NeverPrepared),
    ];
    let peers: Vec<Peer> = (0..PEERS as u64)
        .map(|id| {
            let gk = judge.enroll(PeerId(id), &mut rng);
            let peer =
                Peer::new(PeerId(id), params.clone(), keys.public().clone(), gpk.clone(), gk, &mut rng);
            // The last peer stays unregistered: its identified purchases
            // are refused as coming from an unknown peer.
            if (id as usize) < PEERS - 1 {
                let key = match twisted_registrations && id < 2 {
                    true => DsaPublicKey::from_element(
                        group
                            .elem_ring()
                            .mul(peer.public_key().element(), &small_order_element(&group, id == 1)),
                    ),
                    false => peer.public_key().clone(),
                };
                assert_eq!(group.is_element(key.element()), !(twisted_registrations && id < 2));
                servers.iter().for_each(|s| s.sharded.register_peer(PeerId(id), key.clone()));
            }
            peer
        })
        .collect();
    let spare = judge.enroll(PeerId(99), &mut rng);
    let foreign_gsig = spare.sign(&group, &gpk, b"some other message", &mut rng);
    let coins = (0..COINS).map(|i| Coin { owner: i % PEERS, id: None, stage: Stage::Done }).collect();
    let mut clients = Clients {
        params,
        gpk,
        spare,
        peers,
        coins,
        rng,
        delayed: Vec::new(),
        foreign_gsig,
        twists: Vec::new(),
    };

    for round in tags.chunks(COINS + 2) {
        // The round's requests: what was held back, then one step per coin.
        let mut requests: Vec<(CoinId, Request)> = std::mem::take(&mut clients.delayed);
        let mut asked_by: Vec<Option<usize>> = vec![None; requests.len()];
        for (at, &tag) in round.iter().enumerate().take(COINS) {
            let before = requests.len();
            clients.step(at, tag, &mut requests);
            asked_by.resize(requests.len(), None);
            // The coin's own request is the last one its step pushed.
            if requests.len() > before && !matches!(clients.coins[at].stage, Stage::Poisoned(_)) {
                *asked_by.last_mut().expect("just pushed") = Some(at);
            }
        }
        // Cut into groups at the tags' low bits.
        let frames: Vec<(CoinId, Vec<u8>)> = requests.iter().map(|(c, r)| (*c, r.encode())).collect();
        let cut = |at: usize| u16::from(round.get(at).copied().unwrap_or(0));
        let cuts = cut(COINS) | cut(COINS + 1) << 8;
        let mut responses = Vec::with_capacity(frames.len());
        let mut start = 0;
        for end in 1..=frames.len() {
            if end == frames.len() || cuts >> (end % 16) & 1 == 1 {
                let group = &frames[start..end];
                let [batched, single, mixed, unprepared] = &mut servers;
                let got = unprepared.deliver(group);
                assert_eq!(got, single.deliver(group), "never prepared vs per request");
                assert_eq!(got, batched.deliver(group), "never prepared vs batched");
                assert_eq!(got, mixed.deliver(group), "never prepared vs mixed");
                responses.extend(got);
                start = end;
            }
        }
        for (asked, bytes) in asked_by.into_iter().zip(responses) {
            if let Some(at) = asked {
                clients.apply(at, Response::decode(&bytes).expect("own server's encoding"));
            }
        }
        // Live ≡ replay: the history so far, read back from the journal.
        for i in 0..SHARDS {
            let bytes = servers[0].sharded.journal_bytes(i).expect("journals are on");
            let journal = Journal::from_bytes(&bytes).expect("own journal decodes");
            let replayed =
                Broker::recover(clients.params.clone(), clients.gpk.clone(), keys.clone(), &journal);
            let live = servers[0].sharded.lock_shard(i);
            assert_eq!(replayed.snapshot(), live.snapshot(), "shard {i}: replayed records");
            assert_eq!(replayed.stats(), live.stats(), "shard {i}: replayed counters");
            assert!(replayed.audit().ok(), "shard {i}: {:?}", replayed.audit().violations());
        }
    }
    for i in 0..SHARDS {
        let want = shard_state(&servers[3], i);
        assert_eq!(want, shard_state(&servers[1], i), "shard {i}, per request");
        assert_eq!(want, shard_state(&servers[0], i), "shard {i}, batched");
        assert_eq!(want, shard_state(&servers[2], i), "shard {i}, mixed");
    }
    assert!(servers.iter().all(|s| s.sharded.audit_ok()));
    let counters = servers[1].metrics.report().counters;
    let in_lanes = counters.get("broker.prepare.lanes_filled").copied().unwrap_or(0);
    (servers[0].sharded.stats(), in_lanes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepared_and_per_request_service_agree(
        tags in proptest::collection::vec(any::<u8>(), 28..168),
        two_threads in any::<bool>(),
        twisted_registrations in any::<bool>(),
    ) {
        run(&tags, if two_threads { 2 } else { 1 }, twisted_registrations);
    }
}

/// A fixed history long enough to walk every kind of request the
/// generator knows through the brokers, so the property above cannot
/// pass by never reaching a refusal.
#[test]
fn the_generated_histories_reach_every_kind_of_outcome() {
    let tags: Vec<u8> = (0..1680u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    let (stats, in_lanes) = run(&tags, 1, false);
    // Requests served one at a time walk their chains in lanes too, where
    // the host has the engine.
    assert_eq!(in_lanes > 0, tiny_group().lane_plan(8).0 > 0, "{in_lanes} chains in lanes");
    assert!(stats.purchases > 10, "{stats:?}");
    assert!(stats.deposits > 3, "{stats:?}");
    assert!(stats.downtime_transfers > 10, "{stats:?}");
    assert!(stats.downtime_renewals > 3, "{stats:?}");
    assert!(stats.replays > 3, "{stats:?}");
    assert!(stats.rejections > 20, "{stats:?}");
}

/// Coins bound to the null key and to a twisted key `−y` (whose holder
/// signs so that the plain equation holds exactly), deposited and
/// transferred in the same drain cycles as deposits and transfers of
/// other coins under forged holder signatures. Every one of them is
/// refused, batched or not.
#[test]
fn a_null_or_twisted_holder_key_next_to_forgeries_changes_no_verdict() {
    // One tag per coin, then the two cut bytes (zero: one group per round,
    // six requests or so to each shard).
    const BUY: u8 = 0;
    const BUY_ANONYMOUSLY: u8 = 96;
    const RENEW: u8 = 2;
    const TRANSFER: u8 = 0;
    const DEPOSIT: u8 = 3;
    const TRANSFER_TO_NULL_KEY: u8 = 32;
    const TRANSFER_TO_TWISTED_KEY: u8 = 32 + 48 * 4;
    const FORGED_TRANSFER: u8 = 12;
    const FORGED_DEPOSIT: u8 = 15;
    // Every fourth coin's owner is the unregistered peer.
    const B: u8 = BUY;
    const A: u8 = BUY_ANONYMOUSLY;
    const FD: u8 = FORGED_DEPOSIT;
    const FT: u8 = FORGED_TRANSFER;
    let tags = [
        [B, B, B, A, B, B, B, A, B, B, B, A, 0, 0],
        [
            TRANSFER_TO_NULL_KEY,
            TRANSFER_TO_TWISTED_KEY,
            RENEW,
            RENEW,
            RENEW,
            RENEW,
            RENEW,
            RENEW,
            RENEW,
            RENEW,
            RENEW,
            RENEW,
            0,
            0,
        ],
        [DEPOSIT, TRANSFER, FD, FD, FD, FD, FD, FT, FT, FT, FT, FT, 0, 0],
        [TRANSFER, DEPOSIT, FT, FT, FT, FT, FT, FD, FD, FD, FD, FD, 0, 0],
    ];
    for threads in [1, 2] {
        let (stats, _) = run(&tags.concat(), threads, false);
        assert_eq!(
            (stats.purchases, stats.downtime_transfers, stats.downtime_renewals),
            (12, 2, 10),
            "{stats:?}"
        );
        assert_eq!((stats.deposits, stats.rejections, stats.replays), (0, 24, 0), "{stats:?}");
    }
}

/// Peers registered under a key outside the subgroup buy coins, four
/// rounds of one group each. The handler verifies an identity signature
/// under the registered key as it stands, so some of these purchases go
/// through and some do not — and `prepare`, whose chain over such a key
/// ends in "no member", has no verdict to park for either kind.
#[test]
fn a_registered_key_outside_the_subgroup_verifies_as_it_stands() {
    // Every tag zero: an identified purchase for a slot without a coin,
    // an honest downtime transfer for a held one; no cuts.
    let tags = [0u8; 4 * (COINS + 2)];
    for threads in [1, 2] {
        let (stats, _) = run(&tags, threads, true);
        // Minted: the honestly registered peer's three coins and, a round
        // or three late, all six of the other two's. Refused: the
        // unregistered peer's three purchases each round, and five
        // identity signatures the twist did not cancel out of.
        assert_eq!((stats.purchases, stats.rejections), (3 + 6, 4 * 3 + 5), "{stats:?}");
    }
}
