//! The traced run's endpoints: the same dispatch `service::attach_*`
//! performs, with a span around each call into a layer.
//!
//! `wire.parse` → `wire.to_owned` → `shard.handle_*` | `peer.serve_*` |
//! `micropay.*` → `wire.resp_encode`, all children of the client's
//! `net.deliver` span. What `attach_*` does besides (trace-trailer split,
//! a disabled obs span, the violation check after each dispatch) is not
//! here; `service.overhead_ns` is the measured difference.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::SeedableRng;
use whopay_core::micropay::{MicropayHost, RedeemChainRequest};
use whopay_core::service::{Clock, SharedClock};
use whopay_core::view::RequestView;
use whopay_core::wire::{Request, Response};
use whopay_core::{CoreError, Peer, PurchaseRequest, ShardedBroker, Timestamp};
use whopay_net::{EndpointId, Network};
use whopay_obs::Role;

use crate::trace::within;

fn answer<T>(result: Result<T, CoreError>, wrap: impl FnOnce(T) -> Response) -> Response {
    match result {
        Ok(value) => wrap(value),
        Err(e) => Response::Error(e.to_string()),
    }
}

/// One traced endpoint per shard (compare `attach_shard_endpoints`).
pub fn attach_shards(
    net: &mut Network,
    sharded: Arc<ShardedBroker>,
    clock: SharedClock,
    seed: u64,
) -> Vec<EndpointId> {
    (0..sharded.shard_count())
        .map(|i| {
            let sharded = sharded.clone();
            let clock = clock.clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            let id = net.register_parallel(
                &format!("traced-broker-shard-{i}"),
                move |bytes: &[u8], out: &mut Vec<u8>| {
                    let now = Timestamp(clock.load(Ordering::SeqCst));
                    let parsed = within("wire.parse", || RequestView::parse(bytes));
                    let response = match parsed {
                        Err(e) => Response::Error(e.to_string()),
                        Ok(RequestView::Purchase { owner, coin_pk, identity_sig, group_sig }) => {
                            let req = within("wire.to_owned", || PurchaseRequest {
                                owner,
                                coin_pk: coin_pk.to_biguint(),
                                identity_sig: identity_sig.map(|s| s.to_sig()),
                                group_sig: group_sig.map(|g| g.to_gsig()),
                            });
                            let minted = within("shard.handle_purchase", || {
                                sharded.handle_purchase(&req, &mut rng)
                            });
                            answer(minted, Response::Minted)
                        }
                        Ok(RequestView::Deposit(d)) => {
                            let req = within("wire.to_owned", || d.to_deposit());
                            let receipt =
                                within("shard.handle_deposit", || sharded.handle_deposit(&req, now));
                            answer(receipt, Response::Receipt)
                        }
                        Ok(view @ RequestView::Transfer { downtime: true, .. }) => {
                            let Request::Transfer { request, .. } =
                                within("wire.to_owned", || view.to_owned_request())
                            else {
                                unreachable!("transfer view materializes a transfer")
                            };
                            let grant = within("shard.handle_dt_transfer", || {
                                sharded.handle_downtime_transfer(&request, now, &mut rng)
                            });
                            answer(grant, |g| Response::Grant(Box::new(g)))
                        }
                        Ok(view @ RequestView::Renewal { downtime: true, .. }) => {
                            let Request::Renewal { request, .. } =
                                within("wire.to_owned", || view.to_owned_request())
                            else {
                                unreachable!("renewal view materializes a renewal")
                            };
                            let binding = within("shard.handle_dt_renew", || {
                                sharded.handle_downtime_renewal(&request, now, &mut rng)
                            });
                            answer(binding, Response::Binding)
                        }
                        Ok(RequestView::Sync { peer, challenge, response }) => {
                            let sig = within("wire.to_owned", || response.to_sig());
                            let bindings = within("shard.handle_sync", || {
                                sharded.sync_for_owner(peer, challenge, &sig)
                            });
                            answer(bindings, Response::Bindings)
                        }
                        Ok(RequestView::RedeemChain { commitment, payword }) => {
                            let request = within("wire.to_owned", || RedeemChainRequest {
                                commitment: commitment.to_commitment(),
                                payword,
                            });
                            let receipt =
                                within("shard.handle_redeem", || sharded.handle_redeem_chain(&request));
                            answer(receipt, Response::Redeemed)
                        }
                        Ok(RequestView::BindingProof { coin }) => {
                            let proof =
                                within("shard.handle_proof", || sharded.binding_proof(&coin, &mut rng));
                            match proof {
                                Some(proof) => Response::Proof(Box::new(proof)),
                                None => Response::Error(CoreError::UnknownCoin(coin).to_string()),
                            }
                        }
                        Ok(_) => Response::Error("request not handled by the broker".into()),
                    };
                    within("wire.resp_encode", || response.encode_into(out));
                },
            );
            net.set_role(id, Role::Broker);
            id
        })
        .collect()
}

/// A traced owner-side endpoint (compare `attach_peer`).
pub fn attach_peer(net: &mut Network, peer: Rc<RefCell<Peer>>, clock: Clock, seed: u64) -> EndpointId {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let name = format!("traced-peer-{}", peer.borrow().id());
    let id = net.register_writer(&name, move |_net, bytes: &[u8], out: &mut Vec<u8>| {
        let now = clock.get();
        let parsed = within("wire.parse", || RequestView::parse(bytes));
        let response = match parsed {
            Err(e) => Response::Error(e.to_string()),
            Ok(RequestView::Issue { coin, invite }) => {
                let invite = within("wire.to_owned", || invite.to_invite());
                let grant = within("peer.serve_issue", || {
                    peer.borrow_mut().issue_coin(coin, &invite, now, &mut rng)
                });
                answer(grant, |g| Response::Grant(Box::new(g)))
            }
            Ok(view @ RequestView::Transfer { downtime: false, .. }) => {
                let Request::Transfer { request, .. } =
                    within("wire.to_owned", || view.to_owned_request())
                else {
                    unreachable!("transfer view materializes a transfer")
                };
                let grant = within("peer.serve_transfer", || {
                    peer.borrow_mut().handle_transfer(request, now, &mut rng)
                });
                answer(grant, |g| Response::Grant(Box::new(g)))
            }
            Ok(view @ RequestView::Renewal { downtime: false, .. }) => {
                let Request::Renewal { request, .. } =
                    within("wire.to_owned", || view.to_owned_request())
                else {
                    unreachable!("renewal view materializes a renewal")
                };
                let binding = within("peer.serve_renew", || {
                    peer.borrow_mut().handle_renewal(request, now, &mut rng)
                });
                answer(binding, Response::Binding)
            }
            Ok(_) => Response::Error("request not handled by a peer".into()),
        };
        within("wire.resp_encode", || response.encode_into(out));
    });
    net.set_role(id, Role::Peer);
    id
}

/// A traced micropayment host endpoint (compare `attach_micropay_host`).
pub fn attach_micropay_host(net: &mut Network, host: Rc<RefCell<MicropayHost>>) -> EndpointId {
    let id =
        net.register_writer("traced-micropay-host", move |_net, bytes: &[u8], out: &mut Vec<u8>| {
            let parsed = within("wire.parse", || RequestView::parse(bytes));
            let response = match parsed {
                Err(e) => Response::Error(e.to_string()),
                Ok(RequestView::OpenChain(c)) => {
                    let commitment = within("wire.to_owned", || c.to_commitment());
                    let chain = within("micropay.accept", || host.borrow_mut().open(&commitment));
                    answer(chain, Response::ChainAccepted)
                }
                Ok(RequestView::Tick { chain, payword }) => {
                    let acked = within("micropay.tick", || host.borrow_mut().tick(chain, payword));
                    answer(acked, |(gained, total)| Response::TickAck { gained, total })
                }
                Ok(RequestView::TickBatch { chain, paywords }) => {
                    let acked = within("micropay.tick_batch", || {
                        host.borrow_mut().tick_batch(chain, &paywords)
                    });
                    answer(acked, |(gained, total)| Response::TickAck { gained, total })
                }
                Ok(_) => Response::Error("request not handled by a micropayment host".into()),
            };
            within("wire.resp_encode", || response.encode_into(out));
        });
    net.set_role(id, Role::Peer);
    id
}
