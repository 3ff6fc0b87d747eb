//! Layered coins: the offline-transfer alternative discussed in §7.
//!
//! "Peers can transfer coins by using layers: each time a coin is
//! transferred, the current holder of the coin simply adds another layer
//! of signature to the coin, which serves as a proof of relinquishment.
//! Group signatures can be used to provide fairness without compromising
//! anonymity. No third party is involved in the transfer and thus the
//! scheme is extremely scalable. This scheme suffers two major problems
//! though. First, coins grow in size after each transfer. Second, double
//! spending is easier to commit and harder to defend … To alleviate the
//! size and security problems mentioned above, a maximum number of layers
//! can be imposed."
//!
//! WhoPay uses layered coins as "a lightweight alternative to
//! transfer-via-broker when coin owners are offline".

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey, GroupSignature};
use whopay_crypto::hashio::Transcript;
use whopay_num::{BigUint, SchnorrGroup};

use crate::chain::BindingChain;
use crate::coin::Binding;
use crate::error::CoreError;
use crate::messages::CoinGrant;
use crate::sigcache::SigCache;

/// One relinquishment layer: the previous holder signs the hand-off to
/// the next holder key with both its holder key and its group key.
#[derive(Debug, Clone)]
pub struct Layer {
    /// The next holder's fresh public key.
    pub new_holder_pk: BigUint,
    /// Signature by the previous holder key.
    pub relinquish_sig: DsaSignature,
    /// Group signature by the previous holder (fairness).
    pub group_sig: GroupSignature,
}

impl Layer {
    /// Canonical bytes both signatures cover: the coin, the base binding
    /// sequence, the layer index, and the new holder key.
    pub fn signed_bytes(
        coin_pk: &BigUint,
        base_seq: u64,
        layer_index: u64,
        new_holder_pk: &BigUint,
    ) -> Vec<u8> {
        Transcript::new("whopay/layer/v1")
            .int(coin_pk)
            .u64(base_seq)
            .u64(layer_index)
            .int(new_holder_pk)
            .finish()
            .to_vec()
    }
}

/// A coin travelling offline: the last owner-signed grant plus a chain of
/// holder-signed layers.
#[derive(Debug, Clone)]
pub struct LayeredCoin {
    /// The owner-signed starting point.
    pub base: CoinGrant,
    /// Relinquishment layers, oldest first.
    pub layers: Vec<Layer>,
}

impl LayeredCoin {
    /// Wraps a grant as a zero-layer coin.
    pub fn new(base: CoinGrant) -> Self {
        LayeredCoin { base, layers: Vec::new() }
    }

    /// The holder key currently entitled to spend the coin.
    pub fn current_holder_pk(&self) -> &BigUint {
        self.layers.last().map(|l| &l.new_holder_pk).unwrap_or_else(|| self.base.binding.holder_pk())
    }

    /// Current layer count.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Adds a layer transferring the coin to `new_holder_pk`, signed by
    /// the current holder.
    ///
    /// # Errors
    ///
    /// [`CoreError::TooManyLayers`] past `max_layers`,
    /// [`CoreError::HolderKeyMismatch`] if `holder_keys` is not the
    /// current holder key.
    #[allow(clippy::too_many_arguments)]
    pub fn add_layer<R: Rng + ?Sized>(
        &mut self,
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        holder_keys: &DsaKeyPair,
        group_key: &GroupMemberKey,
        new_holder_pk: BigUint,
        max_layers: usize,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        if self.layers.len() >= max_layers {
            return Err(CoreError::TooManyLayers { max: max_layers });
        }
        if holder_keys.public().element() != self.current_holder_pk() {
            return Err(CoreError::HolderKeyMismatch);
        }
        let index = self.layers.len() as u64;
        let msg = Layer::signed_bytes(
            self.base.minted.coin_pk(),
            self.base.binding.seq(),
            index,
            &new_holder_pk,
        );
        let relinquish_sig = holder_keys.sign(group, &msg, rng);
        let group_sig = group_key.sign(group, gpk, &msg, rng);
        self.layers.push(Layer { new_holder_pk, relinquish_sig, group_sig });
        Ok(())
    }

    /// Verifies the whole chain: mint signature, base binding, and every
    /// layer's two signatures in order.
    pub fn verify(
        &self,
        group: &SchnorrGroup,
        broker: &DsaPublicKey,
        gpk: &GroupPublicKey,
        max_layers: usize,
    ) -> Result<(), CoreError> {
        if self.layers.len() > max_layers {
            return Err(CoreError::TooManyLayers { max: max_layers });
        }
        if !self.base.minted.verify(group, broker) || !self.base.binding.verify(group, broker) {
            return Err(CoreError::BadSignature);
        }
        let mut prev_holder = self.base.binding.holder_pk().clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let msg = Layer::signed_bytes(
                self.base.minted.coin_pk(),
                self.base.binding.seq(),
                i as u64,
                &layer.new_holder_pk,
            );
            if !DsaPublicKey::verify_member(group, &prev_holder, &msg, &layer.relinquish_sig) {
                return Err(CoreError::BadSignature);
            }
            if !gpk.verify(group, &msg, &layer.group_sig) {
                return Err(CoreError::BadGroupSignature);
            }
            prev_holder = layer.new_holder_pk.clone();
        }
        Ok(())
    }

    /// [`LayeredCoin::verify`] with the chain's checks made together:
    /// every DSA check — mint, base binding, and each relinquishment —
    /// through one [`BindingChain`], the layers' group signatures through
    /// [`GroupPublicKey::verify_each`]. Each verdict is the serial one,
    /// and they are replayed in the serial order, so the returned error
    /// is exactly what [`LayeredCoin::verify`] would report.
    pub fn verify_batch(
        &self,
        group: &SchnorrGroup,
        broker: &DsaPublicKey,
        gpk: &GroupPublicKey,
        max_layers: usize,
        cache: Option<&SigCache>,
    ) -> Result<(), CoreError> {
        if self.layers.len() > max_layers {
            return Err(CoreError::TooManyLayers { max: max_layers });
        }
        let mut chain = BindingChain::new(group.clone(), broker.clone());
        chain.push_minted(&self.base.minted);
        chain.push_binding(&self.base.binding);
        let mut prev_holder = self.base.binding.holder_pk().clone();
        let mut layer_msgs = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let msg = Layer::signed_bytes(
                self.base.minted.coin_pk(),
                self.base.binding.seq(),
                i as u64,
                &layer.new_holder_pk,
            );
            chain.push_signature(
                DsaPublicKey::from_element(prev_holder.clone()),
                msg.clone(),
                layer.relinquish_sig.clone(),
                Some(prev_holder.clone()),
            );
            layer_msgs.push(msg);
            prev_holder = layer.new_holder_pk.clone();
        }
        let dsa_ok = chain.verify_each(cache);
        let group_claims: Vec<(&[u8], &GroupSignature)> = layer_msgs
            .iter()
            .zip(&self.layers)
            .map(|(msg, layer)| (&msg[..], &layer.group_sig))
            .collect();
        let gsig_ok = gpk.verify_each(group, &group_claims);
        if !dsa_ok[0] || !dsa_ok[1] {
            return Err(CoreError::BadSignature);
        }
        for i in 0..self.layers.len() {
            if !dsa_ok[2 + i] {
                return Err(CoreError::BadSignature);
            }
            if !gsig_ok[i] {
                return Err(CoreError::BadGroupSignature);
            }
        }
        Ok(())
    }

    /// The base binding, for collapsing the chain back through the owner
    /// (a regular transfer) once it comes online.
    pub fn base_binding(&self) -> &Binding {
        &self.base.binding
    }

    /// Builds the transfer request that collapses the chain: the final
    /// layered holder asks the owner to rebind the coin directly to its
    /// key, presenting the base binding the owner knows about. The owner
    /// verifies the chain (via [`LayeredCoin::verify`]) as the
    /// relinquishment evidence for every intermediate hop.
    ///
    /// # Errors
    ///
    /// [`CoreError::HolderKeyMismatch`] if `final_holder_keys` is not the
    /// chain's current holder.
    pub fn collapse_request<R: Rng + ?Sized>(
        &self,
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        final_holder_keys: &DsaKeyPair,
        group_key: &GroupMemberKey,
        nonce: crate::messages::Nonce,
        rng: &mut R,
    ) -> Result<crate::messages::TransferRequest, CoreError> {
        if final_holder_keys.public().element() != self.current_holder_pk() {
            return Err(CoreError::HolderKeyMismatch);
        }
        // The chain's last holder key becomes the coin's next bound
        // holder; the request presents the base binding (what the owner
        // has on record) and is signed by… the base holder key is gone,
        // so the *final* holder signs, and the owner accepts it on the
        // strength of the verified layer chain instead of the base
        // holder signature. The group signature preserves fairness.
        let new_holder_pk = final_holder_keys.public().element().clone();
        let msg =
            crate::messages::TransferRequest::signed_bytes(&self.base.binding, &new_holder_pk, &nonce);
        Ok(crate::messages::TransferRequest {
            current: self.base.binding.clone(),
            new_holder_pk,
            nonce,
            holder_sig: final_holder_keys.sign(group, &msg, rng),
            group_sig: group_key.sign(group, gpk, &msg, rng),
        })
    }
}
