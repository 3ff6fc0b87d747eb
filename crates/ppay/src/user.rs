//! PPay peers: coin owners and holders.

use std::collections::HashMap;

use rand::Rng;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey};
use whopay_num::SchnorrGroup;

use crate::broker::Broker;
use crate::coin::{Assignment, BaseCoin, SerialNumber};

/// A PPay user identity (public in every PPay message — the system's
/// defining lack of anonymity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u64);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user{}", self.0)
    }
}

/// Errors from user-side protocol steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserError {
    /// The user does not own this coin.
    NotOwner(SerialNumber),
    /// The user does not hold this coin.
    NotHolder(SerialNumber),
    /// The transfer request's claimed holder does not match the owner's
    /// record — an attempted double spend or replay.
    HolderMismatch {
        /// Who the owner believes holds the coin.
        expected: UserId,
        /// Who claimed to hold it.
        claimed: UserId,
    },
    /// A signature failed to verify.
    BadSignature,
}

impl std::fmt::Display for UserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UserError::NotOwner(sn) => write!(f, "not the owner of coin {sn}"),
            UserError::NotHolder(sn) => write!(f, "not the holder of coin {sn}"),
            UserError::HolderMismatch { expected, claimed } => {
                write!(f, "transfer from {claimed} but coin is held by {expected}")
            }
            UserError::BadSignature => f.write_str("signature verification failed"),
        }
    }
}

impl std::error::Error for UserError {}

/// Per-owned-coin state the owner maintains.
#[derive(Debug, Clone)]
struct OwnedCoinState {
    coin: BaseCoin,
    holder: UserId,
    seq: u64,
}

/// A transfer request `{W, CV}skV` the holder sends to the coin owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRequest {
    /// The assignment proving the sender holds the coin.
    pub current: Assignment,
    /// The intended new holder.
    pub to: UserId,
    /// Holder's signature over (current, to).
    pub holder_sig: whopay_crypto::dsa::DsaSignature,
}

impl TransferRequest {
    /// Canonical bytes the holder signs.
    pub fn signed_bytes(current: &Assignment, to: UserId) -> Vec<u8> {
        whopay_crypto::hashio::Transcript::new("ppay/transfer-request/v1")
            .bytes(&Assignment::signed_bytes(current.coin(), current.holder(), current.seq()))
            .u64(to.0)
            .finish()
            .to_vec()
    }
}

/// A PPay peer: wallet of held coins, registry of owned coins, and the
/// audit trail of relinquishment proofs.
#[derive(Debug)]
pub struct User {
    id: UserId,
    group: SchnorrGroup,
    keys: DsaKeyPair,
    /// Coins this user owns (created for it by the broker).
    owned: HashMap<SerialNumber, OwnedCoinState>,
    /// Coins this user currently holds (can spend).
    wallet: HashMap<SerialNumber, Assignment>,
    /// Relinquishment proofs kept "in order to later prove that V has
    /// relinquished the holdership of the coin, in case of a dispute".
    audit_trail: Vec<TransferRequest>,
}

impl User {
    /// Creates a user with a fresh key pair.
    pub fn new<R: Rng + ?Sized>(id: UserId, group: SchnorrGroup, rng: &mut R) -> Self {
        let keys = DsaKeyPair::generate(&group, rng);
        User { id, group, keys, owned: HashMap::new(), wallet: HashMap::new(), audit_trail: Vec::new() }
    }

    /// This user's identity.
    pub fn id(&self) -> UserId {
        self.id
    }

    /// This user's public key (registered with the broker).
    pub fn public_key(&self) -> &DsaPublicKey {
        self.keys.public()
    }

    /// Serial numbers currently spendable from the wallet.
    pub fn held_coins(&self) -> Vec<SerialNumber> {
        self.wallet.keys().copied().collect()
    }

    /// Serial numbers of coins this user owns.
    pub fn owned_coins(&self) -> Vec<SerialNumber> {
        self.owned.keys().copied().collect()
    }

    /// Relinquishment proofs collected while managing transfers.
    pub fn audit_trail(&self) -> &[TransferRequest] {
        &self.audit_trail
    }

    /// Records a coin purchased from the broker: the user becomes both
    /// owner and holder. The seq-0 self-assignment is local bookkeeping;
    /// it is only sent out via [`User::issue`], which creates a fresh one.
    pub fn receive_purchased_coin<R: Rng + ?Sized>(&mut self, coin: BaseCoin, rng: &mut R) {
        debug_assert_eq!(coin.owner(), self.id);
        self.owned
            .insert(coin.serial(), OwnedCoinState { coin: coin.clone(), holder: self.id, seq: 0 });
        let sn = coin.serial();
        let bytes = Assignment::signed_bytes(&coin, self.id, 0);
        let sig = self.keys.sign(&self.group, &bytes, rng);
        self.wallet.insert(sn, Assignment::from_parts(coin, self.id, 0, sig));
    }

    /// Issues an owned, self-held coin to `payee` (the PPay "issue" step).
    ///
    /// # Errors
    ///
    /// [`UserError::NotOwner`] / [`UserError::NotHolder`] if this user
    /// cannot issue the coin.
    pub fn issue<R: Rng + ?Sized>(
        &mut self,
        serial: SerialNumber,
        payee: UserId,
        rng: &mut R,
    ) -> Result<Assignment, UserError> {
        let state = self.owned.get_mut(&serial).ok_or(UserError::NotOwner(serial))?;
        if state.holder != self.id {
            return Err(UserError::NotHolder(serial));
        }
        state.seq += 1;
        state.holder = payee;
        let bytes = Assignment::signed_bytes(&state.coin, payee, state.seq);
        let sig = self.keys.sign(&self.group, &bytes, rng);
        let assignment = Assignment::from_parts(state.coin.clone(), payee, state.seq, sig);
        self.wallet.remove(&serial);
        Ok(assignment)
    }

    /// Builds a signed transfer request for a held coin (sent to the coin
    /// owner, or to the broker if the owner is offline).
    ///
    /// # Errors
    ///
    /// [`UserError::NotHolder`] if the coin is not in the wallet.
    pub fn request_transfer<R: Rng + ?Sized>(
        &mut self,
        serial: SerialNumber,
        to: UserId,
        rng: &mut R,
    ) -> Result<TransferRequest, UserError> {
        let current = self.wallet.remove(&serial).ok_or(UserError::NotHolder(serial))?;
        let sig = self.keys.sign(&self.group, &TransferRequest::signed_bytes(&current, to), rng);
        Ok(TransferRequest { current, to, holder_sig: sig })
    }

    /// Owner-side transfer handling: verifies the request against the
    /// owner's holder record, increments the sequence number, and returns
    /// the new assignment for the payee.
    ///
    /// # Errors
    ///
    /// [`UserError::NotOwner`] for unknown coins,
    /// [`UserError::HolderMismatch`] when the claimed holder is stale (the
    /// double-spend signal), [`UserError::BadSignature`] for forgeries.
    pub fn handle_transfer<R: Rng + ?Sized>(
        &mut self,
        request: TransferRequest,
        requester_key: &DsaPublicKey,
        rng: &mut R,
    ) -> Result<Assignment, UserError> {
        let serial = request.current.coin().serial();
        let state = self.owned.get_mut(&serial).ok_or(UserError::NotOwner(serial))?;
        let claimed = request.current.holder();
        if state.holder != claimed {
            return Err(UserError::HolderMismatch { expected: state.holder, claimed });
        }
        let bytes = TransferRequest::signed_bytes(&request.current, request.to);
        if !requester_key.verify(&self.group, &bytes, &request.holder_sig) {
            return Err(UserError::BadSignature);
        }
        state.seq += 1;
        state.holder = request.to;
        let new_bytes = Assignment::signed_bytes(&state.coin, request.to, state.seq);
        let sig = self.keys.sign(&self.group, &new_bytes, rng);
        let assignment = Assignment::from_parts(state.coin.clone(), request.to, state.seq, sig);
        self.audit_trail.push(request);
        Ok(assignment)
    }

    /// Payee-side acceptance of an issued/transferred coin: verifies the
    /// owner's signature chain before adding it to the wallet.
    ///
    /// # Errors
    ///
    /// [`UserError::BadSignature`] if the coin or assignment fails
    /// verification.
    pub fn receive_issued_coin(
        &mut self,
        broker: &Broker,
        assignment: Assignment,
    ) -> Result<(), UserError> {
        if assignment.holder() != self.id {
            return Err(UserError::NotHolder(assignment.coin().serial()));
        }
        if !assignment.coin().verify(&self.group, broker.public_key()) {
            return Err(UserError::BadSignature);
        }
        // Assignments are owner-signed in normal operation, broker-signed
        // when they came through the downtime protocol.
        let owner_key = broker.user_key(assignment.coin().owner()).ok_or(UserError::BadSignature)?;
        let owner_ok = assignment.verify(&self.group, owner_key);
        let broker_ok = assignment.verify(&self.group, broker.public_key());
        if !owner_ok && !broker_ok {
            return Err(UserError::BadSignature);
        }
        self.wallet.insert(assignment.coin().serial(), assignment);
        Ok(())
    }

    /// Applies broker-held state on rejoin (the PPay downtime protocol's
    /// synchronization step): updates holder/seq records for owned coins
    /// the broker managed while this user was offline.
    pub fn sync_owned_coin(&mut self, serial: SerialNumber, holder: UserId, seq: u64) {
        if let Some(state) = self.owned.get_mut(&serial) {
            if seq > state.seq {
                state.seq = seq;
                state.holder = holder;
            }
        }
    }
}
