//! An i3-style anonymous indirection layer.
//!
//! The owner-anonymous coin extension (paper §5.2, approach 3) removes the
//! owner identity from coins and replaces it with a *handle*: "the coin
//! owner registers a trigger on this handle so that all messages sent to
//! this handle will be forwarded to itself. These handles act as
//! pseudonyms for the coin owner."
//!
//! [`IndirectionLayer`] models exactly that: an opaque 32-byte [`Handle`],
//! a trigger table mapping handles to endpoints, and request forwarding
//! that accounts for the extra relay hop. The payee-visible API never
//! exposes the resolved endpoint, mirroring i3's anonymity property.

use std::collections::HashMap;

use crate::network::{EndpointId, Network, RequestError};

/// An opaque indirection handle (an i3 trigger identifier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub [u8; 32]);

impl Handle {
    /// Derives a handle from arbitrary identifying bytes (e.g. a coin
    /// public key), via a fixed-width copy/truncate. Callers wanting
    /// unlinkability should pass fresh random bytes instead.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut h = [0u8; 32];
        let n = bytes.len().min(32);
        h[..n].copy_from_slice(&bytes[..n]);
        Handle(h)
    }

    /// A fresh random handle.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut h = [0u8; 32];
        rng.fill_bytes(&mut h);
        Handle(h)
    }
}

/// Errors from indirect requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndirectionError {
    /// No trigger registered on this handle.
    DanglingHandle(Handle),
    /// The trigger resolved, but delivery failed.
    Delivery(RequestError),
}

impl std::fmt::Display for IndirectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndirectionError::DanglingHandle(_) => f.write_str("no trigger registered on handle"),
            IndirectionError::Delivery(e) => write!(f, "delivery failed: {e}"),
        }
    }
}

impl std::error::Error for IndirectionError {}

/// The trigger table: handle → forwarding target.
#[derive(Debug, Default)]
pub struct IndirectionLayer {
    triggers: HashMap<Handle, EndpointId>,
}

impl IndirectionLayer {
    /// An empty layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a trigger: messages to `handle` will be
    /// forwarded to `target`.
    pub fn register_trigger(&mut self, handle: Handle, target: EndpointId) {
        self.triggers.insert(handle, target);
    }

    /// Removes a trigger, returning its previous target.
    pub fn remove_trigger(&mut self, handle: Handle) -> Option<EndpointId> {
        self.triggers.remove(&handle)
    }

    /// Number of live triggers.
    pub fn trigger_count(&self) -> usize {
        self.triggers.len()
    }

    /// Sends a request to whatever endpoint the handle's trigger points at,
    /// without revealing that endpoint to the caller.
    ///
    /// Accounts one extra relay hop per direction on top of the normal
    /// request/response traffic, modelling the i3 server in the middle.
    ///
    /// # Errors
    ///
    /// [`IndirectionError::DanglingHandle`] if no trigger exists;
    /// [`IndirectionError::Delivery`] if the resolved endpoint is offline
    /// or unknown.
    pub fn request_via(
        &self,
        net: &mut Network,
        from: EndpointId,
        handle: Handle,
        request: Vec<u8>,
    ) -> Result<Vec<u8>, IndirectionError> {
        let mut response = Vec::new();
        self.request_via_into(net, from, handle, &request, &mut response)?;
        Ok(response)
    }

    /// The allocation-lean form of [`IndirectionLayer::request_via`]: the
    /// forwarded payload is borrowed rather than owned per hop, and the
    /// response lands in a caller-reused buffer. Relay accounting is
    /// identical.
    ///
    /// # Errors
    ///
    /// Same as [`IndirectionLayer::request_via`].
    pub fn request_via_into(
        &self,
        net: &mut Network,
        from: EndpointId,
        handle: Handle,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), IndirectionError> {
        let target = *self.triggers.get(&handle).ok_or(IndirectionError::DanglingHandle(handle))?;
        net.account_relay(request.len());
        net.request_into(from, target, request, response).map_err(IndirectionError::Delivery)?;
        net.account_relay(response.len());
        Ok(())
    }

    /// Whether a trigger resolves to an *online* endpoint — the anonymous
    /// analogue of "is the coin owner online?".
    pub fn is_reachable(&self, net: &Network, handle: Handle) -> bool {
        self.triggers.get(&handle).is_some_and(|&t| net.is_online(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_hides_target() {
        let mut net = Network::new();
        let owner = net.register("owner", |req: &[u8]| {
            let mut v = req.to_vec();
            v.reverse();
            v
        });
        let payer = net.register("payer", |_: &[u8]| Vec::new());
        let mut i3 = IndirectionLayer::new();
        let handle = Handle::from_bytes(b"coin-under-this-handle");
        i3.register_trigger(handle, owner);

        let resp = i3.request_via(&mut net, payer, handle, b"abc".to_vec()).unwrap();
        assert_eq!(resp, b"cba");
        // Two protocol messages plus two relay hops.
        assert_eq!(net.stats().messages, 4);
        assert_eq!(net.relay_hops(), 2);
    }

    #[test]
    fn dangling_handle_errors() {
        let mut net = Network::new();
        let payer = net.register("payer", |_: &[u8]| Vec::new());
        let i3 = IndirectionLayer::new();
        let handle = Handle::from_bytes(b"nope");
        assert!(matches!(
            i3.request_via(&mut net, payer, handle, vec![]),
            Err(IndirectionError::DanglingHandle(_))
        ));
    }

    #[test]
    fn offline_target_is_a_delivery_error() {
        let mut net = Network::new();
        let owner = net.register("owner", |req: &[u8]| req.to_vec());
        let payer = net.register("payer", |_: &[u8]| Vec::new());
        let mut i3 = IndirectionLayer::new();
        let handle = Handle::from_bytes(b"h");
        i3.register_trigger(handle, owner);
        net.set_online(owner, false);
        assert!(!i3.is_reachable(&net, handle));
        assert!(matches!(
            i3.request_via(&mut net, payer, handle, vec![]),
            Err(IndirectionError::Delivery(RequestError::Offline(_)))
        ));
    }

    #[test]
    fn triggers_can_be_retargeted_and_removed() {
        let mut net = Network::new();
        let a = net.register("a", |_: &[u8]| b"a".to_vec());
        let b = net.register("b", |_: &[u8]| b"b".to_vec());
        let client = net.register("client", |_: &[u8]| Vec::new());
        let mut i3 = IndirectionLayer::new();
        let handle = Handle::from_bytes(b"h");
        i3.register_trigger(handle, a);
        assert_eq!(i3.request_via(&mut net, client, handle, vec![]).unwrap(), b"a");
        i3.register_trigger(handle, b);
        assert_eq!(i3.request_via(&mut net, client, handle, vec![]).unwrap(), b"b");
        assert_eq!(i3.remove_trigger(handle), Some(b));
        assert_eq!(i3.trigger_count(), 0);
    }

    #[test]
    fn random_handles_differ() {
        let mut rng = rand::rng();
        assert_ne!(Handle::random(&mut rng), Handle::random(&mut rng));
    }
}
