//! System-wide parameters shared by every WhoPay entity.

use whopay_num::SchnorrGroup;

/// Deployment parameters: the cryptographic group and the coin-lifetime
/// policy.
///
/// A binding stays valid for the paper's 3-day renewal period (§6.1).
#[derive(Debug, Clone)]
pub struct SystemParams {
    group: SchnorrGroup,
}

impl SystemParams {
    /// Parameters over `group`.
    pub fn new(group: SchnorrGroup) -> Self {
        SystemParams { group }
    }

    /// The Schnorr group all keys and signatures live in.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Binding validity window in seconds.
    pub fn renewal_period_secs(&self) -> u64 {
        3 * 24 * 3600
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whopay_crypto::testing::tiny_group;

    #[test]
    fn default_renewal_period_is_three_days() {
        let p = SystemParams::new(tiny_group().clone());
        assert_eq!(p.renewal_period_secs(), 259_200);
    }
}
