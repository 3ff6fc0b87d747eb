//! The coarse-grained operations the load simulator counts.
//!
//! "The WhoPay system is built from the following coarse-grained
//! operations: coin purchases, issues, transfers, deposits, renewals,
//! downtime transfers, downtime renewals, synchronizations, checks, and
//! lazy synchronizations." (§6.2)

/// One coarse-grained protocol operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A peer buys a coin from the broker.
    Purchase,
    /// An owner issues a self-held coin to a payee.
    Issue,
    /// A holder transfers a coin via its (online) owner.
    Transfer,
    /// A holder redeems a coin at the broker.
    Deposit,
    /// A holder renews a coin via its (online) owner.
    Renewal,
    /// A holder transfers a coin via the broker (owner offline).
    DowntimeTransfer,
    /// A holder renews a coin via the broker (owner offline).
    DowntimeRenewal,
    /// Proactive synchronization on rejoin.
    Sync,
    /// Lazy-sync read of the public binding list by an owner.
    Check,
    /// Lazy-sync local state adoption after a check found fresher state.
    LazySync,
}

impl Op {
    /// All operations, in reporting order.
    pub const ALL: [Op; 10] = [
        Op::Purchase,
        Op::Issue,
        Op::Transfer,
        Op::Deposit,
        Op::Renewal,
        Op::DowntimeTransfer,
        Op::DowntimeRenewal,
        Op::Sync,
        Op::Check,
        Op::LazySync,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Op::Purchase => "purchases",
            Op::Issue => "issues",
            Op::Transfer => "transfers",
            Op::Deposit => "deposits",
            Op::Renewal => "renewals",
            Op::DowntimeTransfer => "downtime transfers",
            Op::DowntimeRenewal => "downtime renewals",
            Op::Sync => "syncs",
            Op::Check => "checks",
            Op::LazySync => "lazy syncs",
        }
    }

    /// The observability event kind for this operation (the first ten
    /// [`whopay_obs::OpKind`] variants are exactly the §6.2 operations).
    pub fn obs_kind(self) -> whopay_obs::OpKind {
        use whopay_obs::OpKind;
        match self {
            Op::Purchase => OpKind::Purchase,
            Op::Issue => OpKind::Issue,
            Op::Transfer => OpKind::Transfer,
            Op::Deposit => OpKind::Deposit,
            Op::Renewal => OpKind::Renewal,
            Op::DowntimeTransfer => OpKind::DowntimeTransfer,
            Op::DowntimeRenewal => OpKind::DowntimeRenewal,
            Op::Sync => OpKind::Sync,
            Op::Check => OpKind::Check,
            Op::LazySync => OpKind::LazySync,
        }
    }

    fn index(self) -> usize {
        match self {
            Op::Purchase => 0,
            Op::Issue => 1,
            Op::Transfer => 2,
            Op::Deposit => 3,
            Op::Renewal => 4,
            Op::DowntimeTransfer => 5,
            Op::DowntimeRenewal => 6,
            Op::Sync => 7,
            Op::Check => 8,
            Op::LazySync => 9,
        }
    }
}

/// A vector of operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: [u64; 10],
}

impl OpCounts {
    /// All-zero counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments one operation.
    pub fn bump(&mut self, op: Op) {
        self.counts[op.index()] += 1;
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &OpCounts) {
        for (slot, v) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += v;
        }
    }

    /// Reads one count.
    pub fn get(&self, op: Op) -> u64 {
        self.counts[op.index()]
    }

    /// Total operations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(op, count)` in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        Op::ALL.iter().map(move |&op| (op, self.get(op)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get() {
        let mut c = OpCounts::new();
        c.bump(Op::Transfer);
        c.bump(Op::Transfer);
        c.bump(Op::Sync);
        assert_eq!(c.get(Op::Transfer), 2);
        assert_eq!(c.get(Op::Sync), 1);
        assert_eq!(c.get(Op::Deposit), 0);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = OpCounts::new();
        a.bump(Op::Purchase);
        let mut b = OpCounts::new();
        b.bump(Op::Purchase);
        b.bump(Op::Check);
        a.merge(&b);
        assert_eq!(a.get(Op::Purchase), 2);
        assert_eq!(a.get(Op::Check), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn iter_visits_all_ops_once() {
        let c = OpCounts::new();
        let ops: Vec<Op> = c.iter().map(|(op, _)| op).collect();
        assert_eq!(ops.len(), 10);
        assert_eq!(ops[0], Op::Purchase);
        assert_eq!(ops[9], Op::LazySync);
    }
}
