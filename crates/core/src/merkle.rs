//! An incrementally-updatable SHA-256 Merkle tree over canonical leaves.
//!
//! The broker commits its coin/binding state to the root of this tree
//! (see [`crate::ledger`]): every committed mutation updates one leaf in
//! O(log n), journal entries record the post-op root, and inclusion
//! proofs let a payee check a published binding against the broker's
//! signed root without trusting the node that served it.
//!
//! Domain separation follows the certificate-transparency convention:
//! leaf hashes are `SHA-256(0x00 ‖ data)` and interior nodes are
//! `SHA-256(0x01 ‖ left ‖ right)`, so no leaf payload can masquerade as
//! an interior node (second-preimage defence). An odd node at the end of
//! a level is *promoted* unchanged to the next level — not duplicated —
//! so the root of `n` leaves never depends on phantom copies.

use whopay_crypto::sha256::{Digest, Sha256};

thread_local! {
    /// Scratch for prefixing leaf payloads (kept out of the pooled wire
    /// buffers, whose byte accounting must reconcile with TrafficStats).
    static LEAF_BUF: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Hashes a leaf payload with the `0x00` domain prefix.
///
/// The prefix byte misaligns every block of the incremental hasher, so
/// the payload is staged contiguously in a reused scratch buffer and
/// digested one-shot — measurably cheaper for the small leaves the
/// ledger commits on every mutation.
fn leaf_hash(data: &[u8]) -> Digest {
    LEAF_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.push(0x00);
        buf.extend_from_slice(data);
        Sha256::digest(&buf)
    })
}

/// Hashes two children with the `0x01` domain prefix.
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = 0x01;
    buf[1..33].copy_from_slice(left);
    buf[33..].copy_from_slice(right);
    Sha256::digest(&buf)
}

/// The root of the empty tree: `SHA-256("")`, distinct from any leaf or
/// node hash because both of those always hash at least one prefix byte.
fn empty_root() -> Digest {
    Sha256::digest(&[])
}

/// An incrementally-updatable Merkle tree.
///
/// Stores every level (level 0 = leaf hashes, last level = root), so
/// [`MerkleTree::update`] recomputes exactly one node per level and
/// [`MerkleTree::prove`] reads one sibling per level.
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    /// `levels[0]` are the leaf hashes; `levels.last()` is `[root]`.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// An empty tree.
    pub fn new() -> Self {
        MerkleTree::default()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Whether the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current root (`SHA-256("")` for the empty tree).
    pub fn root(&self) -> Digest {
        match self.levels.last() {
            Some(top) => top[0],
            None => empty_root(),
        }
    }

    /// Appends a leaf and returns its index. Amortized O(log n).
    pub fn push(&mut self, data: &[u8]) -> usize {
        let index = self.len();
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(leaf_hash(data));
        self.bubble(index);
        index
    }

    /// Replaces the leaf at `index` and recomputes the O(log n) path to
    /// the root. Panics if `index` is out of range.
    pub fn update(&mut self, index: usize, data: &[u8]) {
        assert!(index < self.len(), "leaf index {index} out of range");
        self.levels[0][index] = leaf_hash(data);
        self.bubble(index);
    }

    /// Recomputes the path from leaf `index` to the root after
    /// `levels[0][index]` changed (or was appended).
    fn bubble(&mut self, index: usize) {
        let mut i = index;
        let mut level = 0;
        while self.levels[level].len() > 1 {
            let (lo, hi) = (i & !1, (i & !1) + 1);
            let parent = if hi < self.levels[level].len() {
                node_hash(&self.levels[level][lo], &self.levels[level][hi])
            } else {
                // Odd tail: the node is promoted unchanged.
                self.levels[level][lo]
            };
            if self.levels.len() == level + 1 {
                self.levels.push(Vec::new());
            }
            let up = i / 2;
            if up == self.levels[level + 1].len() {
                self.levels[level + 1].push(parent);
            } else {
                self.levels[level + 1][up] = parent;
            }
            i = up;
            level += 1;
        }
        // Pushes only grow level widths, so once the walk stops at a
        // single-node level that node is the root; drop anything above
        // (nothing in practice — kept for safety).
        self.levels.truncate(level + 1);
    }

    /// An inclusion proof for leaf `index`. Panics if out of range.
    pub fn prove(&self, index: usize) -> InclusionProof {
        assert!(index < self.len(), "leaf index {index} out of range");
        let mut siblings = Vec::new();
        let mut i = index;
        let mut level = 0;
        while self.levels[level].len() > 1 {
            let sib = i ^ 1;
            if sib < self.levels[level].len() {
                siblings.push(self.levels[level][sib]);
            }
            i /= 2;
            level += 1;
        }
        InclusionProof { leaves: self.len() as u64, index: index as u64, siblings }
    }
}

/// Builds the root of `leaves` from scratch — the O(n) oracle the
/// incremental tree is differentially tested against.
pub fn root_of<I: IntoIterator<Item = T>, T: AsRef<[u8]>>(leaves: I) -> Digest {
    let mut level: Vec<Digest> = leaves.into_iter().map(|l| leaf_hash(l.as_ref())).collect();
    if level.is_empty() {
        return empty_root();
    }
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [l, r] => node_hash(l, r),
                [l] => *l,
                _ => unreachable!("chunks(2)"),
            })
            .collect();
    }
    level[0]
}

/// A Merkle inclusion proof: the sibling path from one leaf to the root
/// of a tree with a known leaf count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    /// Total leaves in the committed tree.
    pub leaves: u64,
    /// The proven leaf's index.
    pub index: u64,
    /// Sibling hashes, leaf level first. Levels where the path node is an
    /// odd promoted tail contribute no sibling.
    pub siblings: Vec<Digest>,
}

impl InclusionProof {
    /// Verifies that `leaf_data` sits at `self.index` in the tree of
    /// `self.leaves` leaves whose root is `root`.
    ///
    /// The verifier re-derives each level's width as `ceil(n / 2^level)`,
    /// so it knows exactly where a sibling must exist and where the path
    /// node is a promoted odd tail — a proof with missing, extra, or
    /// reordered siblings fails.
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> bool {
        if self.index >= self.leaves {
            return false;
        }
        let mut width = self.leaves;
        let mut i = self.index;
        let mut hash = leaf_hash(leaf_data);
        let mut sibs = self.siblings.iter();
        while width > 1 {
            let sib_index = i ^ 1;
            if sib_index < width {
                let Some(sib) = sibs.next() else { return false };
                hash = if i & 1 == 0 { node_hash(&hash, sib) } else { node_hash(sib, &hash) };
            }
            i /= 2;
            width = width.div_ceil(2);
        }
        sibs.next().is_none() && hash == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_the_empty_root() {
        assert_eq!(MerkleTree::new().root(), empty_root());
        assert_eq!(root_of(Vec::<Vec<u8>>::new()), empty_root());
    }

    #[test]
    fn incremental_pushes_match_the_rebuild_oracle() {
        let mut tree = MerkleTree::new();
        for n in 1..=40 {
            let data = leaves(n);
            tree.push(data.last().unwrap());
            assert_eq!(tree.root(), root_of(&data), "n={n}");
        }
    }

    #[test]
    fn single_leaf_root_is_its_leaf_hash() {
        let mut tree = MerkleTree::new();
        tree.push(b"only");
        assert_eq!(tree.root(), leaf_hash(b"only"));
    }

    #[test]
    fn updates_match_the_rebuild_oracle() {
        for n in [1usize, 2, 3, 5, 8, 13, 21] {
            let mut data = leaves(n);
            let mut tree = MerkleTree::new();
            for leaf in &data {
                tree.push(leaf);
            }
            for i in 0..n {
                data[i] = format!("updated-{i}").into_bytes();
                tree.update(i, &data[i]);
                assert_eq!(tree.root(), root_of(&data), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proofs_verify_and_reject_tampering() {
        for n in [1usize, 2, 3, 4, 7, 12, 33] {
            let data = leaves(n);
            let mut tree = MerkleTree::new();
            for leaf in &data {
                tree.push(leaf);
            }
            let root = tree.root();
            for i in 0..n {
                let proof = tree.prove(i);
                assert!(proof.verify(&data[i], &root), "n={n} i={i}");
                // Wrong payload, wrong index, wrong root: all rejected.
                assert!(!proof.verify(b"forged", &root));
                if n > 1 {
                    assert!(!proof.verify(&data[(i + 1) % n], &root));
                }
                assert!(!proof.verify(&data[i], &leaf_hash(b"other")));
                // A truncated or padded sibling path is rejected.
                if !proof.siblings.is_empty() {
                    let mut short = proof.clone();
                    short.siblings.pop();
                    assert!(!short.verify(&data[i], &root));
                }
                let mut long = proof.clone();
                long.siblings.push(leaf_hash(b"pad"));
                assert!(!long.verify(&data[i], &root));
            }
        }
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // An interior-node preimage presented as a leaf hashes differently.
        let l = leaf_hash(b"a");
        let r = leaf_hash(b"b");
        let mut node_preimage = Vec::new();
        node_preimage.extend_from_slice(&l);
        node_preimage.extend_from_slice(&r);
        assert_ne!(leaf_hash(&node_preimage), node_hash(&l, &r));
    }
}
