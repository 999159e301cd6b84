//! B⁺-tree node representation and page serialization.
//!
//! Nodes are parsed eagerly into owned structures on read and re-serialized
//! on write; at 4000-byte pages this is cheap, and it keeps the mutation
//! code straightforward. Layout:
//!
//! ```text
//! leaf:     [0]=0  [1..3]=count  [3..7]=next_leaf(u32, MAX=none)
//!           then per entry: key(u64) | len(u16) | value bytes
//! internal: [0]=1  [1..3]=key_count
//!           then child0(u32), then per key: key(u64) | child(u32)
//! free:     [0]=2  [3..7]=next_free(u32, MAX=none)
//! ```
//!
//! A *free* page is not a node: it is a link of its tree's free list
//! ([`free_image`] / [`free_next`]), and [`Node::from_page`] rejects it.

use trijoin_common::{Error, Result};

/// Sentinel for "no next leaf".
pub const NO_PAGE: u32 = u32::MAX;

/// An in-memory B⁺-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Leaf: key-sorted `(key, value)` entries (duplicates allowed; value
    /// order among equal keys is unspecified once duplicates span leaves)
    /// plus a right-sibling pointer.
    Leaf {
        /// Sorted entries.
        entries: Vec<(u64, Vec<u8>)>,
        /// Page number of the right sibling leaf, if any.
        next: Option<u32>,
    },
    /// Internal: `keys[i]` separates `children[i]` from `children[i+1]`;
    /// `keys[i]` is the minimum key reachable under `children[i+1]`.
    Internal {
        /// Separator keys (sorted).
        keys: Vec<u64>,
        /// Child page numbers (`keys.len() + 1` of them).
        children: Vec<u32>,
    },
}

impl Node {
    /// A fresh empty leaf.
    pub fn empty_leaf() -> Self {
        Node::Leaf { entries: Vec::new(), next: None }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Occupancy: entries of a leaf, separator keys of an internal node.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { keys, .. } => keys.len(),
        }
    }

    /// True for a leaf without entries or an internal node without a
    /// separator (a lone child).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cut the node at `mid`, keeping the left part: returns the
    /// separator to hand to the parent and the new right sibling, which
    /// the caller stores on `right_page`. A leaf keeps entries `..mid`
    /// and chains to `right_page`; an internal node keeps keys `..mid`
    /// and moves key `mid` up.
    pub fn split_off(&mut self, mid: usize, right_page: u32) -> (u64, Node) {
        match self {
            Node::Leaf { entries, next } => {
                let right = entries.split_off(mid);
                let sep = right[0].0;
                let right = Node::Leaf { entries: right, next: next.replace(right_page) };
                (sep, right)
            }
            Node::Internal { keys, children } => {
                let right_keys = keys.split_off(mid + 1);
                let up = keys.pop().expect("split point is a key of the node");
                let right =
                    Node::Internal { keys: right_keys, children: children.split_off(mid + 1) };
                (up, right)
            }
        }
    }

    /// Pour the right sibling `right` into this node — the inverse of
    /// [`Node::split_off`]: `sep` is the parent's separator between the
    /// two, which an internal node takes back down.
    pub fn absorb(&mut self, sep: u64, right: Node) {
        match (self, right) {
            (Node::Leaf { entries, next }, Node::Leaf { entries: more, next: after }) => {
                entries.extend(more);
                *next = after;
            }
            (Node::Internal { keys, children }, Node::Internal { keys: ks, children: cs }) => {
                keys.push(sep);
                keys.extend(ks);
                children.extend(cs);
            }
            _ => unreachable!("siblings under one parent are of one kind"),
        }
    }

    /// Serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                7 + entries.iter().map(|(_, v)| 8 + 2 + v.len()).sum::<usize>()
            }
            Node::Internal { keys, .. } => 3 + 4 + keys.len() * 12,
        }
    }

    /// Serialize into a zero-padded page of `page_size` bytes.
    pub fn to_page(&self, page_size: usize) -> Result<Vec<u8>> {
        let need = self.serialized_len();
        if need > page_size {
            return Err(Error::PageOverflow { needed: need, available: page_size });
        }
        let mut out = Vec::with_capacity(page_size);
        match self {
            Node::Leaf { entries, next } => {
                out.push(0);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&next.unwrap_or(NO_PAGE).to_le_bytes());
                for (k, v) in entries {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&(v.len() as u16).to_le_bytes());
                    out.extend_from_slice(v);
                }
            }
            Node::Internal { keys, children } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                out.push(1);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                out.extend_from_slice(&children[0].to_le_bytes());
                for (k, c) in keys.iter().zip(&children[1..]) {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        out.resize(page_size, 0);
        Ok(out)
    }

    /// Parse a node from page bytes.
    pub fn from_page(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 7 {
            return Err(Error::Corrupt("btree page too small".into()));
        }
        let count = u16::from_le_bytes(bytes[1..3].try_into().unwrap()) as usize;
        match bytes[0] {
            0 => {
                let (iter, next) = leaf_entries(bytes)?;
                let mut entries = Vec::with_capacity(count);
                for entry in iter {
                    let (k, v) = entry?;
                    entries.push((k, v.to_vec()));
                }
                Ok(Node::Leaf { entries, next })
            }
            1 => {
                if 7 + count * 12 > bytes.len() {
                    return Err(Error::Corrupt("btree internal truncated".into()));
                }
                let mut children = Vec::with_capacity(count + 1);
                children.push(u32::from_le_bytes(bytes[3..7].try_into().unwrap()));
                let mut keys = Vec::with_capacity(count);
                let mut at = 7;
                for _ in 0..count {
                    keys.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
                    children.push(u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()));
                    at += 12;
                }
                Ok(Node::Internal { keys, children })
            }
            t => Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
        }
    }
}

/// Tag byte of a free-list page.
const FREE_TAG: u8 = 2;

/// Image of a free page whose successor on the free list is `next`.
pub fn free_image(next: Option<u32>, page_size: usize) -> Vec<u8> {
    let mut out = vec![0u8; page_size];
    out[0] = FREE_TAG;
    out[3..7].copy_from_slice(&next.unwrap_or(NO_PAGE).to_le_bytes());
    out
}

/// Successor of a free page on its free list. Fails on any other page,
/// so a free list that runs into a live node is reported, not followed.
pub fn free_next(bytes: &[u8]) -> Result<Option<u32>> {
    if bytes.len() < 7 || bytes[0] != FREE_TAG {
        return Err(Error::Corrupt("btree free list reaches a page that is not free".into()));
    }
    let next = u32::from_le_bytes(bytes[3..7].try_into().unwrap());
    Ok((next != NO_PAGE).then_some(next))
}

// ---------------------------------------------------------------------
// Raw-page access: the read paths of the tree (scans, batched probes)
// decode straight out of a borrowed page image instead of materializing a
// `Node` — no per-entry `Vec<u8>`, no keys/children vectors. Mutation
// paths parse eagerly via `Node::from_page`, whose leaves are decoded by
// the same iterator.
// ---------------------------------------------------------------------

/// Iterator over the `(key, value)` entries of a raw *leaf* page, borrowed
/// from the page bytes. Obtained from [`leaf_entries`].
pub struct LeafEntries<'a> {
    bytes: &'a [u8],
    at: usize,
    remaining: usize,
}

impl<'a> Iterator for LeafEntries<'a> {
    type Item = Result<(u64, &'a [u8])>;

    // Inlined across crates: a scan's per-entry loop is monomorphized in
    // the crate that scans.
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.at + 10 > self.bytes.len() {
            self.remaining = 0;
            return Some(Err(Error::Corrupt("btree leaf truncated".into())));
        }
        let k = u64::from_le_bytes(self.bytes[self.at..self.at + 8].try_into().unwrap());
        let len =
            u16::from_le_bytes(self.bytes[self.at + 8..self.at + 10].try_into().unwrap()) as usize;
        self.at += 10;
        if self.at + len > self.bytes.len() {
            self.remaining = 0;
            return Some(Err(Error::Corrupt("btree leaf value truncated".into())));
        }
        let v = &self.bytes[self.at..self.at + len];
        self.at += len;
        Some(Ok((k, v)))
    }
}

/// Borrow-decode a leaf page: its entry iterator plus the next-leaf
/// pointer. Fails on non-leaf pages.
pub fn leaf_entries(bytes: &[u8]) -> Result<(LeafEntries<'_>, Option<u32>)> {
    if bytes.len() < 7 {
        return Err(Error::Corrupt("btree page too small".into()));
    }
    if bytes[0] != 0 {
        return Err(Error::Corrupt(format!("expected leaf page, found tag {}", bytes[0])));
    }
    let count = u16::from_le_bytes(bytes[1..3].try_into().unwrap()) as usize;
    let next_raw = u32::from_le_bytes(bytes[3..7].try_into().unwrap());
    let next = if next_raw == NO_PAGE { None } else { Some(next_raw) };
    Ok((LeafEntries { bytes, at: 7, remaining: count }, next))
}

/// Binary-search a raw *internal* page for the child to descend into for
/// the leftmost occurrence of `key` (the `partition_point(|s| s < key)`
/// child). Returns `(child_page, key_count, upper)` — the count so the
/// caller can charge the same search comparisons the owned-node path
/// charges, and the separator after the child (`None` for the last).
pub fn internal_child_left(bytes: &[u8], key: u64) -> Result<(u32, usize, Option<u64>)> {
    if bytes.len() < 7 {
        return Err(Error::Corrupt("btree page too small".into()));
    }
    if bytes[0] != 1 {
        return Err(Error::Corrupt(format!("expected internal page, found tag {}", bytes[0])));
    }
    let count = u16::from_le_bytes(bytes[1..3].try_into().unwrap()) as usize;
    if 7 + count * 12 > bytes.len() {
        return Err(Error::Corrupt("btree internal truncated".into()));
    }
    let key_at =
        |i: usize| u64::from_le_bytes(bytes[7 + i * 12..7 + i * 12 + 8].try_into().unwrap());
    // partition_point over keys[0..count] for `keys[i] < key`.
    let (mut lo, mut hi) = (0usize, count);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key_at(mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let child = if lo == 0 {
        u32::from_le_bytes(bytes[3..7].try_into().unwrap())
    } else {
        u32::from_le_bytes(bytes[7 + (lo - 1) * 12 + 8..7 + (lo - 1) * 12 + 12].try_into().unwrap())
    };
    Ok((child, count, (lo < count).then(|| key_at(lo))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let n = Node::Leaf {
            entries: vec![(1, b"one".to_vec()), (2, b"two".to_vec()), (2, b"two-b".to_vec())],
            next: Some(42),
        };
        let page = n.to_page(256).unwrap();
        assert_eq!(page.len(), 256);
        assert_eq!(Node::from_page(&page).unwrap(), n);
    }

    #[test]
    fn leaf_without_next_roundtrip() {
        let n = Node::Leaf { entries: vec![(7, vec![0xFF; 10])], next: None };
        assert_eq!(Node::from_page(&n.to_page(128).unwrap()).unwrap(), n);
    }

    #[test]
    fn internal_roundtrip() {
        let n = Node::Internal { keys: vec![10, 20, 30], children: vec![1, 2, 3, 4] };
        let page = n.to_page(128).unwrap();
        assert_eq!(Node::from_page(&page).unwrap(), n);
    }

    #[test]
    fn oversized_node_rejected() {
        let n = Node::Leaf { entries: vec![(1, vec![0u8; 500])], next: None };
        assert!(matches!(n.to_page(256), Err(Error::PageOverflow { .. })));
    }

    #[test]
    fn corrupt_pages_rejected() {
        assert!(Node::from_page(&[0u8; 3]).is_err());
        let mut bad_tag = vec![0u8; 64];
        bad_tag[0] = 9;
        assert!(Node::from_page(&bad_tag).is_err());
        // Leaf claiming more entries than the page holds.
        let mut trunc = vec![0u8; 16];
        trunc[0] = 0;
        trunc[1..3].copy_from_slice(&100u16.to_le_bytes());
        trunc[3..7].copy_from_slice(&NO_PAGE.to_le_bytes());
        assert!(Node::from_page(&trunc).is_err());
    }

    #[test]
    fn raw_leaf_walk_matches_parsed_node() {
        let n = Node::Leaf {
            entries: vec![(1, b"one".to_vec()), (2, b"two".to_vec()), (2, b"two-b".to_vec())],
            next: Some(9),
        };
        let page = n.to_page(256).unwrap();
        let (iter, next) = leaf_entries(&page).unwrap();
        assert_eq!(next, Some(9));
        let walked: Vec<(u64, Vec<u8>)> =
            iter.map(|e| e.map(|(k, v)| (k, v.to_vec()))).collect::<Result<_>>().unwrap();
        let Node::Leaf { entries, .. } = n else { unreachable!() };
        assert_eq!(walked, entries);
        // Internal page rejected by the leaf walker and vice versa.
        let internal = Node::Internal { keys: vec![10], children: vec![1, 2] }.to_page(64).unwrap();
        assert!(leaf_entries(&internal).is_err());
        assert!(internal_child_left(&page, 1).is_err());
    }

    #[test]
    fn raw_internal_search_matches_partition_point() {
        let keys = vec![10u64, 20, 20, 30];
        let children = vec![100u32, 101, 102, 103, 104];
        let page =
            Node::Internal { keys: keys.clone(), children: children.clone() }.to_page(128).unwrap();
        for probe in [0u64, 10, 15, 20, 25, 30, 99] {
            let (child, count, upper) = internal_child_left(&page, probe).unwrap();
            assert_eq!(count, keys.len());
            let at = keys.partition_point(|&s| s < probe);
            assert_eq!((child, upper), (children[at], keys.get(at).copied()), "probe {probe}");
        }
    }

    #[test]
    fn split_off_and_absorb_are_inverse() {
        let leaf = Node::Leaf {
            entries: vec![(1, vec![1]), (2, vec![2]), (2, vec![3]), (5, vec![4])],
            next: Some(9),
        };
        let mut left = leaf.clone();
        let (sep, right) = left.split_off(1, 7);
        assert_eq!(sep, 2);
        assert_eq!(left, Node::Leaf { entries: vec![(1, vec![1])], next: Some(7) });
        assert!(matches!(&right, Node::Leaf { entries, next: Some(9) } if entries.len() == 3));
        left.absorb(sep, right);
        assert_eq!(left, leaf);

        let inner = Node::Internal { keys: vec![10, 20, 30], children: vec![1, 2, 3, 4] };
        let mut left = inner.clone();
        let (up, right) = left.split_off(1, 0);
        assert_eq!(up, 20);
        assert_eq!(left, Node::Internal { keys: vec![10], children: vec![1, 2] });
        assert_eq!(right, Node::Internal { keys: vec![30], children: vec![3, 4] });
        left.absorb(up, right);
        assert_eq!(left, inner);
    }

    #[test]
    fn free_pages_chain_and_are_not_nodes() {
        let page = free_image(Some(5), 64);
        assert_eq!(free_next(&page).unwrap(), Some(5));
        assert_eq!(free_next(&free_image(None, 64)).unwrap(), None);
        assert!(Node::from_page(&page).is_err(), "a free page must not parse as a node");
        assert!(free_next(&Node::empty_leaf().to_page(64).unwrap()).is_err());
    }

    #[test]
    fn serialized_len_matches() {
        let leaf = Node::Leaf { entries: vec![(1, vec![0u8; 9]), (2, vec![])], next: None };
        assert_eq!(leaf.serialized_len(), 7 + (10 + 9) + 10);
        let inner = Node::Internal { keys: vec![5], children: vec![0, 1] };
        assert_eq!(inner.serialized_len(), 7 + 12);
        assert_eq!(leaf.to_page(64).unwrap().len(), 64);
    }
}
