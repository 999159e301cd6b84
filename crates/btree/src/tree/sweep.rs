//! The sorted sweep: a batch of mutations in key order, applied leaf by
//! leaf.
//!
//! A single-key mutation pays a root-to-leaf descent and a leaf write of
//! its own. A batch sorted by key need not: consecutive keys mostly share
//! their leaf, and always share the upper part of their path. The sweep
//! keeps the current path — the internal nodes below the root and the
//! leaf, each with the upper bound of its key range — and moves to the
//! next leaf only when a key falls outside the held one, re-descending
//! from the deepest held node that still covers the key. So every page is
//! read at most once per sweep and every leaf whose image changed is
//! written once, when the sweep leaves it: Yao's scheduled access, on the
//! write side.
//!
//! Structure changes stay where they were. An insert the held leaf has no
//! room for, or a remove that would leave it under half full, first puts
//! the held leaf back and then goes through the recursive single-key path
//! ([`BTree::insert`], [`BTree::remove_where`]), which splits, merges and
//! frees as for any other caller; the sweep resumes from the root. Only
//! inserts and removes get there: an overwrite keeps the entry's width,
//! so it always fits where the entry lies.
//!
//! Progress is counted in *landed* operations: those whose effect is on a
//! written page (or needed none). A device fault ends the sweep with the
//! held leaf's edits discarded, so [`SweepStats::landed`] tells the caller
//! exactly which prefix of the batch must not be applied again.

use std::iter::Peekable;
use std::rc::Rc;

use trijoin_common::{Error, Result};
use trijoin_storage::PageId;

use super::BTree;
use crate::node::Node;

/// One operation of a sorted batch ([`BTree::apply_sorted`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepOp {
    /// Overwrite the entry's value with one of the same length. Needs
    /// unique keys; rejected otherwise.
    Replace(Vec<u8>),
    /// Add an entry with this value. With unique keys a taken key rejects
    /// it, and so does a value of another length than the one the same
    /// batch removed from under the key: the two net to an overwrite.
    Insert(Vec<u8>),
    /// Remove the first entry under the key, or with `Some(value)` the
    /// first one holding exactly that value.
    Remove(Option<Vec<u8>>),
}

/// What a chain of operations on one key nets to against the entry stored
/// under it ([`net_chain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Netted {
    /// The key holds what it held (or nothing, as before).
    Unchanged,
    /// The key ends up holding this value: an overwrite of the stored
    /// entry, or an insert where there was none.
    Put(Vec<u8>),
    /// The stored entry goes.
    Remove,
}

/// Run `chain` — every operation on one key, in the order issued — against
/// `stored`, the entry the key holds (`None`: absent), as a unique-key
/// sweep does: an operation that does not apply to what the chain has left
/// so far (no such entry, key taken, a value of another width) is
/// rejected, the rest net, so a chain that ends where it started is
/// [`Netted::Unchanged`]. Returns the net edit, the operations and the
/// rejected among them. Pure: the sweep applies the verdict to a leaf, a
/// reader to what it hands out.
pub fn net_chain(
    stored: Option<&[u8]>,
    chain: impl IntoIterator<Item = SweepOp>,
) -> (Netted, u64, u64) {
    // `fresh` is the value the chain has written so far, if any.
    let (mut exists, mut fresh) = (stored.is_some(), None::<Vec<u8>>);
    let (mut ops, mut rejected) = (0u64, 0u64);
    for op in chain {
        ops += 1;
        let current = fresh.as_deref().or(stored).filter(|_| exists);
        match (op, current) {
            // Back under a key this chain emptied: an overwrite, which
            // keeps the stored width as any other does.
            (SweepOp::Insert(v), None) if stored.is_none_or(|s| s.len() == v.len()) => {
                (exists, fresh) = (true, Some(v))
            }
            (SweepOp::Replace(v), Some(now)) if v.len() == now.len() => fresh = Some(v),
            (SweepOp::Remove(exact), Some(now)) if exact.as_deref().is_none_or(|x| x == now) => {
                (exists, fresh) = (false, None)
            }
            _ => rejected += 1,
        }
    }
    let netted = match (stored, exists, fresh) {
        (Some(s), true, Some(v)) if s != v.as_slice() => Netted::Put(v),
        (None, true, Some(v)) => Netted::Put(v),
        (Some(_), false, _) => Netted::Remove,
        _ => Netted::Unchanged,
    };
    (netted, ops, rejected)
}

/// How far a sweep got, updated as leaves land.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Operations consumed whose effect (if any) is on its page.
    pub landed: u64,
    /// Landed operations the tree refused: no such entry, key taken, or a
    /// replacement of another length.
    pub rejected: u64,
    /// Leaf pages the sweep wrote (structure changes not counted).
    pub leaves_written: u64,
}

/// Called once per entry whose stored value changed, after the change is
/// on its page: `(key, value before, value after)`, `None` for absent.
pub type OnChange<'a> = dyn FnMut(u64, Option<&[u8]>, Option<&[u8]>) + 'a;

/// An internal node on the held path and the exclusive upper bound of
/// the keys under it (`None` on the right edge).
struct Frame {
    page: u32,
    node: Node,
    hi: Option<u64>,
}

/// The leaf the sweep is editing and what it owes for it.
struct Held {
    path: Vec<Frame>,
    page: u32,
    leaf: Node,
    hi: Option<u64>,
    /// The page image as read; `None` when the leaf is the resident root.
    image: Option<Rc<Vec<u8>>>,
    touched: bool,
    /// Operations consumed on this leaf, rejected ones among them.
    ops: u64,
    rejected: u64,
    /// Entries gained (lost, if negative).
    grown: i64,
    /// `(key, value before)` of every entry changed here; the value after
    /// is read off the leaf when it lands.
    changes: Vec<(u64, Option<Vec<u8>>)>,
}

impl Held {
    fn entries(&mut self) -> &mut Vec<(u64, Vec<u8>)> {
        match &mut self.leaf {
            Node::Leaf { entries, .. } => entries,
            Node::Internal { .. } => unreachable!("the sweep holds leaves only"),
        }
    }
}

impl BTree {
    /// Apply `ops`, sorted by key (operations on one key in the order they
    /// were issued), in one sweep over the leaves — see the module docs.
    ///
    /// With `unique` the tree is taken to hold at most one entry per key
    /// (true of a tree that only ever grew through unique sweeps or a
    /// bulk load of distinct keys): the operations on one key are netted
    /// against the stored entry first, so a chain that ends where it
    /// started touches nothing, and `on_change` reports each entry that
    /// did change. Without it keys may repeat, `Insert` always adds, and
    /// a `Remove` that misses in the held leaf falls back to the
    /// single-key search before it counts as rejected; `on_change` is not
    /// called.
    ///
    /// `stats` advances as leaves land; on `Err` it says how much of the
    /// batch is in the tree.
    pub fn apply_sorted(
        &mut self,
        ops: impl IntoIterator<Item = (u64, SweepOp)>,
        unique: bool,
        stats: &mut SweepStats,
        on_change: &mut OnChange<'_>,
    ) -> Result<()> {
        let mut held = None;
        let result = self.sweep(ops.into_iter().peekable(), unique, &mut held, stats, on_change);
        if result.is_err() && self.height == 1 {
            // The sweep may have failed with the resident root leaf taken
            // out for editing: those edits are void, and the root comes
            // back from its page.
            let raw = self.disk.read_page_free(PageId::new(self.file, self.root_page))?;
            self.root = Node::from_page(&raw)?;
        }
        result
    }

    fn sweep(
        &mut self,
        mut ops: Peekable<impl Iterator<Item = (u64, SweepOp)>>,
        unique: bool,
        held: &mut Option<Held>,
        stats: &mut SweepStats,
        on_change: &mut OnChange<'_>,
    ) -> Result<()> {
        let mut last_key = 0;
        while let Some((key, op)) = ops.next() {
            if key < last_key {
                return Err(Error::Invariant("apply_sorted input not sorted".into()));
            }
            last_key = key;
            self.seek(held, key, stats, on_change)?;
            let h = held.as_mut().expect("seek holds a leaf");
            let structural = if unique {
                // Every operation on `key`, netted against the entry.
                let rest = std::iter::from_fn(|| ops.next_if(|(k, _)| *k == key).map(|(_, op)| op));
                self.edit_unique(h, key, std::iter::once(op).chain(rest))
            } else {
                self.edit_repeated(h, key, op)
            };
            // What the held leaf cannot absorb goes through the recursive
            // path, after the leaf is back on its page.
            let Some((ops_taken, rejected, op)) = structural else { continue };
            // With unique keys the held leaf has the entry a remove is after.
            let before = match &op {
                SweepOp::Remove(_) if unique => {
                    let entries = h.entries();
                    let at = entries.partition_point(|(k, _)| *k < key);
                    entries.get(at).filter(|(k, _)| *k == key).map(|(_, v)| v.clone())
                }
                _ => None,
            };
            // The recursive path walks the pages the sweep just held: those
            // it reads again free of charge.
            let leaf_page = h.page;
            let path = self.land(held.take().expect("still held"), stats, on_change)?;
            let pages: Vec<u32> = path.iter().map(|f| f.page).chain([leaf_page]).collect();
            let (applied, after) = match op {
                SweepOp::Insert(value) => {
                    self.insert_past(key, value.clone(), &pages)?;
                    (true, Some(value))
                }
                SweepOp::Remove(exact) => {
                    let hit = |v: &[u8]| exact.as_deref().is_none_or(|x| x == v);
                    (self.remove_past(key, &hit, &pages)?, None)
                }
                SweepOp::Replace(_) => unreachable!("an overwrite never leaves its leaf"),
            };
            if unique && applied {
                on_change(key, before.as_deref(), after.as_deref());
            }
            stats.landed += ops_taken;
            stats.rejected += rejected + u64::from(!applied);
        }
        match held.take() {
            Some(h) => self.land(h, stats, on_change).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Make the held leaf the one `key` belongs in. Keys ascend, so a held
    /// node covers `key` when its upper bound does.
    fn seek(
        &mut self,
        held: &mut Option<Held>,
        key: u64,
        stats: &mut SweepStats,
        on_change: &mut OnChange<'_>,
    ) -> Result<()> {
        let covers = |hi: Option<u64>| hi.is_none_or(|hi| key < hi);
        if held.as_ref().is_some_and(|h| covers(h.hi)) {
            return Ok(());
        }
        let mut path = match held.take() {
            Some(h) => self.land(h, stats, on_change)?,
            None => Vec::new(),
        };
        while path.last().is_some_and(|f| !covers(f.hi)) {
            path.pop();
        }
        let fresh = |path, page, leaf, hi, image| Held {
            path,
            page,
            leaf,
            hi,
            image,
            touched: false,
            ops: 0,
            rejected: 0,
            grown: 0,
            changes: Vec::new(),
        };
        if self.height == 1 {
            let root = std::mem::replace(&mut self.root, Node::empty_leaf());
            *held = Some(fresh(path, self.root_page, root, None, None));
            return Ok(());
        }
        // Entries under a key equal to a separator sit right of it in a
        // tree of unique keys, and that is where an insert goes in any.
        let child_of = |tree: &BTree, node: &Node, node_hi: Option<u64>| match node {
            Node::Internal { keys, children } => {
                tree.charge_search(keys.len());
                let idx = Self::child_right(keys, key);
                Ok((children[idx], keys.get(idx).copied().or(node_hi)))
            }
            Node::Leaf { .. } => Err(Error::Invariant("leaf above the leaf level".into())),
        };
        let (mut page, mut hi) = match path.last() {
            Some(frame) => child_of(self, &frame.node, frame.hi)?,
            None => child_of(self, &self.root, None)?,
        };
        // The root is level 1 and `path` holds levels 2..: the node on
        // `page` sits at level `path.len() + 2`, leaves at `height`.
        while path.len() + 2 < self.height {
            let node = self.read_node(page)?;
            let below = child_of(self, &node, hi)?;
            path.push(Frame { page, node, hi });
            (page, hi) = below;
        }
        let image = self.disk.read_page_rc(PageId::new(self.file, page))?;
        let leaf = Node::from_page(&image)?;
        if !leaf.is_leaf() {
            return Err(Error::Invariant("internal node at the leaf level".into()));
        }
        *held = Some(fresh(path, page, leaf, hi, Some(image)));
        Ok(())
    }

    /// Put the held leaf back — written only if its image differs from the
    /// one read — then account for and report what was done on it. Hands
    /// back the path above it.
    fn land(
        &mut self,
        mut h: Held,
        stats: &mut SweepStats,
        on_change: &mut OnChange<'_>,
    ) -> Result<Vec<Frame>> {
        match &h.image {
            None => {
                if h.touched {
                    let page = h.leaf.to_page(self.disk.page_size())?;
                    self.disk.write_page_free(PageId::new(self.file, h.page), &page)?;
                }
                std::mem::swap(&mut self.root, &mut h.leaf);
            }
            Some(image) if h.touched => {
                let page = h.leaf.to_page(self.disk.page_size())?;
                if page != **image {
                    self.disk.write_page(PageId::new(self.file, h.page), &page)?;
                    stats.leaves_written += 1;
                }
            }
            Some(_) => {}
        }
        self.entries = self.entries.checked_add_signed(h.grown).expect("entry count in range");
        stats.landed += h.ops;
        stats.rejected += h.rejected;
        let leaf = if h.image.is_none() { &self.root } else { &h.leaf };
        if let Node::Leaf { entries, .. } = leaf {
            for (key, before) in &h.changes {
                let at = entries.partition_point(|(k, _)| k < key);
                let after = entries.get(at).filter(|(k, _)| k == key).map(|(_, v)| v.as_slice());
                on_change(*key, before.as_deref(), after);
            }
        }
        Ok(h.path)
    }

    /// Whether the held leaf may lose an entry without falling under half
    /// full (the root never underflows).
    fn spare_entry(&self, h: &Held) -> bool {
        h.image.is_none() || 2 * (h.leaf.len() - 1) >= self.cfg.leaf_cap
    }

    /// Unique keys: net every operation on `key` against the entry the
    /// held leaf has (or lacks) — [`net_chain`] — then make the one edit
    /// the verdict needs. Returns the edit instead, with the operations it
    /// stands for and the rejected among them, when the leaf cannot take
    /// it: an insert that overflows, a remove that underflows.
    fn edit_unique(
        &self,
        h: &mut Held,
        key: u64,
        chain: impl Iterator<Item = SweepOp>,
    ) -> Option<(u64, u64, SweepOp)> {
        let entries = h.entries();
        self.charge_search(entries.len());
        let at = entries.partition_point(|(k, _)| *k < key);
        let stored = entries.get(at).filter(|(k, _)| *k == key).map(|(_, v)| v.as_slice());
        let had = stored.is_some();
        let (netted, ops, rejected) = net_chain(stored, chain);
        match netted {
            Netted::Put(v) if had => {
                let before = std::mem::replace(&mut h.entries()[at].1, v);
                self.disk.cost().mov(1);
                h.changes.push((key, Some(before)));
                h.touched = true;
            }
            Netted::Put(v) => {
                h.entries().insert(at, (key, v));
                if !self.fits(&h.leaf) {
                    let (_, v) = h.entries().remove(at);
                    return Some((ops, rejected, SweepOp::Insert(v)));
                }
                self.disk.cost().mov(1);
                h.changes.push((key, None));
                h.grown += 1;
                h.touched = true;
            }
            Netted::Remove => {
                if !self.spare_entry(h) {
                    return Some((ops, rejected, SweepOp::Remove(None)));
                }
                let (_, before) = h.entries().remove(at);
                h.changes.push((key, Some(before)));
                h.grown -= 1;
                h.touched = true;
            }
            Netted::Unchanged => {}
        }
        h.ops += ops;
        h.rejected += rejected;
        None
    }

    /// Repeated keys: apply one operation to the held leaf. Returns it
    /// instead (as one operation, none rejected) when the leaf cannot take
    /// it or cannot tell — a remove that misses here may hit a leaf to the
    /// left.
    fn edit_repeated(&self, h: &mut Held, key: u64, op: SweepOp) -> Option<(u64, u64, SweepOp)> {
        match op {
            SweepOp::Insert(value) => {
                let entries = h.entries();
                self.charge_search(entries.len());
                let at =
                    entries.partition_point(|(k, v)| (*k, v.as_slice()) <= (key, value.as_slice()));
                entries.insert(at, (key, value));
                if !self.fits(&h.leaf) {
                    let (_, value) = h.entries().remove(at);
                    return Some((1, 0, SweepOp::Insert(value)));
                }
                self.disk.cost().mov(1);
                h.grown += 1;
                h.touched = true;
            }
            SweepOp::Remove(exact) => {
                let entries = h.entries();
                self.disk.cost().comp(entries.len() as u64);
                let found = entries
                    .iter()
                    .position(|(k, v)| *k == key && exact.as_deref().is_none_or(|x| x == v));
                match found {
                    Some(at) if self.spare_entry(h) => {
                        h.entries().remove(at);
                        h.grown -= 1;
                        h.touched = true;
                    }
                    _ => return Some((1, 0, SweepOp::Remove(exact))),
                }
            }
            SweepOp::Replace(_) => h.rejected += 1,
        }
        h.ops += 1;
        None
    }
}
