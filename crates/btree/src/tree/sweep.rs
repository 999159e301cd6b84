//! The sorted sweep: a batch of mutations in key order, applied leaf by
//! leaf.
//!
//! A single-key mutation pays a root-to-leaf descent and a leaf write of
//! its own. A batch sorted by key need not: consecutive keys mostly share
//! their leaf, and always share the upper part of their path. The sweep
//! holds the current path — one *unit* per level below the resident root,
//! a run of adjacent nodes under the unit above it, poured into one node
//! in memory, with the upper bound of its keys — and edits the leaf unit.
//! It moves on only when a key falls outside the held unit, landing what
//! it leaves, bottom-up, and re-descending from the deepest unit that
//! still covers the key. So every page is read at most once per sweep and
//! every page whose image changed is written once, when the sweep leaves
//! it: Yao's scheduled access, on the write side.
//!
//! Structure changes happen in the stream, and every leaf unit lands by
//! one rule: onto as few pages as its entries fill when that is fewer than
//! it was read from, else at the boundaries it was read with — a page that
//! overflows cut onto new pages after it, evenly, or full pages from the
//! left on the right edge of the level, so an ascending run packs — while
//! every page stays at least half full (but the right edge), else cut
//! anew. An internal unit keeps its boundaries under the same proviso. New
//! pages' separators go into the unit above, which lands later.
//!
//! A dirty leaf unit of a unique-key sweep that the batch moves on into
//! its right neighbour does not land: it takes the neighbour in (read
//! anyway) and lands, from the left, the full pages below the next key,
//! keeping less than a page of entries beside the neighbour's: the sweep
//! holds two leaf pages' worth. One that lost entries and would leave a
//! partial page takes its neighbour in as a *sibling* when the batch goes
//! on into the leaf past it. So a run of leaves the batch passes ends on
//! full pages. A unit
//! that fell under half full takes in its right neighbour before it lands
//! (as a sibling when the batch does not go on there; the unit above takes
//! in its own neighbour first when the unit ends at its last child);
//! moving on to the right edge of a level takes it in as well, so an
//! emptied right edge has its left neighbour at hand. Pages left over go
//! to the free list, an empty node never persists, and a root left with
//! one child hands the root to it. The sweep never restarts from the root.
//!
//! Progress is counted in *landed* operations: those whose effect is on a
//! written page (or needed none), counted as each page lands, so the full
//! pages a unit lands ahead of its partial one count at once. A landing
//! writes its new pages first — nothing points at them yet, so a device
//! fault there frees them and voids the leaf unit's edits — and once a page
//! the tree points at is written, it finishes, retrying what a transient
//! fault failed. On a fault the sweep voids the leaf unit it edits — unless
//! the unit carries entries off pages that already landed, which it lands
//! instead — and lands the units above it, so the tree stays sound and
//! [`SweepStats::landed`] tells the caller exactly which prefix of the
//! batch must not be applied again.

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
    /// Leaf page writes, pages split off included.
    pub leaves_written: u64,
    /// Leaves read only to merge with, refill from or pack across:
    /// neighbours of an underfull leaf, or of one that would end a run on a
    /// partial page, that hold no key of the batch.
    pub siblings_read: u64,
}

/// Called once per entry whose stored value changed, after the change is
/// on its page: `(key, value before, value after)`, `None` for absent.
pub type OnChange<'a> = dyn FnMut(u64, Option<&[u8]>, Option<&[u8]>) + 'a;

/// How often an I/O the sweep must finish is retried through transient
/// faults before the fault stands.
const RETRIES: usize = 4;

/// Adjacent nodes of one level, children of the unit above, poured into
/// one node.
struct Unit {
    node: Node,
    /// The pages the nodes came from, in key order.
    pages: Vec<u32>,
    /// Each page's image as read: a piece that lands unchanged is not
    /// written.
    images: Vec<Rc<Vec<u8>>>,
    /// Index of `pages[0]` among the children of the unit above.
    first: usize,
    /// Upper bound of the keys under the unit (`None` on the right edge).
    hi: Option<u64>,
    /// The node differs from what its pages hold.
    dirty: bool,
    /// Its pages no longer hold what it holds — it took entries off pages
    /// that landed, or a landing wrote part of it — so it lands even when
    /// the sweep fails.
    carry: bool,
}

/// What the edited leaf owes when it lands.
#[derive(Default)]
struct Edits {
    /// Operations consumed on it, rejected ones among them.
    ops: u64,
    rejected: u64,
    /// Entries gained (lost, if negative).
    grown: i64,
    /// `(key, value before)` of every entry changed; the value after is
    /// read off the leaf when it lands.
    changes: Vec<(u64, Option<Vec<u8>>)>,
    /// `(key, ops, rejected, grown)` of every key a unique sweep netted, in
    /// key order: what the keys below a page boundary owe.
    keys: Vec<(u64, u64, u64, i64)>,
}

impl Edits {
    /// The chain on `key` consumed `ops`, refused `rejected` of them and
    /// gained `grown` entries; `before` is the value it changed, if any.
    fn record(
        &mut self,
        key: u64,
        ops: u64,
        rejected: u64,
        grown: i64,
        before: Option<Option<Vec<u8>>>,
    ) {
        (self.ops, self.rejected, self.grown) =
            (self.ops + ops, self.rejected + rejected, self.grown + grown);
        self.keys.push((key, ops, rejected, grown));
        self.changes.extend(before.map(|before| (key, before)));
    }

    /// Split off what the keys below `sep` owe.
    fn split_below(&mut self, sep: u64) -> Edits {
        let mut below = Edits::default();
        let n = self.keys.partition_point(|k| k.0 < sep);
        for (key, ops, rejected, grown) in self.keys.drain(..n) {
            below.record(key, ops, rejected, grown, None);
        }
        let n = self.changes.partition_point(|c| c.0 < sep);
        below.changes = self.changes.drain(..n).collect();
        self.ops -= below.ops;
        self.rejected -= below.rejected;
        self.grown -= below.grown;
        below
    }
}

/// A sweep in progress.
struct Path<'s, 'c> {
    /// Level 2 (under the root) first; the last is the leaf unit while a
    /// leaf is held. Empty while the root is the leaf.
    units: Vec<Unit>,
    edits: Edits,
    unique: bool,
    /// The key the sweep heads for (`None`: it is finishing).
    next_key: Option<u64>,
    root_dirty: bool,
    /// Per level, the last node landed as its parent's only child: what
    /// a root handing itself down becomes.
    only_child: Vec<Option<(u32, Node)>>,
    /// A transient fault an I/O was retried through: the sweep stops once
    /// the landing in progress is done, and reports it.
    fault: Option<Error>,
    stats: SweepStats,
    on_change: Option<&'s mut OnChange<'c>>,
}

impl<'s, 'c> Path<'s, 'c> {
    fn new(height: usize, unique: bool, stats: SweepStats) -> Self {
        Path {
            units: Vec::with_capacity(height),
            edits: Edits::default(),
            unique,
            next_key: None,
            root_dirty: false,
            only_child: vec![None; height],
            fault: None,
            stats,
            on_change: None,
        }
    }

    /// Whether a unit with upper bound `hi` covers `key`. Keys ascend; a
    /// key equal to a separator sits right of it in a tree of unique keys
    /// and may sit on either side in one of repeated keys, which the sweep
    /// descends leftmost.
    fn covers(&self, hi: Option<u64>, key: u64) -> bool {
        hi.is_none_or(|hi| key < hi || (!self.unique && key == hi))
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
    /// a `Remove` looks through every leaf that may hold its key before it
    /// counts as rejected; `on_change` is not called.
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
        let mut p = Path::new(self.height, unique, *stats);
        p.on_change = Some(on_change);
        let mut result = self.sweep(ops.into_iter().peekable(), &mut p);
        if result.is_ok() {
            result = self.finish(&mut p, false);
        }
        if result.is_err() {
            result = self.abandon(&mut p).and(result);
        }
        *stats = p.stats;
        result?;
        p.fault.take().map_or(Ok(()), Err)
    }

    /// After a failure: the leaf's edits are void — unless it carries
    /// entries of landed pages, and lands — and what is above it lands.
    fn abandon(&mut self, p: &mut Path) -> Result<()> {
        let held = p.units.len() + 1 == self.height;
        let carry = held && p.units.last().is_some_and(|u| u.carry);
        if self.height == 1 {
            let raw = self.disk.read_page_free(PageId::new(self.file, self.root_page))?;
            self.root = Node::from_page(&raw)?;
        } else if held && !carry {
            p.units.pop();
        }
        if !carry {
            p.edits = Edits::default();
        }
        let _ = self.finish(p, true);
        Ok(())
    }

    fn sweep(
        &mut self,
        mut ops: Peekable<impl Iterator<Item = (u64, SweepOp)>>,
        p: &mut Path,
    ) -> Result<()> {
        let mut last_key = 0;
        while let Some((key, op)) = ops.next() {
            if key < last_key {
                return Err(Error::Invariant("apply_sorted input not sorted".into()));
            }
            last_key = key;
            self.seek(p, key)?;
            if let Some(fault) = p.fault.take() {
                return Err(fault);
            }
            if p.unique {
                // Every operation on `key`, netted against the entry.
                let rest = std::iter::from_fn(|| ops.next_if(|(k, _)| *k == key).map(|(_, op)| op));
                self.edit_unique(p, key, std::iter::once(op).chain(rest))?;
            } else {
                self.edit_repeated(p, key, op)?;
            }
        }
        Ok(())
    }

    /// Make the held leaf unit one that covers `key`: land the units that
    /// do not — or take in their right neighbour, for a dirty leaf unit of
    /// a unique sweep whose neighbour holds `key` (landing its full pages)
    /// or that would leave a partial page one leaf short of it, an
    /// underfull unit or one whose neighbour is the right edge — then
    /// descend.
    fn seek(&mut self, p: &mut Path, key: u64) -> Result<()> {
        p.next_key = Some(key);
        while let Some(u) = p.units.last() {
            if p.covers(u.hi, key) {
                break;
            }
            let li = p.units.len() - 1;
            let streams = p.unique && u.dirty && li + 2 == self.height;
            if streams && self.reach_right(p, li, key)? {
                self.land_full(p, li)?;
                if p.fault.is_some() {
                    return Ok(());
                }
                continue;
            }
            if streams && self.bridges(p, li, key) && self.extend_right(p, li, false)? {
                continue;
            }
            let u = &p.units[li];
            let (_, children, parent_hi) = self.parent(p, li);
            let end = u.first + u.pages.len();
            let edge_next = end + 1 == children.len() && parent_hi.is_none();
            let extend = (u.dirty && self.underfull(&u.node)) || edge_next;
            if extend && self.extend_right(p, li, false)? {
                continue;
            }
            self.land(p, li, false)?;
            if p.fault.is_some() {
                return Ok(());
            }
        }
        while p.units.len() + 1 < self.height {
            let li = p.units.len();
            self.charge_search(self.segment(p, li.checked_sub(1), key));
            let (keys, children, hi) = self.parent(p, li);
            let first =
                if p.unique { Self::child_right(keys, key) } else { Self::child_left(keys, key) };
            let (page, hi) = (children[first], keys.get(first).copied().or(hi));
            let image = self.read_io(page, false, &mut p.fault)?;
            let node = Node::from_page(&image)?;
            if node.is_leaf() != (li + 2 == self.height) {
                return Err(Error::Invariant(format!("page {page}: node at the wrong level")));
            }
            let pages = vec![page];
            let images = vec![image];
            p.units.push(Unit { node, pages, images, first, hi, dirty: false, carry: false });
        }
        Ok(())
    }

    /// The node the unit at `li` hangs under: its separators, children and
    /// upper bound.
    fn parent<'a>(&'a self, p: &'a Path, li: usize) -> (&'a [u64], &'a [u32], Option<u64>) {
        let (node, hi) = match li.checked_sub(1) {
            Some(up) => (&p.units[up].node, p.units[up].hi),
            None => (&self.root, None),
        };
        match node {
            Node::Internal { keys, children } => (keys, children, hi),
            Node::Leaf { .. } => unreachable!("a held unit hangs under an internal node"),
        }
    }

    /// What the node `key` falls in held when it was read — one page of
    /// the unit at `li`, or the root for `None`: a search charges its
    /// entries (keys) as if the unit were still the pages it came from.
    fn segment(&self, p: &Path, li: Option<usize>, key: u64) -> usize {
        let Some(li) = li else { return self.root.len() };
        let u = &p.units[li];
        if u.pages.len() == 1 {
            return u.node.len();
        }
        let (keys, _, _) = self.parent(p, li);
        let seps = &keys[u.first..u.first + u.pages.len() - 1];
        let j = seps.partition_point(|&sep| !p.covers(Some(sep), key));
        let (lo, hi) = (j.checked_sub(1).map(|i| seps[i]), seps.get(j).copied());
        match &u.node {
            Node::Leaf { entries, .. } => {
                let at = |sep: Option<u64>| {
                    sep.map_or(entries.len(), |sep| entries.partition_point(|(k, _)| *k < sep))
                };
                at(hi) - lo.map_or(0, |lo| at(Some(lo)))
            }
            Node::Internal { keys, .. } => {
                let end = hi.map_or(keys.len(), |hi| keys.partition_point(|&k| k < hi));
                end - lo.map_or(0, |lo| keys.partition_point(|&k| k <= lo))
            }
        }
    }

    /// Take the right neighbour of the unit at `li` into it — after the
    /// unit above took in its own, if this one ends at its last child.
    /// False on the right edge of the level.
    fn extend_right(&mut self, p: &mut Path, li: usize, retry: bool) -> Result<bool> {
        let end = p.units[li].first + p.units[li].pages.len();
        if end == self.parent(p, li).1.len() && (li == 0 || !self.extend_right(p, li - 1, retry)?) {
            return Ok(false);
        }
        let (keys, children, parent_hi) = self.parent(p, li);
        let (page, sep, hi) = (children[end], keys[end - 1], keys.get(end).copied().or(parent_hi));
        let on_the_way = p.next_key.filter(|&key| p.covers(hi, key));
        if let Some(key) = on_the_way {
            // What the descent to the key would have searched.
            self.charge_search(self.segment(p, li.checked_sub(1), key));
        }
        let image = self.read_io(page, retry, &mut p.fault)?;
        let node = Node::from_page(&image)?;
        if li + 2 == self.height && on_the_way.is_none() {
            p.stats.siblings_read += 1;
        }
        let u = &mut p.units[li];
        u.node.absorb(sep, node);
        u.pages.push(page);
        u.images.push(image);
        u.hi = hi;
        Ok(true)
    }

    /// Take the right neighbour of the unit at `li` into it if `key` lies
    /// there — after the unit above took in its own, if this one ends at
    /// its last child and `key` lies under that one.
    fn reach_right(&mut self, p: &mut Path, li: usize, key: u64) -> Result<bool> {
        let end = p.units[li].first + p.units[li].pages.len();
        if end == self.parent(p, li).1.len() && (li == 0 || !self.reach_right(p, li - 1, key)?) {
            return Ok(false);
        }
        let (keys, _, parent_hi) = self.parent(p, li);
        if !p.covers(keys.get(end).copied().or(parent_hi), key) {
            return Ok(false);
        }
        self.extend_right(p, li, false)
    }

    /// Whether the leaf unit at `li` lost entries, would land a partial
    /// page, and `key` lies in the leaf past its right neighbour, under the
    /// same node: taking the neighbour in, as a sibling, keeps the run of
    /// full pages going instead of leaving a partial one behind.
    fn bridges(&self, p: &Path, li: usize, key: u64) -> bool {
        let u = &p.units[li];
        let (keys, children, parent_hi) = self.parent(p, li);
        let end = u.first + u.pages.len();
        p.edits.grown < 0
            && !u.node.len().is_multiple_of(self.cfg.leaf_cap)
            && end + 1 < children.len()
            && !p.covers(Some(keys[end]), key)
            && p.covers(keys.get(end + 1).copied().or(parent_hi), key)
    }

    /// Land the full pages of the leaf unit at `li` — the deepest held,
    /// which just took in the neighbour the batch moves on into — that lie
    /// below the key the sweep heads for: the entries poured from the left
    /// at `leaf_cap` (and the page size) onto the pages they came from,
    /// keeping the neighbour's page in hand. The rest of the unit stays
    /// held, carrying what it took off the landed pages unless it begins
    /// where a page did.
    fn land_full(&mut self, p: &mut Path, li: usize) -> Result<()> {
        let key = p.next_key.expect("a unit lands full pages on the way to a key");
        let (keys, _, _) = self.parent(p, li);
        let u = &p.units[li];
        let m = u.pages.len();
        let Node::Leaf { entries, .. } = &u.node else { unreachable!("the sweep edits leaves") };
        let old_seps = &keys[u.first..u.first + m - 1];
        // Where each page as read begins.
        let starts: Vec<usize> = std::iter::once(0)
            .chain(old_seps.iter().map(|&sep| entries.partition_point(|(k, _)| *k < sep)))
            .collect();
        let below = entries.partition_point(|(k, _)| *k < key).min(starts[m - 1]);
        let Some(cut) = self.fill_points(entries).into_iter().take_while(|&at| at <= below).last()
        else {
            return Ok(());
        };
        // The pages that begin below the cut land; the next keeps the rest.
        let j = starts.partition_point(|&at| at < cut);
        let carry = starts[j] > cut;
        let sep = if carry { entries[cut].0.min(key) } else { old_seps[j - 1] };
        let prefix = Unit {
            node: Node::Leaf { entries: entries[..cut].to_vec(), next: Some(u.pages[j]) },
            pages: u.pages[..j].to_vec(),
            images: u.images[..j].to_vec(),
            first: u.first,
            hi: Some(sep),
            dirty: true,
            carry: u.carry,
        };
        let mut committed = prefix.carry;
        let landed = match self.put(p, li, &prefix, &mut committed, Some(sep)) {
            Ok(landed) => landed,
            Err(e) => {
                // Written in part: the whole unit lands when the sweep ends.
                p.units[li].carry |= committed;
                return Err(e);
            }
        };
        let below = p.edits.split_below(sep);
        let afters = Self::afters(&below, &prefix.node);
        self.account(p, below, afters);
        let u = &mut p.units[li];
        let Node::Leaf { entries, .. } = &mut u.node else { unreachable!() };
        entries.drain(..cut);
        u.pages.drain(..j);
        u.images.drain(..j);
        (u.first, u.carry) = (u.first + landed, carry);
        Ok(())
    }

    /// Take the left neighbour of the unit at `li` into it (an emptied
    /// right edge; the sweep never passed that neighbour, or the unit
    /// would hold it). False when the unit begins its level.
    fn extend_left(&mut self, p: &mut Path, li: usize, retry: bool) -> Result<bool> {
        if p.units[li].first == 0 && (li == 0 || !self.extend_left(p, li - 1, retry)?) {
            return Ok(false);
        }
        let first = p.units[li].first;
        let (keys, children, _) = self.parent(p, li);
        let (page, sep) = (children[first - 1], keys[first - 1]);
        let image = self.read_io(page, retry, &mut p.fault)?;
        let mut left = Node::from_page(&image)?;
        if li + 2 == self.height {
            p.stats.siblings_read += 1;
        }
        let added = match &left {
            Node::Internal { children, .. } => children.len(),
            Node::Leaf { .. } => 0,
        };
        let u = &mut p.units[li];
        left.absorb(sep, std::mem::replace(&mut u.node, Node::empty_leaf()));
        u.node = left;
        u.pages.insert(0, page);
        u.images.insert(0, image);
        u.first -= 1;
        if let Some(below) = p.units.get_mut(li + 1) {
            below.first += added;
        }
        Ok(true)
    }

    /// Land the unit at `li`, the deepest held: mend an underflow it made
    /// (or an emptied right edge), then put it on its pages
    /// ([`BTree::put`]). With `retry` every I/O is finished through
    /// transient faults; otherwise a leaf unit whose first write fails is
    /// voided instead, and one that fails later stays held, to land whole
    /// when the sweep finishes.
    fn land(&mut self, p: &mut Path, li: usize, retry: bool) -> Result<()> {
        loop {
            let u = &p.units[li];
            let mend = if u.hi.is_some() { self.underfull(&u.node) } else { u.node.is_empty() };
            let extended = match (u.dirty && mend, u.hi) {
                (false, _) => false,
                (true, Some(_)) => self.extend_right(p, li, retry)?,
                (true, None) => self.extend_left(p, li, retry)?,
            };
            if !extended {
                break;
            }
        }
        let mut u = p.units.pop().expect("landing a held unit");
        let leaf = u.node.is_leaf();
        if u.dirty {
            let mut committed = retry || !leaf || u.carry;
            if let Err(e) = self.put(p, li, &u, &mut committed, None) {
                if committed {
                    // Written in part: it lands whole when the sweep ends.
                    u.carry = true;
                    p.units.push(u);
                }
                return Err(e);
            }
        }
        if leaf {
            let afters = Self::afters(&p.edits, &u.node);
            let edits = std::mem::take(&mut p.edits);
            self.account(p, edits, afters);
        }
        Ok(())
    }

    /// Put the dirty unit `u` of level `li` on pages: cut it, write what
    /// changed, free the pages left over, and hand the pages and the
    /// separators between them to the unit above — with `right`, the
    /// separator after the unit too. New pages are written first and freed
    /// again if a write fails; `committed` turns true once a page the tree
    /// points at is written, and from then on writes retry through
    /// transient faults. Returns how many pages the unit landed on.
    fn put(
        &mut self,
        p: &mut Path,
        li: usize,
        u: &Unit,
        committed: &mut bool,
        right: Option<u64>,
    ) -> Result<usize> {
        let (leaf, m, edge) = (u.node.is_leaf(), u.pages.len(), u.hi.is_none());
        let (keys, _, _) = self.parent(p, li);
        let old_seps = keys[u.first..u.first + m - 1].to_vec();
        let old_right = right.map(|_| keys[u.first + m - 1]);
        let after = match &u.node {
            Node::Leaf { next, .. } => *next,
            Node::Internal { .. } => None,
        };
        // Piece `i` lands on page `slots[i]` of the unit, or on a new page.
        let (mut pieces, seps, slots) = if let Node::Leaf { entries, .. } = &u.node {
            // On the right edge, what came past the last entry read there.
            let appended = if edge {
                let last = crate::node::leaf_entries(&u.images[m - 1])?.0.last().transpose()?;
                entries.len() - last.map_or(0, |(top, _)| entries.partition_point(|e| e.0 <= top))
            } else {
                0
            };
            self.cut_leaf(&u.node, edge, &old_seps, appended)
        } else {
            let (pieces, seps) = self.cut(&u.node, edge, &old_seps);
            let slots = (0..pieces.len()).map(|i| (i < m).then_some(i)).collect();
            (pieces, seps, slots)
        };
        let k = pieces.len();
        let mut pages = Vec::with_capacity(k);
        for slot in &slots {
            pages.push(match *slot {
                Some(j) => u.pages[j],
                None => self.alloc_page()?,
            });
        }
        let size = self.disk.page_size();
        let mut images = Vec::with_capacity(k);
        for (i, piece) in pieces.iter_mut().enumerate() {
            if let Node::Leaf { next, .. } = piece {
                *next = pages.get(i + 1).copied().or(after);
            }
            images.push(piece.to_page(size)?);
        }
        let fresh = (0..k).filter(|&i| slots[i].is_none());
        let changed = (0..k).filter(|&i| slots[i].is_some_and(|j| images[i] != *u.images[j]));
        let mut written = 0;
        for i in fresh.chain(changed) {
            if let Err(e) = self.write_io(pages[i], &images[i], *committed, &mut p.fault) {
                for i in (0..k).filter(|&i| slots[i].is_none()) {
                    self.free_page(pages[i])?;
                }
                return Err(e);
            }
            *committed |= slots[i].is_some();
            written += 1;
        }
        for j in (0..m).filter(|&j| !slots.contains(&Some(j))) {
            self.free_page(u.pages[j])?;
        }
        let metrics = self.disk.metrics();
        (0..k.saturating_sub(m)).for_each(|_| metrics.incr_id(self.c_splits));
        (0..m.saturating_sub(k)).for_each(|_| metrics.incr_id(self.c_merges));
        if leaf {
            self.leaves = (self.leaves + k as u64) - m as u64;
            p.stats.leaves_written += written;
        }
        if k != m || seps != old_seps || right != old_right {
            let (first, parent) = (u.first, self.parent_mut(p, li));
            let Node::Internal { keys, children } = parent else { unreachable!() };
            let outer = usize::from(right.is_some());
            keys.splice(first..first + m - 1 + outer, seps.into_iter().chain(right));
            children.splice(first..first + m, pages.iter().copied());
            let only = children.len() == 1;
            match li.checked_sub(1) {
                Some(up) => p.units[up].dirty = true,
                None => p.root_dirty = true,
            }
            if only {
                p.only_child[li] = Some((pages[0], pieces.swap_remove(0)));
            }
        }
        Ok(k)
    }

    fn parent_mut<'a>(&'a mut self, p: &'a mut Path, li: usize) -> &'a mut Node {
        match li.checked_sub(1) {
            Some(up) => &mut p.units[up].node,
            None => &mut self.root,
        }
    }

    /// The value each entry the edits changed holds on `leaf` now.
    fn afters(edits: &Edits, leaf: &Node) -> Vec<Option<Vec<u8>>> {
        let Node::Leaf { entries, .. } = leaf else { unreachable!("the sweep edits leaves") };
        let after = |key: u64| {
            let at = entries.partition_point(|(k, _)| *k < key);
            entries.get(at).filter(|(k, _)| *k == key).map(|(_, v)| v.clone())
        };
        edits.changes.iter().map(|(key, _)| after(*key)).collect()
    }

    /// Edits on a leaf landed, its changed entries now holding `afters`:
    /// count their operations and entries and report what changed.
    fn account(&mut self, p: &mut Path, edits: Edits, afters: Vec<Option<Vec<u8>>>) {
        self.entries = self.entries.checked_add_signed(edits.grown).expect("entry count in range");
        p.stats.landed += edits.ops;
        p.stats.rejected += edits.rejected;
        if let Some(on_change) = p.on_change.as_mut() {
            for ((key, before), after) in edits.changes.iter().zip(afters) {
                on_change(*key, before.as_deref(), after.as_deref());
            }
        }
    }

    /// Whether `piece` makes a sound page: it fits, is not empty, and is
    /// at least half full unless it is the right edge (`last`).
    fn sound(&self, piece: &Node, last: bool) -> bool {
        self.fits(piece) && !piece.is_empty() && (last || !self.underfull(piece))
    }

    /// Cut `node` into pages: at the separators `seps` it was read with
    /// when every piece is then a sound page, else anew (module docs).
    /// Returns the pieces and the separators between them.
    fn cut(&self, node: &Node, edge: bool, seps: &[u64]) -> (Vec<Node>, Vec<u64>) {
        if seps.is_empty() && self.sound(node, edge) {
            return (vec![node.clone()], Vec::new());
        }
        let (len, leaf) = (node.len(), node.is_leaf());
        let sound = |pieces: &[Node]| {
            let last = pieces.len() - 1;
            pieces.iter().enumerate().all(|(i, piece)| self.sound(piece, edge && i == last))
        };
        let at: Option<Vec<usize>> = seps
            .iter()
            .map(|&sep| match node {
                Node::Leaf { entries, .. } => Some(entries.partition_point(|(k, _)| *k < sep)),
                Node::Internal { keys, .. } => keys.iter().position(|&k| k == sep),
            })
            .collect();
        // Every piece keeps an entry (a key, for an internal node).
        let apart = |at: &Vec<usize>| {
            at.windows(2).all(|w| w[0] < w[1])
                && at.first().is_none_or(|&first| first > 0)
                && at.last().is_none_or(|&last| last < len)
        };
        if let Some(at) = at.filter(apart) {
            let (pieces, cut_seps) = Self::split_at(node, &at);
            if sound(&pieces) {
                return (pieces, cut_seps);
            }
        }
        let cap = if leaf { self.cfg.leaf_cap } else { self.cfg.internal_cap };
        let up = usize::from(!leaf); // an internal cut moves its key up
        let mut sizes = Vec::new();
        if edge {
            let mut rest = len;
            while rest > cap {
                let take = cap.min(rest - 1 - up);
                sizes.push(take);
                rest -= take + up;
            }
            sizes.push(rest);
        } else {
            let k = (len + up).div_ceil(cap + up).max(1);
            let kept = len - (k - 1) * up;
            sizes = (0..k).map(|i| kept / k + usize::from(i < kept % k)).collect();
        }
        let at: Vec<usize> = sizes[..sizes.len() - 1]
            .iter()
            .scan(0, |at, &size| {
                *at += size;
                let here = *at;
                *at += up;
                Some(here)
            })
            .collect();
        let (pieces, cut_seps) = Self::split_at(node, &at);
        if pieces.iter().all(|piece| self.fits(piece)) {
            return (pieces, cut_seps);
        }
        // Values of unequal width: as many entries to a page as fit.
        let Node::Leaf { entries, .. } = node else { unreachable!("internal nodes fit by count") };
        Self::split_at(node, &self.fill_points(entries))
    }

    /// Where each page but the first begins when `entries` are poured
    /// into pages from the left, each as full as `leaf_cap` and the page
    /// size let it be.
    fn fill_points(&self, entries: &[Entry]) -> Vec<usize> {
        let (mut at, mut count, mut bytes) = (Vec::new(), 0, 7);
        for (i, (_, v)) in entries.iter().enumerate() {
            if count == self.cfg.leaf_cap || bytes + 10 + v.len() > self.disk.page_size() {
                at.push(i);
                (count, bytes) = (0, 7);
            }
            count += 1;
            bytes += 10 + v.len();
        }
        at
    }

    /// Cut a leaf unit read from pages at `seps` (module docs): onto as
    /// few pages as its entries fill at `leaf_cap` when that is fewer than
    /// it was read from; else at `seps`, each page that overflows cut onto
    /// new pages after it — evenly, or full from the left on the right edge
    /// when what overflows it is the last `appended` entries, past those it
    /// was read with — when every piece is then a sound page and that takes
    /// no more pages; else anew ([`BTree::cut`]). Returns the pieces, the
    /// separators between them and the page of the unit each piece lands
    /// on (`None`: a new page).
    #[allow(clippy::type_complexity)]
    fn cut_leaf(
        &self,
        node: &Node,
        edge: bool,
        seps: &[u64],
        appended: usize,
    ) -> (Vec<Node>, Vec<u64>, Vec<Option<usize>>) {
        let Node::Leaf { entries, .. } = node else { unreachable!("a leaf unit") };
        let (m, len, cap) = (seps.len() + 1, entries.len(), self.cfg.leaf_cap);
        let packed = len.div_ceil(cap).max(1);
        let mut bounds = vec![0];
        bounds.extend(seps.iter().map(|&sep| entries.partition_point(|(k, _)| *k < sep)));
        bounds.push(len);
        // Per piece: where it begins, and the page it keeps.
        let mut cuts: Vec<(usize, Option<usize>)> = Vec::new();
        for (j, w) in bounds.windows(2).enumerate() {
            let n = w[1] - w[0];
            let packs = edge && j + 1 == m && n - appended.min(n) <= cap;
            let q = n.div_ceil(cap);
            let at = |i: usize| w[0] + if packs { cap * i } else { n * i / q };
            cuts.extend((0..q).map(|i| (at(i), (i == 0).then_some(j))));
        }
        if packed >= m && cuts.iter().filter(|c| c.1.is_some()).count() == m && cuts.len() <= packed
        {
            let at: Vec<usize> = cuts[1..].iter().map(|c| c.0).collect();
            let (pieces, new_seps) = Self::split_at(node, &at);
            let last = pieces.len() - 1;
            if pieces.iter().enumerate().all(|(i, piece)| self.sound(piece, edge && i == last)) {
                // A piece that keeps its page keeps the separator before it.
                let kept = cuts[1..].iter().map(|c| c.1.map(|j| seps[j - 1]));
                let seps = new_seps.into_iter().zip(kept).map(|(new, old)| old.unwrap_or(new));
                return (pieces, seps.collect(), cuts.iter().map(|c| c.1).collect());
            }
        }
        let (pieces, new_seps) = self.cut(node, edge, &[]);
        let slots = (0..pieces.len()).map(|i| (i < m).then_some(i)).collect();
        (pieces, new_seps, slots)
    }

    /// Cut `node` at the ascending positions `at` (entries of a leaf, the
    /// keys that move up of an internal node).
    fn split_at(node: &Node, at: &[usize]) -> (Vec<Node>, Vec<u64>) {
        let mut rest = node.clone();
        let (mut pieces, mut seps) = (Vec::with_capacity(at.len() + 1), Vec::new());
        for &cut in at.iter().rev() {
            let (sep, right) = rest.split_off(cut, 0);
            pieces.push(right);
            seps.push(sep);
        }
        pieces.push(rest);
        pieces.reverse();
        seps.reverse();
        (pieces, seps)
    }

    /// Land every held unit, then settle the root: hand it down while it
    /// has one child, grow the tree while it overflows, write it.
    fn finish(&mut self, p: &mut Path, retry: bool) -> Result<()> {
        p.next_key = None;
        while let Some(li) = p.units.len().checked_sub(1) {
            self.land(p, li, retry)?;
        }
        let root_leaf = self.height == 1;
        let mut level = 0;
        while let Node::Internal { keys, children } = &self.root {
            if !keys.is_empty() {
                break;
            }
            let (old, child) = (self.root_page, children[0]);
            self.root = match p.only_child.get_mut(level).and_then(Option::take) {
                Some((page, node)) if page == child => node,
                _ => Node::from_page(&self.read_io(child, true, &mut p.fault)?)?,
            };
            (self.root_page, level) = (child, level + 1);
            self.height -= 1;
            self.free_page(old)?;
            p.root_dirty = true;
        }
        let afters = if root_leaf { Self::afters(&p.edits, &self.root) } else { Vec::new() };
        while !self.fits(&self.root) {
            // The root is the right edge of its level.
            let root = std::mem::replace(&mut self.root, Node::empty_leaf());
            let (pieces, seps) = self.cut(&root, true, &[]);
            let mut pages = Vec::with_capacity(pieces.len());
            for _ in &pieces {
                pages.push(self.alloc_page()?);
            }
            for (i, mut piece) in pieces.into_iter().enumerate() {
                if let Node::Leaf { next, .. } = &mut piece {
                    *next = pages.get(i + 1).copied();
                    self.leaves += u64::from(i > 0);
                    p.stats.leaves_written += 1;
                }
                let image = piece.to_page(self.disk.page_size())?;
                self.write_io(pages[i], &image, true, &mut p.fault)?;
                self.disk.metrics().incr_id(self.c_splits);
            }
            self.root = Node::Internal { keys: seps, children: pages };
            self.height += 1;
            p.root_dirty = true;
        }
        if p.root_dirty {
            self.write_root_free()?;
        }
        if root_leaf {
            let edits = std::mem::take(&mut p.edits);
            self.account(p, edits, afters);
        }
        Ok(())
    }

    /// Read a page of the tree, charged; with `retry`, through transient
    /// faults, the first of which is kept in `fault`.
    fn read_io(&self, page: u32, retry: bool, fault: &mut Option<Error>) -> Result<Rc<Vec<u8>>> {
        let pid = PageId::new(self.file, page);
        let mut tries = 0;
        loop {
            match self.disk.read_page_rc(pid) {
                Err(e) if retry && e.is_retryable() && tries < RETRIES => {
                    fault.get_or_insert(e);
                    tries += 1;
                }
                read => return read,
            }
        }
    }

    /// Write a page of the tree, charged; with `retry`, through device
    /// faults (a full-page write heals a torn or poisoned mark), the first
    /// of which is kept in `fault`.
    fn write_io(
        &self,
        page: u32,
        image: &[u8],
        retry: bool,
        fault: &mut Option<Error>,
    ) -> Result<()> {
        let pid = PageId::new(self.file, page);
        let mut tries = 0;
        loop {
            match self.disk.write_page(pid, image) {
                Err(e) if retry && e.is_device_fault() && tries < RETRIES => {
                    fault.get_or_insert(e);
                    tries += 1;
                }
                written => return written,
            }
        }
    }

    /// The leaf the sweep edits: the leaf unit, or the resident root leaf.
    fn held<'a>(&'a self, p: &'a Path) -> &'a [(u64, Vec<u8>)] {
        match p.units.last().map_or(&self.root, |u| &u.node) {
            Node::Leaf { entries, .. } => entries,
            Node::Internal { .. } => unreachable!("the sweep edits leaves"),
        }
    }

    /// [`BTree::held`], to edit.
    fn held_mut<'a>(&'a mut self, p: &'a mut Path) -> &'a mut Vec<(u64, Vec<u8>)> {
        let (leaf, dirty) = match p.units.last_mut() {
            Some(u) => (&mut u.node, &mut u.dirty),
            None => (&mut self.root, &mut p.root_dirty),
        };
        *dirty = true;
        match leaf {
            Node::Leaf { entries, .. } => entries,
            Node::Internal { .. } => unreachable!("the sweep edits leaves"),
        }
    }

    /// Refuse an entry no page could hold.
    fn check_width(&self, value: &[u8]) -> Result<()> {
        let (needed, available) = (10 + value.len(), self.disk.page_size());
        if 7 + needed > available {
            return Err(Error::PageOverflow { needed, available });
        }
        Ok(())
    }

    /// Unique keys: net every operation on `key` against the entry the
    /// held leaf has (or lacks) — [`net_chain`] — then make the one edit
    /// the verdict needs.
    fn edit_unique(
        &mut self,
        p: &mut Path,
        key: u64,
        chain: impl Iterator<Item = SweepOp>,
    ) -> Result<()> {
        self.charge_search(self.segment(p, p.units.len().checked_sub(1), key));
        let entries = self.held(p);
        let at = entries.partition_point(|(k, _)| *k < key);
        let stored = entries.get(at).filter(|(k, _)| *k == key).map(|(_, v)| v.as_slice());
        let had = stored.is_some();
        let (netted, ops, rejected) = net_chain(stored, chain);
        let (before, grown) = match netted {
            Netted::Unchanged => (None, 0),
            Netted::Put(v) => {
                self.check_width(&v)?;
                self.disk.cost().mov(1);
                if had {
                    (Some(Some(std::mem::replace(&mut self.held_mut(p)[at].1, v))), 0)
                } else {
                    self.held_mut(p).insert(at, (key, v));
                    (Some(None), 1)
                }
            }
            Netted::Remove => (Some(Some(self.held_mut(p).remove(at).1)), -1),
        };
        p.edits.record(key, ops, rejected, grown, before);
        Ok(())
    }

    /// Repeated keys: apply one operation to the held leaf. A remove that
    /// misses looks on in the leaves to the right while they may hold the
    /// key.
    fn edit_repeated(&mut self, p: &mut Path, key: u64, op: SweepOp) -> Result<()> {
        p.edits.ops += 1;
        match op {
            SweepOp::Insert(value) => {
                self.check_width(&value)?;
                self.charge_search(self.segment(p, p.units.len().checked_sub(1), key));
                self.disk.cost().mov(1);
                let entries = self.held_mut(p);
                let at =
                    entries.partition_point(|(k, v)| (*k, v.as_slice()) <= (key, value.as_slice()));
                entries.insert(at, (key, value));
                p.edits.grown += 1;
            }
            SweepOp::Remove(exact) => loop {
                let cost = self.segment(p, p.units.len().checked_sub(1), key);
                self.disk.cost().comp(cost as u64);
                let hit = |(k, v): &(u64, Vec<u8>)| {
                    *k == key && exact.as_deref().is_none_or(|x| x == v.as_slice())
                };
                if let Some(at) = self.held(p).iter().position(hit) {
                    self.held_mut(p).remove(at);
                    p.edits.grown -= 1;
                    break;
                }
                let li = p.units.len().wrapping_sub(1);
                let more = p.units.last().is_some_and(|u| u.hi == Some(key));
                if !(more && self.extend_right(p, li, false)?) {
                    p.edits.rejected += 1;
                    break;
                }
            },
            SweepOp::Replace(_) => p.edits.rejected += 1,
        }
        Ok(())
    }
}

/// A leaf entry: key and value.
type Entry = (u64, Vec<u8>);

/// The §3.3 passes over a tree's leaves ([`BTree::passes`]): a pass is one
/// leaf unit of the sweep, read along the chain, handed to the caller and
/// landed with what the caller hands back.
pub struct Passes<'t> {
    tree: &'t mut BTree,
    p: Path<'t, 't>,
    leaves: usize,
    group: fn(u64) -> u64,
    /// The key the next pass begins at (`None`: every leaf has passed).
    at: Option<u64>,
    /// Entries of the held leaf unit an earlier pass handed out: a pass
    /// that leaves its unit under half full does not land it, the next
    /// pass reads on into it.
    done: usize,
    finished: bool,
}

impl BTree {
    /// Walk the leaves in passes of up to `leaves` leaves each, read once
    /// along the chain. A pass goes on to the end of the last key group
    /// it holds (`group` maps a key to its group; keys of one group are
    /// adjacent), which the separator after it tells without a read. Each
    /// pass lands where it was read: a leaf whose image does not change is
    /// not written, and a pass whose entries fit in fewer pages is cut
    /// anew onto that many, the pages left over going on the free list.
    /// The tree must hold unique keys.
    pub fn passes(&mut self, leaves: usize, group: fn(u64) -> u64) -> Passes<'_> {
        let p = Path::new(self.height, true, SweepStats::default());
        Passes {
            tree: self,
            p,
            leaves: leaves.max(1),
            group,
            at: Some(0),
            done: 0,
            finished: false,
        }
    }

    /// Lower the separator left of the leaf unit to `key` if it is above
    /// it: a pass's first group may gain a key below the one its first
    /// leaf began with (everything left of it is of an earlier group).
    fn lower_left(&mut self, p: &mut Path, key: u64) {
        let Some(li) = p.units.iter().rposition(|u| u.first > 0) else { return };
        let first = p.units[li].first;
        let (node, dirty) = match li.checked_sub(1) {
            Some(up) => {
                let u = &mut p.units[up];
                (&mut u.node, &mut u.dirty)
            }
            None => (&mut self.root, &mut p.root_dirty),
        };
        let Node::Internal { keys, .. } = node else { unreachable!("units hang under nodes") };
        if keys[first - 1] > key {
            keys[first - 1] = key;
            *dirty = true;
        }
    }
}

impl Passes<'_> {
    /// Whether every leaf has passed.
    pub fn is_done(&self) -> bool {
        self.at.is_none()
    }

    /// Read the next pass: its entries, and the first group of the pass
    /// after it (`None` for the last pass). The entries the caller lands
    /// must lie below that group.
    pub fn read(&mut self) -> Result<(&[Entry], Option<u64>)> {
        let key = self.at.ok_or_else(|| Error::Invariant("every leaf has passed".into()))?;
        let (tree, p, group) = (&mut *self.tree, &mut self.p, self.group);
        let mut end = None;
        if tree.height > 1 {
            let mut fresh = 0;
            if p.units.len() + 1 < tree.height {
                tree.seek(p, key)?;
                if let Some(fault) = p.fault.take() {
                    return Err(fault);
                }
                fresh = 1;
            }
            p.next_key = None;
            let li = p.units.len() - 1;
            while fresh < self.leaves && tree.extend_right(p, li, false)? {
                fresh += 1;
            }
            while let (Some(hi), Some(&(last, _))) = (p.units[li].hi, tree.held(p).last()) {
                if group(hi) != group(last) || !tree.extend_right(p, li, false)? {
                    break;
                }
            }
            end = p.units[li].hi.map(group);
        }
        Ok((&tree.held(p)[self.done..], end))
    }

    /// Land the pass [`Passes::read`] read with `entries`, in key order,
    /// in place of the ones it handed out.
    pub fn land(&mut self, entries: Vec<Entry>) -> Result<()> {
        let (tree, p, done) = (&mut *self.tree, &mut self.p, self.done);
        let held = tree.held(p);
        debug_assert!(
            {
                let keys = || held[..done].iter().chain(&entries).map(|(k, _)| *k);
                keys().zip(keys().skip(1)).all(|(a, b)| a < b)
            },
            "a pass lands unique keys in order"
        );
        if held[done..] != entries[..] {
            p.edits.grown += entries.len() as i64 - (held.len() - done) as i64;
            if let Some(&(least, _)) = entries.first() {
                tree.lower_left(p, least);
            }
            let leaf = tree.held_mut(p);
            leaf.truncate(done);
            leaf.extend(entries);
        }
        if tree.height == 1 {
            self.at = None;
            return Ok(());
        }
        let li = p.units.len() - 1;
        let u = &mut p.units[li];
        if u.hi.is_some() && tree.underfull(&u.node) {
            self.done = u.node.len();
            return Ok(());
        }
        // Entries that fit in fewer pages are packed, changed or not.
        u.dirty |= u.node.len().div_ceil(tree.cfg.leaf_cap) < u.pages.len();
        (self.at, self.done) = (u.hi, 0);
        tree.land(p, li, false)?;
        p.fault.take().map_or(Ok(()), Err)
    }

    /// Land what is held and settle the root.
    pub fn finish(mut self) -> Result<()> {
        self.finished = true;
        let (tree, p) = (&mut *self.tree, &mut self.p);
        let mut result = tree.finish(p, false);
        if result.is_err() {
            result = tree.abandon(p).and(result);
        }
        result?;
        p.fault.take().map_or(Ok(()), Err)
    }
}

impl Drop for Passes<'_> {
    /// Dropped unfinished (a pass failed), the held leaves' edits are void
    /// and what is above them lands: the tree stays sound, holding the
    /// passes that landed.
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.tree.abandon(&mut self.p);
        }
    }
}
