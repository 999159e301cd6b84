//! The B⁺-tree proper.
//!
//! One tree = one file on the [`Disk`]. The root node is kept in memory and
//! never charges I/O, matching the paper's Appendix assumption that "the
//! root node is permanently stored in main memory"; every other node read
//! or write charges one random I/O through the disk.
//!
//! Two usage modes, per Table 5 of the paper:
//! * **clustered** — leaves hold full tuples keyed on the surrogate
//!   (relations `R` and `S`), or the join index's pairs keyed on
//!   `(r << 32) | s` with no value;
//! * **inverted** — a secondary index keyed on the join attribute whose
//!   leaf values are surrogates (the non-clustered index on `S.A`, and the
//!   non-clustered index on `JI.s`).
//!
//! Every read — lookup, range, scan, batch — is one leaf walk. Batch access
//! ([`BTree::fetch_many`]) walks once per distinct key and deduplicates page
//! touches within the batch, which is exactly the semantics of Yao's formula
//! ("a page is accessed at most once") that the analytical model charges
//! for scheduled, pointer-sorted access. A walk goes on to the next leaf
//! only when its range may continue there: when its upper end is not below
//! the separator after the leaf its descent reached.
//!
//! Mutations read and write only the pages they change, and all of them
//! go through one write path: a batch in key order is one sweep
//! ([`BTree::apply_sorted`], module [`sweep`]), which holds the current
//! root-to-leaf path and so reads every page at most once and writes every
//! changed page once; [`BTree::insert`] and the removes are sweeps of one
//! operation, and the join index's §3.3 passes ([`BTree::passes`]) land
//! through the same units. With `h` the height and nothing splitting or underflowing, a
//! single insert or delete costs `h − 1` reads (the descent) and one write
//! (the leaf); an internal node is written back only when a split or merge
//! below changed it.
//!
//! Space comes back. A node left under half full takes in its right
//! neighbour (its left one on the right edge of its level, once that is
//! empty) and the pair is poured into the left page: if everything fits,
//! the right page goes onto the tree's *free list* (a merge); otherwise
//! the pair is cut again in the middle (a refill — merging alone would let
//! leaves sit at 1, half, 1, half, … entries, a quarter full on average,
//! and could leave an internal node without a separator beside a full
//! sibling). So with values of one width no node but the root and the
//! right edge of each level stays under half full, an empty node never
//! persists at any width, and a root left with a single child hands the
//! root to it. A leaf unit that fits on fewer pages than it was read from
//! lands on that many, and a sorted sweep packs the runs of leaves it
//! passes full. A node that overflows on the right edge of its level keeps
//! full pages and splits off only the rest — the new entry of a leaf, the
//! last two children of an internal node — so an ascending load packs
//! pages instead of stranding half of each. What that buys is a bound: the
//! leaves number at most twice what a bulk load of the same entries
//! builds, plus the right edge.
//!
//! The free list is the tree's own: its head and length are part of
//! [`BTreeMeta`], freed pages chain through their own bytes, and
//! allocation pops it before extending the file. Since the meta and the
//! page images seal in the same WAL group, a crash rewinds both together;
//! pages a crashed session allocated past the committed end of the file
//! are adopted as free by [`BTree::open`]. List upkeep is allocation
//! bookkeeping and, like [`trijoin_storage::SimDisk::allocate_page`],
//! free of I/O charge: what a reclaim charges is the sibling read, the
//! merged or refilled node writes and the parent write.

use std::rc::Rc;

use trijoin_common::{CounterId, Error, FxHashSet, JiEntry, Result, SystemParams};
use trijoin_storage::{Disk, FileId, PageId};

use crate::node::{self, Node};

mod sweep;
pub use sweep::{net_chain, Netted, Passes, SweepOp, SweepStats};

/// Capacity configuration for one tree.
#[derive(Debug, Clone, Copy)]
pub struct BTreeConfig {
    /// Maximum entries per leaf (occupancy-derived; also byte-bounded).
    pub leaf_cap: usize,
    /// Maximum separator keys per internal node (the paper's `FO`; also
    /// byte-bounded by the page size).
    pub internal_cap: usize,
}

impl BTreeConfig {
    /// Hard byte-capacity of an internal node for a given page size.
    pub fn max_internal_keys(page_size: usize) -> usize {
        (page_size.saturating_sub(7)) / 12
    }

    /// Config for a clustered tree whose leaves hold full tuples of
    /// `tuple_bytes` serialized bytes: `n = ⌊P·PO/T⌋` tuples per leaf page,
    /// exactly the paper's `n_R` packing.
    pub fn clustered(params: &SystemParams, tuple_bytes: usize) -> Self {
        Self::with_leaf_cap(params, params.tuples_per_page(tuple_bytes))
    }

    /// Config for an inverted (secondary) index whose leaf values are
    /// 4-byte surrogates: entry ≈ 14 bytes, capped at the paper's `FO`.
    pub fn inverted(params: &SystemParams) -> Self {
        let entry_bytes = 8 + 2 + params.ssur;
        Self::with_leaf_cap(params, params.fan_out.min(params.tuples_per_page(entry_bytes)))
    }

    /// Config for the join index, clustered on `r`: keys `(r << 32) | s`
    /// with empty values, `n_JI = ⌊P·PO/(2·ssur)⌋` entries per leaf page
    /// (the model's packing) as far as a page holds them.
    pub fn join_index(params: &SystemParams) -> Self {
        let fit = params.page_size.saturating_sub(7) / 10;
        Self::with_leaf_cap(params, params.tuples_per_page(JiEntry::BYTES).min(fit))
    }

    fn with_leaf_cap(params: &SystemParams, leaf_cap: usize) -> Self {
        BTreeConfig {
            leaf_cap: leaf_cap.max(2),
            internal_cap: params.fan_out.min(Self::max_internal_keys(params.page_size)).max(2),
        }
    }
}

/// Persisted shape of one tree: everything [`BTree::open`] needs to
/// reattach to its pages after a process restart. The page *contents* are
/// the durable backend's problem; this is the handful of in-memory fields
/// (`BTree` keeps them outside the page images because the paper's model
/// never prices reading them back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeMeta {
    /// File the tree's pages live in.
    pub file: u32,
    /// Page number of the memory-resident root within that file.
    pub root_page: u32,
    /// Tree height in levels (1 = the root is a leaf).
    pub height: usize,
    /// Total entry count.
    pub entries: u64,
    /// Leaf page count.
    pub leaves: u64,
    /// Pages of the file the tree accounts for, nodes and free list
    /// together. Pages past it are what a crashed session allocated and
    /// never committed; [`BTree::open`] adopts them onto the free list.
    pub pages: u32,
    /// First page of the free list.
    pub free_head: Option<u32>,
    /// Length of the free list.
    pub free_pages: u32,
}

/// A B⁺-tree over `u64` keys with byte-string values (duplicates allowed).
pub struct BTree {
    disk: Disk,
    file: FileId,
    cfg: BTreeConfig,
    /// Memory-resident root (free of I/O charge).
    root: Node,
    root_page: u32,
    height: usize,
    entries: u64,
    leaves: u64,
    free_head: Option<u32>,
    free_pages: u32,
    /// `btree.splits`, `btree.merges`, `btree.pages_freed`,
    /// `btree.pages_reused`.
    c_splits: CounterId,
    c_merges: CounterId,
    c_freed: CounterId,
    c_reused: CounterId,
}

/// Where a descent landed: the memory-resident root leaf, or a leaf page
/// with the separator after it (`None` on the right edge): keys at or
/// above it may continue in the next leaf, none below it does.
enum LeafLoc {
    Root,
    Page(u32, Option<u64>),
}

impl BTree {
    /// Attach a handle to the tree `meta` describes, whose root is `root`.
    fn attach(disk: &Disk, cfg: BTreeConfig, root: Node, meta: &BTreeMeta) -> Self {
        let metrics = disk.metrics();
        BTree {
            disk: disk.clone(),
            file: FileId(meta.file),
            cfg,
            root,
            root_page: meta.root_page,
            height: meta.height,
            entries: meta.entries,
            leaves: meta.leaves,
            free_head: meta.free_head,
            free_pages: meta.free_pages,
            c_splits: metrics.counter_handle("btree.splits"),
            c_merges: metrics.counter_handle("btree.merges"),
            c_freed: metrics.counter_handle("btree.pages_freed"),
            c_reused: metrics.counter_handle("btree.pages_reused"),
        }
    }

    /// Shape of a freshly built tree: every page of `file` is a node.
    fn built_meta(
        disk: &Disk,
        file: FileId,
        root_page: u32,
        height: usize,
        entries: u64,
        leaves: u64,
    ) -> Result<BTreeMeta> {
        Ok(BTreeMeta {
            file: file.0,
            root_page,
            height,
            entries,
            leaves,
            pages: disk.num_pages(file)?,
            free_head: None,
            free_pages: 0,
        })
    }

    /// Create an empty tree (root is an empty leaf).
    pub fn new(disk: &Disk, cfg: BTreeConfig) -> Result<Self> {
        let file = disk.create_file();
        let root = Node::empty_leaf();
        let pid = disk.allocate_page(file)?;
        disk.write_page_free(pid, &root.to_page(disk.page_size())?)?;
        let meta = Self::built_meta(disk, file, pid.page, 1, 0, 1)?;
        Ok(Self::attach(disk, cfg, root, &meta))
    }

    /// Bulk-load from entries sorted by `(key, value)`. Charges one write
    /// I/O per node page (leaves and internals); the root stays resident.
    ///
    /// Returns an error if the input is unsorted, and leaves no file
    /// behind on any error.
    pub fn bulk_load(
        disk: &Disk,
        cfg: BTreeConfig,
        entries: impl IntoIterator<Item = (u64, Vec<u8>)>,
    ) -> Result<Self> {
        let file = disk.create_file();
        Self::load(disk, cfg, file, entries).inspect_err(|_| disk.delete_file(file))
    }

    fn load(
        disk: &Disk,
        cfg: BTreeConfig,
        file: FileId,
        entries: impl IntoIterator<Item = (u64, Vec<u8>)>,
    ) -> Result<Self> {
        let page_size = disk.page_size();
        // Pack leaves, each written as the next one starts (it then has a
        // right sibling): leaf i lands on page i.
        let mut level: Vec<(u64, u32)> = Vec::new(); // (min_key, page)
        let mut write_leaf = |entries: Vec<(u64, Vec<u8>)>, last: bool| -> Result<()> {
            let page = level.len() as u32;
            level.push((entries.first().map(|(k, _)| *k).unwrap_or(0), page));
            let next = if last { None } else { Some(page + 1) };
            let pid = disk.allocate_page(file)?;
            debug_assert_eq!(pid.page, page);
            disk.write_page(pid, &Node::Leaf { entries, next }.to_page(page_size)?)
        };
        let mut current: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut current_bytes = 7usize;
        let mut total = 0u64;
        for (k, v) in entries {
            if let Some((pk, pv)) = current.last() {
                if (*pk, pv.as_slice()) > (k, v.as_slice()) {
                    return Err(Error::Invariant("bulk_load input not sorted".into()));
                }
            }
            let entry_bytes = 10 + v.len();
            if current.len() >= cfg.leaf_cap || current_bytes + entry_bytes > page_size {
                if current.is_empty() {
                    return Err(Error::PageOverflow { needed: entry_bytes, available: page_size });
                }
                write_leaf(std::mem::take(&mut current), false)?;
                current_bytes = 7;
            }
            current.push((k, v));
            current_bytes += entry_bytes;
            total += 1;
        }
        write_leaf(current, true)?;
        let leaf_count = level.len() as u64;

        // Build internal levels bottom-up.
        let fan = cfg.internal_cap + 1;
        let mut height = 1usize;
        while level.len() > 1 {
            height += 1;
            let is_root = level.len() <= fan;
            let mut next_level = Vec::new();
            let mut rest = level.as_slice();
            while !rest.is_empty() {
                // Never leave the last node a lone child: it would have no
                // separator, and a delete under it no sibling to merge with.
                let take = if rest.len() == fan + 1 { fan - 1 } else { fan.min(rest.len()) };
                let (chunk, tail) = rest.split_at(take);
                rest = tail;
                let children: Vec<u32> = chunk.iter().map(|&(_, p)| p).collect();
                let keys: Vec<u64> = chunk[1..].iter().map(|&(k, _)| k).collect();
                let node = Node::Internal { keys, children };
                let pid = disk.allocate_page(file)?;
                if is_root {
                    // Keep the root resident.
                    disk.write_page_free(pid, &node.to_page(page_size)?)?;
                    let meta = Self::built_meta(disk, file, pid.page, height, total, leaf_count)?;
                    return Ok(Self::attach(disk, cfg, node, &meta));
                }
                disk.write_page(pid, &node.to_page(page_size)?)?;
                next_level.push((chunk[0].0, pid.page));
            }
            level = next_level;
        }
        // Single leaf: it is the root.
        let root = {
            let raw = disk.read_page_free(PageId::new(file, level[0].1))?;
            Node::from_page(&raw)?
        };
        let meta = Self::built_meta(disk, file, level[0].1, 1, total, leaf_count)?;
        Ok(Self::attach(disk, cfg, root, &meta))
    }

    /// The persisted shape of this tree (see [`BTreeMeta`]). Written into
    /// the durable catalog at commit; [`BTree::open`] inverts it.
    pub fn meta(&self) -> BTreeMeta {
        BTreeMeta {
            file: self.file.0,
            root_page: self.root_page,
            height: self.height,
            entries: self.entries,
            leaves: self.leaves,
            pages: self.file_pages(),
            free_head: self.free_head,
            free_pages: self.free_pages,
        }
    }

    /// Reattach to a persisted tree from its catalog metadata. Reads the
    /// root node back without charging I/O — the root is permanently
    /// memory-resident per the Appendix assumption, and reloading it is
    /// part of opening the database, which the paper does not price (same
    /// reason loading is free). Every other node is read lazily, charged,
    /// on first access exactly as before the restart.
    ///
    /// Pages of the file past `meta.pages` were allocated by a session
    /// that crashed before committing them; nothing committed points at
    /// them, so they go onto the free list instead of leaking.
    pub fn open(disk: &Disk, cfg: BTreeConfig, meta: &BTreeMeta) -> Result<Self> {
        let file = FileId(meta.file);
        let pages = disk.num_pages(file)?;
        if meta.root_page >= meta.pages || meta.pages > pages {
            return Err(Error::Corrupt(format!(
                "btree catalog names root page {} of {} pages but file {} has {} pages",
                meta.root_page, meta.pages, meta.file, pages
            )));
        }
        let raw = disk.read_page_free(PageId::new(file, meta.root_page))?;
        let root = Node::from_page(&raw)?;
        if meta.height == 1 && !matches!(root, Node::Leaf { .. }) {
            return Err(Error::Corrupt("height-1 btree root is not a leaf".into()));
        }
        let mut tree = Self::attach(disk, cfg, root, meta);
        for orphan in meta.pages..pages {
            tree.free_page(orphan)?;
        }
        Ok(tree)
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of leaf pages.
    pub fn leaf_pages(&self) -> u64 {
        self.leaves
    }

    /// Tree height in levels (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pages a sorted sweep holds at once: a node per level, and a second
    /// leaf beside the one it edits ([`BTree::apply_sorted`]).
    pub fn sweep_pages(&self) -> usize {
        self.height + 1
    }

    /// The underlying file id (for space reporting).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    fn file_pages(&self) -> u32 {
        self.disk.num_pages(self.file).expect("a tree's file lives as long as the tree")
    }

    /// Pages holding a node: the file's pages less the free list.
    pub fn node_pages(&self) -> u64 {
        (self.file_pages() - self.free_pages) as u64
    }

    /// Leaf pages a tree of this many entries needs when every leaf is
    /// full — what a bulk load builds, and the yardstick for occupancy.
    pub fn packed_leaf_pages(&self) -> u64 {
        self.entries.div_ceil(self.cfg.leaf_cap as u64).max(1)
    }

    // ---- node I/O -------------------------------------------------------

    /// A page to put a new node on: the head of the free list, or a
    /// fresh page at the end of the file when the list is empty.
    fn alloc_page(&mut self) -> Result<u32> {
        let Some(page) = self.free_head else {
            return Ok(self.disk.allocate_page(self.file)?.page);
        };
        self.free_head =
            self.disk.read_page_free_with(PageId::new(self.file, page), node::free_next)?;
        self.free_pages -= 1;
        self.disk.metrics().incr_id(self.c_reused);
        Ok(page)
    }

    /// Push `page`, which no node points at any more, onto the free list.
    fn free_page(&mut self, page: u32) -> Result<()> {
        let link = node::free_image(self.free_head, self.disk.page_size());
        self.disk.write_page_free(PageId::new(self.file, page), &link)?;
        self.free_head = Some(page);
        self.free_pages += 1;
        self.disk.metrics().incr_id(self.c_freed);
        Ok(())
    }

    /// Whether `node` respects the configured capacity and the page size.
    fn fits(&self, node: &Node) -> bool {
        let cap = if node.is_leaf() { self.cfg.leaf_cap } else { self.cfg.internal_cap };
        node.len() <= cap && node.serialized_len() <= self.disk.page_size()
    }

    /// Whether a non-root `node` is under half full.
    fn underfull(&self, node: &Node) -> bool {
        match node {
            Node::Leaf { entries, .. } => 2 * entries.len() < self.cfg.leaf_cap,
            Node::Internal { keys, .. } => keys.len() < self.cfg.internal_cap / 2,
        }
    }

    fn write_root_free(&self) -> Result<()> {
        self.disk.write_page_free(
            PageId::new(self.file, self.root_page),
            &self.root.to_page(self.disk.page_size())?,
        )
    }

    // ---- descent --------------------------------------------------------

    /// Charge the binary-search comparisons of a `partition_point` over
    /// `len` keys into the shared cost ledger.
    fn charge_search(&self, len: usize) {
        if len > 0 {
            self.disk.cost().comp((len as u64).ilog2() as u64 + 1);
        }
    }

    /// Child index for the *leftmost* occurrence of `key`.
    fn child_left(keys: &[u64], key: u64) -> usize {
        keys.partition_point(|&s| s < key)
    }

    /// Child index for inserting `key` (rightmost).
    fn child_right(keys: &[u64], key: u64) -> usize {
        keys.partition_point(|&s| s <= key)
    }

    /// A node page's shared image (an `Rc` clone of the disk's own buffer,
    /// no copy): charged, unless `seen` — the pages a batch has touched —
    /// already holds it.
    fn read_node(&self, page: u32, seen: &mut Option<&mut FxHashSet<u32>>) -> Result<Rc<Vec<u8>>> {
        let pid = PageId::new(self.file, page);
        if seen.as_deref_mut().is_none_or(|s| s.insert(page)) {
            self.disk.read_page_rc(pid)
        } else {
            self.disk.read_page_free_rc(pid)
        }
    }

    /// Zero-copy descent: walk internal levels through borrowed page views
    /// (no `Node` materialization) down to the page number of the leftmost
    /// leaf that can contain `key`, and the separator after it, charging a
    /// binary search per level and the node reads [`BTree::read_node`]
    /// charges.
    fn descend_to_leaf_page(
        &self,
        key: u64,
        seen: &mut Option<&mut FxHashSet<u32>>,
    ) -> Result<LeafLoc> {
        let Node::Internal { ref keys, ref children } = self.root else {
            return Ok(LeafLoc::Root);
        };
        self.charge_search(keys.len());
        let at = Self::child_left(keys, key);
        let (mut page, mut upper) = (children[at], keys.get(at).copied());
        // Root is level 1, leaves are level `height`; levels 2..height are
        // the internal nodes below the root.
        for _ in 2..self.height {
            let image = self.read_node(page, seen)?;
            let (child, key_count, after) = node::internal_child_left(&image, key)?;
            self.charge_search(key_count);
            (page, upper) = (child, after.or(upper));
        }
        Ok(LeafLoc::Page(page, upper))
    }

    // ---- queries --------------------------------------------------------

    /// The one leaf walk every read runs on: descend to `lo`, then hand `f`
    /// each entry with `lo <= key <= hi` in key order, with the page image
    /// it borrows from (`None` in a memory-resident root leaf), until `f`
    /// returns `false`. One comparison is charged per entry looked at, the
    /// one that stops the walk included; the walk goes past the first leaf
    /// only while `hi` is at or above the separator after it. Pages already
    /// in `seen` are read free of charge (a batch pays for each once).
    fn walk(
        &self,
        lo: u64,
        hi: u64,
        mut seen: Option<&mut FxHashSet<u32>>,
        mut f: impl FnMut(u64, &[u8], Option<&Rc<Vec<u8>>>) -> bool,
    ) -> Result<()> {
        if lo > hi {
            return Ok(());
        }
        let (mut page, mut upper) = match self.descend_to_leaf_page(lo, &mut seen)? {
            LeafLoc::Root => {
                let Node::Leaf { ref entries, .. } = self.root else {
                    return Err(Error::Invariant("descended to internal node".into()));
                };
                let entries = entries.iter().map(|(k, v)| Ok((*k, v.as_slice())));
                return self.visit(entries, lo, hi, None, &mut f).map(drop);
            }
            LeafLoc::Page(p, upper) => (p, upper),
        };
        loop {
            let image = self.read_node(page, &mut seen)?;
            let (entries, next) = node::leaf_entries(&image)?;
            if !self.visit(entries, lo, hi, Some(&image), &mut f)? {
                return Ok(());
            }
            match next {
                Some(p) if upper.is_none_or(|upper| hi >= upper) => (page, upper) = (p, None),
                _ => return Ok(()),
            }
        }
    }

    /// One leaf of [`BTree::walk`]: whether the walk goes on past it.
    fn visit<'a>(
        &self,
        entries: impl Iterator<Item = Result<(u64, &'a [u8])>>,
        lo: u64,
        hi: u64,
        image: Option<&Rc<Vec<u8>>>,
        f: &mut impl FnMut(u64, &[u8], Option<&Rc<Vec<u8>>>) -> bool,
    ) -> Result<bool> {
        let mut examined = 0u64;
        let mut go_on = true;
        for entry in entries {
            let (k, v) = entry?;
            examined += 1;
            if k > hi || (k >= lo && !f(k, v, image)) {
                go_on = false;
                break;
            }
        }
        self.disk.cost().comp(examined);
        Ok(go_on)
    }

    /// All values stored under `key`, in leaf-chain order (value order among
    /// duplicates is unspecified).
    pub fn lookup(&self, key: u64) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.walk(key, key, None, |_, v, _| {
            out.push(v.to_vec());
            true
        })?;
        Ok(out)
    }

    /// Visit every entry with `lo <= key <= hi` in key order, with the
    /// shared page image its value borrows from (`None` for entries of a
    /// memory-resident root leaf), so a scan can *pin* pages — keep payload
    /// bytes alive past the callback without copying them. The callback
    /// returns `false` to stop early.
    pub fn for_each_range(
        &self,
        lo: u64,
        hi: u64,
        f: impl FnMut(u64, &[u8], Option<&Rc<Vec<u8>>>) -> bool,
    ) -> Result<()> {
        self.walk(lo, hi, None, f)
    }

    /// Collect a key range eagerly.
    pub fn scan_range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        self.walk(lo, hi, None, |k, v, _| {
            out.push((k, v.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Visit every entry in key order (full scan through the leaf chain).
    pub fn for_each(&self, mut f: impl FnMut(u64, &[u8]) -> bool) -> Result<()> {
        self.walk(0, u64::MAX, None, |k, v, _| f(k, v))
    }

    /// Batched point lookups for a *sorted* slice of keys. Each tree page is
    /// charged at most once for the whole batch — the engine-side equivalent
    /// of the Yao-formula access pattern the paper assumes for scheduled,
    /// pointer-sorted probes. Calls `f(key, value)` for every match, once
    /// per probe of the key.
    pub fn fetch_many(&self, sorted_keys: &[u64], mut f: impl FnMut(u64, &[u8])) -> Result<()> {
        debug_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
        let mut seen = FxHashSet::default();
        for probes in sorted_keys.chunk_by(|a, b| a == b) {
            self.walk(probes[0], probes[0], Some(&mut seen), |k, v, _| {
                probes.iter().for_each(|_| f(k, v));
                true
            })?;
        }
        Ok(())
    }

    // ---- mutations ------------------------------------------------------

    /// Insert `(key, value)`. Duplicates are allowed.
    pub fn insert(&mut self, key: u64, value: Vec<u8>) -> Result<()> {
        self.apply_one(key, SweepOp::Insert(value)).map(drop)
    }

    /// Remove the first entry equal to `(key, value)`. Returns whether an
    /// entry was removed.
    pub fn remove_exact(&mut self, key: u64, value: &[u8]) -> Result<bool> {
        self.apply_one(key, SweepOp::Remove(Some(value.to_vec())))
    }

    /// Remove one entry under `key`, whatever its value. Returns whether
    /// there was one.
    pub fn remove_any(&mut self, key: u64) -> Result<bool> {
        self.apply_one(key, SweepOp::Remove(None))
    }

    /// A single-key mutation: a sweep of one operation over keys that may
    /// repeat. Returns whether the tree took it.
    fn apply_one(&mut self, key: u64, op: SweepOp) -> Result<bool> {
        let mut stats = SweepStats::default();
        self.apply_sorted([(key, op)], false, &mut stats, &mut |_, _, _| {})?;
        Ok(stats.rejected == 0)
    }

    /// Audit every structural invariant (test helper; reads pages free of
    /// charge): the resident root equals its page image; keys are sorted
    /// within each node and bounded by the separators above it; all leaves
    /// sit at depth `height` and the leaf chain visits them in key order;
    /// no node but the root is empty; the entry, leaf and free-page counts
    /// match; and every page of the file is exactly one of a reachable
    /// node or a member of the free list.
    pub fn check_invariants(&self) -> Result<()> {
        let bad = |what: String| Err(Error::Invariant(what));
        let mut audit =
            Audit { claimed: vec![false; self.file_pages() as usize], ..Audit::default() };
        let on_disk = self.disk.read_page_free(PageId::new(self.file, self.root_page))?;
        if Node::from_page(&on_disk)? != self.root {
            return bad(format!("resident root differs from its page {}", self.root_page));
        }
        self.audit_node(&self.root, self.root_page, 1, (0, u64::MAX), &mut audit)?;

        for (i, &(page, next)) in audit.chain.iter().enumerate() {
            let follows = audit.chain.get(i + 1).map(|&(p, _)| p);
            if next != follows {
                return bad(format!("leaf {page} chains to {next:?}, key order says {follows:?}"));
            }
        }
        if audit.entries != self.entries {
            return bad(format!(
                "entry count mismatch: leaves hold {}, tree says {}",
                audit.entries, self.entries
            ));
        }
        if audit.chain.len() as u64 != self.leaves {
            return bad(format!(
                "leaf count mismatch: {} reachable, tree says {}",
                audit.chain.len(),
                self.leaves
            ));
        }

        let (mut free, mut at) = (0u32, self.free_head);
        while let Some(page) = at {
            audit.claim(page, "free list")?;
            at = self.disk.read_page_free_with(PageId::new(self.file, page), node::free_next)?;
            free += 1;
        }
        if free != self.free_pages {
            return bad(format!("free list holds {free} pages, tree says {}", self.free_pages));
        }
        if let Some(lost) = audit.claimed.iter().position(|&c| !c) {
            return bad(format!("page {lost} is neither a reachable node nor free"));
        }
        Ok(())
    }

    /// Audit the subtree under `node`, whose keys must lie within `bounds`
    /// (inclusive: a key equal to a separator may sit on either side).
    fn audit_node(
        &self,
        node: &Node,
        page: u32,
        depth: usize,
        bounds: (u64, u64),
        audit: &mut Audit,
    ) -> Result<()> {
        let bad = |what: &str| Err(Error::Invariant(format!("page {page}: {what}")));
        audit.claim(page, "tree")?;
        if depth > 1 && node.is_empty() {
            return bad("empty node below the root");
        }
        match node {
            Node::Leaf { entries, next } => {
                if depth != self.height {
                    return bad("leaf above the leaf level");
                }
                if !sorted_within(entries.iter().map(|(k, _)| *k), bounds) {
                    return bad("leaf keys out of order or outside their separators");
                }
                audit.entries += entries.len() as u64;
                audit.chain.push((page, *next));
            }
            Node::Internal { keys, children } => {
                if depth >= self.height {
                    return bad("internal node at the leaf level");
                }
                if children.len() != keys.len() + 1 || !sorted_within(keys.iter().copied(), bounds)
                {
                    return bad("separators out of order or outside their own bounds");
                }
                for (i, &child_page) in children.iter().enumerate() {
                    let lo = if i == 0 { bounds.0 } else { keys[i - 1] };
                    let hi = keys.get(i).copied().unwrap_or(bounds.1);
                    if child_page as usize >= audit.claimed.len() {
                        return bad("child pointer past the end of the file");
                    }
                    let raw = self.disk.read_page_free(PageId::new(self.file, child_page))?;
                    let child = Node::from_page(&raw)?;
                    self.audit_node(&child, child_page, depth + 1, (lo, hi), audit)?;
                }
            }
        }
        Ok(())
    }
}

/// Whether `keys` ascend (repeats allowed) and stay within `bounds`,
/// inclusive.
fn sorted_within(mut keys: impl Iterator<Item = u64>, bounds: (u64, u64)) -> bool {
    let mut last = bounds.0;
    keys.all(|k| std::mem::replace(&mut last, k) <= k) && last <= bounds.1
}

/// What [`BTree::check_invariants`] gathers on its walk.
#[derive(Default)]
struct Audit {
    /// Per page of the file: already accounted for.
    claimed: Vec<bool>,
    /// `(page, next)` of every leaf, in key order.
    chain: Vec<(u32, Option<u32>)>,
    entries: u64,
}

impl Audit {
    fn claim(&mut self, page: u32, by: &str) -> Result<()> {
        match self.claimed.get_mut(page as usize) {
            Some(claimed) if !*claimed => {
                *claimed = true;
                Ok(())
            }
            Some(_) => {
                Err(Error::Invariant(format!("page {page} reached twice (now by the {by})")))
            }
            None => Err(Error::Invariant(format!("{by} points past the end of the file: {page}"))),
        }
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("entries", &self.entries)
            .field("leaves", &self.leaves)
            .field("height", &self.height)
            .finish()
    }
}
