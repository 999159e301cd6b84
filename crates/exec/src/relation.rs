//! Stored base relations, organized per Table 5 of the paper.
//!
//! A [`StoredRelation`] is a clustered B⁺-tree on the surrogate (leaves hold
//! full tuples at `n_R = ⌊P·PO/T_R⌋` per page) plus, optionally, a
//! non-clustered ("inverted") B⁺-tree on the join attribute whose leaf
//! values are surrogates. Relation `S` carries the inverted index; relation
//! `R` does not (only `S` is probed by join attribute in the paper's
//! algorithms).

use trijoin_btree::{BTree, BTreeConfig, BTreeMeta};
use trijoin_common::{BaseTuple, Error, Json, Result, Surrogate, SystemParams};
use trijoin_storage::{Disk, FileId};

/// Serialize one tree's [`BTreeMeta`] as a catalog object.
fn tree_json(meta: &BTreeMeta) -> Json {
    Json::obj()
        .set("file", meta.file as u64)
        .set("root_page", meta.root_page as u64)
        .set("height", meta.height as u64)
        .set("entries", meta.entries)
        .set("leaves", meta.leaves)
        .set("pages", meta.pages as u64)
        .set("free_head", meta.free_head.map_or(Json::Null, |page| Json::from(page as u64)))
        .set("free_pages", meta.free_pages as u64)
}

/// Decode one tree's catalog object back into a [`BTreeMeta`].
fn tree_meta(j: &Json) -> Result<BTreeMeta> {
    let field = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Corrupt(format!("catalog tree entry missing field {k}")))
    };
    let page = |k: &str| {
        u32::try_from(field(k)?)
            .map_err(|_| Error::Corrupt(format!("catalog tree entry field {k} out of range")))
    };
    Ok(BTreeMeta {
        file: page("file")?,
        root_page: page("root_page")?,
        height: field("height")? as usize,
        entries: field("entries")?,
        leaves: field("leaves")?,
        pages: page("pages")?,
        free_head: match j.get("free_head") {
            Some(Json::Null) => None,
            _ => Some(page("free_head")?),
        },
        free_pages: page("free_pages")?,
    })
}

/// A base relation stored per Table 5.
pub struct StoredRelation {
    name: String,
    clustered: BTree,
    inverted: Option<BTree>,
    tuple_bytes: usize,
    count: u64,
}

impl StoredRelation {
    /// Build a relation from tuples (any order). One write I/O per page of
    /// each index; callers typically reset the cost ledger after setup, as
    /// the paper does not price initial loading.
    pub fn build(
        disk: &Disk,
        params: &SystemParams,
        name: &str,
        mut tuples: Vec<BaseTuple>,
        with_inverted: bool,
    ) -> Result<Self> {
        let tuple_bytes = tuples.first().map(|t| t.serialized_len()).unwrap_or(64);
        if let Some(bad) = tuples.iter().find(|t| t.serialized_len() != tuple_bytes) {
            return Err(Error::Invariant(format!(
                "relation {name}: mixed tuple sizes ({} vs {})",
                bad.serialized_len(),
                tuple_bytes
            )));
        }
        tuples.sort_by_key(|t| t.sur);
        if tuples.windows(2).any(|w| w[0].sur == w[1].sur) {
            return Err(Error::Invariant(format!("relation {name}: duplicate surrogate")));
        }
        let count = tuples.len() as u64;
        let clustered = BTree::bulk_load(
            disk,
            BTreeConfig::clustered(params, tuple_bytes),
            tuples.iter().map(|t| (t.sur.0 as u64, t.to_bytes())),
        )?;
        let inverted = if with_inverted {
            let mut entries: Vec<(u64, Vec<u8>)> =
                tuples.iter().map(|t| (t.key, t.sur.0.to_le_bytes().to_vec())).collect();
            entries.sort();
            Some(BTree::bulk_load(disk, BTreeConfig::inverted(params), entries)?)
        } else {
            None
        };
        Ok(StoredRelation { name: name.to_string(), clustered, inverted, tuple_bytes, count })
    }

    /// Serialize this relation's catalog entry: name, tuple shape, count,
    /// and the persisted shape of each index tree. Together with the pages
    /// already on the durable backend this is everything
    /// [`StoredRelation::open`] needs after a restart.
    pub fn catalog_json(&self) -> Json {
        let mut j = Json::obj()
            .set("name", self.name.as_str())
            .set("tuple_bytes", self.tuple_bytes)
            .set("count", self.count)
            .set("clustered", tree_json(&self.clustered.meta()));
        if let Some(inv) = &self.inverted {
            j = j.set("inverted", tree_json(&inv.meta()));
        }
        j
    }

    /// Reattach to a persisted relation from its catalog entry. Free of
    /// I/O charge (only the memory-resident roots are reloaded); tuple
    /// pages are read lazily, charged, on first access as usual.
    pub fn open(disk: &Disk, params: &SystemParams, j: &Json) -> Result<Self> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::Corrupt("catalog relation missing name".into()))?
            .to_string();
        let tuple_bytes = j
            .get("tuple_bytes")
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Corrupt(format!("catalog {name}: missing tuple_bytes")))?
            as usize;
        let count = j
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Corrupt(format!("catalog {name}: missing count")))?;
        let clustered_meta = tree_meta(
            j.get("clustered")
                .ok_or_else(|| Error::Corrupt(format!("catalog {name}: missing clustered")))?,
        )?;
        let clustered =
            BTree::open(disk, BTreeConfig::clustered(params, tuple_bytes), &clustered_meta)?;
        let inverted = match j.get("inverted") {
            Some(inv) => Some(BTree::open(disk, BTreeConfig::inverted(params), &tree_meta(inv)?)?),
            None => None,
        };
        Ok(StoredRelation { name, clustered, inverted, tuple_bytes, count })
    }

    /// The clustered tree and, if the relation has one, the inverted tree.
    fn trees(&self) -> impl Iterator<Item = &BTree> + '_ {
        std::iter::once(&self.clustered).chain(&self.inverted)
    }

    /// The page files this relation owns, one per tree.
    pub fn file_ids(&self) -> impl Iterator<Item = FileId> + '_ {
        self.trees().map(BTree::file_id)
    }

    /// Pages of this relation's files that hold a tree node (pages waiting
    /// on a free list are left out: they are space already given back).
    pub fn node_pages(&self) -> u64 {
        self.trees().map(BTree::node_pages).sum()
    }

    /// Leaf pages this relation's trees would take packed full, as a bulk
    /// load builds them: the yardstick [`StoredRelation::node_pages`] is
    /// held against.
    pub fn packed_pages(&self) -> u64 {
        self.trees().map(BTree::packed_leaf_pages).sum()
    }

    /// Audit the structural invariants of every tree of the relation
    /// (test helper, free of charge; see `BTree::check_invariants`).
    pub fn check_invariants(&self) -> Result<()> {
        self.trees().try_for_each(BTree::check_invariants)
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tuple count (`‖R‖`).
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Data pages (`|R|` — the clustered tree's leaf level).
    pub fn data_pages(&self) -> u64 {
        self.clustered.leaf_pages()
    }

    /// Serialized tuple size (`T_R`).
    pub fn tuple_bytes(&self) -> usize {
        self.tuple_bytes
    }

    /// Whether this relation carries the inverted index on the join
    /// attribute.
    pub fn has_inverted(&self) -> bool {
        self.inverted.is_some()
    }

    /// Point-fetch one tuple by surrogate.
    pub fn get(&self, sur: Surrogate) -> Result<Option<BaseTuple>> {
        let hits = self.clustered.lookup(sur.0 as u64)?;
        match hits.as_slice() {
            [] => Ok(None),
            [one] => Ok(Some(BaseTuple::from_bytes(one)?)),
            _ => Err(Error::Invariant(format!("duplicate surrogate {sur} in {}", self.name))),
        }
    }

    /// Batched fetch by *sorted* surrogates: each touched page is charged at
    /// most once (the Yao-style scheduled access of the paper's algorithms).
    pub fn fetch_by_surrogates(
        &self,
        sorted_surs: &[Surrogate],
        mut f: impl FnMut(BaseTuple),
    ) -> Result<()> {
        let keys: Vec<u64> = sorted_surs.iter().map(|s| s.0 as u64).collect();
        let mut err = None;
        self.clustered.fetch_many(&keys, |_, bytes| {
            if err.is_none() {
                match BaseTuple::from_bytes(bytes) {
                    Ok(t) => f(t),
                    Err(e) => err = Some(e),
                }
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Batched inverted-index probe by *sorted* join-key values: calls
    /// `f(key, surrogate)` for every posting. Errors if the relation has no
    /// inverted index.
    pub fn probe_inverted(
        &self,
        sorted_keys: &[u64],
        mut f: impl FnMut(u64, Surrogate),
    ) -> Result<()> {
        let inv = self.inverted.as_ref().ok_or_else(|| {
            Error::Invariant(format!("relation {} has no inverted index", self.name))
        })?;
        let mut err = None;
        inv.fetch_many(sorted_keys, |k, bytes| {
            if err.is_none() {
                if bytes.len() == 4 {
                    f(k, Surrogate(u32::from_le_bytes(bytes.try_into().unwrap())));
                } else {
                    err = Some(Error::Corrupt("inverted posting wrong width".into()));
                }
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Full scan in surrogate order (one read I/O per leaf page).
    pub fn scan(&self, mut f: impl FnMut(BaseTuple)) -> Result<()> {
        self.scan_refs(|t| f(t.to_tuple()))
    }

    /// Full scan in surrogate order handing out *borrowed* tuple views —
    /// identical I/O charges and decode validation to [`StoredRelation::scan`],
    /// but no per-tuple payload allocation. The vectorized operators build
    /// columnar batches from this.
    pub fn scan_refs(&self, mut f: impl FnMut(crate::batch::TupleRef<'_>)) -> Result<()> {
        let mut err = None;
        self.clustered.for_each(|_, bytes| match crate::batch::TupleRef::decode(bytes) {
            Ok(t) => {
                f(t);
                true
            }
            Err(e) => {
                err = Some(e);
                false
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Full scan handing out borrowed tuple views *plus* the shared page
    /// image each view borrows from (`None` when the tuple lives in the
    /// memory-resident root leaf). Charge-identical to
    /// [`StoredRelation::scan_refs`]; the image handle lets the vectorized
    /// operators pin pages into a [`crate::batch::RowBatch`] instead of
    /// copying payloads out.
    pub fn scan_pinned(
        &self,
        mut f: impl FnMut(crate::batch::TupleRef<'_>, Option<&std::rc::Rc<Vec<u8>>>),
    ) -> Result<()> {
        let mut err = None;
        self.clustered.for_each_pinned(|_, bytes, page| {
            match crate::batch::TupleRef::decode(bytes) {
                Ok(t) => {
                    f(t, page);
                    true
                }
                Err(e) => {
                    err = Some(e);
                    false
                }
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Insert a brand-new tuple (surrogate must be unused). Maintains both
    /// indexes.
    pub fn insert(&mut self, t: &BaseTuple) -> Result<()> {
        if t.serialized_len() != self.tuple_bytes {
            return Err(Error::Invariant("insert changes tuple size".into()));
        }
        if !self.clustered.insert_unique(t.sur.0 as u64, t.to_bytes())? {
            return Err(Error::Invariant(format!(
                "surrogate {} already exists in {}",
                t.sur, self.name
            )));
        }
        if let Some(inv) = self.inverted.as_mut() {
            inv.insert(t.key, t.sur.0.to_le_bytes().to_vec())?;
        }
        self.count += 1;
        Ok(())
    }

    /// Delete an existing tuple. Maintains both indexes.
    pub fn delete(&mut self, t: &BaseTuple) -> Result<()> {
        if !self.clustered.remove_where(t.sur.0 as u64, |_| true)? {
            return Err(Error::KeyNotFound(t.sur.0 as u64));
        }
        if let Some(inv) = self.inverted.as_mut() {
            if !inv.remove_exact(t.key, &t.sur.0.to_le_bytes())? {
                return Err(Error::Invariant("inverted posting missing on delete".into()));
            }
        }
        self.count -= 1;
        Ok(())
    }

    /// Apply one mutation ([`crate::strategy::Mutation`]).
    pub fn apply_mutation(&mut self, m: &crate::strategy::Mutation) -> Result<()> {
        use crate::strategy::Mutation;
        match m {
            Mutation::Update(u) => self.apply_update(&u.old, &u.new),
            Mutation::Insert(t) => self.insert(t),
            Mutation::Delete(t) => self.delete(t),
        }
    }

    /// Apply one update (the paper's model: a deletion of `old` followed by
    /// an insertion of `new`, same surrogate). The surrogate is the
    /// clustering key, so the tuple is overwritten where it lies; the
    /// inverted index does a real remove + insert when the join key moves.
    pub fn apply_update(&mut self, old: &BaseTuple, new: &BaseTuple) -> Result<()> {
        if old.sur != new.sur {
            return Err(Error::Invariant("update must keep the surrogate".into()));
        }
        if new.serialized_len() != self.tuple_bytes {
            return Err(Error::Invariant("update changes tuple size".into()));
        }
        if !self.clustered.replace_value(old.sur.0 as u64, &new.to_bytes())? {
            return Err(Error::KeyNotFound(old.sur.0 as u64));
        }
        if let Some(inv) = self.inverted.as_mut() {
            if old.key != new.key {
                let sur_bytes = old.sur.0.to_le_bytes();
                if !inv.remove_exact(old.key, &sur_bytes)? {
                    return Err(Error::Invariant("inverted posting missing on update".into()));
                }
                inv.insert(new.key, sur_bytes.to_vec())?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for StoredRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredRelation")
            .field("name", &self.name)
            .field("tuples", &self.count)
            .field("pages", &self.data_pages())
            .field("inverted", &self.inverted.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::Cost;
    use trijoin_storage::SimDisk;

    fn tuples(n: u32, key_of: impl Fn(u32) -> u64) -> Vec<BaseTuple> {
        (0..n).map(|i| BaseTuple::padded(Surrogate(i), key_of(i), 64)).collect()
    }

    fn setup(n: u32, inverted: bool) -> (Disk, Cost, StoredRelation) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 512, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost.clone());
        let rel =
            StoredRelation::build(&disk, &params, "T", tuples(n, |i| (i % 10) as u64), inverted)
                .unwrap();
        (disk, cost, rel)
    }

    #[test]
    fn build_and_point_lookup() {
        let (_d, _c, rel) = setup(100, true);
        assert_eq!(rel.len(), 100);
        assert!(!rel.is_empty());
        let t = rel.get(Surrogate(42)).unwrap().unwrap();
        assert_eq!(t.sur, Surrogate(42));
        assert_eq!(t.key, 2);
        assert!(rel.get(Surrogate(500)).unwrap().is_none());
    }

    #[test]
    fn build_rejects_duplicates_and_mixed_sizes() {
        let cost = Cost::new();
        let params = SystemParams { page_size: 512, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost);
        let mut dup = tuples(5, |_| 0);
        dup.push(BaseTuple::padded(Surrogate(0), 7, 64));
        assert!(StoredRelation::build(&disk, &params, "D", dup, false).is_err());
        let mixed =
            vec![BaseTuple::padded(Surrogate(0), 0, 64), BaseTuple::padded(Surrogate(1), 0, 80)];
        assert!(StoredRelation::build(&disk, &params, "M", mixed, false).is_err());
    }

    #[test]
    fn scan_in_surrogate_order() {
        let (_d, _c, rel) = setup(60, false);
        let mut surs = Vec::new();
        rel.scan(|t| surs.push(t.sur.0)).unwrap();
        assert_eq!(surs, (0..60).collect::<Vec<u32>>());
    }

    #[test]
    fn inverted_probe_finds_all_postings() {
        let (_d, _c, rel) = setup(100, true);
        // Keys are i % 10: key 3 has 10 postings.
        let mut hits = Vec::new();
        rel.probe_inverted(&[3], |k, s| hits.push((k, s.0))).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|&(k, s)| k == 3 && s % 10 == 3));
        // Missing key yields nothing; multiple keys work sorted.
        let mut hits2 = Vec::new();
        rel.probe_inverted(&[3, 7, 99], |_, s| hits2.push(s.0)).unwrap();
        assert_eq!(hits2.len(), 20);
    }

    #[test]
    fn probe_without_inverted_errors() {
        let (_d, _c, rel) = setup(10, false);
        assert!(rel.probe_inverted(&[1], |_, _| {}).is_err());
        assert!(!rel.has_inverted());
    }

    #[test]
    fn fetch_by_surrogates_batch() {
        let (_d, cost, rel) = setup(200, false);
        cost.reset();
        let surs: Vec<Surrogate> = (0..200).step_by(2).map(Surrogate).collect();
        let mut got = Vec::new();
        rel.fetch_by_surrogates(&surs, |t| got.push(t.sur.0)).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        // Every data page is touched (stride 2 hits all pages) but charged
        // at most once.
        assert!(cost.total().ios <= rel.data_pages() + 8);
    }

    #[test]
    fn update_maintains_both_indexes() {
        let (_d, _c, mut rel) = setup(50, true);
        let old = rel.get(Surrogate(7)).unwrap().unwrap();
        assert_eq!(old.key, 7);
        let new = BaseTuple::padded(Surrogate(7), 3, 64);
        rel.apply_update(&old, &new).unwrap();
        assert_eq!(rel.get(Surrogate(7)).unwrap().unwrap().key, 3);
        assert_eq!(rel.len(), 50);
        // Inverted index: key 7 lost a posting, key 3 gained one.
        let mut key7 = Vec::new();
        rel.probe_inverted(&[7], |_, s| key7.push(s.0)).unwrap();
        assert!(!key7.contains(&7));
        assert_eq!(key7.len(), 4);
        let mut key3 = Vec::new();
        rel.probe_inverted(&[3], |_, s| key3.push(s.0)).unwrap();
        assert_eq!(key3.len(), 6);
        assert!(key3.contains(&7));
    }

    #[test]
    fn update_with_same_key_skips_inverted_work() {
        let (_d, _c, mut rel) = setup(20, true);
        let old = rel.get(Surrogate(5)).unwrap().unwrap();
        let new = BaseTuple::with_payload(Surrogate(5), old.key, b"fresh", 64).unwrap();
        rel.apply_update(&old, &new).unwrap();
        let got = rel.get(Surrogate(5)).unwrap().unwrap();
        assert_eq!(&got.payload[..5], b"fresh");
        let mut key5 = Vec::new();
        rel.probe_inverted(&[5], |_, s| key5.push(s.0)).unwrap();
        assert_eq!(key5.len(), 2); // surrogates 5 and 15
    }

    #[test]
    fn update_errors_are_safe() {
        let (_d, _c, mut rel) = setup(10, true);
        let old = rel.get(Surrogate(1)).unwrap().unwrap();
        let wrong_sur = BaseTuple::padded(Surrogate(2), 0, 64);
        assert!(rel.apply_update(&old, &wrong_sur).is_err());
        let wrong_size = BaseTuple::padded(Surrogate(1), 0, 80);
        assert!(rel.apply_update(&old, &wrong_size).is_err());
        let ghost = BaseTuple::padded(Surrogate(99), 0, 64);
        assert!(rel.apply_update(&ghost, &ghost).is_err());
        // Relation still intact.
        assert_eq!(rel.len(), 10);
        assert!(rel.get(Surrogate(1)).unwrap().is_some());
    }

    #[test]
    fn paper_packing_shape() {
        let cost = Cost::new();
        let params = SystemParams::paper_defaults();
        let disk = SimDisk::new(&params, cost);
        let tuples: Vec<BaseTuple> =
            (0..2000).map(|i| BaseTuple::padded(Surrogate(i), i as u64, 200)).collect();
        let rel = StoredRelation::build(&disk, &params, "R", tuples, false).unwrap();
        // n_R = 14 -> ceil(2000/14) = 143 data pages.
        assert_eq!(rel.data_pages(), 143);
        assert_eq!(rel.tuple_bytes(), 200);
    }
}
