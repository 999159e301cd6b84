//! Eagerly-maintained materialized view — the obvious alternative the
//! paper's deferred design is implicitly compared against.
//!
//! Instead of logging differentials and merging them at query time (§3.2),
//! this strategy maintains `V` *immediately* on every mutation: the old
//! tuple's derived view rows are removed from their bucket, the new
//! tuple's join partners are fetched through `S`'s inverted index and the
//! fresh rows inserted. A query is then a clean read of `V`.
//!
//! The price is paid per mutation — an index probe whether or not partners
//! exist, plus a read of the bucket and a write of each page that loses or
//! takes a row whenever they do — which is exactly what the deferred
//! pipeline's batching, sorting and on-the-fly merge amortize away. The
//! `ablation_eager` bench quantifies the gap in the cost model; this
//! operator lets the engine measure it.

use std::rc::Rc;

use trijoin_common::{
    types::hash_key, BaseTuple, Cost, Result, Surrogate, SystemParams, ViewTuple,
};
use trijoin_linearhash::LinearHash;
use trijoin_storage::Disk;

use crate::relation::StoredRelation;
use crate::strategy::{JoinStrategy, Mutation};
use crate::viewdef::ViewDef;

/// The eagerly-maintained view strategy.
pub struct EagerView {
    cost: Cost,
    v: LinearHash,
    /// `S` is read-only in the paper's model, so the strategy may hold a
    /// shared handle and probe it at mutation time.
    s: Rc<StoredRelation>,
}

impl EagerView {
    /// Materialize `V = R ⋈ S` (setup; callers normally reset the ledger).
    pub fn build(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        r: &StoredRelation,
        s: Rc<StoredRelation>,
    ) -> Result<Self> {
        let v = crate::mv::materialize(disk, params, r, &s, &ViewDef::full())?;
        Ok(EagerView { cost: cost.clone(), v, s })
    }

    /// View cardinality.
    pub fn view_len(&self) -> u64 {
        self.v.len()
    }

    /// View pages (≈ `F·|V|`).
    pub fn view_pages(&self) -> u64 {
        self.v.num_pages()
    }

    /// Remove every view row derived from `t`: the bucket is read, and the
    /// pages that held one are written.
    fn remove_derived(&mut self, t: &BaseTuple) -> Result<()> {
        let h = hash_key(t.key);
        self.cost.hash(1);
        let mut chain = self.v.open_bucket(self.v.addressing().addr(h))?;
        chain.retain(|rh, bytes| {
            self.cost.comp(1);
            Ok(rh != h || ViewTuple::from_bytes(bytes).map_or(true, |vt| vt.r_sur != t.sur))
        })?;
        if chain.is_changed() {
            self.v.commit(chain)?;
        }
        Ok(())
    }

    /// Join `t` against `S` and insert the derived rows.
    fn add_derived(&mut self, t: &BaseTuple) -> Result<()> {
        // The probe happens whether or not partners exist — the eager tax.
        let mut surs: Vec<Surrogate> = Vec::new();
        self.s.probe_inverted(&[t.key], |_, sur| surs.push(sur))?;
        if surs.is_empty() {
            return Ok(());
        }
        surs.sort_unstable();
        let mut rows: Vec<ViewTuple> = Vec::new();
        let mut err = None;
        self.s.fetch_by_surrogates(&surs, |st| {
            if st.key == t.key {
                rows.push(ViewTuple::join(t, &st));
            } else if err.is_none() {
                err =
                    Some(trijoin_common::Error::Invariant("inverted posting key mismatch".into()));
            }
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        // All rows share hash(t.key): one bucket read, one write per page taking a row.
        let h = hash_key(t.key);
        self.cost.hash(1);
        let mut chain = self.v.open_bucket(self.v.addressing().addr(h))?;
        for vt in rows {
            self.cost.mov(1);
            chain.insert(h, &vt.to_bytes())?;
        }
        self.v.commit(chain)?;
        self.v.rebalance()?;
        Ok(())
    }
}

impl JoinStrategy for EagerView {
    fn name(&self) -> &'static str {
        "eager-view"
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        let _g = self.cost.section("eager.maintain");
        match m {
            Mutation::Update(u) => {
                self.remove_derived(&u.old)?;
                self.add_derived(&u.new)
            }
            Mutation::Insert(t) => self.add_derived(t),
            Mutation::Delete(t) => self.remove_derived(t),
        }
    }

    fn execute(
        &mut self,
        _r: &StoredRelation,
        _s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // The view is always current: the query is a clean scan.
        let _g = self.cost.section("eager.scan_view");
        let mut emitted = 0u64;
        for b in 0..self.v.num_buckets() {
            for (_, bytes) in self.v.scan_bucket(b)? {
                sink(ViewTuple::from_bytes(&bytes)?);
                emitted += 1;
            }
        }
        Ok(emitted)
    }
}
