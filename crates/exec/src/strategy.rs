//! The common interface of the three join strategies.
//!
//! The driver applies a stream of updates to `R` (each an old/new tuple
//! pair with the same surrogate — the paper's model where "update operations
//! ... get translated into a deleted tuple followed by an inserted tuple"),
//! giving each strategy a chance to observe them, then asks for the current
//! join. Mutations of `S` are outside the trait, as they are outside
//! §3.2's analysis ("assumes that only relation R is updated"): the view
//! and the join index fold them by one rule
//! ([`crate::MaterializedView::on_s_mutation`],
//! [`crate::JoinIndexStrategy::on_s_mutation`]), and hybrid hash, which
//! caches nothing, needs none.

use trijoin_common::{BaseTuple, Result, ViewTuple};

use crate::relation::StoredRelation;

/// One update to relation `R`: delete `old`, insert `new` (same surrogate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    /// The tuple being replaced (its current stored state).
    pub old: BaseTuple,
    /// The replacement.
    pub new: BaseTuple,
}

impl Update {
    /// Whether this update modifies the join attribute (the event whose
    /// probability the paper calls `Pr_A`).
    pub fn changes_join_attr(&self) -> bool {
        self.old.key != self.new.key
    }
}

/// One mutation of relation `R`.
///
/// The paper's analysis assumes update-only traffic ("relation R is
/// changed by update operations only, which get translated into a deleted
/// tuple followed by an inserted tuple, thus ‖iR‖ = ‖dR‖") and names the
/// general case — "arbitrary and possibly unequal sets of insertions and
/// deletions" — as future work. The strategies here support the general
/// case: the `V'` algebra of §3.2 already is a pure insert/delete
/// calculus, and the differential logs carry the two sets independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Replace a tuple in place (same surrogate).
    Update(Update),
    /// Insert a brand-new tuple (fresh surrogate).
    Insert(BaseTuple),
    /// Remove an existing tuple.
    Delete(BaseTuple),
}

impl Mutation {
    /// The mutation as the paper's differential calculus sees it: the
    /// state it deletes and the state it inserts, in that order.
    pub fn sides(&self) -> (Option<&BaseTuple>, Option<&BaseTuple>) {
        match self {
            Mutation::Update(u) => (Some(&u.old), Some(&u.new)),
            Mutation::Insert(t) => (None, Some(t)),
            Mutation::Delete(t) => (Some(t), None),
        }
    }

    /// Whether a caching structure keyed only on the join attribute (the
    /// join index) must see this mutation. Inserts and deletes always
    /// matter; updates only when they change `A`.
    pub fn affects_join_index(&self) -> bool {
        match self {
            Mutation::Update(u) => u.changes_join_attr(),
            Mutation::Insert(_) | Mutation::Delete(_) => true,
        }
    }
}

/// A strategy for answering `R ⋈ S` under deferred updates.
pub trait JoinStrategy {
    /// Short name for reports ("materialized-view", "join-index",
    /// "hybrid-hash").
    fn name(&self) -> &'static str;

    /// Observe one mutation of `R` *before* it is applied to the stored
    /// relation. Caching strategies log it; hybrid-hash ignores it.
    fn on_mutation(&mut self, m: &Mutation) -> Result<()>;

    /// Convenience for the paper's update-only traffic model.
    fn on_update(&mut self, upd: &Update) -> Result<()> {
        self.on_mutation(&Mutation::Update(upd.clone()))
    }

    /// Produce the join of the *current* (post-mutation) `R` and `S`,
    /// feeding every result tuple to `sink` and returning the tuple count.
    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64>;
}

/// Collect a strategy's full result into a vector (test convenience).
pub fn execute_collect(
    strategy: &mut dyn JoinStrategy,
    r: &StoredRelation,
    s: &StoredRelation,
) -> Result<Vec<ViewTuple>> {
    let mut out = Vec::new();
    strategy.execute(r, s, &mut |v| out.push(v))?;
    Ok(out)
}
