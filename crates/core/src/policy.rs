//! The pure half of adaptive strategy selection: what a controller
//! observed since its last query goes in, a [`Decision`] comes out. No
//! disk, no ledger, no `Database` — the same statistics always produce the
//! same decision, and [`crate::AdaptiveController`] is the only caller.

use std::collections::HashSet;

use trijoin_common::{Surrogate, SystemParams, ViewTuple};
use trijoin_exec::Mutation;
use trijoin_model::{all_costs, cheapest_of, Method, Workload};

/// How far above the best prediction the incumbent's must lie before a
/// migration starts (1.3 = more than 30% worse). Guards against flapping
/// at a cost crossover.
pub const HYSTERESIS: f64 = 1.3;

/// Queries a controller serves after a completed migration before it may
/// start another — the flap guard on top of the hysteresis margin.
pub const MIGRATION_COOLDOWN: u64 = 2;

/// The statistics of one observation window (query to query), plus the
/// rolling `Pr_A` estimate they feed.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    mutations: u64,
    a_changes: u64,
    pra_estimate: f64,
}

impl Default for WindowStats {
    fn default() -> Self {
        WindowStats { mutations: 0, a_changes: 0, pra_estimate: 0.5 }
    }
}

impl WindowStats {
    /// Count one mutation of `R`.
    pub fn observe(&mut self, m: &Mutation) {
        self.mutations += 1;
        if m.affects_join_index() {
            self.a_changes += 1;
        }
    }

    /// Close the window at a query: fold the observed `Pr_A` into the
    /// rolling estimate (equal weights) and return the workload the next
    /// cycle is priced at — live relation sizes, the window's update
    /// count, and the *exact* semijoin and join selectivities read off
    /// `rows`, the answer the incumbent just produced.
    pub fn close(
        &mut self,
        r_tuples: u64,
        s_tuples: u64,
        (r_tuple_bytes, s_tuple_bytes): (usize, usize),
        rows: &[ViewTuple],
    ) -> Workload {
        if self.mutations > 0 {
            let observed = self.a_changes as f64 / self.mutations as f64;
            self.pra_estimate = 0.5 * self.pra_estimate + 0.5 * observed;
        }
        let distinct_r: HashSet<Surrogate> = rows.iter().map(|v| v.r_sur).collect();
        let distinct_s: HashSet<Surrogate> = rows.iter().map(|v| v.s_sur).collect();
        let nr = (r_tuples as f64).max(1.0);
        let ns = (s_tuples as f64).max(1.0);
        let updates = std::mem::take(&mut self.mutations);
        self.a_changes = 0;
        Workload {
            r_tuples: nr,
            s_tuples: ns,
            tr: r_tuple_bytes as f64,
            ts: s_tuple_bytes as f64,
            sr: distinct_r.len() as f64 / nr,
            ss: distinct_s.len() as f64 / ns,
            js: rows.len() as f64 / (nr * ns),
            pra: self.pra_estimate,
            updates: updates as f64,
        }
    }
}

/// The outcome of one re-selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Predicted seconds per query cycle, in [`Method::all`] order.
    pub predictions: [(Method, f64); 3],
    /// The cheapest method (ties go to the earlier one).
    pub best: Method,
    /// Whether to start migrating from the incumbent to `best`.
    pub migrate: bool,
}

impl Decision {
    fn from_predictions(predictions: [(Method, f64); 3], incumbent: Method) -> Decision {
        let (best, best_secs) = cheapest_of(predictions);
        let mut decision = Decision { predictions, best, migrate: false };
        decision.migrate =
            best != incumbent && decision.predicted(incumbent) > HYSTERESIS * best_secs;
        decision
    }

    /// The prediction for `method`.
    pub fn predicted(&self, method: Method) -> f64 {
        self.predictions.iter().find(|p| p.0 == method).expect("all three methods are priced").1
    }
}

/// Price `w` under all three methods with the §3 model and decide whether
/// `incumbent` should give way to the cheapest.
pub fn decide(params: &SystemParams, w: &Workload, incumbent: Method) -> Decision {
    Decision::from_predictions(all_costs(params, w).map(|c| (c.method, c.total())), incumbent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Method::{HybridHash as HH, JoinIndex as JI, MaterializedView as MV};

    #[test]
    fn hysteresis_threshold_table() {
        // (MV, JI, HH predictions, incumbent) -> (best, migrate)
        let table = [
            // Incumbent exactly at HYSTERESIS × best stays; just above migrates.
            ([HYSTERESIS * 10.0, 10.0, 99.0], MV, JI, false),
            ([HYSTERESIS * 10.0 + 1e-9, 10.0, 99.0], MV, JI, true),
            ([10.0, HYSTERESIS * 10.0, 99.0], JI, MV, false),
            ([10.0, HYSTERESIS * 10.0 + 1e-9, 99.0], JI, MV, true),
            // Inside the margin on either side of the crossover: stay.
            ([10.0, 10.5, 99.0], JI, MV, false),
            ([10.5, 10.0, 99.0], MV, JI, false),
            // The incumbent is the best: never migrate, however bad the rest.
            ([10.0, 1e6, 1e9], MV, MV, false),
            ([1e6, 1e9, 10.0], HH, HH, false),
            // All equal: the tie goes to the first method, nobody moves.
            ([7.0, 7.0, 7.0], MV, MV, false),
            ([7.0, 7.0, 7.0], JI, MV, false),
            ([7.0, 7.0, 7.0], HH, MV, false),
        ];
        for (secs, incumbent, best, migrate) in table {
            let d = Decision::from_predictions(
                [(MV, secs[0]), (JI, secs[1]), (HH, secs[2])],
                incumbent,
            );
            assert_eq!((d.best, d.migrate), (best, migrate), "{secs:?} from {incumbent:?}");
        }
    }

    /// Sweep the update count across the MV/JI crossover of the real
    /// model: the decision is exactly "incumbent priced above HYSTERESIS ×
    /// best", it flips once, and it is a function of its inputs alone.
    #[test]
    fn decide_follows_the_model_across_the_mv_ji_crossover() {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let mut flips = Vec::new();
        for updates in (0..=600).step_by(20) {
            let w = Workload {
                r_tuples: 1500.0,
                s_tuples: 1500.0,
                tr: 96.0,
                ts: 96.0,
                sr: 0.01,
                ss: 0.01,
                js: 60.0 / (1500.0 * 1500.0),
                pra: 0.1,
                updates: updates as f64,
            };
            let d = decide(&params, &w, MV);
            assert_eq!(d, decide(&params, &w, MV), "same inputs, same decision");
            assert_eq!(d.predictions.map(|p| p.0), Method::all());
            let want = d.best != MV && d.predicted(MV) > HYSTERESIS * d.predicted(d.best);
            assert_eq!(d.migrate, want, "{updates} updates: {d:?}");
            if flips.last() != Some(&d.migrate) {
                flips.push(d.migrate);
            }
        }
        assert_eq!(flips, [false, true], "calm keeps the view, a storm leaves it, once");
    }

    #[test]
    fn window_stats_fold_pra_and_reset() {
        let tuple = |sur: u32, key: u64| trijoin_common::BaseTuple::padded(Surrogate(sur), key, 16);
        let mut stats = WindowStats::default();
        stats.observe(&Mutation::Insert(tuple(1, 5)));
        stats.observe(&Mutation::Update(trijoin_exec::Update {
            old: tuple(2, 5),
            new: tuple(2, 5),
        }));
        let before = stats.clone();
        let w = stats.close(10, 20, (96, 48), &[]);
        assert_eq!((w.r_tuples, w.s_tuples, w.tr, w.ts, w.updates), (10.0, 20.0, 96.0, 48.0, 2.0));
        assert_eq!((w.sr, w.ss, w.js), (0.0, 0.0, 0.0));
        assert_eq!(w.pra, 0.5 * 0.5 + 0.5 * 0.5, "one of two mutations touched the join attribute");
        // Same statistics, same workload; an empty window keeps the estimate.
        assert_eq!(before.clone().close(10, 20, (96, 48), &[]).pra, w.pra);
        assert_eq!(stats.close(10, 20, (96, 48), &[]).updates, 0.0);
        assert_eq!(stats.close(10, 20, (96, 48), &[]).pra, w.pra);
    }
}
