//! Strategy selection — the paper's Section 5 heuristics and a model-based
//! refinement.
//!
//! The paper closes with three rules of thumb for "database customizers"
//! with incomplete knowledge:
//!
//! (a) if the join relation is much larger than the two relations which
//!     form it, use the hash join;
//! (b) if the join relation is smaller or not much larger than its base
//!     relations and the update activity is ≤ 10%, cache the join as a
//!     materialized view;
//! (c) same size regime but update activity above 10%: partially cache it
//!     as a join index.
//!
//! [`Advisor::heuristic`] implements exactly those rules;
//! [`Advisor::model_based`] prices all three methods with the full §3 cost
//! model and picks the cheapest — the "system which used the designer's
//! estimates to initially select among algorithms" the paper's future-work
//! paragraph sketches.

use trijoin_common::SystemParams;
use trijoin_model::{cheapest, Method, Workload};

/// Strategy recommendation engine.
#[derive(Debug, Clone)]
pub struct Advisor {
    params: SystemParams,
}

/// A recommendation with its reasoning.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The chosen method.
    pub method: Method,
    /// Human-readable justification.
    pub reason: String,
}

impl Advisor {
    /// An advisor for the given system parameters.
    pub fn new(params: &SystemParams) -> Self {
        Advisor { params: params.clone() }
    }

    /// The paper's closing heuristics (a)–(c). "Much larger" is read as
    /// more than 3× the larger base relation (the paper's hash-join region
    /// begins where the join result dwarfs its operands).
    pub fn heuristic(&self, w: &Workload) -> Recommendation {
        let join_tuples = w.js * w.r_tuples * w.s_tuples;
        let join_bytes = join_tuples * (w.tr + w.ts);
        let base_bytes = (w.r_tuples * w.tr).max(w.s_tuples * w.ts);
        let activity = if w.r_tuples > 0.0 { w.updates / w.r_tuples } else { 0.0 };
        if join_bytes > 3.0 * base_bytes {
            Recommendation {
                method: Method::HybridHash,
                reason: format!(
                    "join result ({:.0} MB) is much larger than the base relations \
                     ({:.0} MB): rule (a), recompute with hybrid hash",
                    join_bytes / 1e6,
                    base_bytes / 1e6
                ),
            }
        } else if activity <= 0.10 {
            Recommendation {
                method: Method::MaterializedView,
                reason: format!(
                    "join result is not much larger than its operands and update \
                     activity is {:.1}% ≤ 10%: rule (b), cache the full view",
                    100.0 * activity
                ),
            }
        } else {
            Recommendation {
                method: Method::JoinIndex,
                reason: format!(
                    "join result is not much larger than its operands but update \
                     activity is {:.1}% > 10%: rule (c), cache surrogate pairs only",
                    100.0 * activity
                ),
            }
        }
    }

    /// Price all three methods with the analytical model and return the
    /// cheapest, with the predicted totals.
    fn model_based(&self, w: &Workload) -> Recommendation {
        let (method, secs) = cheapest(&self.params, w);
        Recommendation {
            method,
            reason: format!("cheapest under the §3 cost model: {secs:.1} s predicted"),
        }
    }

    /// Where the two disagree, the model wins on precision but the
    /// heuristic needs no cost model — this reports both for comparison.
    pub fn both(&self, w: &Workload) -> (Recommendation, Recommendation) {
        (self.heuristic(w), self.model_based(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advisor() -> Advisor {
        Advisor::new(&SystemParams::paper_defaults())
    }

    #[test]
    fn rule_a_huge_join_means_hash() {
        // SR = 1: join is 100× each operand.
        let w = Workload::figure4_point(1.0, 0.02);
        let rec = advisor().heuristic(&w);
        assert_eq!(rec.method, Method::HybridHash);
        assert!(rec.reason.contains("rule (a)"));
    }

    #[test]
    fn rule_b_low_activity_means_view() {
        let w = Workload::figure4_point(0.01, 0.05);
        let rec = advisor().heuristic(&w);
        assert_eq!(rec.method, Method::MaterializedView);
        assert!(rec.reason.contains("rule (b)"));
    }

    #[test]
    fn rule_c_high_activity_means_join_index() {
        let w = Workload::figure4_point(0.01, 0.5);
        let rec = advisor().heuristic(&w);
        assert_eq!(rec.method, Method::JoinIndex);
        assert!(rec.reason.contains("rule (c)"));
    }

    #[test]
    fn model_based_tracks_region_map() {
        let a = advisor();
        assert_eq!(a.model_based(&Workload::figure4_point(0.001, 0.02)).method, Method::JoinIndex);
        assert_eq!(
            a.model_based(&Workload::figure4_point(0.02, 0.02)).method,
            Method::MaterializedView
        );
        assert_eq!(a.model_based(&Workload::figure4_point(1.0, 0.02)).method, Method::HybridHash);
    }

    #[test]
    fn heuristic_and_model_mostly_agree_in_their_heartlands() {
        // The paper: "the actual times obtained will generally not be too
        // far from the optimal time" — check the heuristic's pick is within
        // 3x of the model's optimum across a coarse grid.
        let a = advisor();
        for sr in [0.001, 0.01, 0.1, 1.0] {
            for act in [0.02, 0.2, 0.8] {
                let w = Workload::figure4_point(sr, act);
                let h = a.heuristic(&w);
                let costs = trijoin_model::all_costs(&a.params, &w);
                let best: f64 = costs.iter().map(|c| c.total()).fold(f64::INFINITY, f64::min);
                let picked =
                    costs.iter().find(|c| c.method == h.method).map(|c| c.total()).unwrap();
                assert!(
                    picked <= 6.0 * best,
                    "SR={sr} act={act}: heuristic pick {} is {:.1}x optimal",
                    h.method,
                    picked / best
                );
            }
        }
    }
}
