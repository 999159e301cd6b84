//! End-to-end experiments: run a generated scenario on the execution
//! engine, measure the simulated cost ledger per strategy, check its
//! answer against the oracle, and put the analytical model's prediction
//! next to it.

use trijoin_common::{Cost, Result, SystemParams};
use trijoin_exec::oracle;
use trijoin_model::{cost_of, Method, Workload};

use crate::adaptive::CachedStrategy;
use crate::db::{Database, EpochCost};
use crate::workload::GeneratedWorkload;

/// Measured engine cost + predicted model cost for one method.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Which method.
    pub method: Method,
    /// What the epoch charged: the strategy's logging and query, and the
    /// base relations' own upkeep.
    pub cost: EpochCost,
    /// The method's database's ledger, holding the epoch alone (its span
    /// tree, for [`crate::Fig5Breakdown::measure`]).
    pub ledger: Cost,
    /// Engine simulated seconds of the strategy's own cost,
    /// [`EpochCost::strategy`].
    pub engine_secs: f64,
    /// Model-predicted seconds for the measured workload.
    pub model_secs: f64,
    /// Join cardinality the strategy produced.
    pub tuples: u64,
}

/// Result of one update-then-query epoch over all three strategies.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The workload statistics (measured, fed to the model).
    pub workload: Workload,
    /// Per-method outcomes in [`Method::all`] order.
    pub outcomes: Vec<MethodOutcome>,
}

impl EpochReport {
    /// The engine's cheapest method this epoch.
    pub fn engine_winner(&self) -> Method {
        self.outcomes
            .iter()
            .min_by(|a, b| a.engine_secs.total_cmp(&b.engine_secs))
            .map(|o| o.method)
            .unwrap()
    }

    /// The model's predicted cheapest method.
    pub fn model_winner(&self) -> Method {
        self.outcomes
            .iter()
            .min_by(|a, b| a.model_secs.total_cmp(&b.model_secs))
            .map(|o| o.method)
            .unwrap()
    }

    /// Per-method engine/model ratio (how far measurement sits from the
    /// analytical prediction).
    pub fn ratios(&self) -> Vec<(Method, f64)> {
        self.outcomes.iter().map(|o| (o.method, o.engine_secs / o.model_secs.max(1e-9))).collect()
    }
}

/// Drives one scenario end to end.
pub struct Experiment {
    params: SystemParams,
    generated: GeneratedWorkload,
}

impl Experiment {
    /// The scenario `generated` (uniform or skewed) under `params`.
    pub fn new(params: &SystemParams, generated: GeneratedWorkload) -> Self {
        Experiment { params: params.clone(), generated }
    }

    /// The generated workload (for inspection).
    pub fn generated(&self) -> &GeneratedWorkload {
        &self.generated
    }

    /// Run one epoch (apply `‖iR‖` updates, then query) for each strategy
    /// *independently* — each method gets its own fresh database — through
    /// [`Database::run_epoch`], and check every answer against the oracle
    /// (a hash join of the updated `R` with `S`; a wrong answer panics). A
    /// method's engine cost is its [`EpochCost::strategy`]: the paper's
    /// per-method costs start at the differential log (C1), and the base
    /// relation's own maintenance is not one of them.
    pub fn run_epoch(&self) -> Result<EpochReport> {
        let workload = self.generated.measured();
        let mut outcomes = Vec::with_capacity(3);
        for method in Method::all() {
            let gen = &self.generated;
            let mut db = Database::new(&self.params, gen.r.clone(), gen.s.clone())?;
            let mut strategy = CachedStrategy::build(&db, method)?;
            db.reset_cost();
            let mut stream = gen.update_stream();
            let updates = stream.by_ref().take(gen.updates_per_epoch() as usize);
            let (cost, rows) = db.run_epoch(&mut [strategy.as_dyn()], updates)?.remove(0);
            let tuples = rows.len() as u64;
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(method.label(), rows, want);
            let engine_secs = cost.strategy().time_secs(&self.params);
            let model_secs = cost_of(&self.params, &workload, method).total();
            let ledger = db.cost().clone();
            outcomes.push(MethodOutcome { method, cost, ledger, engine_secs, model_secs, tuples });
        }
        Ok(EpochReport { workload, outcomes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            r_tuples: 2_000,
            s_tuples: 2_000,
            tuple_bytes: 200,
            sr: 0.05,
            group_size: 5,
            pra: 0.2,
            update_rate: 0.05,
            seed: 11,
        }
    }

    #[test]
    fn epoch_runs_and_verifies_all_strategies() {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let exp = Experiment::new(&params, spec().generate());
        let report = exp.run_epoch().unwrap();
        assert_eq!(report.outcomes.len(), 3);
        let counts: Vec<u64> = report.outcomes.iter().map(|o| o.tuples).collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
        assert!(report.outcomes.iter().all(|o| o.engine_secs > 0.0 && o.model_secs > 0.0));
    }

    #[test]
    fn epoch_report_winners_are_consistent() {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let exp = Experiment::new(&params, spec().generate());
        let report = exp.run_epoch().unwrap();
        let w = report.engine_winner();
        let best = report.outcomes.iter().map(|o| o.engine_secs).fold(f64::INFINITY, f64::min);
        let picked = report.outcomes.iter().find(|o| o.method == w).unwrap();
        assert!((picked.engine_secs - best).abs() < 1e-12);
        assert_eq!(report.ratios().len(), 3);
    }
}
