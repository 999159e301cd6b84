//! The paper's analytical cost model (Section 3 + Appendix), transcribed.
//!
//! Given the Table 6/7 parameters ([`trijoin_common::SystemParams`] +
//! [`inputs::Workload`]), the three modules [`mv`], [`ji`], [`hh`] price
//! the materialized-view, join-index, and hybrid-hash strategies in
//! seconds of simulated 1989 time, term by term ([`report::CostReport`]),
//! with each term tagged for the Figure 5 white/dark decomposition.
//! [`regions`] sweeps the grids behind Figures 4 and 6.
//!
//! The execution engine in `trijoin-exec` runs the same algorithms for
//! real against the simulated disk; integration tests compare its measured
//! ledgers against these predictions.
//!
//! ```
//! use trijoin_common::SystemParams;
//! use trijoin_model::{cheapest, Method, Workload};
//!
//! let params = SystemParams::paper_defaults(); // Table 7
//!
//! // The canonical Figure 4/5 point: SR = 0.01, 6% update activity.
//! let w = Workload::figure5_point(0.01);
//! let (winner, secs) = cheapest(&params, &w);
//! assert!(secs > 0.0);
//!
//! // At extreme selectivity nothing beats recomputation.
//! let extreme = Workload::figure4_point(1.0, 0.06);
//! assert_eq!(cheapest(&params, &extreme).0, Method::HybridHash);
//! ```

pub mod formulas;
pub mod hh;
pub mod inputs;
pub mod ji;
pub mod math;
pub mod mv;
pub mod regions;
pub mod report;

pub use inputs::{Derived, Workload};
pub use regions::{
    all_costs, cheapest, cheapest_of, cost_of, figure4_grid, figure6_grid, sweep_cost, RegionCell,
};
pub use report::{CostReport, Method, Term, TermKind};
