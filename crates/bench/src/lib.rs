//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index).

use std::path::PathBuf;

use trijoin_common::{Json, SystemParams};
use trijoin_model::{Method, RegionCell};

/// Format a region-map row legend.
pub fn legend() -> &'static str {
    "legend: J = join index, M = materialized view, H = hybrid-hash join"
}

/// Where `results/<name>.json` lives (workspace root, independent of the
/// invocation directory).
pub fn results_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results").join(format!("{name}.json"))
}

/// Write `json` next to the binary's text output as
/// `results/<name>.json`. Every figure binary calls this so each run
/// leaves a machine-readable artifact beside the human-readable table.
pub fn emit_json(name: &str, json: &Json) {
    let path = results_path(name);
    match std::fs::write(&path, json.pretty()) {
        Ok(()) => println!("\njson: results/{name}.json"),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Extract the boundary columns (first MV column, first HH column) of one
/// region-map row; `None` when a band is absent.
pub fn row_boundaries(row: &[RegionCell]) -> (Option<f64>, Option<f64>) {
    let first_mv = row.iter().find(|c| c.winner == Method::MaterializedView).map(|c| c.sr);
    let first_hh = row.iter().find(|c| c.winner == Method::HybridHash).map(|c| c.sr);
    (first_mv, first_hh)
}

/// The paper's Table 7 configuration.
pub fn paper_params() -> SystemParams {
    SystemParams::paper_defaults()
}

/// A compact `x.xx` / `x.xxe-n` formatter for axis values.
pub fn axis(v: f64) -> String {
    if v >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_model::figure4_grid;

    #[test]
    fn boundaries_extracted_in_order() {
        let cells = figure4_grid(&paper_params(), 15, 3);
        let row = &cells[0..15]; // lowest activity
        let (mv, hh) = row_boundaries(row);
        let (mv_b, hh_b) = (mv.unwrap(), hh.unwrap());
        assert!(mv_b < hh_b, "MV band must start left of HH: {mv_b} vs {hh_b}");
    }

    #[test]
    fn axis_formatting() {
        assert_eq!(axis(0.5), "0.500");
        assert_eq!(axis(0.001), "0.0010");
    }
}
