//! Region solvers for Figures 4 and 6: which method is cheapest where.

use trijoin_common::SystemParams;

use crate::formulas::{io_clustered, yao};
use crate::inputs::Workload;
use crate::report::{CostReport, Method};
use crate::{hh, ji, mv};

/// Price one workload under one method — the single pricing entry that
/// strategy selection and the engine's cost audit share.
pub fn cost_of(params: &SystemParams, w: &Workload, method: Method) -> CostReport {
    match method {
        Method::MaterializedView => mv::cost(params, w),
        Method::JoinIndex => ji::cost(params, w),
        Method::HybridHash => hh::cost(params, w),
    }
}

/// Seconds one settle of a base relation costs: `keys` distinct tuples of
/// the `tuples` stored in `leaf_pages` leaves, changed in one sweep in key
/// order — every distinct leaf read and written, every distinct internal
/// page read once, `[2·Yao(k,m,n) + Yao(Yao(k,m,n), m/FO, m)]·IO`. Work
/// every method shares, so no [`cost_of`] report carries it; the engine's
/// audit prices its `apply` section with it.
pub fn sweep_cost(params: &SystemParams, keys: f64, leaf_pages: f64, tuples: f64) -> f64 {
    let written = yao(keys, leaf_pages, tuples) * params.io_us / 1e6;
    written + io_clustered(keys, leaf_pages, tuples, params)
}

/// Price one workload under all three methods, in [`Method::all`] order.
pub fn all_costs(params: &SystemParams, w: &Workload) -> [CostReport; 3] {
    Method::all().map(|method| cost_of(params, w, method))
}

/// The cheapest of three priced methods (ties broken in presentation
/// order, which never matters at the grid resolutions used).
pub fn cheapest_of(totals: [(Method, f64); 3]) -> (Method, f64) {
    totals.into_iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap()
}

/// The cheapest method for one workload.
pub fn cheapest(params: &SystemParams, w: &Workload) -> (Method, f64) {
    cheapest_of(all_costs(params, w).map(|r| (r.method, r.total())))
}

/// Logarithmically spaced values from `lo` to `hi` inclusive.
pub fn log_space(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2 && lo > 0.0 && hi > lo);
    let ratio = (hi / lo).powf(1.0 / (steps - 1) as f64);
    (0..steps).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// One cell of a region map.
#[derive(Debug, Clone)]
pub struct RegionCell {
    /// Semijoin selectivity `SR` (x-axis of both figures).
    pub sr: f64,
    /// The swept y-axis value (update activity for Figure 4, `|M|` pages
    /// for Figure 6).
    pub y: f64,
    /// The winning method.
    pub winner: Method,
    /// Each method's total seconds, in [`Method::all`] order.
    pub totals: [f64; 3],
}

/// Figure 4: cheapest method over `(SR, update activity)` at `|M| = 1000`,
/// `Pr_A = 0.1`. `SR ∈ [0.001, 1.0]`, activity `∈ [1%, 100%]`,
/// logarithmic axes as in the paper.
pub fn figure4_grid(params: &SystemParams, sr_steps: usize, act_steps: usize) -> Vec<RegionCell> {
    let mut out = Vec::with_capacity(sr_steps * act_steps);
    for &activity in &log_space(0.01, 1.0, act_steps) {
        for &sr in &log_space(0.001, 1.0, sr_steps) {
            let w = Workload::figure4_point(sr, activity);
            let costs = all_costs(params, &w);
            let totals = [costs[0].total(), costs[1].total(), costs[2].total()];
            let (winner, _) = cheapest(params, &w);
            out.push(RegionCell { sr, y: activity, winner, totals });
        }
    }
    out
}

/// Figure 6: cheapest method over `(SR, |M|)` at `‖iR‖ = 6000`,
/// `Pr_A = 0.1`. `|M| ∈ [1000, 16000]` pages (the paper's y-axis ticks are
/// 1K/2K/4K/8K/16K), `SR ∈ [0.001, 1.0]`.
pub fn figure6_grid(base: &SystemParams, sr_steps: usize, mem_steps: usize) -> Vec<RegionCell> {
    let mut out = Vec::with_capacity(sr_steps * mem_steps);
    for &mem in &log_space(1_000.0, 16_000.0, mem_steps) {
        let params = SystemParams { mem_pages: mem.round() as usize, ..base.clone() };
        for &sr in &log_space(0.001, 1.0, sr_steps) {
            let w = Workload::figure6_point(sr);
            let costs = all_costs(&params, &w);
            let totals = [costs[0].total(), costs[1].total(), costs[2].total()];
            let (winner, _) = cheapest(&params, &w);
            out.push(RegionCell { sr, y: mem, winner, totals });
        }
    }
    out
}

/// Render a region grid (rows = descending y, columns = ascending SR) as
/// an ASCII map: `M` = materialized view, `J` = join index, `H` = hybrid
/// hash.
pub fn ascii_map(cells: &[RegionCell], sr_steps: usize) -> String {
    let glyph = |m: Method| match m {
        Method::MaterializedView => 'M',
        Method::JoinIndex => 'J',
        Method::HybridHash => 'H',
    };
    let mut rows: Vec<&[RegionCell]> = cells.chunks(sr_steps).collect();
    rows.reverse(); // largest y on top, like the paper's axes
    let mut out = String::new();
    for row in rows {
        let y = row[0].y;
        out.push_str(&format!("{:>9.4} | ", y));
        for cell in row {
            out.push(glyph(cell.winner));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> SystemParams {
        SystemParams::paper_defaults()
    }

    #[test]
    fn a_sweep_is_concave_in_the_keys_it_nets() {
        // The cycle data: 40 000 tuples on 2 858 leaves. One sweep over
        // five epochs' distinct keys costs far less than five sweeps.
        let params = p();
        let (m, n) = (2_858.0, 40_000.0);
        let one = sweep_cost(&params, 2_400.0, m, n);
        let five = sweep_cost(&params, 10_500.0, m, n);
        assert!(five < 2.0 * one, "{five} vs 5 x {one}");
        assert!(five > one);
        assert_eq!(sweep_cost(&params, 0.0, m, n), 0.0);
        // Everything touched: each leaf twice, each internal page once.
        let all = sweep_cost(&params, n, m, n);
        let pages = 2.0 * m + m / params.fan_out as f64;
        assert!((all - pages * params.io_us / 1e6).abs() < 1e-6, "{all}");
    }

    #[test]
    fn log_space_endpoints() {
        let v = log_space(0.001, 1.0, 4);
        assert_eq!(v.len(), 4);
        assert!((v[0] - 0.001).abs() < 1e-12);
        assert!((v[3] - 1.0).abs() < 1e-9);
        assert!((v[1] - 0.01).abs() < 1e-9);
    }

    #[test]
    fn figure4_regions_have_the_papers_shape() {
        // The paper's Figure 4: MV wins at moderate selectivity and low
        // activity; JI wins at very low selectivity or high activity; HH
        // wins at extreme selectivity.
        let params = p();
        let (w, _) = cheapest(&params, &Workload::figure4_point(0.02, 0.02));
        assert_eq!(w, Method::MaterializedView, "moderate SR, low activity");
        let (w, _) = cheapest(&params, &Workload::figure4_point(0.001, 0.02));
        assert_eq!(w, Method::JoinIndex, "very low selectivity");
        let (w, _) = cheapest(&params, &Workload::figure4_point(1.0, 0.02));
        assert_eq!(w, Method::HybridHash, "extreme selectivity");
        let (w, _) = cheapest(&params, &Workload::figure4_point(0.01, 0.9));
        assert_eq!(w, Method::JoinIndex, "moderate SR, very high activity");
        // At high activity the MV band closes and hash join borders the
        // join-index region directly (the top of Figure 4).
        let (w, _) = cheapest(&params, &Workload::figure4_point(0.05, 0.6));
        assert_eq!(w, Method::HybridHash, "high activity squeezes MV out");
    }

    #[test]
    fn figure4_grid_contains_all_three_regions() {
        let cells = figure4_grid(&p(), 13, 9);
        let count = |m: Method| cells.iter().filter(|c| c.winner == m).count();
        assert!(count(Method::MaterializedView) > 0);
        assert!(count(Method::JoinIndex) > 0);
        assert!(count(Method::HybridHash) > 0);
        // Totals are all positive and finite.
        assert!(cells.iter().all(|c| c.totals.iter().all(|t| t.is_finite() && *t > 0.0)));
        let map = ascii_map(&cells, 13);
        assert_eq!(map.lines().count(), 9);
    }

    #[test]
    fn figure6_memory_grows_ji_region() {
        // "the join index algorithm is able to use additional main memory
        // more efficiently than the other two algorithms"
        let cells = figure6_grid(&p(), 13, 5);
        let ji_at = |mem: f64| {
            cells
                .iter()
                .filter(|c| (c.y - mem).abs() / mem < 0.01 && c.winner == Method::JoinIndex)
                .count()
        };
        let low = ji_at(1_000.0);
        let high = ji_at(16_000.0);
        assert!(high >= low, "JI region must not shrink with memory: {low} -> {high}");
    }
}
