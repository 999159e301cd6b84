//! Figure-5 cost decomposition measured off the engine's span tree.
//!
//! The paper's Figure 5 splits each method's bar into a *white* part — the
//! non-update-related file cost of the basic join algorithm — and a *dark*
//! part — everything update-driven or internal (logging, diff merging,
//! insert joining, write-back, CPU). The engine-side mapping:
//!
//! * MV: white = I/O charged under `mv.scan_view`
//! * JI: white = I/O charged under `ji.read_index` + `ji.fetch_r` + `ji.fetch_s`
//! * HH: white = I/O charged under `hh.execute` (the whole query)
//!
//! Reading a base relation's apply log through (`base.read_through`) is
//! update-driven wherever it nests, so it is dark.
//!
//! The split is computed on *integer* operation counts, so
//! `white + dark == total` exactly; only the conversion to simulated
//! seconds rounds (within 1 ULP).

use trijoin_common::{Cost, Json, OpCounts, SystemParams};
use trijoin_model::Method;

/// Cumulative cost sections whose I/O counts as Figure-5 "white" work for
/// `method`. Everything else the ledger charged is "dark".
fn white_sections(method: Method) -> &'static [&'static str] {
    match method {
        Method::MaterializedView => &["mv.scan_view"],
        Method::JoinIndex => &["ji.read_index", "ji.fetch_r", "ji.fetch_s"],
        Method::HybridHash => &["hh.execute"],
    }
}

/// One method's measured white/dark split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig5Breakdown {
    /// Which method the ledger measured.
    pub method: Method,
    /// What the strategy charged.
    pub total: OpCounts,
    /// Non-update-related file I/O of the basic algorithm.
    pub white: OpCounts,
    /// `total - white`: update-driven and internal work (exact integer
    /// complement, never negative).
    pub dark: OpCounts,
}

impl Fig5Breakdown {
    /// Split `total`, what `method` charged to `cost`'s ledger (over an
    /// epoch, [`crate::EpochCost::strategy`]). The white sections are
    /// summed cumulatively (nested retry work under `hh.execute` stays
    /// white, matching "entire query I/O"), then restricted to their I/O
    /// component.
    pub fn measure(method: Method, cost: &Cost, total: OpCounts) -> Fig5Breakdown {
        let names = white_sections(method);
        let mut white_ios: u64 = names.iter().map(|name| cost.section_counts(name).ios).sum();
        for span in cost.span_tree() {
            if span.name == "base.read_through" && span.path.split('/').any(|p| names.contains(&p))
            {
                white_ios -= span.cum_ops.ios;
            }
        }
        let white = OpCounts { ios: white_ios, ..OpCounts::default() };
        let dark = total.delta_since(&white);
        Fig5Breakdown { method, total, white, dark }
    }

    /// Simulated seconds of the white part.
    pub fn white_secs(&self, params: &SystemParams) -> f64 {
        self.white.time_secs(params)
    }

    /// Simulated seconds of the dark part.
    pub fn dark_secs(&self, params: &SystemParams) -> f64 {
        self.dark.time_secs(params)
    }

    /// Dark share of the total simulated time, in percent.
    pub fn dark_pct(&self, params: &SystemParams) -> f64 {
        let total = self.total.time_secs(params);
        if total <= 0.0 {
            0.0
        } else {
            100.0 * self.dark_secs(params) / total
        }
    }

    /// JSON form used by `results/fig5_breakdown.json`.
    pub fn to_json(&self, params: &SystemParams) -> Json {
        Json::obj()
            .set("method", self.method.label())
            .set("total_ios", self.total.ios)
            .set("white_ios", self.white.ios)
            .set("dark_ios", self.dark.ios)
            .set("total_secs", self.total.time_secs(params))
            .set("white_secs", self.white_secs(params))
            .set("dark_secs", self.dark_secs(params))
            .set("dark_pct", self.dark_pct(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn white_plus_dark_is_exactly_total() {
        let cost = Cost::new();
        {
            let _q = cost.section("hh.execute");
            cost.io(40);
            cost.comp(100);
            {
                let _r = cost.section("hh.retry");
                cost.io(5);
            }
        }
        {
            let _m = cost.section("hh.recover");
            cost.io(7);
            cost.mov(3);
        }
        let b = Fig5Breakdown::measure(Method::HybridHash, &cost, cost.total());
        // Cumulative: the nested retry I/O stays inside hh.execute's white.
        assert_eq!(b.white.ios, 45);
        assert_eq!(b.dark.ios, 7);
        let mut sum = b.white;
        sum.add(&b.dark);
        assert_eq!(sum, b.total);
    }

    #[test]
    fn ji_white_sums_its_three_sections() {
        let cost = Cost::new();
        for (name, ios) in [("ji.read_index", 3u64), ("ji.fetch_r", 11), ("ji.fetch_s", 17)] {
            let _g = cost.section(name);
            cost.io(ios);
        }
        {
            let _g = cost.section("ji.log");
            cost.io(100);
        }
        let b = Fig5Breakdown::measure(Method::JoinIndex, &cost, cost.total());
        assert_eq!(b.white.ios, 31);
        assert_eq!(b.dark.ios, 100);
    }
}
