//! The figures the §3 cost model alone draws: Table 7, Figures 4–6, and
//! the model ablations. Each renders in well under a second, and a unit
//! test holds each to its committed results files.
//!
//! Run one with: `cargo run -p trijoin-bench --bin figures -- <name>`

use trijoin_common::{Json, Result, SystemParams};
use trijoin_model::regions::log_space;
use trijoin_model::{
    all_costs, cheapest_of, figure4_grid, figure6_grid, formulas, hh, ji, mv, CostReport, Method,
    RegionCell, Workload,
};

use crate::{boundary_row, member, num, paper_params, region_map, row_boundaries, secs, secs_cols};
use crate::{Col, Figure, Rendered};

/// The model's figures, in the order `figures` runs them.
pub const FIGURES: &[Figure] = &[
    Figure { name: "table7", json: "table7", body: table7 },
    Figure { name: "fig4", json: "fig4", body: fig4 },
    Figure { name: "fig5", json: "fig5", body: fig5 },
    Figure { name: "fig6", json: "fig6", body: fig6 },
    Figure { name: "ablation_eager", json: "ablation_eager", body: ablation_eager },
    Figure { name: "ablation_js", json: "ablation_js", body: ablation_js },
    Figure { name: "ablation_memory", json: "ablation_memory", body: ablation_memory },
    Figure { name: "ablation_size", json: "ablation_size", body: ablation_size },
];

/// Table 7 (parameter settings) and the derived quantities (Table 6's
/// database-dependent values at the default point), validating that the
/// workspace's configuration matches the paper's exactly.
fn table7(out: &mut Rendered, json: Json) -> Result<Json> {
    let p = paper_params();
    let params = Json::obj()
        .set("mem_pages", p.mem_pages)
        .set("page_size", p.page_size)
        .set("page_occupancy", p.page_occupancy)
        .set("fan_out", p.fan_out)
        .set("hash_overhead", p.hash_overhead)
        .set("ssur", p.ssur)
        .set("io_us", p.io_us)
        .set("comp_us", p.comp_us)
        .set("hash_us", p.hash_us)
        .set("move_us", p.move_us);
    let v = |key| num(member(&params, key));
    out.line("== Table 7: parameter settings ==");
    out.line(format!("  ‖R‖, ‖S‖      200,000 tuples      ssur, sptr   {} bytes", v("ssur")));
    out.line(format!(
        "  |M|           {:>7} pages        IO           {} msec",
        v("mem_pages"),
        v("io_us") / 1000.0
    ));
    out.line(format!("  T_R, T_S          200 bytes        comp         {} µsec", v("comp_us")));
    out.line(format!(
        "  PO            {:>7}              hash         {} µsec",
        v("page_occupancy"),
        v("hash_us")
    ));
    out.line(format!(
        "  FO            {:>7} entries      move         {} µsec",
        v("fan_out"),
        v("move_us")
    ));
    out.line(format!(
        "  P             {:>7} bytes        F            {}",
        v("page_size"),
        v("hash_overhead")
    ));

    out.line("\n== Derived quantities at SR = 0.01 (‖V‖ = ‖R‖ — the paper's example) ==");
    let d = Workload::paper_point(0.01, 12_000.0, 0.1).derived(&p);
    let rows = [
        ("n_R = n_S (tuples/page)", d.n_r, "⌊4000·0.7/200⌋ = 14"),
        ("n_V (view tuples/page)", d.n_v, "⌊4000·0.7/400⌋ = 7"),
        ("n_JI (JI entries/page)", d.n_ji, "⌊4000·0.7/8⌋ = 350"),
        ("|R| = |S| (pages)", d.r_pages, "⌈200000/14⌉ = 14286"),
        ("‖V‖ = ‖JI‖ (tuples)", d.join_tuples, "JS·‖R‖·‖S‖ = 200000"),
        ("|V| (pages)", d.v_pages, "⌈200000/7⌉ = 28572"),
        ("|JI| (pages)", d.ji_pages, "⌈200000/350⌉ = 572"),
        ("|iR| at 6% activity (pages)", d.ir_pages, "⌈12000/20⌉ = 600"),
    ];
    let mut derived = Json::obj();
    for (name, got, formula) in rows {
        out.line(format!("  {name:<30} = {got:>9.0}   ({formula})"));
        let expect: f64 = formula.rsplit('=').next().unwrap().trim().parse().unwrap();
        if (got - expect).abs() > 1e-9 {
            out.line(format!("    !! MISMATCH: expected {expect}"));
            out.ok = false;
        }
        derived = derived.set(name, got);
    }
    out.line(format!(
        "\nvalidation: {}",
        if out.ok { "all derived quantities match the paper" } else { "MISMATCHES FOUND" }
    ));
    Ok(json.set("params", params).set("derived", derived).set("ok", out.ok))
}

/// Figure 4: "Cheapest method as selectivity and update activity vary" —
/// the region map over SR ∈ [0.001, 1.0] (x, log) and update activity
/// ‖iR‖/‖R‖ ∈ [1%, 100%] (y, log) at |M| = 1000 pages, Pr_A = 0.1,
/// ‖R‖ = ‖S‖ = 200 000.
fn fig4(out: &mut Rendered, json: Json) -> Result<Json> {
    let (sr_steps, act_steps) = (46, 15);
    let cells = figure4_grid(&paper_params(), sr_steps, act_steps);
    out.line("== Figure 4: cheapest method over (SR, update activity) ==");
    out.line("   |M| = 1000 pages, Pr_A = 0.1, JS = 100·SR/‖R‖, ‖R‖ = ‖S‖ = 200 000");
    out.line("   y = update activity (fraction of R updated), x = SR from 0.001 to 1.0 (log)\n");
    let y = Col::axis("activity", "activity", 10, "");
    let boundaries = region_map(out, "activity", y, &cells, sr_steps);
    let rows: Vec<&[RegionCell]> = cells.chunks(sr_steps).collect();
    let checks = out.checks(&[
        (
            "MV wins a middle band at low activity",
            matches!(row_boundaries(rows[0]), (Some(m), Some(h)) if m < h),
        ),
        (
            "JI wins the entire low-SR edge",
            rows.iter().all(|row| row[0].winner == Method::JoinIndex),
        ),
        (
            "HH wins the entire high-SR edge",
            rows.iter().all(|row| row[sr_steps - 1].winner == Method::HybridHash),
        ),
        (
            "MV band closes at extreme activity (figure's top)",
            !rows[act_steps - 1].iter().any(|c| c.winner == Method::MaterializedView),
        ),
    ]);
    Ok(json
        .set("sr_steps", sr_steps)
        .set("act_steps", act_steps)
        .set("boundaries", boundaries)
        .set("checks", checks))
}

/// Figure 5: "Cost of each method broken down into non-update file
/// processing and other costs" — per-method totals split into the white
/// area (non-update-related file cost of the basic algorithm) and the dark
/// area (update costs + non-update internal processing), at 6% update
/// activity over SR ∈ [0.001, 0.1].
fn fig5(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = paper_params();
    let dark_pct = |c: &CostReport| 100.0 * c.update_and_internal() / c.total();
    let points: Vec<(f64, [CostReport; 3])> = log_space(0.001, 0.1, 13)
        .into_iter()
        .map(|sr| (sr, all_costs(&params, &Workload::figure5_point(sr))))
        .collect();
    let rows: Vec<Json> = points
        .iter()
        .map(|(sr, costs)| {
            costs.iter().fold(Json::obj().set("sr", *sr), |row, c| {
                let bar = Json::obj()
                    .set("total_secs", c.total())
                    .set("white_secs", c.base_file())
                    .set("dark_pct", dark_pct(c));
                row.set(c.method.label(), bar)
            })
        })
        .collect();
    out.line("== Figure 5: cost decomposition at 6% update activity ==");
    out.line("   (seconds of simulated 1989 time; white = non-update file cost of the");
    out.line("    basic algorithm, dark = update + internal costs)\n");
    let cols = [
        Col::fixed("sr", "", 8, 4),
        Col::fixed("materialized-view.total_secs", "MV total", 10, 1).after(" | "),
        Col::fixed("materialized-view.white_secs", "white", 10, 1),
        Col::fixed("materialized-view.dark_pct", "dark%", 7, 1).unit("%"),
        Col::fixed("join-index.total_secs", "JI total", 10, 1).after(" | "),
        Col::fixed("join-index.white_secs", "white", 10, 1),
        Col::fixed("join-index.dark_pct", "dark%", 7, 1).unit("%"),
        Col::fixed("hybrid-hash.total_secs", "HH total", 10, 1).after(" | "),
        Col::fixed("hybrid-hash.white_secs", "white", 10, 1),
        Col::fixed("hybrid-hash.dark_pct", "dark%", 7, 1).unit("%"),
    ];
    out.table(&cols, &[]);
    out.line(format!("{:>8} |", "SR"));
    out.rows(&cols, &rows);

    let (first, last) = (&points[0].1, &points[points.len() - 1].1);
    out.checks(&[
        (
            "hash-join cost is flat across SR (its curve is constant)",
            (first[2].total() - last[2].total()).abs() / first[2].total() < 0.01,
        ),
        (
            "hash-join dark area ≈ 1% of total (paper: 'approximately 1 percent')",
            points.iter().map(|(_, c)| dark_pct(&c[2])).fold(0.0, f64::max) < 2.5,
        ),
        (
            "MV white area (reading V) grows ~linearly with SR",
            last[0].base_file() / first[0].base_file() > 50.0,
        ),
        (
            "MV's advantage is its small white area at low SR (vs both others)",
            points.iter().take(5).all(|(_, c)| c[0].base_file() < c[2].base_file()),
        ),
        (
            "JI dark share stays a minor fraction once I/O dominates",
            points.iter().skip(4).all(|(_, c)| dark_pct(&c[1]) < 25.0),
        ),
    ]);
    // The crossing structure the paper narrates: JI cheapest at the far
    // left of this range, MV's band in the middle, HH by the right edge.
    let winner = |i: usize| cheapest_of(points[i].1.each_ref().map(|c| (c.method, c.total()))).0;
    out.line(format!("\n  winner at SR=0.001: {}", winner(0)));
    out.line(format!("  winner at SR=0.022: {}", winner(7)));
    out.line(format!("  winner at SR=0.1:   {}", winner(12)));
    Ok(json.set("rows", rows))
}

/// Figure 6: "Cheapest method as selectivity and memory size vary" — the
/// region map over SR ∈ [0.001, 1.0] (x, log) and |M| ∈ [1K, 16K] pages
/// (y, log-2), at ‖iR‖ = 6000, Pr_A = 0.1.
fn fig6(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = paper_params();
    let (sr_steps, mem_steps) = (46, 9);
    let cells = figure6_grid(&params, sr_steps, mem_steps);
    out.line("== Figure 6: cheapest method over (SR, |M|) ==");
    out.line("   ‖iR‖ = 6000, Pr_A = 0.1, JS = 100·SR/‖R‖, ‖R‖ = ‖S‖ = 200 000");
    out.line("   y = |M| in pages (1K..16K, log), x = SR from 0.001 to 1.0 (log)\n");
    let y = Col::fixed("mem_pages", "|M| pages", 10, 0);
    let boundaries = region_map(out, "memory", y, &cells, sr_steps);
    let ji_cells =
        |row: &[RegionCell]| row.iter().filter(|c| c.winner == Method::JoinIndex).count();
    let (bottom, top) = (&cells[..sr_steps], &cells[(mem_steps - 1) * sr_steps..]);
    // Beyond the plotted range: |M| ≈ 20K+ pages makes hash join one-pass
    // (B = 0, q = 1) — the paper's "increased by approximately 20K pages".
    let w = Workload::figure6_point(0.05);
    let hh_at = |mem_pages| hh::cost(&SystemParams { mem_pages, ..params.clone() }, &w).total();
    let (hh_1k, hh_21k) = (hh_at(1_000), hh_at(21_000));
    let checks = out.checks(&[
        (
            "join index exploits added memory best: its region grows 1K -> 16K",
            ji_cells(top) > ji_cells(bottom),
        ),
        (
            "all three regions present at |M| = 1000 (the Figure 4 baseline row)",
            Method::all().iter().all(|&m| bottom.iter().any(|c| c.winner == m)),
        ),
        (
            "one-pass hash join (|M| ~ 21K >= |R|*F) runs ~3x faster than at 1K \
             ('increased by approximately 20K pages' enlarges its area)",
            hh_21k < 0.4 * hh_1k,
        ),
    ]);
    Ok(json
        .set("sr_steps", sr_steps)
        .set("mem_steps", mem_steps)
        .set("boundaries", boundaries)
        .set("hh_secs_at_1k_pages", hh_1k)
        .set("hh_secs_at_21k_pages", hh_21k)
        .set("checks", checks))
}

/// Ablation: deferred vs eager view maintenance.
///
/// The paper *defers* view maintenance to query time (§3.2). The obvious
/// alternative maintains `V` on every update: probe `S` for the tuple's
/// partners and read-modify-write the affected view pages immediately.
/// This prices both (model formulas) across update activity and shows
/// where deferral wins — the motivation for the paper's whole pipeline.
///
/// Eager per-update cost (same primitives as §3.2, batch size 1):
/// - probe S through the inverted index for old+new key (IO_ii(1, ..) each)
/// - read-modify-write the view pages holding the old and new groups
///   (hash-file point access: ~SR·(1 read + 1 write) each side).
fn ablation_eager(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = paper_params();
    let rows: Vec<Json> = [0.001, 0.01, 0.06, 0.2, 0.5, 1.0]
        .into_iter()
        .map(|activity| {
            let w = Workload::figure4_point(0.01, activity);
            let deferred = mv::cost(&params, &w).total();
            // Eager: every update pays point maintenance immediately; the
            // query then just reads the clean view (C3.1).
            let d = w.derived(&params);
            // Probe S's inverted index for the deleted tuple's key and the
            // inserted tuple's key. The descent happens whether or not
            // partners exist — that is the eager tax (k = 1 per probe).
            let probe = 2.0 * formulas::io_inverted(1.0, d.s_pages, w.s_tuples, &params);
            // When the tuple actually joins (probability SR per side), its
            // partner group's view bucket is read, modified and rewritten.
            let touch = 2.0 * w.sr * 2.0 * params.io_us / 1e6;
            let eager =
                w.updates * (probe + touch) + params.hash_overhead * d.v_pages * params.io_us / 1e6;
            Json::obj()
                .set("activity", activity)
                .set("deferred_secs", deferred)
                .set("eager_secs", eager)
                .set("ratio", eager / deferred)
        })
        .collect();
    out.line("== Deferred (paper) vs eager view maintenance, SR = 0.01 ==");
    let cols = [
        Col::show("activity", "activity", 10),
        Col::fixed("deferred_secs", "deferred secs", 16, 1),
        Col::fixed("eager_secs", "eager secs", 16, 1),
        Col::fixed("ratio", "ratio", 10, 2).unit("x"),
    ];
    out.table(&cols, &rows);
    out.reading = &[
        "",
        "reading: batching updates and merging them in one sorted pass over V is",
        "cheaper than eager point maintenance as soon as updates are plentiful;",
        "at very low activity the two converge (both degenerate to reading V).",
    ];
    Ok(json.set("rows", rows))
}

/// Ablation: the join-selectivity multiplier.
///
/// The paper chose `JS = 100·SR/‖R‖` — "a join selectivity whose proportion
/// to the semijoin is 10 times larger than the proportion used by
/// Valduriez" — and observes that "the size of the area where the
/// materialized view algorithm performs best varies inversely with the
/// value of JS". This sweeps the multiplier (10 = Valduriez's setting,
/// 100 = the paper's) and reports the MV band's boundaries at 2% activity.
fn ablation_js(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = paper_params();
    let rows: Vec<Json> = [10.0, 30.0, 100.0, 300.0, 1000.0]
        .into_iter()
        .map(|mult| {
            let row: Vec<RegionCell> = log_space(0.001, 1.0, 46)
                .into_iter()
                .map(|sr| {
                    let mut w = Workload::figure4_point(sr, 0.02);
                    w.js = mult * sr / w.r_tuples;
                    let priced = all_costs(&params, &w).map(|c| (c.method, c.total()));
                    let (winner, _) = cheapest_of(priced);
                    RegionCell { sr, y: mult, winner, totals: priced.map(|(_, t)| t) }
                })
                .collect();
            let mv_cells = row.iter().filter(|c| c.winner == Method::MaterializedView).count();
            boundary_row("multiplier", mult, &row).set("mv_cells", mv_cells)
        })
        .collect();
    out.line("== MV region vs the JS multiplier (activity 2%, Pr_A 0.1) ==");
    let cols = [
        Col::show("multiplier", "multiplier", 10),
        Col::axis("mv_from_sr", "JI->MV at SR", 14, "(no MV)"),
        Col::axis("hh_from_sr", "MV->HH at SR", 14, "-"),
        Col::show("mv_cells", "MV cells/46", 12),
    ];
    out.table(&cols, &rows);
    out.reading = &[
        "",
        "reading: more partners per matching tuple inflate ‖V‖ (and ‖JI‖), so the",
        "caches lose ground to recomputation as the multiplier grows — the MV band",
        "shrinks and vanishes, exactly the inverse-in-JS behaviour the paper notes.",
        "At Valduriez's multiplier (10) the caches dominate recomputation almost",
        "everywhere, which is why the paper raised it to highlight the contrasts.",
    ];
    Ok(json.set("rows", rows))
}

/// Ablation: memory sensitivity — a vertical cut through Figure 6.
///
/// §5's bullets: hash join barely benefits from memory "until the memory
/// is made extremely large"; the join index "is favorably effected by an
/// increase in memory" (single-pass processing arrives soonest); the view
/// "does not appear to utilize additional main memory as well as the
/// other two approaches".
fn ablation_memory(out: &mut Rendered, json: Json) -> Result<Json> {
    let w = Workload::figure6_point(0.02);
    let rows: Vec<Json> = [500usize, 1_000, 2_000, 4_000, 8_000, 16_000, 24_000]
        .into_iter()
        .map(|mem| {
            let p = SystemParams { mem_pages: mem, ..paper_params() };
            let d = w.derived(&p);
            secs(Json::obj().set("mem_pages", mem), all_costs(&p, &w).map(|c| c.total()))
                .set("jik_pages", ji::jik_pages(&p, &w, &d, 1.0))
                .set("wr_pages", mv::wr_pages(&p, &w, &d, 1.0))
        })
        .collect();
    out.line("== |M| sweep at SR = 0.02, ‖iR‖ = 6000, Pr_A = 0.1 (model) ==");
    let [mv, ji, hh] = secs_cols(["MV secs", "JI secs", "HH secs"], 10, 1);
    let cols = [
        Col::show("mem_pages", "|M|", 8),
        mv,
        ji,
        hh,
        Col::fixed("jik_pages", "JI |JIk|", 8, 0).after("   "),
        Col::fixed("wr_pages", "MV |W_R|", 8, 0),
    ];
    out.table(&cols, &rows);
    out.reading = &[
        "",
        "reading: JI's per-pass budget |JI_k| grows linearly with memory, so its",
        "pass count (and its dominant per-pass S traffic) collapses first. MV's W_R",
        "batches grow too but its cost floor is reading V, which memory cannot",
        "shrink. HH stays flat until |M| approaches F*|R| ~ 17K pages, then drops",
        "to its one-pass floor — the paper's 'extremely large' threshold.",
    ];
    Ok(json.set("rows", rows))
}

/// Ablation: relation-size effects (§4's closing observations).
///
/// "Varying the relation size has an inverse effect on whatever method is
/// doing the most file process at a given selectivity. The materialized
/// view cost is most effected at low selectivities, the join index method
/// is effected at moderate selectivities, and the hash join method is
/// effected at high selectivities."
///
/// Sweeps ‖R‖ = ‖S‖ at three selectivities and reports each method's
/// relative growth.
fn ablation_size(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = paper_params();
    let [mv, ji, hh] = secs_cols(["MV", "JI", "HH"], 12, 1);
    let cols = [Col::fixed("tuples", "tuples", 10, 0), mv, ji, hh];
    let mut sweeps = Vec::new();
    for sr in [0.001, 0.02, 0.5] {
        let rows: Vec<Json> = [0.5, 1.0, 2.0, 4.0]
            .into_iter()
            .map(|scale| {
                let mut w = Workload::figure4_point(sr, 0.06);
                w.r_tuples *= scale;
                w.s_tuples *= scale;
                // Keep JS on the paper's family: JS = 100·SR/‖R‖ re-derived
                // so partner counts stay at 100.
                w.js = 100.0 * sr / w.r_tuples;
                w.updates = 0.06 * w.r_tuples;
                secs(
                    Json::obj().set("tuples", w.r_tuples),
                    all_costs(&params, &w).map(|c| c.total()),
                )
            })
            .collect();
        out.line(format!("== SR = {sr}: total seconds as ‖R‖ = ‖S‖ scales =="));
        out.table(&cols, &rows);
        let growth = |key| num(member(&rows[3], key)) / num(member(&rows[1], key));
        out.line(format!(
            "   growth 1x -> 4x:  MV {:.1}x   JI {:.1}x   HH {:.1}x\n",
            growth("mv_secs"),
            growth("ji_secs"),
            growth("hh_secs")
        ));
        sweeps.push(Json::obj().set("sr", sr).set("rows", rows));
    }
    out.reading = &[
        "reading: the join index absorbs the size increase at every selectivity —",
        "fastest at moderate SR, where its R/S random access saturates — while MV",
        "(it reads V) and HH (it always moves R+S) grow in proportion. At high SR",
        "the caches dwarf HH at every size.",
    ];
    Ok(json.set("sweeps", sweeps))
}
