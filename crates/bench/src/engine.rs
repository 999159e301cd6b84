//! The figures that run the engine: each strategy runs for real against
//! the simulated disk, and every full join it answers is checked against
//! the oracle (`ablation_projection`'s projected views are not).
//!
//! Run one with: `cargo run --release -p trijoin-bench --bin figures -- <name>`

use trijoin::{
    CachedStrategy, Database, Experiment, Fig5Breakdown, JoinStrategy, Method, Mutation, OpCounts,
    SystemParams, WorkloadSpec,
};
use trijoin_common::{Json, Result, ViewTuple};
use trijoin_exec::hybridhash::first_pass_fraction;
use trijoin_exec::{oracle, MaterializedView, Predicate, StoredRelation, ViewDef};
use trijoin_model::{all_costs, cheapest_of, cost_of, mv, Workload};

use crate::{paper_params, secs, secs_cols};
use crate::{Col, Figure, Rendered};

/// The engine's figures, in the order `figures` runs them.
pub const FIGURES: &[Figure] = &[
    Figure { name: "fig5_engine", json: "fig5_breakdown", body: fig5_engine },
    Figure { name: "paper_scale", json: "paper_scale", body: paper_scale },
    Figure { name: "ablation_grace", json: "ablation_grace", body: ablation_grace },
    Figure { name: "ablation_onthefly", json: "ablation_onthefly", body: ablation_onthefly },
    Figure { name: "ablation_pra", json: "ablation_pra", body: ablation_pra },
    Figure { name: "ablation_projection", json: "ablation_projection", body: ablation_projection },
    Figure { name: "ablation_skew", json: "ablation_skew", body: ablation_skew },
    Figure { name: "settle", json: "settle", body: settle },
];

/// The engine figures' memory: 80 pages, for 4000-tuple relations.
fn engine_params() -> SystemParams {
    SystemParams { mem_pages: 80, ..paper_params() }
}

/// Engine-side Figure 5: the white/dark decomposition *measured* from the
/// engine's span tree, next to the model's analytical split.
///
/// White = non-update-related file cost of the basic algorithm. Engine
/// mapping (see [`trijoin::breakdown`]): MV's `mv.scan_view`
/// (+`mv.write_view` is update-driven → dark); JI's `ji.read_index` +
/// `ji.fetch_r` + `ji.fetch_s` I/O; HH's entire query I/O. Dark =
/// everything else the strategy charges (logging, diff merging, insert
/// joining, write-back, CPU). The split is exact on integer op counts:
/// white + dark == the strategy's total, its logging plus its query. The
/// base relation's own maintenance (apply-log spills and the settle's
/// sweep) is the same for every method, and the model prices none of it:
/// it is its own column, outside the bar.
///
/// Run at a 50×-scaled workload; the model is priced at the *measured*
/// workload so the comparison is apples-to-apples. Writes
/// `results/fig5_breakdown.json` next to the text table.
fn fig5_engine(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = engine_params();
    let mut rows = Vec::new();
    for sr in [0.002, 0.01, 0.05] {
        let spec = WorkloadSpec::engine_scale(sr, 0.06, 0.1, 55);
        let report = Experiment::new(&params, spec.generate()).run_epoch()?;
        for o in report.outcomes {
            let b = Fig5Breakdown::measure(o.method, &o.ledger, o.cost.strategy());
            let model = cost_of(&params, &report.workload, o.method);
            rows.push(
                b.to_json(&params)
                    .set("sr", sr)
                    .set("base_secs", o.cost.base.time_secs(&params))
                    .set("model_total_secs", model.total())
                    .set("model_dark_pct", 100.0 * model.update_and_internal() / model.total()),
            );
        }
    }
    out.line("== Engine-measured cost decomposition (6% activity, 4000-tuple scale) ==");
    let cols = [
        Col::show("sr", "SR", 7),
        Col::show("method", "method", 18).left(),
        Col::fixed("total_secs", "total s", 10, 2),
        Col::fixed("white_secs", "white s", 10, 2),
        Col::fixed("dark_pct", "dark%", 7, 1).unit("%"),
        Col::fixed("base_secs", "base s", 8, 2),
        Col::fixed("model_total_secs", "model tot", 10, 1).after("   "),
        Col::fixed("model_dark_pct", "dark%", 7, 1).unit("%"),
    ];
    out.table(&cols, &rows);
    out.reading = &[
        "",
        "reading: the engine's measured dark share tracks the model's ordering —",
        "hash join is almost pure base file I/O; the caches' dark share shrinks as",
        "selectivity (and with it the base file work) grows.",
    ];
    Ok(json.set("rows", rows))
}

/// Full Table 7 scale, on the real engine: ‖R‖ = ‖S‖ = 200 000 tuples of
/// 200 bytes, |M| = 1000 pages, SR = 0.01 (the paper's canonical "join is
/// as big as an operand" point), 6% update activity, Pr_A = 0.1 — the
/// exact configuration of Figure 5's middle column.
///
/// Every strategy runs for real against the simulated disk (the base data
/// alone is ~80 MB of pages); measured simulated seconds are printed next
/// to the §3 cost model's predictions.
fn paper_scale(out: &mut Rendered, json: Json) -> Result<Json> {
    let spec = WorkloadSpec {
        r_tuples: 200_000,
        s_tuples: 200_000,
        group_size: 100, // the paper's JS = 100·SR/‖R‖ family
        ..WorkloadSpec::engine_scale(0.01, 0.06, 0.1, 1990)
    };
    let report = Experiment::new(&paper_params(), spec.generate()).run_epoch()?;
    let rows: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            Json::obj()
                .set("method", o.method.label())
                .set("engine_secs", o.engine_secs)
                .set("model_secs", o.model_secs)
                .set("ratio", o.engine_secs / o.model_secs)
                // The query's I/O, the dominant term.
                .set("query_ios", o.cost.query.ios)
                .set("result_tuples", o.tuples)
        })
        .collect();
    out.line("== Paper scale (Figure 5 @ SR = 0.01, 6% activity): engine vs model ==");
    let cols = [
        Col::show("method", "method", 18).left(),
        Col::fixed("engine_secs", "engine secs", 14, 1),
        Col::fixed("model_secs", "model secs", 14, 1),
        Col::fixed("ratio", "ratio", 8, 2),
        Col::show("query_ios", "engine IOs", 12).after("   "),
        Col::show("result_tuples", "result", 12),
    ];
    out.table(&cols, &rows);
    out.reading = &[
        "",
        "(ratios near 1.0 mean the closed-form model prices the real pipeline well;",
        " the engine's B-tree heights, batching and leaf packing are real",
        " implementations, not the paper's idealized two/three-level formulas.)",
    ];
    Ok(json.set("rows", rows))
}

/// Ablation: hybrid-hash vs Grace-hash — what the pass-0 in-memory join
/// buys (§3.4's `q` fraction).
///
/// Runs both variants of the engine on the same workload and compares
/// measured I/O against the model's prediction: Grace writes and re-reads
/// everything (`q = 0`), hybrid skips the fraction `q = |R0|/|R|`.
fn ablation_grace(out: &mut Rendered, json: Json) -> Result<Json> {
    let mut rows = Vec::new();
    for (n, mem) in [(4_000u32, 40usize), (8_000, 60), (8_000, 120), (8_000, 400)] {
        let params = SystemParams { mem_pages: mem, ..paper_params() };
        let spec = WorkloadSpec::engine_scale(0.02, 0.0, 0.1, 17);
        let gen = WorkloadSpec { r_tuples: n, s_tuples: n, ..spec }.generate();
        let mut measured = Vec::new();
        for grace in [false, true] {
            let db = Database::new(&params, gen.r.clone(), gen.s.clone())?;
            let mut strategy = if grace { db.grace_hash() } else { db.hybrid_hash() };
            db.reset_cost();
            let mut got = Vec::new();
            strategy.execute(db.r(), db.s(), &mut |t| got.push(t))?;
            measured.push(db.cost().total().ios);
            oracle::assert_same_join(strategy.name(), got, oracle::join_tuples(&gen.r, &gen.s));
        }
        let q = first_pass_fraction(params.pages_for(u64::from(n), 200), &params);
        rows.push(
            Json::obj()
                .set("tuples", u64::from(n))
                .set("mem_pages", mem)
                .set("hybrid_ios", measured[0])
                .set("grace_ios", measured[1])
                .set("saved_pct", 100.0 * (1.0 - measured[0] as f64 / measured[1] as f64))
                .set("model_q", q),
        );
    }
    out.line("== Hybrid vs Grace hash join (engine, measured) ==");
    let cols = [
        Col::show("tuples", "‖R‖=‖S‖", 10),
        Col::show("mem_pages", "|M|", 8),
        Col::show("hybrid_ios", "hybrid IOs", 12),
        Col::show("grace_ios", "grace IOs", 12),
        Col::fixed("saved_pct", "saved", 10, 1).unit("%"),
        Col::fixed("model_q", "model q", 10, 3),
    ];
    out.table(&cols, &rows);
    out.reading = &[
        "",
        "reading: the hybrid savings track q = (|M|-B)/(F*|R|); with memory close",
        "to F*|R| the second pass nearly vanishes — DeWitt et al.'s core result,",
        "which the paper adopts wholesale for its re-evaluation baseline.",
    ];
    Ok(json.set("rows", rows))
}

/// Ablation: the on-the-fly merge (§3.2's step (3) folded into step (4)).
///
/// The paper performs the view update *while* reading the view for the
/// answer, "thus saving the cost of reading V once". The naive variant
/// updates V in one pass and then re-reads it to answer. The saving is
/// exactly one full view scan — `F·|V|·IO` — which this quantifies across
/// selectivities, in the model and in the engine.
fn ablation_onthefly(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = paper_params();
    let rows: Vec<Json> = [0.001, 0.01, 0.05, 0.1]
        .into_iter()
        .map(|sr| {
            let cost = mv::cost(&params, &Workload::figure4_point(sr, 0.06));
            let (fused, extra_scan) = (cost.total(), cost.term("C3.1")); // one more F·|V|·IO
            Json::obj()
                .set("sr", sr)
                .set("fused_secs", fused)
                .set("naive_secs", fused + extra_scan)
                .set("overhead_pct", 100.0 * extra_scan / fused)
        })
        .collect();
    out.line("== Model: cost of a second view scan (naive two-pass maintenance) ==");
    let cols = [
        Col::show("sr", "SR", 8),
        Col::fixed("fused_secs", "on-the-fly", 14, 1),
        Col::fixed("naive_secs", "naive 2-pass", 14, 1),
        Col::fixed("overhead_pct", "overhead", 10, 1).unit("%"),
    ];
    out.table(&cols, &rows);

    out.line("\n== Engine: measured (4000-tuple scale, 6% activity) ==");
    let gen = WorkloadSpec::engine_scale(0.02, 0.06, 0.1, 23).generate();
    let mut db = Database::new(&engine_params(), gen.r.clone(), gen.s.clone())?;
    let mut view = db.materialized_view()?;
    let mut stream = gen.update_stream();
    let updates = stream.by_ref().take(gen.updates_per_epoch() as usize);
    let (cost, answer) = db.run_epoch(&mut [&mut view], updates)?.remove(0);
    let (fused_ios, n) = (cost.query.ios, answer.len() as u64);
    oracle::assert_same_join(view.name(), answer, oracle::join_tuples(stream.current(), &gen.s));
    let scan_ios = view.view_pages(); // one extra full read of V
    out.line(format!("  fused query: {fused_ios} IOs for {n} tuples"));
    out.line(format!(
        "  naive 2-pass would add {} IOs (+{:.1}%) — the read of V the paper saves",
        scan_ios,
        100.0 * scan_ios as f64 / fused_ios as f64
    ));
    let engine = Json::obj()
        .set("fused_ios", fused_ios)
        .set("extra_scan_ios", scan_ios)
        .set("result_tuples", n);
    Ok(json.set("model_rows", rows).set("engine", engine))
}

/// Ablation: the `Pr_A` filter — the join index's structural advantage.
///
/// §4: "The join index method gains a competitive advantage from only
/// having to process a percentage of the updates. Therefore ... its area
/// of superiority varies inversely with the probability of an update
/// altering the join attribute."
///
/// Sweeps Pr_A at a fixed (SR, activity) point and reports each method's
/// total plus where the JI→MV boundary sits, in both the model and the
/// engine.
fn ablation_pra(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = paper_params();
    let model_rows: Vec<Json> = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|pra| {
            let mut w = Workload::figure4_point(0.01, 0.2);
            w.pra = pra;
            let priced = all_costs(&params, &w).map(|c| (c.method, c.total()));
            let winner = cheapest_of(priced).0.label();
            secs(Json::obj().set("pra", pra), priced.map(|(_, t)| t)).set("winner", winner)
        })
        .collect();
    let mut engine_rows = Vec::new();
    for pra in [0.0, 0.1, 0.5, 1.0] {
        let spec = WorkloadSpec::engine_scale(0.01, 0.2, pra, 31);
        let report = Experiment::new(&engine_params(), spec.generate()).run_epoch()?;
        let t = report.outcomes.iter().map(|o| o.engine_secs);
        let winner = report.engine_winner().label();
        engine_rows.push(secs(Json::obj().set("pra", pra), t).set("winner", winner));
    }
    let winner = Col::show("winner", "winner", 0).after("  ");
    let pra = Col::show("pra", "Pr_A", 6);
    let [mv, ji, hh] = secs_cols(["MV secs", "JI secs", "HH secs"], 12, 1);
    out.line("== Model: Pr_A sweep at SR = 0.01, activity = 20% (paper scale) ==");
    out.table(&[pra, mv, ji, hh, winner], &model_rows);
    out.line("\n== Engine: same sweep, scaled down 50x (measured simulated seconds) ==");
    let [mv, ji, hh] = secs_cols(["MV secs", "JI secs", "HH secs"], 12, 2);
    out.table(&[pra, mv, ji, hh, winner], &engine_rows);
    out.reading = &[
        "",
        "reading: MV is Pr_A-invariant; JI's cost rises with Pr_A toward MV-like",
        "update processing, which is exactly why its region shrinks as Pr_A grows.",
    ];
    Ok(json.set("model_rows", model_rows).set("engine_rows", engine_rows))
}

/// Ablation: projectivity of the join (§5 future work, implemented).
///
/// The paper: "the cost equations described in the paper need to be
/// augmented to account for the projectivity of a join" — because the
/// materialized view's dominant cost is reading `F·|V|` pages, and
/// projection shrinks `T_V` directly. This measures the engine: the same
/// view maintained and queried with progressively narrower projections,
/// plus a selective view demonstrating the irrelevant-update optimization.
fn ablation_projection(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = engine_params();
    let gen = WorkloadSpec::engine_scale(0.02, 0.06, 0.1, 91).generate();
    // One epoch of `gen`'s updates through a view defined by `def`.
    let epoch = |def: ViewDef| -> Result<_> {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone())?;
        let view =
            MaterializedView::build_with(db.disk(), db.params(), db.cost(), db.r(), db.s(), def)?;
        let mut logged = Logged { view, at_query: 0 };
        let updates = gen.update_stream().take(gen.updates_per_epoch() as usize);
        let (cost, answer) = db.run_epoch(&mut [&mut logged], updates)?.remove(0);
        Ok((logged, cost.query.time_secs(&params), answer.len() as u64))
    };

    let mut projection_rows = Vec::new();
    for (label, keep) in [
        ("full view", None),
        ("keep 64+64 B", Some(64)),
        ("keep 16+16 B", Some(16)),
        ("pairs only (0+0 B)", Some(0)),
    ] {
        let def = ViewDef { r_project: keep, s_project: keep, ..ViewDef::full() };
        let bytes = def.view_tuple_bytes(200, 200);
        let (logged, query_secs, _) = epoch(def)?;
        projection_rows.push(
            Json::obj()
                .set("projection", label)
                .set("view_tuple_bytes", bytes)
                .set("view_pages", logged.view.view_pages())
                .set("query_secs", query_secs),
        );
    }
    out.line("== Projection: query cost vs view width (engine, measured) ==");
    let cols = [
        Col::show("projection", "projection", 22),
        Col::show("view_tuple_bytes", "T_V bytes", 10),
        Col::show("view_pages", "view pages", 12),
        Col::fixed("query_secs", "query secs", 14, 2),
    ];
    out.table(&cols, &projection_rows);

    out.line("\n== Selection: irrelevant updates cost the view nothing ==");
    // A view over only a quarter of the key groups; updates that never
    // touch it are filtered at log time.
    let quarter = Predicate::KeyRange { lo: 0, hi: gen.groups as u64 / 4 };
    let mut selection_rows = Vec::new();
    for (label, def) in [
        ("full view", ViewDef::full()),
        ("quarter-selection view", ViewDef { r_pred: quarter, ..ViewDef::full() }),
    ] {
        let (logged, query_secs, n) = epoch(def)?;
        out.line(format!(
            "  {:<24} logged {:>5} of {} updates; query {:>8.2} s; {} tuples",
            label,
            logged.at_query,
            gen.updates_per_epoch(),
            query_secs,
            n
        ));
        selection_rows.push(
            Json::obj()
                .set("view", label)
                .set("logged_updates", logged.at_query)
                .set("total_updates", gen.updates_per_epoch())
                .set("query_secs", query_secs)
                .set("result_tuples", n),
        );
    }
    Ok(json.set("projection_rows", projection_rows).set("selection_rows", selection_rows))
}

/// A view that remembers how many updates it had logged when its query
/// came: the count the query then folds away.
struct Logged {
    view: MaterializedView,
    at_query: u64,
}

impl JoinStrategy for Logged {
    fn name(&self) -> &'static str {
        self.view.name()
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.view.on_mutation(m)
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        self.at_query = self.view.pending_updates();
        self.view.execute(r, s, sink)
    }
}

/// Ablation: join-key skew (beyond the paper — its analysis assumes
/// uniform hashing and uniform partner counts).
///
/// The matched mass is redistributed over the same group count by Zipf
/// weights (θ = 0 is the paper's uniform family). Skew concentrates join
/// pairs in hot groups, which stresses each method differently: the view
/// grows quadratically in the hot group (|V| ∝ Σ zᵢ²) and pays for it, hot
/// hash-join partitions overflow memory and recurse at a flat cost, and the
/// join index, a B⁺-tree on `(r, s)`, gets *cheaper* with skew here — a
/// behaviour the model, which has no skew input, does not price yet.
///
/// A method's seconds are its logging plus its query; the base relation's
/// own maintenance, the same for all three, is the last column.
fn ablation_skew(out: &mut Rendered, json: Json) -> Result<Json> {
    let params = SystemParams { mem_pages: 60, ..paper_params() };
    let spec = WorkloadSpec { group_size: 10, ..WorkloadSpec::engine_scale(0.05, 0.06, 0.1, 1234) };
    let mut rows = Vec::new();
    for theta in [0.0, 0.5, 1.0, 1.5] {
        let exp = Experiment::new(&params, spec.generate_skewed(theta));
        // Hot group size = partners of the most frequent key.
        let mut counts = std::collections::HashMap::new();
        for t in &exp.generated().r {
            *counts.entry(t.key).or_insert(0u64) += 1;
        }
        let hot = counts.into_iter().filter(|&(k, _)| k < 1 << 40).map(|(_, c)| c).max();
        let report = exp.run_epoch()?;
        let m = &report.workload;
        let base: Vec<f64> =
            report.outcomes.iter().map(|o| o.cost.base.time_secs(&params)).collect();
        // The relation's own maintenance does not depend on who caches.
        assert!(base.iter().all(|&b| b == base[0]), "base maintenance differs: {base:?}");
        let t = report.outcomes.iter().map(|o| o.engine_secs);
        let row = Json::obj()
            .set("theta", theta)
            .set("join_tuples", (m.js * m.r_tuples * m.s_tuples).round())
            .set("hot_group", hot.unwrap_or(0));
        rows.push(secs(row, t).set("base_secs", base[0]));
    }
    out.line("== Key skew: engine cost and correctness per strategy ==");
    let [mv, ji, hh] = secs_cols(["MV secs", "JI secs", "HH secs"], 10, 2);
    let cols = [
        Col::show("theta", "theta", 6),
        Col::show("join_tuples", "‖V‖", 10),
        Col::show("hot_group", "hot group", 10),
        mv.after(" | "),
        ji,
        hh,
        Col::fixed("base_secs", "base secs", 10, 2).after(" | "),
    ];
    out.table(&cols, &rows);
    out.reading = &[
        "",
        "reading: with SR fixed, skew grows the join result (Σ z² effect), so the",
        "view pays for the bigger V while hash join only pays for the extra output;",
        "the join index gets cheaper with skew, which no term of the model prices",
        "yet. Every result above was verified against the oracle.",
    ];
    Ok(json.set("rows", rows))
}

/// `R`'s upkeep at the repo benchmark's cycle shape as `|M|` shrinks: ‖R‖ =
/// ‖S‖ = 40 000 tuples of 200 B, SR = 0.01, groups of 20, Pr_A = 0.1, 6 %
/// of `R` updated and one full join a round, for each strategy at `|M|` =
/// 100, 150 and 200 pages. A round's simulated seconds split into the
/// strategy's (its logging and its query, reading `R`'s log through
/// included) and `base` (`R`'s spills and settles); then the settles per
/// hundred rounds, and the rent a round the strategy's reads paid `R`'s log
/// for the `|M|` their held runs took (`base.read_through.rent`). The log
/// holds runs up to half of `R`'s leaf pages, and the join index and hybrid
/// hash lose to its held runs the memory they size their passes and
/// partitions by: this is where a bound too long for a small `|M|` shows.
/// Every answer is checked against the oracle.
fn settle(out: &mut Rendered, json: Json) -> Result<Json> {
    const ROUNDS: u64 = 100;
    let spec = WorkloadSpec {
        r_tuples: 40_000,
        s_tuples: 40_000,
        group_size: 20,
        ..WorkloadSpec::engine_scale(0.01, 0.06, 0.1, 1990)
    };
    let gen = spec.generate();
    let (mut rows, mut view_rent) = (Vec::new(), 0);
    for mem_pages in [100, 150, 200] {
        let params = SystemParams { mem_pages, ..paper_params() };
        for method in Method::all() {
            let mut db = Database::new(&params, gen.r.clone(), gen.s.clone())?;
            let mut strategy = CachedStrategy::build(&db, method)?;
            db.reset_observability();
            let mut stream = gen.update_stream();
            for round in 0..ROUNDS {
                for _ in 0..gen.updates_per_epoch() {
                    let m = Mutation::Update(stream.next_update());
                    db.mutate(false, &m, |_| strategy.as_dyn().on_mutation(&m))?;
                }
                let got = db.query(strategy.as_dyn())?;
                let want = oracle::join_tuples(stream.current(), &gen.s);
                oracle::assert_same_join(
                    &format!("{method} |M| {mem_pages} round {round}"),
                    got,
                    want,
                );
            }
            let mut base = OpCounts::default();
            for span in db.cost().span_tree() {
                if span.depth == 0 && matches!(span.name.as_str(), "base.spill" | "base.settle") {
                    base.add(&span.cum_ops);
                }
            }
            let total = db.cost().total();
            let per_round = |ops: &OpCounts| ops.time_secs(&params) / ROUNDS as f64;
            let metrics = db.metrics();
            let rent = metrics.counter("base.read_through.rent");
            if method == Method::MaterializedView {
                view_rent += rent;
            }
            rows.push(
                Json::obj()
                    .set("mem_pages", mem_pages)
                    .set("method", method.label())
                    .set("secs", per_round(&total))
                    .set("strategy_secs", per_round(&total.delta_since(&base)))
                    .set("base_secs", per_round(&base))
                    .set("settles_per_100", metrics.counter("base.settles") * 100 / ROUNDS)
                    .set("rent_pages", rent / ROUNDS),
            );
        }
    }
    out.line("== R's upkeep at the cycle shape (40 000 tuples, 6% activity) by |M| ==");
    let cols = [
        Col::show("mem_pages", "|M|", 5),
        Col::show("method", "method", 18).left(),
        Col::fixed("secs", "s/round", 10, 2),
        Col::fixed("strategy_secs", "strategy", 10, 2),
        Col::fixed("base_secs", "base", 9, 2),
        Col::show("settles_per_100", "settles/100", 13),
        Col::show("rent_pages", "rent/round", 12),
    ];
    out.table(&cols, &rows);
    let checks = out.checks(&[("the view's queries pay no rent", view_rent == 0)]);
    out.reading = &[
        "",
        "reading: the view never reads R, so it pays no rent and its log settles",
        "itself when full; the join index and hybrid hash read the log through and",
        "pay rent for the memory its runs hold, which settles it sooner at small |M|.",
    ];
    Ok(json.set("rows", rows).set("checks", checks))
}
