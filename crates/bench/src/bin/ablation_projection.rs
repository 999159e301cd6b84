//! Ablation: projectivity of the join (§5 future work, implemented).
//!
//! The paper: "the cost equations described in the paper need to be
//! augmented to account for the projectivity of a join" — because the
//! materialized view's dominant cost is reading `F·|V|` pages, and
//! projection shrinks `T_V` directly. This bin measures the engine: the
//! same view maintained and queried with progressively narrower
//! projections, plus a selective view demonstrating the irrelevant-update
//! optimization.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin ablation_projection`

use trijoin::{Database, JoinStrategy, Mutation, SystemParams, WorkloadSpec};
use trijoin_bench::emit_json;
use trijoin_common::{Json, Result, ViewTuple};
use trijoin_exec::{MaterializedView, Predicate, StoredRelation, ViewDef};

fn main() {
    let params = SystemParams { mem_pages: 80, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec::engine_scale(0.02, 0.06, 0.1, 91);
    let gen = spec.generate();

    println!("== Projection: query cost vs view width (engine, measured) ==");
    println!("{:>22} {:>10} {:>12} {:>14}", "projection", "T_V bytes", "view pages", "query secs");
    let mut projection_rows = Vec::new();
    for (label, def) in [
        ("full view", ViewDef::full()),
        ("keep 64+64 B", ViewDef { r_project: Some(64), s_project: Some(64), ..ViewDef::full() }),
        ("keep 16+16 B", ViewDef { r_project: Some(16), s_project: Some(16), ..ViewDef::full() }),
        (
            "pairs only (0+0 B)",
            ViewDef { r_project: Some(0), s_project: Some(0), ..ViewDef::full() },
        ),
    ] {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut view = MaterializedView::build_with(
            db.disk(),
            db.params(),
            db.cost(),
            db.r(),
            db.s(),
            def.clone(),
        )
        .unwrap();
        let updates = gen.update_stream().take(gen.updates_per_epoch() as usize);
        let (cost, _) = db.run_epoch(&mut [&mut view], updates).unwrap().remove(0);
        let query_secs = cost.query.time_secs(db.params());
        println!(
            "{:>22} {:>10} {:>12} {:>14.2}",
            label,
            def.view_tuple_bytes(200, 200),
            view.view_pages(),
            query_secs
        );
        projection_rows.push(
            Json::obj()
                .set("projection", label)
                .set("view_tuple_bytes", def.view_tuple_bytes(200, 200))
                .set("view_pages", view.view_pages())
                .set("query_secs", query_secs),
        );
    }

    println!("\n== Selection: irrelevant updates cost the view nothing ==");
    // View over only a quarter of the key groups; updates that never touch
    // it are filtered at log time.
    let groups = gen.groups as u64;
    let def = ViewDef { r_pred: Predicate::KeyRange { lo: 0, hi: groups / 4 }, ..ViewDef::full() };
    let mut selection_rows = Vec::new();
    for (label, use_selection) in [("full view", false), ("quarter-selection view", true)] {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let d = if use_selection { def.clone() } else { ViewDef::full() };
        let mut view =
            MaterializedView::build_with(db.disk(), db.params(), db.cost(), db.r(), db.s(), d)
                .unwrap();
        let mut logged = Logged { view: &mut view, at_query: 0 };
        let updates = gen.update_stream().take(gen.updates_per_epoch() as usize);
        let (cost, answer) = db.run_epoch(&mut [&mut logged], updates).unwrap().remove(0);
        let (logged, query, n) = (logged.at_query, cost.query, answer.len() as u64);
        println!(
            "  {:<24} logged {:>5} of {} updates; query {:>8.2} s; {} tuples",
            label,
            logged,
            gen.updates_per_epoch(),
            query.time_secs(db.params()),
            n
        );
        selection_rows.push(
            Json::obj()
                .set("view", label)
                .set("logged_updates", logged)
                .set("total_updates", gen.updates_per_epoch())
                .set("query_secs", query.time_secs(db.params()))
                .set("result_tuples", n),
        );
    }
    let json = Json::obj()
        .set("figure", "ablation_projection")
        .set("projection_rows", projection_rows)
        .set("selection_rows", selection_rows);
    emit_json("ablation_projection", &json);
}

/// A view that remembers how many updates it had logged when its query
/// came: the count the query then folds away.
struct Logged<'a> {
    view: &'a mut MaterializedView,
    at_query: u64,
}

impl JoinStrategy for Logged<'_> {
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
