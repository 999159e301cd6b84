//! Quickstart: the paper's Section 2 worked example, verbatim.
//!
//! Builds the Student and Project relations of Tables 1 and 2, asks the
//! paper's query
//!
//! ```sql
//! SELECT Title, Supervisor, City, Country, Name, Major
//! FROM   Project, Student
//! WHERE  Country = NativeCountry
//! ```
//!
//! through all three strategies, prints the materialized view (Table 3)
//! and the join index (Table 4), then applies an update and shows the
//! deferred maintenance machinery answering correctly.
//!
//! Run with: `cargo run --example quickstart`

use trijoin::{Database, JoinStrategy, Mutation, SystemParams, Update};
use trijoin_common::codec::{decode_row, encode_row, string_key, Value};
use trijoin_common::{BaseTuple, Surrogate, ViewTuple};
use trijoin_exec::execute_collect;

fn student(sur: u32, name: &str, major: &str, country: &str) -> BaseTuple {
    let payload = encode_row(&[
        Value::Str(name.into()),
        Value::Str(major.into()),
        Value::Str(country.into()),
    ]);
    BaseTuple::with_payload(Surrogate(sur), string_key(country), &payload, 120).unwrap()
}

fn project(sur: u32, title: &str, sup: &str, city: &str, country: &str) -> BaseTuple {
    let payload = encode_row(&[
        Value::Str(title.into()),
        Value::Str(sup.into()),
        Value::Str(city.into()),
        Value::Str(country.into()),
    ]);
    BaseTuple::with_payload(Surrogate(sur), string_key(country), &payload, 120).unwrap()
}

fn print_view_row(v: &ViewTuple) {
    let proj = decode_row(&v.r_payload).unwrap();
    let stud = decode_row(&v.s_payload).unwrap();
    println!(
        "  {:<14} {:<11} {:<7} {:<8} | {:<11} {:<10}",
        proj[0], proj[1], proj[2], proj[3], stud[0], stud[1]
    );
}

fn main() {
    // Table 1 and Table 2.
    let students = vec![
        student(10, "S. Bando", "Music", "USA"),
        student(11, "G. Jetson", "Art", "Great Britain"),
        student(12, "C. Falerno", "History", "Italy"),
        student(13, "L. LaPaz", "Art", "Mexico"),
        student(14, "J. Jones", "English", "USA"),
        student(15, "P. Valens", "Archeology", "Mexico"),
    ];
    let projects = vec![
        project(30, "Deforestation", "N. Smith", "Coba", "Mexico"),
        project(31, "Facade Res.", "E. Ruggeri", "Venice", "Italy"),
        project(33, "Mural Res.", "A. Montez", "Tulum", "Mexico"),
        project(34, "Excavation", "M. Cox", "Lima", "Peru"),
    ];

    let params = SystemParams { page_size: 512, mem_pages: 16, ..SystemParams::paper_defaults() };
    let mut db = Database::new(&params, projects, students).expect("build database");
    let mut mv = db.materialized_view().expect("materialize view");
    let mut ji = db.join_index().expect("build join index");
    let mut hh = db.hybrid_hash();

    println!("== Materialized view for the query (the paper's Table 3) ==");
    println!(
        "  {:<14} {:<11} {:<7} {:<8} | {:<11} {:<10}",
        "Title", "Supervisor", "City", "Country", "Name", "Major"
    );
    let mut view = execute_collect(&mut mv, db.r(), db.s()).unwrap();
    view.sort_by_key(|v| (v.r_sur, v.s_sur));
    for row in &view {
        print_view_row(row);
    }

    println!("\n== Join index relation (the paper's Table 4) ==");
    println!("  Psur | Ssur");
    let mut pairs: Vec<(u32, u32)> = execute_collect(&mut ji, db.r(), db.s())
        .unwrap()
        .iter()
        .map(|v| (v.r_sur.0, v.s_sur.0))
        .collect();
    pairs.sort();
    for (p, s) in &pairs {
        println!("  {p:03}  | {s:03}");
    }

    // Hybrid hash recomputes from scratch and agrees.
    let recompute = execute_collect(&mut hh, db.r(), db.s()).unwrap();
    println!(
        "\nhybrid-hash recomputation: {} tuples (agrees: {})",
        recompute.len(),
        recompute.len() == view.len()
    );

    // Now the archeology department relocates the Excavation dig from Lima
    // to Tulum: Country changes Peru -> Mexico, so two new volunteer
    // matches should appear. The caches only learn of it lazily.
    println!("\n== Update: project 034 'Excavation' moves from Peru to Mexico ==");
    let old = db.r().get(Surrogate(34)).unwrap().unwrap();
    let new_payload = encode_row(&[
        Value::Str("Excavation".into()),
        Value::Str("M. Cox".into()),
        Value::Str("Tulum".into()),
        Value::Str("Mexico".into()),
    ]);
    let new =
        BaseTuple::with_payload(Surrogate(34), string_key("Mexico"), &new_payload, 120).unwrap();
    // `R` admits the update, both caches log it, `R` queues it: the stored
    // relation changes when it next settles — when its log is full, at a
    // commit or report, or for a reader once reading the log through stops
    // paying.
    let upd = Mutation::Update(Update { old, new });
    db.mutate(false, &upd, |_| {
        mv.on_mutation(&upd)?;
        ji.on_mutation(&upd)
    })
    .unwrap();
    db.settle().unwrap();
    println!(
        "deferred: view has {} pending updates, join index {} (Pr_A filter)",
        mv.pending_updates(),
        ji.pending_updates()
    );

    db.reset_cost();
    let mut after = execute_collect(&mut mv, db.r(), db.s()).unwrap();
    let mv_secs = db.cost().elapsed_secs(db.params());
    after.sort_by_key(|v| (v.r_sur, v.s_sur));
    println!("\n== Query again through the view ({} rows now) ==", after.len());
    println!(
        "  {:<14} {:<11} {:<7} {:<8} | {:<11} {:<10}",
        "Title", "Supervisor", "City", "Country", "Name", "Major"
    );
    for row in &after {
        print_view_row(row);
    }
    db.reset_cost();
    let after_ji = execute_collect(&mut ji, db.r(), db.s()).unwrap();
    let ji_secs = db.cost().elapsed_secs(db.params());
    println!(
        "\njoin index agrees: {} rows; simulated 1989 time: view {:.4}s, index {:.4}s",
        after_ji.len(),
        mv_secs,
        ji_secs
    );
}
