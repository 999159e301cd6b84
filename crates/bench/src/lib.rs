//! Every committed table and figure as one table, [`figures`], which the
//! `figures` binary runs (see DESIGN.md's experiment index).
//!
//! Each entry sets its values once, as members of its JSON rows; its text
//! is a view of them, a list of columns naming the member each prints and
//! how. The entry writes `results/<name>.txt` and `results/<json>.json`.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin figures [-- <name>...]`

mod engine;
mod model;

use std::path::{Path, PathBuf};

use trijoin_common::{Json, SystemParams};
use trijoin_model::regions::ascii_map;
use trijoin_model::{Method, RegionCell};

/// One committed figure: how it renders and where its files go.
pub struct Figure {
    /// Its argument to `figures`, and its text file `results/<name>.txt`.
    pub name: &'static str,
    /// Its JSON file, `results/<json>.json`.
    json: &'static str,
    /// Renders the text, and completes the JSON it is handed (which names
    /// the figure).
    body: fn(&mut Rendered, Json) -> trijoin_common::Result<Json>,
}

/// What a figure rendered.
pub struct Rendered {
    /// The contents of `results/<name>.txt`.
    pub text: String,
    /// The contents of `results/<json>.json`.
    json: String,
    /// Whether every paper-shape check held.
    pub ok: bool,
    /// The lines below the JSON file's line.
    reading: &'static [&'static str],
}

/// Every figure: the model's, then the engine's.
pub fn figures() -> impl Iterator<Item = &'static Figure> {
    model::FIGURES.iter().chain(engine::FIGURES)
}

impl Figure {
    /// Render the figure's text and JSON.
    fn render(&self) -> trijoin_common::Result<Rendered> {
        let mut out = Rendered { text: String::new(), json: String::new(), ok: true, reading: &[] };
        let json = (self.body)(&mut out, Json::obj().set("figure", self.name))?;
        out.line(format!("\njson: results/{}.json", self.json));
        for line in out.reading {
            out.line(line);
        }
        out.json = json.pretty();
        Ok(out)
    }

    /// Render the figure and write its two files. A failed paper-shape
    /// check still writes them: it shows in [`Rendered::ok`].
    pub fn write(&self) -> Result<Rendered, String> {
        let rendered = self.render().map_err(|e| format!("{}: {e}", self.name))?;
        write_file(&results_dir().join(format!("{}.txt", self.name)), &rendered.text)?;
        write_file(&results_dir().join(format!("{}.json", self.json)), &rendered.json)?;
        Ok(rendered)
    }
}

/// `results/` at the workspace root, wherever the binary runs from.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Write one results file; the error names its path.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("could not write {}: {e}", path.display()))
}

impl Rendered {
    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// A table: the columns' heads, then each row's members.
    fn table(&mut self, cols: &[Col], rows: &[Json]) {
        self.line(cols.iter().enumerate().map(|(i, c)| c.pad(i, c.head, "")).collect::<String>());
        self.rows(cols, rows);
    }

    /// A table's rows without its heads.
    fn rows(&mut self, cols: &[Col], rows: &[Json]) {
        for row in rows {
            self.line(cols.iter().enumerate().map(|(i, c)| c.cell(i, row)).collect::<String>());
        }
    }

    /// The paper-shape check block, one PASS or FAIL line per check; a
    /// failed check fails the figure. Returns the checks as JSON.
    fn checks(&mut self, checks: &[(&str, bool)]) -> Json {
        self.line("\n== Paper-shape checks ==");
        for &(name, pass) in checks {
            self.line(format!("  [{}] {name}", if pass { "PASS" } else { "FAIL" }));
            self.ok &= pass;
        }
        checks
            .iter()
            .map(|&(name, pass)| Json::obj().set("name", name).set("pass", pass))
            .collect::<Vec<_>>()
            .into()
    }
}

/// One column of a figure's table: the row member it prints, and how.
#[derive(Clone, Copy)]
struct Col {
    /// The row's [`member`] it prints.
    key: &'static str,
    head: &'static str,
    width: usize,
    show: Show,
    /// What separates the column from the one before it.
    sep: &'static str,
    /// Printed right after the value, inside the column's width.
    unit: &'static str,
    left: bool,
}

#[derive(Clone, Copy)]
enum Show {
    /// As `Display` prints it.
    Plain,
    /// With this many decimals.
    Fixed(usize),
    /// Through [`axis`], or this text for a `null`.
    Axis(&'static str),
}

impl Col {
    const fn show(key: &'static str, head: &'static str, width: usize) -> Col {
        Col { key, head, width, show: Show::Plain, sep: " ", unit: "", left: false }
    }

    const fn fixed(key: &'static str, head: &'static str, width: usize, decimals: usize) -> Col {
        Col { show: Show::Fixed(decimals), ..Col::show(key, head, width) }
    }

    const fn axis(key: &'static str, head: &'static str, width: usize, null: &'static str) -> Col {
        Col { show: Show::Axis(null), ..Col::show(key, head, width) }
    }

    const fn after(self, sep: &'static str) -> Col {
        Col { sep, ..self }
    }

    const fn unit(self, unit: &'static str) -> Col {
        Col { unit, ..self }
    }

    const fn left(self) -> Col {
        Col { left: true, ..self }
    }

    fn cell(&self, i: usize, row: &Json) -> String {
        let text = match (self.show, member(row, self.key)) {
            (Show::Axis(null), Json::Null) => null.to_string(),
            (Show::Axis(_), v) => axis(num(v)),
            (Show::Fixed(decimals), v) => format!("{:.decimals$}", num(v)),
            (Show::Plain, Json::Str(s)) => s.clone(),
            (Show::Plain, v) => num(v).to_string(),
        };
        self.pad(i, &text, self.unit)
    }

    /// `text` and `unit` padded to the column's width, after its separator
    /// unless it is the line's first column.
    fn pad(&self, i: usize, text: &str, unit: &str) -> String {
        let sep = if i == 0 { "" } else { self.sep };
        let width = self.width.saturating_sub(unit.chars().count());
        if self.left {
            format!("{sep}{text:<width$}{unit}")
        } else {
            format!("{sep}{text:>width$}{unit}")
        }
    }
}

/// The member `key` of `row`; a nested one as `outer.inner`.
fn member<'a>(row: &'a Json, key: &str) -> &'a Json {
    key.split('.').try_fold(row, |v, k| v.get(k)).unwrap_or_else(|| panic!("no member {key}"))
}

fn num(v: &Json) -> f64 {
    v.as_f64().unwrap_or_else(|| panic!("not a number: {}", v.dump()))
}

/// The members holding the three methods' seconds, in [`Method::all`] order.
const SECS: [&str; 3] = ["mv_secs", "ji_secs", "hh_secs"];

/// Set the three methods' seconds, in [`Method::all`] order.
fn secs(row: Json, secs: impl IntoIterator<Item = f64>) -> Json {
    SECS.into_iter().zip(secs).fold(row, |row, (key, s)| row.set(key, s))
}

/// The columns of [`secs`].
fn secs_cols(heads: [&'static str; 3], width: usize, decimals: usize) -> [Col; 3] {
    [0, 1, 2].map(|i| Col::fixed(SECS[i], heads[i], width, decimals))
}

/// Where a region-map row's MV band starts and where its HH band does
/// (`null` when absent), at `y` under `y_key`.
fn boundary_row(y_key: &str, y: f64, row: &[RegionCell]) -> Json {
    let (mv, hh) = row_boundaries(row);
    let sr = |b: Option<f64>| b.map_or(Json::Null, Json::from);
    Json::obj().set(y_key, y).set("mv_from_sr", sr(mv)).set("hh_from_sr", sr(hh))
}

/// Figures 4 and 6 below their titles: the region map with its SR axis and
/// legend, and each `row_name` row's boundaries, under the y column `y`.
/// Returns the boundary rows.
fn region_map(
    out: &mut Rendered,
    row_name: &str,
    y: Col,
    cells: &[RegionCell],
    sr_steps: usize,
) -> Vec<Json> {
    out.text.push_str(&ascii_map(cells, sr_steps));
    out.line(format!("            {}", "-".repeat(sr_steps)));
    out.line(format!("             SR: 0.001 {:>width$}", "1.0", width = sr_steps - 7));
    out.line("\nlegend: J = join index, M = materialized view, H = hybrid-hash join");
    out.line(format!("\n== Region boundaries per {row_name} row =="));
    let rows: Vec<Json> =
        cells.chunks(sr_steps).map(|row| boundary_row(y.key, row[0].y, row)).collect();
    let mv = Col::axis("mv_from_sr", "JI->MV at SR", 12, "(no MV)").after("  ");
    let hh = Col::axis("hh_from_sr", "->HH at SR", 12, "-").after("  ");
    out.table(&[y, mv, hh], &rows);
    rows
}

/// The boundary columns (first MV column, first HH column) of one
/// region-map row; `None` when a band is absent.
fn row_boundaries(row: &[RegionCell]) -> (Option<f64>, Option<f64>) {
    let first_mv = row.iter().find(|c| c.winner == Method::MaterializedView).map(|c| c.sr);
    let first_hh = row.iter().find(|c| c.winner == Method::HybridHash).map(|c| c.sr);
    (first_mv, first_hh)
}

/// The paper's Table 7 configuration.
fn paper_params() -> SystemParams {
    SystemParams::paper_defaults()
}

/// A compact `x.xxx` / `x.xxxx` formatter for axis values.
fn axis(v: f64) -> String {
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

    #[test]
    fn a_results_file_that_cannot_be_written_is_an_err() {
        // A regular file cannot be a directory.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml").join("x.json");
        let err = write_file(&path, "{}").unwrap_err();
        assert!(err.contains("Cargo.toml/x.json"), "{err}");
    }

    /// A model change that moves a committed figure fails here, not only
    /// in ci.sh's results stage.
    #[test]
    fn model_figures_reproduce_their_committed_results() {
        let committed = |file: String| std::fs::read_to_string(results_dir().join(file)).unwrap();
        for figure in model::FIGURES {
            let rendered = figure.render().unwrap();
            assert!(rendered.ok, "{}: a paper-shape check failed", figure.name);
            let txt = format!("{}.txt", figure.name);
            assert_eq!(rendered.text, committed(txt.clone()), "results/{txt} moved");
            let json = format!("{}.json", figure.json);
            assert_eq!(rendered.json, committed(json.clone()), "results/{json} moved");
        }
    }
}
