//! Regenerates the committed tables and figures: the paper's Table 7 and
//! Figures 4–6, their engine-side counterparts and the ablations. Each
//! writes `results/<name>.txt` and its JSON beside it, and prints the text.
//! With no argument every figure is written; with names, only those.
//!
//! Exits non-zero when a file cannot be written, a run fails or a
//! paper-shape check fails (that figure's files are still written).
//!
//! Run with: `cargo run --release -p trijoin-bench --bin figures [-- <name>...]`

use std::process::ExitCode;

use trijoin_bench::figures;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = names.iter().find(|&n| !figures().any(|f| f.name == n)) {
        let known: Vec<&str> = figures().map(|f| f.name).collect();
        eprintln!("unknown figure {name}; the figures are: {}", known.join(" "));
        return ExitCode::from(2);
    }
    let mut failed = false;
    for figure in figures().filter(|f| names.is_empty() || names.iter().any(|n| n == f.name)) {
        match figure.write() {
            Ok(rendered) => {
                print!("{}", rendered.text);
                if !rendered.ok {
                    eprintln!("{}: a paper-shape check failed", figure.name);
                }
                failed |= !rendered.ok;
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    ExitCode::from(u8::from(failed))
}
