//! The repo benchmark: seven fixed-round workloads, universal end-to-end
//! metrics, outside-in layer probes. See `README.md` beside this file and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! benchmark [--trace 1] [--smoke]      # every workload, each in its own process
//! ```
//!
//! Every metric is printed as `workload metric value unit n=<samples>`;
//! the last line of a single-workload run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod cycle;
mod load;
mod probes;
mod run;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use trijoin_common::{BaseTuple, ViewTuple};

use workload::{Sabotage, Scale};

/// Seed the load checksums are pinned at.
pub const DEFAULT_SEED: u64 = 1990;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 10;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Printed after the sample count (the percentile used, a full hash).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric { name, value, unit, n, note: String::new() }
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; `with_n` adds the sample
/// count (trace files only — the result line's shape is fixed).
pub fn metrics_json(metrics: &[Metric], with_n: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let n = if with_n { format!(", \"n\": {}", m.n) } else { String::new() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"{n}}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub scale: Scale,
    pub sabotage: Option<Sabotage>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: workload::FULL,
            sabotage: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => opts.workload = Some(value()?.clone()),
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=60).contains(&opts.seconds) {
                        return Err("--seconds: expected 1..=60".into());
                    }
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                    }
                }
                "--smoke" => opts.scale = workload::SMOKE,
                "--sabotage" => opts.sabotage = Some(Sabotage::parse(value()?)?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }
}

/// Where run artefacts (trace files, the durable workload's store) go:
/// inside the build directory, which the checkout ignores.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|| {
        // Without the variable, use the `target` of the enclosing repo.
        let cwd = std::env::current_dir().unwrap_or_default();
        let root = cwd.ancestors().find(|d| d.join("BENCHMARK.json").is_file());
        root.unwrap_or(&cwd).join("target")
    });
    target.join("benchmark")
}

/// Whether `got` is exactly the join of `r` and `s`: canonicalised and
/// compared with the oracle, tuple for tuple.
pub fn same_join(mut got: Vec<ViewTuple>, r: &[BaseTuple], s: &[BaseTuple]) -> bool {
    let mut want = trijoin_exec::oracle::join_tuples(r, s);
    got.sort_by_key(|v| (v.r_sur, v.s_sur));
    want.sort_by_key(|v| (v.r_sur, v.s_sur));
    got == want
}

/// Run one workload in this process; print its metrics and result line.
fn run_one(name: &str, opts: &Options) -> Result<run::Outcome, String> {
    let def = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::ALL.iter().map(|d| d.name).collect();
        format!("unknown workload {name:?}; expected one of {}", names.join(", "))
    })?;
    let outcome = if opts.trace { run::per_layer(def, opts)? } else { run::end_to_end(def, opts)? };
    // A metric without samples was not measured on this workload: the
    // result line must carry its name, the listing leaves it out.
    for m in outcome.metrics.iter().chain(&outcome.listed_only).filter(|m| m.n > 0) {
        println!("{name} {} {} {} n={} {}", m.name, m.value, m.unit, m.n, m.note);
    }
    println!(
        "{name} error_rate {} ratio n={}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics, false)
    );
    Ok(outcome)
}

/// Run every workload, each in a process of its own so none inherits
/// another's heap, page cache or peak RSS.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for def in &workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", def.name])
            .args(args)
            .status()
            .map_err(|e| format!("spawn {}: {e}", def.name))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// The exit code for `args`: 0 when every check passed, 1 when a call,
/// a verification or a workload guard failed (`failed > 0`), 2 when the
/// arguments or the set-up were at fault.
fn exit_code(args: &[String]) -> u8 {
    let result = Options::parse(args).and_then(|opts| match &opts.workload {
        Some(name) => run_one(name, &opts).map(|outcome| outcome.failed == 0),
        None => run_all(args),
    });
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(exit_code(&args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::Json;

    fn args(line: &str) -> Vec<String> {
        line.split(' ').map(String::from).collect()
    }

    fn smoke(workload: &str, trace: bool) -> run::Outcome {
        let opts = Options { trace, scale: workload::SMOKE, ..Options::parse(&[]).unwrap() };
        run_one(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn names(manifest: &Json, key: &str) -> Vec<String> {
        let list = manifest.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key}"));
        list.iter().map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    }

    fn manifest() -> Json {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = dir
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest directory");
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap()
    }

    /// `--smoke` over every workload, untraced and traced: the names in
    /// `BENCHMARK.json` and the names the program emits are the same set,
    /// nothing fails, the adaptive server migrates and the durable one
    /// recovers to the oracle state.
    #[test]
    fn smoke_run_emits_exactly_the_manifest() {
        let manifest = manifest();
        let valid = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut workloads = names(&manifest, "workloads");
        let defined: Vec<String> = workload::ALL.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(workloads, defined);
        workloads.sort();
        workloads.dedup();
        assert_eq!(workloads.len(), defined.len(), "workload names are unique");

        for def in &workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = smoke(def.name, trace);
                assert_eq!(outcome.failed, 0, "{} trace={trace}", def.name);
                assert!(outcome.attempted >= 1);
                let emitted: Vec<String> =
                    outcome.metrics.iter().map(|m| m.name.to_string()).collect();
                assert!(emitted.iter().all(|n| valid(n)), "{emitted:?}");
                assert_eq!(emitted, names(&manifest, key), "{} {key}", def.name);
                let ungated = names(&manifest, "per_layer");
                for m in &outcome.listed_only {
                    assert!(ungated.iter().any(|n| n == m.name), "{} is in no list", m.name);
                }
                let value = |name: &str| {
                    outcome.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap()
                };
                if !trace {
                    assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{:?}", outcome.metrics);
                } else if def.name == "serve_adaptive" {
                    assert!(value("serve.migrations") >= 1.0, "adaptive server never migrated");
                } else if def.name == "serve_durable" {
                    assert!(value("durable.recovery_s") > 0.0, "no recovery was timed");
                    assert!(value("durable.wal_bytes_per_update") > 0.0);
                }
            }
        }
    }

    /// Negative check of the verifier: a corrupted answer tuple, and an
    /// acknowledged update the program never received, both end the run
    /// with exit code 1, which only `failed > 0` (`error_rate` > 0) gives.
    #[test]
    fn planted_corruption_fails_the_run() {
        for sabotage in ["answer", "update"] {
            for name in ["mv_cycle", "serve_light"] {
                let line = format!("--workload {name} --smoke --sabotage {sabotage}");
                assert_eq!(exit_code(&args(&line)), 1, "{name}: --sabotage {sabotage} unnoticed");
            }
        }
        assert_eq!(exit_code(&args("--workload mv_cycle --smoke --sabotage nothing")), 2);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let opts = Options::parse(&args("--workload hh_cycle --seed 7 --seconds 3 --trace 1"));
        let opts = opts.unwrap();
        assert_eq!(
            (opts.workload.as_deref(), opts.seed, opts.seconds, opts.trace),
            (Some("hh_cycle"), 7, 3, true)
        );
        assert!(Options::parse(&args("--trace 2")).is_err());
        assert!(Options::parse(&args("--seconds 0")).is_err());
        assert!(Options::parse(&args("--bogus")).is_err());
        assert!(run_one("nope", &Options::parse(&[]).unwrap()).is_err());
    }
}
