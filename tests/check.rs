//! Simulation-harness self-tests: the committed corpus replays clean,
//! and a deliberately planted maintenance bug is caught, minimized to a
//! handful of ops, and round-trips through the JSON repro format.
//!
//! These tests are the harness's own acceptance gate — everything else
//! (`trijoin check`, the CI corpus gate, `trijoin repro`) is a thin CLI
//! wrapper over the same `run_script`/`shrink` calls exercised here.

use std::path::PathBuf;

use trijoin_check::{generate, run_script, shrink, CheckConfig, GenConfig, Sabotage};
use trijoin_common::{Script, ScriptOp, ScriptSpec};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn corpus_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "corpus too small: {paths:?}");
    paths
}

/// Every committed corpus file is exactly what this build would write
/// for the script it parses to — a schema change that alters the
/// serialized form has to re-emit the corpus, visibly.
#[test]
fn corpus_files_round_trip_byte_for_byte() {
    for path in corpus_paths() {
        let text = std::fs::read_to_string(&path).expect("corpus file is readable");
        let script =
            Script::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(script.to_json_string() == text, "{}: re-serializes differently", path.display());
    }
}

/// Every committed corpus script must replay with MV ≡ JI ≡ HH ≡ oracle
/// ≡ sharded-serve at every checkpoint, faults included.
#[test]
fn corpus_scripts_pass() {
    let paths = corpus_paths();

    let mut checkpoints = 0;
    let mut faults = 0;
    let mut crashes = 0;
    let mut shapes_seen: std::collections::BTreeSet<&'static str> = Default::default();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("corpus file is readable");
        let script =
            Script::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Crash ops are inert in memory: crash-bearing scripts replay on
        // the WAL-backed file backend so the recovery cycles really run.
        let mut cfg = CheckConfig::default();
        if script.ops.iter().any(|op| matches!(op, ScriptOp::Crash { .. })) {
            cfg.durable_root = Some(std::env::temp_dir().join(format!(
                "trijoin-corpus-{}-{}",
                std::process::id(),
                script.name
            )));
        }
        let outcome =
            run_script(&script, &cfg).unwrap_or_else(|f| panic!("{}: {f}", path.display()));
        assert!(outcome.checkpoints > 0, "{}: no checkpoints verified", path.display());
        // This seed's crashes fall while the logs hold committed runs: the
        // recoveries reopen them instead of finding them settled.
        if path.ends_with("crash-seed-44.json") {
            assert!(outcome.recovered_queued_ops > 0, "{}: no sealed log reopened", path.display());
        }
        checkpoints += outcome.checkpoints;
        faults += outcome.faults_installed;
        crashes += outcome.crashes;
        // Adaptive scripts are only worth committing if they make the
        // serving layer migrate — at every configured shard count — while
        // the checkpoints stay oracle-green.
        if script.spec.adaptive {
            assert!(outcome.migrations >= 1, "{}: adaptive script never migrated", path.display());
            for (shards, n) in &outcome.migrations_by_server {
                assert!(
                    *n >= 1,
                    "{}: the {shards}-shard adaptive fleet never migrated",
                    path.display()
                );
            }
        }
        if let Some(adv) = &script.spec.adversary {
            shapes_seen.insert(adv.shape.as_str());
        }
    }
    // The corpus as a whole must exercise the fault-recovery path, or the
    // §8 half of the equivalence claim goes untested.
    assert!(faults > 0, "corpus installs no fault plans");
    // Likewise the crash-recovery path: at least one committed script
    // must drive durable crash/recover cycles.
    assert!(crashes > 0, "corpus runs no crash-recovery cycles");
    assert!(checkpoints >= 20, "corpus only verifies {checkpoints} checkpoints");
    // And the adversary grammar: every traffic shape has committed seeds
    // driving the adaptive migration machinery.
    let mut want_shapes: Vec<&str> =
        trijoin_common::AdversaryShape::all().iter().map(|s| s.as_str()).collect();
    want_shapes.sort_unstable();
    assert_eq!(
        shapes_seen.iter().copied().collect::<Vec<_>>(),
        want_shapes,
        "corpus must carry seeds for every adversary shape"
    );
}

/// The acceptance criterion from the issue: plant a bug (payload-only
/// updates not forwarded to the cached structures — the `Pr_A` filter
/// applied where it must not be), and the harness must catch it and
/// shrink the repro to ≤ 15 ops.
#[test]
fn planted_pra_bug_is_caught_and_shrunk() {
    let script = generate(&GenConfig::new(0, 40));
    let sabotaged = CheckConfig { sabotage: Sabotage::SkipPraFilter, ..CheckConfig::default() };

    let failure = run_script(&script, &sabotaged).expect_err("planted bug must be caught");
    assert!(
        failure.message.contains("stale payloads"),
        "the bug manifests as stale view payloads, got: {failure}"
    );

    let result = shrink(&script, &sabotaged).expect("a failing script shrinks");
    let shrunk = &result.script;
    assert!(shrunk.ops.len() <= 15, "repro has {} ops (> 15): {:?}", shrunk.ops.len(), shrunk.ops);
    assert!(shrunk.ops.len() < script.ops.len(), "shrinking removed nothing");

    // 1-minimality is what ddmin promises; spot-check the endpoints: the
    // shrunk script still fails, and relief of the sabotage clears it —
    // so the repro isolates the planted bug, not some harness artifact.
    run_script(shrunk, &sabotaged).expect_err("shrunk repro still fails");
    run_script(shrunk, &CheckConfig::default())
        .expect("shrunk repro passes without the planted bug");

    // The repro a user replays with `trijoin repro` is the JSON file, so
    // the failure must survive the round-trip byte-for-byte.
    let reloaded = Script::from_json_str(&shrunk.to_json_string()).expect("repro parses");
    assert_eq!(&reloaded, shrunk, "JSON round-trip changed the script");
    let replayed = run_script(&reloaded, &sabotaged).expect_err("reloaded repro still fails");
    assert_eq!(replayed.site, result.failure.site);
}

/// A join-attribute update whose new key lives on a different shard is
/// routed as a delete on the old owner plus an insert on the new one.
/// The router admits both halves in one call, so no serve-batch
/// boundary — not an explicit `Batch` flush, not a batch-full flush
/// with `batch: 1`, not the flush a `Checkpoint` query forces — may
/// land between them: every checkpoint must observe either both halves
/// applied or neither, at every shard count.
#[test]
fn cross_shard_splits_never_straddle_a_batch_checkpoint() {
    // Walk a small R through a spread of join keys. The multiply-shift
    // partition scatters 0..24 over every shard, so with 2 and 4 shards
    // most modifies move their tuple between shards (verified below),
    // exercising the split delete+insert path again and again.
    let keys: Vec<u64> = (0..24).collect();
    for shards in [2usize, 4] {
        let hit: std::collections::HashSet<usize> =
            keys.iter().map(|&k| trijoin_common::shard_of_key(k, shards)).collect();
        assert_eq!(hit.len(), shards, "key set must cover all {shards} shards");
    }

    let mut ops = Vec::new();
    for round in 0..6u64 {
        for pick in 0..4u64 {
            let key = keys[(round * 4 + pick) as usize];
            ops.push(ScriptOp::ModifyJoinR { pick, key, tag: round * 10 + pick });
            // Batch boundaries between, and right after, split admissions.
            if pick % 2 == 0 {
                ops.push(ScriptOp::Batch);
            }
        }
        ops.push(ScriptOp::Checkpoint);
    }
    let script = Script {
        name: "cross-shard-splits".to_string(),
        spec: ScriptSpec {
            r_tuples: 8,
            s_tuples: 8,
            tuple_bytes: 64,
            sr: 1.0,
            group_size: 2,
            seed: 1234,
            adversary: None,
            adaptive: false,
        },
        shard_counts: vec![1, 2, 4],
        // Flush on every admitted mutation: if the serve layer could
        // ever split a delete+insert pair across batches, this is the
        // configuration that would do it.
        batch: 1,
        ops,
    };
    let outcome = run_script(&script, &CheckConfig::default())
        .expect("split delete+insert pairs stay atomic across batch boundaries");
    assert_eq!(outcome.checkpoints, 6);
    assert_eq!(outcome.applied, 24, "every join-attribute modify must land");
}

/// Same seed, same script, same replay statistics — determinism is the
/// property that makes a repro file worth committing.
#[test]
fn generated_scripts_replay_deterministically() {
    let cfg = GenConfig::new(7, 60);
    let (a, b) = (generate(&cfg), generate(&cfg));
    assert_eq!(a, b);
    let check = CheckConfig::default();
    let oa = run_script(&a, &check).expect("seed 7 replays clean");
    let ob = run_script(&b, &check).expect("seed 7 replays clean");
    assert_eq!(oa, ob);
}

/// Every adversary shape must drive the adaptive serving fleet into at
/// least one migration per shard count — with every checkpoint still
/// oracle-green across those migrations. This is the fresh
/// generation counterpart of the committed-corpus gate above, so the
/// property holds beyond the eight committed seeds.
#[test]
fn fresh_adversarial_scripts_migrate_and_stay_oracle_green() {
    for shape in trijoin_common::AdversaryShape::all() {
        let cfg = GenConfig::adversarial(3, 120, shape);
        let (a, b) = (generate(&cfg), generate(&cfg));
        assert_eq!(a, b, "{shape:?}: adversarial generation must be deterministic");
        let outcome =
            run_script(&a, &CheckConfig::default()).unwrap_or_else(|f| panic!("{shape:?}: {f}"));
        assert!(outcome.checkpoints > 0, "{shape:?}: no checkpoints verified");
        assert!(outcome.migrations >= 1, "{shape:?}: adaptive fleet never migrated");
        for (shards, n) in &outcome.migrations_by_server {
            assert!(*n >= 1, "{shape:?}: the {shards}-shard fleet never migrated");
        }
    }
}

/// Metamorphic: turning adaptive serving on must never change checkpoint
/// answers. The same plain (v2-shaped) script replays oracle-green with
/// and without migrations enabled, and with identical apply/skip counts —
/// migration is a serving-layer concern, invisible to query results.
#[test]
fn enabling_adaptive_serving_never_changes_checkpoint_answers() {
    let plain = generate(&GenConfig::new(11, 80));
    assert!(!plain.spec.adaptive);
    let mut adaptive = plain.clone();
    adaptive.spec.adaptive = true;
    adaptive.name = format!("{}-adaptive", plain.name);

    let check = CheckConfig::default();
    let base = run_script(&plain, &check).expect("plain script replays clean");
    let live = run_script(&adaptive, &check).expect("adaptive flip replays clean");
    assert_eq!(base.checkpoints, live.checkpoints);
    assert_eq!(base.applied, live.applied);
    assert_eq!(base.skipped, live.skipped);
}

/// Shrinking is only defined for failing scripts.
#[test]
fn shrink_of_a_passing_script_is_none() {
    let script = generate(&GenConfig::new(7, 30));
    assert!(shrink(&script, &CheckConfig::default()).is_none());
}

/// Deterministically inert ops (duplicate-surrogate inserts, deletes at
/// the one-tuple floor) are skipped, not applied — the rule that makes
/// every shrinking subsequence a well-formed script.
#[test]
fn inert_ops_are_skipped_deterministically() {
    let script = Script {
        name: "inert-ops".to_string(),
        spec: ScriptSpec {
            r_tuples: 4,
            s_tuples: 4,
            tuple_bytes: 64,
            sr: 1.0,
            group_size: 2,
            seed: 99,
            adversary: None,
            adaptive: false,
        },
        shard_counts: vec![1, 2],
        batch: 4,
        ops: vec![
            // Initial surrogates are 0..4 on each side: sur 0 is live.
            ScriptOp::InsertR { sur: 0, key: 1, tag: 7 },
            ScriptOp::InsertR { sur: 100, key: 1, tag: 8 },
            // Drain S to its one-tuple floor; the fourth delete is inert.
            ScriptOp::DeleteS { pick: 0 },
            ScriptOp::DeleteS { pick: 0 },
            ScriptOp::DeleteS { pick: 0 },
            ScriptOp::DeleteS { pick: 0 },
            ScriptOp::Checkpoint,
        ],
    };
    let outcome = run_script(&script, &CheckConfig::default()).expect("replays clean");
    assert_eq!(outcome.applied, 4, "one insert and three deletes land");
    assert_eq!(outcome.skipped, 2, "duplicate insert and floor delete are inert");
    assert_eq!(outcome.checkpoints, 1);
}

/// Every command that takes `--sr`, `--activity` and `--pra` rejects a
/// value outside [0, 1] with one message and exit 1 — none panics or runs
/// a workload nothing asked for.
#[test]
fn out_of_range_selectivities_are_rejected_by_every_command() {
    for (flag, value) in [("--sr", "2"), ("--pra", "3"), ("--activity", "-1")] {
        for cmd in ["run", "serve", "top", "advise", "model"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_trijoin"))
                .args([cmd, flag, value])
                .output()
                .expect("the trijoin binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {flag} {value}: {stderr}");
            assert!(
                stderr.contains("error: --sr, --activity and --pra must be within [0, 1]"),
                "{cmd} {flag} {value}: {stderr}"
            );
        }
    }
}

/// `serve` and `top` reject a client count above ‖R‖ (a client would own
/// no tuple) and a zero batch with one message naming the flag and exit 1:
/// neither panics nor runs a batch size other than the one it prints.
#[test]
fn unservable_client_and_batch_counts_are_rejected() {
    for (flag, value, want) in [
        ("--clients", "600", "error: --clients 600 exceeds ‖R‖ = 500"),
        ("--batch", "0", "--batch must be positive"),
    ] {
        for cmd in ["serve", "top"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_trijoin"))
                .args([cmd, "--scale", "400", "--queries", "1", "--once", flag, value])
                .output()
                .expect("the trijoin binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {flag} {value}: {stderr}");
            assert!(stderr.contains(want), "{cmd} {flag} {value}: {stderr}");
        }
    }
}
