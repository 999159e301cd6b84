//! Seeded workload-script generation.
//!
//! Every random decision derives from one root seed through the
//! workspace seed tree ([`trijoin_common::rng`]): the initial relations
//! from `derive(seed, "check/workload")`, the op stream from
//! `derive(seed, "check/ops")`, and the `k`-th fault plan from
//! `derive_indexed(seed, "check/fault", k)` — so `generate` is a pure
//! function of its configuration and two runs of `trijoin check --seed S`
//! explore the identical script.

use rand::prelude::*;
use trijoin_common::{rng, shard_of_key, Adversary, AdversaryShape, Script, ScriptOp, ScriptSpec};

/// Base of the generator's unmatched-key range. Far above the matched
/// group keys (small integers) and distinct per emitted op, so removing
/// ops during shrinking never changes which keys later ops use.
const UNMATCHED_BASE: u64 = 1 << 41;

/// Configuration of one generated script.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Root seed of the script's seed tree.
    pub seed: u64,
    /// Number of ops to emit (checkpoints included).
    pub ops: usize,
    /// `‖R‖` of the initial relations.
    pub r_tuples: u32,
    /// `‖S‖` of the initial relations.
    pub s_tuples: u32,
    /// Serialized tuple size.
    pub tuple_bytes: usize,
    /// Initial semijoin selectivity.
    pub sr: f64,
    /// Join partners per matched tuple.
    pub group_size: u32,
    /// Serving-layer shard counts to replay against.
    pub shard_counts: Vec<usize>,
    /// Admission batch size for every server.
    pub batch: usize,
    /// Probability (in percent) that an op slot becomes a fault injection.
    pub fault_pct: u32,
    /// Probability (in percent) that a control-flow slot becomes a
    /// durable-mode `crash` op instead. The default 0 draws *nothing*
    /// from the RNG, so scripts (and the committed corpus) generated
    /// before the crash grammar existed are reproduced byte-identically.
    pub crash_pct: u32,
    /// Adversarial traffic shape. `None` (the default) emits the classic
    /// uniform stream from the `"check/ops"` RNG exactly as before the
    /// adversary grammar existed — shaped streams draw from their own
    /// `"check/adversary"` stream, so this cannot perturb legacy scripts.
    pub adversary: Option<Adversary>,
    /// Mark the script for adaptive serving replay (shards migrate
    /// strategies online; the driver asserts at least one migration).
    pub adaptive: bool,
}

impl GenConfig {
    /// Harness defaults: small relations (fast replay, still non-trivial
    /// joins — 6 matched groups of 4×4 partners), shard counts 1/2/4.
    pub fn new(seed: u64, ops: usize) -> GenConfig {
        GenConfig {
            seed,
            ops,
            r_tuples: 96,
            s_tuples: 80,
            tuple_bytes: 64,
            sr: 0.25,
            group_size: 4,
            shard_counts: vec![1, 2, 4],
            batch: 8,
            fault_pct: 4,
            crash_pct: 0,
            adversary: None,
            adaptive: false,
        }
    }

    /// Harness defaults plus an adversarial shape, sized so every shape
    /// reliably crosses the adaptive controller's cost crossovers:
    /// adaptive replay on, and relations big enough that the strategy
    /// choice actually matters per shard at 1/2/4 shards.
    pub fn adversarial(seed: u64, ops: usize, shape: AdversaryShape) -> GenConfig {
        GenConfig {
            adversary: Some(Adversary::new(shape)),
            adaptive: true,
            ..GenConfig::new(seed, ops)
        }
    }
}

/// Emit a script from the seed tree under `cfg`.
pub fn generate(cfg: &GenConfig) -> Script {
    if let Some(adv) = &cfg.adversary {
        return generate_adversary(cfg, adv);
    }
    let mut rn = rng::seeded(rng::derive(cfg.seed, "check/ops"));
    let groups =
        (((cfg.sr * cfg.r_tuples as f64) / cfg.group_size.max(1) as f64).round() as u64).max(1);

    let mut ops: Vec<ScriptOp> = Vec::with_capacity(cfg.ops + 1);
    // Fresh surrogates and unmatched keys come from generator-owned
    // counters: each emitted op owns its values, so any subsequence of
    // the script (a shrinking candidate) still inserts distinct tuples.
    let mut next_sur_r = cfg.r_tuples;
    let mut next_sur_s = cfg.s_tuples;
    let mut next_unmatched = UNMATCHED_BASE;
    let mut next_fault = 0u64;
    let mut next_crash = 0u64;
    let mut since_checkpoint = 0usize;

    let mut tag = 0u64;
    while ops.len() < cfg.ops {
        // Never drift too far from a checkpoint: long unchecked stretches
        // cost coverage (a divergence is only observed at a checkpoint).
        if since_checkpoint >= 12 {
            ops.push(ScriptOp::Checkpoint);
            since_checkpoint = 0;
            continue;
        }
        since_checkpoint += 1;
        tag += 1;
        let pick = rn.gen_range(0u64..1 << 32);
        // A 60/40 matched/unmatched key split keeps the join populated
        // while still exercising the no-partner paths.
        let key = if rn.gen_bool(0.6) {
            rn.gen_range(0..groups)
        } else {
            next_unmatched += 1;
            next_unmatched
        };
        let roll = rn.gen_range(0u32..100);
        let op = match roll {
            // R-side traffic dominates, matching the paper's model.
            0..=17 => {
                next_sur_r += 1;
                ScriptOp::InsertR { sur: next_sur_r, key, tag }
            }
            18..=29 => ScriptOp::DeleteR { pick },
            30..=47 => ScriptOp::ModifyJoinR { pick, key, tag },
            48..=59 => ScriptOp::ModifyPayloadR { pick, tag },
            // S-side traffic exercises the lazy cached-structure rebuild.
            60..=67 => {
                next_sur_s += 1;
                ScriptOp::InsertS { sur: next_sur_s, key, tag }
            }
            68..=73 => ScriptOp::DeleteS { pick },
            74..=79 => ScriptOp::ModifyJoinS { pick, key, tag },
            80..=83 => ScriptOp::ModifyPayloadS { pick, tag },
            84..=91 => {
                since_checkpoint = 0;
                ScriptOp::Checkpoint
            }
            92..=95 => ScriptOp::Batch,
            _ => {
                // Guarded draws: with crash_pct = 0 the crash branch
                // consumes no randomness, keeping pre-crash-grammar
                // scripts (the committed corpus) byte-identical.
                if cfg.crash_pct > 0 && rn.gen_range(0u32..100) < cfg.crash_pct {
                    let seed = rng::derive_indexed(cfg.seed, "check/crash", next_crash);
                    next_crash += 1;
                    ScriptOp::Crash { seed }
                } else if rn.gen_range(0u32..100) < cfg.fault_pct * 25 {
                    let seed = rng::derive_indexed(cfg.seed, "check/fault", next_fault);
                    next_fault += 1;
                    ScriptOp::Fault { seed }
                } else {
                    ScriptOp::Batch
                }
            }
        };
        ops.push(op);
    }
    // Every script observes its final state.
    if !matches!(ops.last(), Some(ScriptOp::Checkpoint)) {
        ops.push(ScriptOp::Checkpoint);
    }

    Script {
        name: format!("seed-{}", cfg.seed),
        spec: ScriptSpec {
            r_tuples: cfg.r_tuples,
            s_tuples: cfg.s_tuples,
            tuple_bytes: cfg.tuple_bytes,
            sr: cfg.sr,
            group_size: cfg.group_size,
            seed: rng::derive(cfg.seed, "check/workload"),
            adversary: None,
            adaptive: cfg.adaptive,
        },
        shard_counts: cfg.shard_counts.clone(),
        batch: cfg.batch,
        ops,
    }
}

/// Draw a matched group key from a Zipf(`exponent`) distribution over
/// the group indices (rank 1 = group 0 is the hottest). Inverse-CDF over
/// the precomputed harmonic weights; one `u32` draw per key.
fn zipf_key(rn: &mut impl Rng, cdf: &[f64]) -> u64 {
    let total = *cdf.last().expect("at least one group");
    let u = (rn.gen_range(0u32..u32::MAX) as f64 / u32::MAX as f64) * total;
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1) as u64
}

/// Emit a shaped adversarial script (see [`AdversaryShape`]).
///
/// All four shapes share one skeleton: the stream alternates *update
/// regimes* (dense mutation trains that pull the per-shard cost model
/// toward hybrid-hash) and *query regimes* (payload-only churn plus
/// frequent checkpoints that pull it back toward the cached structures),
/// so an adaptive shard that prices the §3 model must migrate at the
/// regime boundaries. The shapes differ in *which* axis they stress:
///
/// - `bursty`: short high-`Pr_A` update trains, long checkpointed lulls;
/// - `zipf`: every key draw is Zipf-skewed, so the differential keeps
///   hammering the same hot groups, whose join selectivity the answer
///   measures;
/// - `phase`: long symmetric regimes with the starkest ratio shifts;
/// - `imbalance`: mutations are biased onto the keys one shard owns at
///   the largest configured shard count, starving the siblings.
///
/// Every regime boundary checkpoints, no unchecked stretch exceeds 12
/// ops, and the stream draws from its own `"check/adversary"` seed.
fn generate_adversary(cfg: &GenConfig, adv: &Adversary) -> Script {
    let mut rn = rng::seeded(rng::derive(cfg.seed, "check/adversary"));
    let groups =
        (((cfg.sr * cfg.r_tuples as f64) / cfg.group_size.max(1) as f64).round() as u64).max(1);
    let max_shards = cfg.shard_counts.iter().copied().max().unwrap_or(1);
    // Zipf inverse-CDF over group ranks (group 0 hottest).
    let mut cdf = Vec::with_capacity(groups as usize);
    let mut acc = 0.0;
    for rank in 1..=groups {
        acc += 1.0 / (rank as f64).powf(adv.exponent);
        cdf.push(acc);
    }
    // Keys the largest shard count routes to shard 0 — the imbalance
    // shape's target partition.
    let owned: Vec<u64> = (0..groups).filter(|&k| shard_of_key(k, max_shards) == 0).collect();

    let mut ops: Vec<ScriptOp> = Vec::with_capacity(cfg.ops + 8);
    let mut next_sur_r = cfg.r_tuples;
    let mut next_fault = 0u64;
    let mut since_checkpoint = 0usize;
    let mut tag = 0u64;

    // Regime lengths per shape: (update-train ops, query-lull ops).
    let (train, lull) = match adv.shape {
        AdversaryShape::Bursty => (10, 14),
        AdversaryShape::Zipf => (12, 12),
        AdversaryShape::Phase => (20, 20),
        AdversaryShape::Imbalance => (12, 12),
    };

    let key_for = |rn: &mut StdRng| -> u64 {
        match adv.shape {
            AdversaryShape::Zipf => zipf_key(rn, &cdf),
            AdversaryShape::Imbalance if !owned.is_empty() => {
                // 7/8 of update churn lands on shard 0's keys.
                if rn.gen_range(0u32..8) < 7 {
                    owned[rn.gen_range(0..owned.len() as u64) as usize]
                } else {
                    rn.gen_range(0..groups)
                }
            }
            _ => rn.gen_range(0..groups),
        }
    };

    let mut update_regime = true;
    while ops.len() < cfg.ops {
        if update_regime {
            // Dense mutation train: join-attribute churn (high Pr_A) with
            // a sprinkle of inserts/deletes, flushed and checkpointed at
            // the end so the oracle observes the regime's effect on the
            // structure any triggered migration swapped in.
            for _ in 0..train {
                if ops.len() >= cfg.ops {
                    break;
                }
                // Cap at 11 mutations, not 12: the train's trailing
                // `Batch` op extends the streak by one before the regime
                // boundary checkpoint lands.
                if since_checkpoint >= 11 {
                    ops.push(ScriptOp::Checkpoint);
                    since_checkpoint = 0;
                    continue;
                }
                tag += 1;
                since_checkpoint += 1;
                let key = key_for(&mut rn);
                let pick = rn.gen_range(0u64..1 << 32);
                ops.push(match rn.gen_range(0u32..10) {
                    0..=6 => ScriptOp::ModifyJoinR { pick, key, tag },
                    7..=8 => {
                        next_sur_r += 1;
                        ScriptOp::InsertR { sur: next_sur_r, key, tag }
                    }
                    _ => ScriptOp::DeleteR { pick },
                });
            }
            ops.push(ScriptOp::Batch);
        } else {
            // Query-heavy lull: payload-only churn (Pr_A → 0) checked
            // every few ops, so queries dominate the update/query ratio.
            // The i%4 cadence keeps every unchecked streak at 3 ops, so
            // the train's 12-op cap is never at risk here.
            for i in 0..lull {
                if ops.len() >= cfg.ops {
                    break;
                }
                tag += 1;
                let pick = rn.gen_range(0u64..1 << 32);
                if i % 4 == 3 {
                    ops.push(ScriptOp::Checkpoint);
                } else if rn.gen_range(0u32..12) == 0 && cfg.fault_pct > 0 {
                    let seed = rng::derive_indexed(cfg.seed, "check/adversary-fault", next_fault);
                    next_fault += 1;
                    ops.push(ScriptOp::Fault { seed });
                } else {
                    ops.push(ScriptOp::ModifyPayloadR { pick, tag });
                }
            }
        }
        // Regime boundary: always observe the flip.
        ops.push(ScriptOp::Checkpoint);
        since_checkpoint = 0;
        update_regime = !update_regime;
    }
    if !matches!(ops.last(), Some(ScriptOp::Checkpoint)) {
        ops.push(ScriptOp::Checkpoint);
    }

    Script {
        name: format!("{}-seed-{}", adv.shape.as_str(), cfg.seed),
        spec: ScriptSpec {
            r_tuples: cfg.r_tuples,
            s_tuples: cfg.s_tuples,
            tuple_bytes: cfg.tuple_bytes,
            sr: cfg.sr,
            group_size: cfg.group_size,
            seed: rng::derive(cfg.seed, "check/workload"),
            adversary: Some(adv.clone()),
            adaptive: cfg.adaptive,
        },
        shard_counts: cfg.shard_counts.clone(),
        batch: cfg.batch,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::new(7, 120);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        let c = generate(&GenConfig::new(8, 120));
        assert_ne!(a.ops, c.ops, "different seeds explore different scripts");
    }

    #[test]
    fn scripts_end_with_a_checkpoint_and_stay_checked() {
        for seed in 0..20 {
            let script = generate(&GenConfig::new(seed, 100));
            assert!(matches!(script.ops.last(), Some(ScriptOp::Checkpoint)));
            assert!(script.checkpoints() >= 100 / 13, "seed {seed} under-checkpoints");
            // No stretch of more than 12 mutations runs unobserved.
            let mut streak = 0;
            for op in &script.ops {
                if matches!(op, ScriptOp::Checkpoint) {
                    streak = 0;
                } else {
                    streak += 1;
                    assert!(streak <= 12, "seed {seed} has an unchecked stretch");
                }
            }
        }
    }

    #[test]
    fn inserted_surrogates_are_unique() {
        let script = generate(&GenConfig::new(3, 400));
        let mut r_surs = Vec::new();
        let mut s_surs = Vec::new();
        for op in &script.ops {
            match op {
                ScriptOp::InsertR { sur, .. } => r_surs.push(*sur),
                ScriptOp::InsertS { sur, .. } => s_surs.push(*sur),
                _ => {}
            }
        }
        let (rn, sn) = (r_surs.len(), s_surs.len());
        r_surs.sort_unstable();
        r_surs.dedup();
        s_surs.sort_unstable();
        s_surs.dedup();
        assert_eq!(r_surs.len(), rn);
        assert_eq!(s_surs.len(), sn);
        assert!(r_surs.iter().all(|&s| s >= 96), "fresh surrogates sit above the initial ones");
    }

    #[test]
    fn crash_emission_is_opt_in_and_deterministic() {
        // Default: no crash ops, ever (the corpus predates the grammar).
        for seed in 0..10 {
            let script = generate(&GenConfig::new(seed, 300));
            assert!(!script.ops.iter().any(|op| matches!(op, ScriptOp::Crash { .. })));
        }
        // Opt-in: crash ops appear, with distinct derived seeds, and the
        // whole script is still a pure function of the config.
        let cfg = GenConfig { crash_pct: 100, ..GenConfig::new(5, 600) };
        let script = generate(&cfg);
        assert_eq!(script, generate(&cfg));
        let mut seeds: Vec<u64> = script
            .ops
            .iter()
            .filter_map(|op| match op {
                ScriptOp::Crash { seed } => Some(*seed),
                _ => None,
            })
            .collect();
        assert!(!seeds.is_empty(), "crash_pct=100 must emit crash ops");
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "each crash op owns a distinct seed");
    }

    #[test]
    fn op_mix_covers_every_kind() {
        // One long script should exercise the full grammar.
        let script = generate(&GenConfig::new(11, 2000));
        let mut kinds: Vec<&str> = script.ops.iter().map(|o| o.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert!(kinds.len() >= 10, "only saw {kinds:?}");
    }

    #[test]
    fn adversary_generation_is_deterministic_and_stamps_v3() {
        for shape in AdversaryShape::all() {
            let cfg = GenConfig::adversarial(21, 240, shape);
            let a = generate(&cfg);
            assert_eq!(a, generate(&cfg), "{} must be a pure function of the seed", shape.as_str());
            assert_eq!(a.spec.adversary.as_ref().map(|adv| adv.shape), Some(shape));
            assert!(a.spec.adaptive);
            assert!(a.name.starts_with(shape.as_str()));
            let b = generate(&GenConfig::adversarial(22, 240, shape));
            assert_ne!(a.ops, b.ops, "different seeds explore different scripts");
        }
    }

    #[test]
    fn adversary_scripts_stay_checked_and_alternate_regimes() {
        for shape in AdversaryShape::all() {
            for seed in [3u64, 77] {
                let script = generate(&GenConfig::adversarial(seed, 300, shape));
                assert!(matches!(script.ops.last(), Some(ScriptOp::Checkpoint)));
                let mut streak = 0;
                for op in &script.ops {
                    if matches!(op, ScriptOp::Checkpoint) {
                        streak = 0;
                    } else {
                        streak += 1;
                        assert!(streak <= 12, "{}: unchecked stretch", shape.as_str());
                    }
                }
                // Both regimes must be present: join-attribute churn from
                // the update trains, payload-only churn from the lulls.
                let joins = script
                    .ops
                    .iter()
                    .filter(|op| matches!(op, ScriptOp::ModifyJoinR { .. }))
                    .count();
                let payloads = script
                    .ops
                    .iter()
                    .filter(|op| matches!(op, ScriptOp::ModifyPayloadR { .. }))
                    .count();
                assert!(joins >= 20, "{}: update trains too thin ({joins})", shape.as_str());
                assert!(payloads >= 20, "{}: query lulls too thin ({payloads})", shape.as_str());
            }
        }
    }

    #[test]
    fn zipf_shape_skews_update_keys_onto_hot_groups() {
        let script = generate(&GenConfig::adversarial(9, 600, AdversaryShape::Zipf));
        let mut by_key = std::collections::BTreeMap::new();
        let mut total = 0u64;
        for op in &script.ops {
            if let ScriptOp::ModifyJoinR { key, .. } | ScriptOp::InsertR { key, .. } = op {
                *by_key.entry(*key).or_insert(0u64) += 1;
                total += 1;
            }
        }
        let hottest = by_key.values().copied().max().unwrap_or(0);
        // Uniform over the ~12 groups would put ~8% on any one key; the
        // Zipf(1.2) head should take a much larger share.
        assert!(
            hottest * 5 >= total,
            "hot key holds {hottest}/{total}, expected a Zipf head of at least 20%"
        );
    }

    #[test]
    fn imbalance_shape_starves_the_sibling_shards() {
        let cfg = GenConfig::adversarial(13, 600, AdversaryShape::Imbalance);
        let max_shards = cfg.shard_counts.iter().copied().max().unwrap();
        let script = generate(&cfg);
        let mut on_zero = 0u64;
        let mut total = 0u64;
        for op in &script.ops {
            if let ScriptOp::ModifyJoinR { key, .. } | ScriptOp::InsertR { key, .. } = op {
                total += 1;
                if shard_of_key(*key, max_shards) == 0 {
                    on_zero += 1;
                }
            }
        }
        assert!(
            on_zero * 4 >= total * 3,
            "shard 0 sees {on_zero}/{total} mutations, expected at least 75%"
        );
    }

    #[test]
    fn adversary_and_legacy_streams_are_independent() {
        // Turning the adversary grammar on must not perturb the legacy
        // generator: it draws from its own derived stream.
        let legacy = generate(&GenConfig::new(7, 120));
        let again = generate(&GenConfig::new(7, 120));
        assert_eq!(legacy, again);
    }
}
