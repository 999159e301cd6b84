//! Workload *scripts* for the deterministic simulation harness.
//!
//! A script is a typed, replayable description of one simulated run: the
//! initial-relation spec, the serving-layer shard counts to exercise, and
//! an op sequence of R/S inserts, deletes, join-attribute and payload
//! modifies, query checkpoints, fault injections, and serve-layer batch
//! boundaries. Scripts are the harness's *only* currency — the generator
//! emits them, the driver replays them, the shrinker edits them, and repro
//! files serialize them — so the grammar lives here in `trijoin-common`
//! where every layer can speak it without dependency cycles.
//!
//! Two properties make scripts robust under delta-debugging:
//!
//! - **Pick-based addressing.** Ops never name a tuple that must exist:
//!   deletes and modifies carry a `pick` that the driver reduces modulo
//!   the relation's live count at replay time. Removing any subset of ops
//!   leaves a well-formed script — exactly what a shrinker needs.
//! - **Explicit surrogates with skip-on-conflict.** Inserts carry their
//!   surrogate; the driver skips an insert whose surrogate is already
//!   live. Deleting an earlier op can therefore never make a later one
//!   invalid, only (deterministically) inert.
//!
//! The JSON codec round-trips scripts exactly. Seeds are serialized as
//! hex *strings* because they are full-range `u64` values and JSON
//! numbers are `f64` (53 bits of integer precision).

use crate::json::Json;

/// The adversarial traffic shapes the check generator can emit (schema
/// v3). Each shape stresses a different axis of the adaptive serving
/// layer's strategy selection; see `trijoin_check::gen` for the op-level
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryShape {
    /// Dense update trains separated by query-heavy lulls.
    Bursty,
    /// Zipf-distributed hot-key skew with a tunable exponent.
    Zipf,
    /// Alternating query-dominant and update-dominant regimes.
    Phase,
    /// Per-shard key-range bias: one shard's partition soaks the churn.
    Imbalance,
}

impl AdversaryShape {
    /// Stable wire name (also the CLI `--adversary` spelling).
    pub fn as_str(&self) -> &'static str {
        match self {
            AdversaryShape::Bursty => "bursty",
            AdversaryShape::Zipf => "zipf",
            AdversaryShape::Phase => "phase",
            AdversaryShape::Imbalance => "imbalance",
        }
    }

    /// Inverse of [`AdversaryShape::as_str`].
    pub fn from_wire(name: &str) -> Option<AdversaryShape> {
        Some(match name {
            "bursty" => AdversaryShape::Bursty,
            "zipf" => AdversaryShape::Zipf,
            "phase" => AdversaryShape::Phase,
            "imbalance" => AdversaryShape::Imbalance,
            _ => return None,
        })
    }

    /// Every shape, in wire-name order.
    pub fn all() -> [AdversaryShape; 4] {
        [
            AdversaryShape::Bursty,
            AdversaryShape::Zipf,
            AdversaryShape::Phase,
            AdversaryShape::Imbalance,
        ]
    }
}

/// Adversarial-generator configuration carried by a v3 script spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Adversary {
    /// Traffic shape.
    pub shape: AdversaryShape,
    /// Skew exponent (`zipf` only; the others ignore it). Serialized for
    /// every shape so scripts stay self-describing.
    pub exponent: f64,
}

impl Adversary {
    /// The given shape with the default skew exponent (1.2).
    pub fn new(shape: AdversaryShape) -> Adversary {
        Adversary { shape, exponent: 1.2 }
    }
}

/// Initial-relation specification embedded in every script. Mirrors the
/// core crate's `WorkloadSpec` (the driver converts; `trijoin-common`
/// cannot depend on it) with the update-model fields omitted — a script's
/// op sequence *is* the update model.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptSpec {
    /// `‖R‖` at generation time.
    pub r_tuples: u32,
    /// `‖S‖` at generation time.
    pub s_tuples: u32,
    /// Serialized tuple size for both relations.
    pub tuple_bytes: usize,
    /// Target semijoin selectivity of the initial relations.
    pub sr: f64,
    /// Join partners per matching tuple.
    pub group_size: u32,
    /// Seed of the initial-relation generator.
    pub seed: u64,
    /// Adversarial traffic shape the op stream was generated under
    /// (schema v3; `None` on every older script and on uniform traffic).
    pub adversary: Option<Adversary>,
    /// Replay the serving layers in adaptive mode (schema v3): shards
    /// start on one strategy and migrate online as the traffic shifts.
    pub adaptive: bool,
}

/// One step of a script.
///
/// `pick` fields address a live tuple as `pick % live_count` over the
/// surrogate-ordered mirror; `tag` fields deterministically derive the
/// new payload bytes; `key` fields are explicit join-key values.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptOp {
    /// Insert a fresh tuple into R (skipped if `sur` is already live).
    InsertR {
        /// Explicit surrogate of the new tuple.
        sur: u32,
        /// Join-key value.
        key: u64,
        /// Payload tag.
        tag: u64,
    },
    /// Insert a fresh tuple into S (skipped if `sur` is already live).
    InsertS {
        /// Explicit surrogate of the new tuple.
        sur: u32,
        /// Join-key value.
        key: u64,
        /// Payload tag.
        tag: u64,
    },
    /// Delete a live R tuple (skipped when ≤ 1 tuple remains).
    DeleteR {
        /// Victim selector (`pick % live_count`).
        pick: u64,
    },
    /// Delete a live S tuple (skipped when ≤ 1 tuple remains).
    DeleteS {
        /// Victim selector.
        pick: u64,
    },
    /// Update an R tuple's join attribute (the paper's `Pr_A` event).
    ModifyJoinR {
        /// Victim selector.
        pick: u64,
        /// New join-key value.
        key: u64,
        /// New payload tag.
        tag: u64,
    },
    /// Update an S tuple's join attribute.
    ModifyJoinS {
        /// Victim selector.
        pick: u64,
        /// New join-key value.
        key: u64,
        /// New payload tag.
        tag: u64,
    },
    /// Update an R tuple's payload only (join attribute unchanged).
    ModifyPayloadR {
        /// Victim selector.
        pick: u64,
        /// New payload tag.
        tag: u64,
    },
    /// Update an S tuple's payload only.
    ModifyPayloadS {
        /// Victim selector.
        pick: u64,
        /// New payload tag.
        tag: u64,
    },
    /// Query every engine and server, assert MV ≡ JI ≡ HH ≡ oracle ≡
    /// sharded-serve, and run the cost-model metamorphic checks.
    Checkpoint,
    /// Arm a seeded fault plan; the driver installs it at the next
    /// checkpoint, immediately before query execution (§8 recovery must
    /// make the answers equal anyway).
    Fault {
        /// Seed of the fault-plan derivation.
        seed: u64,
    },
    /// Serve-layer batch boundary: flush every server's pending updates.
    /// In durable mode this is also a commit barrier (engines commit,
    /// servers drive their shard-commit barrier).
    Batch,
    /// Durable-mode crash: kill every engine and server mid-run at this
    /// point — *without* committing — then reopen from disk, replaying
    /// each WAL. `seed` deterministically picks the sabotage flavour of
    /// the preceding in-flight commit (overlay dropped cold, torn log
    /// tail, or sealed-but-unapplied log; see
    /// `trijoin_storage::CommitSabotage`). On the in-memory backend the
    /// op is inert: there is nothing to reopen from, so the driver treats
    /// it as a no-op and the equivalence checks simply continue.
    Crash {
        /// Seed of the sabotage-flavour derivation.
        seed: u64,
    },
}

impl ScriptOp {
    /// The op's JSON discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            ScriptOp::InsertR { .. } => "insert_r",
            ScriptOp::InsertS { .. } => "insert_s",
            ScriptOp::DeleteR { .. } => "delete_r",
            ScriptOp::DeleteS { .. } => "delete_s",
            ScriptOp::ModifyJoinR { .. } => "modify_join_r",
            ScriptOp::ModifyJoinS { .. } => "modify_join_s",
            ScriptOp::ModifyPayloadR { .. } => "modify_payload_r",
            ScriptOp::ModifyPayloadS { .. } => "modify_payload_s",
            ScriptOp::Checkpoint => "checkpoint",
            ScriptOp::Fault { .. } => "fault",
            ScriptOp::Batch => "batch",
            ScriptOp::Crash { .. } => "crash",
        }
    }

    /// Whether the op mutates a base relation (vs. control flow).
    pub fn is_mutation(&self) -> bool {
        !matches!(
            self,
            ScriptOp::Checkpoint
                | ScriptOp::Fault { .. }
                | ScriptOp::Batch
                | ScriptOp::Crash { .. }
        )
    }
}

/// The one script schema version this build writes and reads. The spec
/// extensions `adversary` and `adaptive` are optional on read and omitted
/// on write when unset.
pub const SCRIPT_VERSION: u64 = 3;

/// A complete replayable simulation script.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Human-readable provenance (e.g. `"seed-7"` or `"shrunk(seed-7)"`).
    pub name: String,
    /// Initial-relation spec.
    pub spec: ScriptSpec,
    /// Serving-layer shard counts to run alongside the single-node
    /// engines (e.g. `[1, 2, 4]`).
    pub shard_counts: Vec<usize>,
    /// Admission batch size for every server.
    pub batch: usize,
    /// The op sequence.
    pub ops: Vec<ScriptOp>,
}

/// Serialize a full-range `u64` seed losslessly (JSON numbers are `f64`).
fn seed_json(seed: u64) -> Json {
    Json::Str(format!("{seed:#x}"))
}

/// Parse a seed serialized by [`seed_json`]; plain decimal also accepted
/// for hand-written scripts.
fn seed_from(j: &Json, what: &str) -> Result<u64, String> {
    match j {
        Json::Str(s) => {
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse::<u64>(),
            };
            parsed.map_err(|_| format!("script: {what}: bad seed literal {s:?}"))
        }
        Json::Num(_) => j.as_u64().ok_or_else(|| format!("script: {what}: seed not a u64")),
        _ => Err(format!("script: {what}: seed must be a hex string or number")),
    }
}

fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("script: {what}: missing field {key:?}"))
}

fn num_u64(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    field(obj, key, what)?
        .as_u64()
        .ok_or_else(|| format!("script: {what}: field {key:?} must be a non-negative integer"))
}

fn num_f64(obj: &Json, key: &str, what: &str) -> Result<f64, String> {
    field(obj, key, what)?
        .as_f64()
        .ok_or_else(|| format!("script: {what}: field {key:?} must be a number"))
}

impl ScriptSpec {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("r_tuples", self.r_tuples as u64)
            .set("s_tuples", self.s_tuples as u64)
            .set("tuple_bytes", self.tuple_bytes as u64)
            .set("sr", self.sr)
            .set("group_size", self.group_size as u64)
            .set("seed", seed_json(self.seed));
        if let Some(adv) = &self.adversary {
            j = j.set(
                "adversary",
                Json::obj().set("shape", adv.shape.as_str()).set("exponent", adv.exponent),
            );
        }
        if self.adaptive {
            j = j.set("adaptive", true);
        }
        j
    }

    fn from_json(j: &Json) -> Result<ScriptSpec, String> {
        let adversary = match j.get("adversary") {
            None => None,
            Some(a) => {
                let shape = field(a, "shape", "adversary")?
                    .as_str()
                    .and_then(AdversaryShape::from_wire)
                    .ok_or_else(|| "script: adversary: unknown shape".to_string())?;
                let exponent = num_f64(a, "exponent", "adversary")?;
                if !(exponent.is_finite() && exponent >= 0.0) {
                    return Err(format!("script: adversary: bad exponent {exponent}"));
                }
                Some(Adversary { shape, exponent })
            }
        };
        let adaptive = match j.get("adaptive") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("script: spec: field \"adaptive\" must be a bool".into()),
        };
        let spec = ScriptSpec {
            r_tuples: num_u64(j, "r_tuples", "spec")? as u32,
            s_tuples: num_u64(j, "s_tuples", "spec")? as u32,
            tuple_bytes: num_u64(j, "tuple_bytes", "spec")? as usize,
            sr: num_f64(j, "sr", "spec")?,
            group_size: num_u64(j, "group_size", "spec")? as u32,
            seed: seed_from(field(j, "seed", "spec")?, "spec")?,
            adversary,
            adaptive,
        };
        if spec.r_tuples == 0 || spec.s_tuples == 0 {
            return Err("script: spec: relations must be non-empty".into());
        }
        if !(0.0..=1.0).contains(&spec.sr) {
            return Err(format!("script: spec: sr {} out of [0, 1]", spec.sr));
        }
        Ok(spec)
    }
}

impl ScriptOp {
    fn to_json(&self) -> Json {
        let j = Json::obj().set("op", self.kind());
        match *self {
            ScriptOp::InsertR { sur, key, tag } | ScriptOp::InsertS { sur, key, tag } => {
                j.set("sur", sur as u64).set("key", key).set("tag", tag)
            }
            ScriptOp::DeleteR { pick } | ScriptOp::DeleteS { pick } => j.set("pick", pick),
            ScriptOp::ModifyJoinR { pick, key, tag } | ScriptOp::ModifyJoinS { pick, key, tag } => {
                j.set("pick", pick).set("key", key).set("tag", tag)
            }
            ScriptOp::ModifyPayloadR { pick, tag } | ScriptOp::ModifyPayloadS { pick, tag } => {
                j.set("pick", pick).set("tag", tag)
            }
            ScriptOp::Checkpoint | ScriptOp::Batch => j,
            ScriptOp::Fault { seed } | ScriptOp::Crash { seed } => j.set("seed", seed_json(seed)),
        }
    }

    fn from_json(j: &Json) -> Result<ScriptOp, String> {
        let kind = field(j, "op", "op")?
            .as_str()
            .ok_or_else(|| "script: op: field \"op\" must be a string".to_string())?;
        let op = match kind {
            "insert_r" | "insert_s" => {
                let sur = num_u64(j, "sur", kind)? as u32;
                let key = num_u64(j, "key", kind)?;
                let tag = num_u64(j, "tag", kind)?;
                if kind == "insert_r" {
                    ScriptOp::InsertR { sur, key, tag }
                } else {
                    ScriptOp::InsertS { sur, key, tag }
                }
            }
            "delete_r" => ScriptOp::DeleteR { pick: num_u64(j, "pick", kind)? },
            "delete_s" => ScriptOp::DeleteS { pick: num_u64(j, "pick", kind)? },
            "modify_join_r" | "modify_join_s" => {
                let pick = num_u64(j, "pick", kind)?;
                let key = num_u64(j, "key", kind)?;
                let tag = num_u64(j, "tag", kind)?;
                if kind == "modify_join_r" {
                    ScriptOp::ModifyJoinR { pick, key, tag }
                } else {
                    ScriptOp::ModifyJoinS { pick, key, tag }
                }
            }
            "modify_payload_r" => ScriptOp::ModifyPayloadR {
                pick: num_u64(j, "pick", kind)?,
                tag: num_u64(j, "tag", kind)?,
            },
            "modify_payload_s" => ScriptOp::ModifyPayloadS {
                pick: num_u64(j, "pick", kind)?,
                tag: num_u64(j, "tag", kind)?,
            },
            "checkpoint" => ScriptOp::Checkpoint,
            "fault" => ScriptOp::Fault { seed: seed_from(field(j, "seed", kind)?, kind)? },
            "batch" => ScriptOp::Batch,
            "crash" => ScriptOp::Crash { seed: seed_from(field(j, "seed", kind)?, kind)? },
            other => return Err(format!("script: unknown op kind {other:?}")),
        };
        Ok(op)
    }
}

impl Script {
    /// Serialize to the versioned JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("version", SCRIPT_VERSION)
            .set("name", self.name.as_str())
            .set("spec", self.spec.to_json())
            .set(
                "shard_counts",
                Json::Arr(self.shard_counts.iter().map(|&n| Json::from(n as u64)).collect()),
            )
            .set("batch", self.batch as u64)
            .set("ops", Json::Arr(self.ops.iter().map(ScriptOp::to_json).collect()))
    }

    /// Parse the JSON form, validating the schema version and every op.
    pub fn from_json(j: &Json) -> Result<Script, String> {
        let version = num_u64(j, "version", "script")?;
        if version != SCRIPT_VERSION {
            return Err(format!(
                "script: unsupported version {version} (this build reads {SCRIPT_VERSION})"
            ));
        }
        let name = field(j, "name", "script")?
            .as_str()
            .ok_or_else(|| "script: field \"name\" must be a string".to_string())?
            .to_string();
        let spec = ScriptSpec::from_json(field(j, "spec", "script")?)?;
        let counts = field(j, "shard_counts", "script")?
            .as_arr()
            .ok_or_else(|| "script: field \"shard_counts\" must be an array".to_string())?;
        let mut shard_counts = Vec::with_capacity(counts.len());
        for c in counts {
            let n = c.as_u64().ok_or_else(|| "script: bad shard count".to_string())? as usize;
            if n == 0 {
                return Err("script: shard count must be positive".into());
            }
            shard_counts.push(n);
        }
        let batch = num_u64(j, "batch", "script")? as usize;
        if batch == 0 {
            return Err("script: batch must be positive".into());
        }
        let ops_json = field(j, "ops", "script")?
            .as_arr()
            .ok_or_else(|| "script: field \"ops\" must be an array".to_string())?;
        let mut ops = Vec::with_capacity(ops_json.len());
        for (i, op) in ops_json.iter().enumerate() {
            ops.push(ScriptOp::from_json(op).map_err(|e| format!("{e} (ops[{i}])"))?);
        }
        Ok(Script { name, spec, shard_counts, batch, ops })
    }

    /// Serialize to a pretty-printed JSON string (the repro-file format).
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Parse a JSON string produced by [`Script::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Script, String> {
        Script::from_json(&Json::parse(text)?)
    }

    /// Number of checkpoints in the op sequence.
    pub fn checkpoints(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, ScriptOp::Checkpoint)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Script {
        Script {
            name: "seed-7".into(),
            spec: ScriptSpec {
                r_tuples: 96,
                s_tuples: 80,
                tuple_bytes: 64,
                sr: 0.25,
                group_size: 4,
                seed: 0xdead_beef_cafe_f00d, // > 2^53: exercises hex encoding
                adversary: None,
                adaptive: false,
            },
            shard_counts: vec![1, 2, 4],
            batch: 8,
            ops: vec![
                ScriptOp::InsertR { sur: 200, key: 3, tag: 17 },
                ScriptOp::InsertS { sur: 201, key: 1 << 41, tag: 18 },
                ScriptOp::DeleteR { pick: 5 },
                ScriptOp::DeleteS { pick: 11 },
                ScriptOp::ModifyJoinR { pick: 2, key: 1, tag: 19 },
                ScriptOp::ModifyJoinS { pick: 9, key: 0, tag: 20 },
                ScriptOp::ModifyPayloadR { pick: 0, tag: 21 },
                ScriptOp::ModifyPayloadS { pick: 4, tag: 22 },
                ScriptOp::Batch,
                ScriptOp::Fault { seed: u64::MAX },
                ScriptOp::Crash { seed: 0x0123_4567_89ab_cdef },
                ScriptOp::Checkpoint,
            ],
        }
    }

    #[test]
    fn roundtrip_every_op_kind() {
        let script = sample();
        let text = script.to_json_string();
        let back = Script::from_json_str(&text).unwrap();
        assert_eq!(back, script);
        // The JSON itself is stable under a re-dump (insertion order).
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn seeds_roundtrip_beyond_f64_precision() {
        // 2^53 + 1 is the first integer JSON numbers cannot carry.
        let mut script = sample();
        script.spec.seed = (1 << 53) + 1;
        script.ops = vec![ScriptOp::Fault { seed: (1 << 60) + 3 }, ScriptOp::Checkpoint];
        let back = Script::from_json_str(&script.to_json_string()).unwrap();
        assert_eq!(back.spec.seed, (1 << 53) + 1);
        assert_eq!(back.ops[0], ScriptOp::Fault { seed: (1 << 60) + 3 });
    }

    #[test]
    fn rejects_malformed_scripts() {
        let good = sample().to_json();
        // Wrong version.
        let bad = good.clone().set("version", 99u64);
        assert!(Script::from_json(&bad).unwrap_err().contains("version"));
        // Unknown op kind.
        let bad = good.clone().set("ops", Json::Arr(vec![Json::obj().set("op", "explode")]));
        assert!(Script::from_json(&bad).unwrap_err().contains("unknown op"));
        // Missing field inside an op, with its index in the message.
        let bad = good.clone().set("ops", Json::Arr(vec![Json::obj().set("op", "delete_r")]));
        let err = Script::from_json(&bad).unwrap_err();
        assert!(err.contains("pick") && err.contains("ops[0]"), "{err}");
        // Zero shard count.
        let bad = good.clone().set("shard_counts", Json::Arr(vec![Json::from(0u64)]));
        assert!(Script::from_json(&bad).is_err());
        // sr out of range.
        let bad_spec = sample().spec.to_json().set("sr", 1.5);
        let bad = good.clone().set("spec", bad_spec);
        assert!(Script::from_json(&bad).unwrap_err().contains("sr"));
        // Not even JSON.
        assert!(Script::from_json_str("{nope").is_err());
    }

    #[test]
    fn adversary_specs_round_trip_as_version_3() {
        for shape in AdversaryShape::all() {
            let mut script = sample();
            script.spec.adversary = Some(Adversary { shape, exponent: 1.5 });
            script.spec.adaptive = true;
            let j = script.to_json();
            assert_eq!(j.get("version").and_then(Json::as_u64), Some(3));
            let back = Script::from_json(&j).unwrap();
            assert_eq!(back, script);
            // And the text form is stable under a re-dump.
            let text = script.to_json_string();
            assert_eq!(Script::from_json_str(&text).unwrap().to_json_string(), text);
        }
        // `adaptive` alone round-trips too.
        let mut script = sample();
        script.spec.adaptive = true;
        assert_eq!(Script::from_json(&script.to_json()).unwrap(), script);
    }

    #[test]
    fn malformed_adversary_specs_are_rejected() {
        let good = sample().to_json();
        let spec = sample().spec.to_json();
        // Unknown shape.
        let bad_spec =
            spec.clone().set("adversary", Json::obj().set("shape", "chaotic").set("exponent", 1.0));
        let err = Script::from_json(&good.clone().set("spec", bad_spec)).unwrap_err();
        assert!(err.contains("shape"), "{err}");
        // Negative exponent (NaN/Infinity degrade to 0 at the Json layer).
        let bad_spec = spec
            .clone()
            .set("adversary", Json::obj().set("shape", "zipf").set("exponent", Json::Num(-1.0)));
        assert!(Script::from_json(&good.clone().set("spec", bad_spec)).is_err());
        // Non-bool adaptive flag.
        let bad_spec = spec.set("adaptive", 1u64);
        let err = Script::from_json(&good.set("spec", bad_spec)).unwrap_err();
        assert!(err.contains("adaptive"), "{err}");
    }

    #[test]
    fn decimal_seeds_accepted_for_handwritten_scripts() {
        let j = sample().to_json();
        let spec = sample().spec.to_json().set("seed", Json::Str("12345".into()));
        let script = Script::from_json(&j.set("spec", spec)).unwrap();
        assert_eq!(script.spec.seed, 12345);
    }

    #[test]
    fn op_kind_labels_are_distinct() {
        let script = sample();
        let mut kinds: Vec<&str> = script.ops.iter().map(|o| o.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), script.ops.len(), "sample covers every kind once");
        assert!(!ScriptOp::Checkpoint.is_mutation());
        assert!(ScriptOp::DeleteR { pick: 0 }.is_mutation());
    }
}
