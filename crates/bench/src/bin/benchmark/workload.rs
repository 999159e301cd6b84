//! The seven workloads and the interface the round loop drives them by.

use trijoin::Method;
use trijoin_common::MetricsSnapshot;

use crate::load::{Shape, CYCLE, LIGHT};
use crate::spans::Recorder;

/// Untimed rounds before the timed region (part of set-up).
pub const WARMUP_ROUNDS: u32 = 20;
/// Every `VERIFY_EVERY`-th round and the last are checked against the oracle.
pub const VERIFY_EVERY: u32 = 50;

/// How far a run is shrunk below full size (`--smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub rounds_div: u32,
    pub data_div: u32,
    /// Calls per probe (≥ 1 000 at full size).
    pub probe_calls: usize,
}

pub const FULL: Scale = Scale { rounds_div: 1, data_div: 1, probe_calls: 1_000 };
pub const SMOKE: Scale = Scale { rounds_div: 50, data_div: 10, probe_calls: 50 };

/// A planted fault that the verifier must catch (negative check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Corrupt one tuple of every answer before it is verified.
    CorruptAnswer,
    /// Withhold one acknowledged update per round from the program.
    DropUpdate,
}

impl Sabotage {
    pub fn parse(arg: &str) -> Result<Sabotage, String> {
        match arg {
            "answer" => Ok(Sabotage::CorruptAnswer),
            "update" => Ok(Sabotage::DropUpdate),
            other => Err(format!("--sabotage: expected answer|update, got {other:?}")),
        }
    }
}

pub struct ServeDef {
    pub shape: Shape,
    pub shards: usize,
    /// Share of `R` mutated per round (the light phase when `heavy` is set).
    pub activity: f64,
    /// `(light rounds, heavy rounds, heavy activity)` of one traffic cycle.
    pub heavy: Option<(u32, u32, f64)>,
    pub method: Method,
    /// Updates, inserts and deletes instead of updates only.
    pub mixed: bool,
    pub durable: bool,
    pub adaptive: bool,
}

pub enum Kind {
    /// Bare `Database` plus one strategy; 6 % activity.
    Cycle(Method),
    Serve(ServeDef),
}

pub struct Def {
    pub name: &'static str,
    /// Rounds per second of `--seconds`: the round count is fixed by the
    /// arguments, never by the clock, so counts repeat exactly. Sized on
    /// a 2-core host so the timed region lasts about `--seconds`.
    pub rounds_per_second: u32,
    /// `bench.load_checksum` at the default seed (see [`crate::DEFAULT_SEED`]).
    pub checksum: u64,
    pub kind: Kind,
}

impl Def {
    pub fn rounds(&self, seconds: u32, scale: &Scale) -> u32 {
        (self.rounds_per_second * seconds / scale.rounds_div).max(10)
    }
}

const fn serve(shape: Shape, shards: usize, activity: f64, method: Method) -> ServeDef {
    ServeDef {
        shape,
        shards,
        activity,
        heavy: None,
        method,
        mixed: false,
        durable: false,
        adaptive: false,
    }
}

/// Activity of the `*_cycle` workloads: the paper's Figure-5 point.
pub const CYCLE_ACTIVITY: f64 = 0.06;

pub const ALL: [Def; 7] = [
    Def {
        name: "mv_cycle",
        rounds_per_second: 50,
        checksum: 0x9632_1037_e87a_ae4c,
        kind: Kind::Cycle(Method::MaterializedView),
    },
    Def {
        name: "ji_cycle",
        rounds_per_second: 70,
        checksum: 0x9632_1037_e87a_ae4c,
        kind: Kind::Cycle(Method::JoinIndex),
    },
    Def {
        name: "hh_cycle",
        rounds_per_second: 30,
        checksum: 0x9632_1037_e87a_ae4c,
        kind: Kind::Cycle(Method::HybridHash),
    },
    Def {
        name: "serve_light",
        rounds_per_second: 2_400,
        checksum: 0xc2a8_420e_d48b_6124,
        kind: Kind::Serve(serve(LIGHT, 4, 0.005, Method::HybridHash)),
    },
    Def {
        name: "serve_wide",
        rounds_per_second: 80,
        checksum: 0xb325_fb8e_075b_8d7e,
        kind: Kind::Serve(ServeDef {
            mixed: true,
            ..serve(CYCLE, 2, CYCLE_ACTIVITY, Method::MaterializedView)
        }),
    },
    Def {
        name: "serve_durable",
        rounds_per_second: 80,
        checksum: 0x582c_8a95_3101_0477,
        kind: Kind::Serve(ServeDef {
            durable: true,
            ..serve(CYCLE, 1, 0.005, Method::MaterializedView)
        }),
    },
    Def {
        name: "serve_adaptive",
        rounds_per_second: 800,
        checksum: 0xc2a8_420e_d48b_6124,
        // Frozen once the controller was seen to cross over in both
        // directions: 0.5 % favours the cached view, 20 % hybrid hash.
        kind: Kind::Serve(ServeDef {
            heavy: Some((600, 200, 0.20)),
            adaptive: true,
            ..serve(LIGHT, 4, 0.005, Method::HybridHash)
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    ALL.iter().find(|d| d.name == name)
}

/// Wall time of one round's phases. The generator runs while the program
/// is idle and is never part of a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub gen_ns: u64,
    pub update_ns: u64,
    pub query_ns: u64,
    /// 0 on workloads that do not commit.
    pub commit_ns: u64,
    /// Calls into the program this round, and how many returned an error.
    pub calls: u32,
    pub failed: u32,
    /// Acknowledged mutations.
    pub updates: u32,
}

impl Round {
    pub fn timed_ns(&self) -> u64 {
        self.update_ns + self.query_ns + self.commit_ns
    }
}

/// What a workload exposes of the program's own counters.
pub struct Observation {
    /// Simulated ledger seconds so far.
    pub sim_secs: f64,
    pub metrics: MetricsSnapshot,
    /// Pages on the device per page of base data (0 where the serving API
    /// does not expose it).
    pub pages_per_user_page: f64,
}

/// Result of a workload's epilogue.
#[derive(Debug, Default)]
pub struct Epilogue {
    pub calls: u32,
    pub failed: u32,
    /// `Server::recover` after the crash (`serve_durable` only).
    pub recovery_s: Option<f64>,
}

pub trait Instance {
    /// Generate one epoch of mutations (untimed), submit them, query,
    /// and commit if the workload commits.
    fn round(&mut self, index: u32, rec: &Recorder) -> Round;

    /// Whether the last answer equals the oracle join over the
    /// generator's mirror.
    fn verify(&mut self) -> bool;

    fn observe(&mut self) -> Result<Observation, String>;

    /// Work after the timed region (crash and recovery); its checks count
    /// as calls.
    fn finish(self: Box<Self>, rec: &Recorder) -> Epilogue;
}
