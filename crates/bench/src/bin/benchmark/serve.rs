//! The `serve_*` workloads: one client thread driving a sharded `Server`
//! in a closed loop.

use std::path::{Path, PathBuf};
use std::time::Instant;

use trijoin::{Durability, GeneratedWorkload};
use trijoin_common::{BaseTuple, ViewTuple};
use trijoin_exec::Mutation;
use trijoin_serve::{ClientSession, ClientTraffic, ServeConfig, Server};
use trijoin_storage::Wal;

use crate::load::{touches_join, MixedStream};
use crate::spans::{Busy, Recorder};
use crate::workload::{Epilogue, Instance, Observation, Round, Sabotage, Scale, ServeDef};
use crate::{same_join, DEFAULT_SEED};

/// Admission batch of every serve workload (the wallclock rows' value).
const BATCH: usize = 32;

enum Traffic {
    /// The paper's update-only traffic, one client owning all of `R`.
    Updates(ClientTraffic),
    Mixed(MixedStream),
}

impl Traffic {
    fn next(&mut self) -> Mutation {
        match self {
            Traffic::Updates(t) => t.next_mutation(),
            Traffic::Mixed(m) => m.next_mutation(),
        }
    }

    fn current(&self) -> &[BaseTuple] {
        match self {
            Traffic::Updates(t) => t.current(),
            Traffic::Mixed(m) => m.current(),
        }
    }
}

pub fn generate(def: &ServeDef, seed: u64, scale: &Scale) -> GeneratedWorkload {
    def.shape.spec(def.activity, seed, scale.data_div).generate()
}

pub fn config(def: &ServeDef, scale: &Scale, dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        batch: BATCH,
        // The server's own seed tree is fixed; `--seed` varies the load.
        seed: DEFAULT_SEED,
        adaptive: def.adaptive,
        durable_dir: dir,
        // One fdatasync per commit; apply and checkpoint cadence are the
        // program's defaults (every 64 and 512 commits).
        durability: Durability::Barrier,
        ..ServeConfig::new(def.shape.params(scale.data_div), def.shards)
    }
}

fn traffic(def: &ServeDef, gen: &GeneratedWorkload, config: &ServeConfig) -> Traffic {
    if def.mixed {
        Traffic::Mixed(MixedStream::new(gen))
    } else {
        let mut clients = ClientTraffic::split(gen, config, 1);
        Traffic::Updates(clients.remove(0))
    }
}

/// The mutation source a workload's load checksum is taken over.
pub fn checksum_stream(def: &ServeDef, gen: &GeneratedWorkload) -> impl FnMut() -> Mutation {
    let scale = crate::workload::FULL;
    let mut traffic = traffic(def, gen, &config(def, &scale, None));
    move || traffic.next()
}

pub struct Serve {
    def: &'static ServeDef,
    gen: GeneratedWorkload,
    config: ServeConfig,
    /// `None` only while the epilogue has crashed the server.
    server: Option<Server>,
    session: ClientSession,
    traffic: Traffic,
    epoch: Vec<Mutation>,
    answer: Vec<ViewTuple>,
    /// `(light rounds, heavy rounds, heavy activity)`, scaled with the run.
    heavy: Option<(u32, u32, f64)>,
    sabotage: Option<Sabotage>,
}

impl Serve {
    pub fn setup(
        def: &'static ServeDef,
        seed: u64,
        scale: &Scale,
        dir: Option<PathBuf>,
        sabotage: Option<Sabotage>,
        rec: &Recorder,
    ) -> Result<Serve, String> {
        let gen = generate(def, seed, scale);
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let config = config(def, scale, dir);
        let server = {
            let _span = rec.span("server.start");
            Server::start(&config, gen.r.clone(), gen.s.clone()).map_err(|e| e.to_string())?
        };
        let session = server.session().map_err(|e| e.to_string())?;
        let heavy = def.heavy.map(|(light, heavy, rate)| {
            ((light / scale.rounds_div).max(6), (heavy / scale.rounds_div).max(4), rate)
        });
        Ok(Serve {
            traffic: traffic(def, &gen, &config),
            def,
            gen,
            config,
            server: Some(server),
            session,
            epoch: Vec::new(),
            answer: Vec::new(),
            heavy,
            sabotage,
        })
    }

    fn mutations_for(&self, index: u32) -> usize {
        let tuples = self.gen.r.len() as f64;
        let activity = match self.heavy {
            Some((light, heavy, rate)) if index % (light + heavy) >= light => rate,
            _ => self.def.activity,
        };
        (activity * tuples).round() as usize
    }
}

/// Length of every shard's `wal.log` under `dir`.
fn wal_lengths(config: &ServeConfig) -> Vec<(PathBuf, u64)> {
    (0..config.shards)
        .filter_map(|i| config.shard_dir(i))
        .map(|dir| dir.join(Wal::FILE_NAME))
        .filter_map(|path| std::fs::metadata(&path).ok().map(|m| (path, m.len())))
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Instance for Serve {
    fn round(&mut self, index: u32, rec: &Recorder) -> Round {
        let mut round = Round::default();
        let at = Instant::now();
        {
            let _span = rec.span("generate");
            for _ in 0..self.mutations_for(index) {
                let m = self.traffic.next();
                self.epoch.push(m);
            }
        }
        round.gen_ns = at.elapsed().as_nanos() as u64;
        round.updates = self.epoch.len() as u32;
        if self.sabotage == Some(Sabotage::DropUpdate) {
            let groups = self.gen.groups;
            let at = self.epoch.iter().position(|m| match m {
                Mutation::Update(u) => touches_join(u.old.key, u.new.key, groups),
                Mutation::Insert(t) | Mutation::Delete(t) => touches_join(t.key, t.key, groups),
            });
            if let Some(at) = at {
                self.epoch.remove(at);
            }
        }

        let on = rec.on();
        let at = Instant::now();
        {
            let _span = rec.span("update");
            let mut enqueue = Busy::default();
            for m in self.epoch.drain(..) {
                let sent = enqueue.call(on, || self.session.update_r(m));
                round.calls += 1;
                round.failed += u32::from(sent.is_err());
            }
            enqueue.record(rec, "session.update_r");
        }
        round.update_ns = at.elapsed().as_nanos() as u64;

        let at = Instant::now();
        let result = {
            let _span = rec.span("session.query");
            self.session.query(self.def.method)
        };
        round.query_ns = at.elapsed().as_nanos() as u64;
        round.calls += 1;
        match result {
            Ok(rows) => self.answer = rows,
            Err(_) => {
                round.failed += 1;
                self.answer.clear();
            }
        }

        if self.def.durable {
            let at = Instant::now();
            let result = {
                let _span = rec.span("session.commit");
                self.session.commit()
            };
            round.commit_ns = at.elapsed().as_nanos() as u64;
            round.calls += 1;
            round.failed += u32::from(result.is_err());
        }
        round
    }

    fn verify(&mut self) -> bool {
        let mut got = std::mem::take(&mut self.answer);
        if self.sabotage == Some(Sabotage::CorruptAnswer) {
            if let Some(t) = got.first_mut() {
                t.key ^= 1;
            }
        }
        same_join(got, self.traffic.current(), &self.gen.s)
    }

    fn observe(&mut self) -> Result<Observation, String> {
        let report = self.session.report().map_err(|e| e.to_string())?;
        let pages_per_user_page = match &self.config.durable_dir {
            Some(dir) => {
                let params = &self.config.params;
                let user = params.pages_for(self.gen.r.len() as u64, 200)
                    + params.pages_for(self.gen.s.len() as u64, 200);
                dir_bytes(dir) as f64 / params.page_size as f64 / user.max(1) as f64
            }
            None => 0.0,
        };
        Ok(Observation {
            sim_secs: report.rollup.totals.time_secs(&self.config.params),
            metrics: report.rollup.metrics,
            pages_per_user_page,
        })
    }

    /// `serve_durable`: crash the server after the last acknowledged
    /// commit, recover from only what was flushed by then, and check the
    /// recovered answer against the mirror.
    fn finish(mut self: Box<Self>, rec: &Recorder) -> Epilogue {
        if !self.def.durable {
            return Epilogue::default();
        }
        let flushed = wal_lengths(&self.config);
        // Dropping the server without `sync` or a checkpoint is the crash.
        drop(self.server.take());
        // Killing a process leaves the OS cache intact, so discard by hand
        // whatever reached a log after the last acknowledged commit.
        for (path, len) in &flushed {
            if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
                let _ = file.set_len(*len);
            }
        }
        let mut epilogue = Epilogue { calls: 2, ..Epilogue::default() };
        let at = Instant::now();
        let recovered = {
            let _span = rec.span("server.recover");
            Server::recover(&self.config)
        };
        epilogue.recovery_s = Some(at.elapsed().as_secs_f64());
        let answer = recovered
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|server| server.session().map_err(|e| e.to_string()))
            .and_then(|session| session.query(self.def.method).map_err(|e| e.to_string()));
        match answer {
            Ok(rows) => {
                epilogue.failed += u32::from(!same_join(rows, self.traffic.current(), &self.gen.s))
            }
            Err(_) => epilogue.failed += 2,
        }
        drop(recovered);
        if let Some(dir) = &self.config.durable_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        epilogue
    }
}
