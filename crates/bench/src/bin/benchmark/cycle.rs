//! The `*_cycle` workloads: a bare `Database` and one strategy, driven
//! the way the paper's Figure 5 prices them — an epoch of updates to `R`,
//! then one full-join query.

use std::time::Instant;

use trijoin::{Database, GeneratedWorkload, JoinStrategy, Method, Update, UpdateStream};
use trijoin_common::ViewTuple;
use trijoin_exec::oracle;

use crate::load::{touches_join, CYCLE};
use crate::spans::{Busy, Recorder, Traced};
use crate::workload::{Epilogue, Instance, Observation, Round, Sabotage, Scale, CYCLE_ACTIVITY};

pub struct Cycle {
    gen: GeneratedWorkload,
    db: Database,
    strategy: Traced,
    stream: UpdateStream,
    epoch: Vec<Update>,
    answer: Vec<ViewTuple>,
    sabotage: Option<Sabotage>,
}

pub fn generate(seed: u64, scale: &Scale) -> GeneratedWorkload {
    CYCLE.spec(CYCLE_ACTIVITY, seed, scale.data_div).generate()
}

impl Cycle {
    pub fn setup(
        method: Method,
        seed: u64,
        scale: &Scale,
        sabotage: Option<Sabotage>,
        rec: &Recorder,
    ) -> Result<Cycle, String> {
        let gen = generate(seed, scale);
        let params = CYCLE.params(scale.data_div);
        let db = Database::new(&params, gen.r.clone(), gen.s.clone()).map_err(|e| e.to_string())?;
        let inner: Box<dyn JoinStrategy> = match method {
            Method::MaterializedView => {
                Box::new(db.materialized_view().map_err(|e| e.to_string())?)
            }
            Method::JoinIndex => Box::new(db.join_index().map_err(|e| e.to_string())?),
            Method::HybridHash => Box::new(db.hybrid_hash()),
        };
        // The paper does not price loading: the ledger starts at the
        // first round.
        db.reset_observability();
        Ok(Cycle {
            stream: gen.update_stream(),
            gen,
            db,
            strategy: Traced { inner, rec: rec.clone() },
            epoch: Vec::new(),
            answer: Vec::new(),
            sabotage,
        })
    }
}

impl Instance for Cycle {
    fn round(&mut self, _index: u32, rec: &Recorder) -> Round {
        let mut round = Round::default();
        let at = Instant::now();
        {
            let _span = rec.span("generate");
            self.epoch.clear();
            for _ in 0..self.gen.updates_per_epoch() {
                self.epoch.push(self.stream.next_update());
            }
        }
        round.gen_ns = at.elapsed().as_nanos() as u64;
        round.updates = self.epoch.len() as u32;
        if self.sabotage == Some(Sabotage::DropUpdate) {
            let groups = self.gen.groups;
            let at = self.epoch.iter().position(|u| touches_join(u.old.key, u.new.key, groups));
            if let Some(at) = at {
                self.epoch.remove(at);
            }
        }

        let on = rec.on();
        let at = Instant::now();
        {
            let _span = rec.span("update");
            let (mut log, mut apply) = (Busy::default(), Busy::default());
            for u in &self.epoch {
                let logged = log.call(on, || self.strategy.on_update(u));
                let applied = apply.call(on, || self.db.apply_r_update(u));
                round.calls += 2;
                round.failed += u32::from(logged.is_err()) + u32::from(applied.is_err());
            }
            log.record(rec, "strategy.on_update");
            apply.record(rec, "db.apply_r_update");
        }
        round.update_ns = at.elapsed().as_nanos() as u64;

        let at = Instant::now();
        let result = {
            let _span = rec.span("db.query");
            self.db.query(&mut self.strategy)
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
        round
    }

    fn verify(&mut self) -> bool {
        let mut got = oracle::canonicalize(std::mem::take(&mut self.answer));
        if self.sabotage == Some(Sabotage::CorruptAnswer) {
            if let Some(t) = got.first_mut() {
                t.key ^= 1;
            }
        }
        got == oracle::canonicalize(oracle::join_tuples(self.stream.current(), &self.gen.s))
    }

    fn observe(&mut self) -> Result<Observation, String> {
        let user_pages = self.db.r().data_pages() + self.db.s().data_pages();
        Ok(Observation {
            sim_secs: self.db.cost().total().time_secs(self.db.params()),
            metrics: self.db.run_report("benchmark").metrics,
            pages_per_user_page: self.db.disk().total_pages() as f64 / user_pages.max(1) as f64,
        })
    }

    fn finish(self: Box<Self>, _rec: &Recorder) -> Epilogue {
        Epilogue::default()
    }
}
