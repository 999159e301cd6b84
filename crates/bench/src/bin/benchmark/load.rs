//! The generated load: data shapes, the mixed mutation stream, and the
//! checksum that pins what the program is fed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trijoin::{GeneratedWorkload, SystemParams, Update, WorkloadSpec};
use trijoin_common::{BaseTuple, JoinKey, Surrogate};
use trijoin_exec::Mutation;

/// Size of one generated database.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// `‖R‖ = ‖S‖`.
    pub tuples: u32,
    /// Join partners per matching tuple.
    pub group: u32,
    /// `|M|` per engine.
    pub mem_pages: usize,
}

/// Base data ten times the memory budget: Table 7's ratio at 1/5 scale.
pub const CYCLE: Shape = Shape { tuples: 40_000, group: 20, mem_pages: 200 };
/// Everything resident, so the serving layer's own cost dominates.
pub const LIGHT: Shape = Shape { tuples: 4_000, group: 4, mem_pages: 1_000 };

impl Shape {
    /// Tuples 200 B, SR 0.01, Pr_A 0.1 on every workload.
    pub fn spec(&self, update_rate: f64, seed: u64, data_div: u32) -> WorkloadSpec {
        let tuples = (self.tuples / data_div).max(400);
        WorkloadSpec {
            r_tuples: tuples,
            s_tuples: tuples,
            tuple_bytes: 200,
            sr: 0.01,
            group_size: self.group,
            pra: 0.1,
            update_rate,
            seed,
        }
    }

    pub fn params(&self, data_div: u32) -> SystemParams {
        SystemParams {
            mem_pages: (self.mem_pages / data_div as usize).max(20),
            ..SystemParams::paper_defaults()
        }
    }
}

/// Unmatched keys minted by [`MixedStream`]: above the ranges the
/// program's own generators use (`1 << 40`, `1 << 41`).
const MIXED_UNMATCHED_BASE: JoinKey = 1 << 42;

/// Updates, inserts and deletes of `R` in the ratio 2 : 1 : 1 over a live
/// mirror. `core::MutationStream` draws the same kinds but picks its
/// victim in O(‖R‖), which at 40 000 tuples costs more than the round it
/// feeds; this stream picks in O(1).
pub struct MixedStream {
    mirror: Vec<BaseTuple>,
    groups: u32,
    matched_fraction: f64,
    pra: f64,
    tuple_bytes: usize,
    next_sur: u32,
    next_unmatched: JoinKey,
    counter: u64,
    rng: StdRng,
}

impl MixedStream {
    pub fn new(gen: &GeneratedWorkload) -> MixedStream {
        MixedStream {
            mirror: gen.r.clone(),
            groups: gen.groups,
            matched_fraction: gen.spec.sr,
            pra: gen.spec.pra,
            tuple_bytes: gen.spec.tuple_bytes,
            next_sur: gen.r.iter().map(|t| t.sur.0 + 1).max().unwrap_or(0),
            next_unmatched: MIXED_UNMATCHED_BASE,
            counter: 0,
            rng: StdRng::seed_from_u64(gen.spec.seed ^ 0x6d69_7865),
        }
    }

    fn fresh_key(&mut self) -> JoinKey {
        if self.groups > 0 && self.rng.gen_bool(self.matched_fraction) {
            self.rng.gen_range(0..self.groups as JoinKey)
        } else {
            self.next_unmatched += 1;
            self.next_unmatched
        }
    }

    fn tuple(&self, sur: u32, key: JoinKey) -> BaseTuple {
        BaseTuple::with_payload(Surrogate(sur), key, &self.counter.to_le_bytes(), self.tuple_bytes)
            .expect("an 8-byte stamp fits a 200-byte tuple")
    }

    pub fn next_mutation(&mut self) -> Mutation {
        self.counter += 1;
        let kind = self.rng.gen_range(0..4);
        if kind == 0 {
            let key = self.fresh_key();
            let t = self.tuple(self.next_sur, key);
            self.next_sur += 1;
            self.mirror.push(t.clone());
            return Mutation::Insert(t);
        }
        let at = self.rng.gen_range(0..self.mirror.len());
        if kind == 1 && self.mirror.len() > 1 {
            return Mutation::Delete(self.mirror.swap_remove(at));
        }
        let old = self.mirror[at].clone();
        let key = if self.rng.gen_bool(self.pra) { self.fresh_key() } else { old.key };
        let new = self.tuple(old.sur.0, key);
        self.mirror[at] = new.clone();
        Mutation::Update(Update { old, new })
    }

    /// `R` after every mutation so far.
    pub fn current(&self) -> &[BaseTuple] {
        &self.mirror
    }
}

/// Whether an update from `old_key` to `new_key` changes the join: the
/// generators give the matched groups the keys `0..groups`. The negative
/// check withholds such an update, since one to an unmatched tuple (99 %
/// of `R`) leaves every answer as it was.
pub fn touches_join(old_key: JoinKey, new_key: JoinKey, groups: u32) -> bool {
    old_key < groups as JoinKey || new_key < groups as JoinKey
}

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn tuple(&mut self, t: &BaseTuple) {
        self.bytes(&t.sur.0.to_le_bytes());
        self.bytes(&t.key.to_le_bytes());
        self.bytes(&t.payload);
    }

    pub fn mutation(&mut self, m: &Mutation) {
        match m {
            Mutation::Update(u) => {
                self.bytes(b"u");
                self.tuple(&u.old);
                self.tuple(&u.new);
            }
            Mutation::Insert(t) => {
                self.bytes(b"i");
                self.tuple(t);
            }
            Mutation::Delete(t) => {
                self.bytes(b"d");
                self.tuple(t);
            }
        }
    }
}

/// Mutations the load checksum covers.
pub const CHECKSUM_MUTATIONS: usize = 10_000;

/// FNV-64 over the generated `R`, `S` and the first
/// [`CHECKSUM_MUTATIONS`] mutations of a fresh stream.
pub fn checksum(gen: &GeneratedWorkload, mut next: impl FnMut() -> Mutation) -> u64 {
    let mut h = Fnv::new();
    for t in gen.r.iter().chain(gen.s.iter()) {
        h.tuple(t);
    }
    for _ in 0..CHECKSUM_MUTATIONS {
        h.mutation(&next());
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_stream_mirror_tracks_every_mutation() {
        let gen = LIGHT.spec(0.06, 7, 1).generate();
        let mut stream = MixedStream::new(&gen);
        let mut model: std::collections::BTreeMap<u32, BaseTuple> =
            gen.r.iter().map(|t| (t.sur.0, t.clone())).collect();
        let mut kinds = [0u32; 3];
        for _ in 0..4_000 {
            match stream.next_mutation() {
                Mutation::Update(u) => {
                    kinds[0] += 1;
                    assert_eq!(model.insert(u.new.sur.0, u.new), Some(u.old));
                }
                Mutation::Insert(t) => {
                    kinds[1] += 1;
                    assert!(model.insert(t.sur.0, t).is_none(), "fresh surrogate");
                }
                Mutation::Delete(t) => {
                    kinds[2] += 1;
                    assert_eq!(model.remove(&t.sur.0), Some(t));
                }
            }
        }
        let mut mirror = stream.current().to_vec();
        mirror.sort_by_key(|t| t.sur);
        assert_eq!(mirror, model.into_values().collect::<Vec<_>>());
        assert!(kinds[0] > 1_800 && kinds[1] > 850 && kinds[2] > 850, "2:1:1 mix, got {kinds:?}");
    }
}
