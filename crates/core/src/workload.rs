//! Synthetic workload generation with exact selectivity control.
//!
//! The paper's evaluation family fixes `‖R‖ = ‖S‖ = 200 000`, `SS = SR`,
//! and `JS = 100·SR/‖R‖` — i.e. every matching `R` tuple has (on average)
//! 100 join partners. [`WorkloadSpec`] generalizes this: matching tuples
//! are organized in *groups* of `group_size` R-tuples and `group_size`
//! S-tuples sharing one join-key value (so each matching tuple has exactly
//! `group_size` partners), everything else gets unique unmatched keys.
//! With `group_size = 100` this is exactly the paper's family.
//!
//! [`UpdateStream`] then produces the paper's update model: each update
//! replaces one random `R` tuple (delete + insert, same surrogate); with
//! probability `Pr_A` the join attribute changes (to a random matched
//! group's key with the relation's matched fraction, else to a fresh
//! unmatched key), otherwise only the payload changes.

use rand::prelude::*;

use trijoin_common::{rng, BaseTuple, JoinKey, Surrogate};
use trijoin_exec::Update;
use trijoin_model::Workload;

/// Base of the unmatched-key range (far above any group key).
const UNMATCHED_BASE: JoinKey = 1 << 40;

/// Measure the analytical-model [`Workload`] of two raw tuple sets — the
/// data-driven counterpart of [`GeneratedWorkload::measured`] for callers
/// (serving shards, check engines) that hold tuples but no spec. All
/// statistics (`SR`, `SS`, `JS`, tuple sizes) come from the tuples
/// themselves; `pra` and `updates` are caller context the data can't know.
/// Degenerate inputs (an empty relation) yield zero selectivities, never
/// NaN.
pub fn measure_workload(r: &[BaseTuple], s: &[BaseTuple], pra: f64, updates: f64) -> Workload {
    let by_key = |tuples: &[BaseTuple]| {
        let mut m = std::collections::HashMap::new();
        for t in tuples {
            *m.entry(t.key).or_insert(0u64) += 1;
        }
        m
    };
    let rk = by_key(r);
    let sk = by_key(s);
    let mut join_tuples = 0u64;
    let mut matched_r = 0u64;
    for (k, &rc) in &rk {
        if let Some(&sc) = sk.get(k) {
            join_tuples += rc * sc;
            matched_r += rc;
        }
    }
    let matched_s: u64 = sk.iter().filter(|(k, _)| rk.contains_key(*k)).map(|(_, &c)| c).sum();
    // An empty side prices as bare headers so the page math stays finite.
    let tuple_bytes = |tuples: &[BaseTuple]| {
        tuples.first().map(|t| t.serialized_len() as f64).unwrap_or(BaseTuple::HEADER_BYTES as f64)
    };
    let nr = r.len() as f64;
    let ns = s.len() as f64;
    Workload {
        r_tuples: nr,
        s_tuples: ns,
        tr: tuple_bytes(r),
        ts: tuple_bytes(s),
        sr: trijoin_common::telemetry::safe_div(matched_r as f64, nr),
        ss: trijoin_common::telemetry::safe_div(matched_s as f64, ns),
        js: trijoin_common::telemetry::safe_div(join_tuples as f64, nr * ns),
        pra,
        updates,
    }
}

/// Specification of a synthetic scenario.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// `‖R‖`.
    pub r_tuples: u32,
    /// `‖S‖`.
    pub s_tuples: u32,
    /// Serialized tuple size for both relations (`T_R = T_S`).
    pub tuple_bytes: usize,
    /// Target semijoin selectivity `SR` (= `SS` by construction).
    pub sr: f64,
    /// Join partners per matching tuple (the paper's family uses 100).
    pub group_size: u32,
    /// `Pr_A` — probability an update changes the join attribute.
    pub pra: f64,
    /// `‖iR‖/‖R‖` — fraction of R updated between queries.
    pub update_rate: f64,
    /// RNG seed (all randomness derives from it).
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's Figure 4 family, scaled down by `scale` (e.g. `scale` =
    /// 10 gives ‖R‖ = ‖S‖ = 20 000). Group size shrinks with scale so the
    /// group count stays meaningful at small sizes.
    pub fn paper_scaled(scale: u32, sr: f64, update_rate: f64, pra: f64, seed: u64) -> Self {
        let n = 200_000 / scale.max(1);
        WorkloadSpec {
            r_tuples: n,
            s_tuples: n,
            tuple_bytes: 200,
            sr,
            group_size: (100 / scale.max(1)).max(2),
            pra,
            update_rate,
            seed,
        }
    }

    /// The scale the engine figures, ablations and examples run at: Table
    /// 7 shrunk 50× (‖R‖ = ‖S‖ = 4 000 tuples of 200 bytes), five partners
    /// per matching key.
    pub fn engine_scale(sr: f64, update_rate: f64, pra: f64, seed: u64) -> Self {
        WorkloadSpec {
            r_tuples: 4_000,
            s_tuples: 4_000,
            tuple_bytes: 200,
            sr,
            group_size: 5,
            pra,
            update_rate,
            seed,
        }
    }

    /// Like [`WorkloadSpec::generate`] but with Zipf-skewed group sizes:
    /// matched group `i` holds `⌈group_size/(i+1)^theta⌉` tuples per side
    /// (θ = 0 reduces to the uniform paper family; θ ≈ 1 is classic Zipf).
    /// Groups are added until the matched-tuple target `SR·‖R‖` is reached,
    /// so the semijoin selectivities stay on target while the *join*
    /// selectivity concentrates in the hot groups — the skew the paper's
    /// uniform-hash analysis never considers.
    pub fn generate_skewed(&self, theta: f64) -> GeneratedWorkload {
        assert!(theta >= 0.0);
        let target = (self.sr * self.r_tuples as f64).round().max(0.0) as u32;
        let g = self.group_size.max(1);
        let groups = (target / g).max(u32::from(target > 0)) as usize;
        if groups == 0 {
            return self.generate_with_sizes(&[]);
        }
        // Redistribute the same matched total over the same group count by
        // Zipf weights: the hot group grows, the tail thins.
        let weights: Vec<f64> = (0..groups).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let wsum: f64 = weights.iter().sum();
        let mut sizes: Vec<u32> =
            weights.iter().map(|w| ((target as f64) * w / wsum).floor().max(1.0) as u32).collect();
        // Fix rounding drift on the hottest group.
        let assigned: u32 = sizes.iter().sum();
        if assigned < target {
            sizes[0] += target - assigned;
        } else {
            let mut excess = assigned - target;
            for z in sizes.iter_mut() {
                let cut = excess.min(z.saturating_sub(1));
                *z -= cut;
                excess -= cut;
                if excess == 0 {
                    break;
                }
            }
        }
        self.generate_with_sizes(&sizes)
    }

    /// Generate the initial relations and the ground-truth bookkeeping.
    pub fn generate(&self) -> GeneratedWorkload {
        let g = self.group_size.max(1);
        let groups = (((self.sr * self.r_tuples as f64) / g as f64).round() as u32)
            .max(u32::from(self.sr > 0.0));
        let sizes = vec![g; groups as usize];
        self.generate_with_sizes(&sizes)
    }

    /// Shared generator: matched group `i` gets `sizes[i]` tuples on each
    /// side (capped by the relation sizes); the remainder is unmatched.
    fn generate_with_sizes(&self, sizes: &[u32]) -> GeneratedWorkload {
        assert!(self.r_tuples > 0 && self.s_tuples > 0);
        assert!((0.0..=1.0).contains(&self.sr));
        let groups = sizes.len() as u32;
        let mut rn = rng::seeded(rng::derive(self.seed, "generate"));

        // Matched keys: group j contributes sizes[j] tuples with key j on
        // each side; unmatched keys are unique values far above them.
        let mut matched_keys: Vec<JoinKey> = Vec::new();
        for (j, &z) in sizes.iter().enumerate() {
            matched_keys.extend(std::iter::repeat_n(j as JoinKey, z as usize));
        }
        let mut next_unmatched = UNMATCHED_BASE;
        let mut mk_side = |count: u32, rn: &mut StdRng| -> Vec<BaseTuple> {
            let matched = matched_keys.len().min(count as usize);
            let mut keys: Vec<JoinKey> = matched_keys[..matched].to_vec();
            while keys.len() < count as usize {
                keys.push(next_unmatched);
                next_unmatched += 1;
            }
            keys.shuffle(rn); // decorrelate surrogate order from key order
            keys.into_iter()
                .enumerate()
                .map(|(i, key)| BaseTuple::padded(Surrogate(i as u32), key, self.tuple_bytes))
                .collect()
        };
        let r = mk_side(self.r_tuples, &mut rn);
        let s = mk_side(self.s_tuples, &mut rn);

        GeneratedWorkload { spec: self.clone(), r, s, groups, next_unmatched }
    }
}

/// The generated relations plus ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// The spec this was generated from.
    pub spec: WorkloadSpec,
    /// Relation R's tuples.
    pub r: Vec<BaseTuple>,
    /// Relation S's tuples.
    pub s: Vec<BaseTuple>,
    /// Number of matched key groups.
    pub groups: u32,
    next_unmatched: JoinKey,
}

impl GeneratedWorkload {
    /// Exact achieved statistics, measured from the data (not the targets) —
    /// these feed the analytical model so engine and model price the same
    /// scenario.
    pub fn measured(&self) -> Workload {
        let updates = (self.spec.update_rate * self.r.len() as f64).round();
        measure_workload(&self.r, &self.s, self.spec.pra, updates)
    }

    /// Hash-partition both relations on the join attribute into `shards`
    /// disjoint sub-workloads (`(r_i, s_i)` pairs, shard-index order) using
    /// the engine-wide [`trijoin_common::shard_of_key`]. Because the join is
    /// an equi-join on that attribute, every joining pair lands in exactly
    /// one shard: the shard joins are exhaustive and pairwise disjoint, so a
    /// serving layer can answer `R ⋈ S` as the union of per-shard joins.
    pub fn partition(&self, shards: usize) -> Vec<(Vec<BaseTuple>, Vec<BaseTuple>)> {
        assert!(shards > 0, "partition: shard count must be positive");
        let mut parts = vec![(Vec::new(), Vec::new()); shards];
        for t in &self.r {
            parts[trijoin_common::shard_of_key(t.key, shards)].0.push(t.clone());
        }
        for t in &self.s {
            parts[trijoin_common::shard_of_key(t.key, shards)].1.push(t.clone());
        }
        parts
    }

    /// Open an update stream over the current R contents.
    pub fn update_stream(&self) -> UpdateStream {
        let seed = rng::derive(self.spec.seed, "updates");
        self.update_stream_over(self.r.clone(), seed, self.next_unmatched, 0)
    }

    /// Open the paper's update stream over `tuples` (any subset of `R`):
    /// drawn from `rng::seeded(seed)`, minting unmatched keys above
    /// `next_unmatched`, and writing payload `stamp | n` on its `n`-th
    /// update, so streams with disjoint stamps never write the same bytes.
    pub fn update_stream_over(
        &self,
        tuples: Vec<BaseTuple>,
        seed: u64,
        next_unmatched: JoinKey,
        stamp: u64,
    ) -> UpdateStream {
        UpdateStream {
            current: tuples,
            keys: self.key_draw(next_unmatched),
            pra: self.spec.pra,
            tuple_bytes: self.spec.tuple_bytes,
            rng: rng::seeded(seed),
            stamp,
            counter: 0,
        }
    }

    fn key_draw(&self, next_unmatched: JoinKey) -> KeyDraw {
        KeyDraw {
            groups: self.groups,
            matched_fraction: self.spec.sr.clamp(0.0, 1.0),
            next_unmatched,
        }
    }

    /// Number of updates one query epoch should apply (`‖iR‖`).
    pub fn updates_per_epoch(&self) -> u64 {
        (self.spec.update_rate * self.r.len() as f64).round() as u64
    }

    /// Open a general mutation stream (updates + inserts + deletes) over
    /// the current R contents.
    pub fn mutation_stream(&self, mix: MutationMix) -> MutationStream {
        MutationStream {
            current: self.r.iter().map(|t| (t.sur.0, t.clone())).collect(),
            live: self.r.iter().map(|t| t.sur.0).collect(),
            mix,
            keys: self.key_draw(self.next_unmatched),
            pra: self.spec.pra,
            tuple_bytes: self.spec.tuple_bytes,
            next_sur: self.r.iter().map(|t| t.sur.0 + 1).max().unwrap_or(0),
            rng: rng::seeded(rng::derive(self.spec.seed, "mutations")),
            counter: 0,
        }
    }
}

/// Relative weights of the three mutation kinds for a general stream —
/// the paper's future-work case of "arbitrary and possibly unequal sets of
/// insertions and deletions".
#[derive(Debug, Clone, Copy)]
pub struct MutationMix {
    /// Weight of in-place updates (the paper's traffic model).
    pub update: f64,
    /// Weight of fresh-tuple insertions.
    pub insert: f64,
    /// Weight of tuple deletions.
    pub delete: f64,
}

impl MutationMix {
    /// The paper's model: updates only.
    pub fn updates_only() -> Self {
        MutationMix { update: 1.0, insert: 0.0, delete: 0.0 }
    }

    /// A churn-heavy mix with unequal insert/delete rates.
    pub fn churn() -> Self {
        MutationMix { update: 0.5, insert: 0.3, delete: 0.2 }
    }
}

/// Generates an arbitrary mutation stream (updates, inserts, deletes) over
/// a live mirror of R.
pub struct MutationStream {
    current: std::collections::BTreeMap<u32, trijoin_common::BaseTuple>,
    /// The mirror's surrogates, densely packed in no particular order, so
    /// a victim is drawn by index.
    live: Vec<u32>,
    mix: MutationMix,
    keys: KeyDraw,
    pra: f64,
    tuple_bytes: usize,
    next_sur: u32,
    rng: StdRng,
    counter: u64,
}

impl MutationStream {
    /// Produce the next mutation (and advance the internal mirror). The
    /// stream never empties the relation: deletions are skipped (an update
    /// is produced instead) when fewer than two tuples remain.
    pub fn next_mutation(&mut self) -> trijoin_exec::Mutation {
        use trijoin_exec::Mutation;
        let total = self.mix.update + self.mix.insert + self.mix.delete;
        let roll = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        self.counter += 1;
        if roll < self.mix.insert {
            let sur = Surrogate(self.next_sur);
            self.next_sur += 1;
            let key = self.keys.draw(&mut self.rng);
            let t =
                BaseTuple::with_payload(sur, key, &self.counter.to_le_bytes(), self.tuple_bytes)
                    .expect("tuple size fits");
            self.current.insert(sur.0, t.clone());
            self.live.push(sur.0);
            return Mutation::Insert(t);
        }
        if roll < self.mix.insert + self.mix.delete && self.current.len() > 1 {
            let victim = self.pick_existing();
            let t = self.current.remove(&self.live.swap_remove(victim)).unwrap();
            return Mutation::Delete(t);
        }
        // Update (also the fallback when deletion would empty the mirror).
        let victim = self.pick_existing();
        let victim = self.live[victim];
        let old = self.current[&victim].clone();
        let new_key =
            if self.rng.gen_bool(self.pra) { self.keys.draw(&mut self.rng) } else { old.key };
        let new = BaseTuple::with_payload(
            Surrogate(victim),
            new_key,
            &self.counter.to_le_bytes(),
            self.tuple_bytes,
        )
        .expect("tuple size fits");
        self.current.insert(victim, new.clone());
        Mutation::Update(trijoin_exec::Update { old, new })
    }

    /// Index into `live` of a uniformly drawn tuple.
    fn pick_existing(&mut self) -> usize {
        self.rng.gen_range(0..self.live.len())
    }

    /// The mirror of R after all mutations so far (ground truth).
    pub fn current(&self) -> Vec<trijoin_common::BaseTuple> {
        self.current.values().cloned().collect()
    }

    /// Live tuple count.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// True when the mirror is empty (never happens via this stream).
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }
}

/// The key an A-changing mutation moves to: a random matched group's key
/// with the relation's matched fraction (keeping selectivities roughly
/// stationary), else a fresh unmatched key.
struct KeyDraw {
    groups: u32,
    matched_fraction: f64,
    next_unmatched: JoinKey,
}

impl KeyDraw {
    fn draw(&mut self, rng: &mut StdRng) -> JoinKey {
        if self.groups > 0 && rng.gen_bool(self.matched_fraction) {
            rng.gen_range(0..self.groups) as JoinKey
        } else {
            self.next_unmatched += 1;
            self.next_unmatched
        }
    }
}

/// Generates the paper's update model over a live mirror of R (or of the
/// slice of it one client owns).
pub struct UpdateStream {
    current: Vec<BaseTuple>,
    keys: KeyDraw,
    pra: f64,
    tuple_bytes: usize,
    rng: StdRng,
    stamp: u64,
    counter: u64,
}

impl UpdateStream {
    /// Produce the next update (and advance the internal mirror).
    pub fn next_update(&mut self) -> Update {
        let idx = self.rng.gen_range(0..self.current.len());
        let old = self.current[idx].clone();
        let new_key =
            if self.rng.gen_bool(self.pra) { self.keys.draw(&mut self.rng) } else { old.key };
        self.counter += 1;
        let payload = (self.stamp | self.counter).to_le_bytes();
        let new = BaseTuple::with_payload(old.sur, new_key, &payload, self.tuple_bytes)
            .expect("tuple size fits");
        self.current[idx] = new.clone();
        Update { old, new }
    }

    /// The mirror after all updates so far (ground truth for oracles).
    pub fn current(&self) -> &[BaseTuple] {
        &self.current
    }
}

/// The stream never ends: take an epoch's worth.
impl Iterator for UpdateStream {
    type Item = Update;

    fn next(&mut self) -> Option<Update> {
        Some(self.next_update())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn achieves_target_selectivities() {
        let spec = WorkloadSpec {
            r_tuples: 10_000,
            s_tuples: 10_000,
            tuple_bytes: 64,
            sr: 0.01,
            group_size: 10,
            pra: 0.1,
            update_rate: 0.05,
            seed: 7,
        };
        let gen = spec.generate();
        let m = gen.measured();
        assert!((m.sr - 0.01).abs() < 0.002, "sr = {}", m.sr);
        assert!((m.ss - 0.01).abs() < 0.002, "ss = {}", m.ss);
        // JS = sr·group/‖S‖: each matching pair group contributes g², so
        // join tuples = groups·g² = sr·‖R‖·g.
        let want_js = 0.01 * 10.0 / 10_000.0;
        assert!((m.js - want_js).abs() / want_js < 0.2, "js = {}", m.js);
        assert_eq!(m.updates, 500.0);
    }

    #[test]
    fn zero_selectivity_yields_empty_join() {
        let spec = WorkloadSpec {
            r_tuples: 500,
            s_tuples: 500,
            tuple_bytes: 48,
            sr: 0.0,
            group_size: 10,
            pra: 0.5,
            update_rate: 0.1,
            seed: 1,
        };
        let m = spec.generate().measured();
        assert_eq!(m.js, 0.0);
        assert_eq!(m.sr, 0.0);
    }

    #[test]
    fn full_selectivity_matches_everything() {
        let spec = WorkloadSpec {
            r_tuples: 400,
            s_tuples: 400,
            tuple_bytes: 48,
            sr: 1.0,
            group_size: 4,
            pra: 0.1,
            update_rate: 0.0,
            seed: 2,
        };
        let m = spec.generate().measured();
        assert!((m.sr - 1.0).abs() < 1e-9);
        assert!((m.js - 4.0 / 400.0).abs() < 1e-9, "every tuple has 4 partners");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec {
            r_tuples: 1000,
            s_tuples: 800,
            tuple_bytes: 64,
            sr: 0.05,
            group_size: 5,
            pra: 0.3,
            update_rate: 0.1,
            seed: 42,
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.r, b.r);
        assert_eq!(a.s, b.s);
        let mut ua = a.update_stream();
        let mut ub = b.update_stream();
        for _ in 0..50 {
            assert_eq!(ua.next_update(), ub.next_update());
        }
    }

    #[test]
    fn update_stream_respects_pra_statistically() {
        let spec = WorkloadSpec {
            r_tuples: 2000,
            s_tuples: 2000,
            tuple_bytes: 48,
            sr: 0.1,
            group_size: 5,
            pra: 0.25,
            update_rate: 0.5,
            seed: 9,
        };
        let gen = spec.generate();
        let mut stream = gen.update_stream();
        let n = 2000;
        let mut changed = 0;
        for _ in 0..n {
            let u = stream.next_update();
            assert_eq!(u.old.sur, u.new.sur);
            if u.changes_join_attr() {
                changed += 1;
            }
        }
        let frac = changed as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.05, "Pr_A fraction = {frac}");
        // The mirror tracks every update.
        assert_eq!(stream.current().len(), 2000);
    }

    #[test]
    fn surrogates_are_dense_and_unique() {
        let spec = WorkloadSpec {
            r_tuples: 300,
            s_tuples: 200,
            tuple_bytes: 48,
            sr: 0.2,
            group_size: 4,
            pra: 0.1,
            update_rate: 0.0,
            seed: 3,
        };
        let gen = spec.generate();
        let mut surs: Vec<u32> = gen.r.iter().map(|t| t.sur.0).collect();
        surs.sort_unstable();
        assert_eq!(surs, (0..300).collect::<Vec<u32>>());
    }

    #[test]
    fn skewed_generation_hits_selectivity_targets() {
        let spec = WorkloadSpec {
            r_tuples: 10_000,
            s_tuples: 10_000,
            tuple_bytes: 64,
            sr: 0.05,
            group_size: 50,
            pra: 0.1,
            update_rate: 0.0,
            seed: 13,
        };
        for theta in [0.0, 0.5, 1.0, 2.0] {
            let gen = spec.generate_skewed(theta);
            let m = gen.measured();
            assert!((m.sr - 0.05).abs() < 0.005, "theta={theta}: sr={}", m.sr);
            assert!((m.ss - 0.05).abs() < 0.005, "theta={theta}: ss={}", m.ss);
        }
        // Skew concentrates the join: at theta=2 the join selectivity is
        // dominated by the hot group, so JS drops well below uniform
        // (sum of z_i^2 with the same sum of z_i is maximized when equal...
        // no: sum z^2 is maximized by concentration). Verify it *rises*.
        let js_uniform = spec.generate_skewed(0.0).measured().js;
        let js_skewed = spec.generate_skewed(2.0).measured().js;
        assert!(js_skewed > js_uniform, "skew concentrates pairs: {js_skewed} vs {js_uniform}");
        // theta = 0 equals the uniform family.
        let a = spec.generate_skewed(0.0).measured();
        let b = spec.generate().measured();
        assert!((a.js - b.js).abs() < 1e-9);
    }

    #[test]
    fn partition_is_exhaustive_disjoint_and_join_preserving() {
        let spec = WorkloadSpec {
            r_tuples: 1_500,
            s_tuples: 1_200,
            tuple_bytes: 48,
            sr: 0.1,
            group_size: 6,
            pra: 0.2,
            update_rate: 0.05,
            seed: 21,
        };
        let gen = spec.generate();
        let whole = trijoin_exec::oracle::join_pairs(&gen.r, &gen.s);
        for shards in [1usize, 2, 4, 8] {
            let parts = gen.partition(shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(parts.iter().map(|(r, _)| r.len()).sum::<usize>(), gen.r.len());
            assert_eq!(parts.iter().map(|(_, s)| s.len()).sum::<usize>(), gen.s.len());
            // Tuples land where their key hashes, so per-shard joins are
            // exhaustive: the union of shard joins equals the whole join.
            let mut union = Vec::new();
            for (idx, (r_i, s_i)) in parts.iter().enumerate() {
                for t in r_i.iter().chain(s_i.iter()) {
                    assert_eq!(trijoin_common::shard_of_key(t.key, shards), idx);
                }
                union.extend(trijoin_exec::oracle::join_pairs(r_i, s_i));
            }
            let mut whole_sorted = whole.clone();
            whole_sorted.sort();
            union.sort();
            assert_eq!(union, whole_sorted, "{shards} shards lost or duplicated pairs");
        }
    }

    #[test]
    fn paper_scaled_family() {
        let spec = WorkloadSpec::paper_scaled(10, 0.01, 0.06, 0.1, 5);
        assert_eq!(spec.r_tuples, 20_000);
        assert_eq!(spec.group_size, 10);
        assert_eq!(spec.tuple_bytes, 200);
        let m = spec.generate().measured();
        // Scaled family keeps ‖V‖ = ‖R‖ at SR = 0.01 (group_size = 100/scale).
        let join = m.js * m.r_tuples * m.s_tuples;
        assert!((join - 20_000.0 * 0.01 * 10.0).abs() < 500.0, "join = {join}");
    }
}
