//! Deterministic multi-client update traffic.
//!
//! Concurrent clients make a serving run nondeterministic in general —
//! unless their write sets are disjoint. [`ClientTraffic::split`] carves
//! the generated relation `R` into per-client ownership classes by
//! surrogate residue (`sur % clients == index`): each client produces the
//! paper's update traffic (delete + insert, same surrogate, `Pr_A` chance
//! of a join-attribute change) over *its own* tuples only, minting
//! unmatched keys from a client-scoped range. Updates never move a tuple
//! between owners, so the final database state — and therefore every
//! query answer at a batch boundary — is independent of how the clients'
//! submissions interleave. Each client draws from its own derived RNG
//! stream ([`crate::ServeConfig::client_seed`]), making whole serving
//! runs bit-identical across reruns.

use trijoin::{GeneratedWorkload, UpdateStream};
use trijoin_common::{BaseTuple, JoinKey};
use trijoin_exec::{Mutation, Update};

use crate::config::ServeConfig;

/// Base of the client-scoped unmatched-key ranges: above the workload
/// generator's own unmatched range (which starts at `1 << 40`), and each
/// client gets a `2^24`-key slice of it.
const CLIENT_UNMATCHED_BASE: JoinKey = 1 << 41;

/// One client's deterministic update stream over its owned slice of `R`.
pub struct ClientTraffic {
    index: usize,
    stream: UpdateStream,
}

impl ClientTraffic {
    /// Split the workload's `R` into `clients` disjoint ownership classes
    /// and open one seeded traffic stream per client. Every client must
    /// own a tuple: `clients` is at most `‖R‖`.
    pub fn split(
        workload: &GeneratedWorkload,
        config: &ServeConfig,
        clients: usize,
    ) -> Vec<ClientTraffic> {
        assert!(clients > 0, "traffic: client count must be positive");
        let mut owned = vec![Vec::new(); clients];
        for t in &workload.r {
            owned[t.sur.0 as usize % clients].push(t.clone());
        }
        owned
            .into_iter()
            .enumerate()
            .map(|(index, tuples)| {
                assert!(
                    !tuples.is_empty(),
                    "traffic: client {index} owns no tuples ({clients} clients over {} R-tuples)",
                    workload.r.len()
                );
                let seed = config.client_seed(index);
                let next_unmatched = CLIENT_UNMATCHED_BASE + ((index as JoinKey) << 24);
                // Payloads encode (client, counter), so every write is unique.
                let stream =
                    workload.update_stream_over(tuples, seed, next_unmatched, (index as u64) << 32);
                ClientTraffic { index, stream }
            })
            .collect()
    }

    /// This client's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Produce the next update of an owned tuple (and advance the mirror).
    pub fn next_update(&mut self) -> Update {
        self.stream.next_update()
    }

    /// The next update as a general [`Mutation`].
    pub fn next_mutation(&mut self) -> Mutation {
        Mutation::Update(self.next_update())
    }

    /// This client's owned tuples in their current (post-update) state.
    pub fn current(&self) -> &[BaseTuple] {
        self.stream.current()
    }
}

/// Reassemble the ground-truth `R` from every client's mirror (ownership
/// classes partition the relation, so this is exact whatever order the
/// clients' updates reached the server in).
pub fn merged_current(streams: &[ClientTraffic]) -> Vec<BaseTuple> {
    let mut all: Vec<BaseTuple> =
        streams.iter().flat_map(ClientTraffic::current).cloned().collect();
    all.sort_by_key(|t| t.sur);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin::WorkloadSpec;
    use trijoin_common::SystemParams;

    fn workload() -> GeneratedWorkload {
        WorkloadSpec {
            r_tuples: 600,
            s_tuples: 500,
            tuple_bytes: 48,
            sr: 0.1,
            group_size: 5,
            pra: 0.3,
            update_rate: 0.1,
            seed: 17,
        }
        .generate()
    }

    fn config() -> ServeConfig {
        ServeConfig { seed: 99, ..ServeConfig::new(SystemParams::default(), 2) }
    }

    #[test]
    fn ownership_partitions_r_disjointly() {
        let w = workload();
        let streams = ClientTraffic::split(&w, &config(), 3);
        let total: usize = streams.iter().map(|s| s.current().len()).sum();
        assert_eq!(total, w.r.len());
        for s in &streams {
            for t in s.current() {
                assert_eq!(t.sur.0 as usize % 3, s.index());
            }
        }
        // Before any updates, the merged mirror is exactly R.
        let mut want = w.r.clone();
        want.sort_by_key(|t| t.sur);
        assert_eq!(merged_current(&streams), want);
    }

    #[test]
    fn updates_stay_within_ownership_and_mint_disjoint_keys() {
        let w = workload();
        let mut streams = ClientTraffic::split(&w, &config(), 4);
        for s in streams.iter_mut() {
            let index = s.index();
            for _ in 0..50 {
                let u = s.next_update();
                assert_eq!(u.old.sur, u.new.sur, "updates keep the surrogate");
                assert_eq!(u.new.sur.0 as usize % 4, index, "never leaves the owner");
                if u.new.key >= CLIENT_UNMATCHED_BASE {
                    let slice = (u.new.key - CLIENT_UNMATCHED_BASE) >> 24;
                    assert_eq!(slice as usize, index, "unmatched keys are client-scoped");
                }
            }
        }
    }

    /// Pins every byte a client writes: surrogate, key and payload stamp of
    /// both sides of the first 64 updates of each of three clients.
    #[test]
    fn client_traffic_is_pinned_byte_for_byte() {
        let w = workload();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for s in ClientTraffic::split(&w, &config(), 3).iter_mut() {
            for _ in 0..64 {
                let u = s.next_update();
                for t in [&u.old, &u.new] {
                    fnv(&t.sur.0.to_le_bytes());
                    fnv(&t.key.to_le_bytes());
                    fnv(&t.payload);
                }
            }
        }
        assert_eq!(h, 0x0274_7243_bc31_c922);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let w = workload();
        let mut a = ClientTraffic::split(&w, &config(), 2);
        let mut b = ClientTraffic::split(&w, &config(), 2);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            for _ in 0..30 {
                assert_eq!(x.next_update(), y.next_update());
            }
        }
        // A different root seed shifts every client's stream.
        let other = ServeConfig { seed: 100, ..config() };
        let mut c = ClientTraffic::split(&w, &other, 2);
        let diverged = (0..30).any(|_| a[0].next_update() != c[0].next_update());
        assert!(diverged);
    }
}
