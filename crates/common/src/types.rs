//! Tuple types of the paper's data model.
//!
//! The paper's relations `R` and `S` carry a unique *surrogate* plus
//! attributes; the join is an equi-join on a common attribute `A`. The
//! execution engine represents a base tuple as surrogate + 64-bit join key +
//! opaque payload bytes (the remaining attributes), padded by the workload
//! generator so the serialized size equals the paper's `T_R`/`T_S`.
//!
//! Surrogates are 32-bit to match the paper's `ssur = 4` bytes, which in turn
//! makes the join-index entry exactly 8 bytes and `n_JI = 350` at Table 7
//! defaults — the same packing the analytical model assumes.

use crate::error::{Error, Result};

/// A tuple's unique, immutable identifier (`ssur` = 4 bytes per Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Surrogate(pub u32);

impl std::fmt::Display for Surrogate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:03}", self.0)
    }
}

/// The join attribute's domain. 64-bit so workload generators can embed
/// structure (group ids) and examples can store hashed strings.
pub type JoinKey = u64;

/// Deterministic 64-bit mixer used wherever the paper says `hash(A)`:
/// linear-hash bucket addressing, hybrid-hash partitioning, and the
/// sort-by-`hash(A)` of the materialized-view differential pipeline.
///
/// SplitMix64 finalizer — high quality, dependency-free, and stable across
/// runs (the whole simulator is deterministic).
#[inline]
pub fn hash_key(k: JoinKey) -> u64 {
    let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which of `shards` partitions a join key belongs to. The serving layer
/// hash-partitions both `R` and `S` on the join attribute with this one
/// function, which is what makes per-shard joins exhaustive and disjoint:
/// every joining pair shares a key, hence a shard, so
/// `R ⋈ S = ⋃ᵢ Rᵢ ⋈ Sᵢ` with no cross-shard pairs and no duplicates.
///
/// Uses the upper bits of [`hash_key`] so it stays decorrelated from the
/// low-bit bucket addressing of the linear-hash and hybrid-hash layers
/// (a shard-local hash table must not see all its keys collide).
#[inline]
pub fn shard_of_key(k: JoinKey, shards: usize) -> usize {
    assert!(shards > 0, "shard_of_key: shard count must be positive");
    // Multiply-shift range reduction on the high 32 bits: unbiased enough
    // for partitioning and avoids the modulo's low-bit sensitivity.
    (((hash_key(k) >> 32) * shards as u64) >> 32) as usize
}

/// A base-relation tuple: surrogate, join attribute, opaque payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BaseTuple {
    /// Unique identifier within the relation.
    pub sur: Surrogate,
    /// Value of the join attribute `A`.
    pub key: JoinKey,
    /// Remaining attributes, padded to the configured tuple size.
    pub payload: Box<[u8]>,
}

impl BaseTuple {
    /// Fixed serialization overhead: surrogate (4) + key (8) + length (2).
    pub const HEADER_BYTES: usize = 14;

    /// Build a tuple whose serialized size is exactly `tuple_bytes`
    /// (payload zero-padded). Panics if `tuple_bytes < HEADER_BYTES`.
    pub fn padded(sur: Surrogate, key: JoinKey, tuple_bytes: usize) -> Self {
        assert!(
            tuple_bytes >= Self::HEADER_BYTES,
            "tuple size {tuple_bytes} smaller than header {}",
            Self::HEADER_BYTES
        );
        BaseTuple {
            sur,
            key,
            payload: vec![0u8; tuple_bytes - Self::HEADER_BYTES].into_boxed_slice(),
        }
    }

    /// Like [`BaseTuple::padded`] but with caller-supplied payload bytes,
    /// zero-padded (or rejected if too long).
    pub fn with_payload(
        sur: Surrogate,
        key: JoinKey,
        payload: &[u8],
        tuple_bytes: usize,
    ) -> Result<Self> {
        let cap = tuple_bytes
            .checked_sub(Self::HEADER_BYTES)
            .ok_or_else(|| Error::Invariant("tuple size below header".into()))?;
        if payload.len() > cap {
            return Err(Error::PageOverflow { needed: payload.len(), available: cap });
        }
        let mut buf = vec![0u8; cap];
        buf[..payload.len()].copy_from_slice(payload);
        Ok(BaseTuple { sur, key, payload: buf.into_boxed_slice() })
    }

    /// Serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        Self::HEADER_BYTES + self.payload.len()
    }

    /// Serialize to bytes (layout: `sur | key | payload_len | payload`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_bytes(&mut out);
        out
    }

    /// Append the serialized form to `out` — the buffer-reuse path hot
    /// loops use to serialize many tuples without one `Vec` each.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.serialized_len());
        out.extend_from_slice(&self.sur.0.to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Deserialize from bytes produced by [`BaseTuple::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (sur, key, payload) = Self::parts_from_bytes(bytes)?;
        Ok(BaseTuple { sur, key, payload: payload.to_vec().into_boxed_slice() })
    }

    /// Decode the serialized form without materializing the payload: same
    /// validation and errors as [`BaseTuple::from_bytes`], but the payload
    /// stays a borrow into `bytes`. This is the scan-path decode — columnar
    /// batches copy the payload at most once, into an arena, instead of
    /// one boxed slice per visited tuple.
    pub fn parts_from_bytes(bytes: &[u8]) -> Result<(Surrogate, JoinKey, &[u8])> {
        if bytes.len() < Self::HEADER_BYTES {
            return Err(Error::Corrupt(format!(
                "base tuple needs >= {} bytes, got {}",
                Self::HEADER_BYTES,
                bytes.len()
            )));
        }
        let sur = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let key = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let plen = u16::from_le_bytes(bytes[12..14].try_into().unwrap()) as usize;
        if bytes.len() < Self::HEADER_BYTES + plen {
            return Err(Error::Corrupt(format!(
                "base tuple payload truncated: want {plen}, have {}",
                bytes.len() - Self::HEADER_BYTES
            )));
        }
        Ok((Surrogate(sur), key, &bytes[14..14 + plen]))
    }
}

/// A materialized-view tuple: the concatenation of a joining `R` tuple and
/// `S` tuple (the paper's `V = R ⋈ S`, full projection).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewTuple {
    /// Surrogate of the contributing `R` tuple.
    pub r_sur: Surrogate,
    /// Surrogate of the contributing `S` tuple.
    pub s_sur: Surrogate,
    /// The (shared) join-attribute value.
    pub key: JoinKey,
    /// Payload of the `R` side.
    pub r_payload: Box<[u8]>,
    /// Payload of the `S` side.
    pub s_payload: Box<[u8]>,
}

impl ViewTuple {
    /// Fixed serialization overhead: 2 surrogates (8) + key (8) + 2 lengths (4).
    pub const HEADER_BYTES: usize = 20;

    /// Combine an `R` tuple and an `S` tuple that join on the same key.
    pub fn join(r: &BaseTuple, s: &BaseTuple) -> Self {
        debug_assert_eq!(r.key, s.key, "view tuple from non-joining pair");
        Self::from_parts(r.sur, s.sur, r.key, &r.payload, &s.payload)
    }

    /// Combine decoded halves without intermediate [`BaseTuple`]s — the
    /// columnar probe loops emit matches straight from borrowed payloads.
    pub fn from_parts(
        r_sur: Surrogate,
        s_sur: Surrogate,
        key: JoinKey,
        r_payload: &[u8],
        s_payload: &[u8],
    ) -> Self {
        ViewTuple { r_sur, s_sur, key, r_payload: r_payload.into(), s_payload: s_payload.into() }
    }

    /// Serialized size in bytes (the paper's `T_V ≈ T_R + T_S`).
    pub fn serialized_len(&self) -> usize {
        Self::HEADER_BYTES + self.r_payload.len() + self.s_payload.len()
    }

    /// Serialize (layout: `r_sur | s_sur | key | rlen | slen | r | s`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_bytes(&mut out);
        out
    }

    /// Append the serialized form to `out` (buffer-reuse path).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.serialized_len());
        out.extend_from_slice(&self.r_sur.0.to_le_bytes());
        out.extend_from_slice(&self.s_sur.0.to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&(self.r_payload.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.s_payload.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.r_payload);
        out.extend_from_slice(&self.s_payload);
    }

    /// Deserialize from bytes produced by [`ViewTuple::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < Self::HEADER_BYTES {
            return Err(Error::Corrupt("view tuple header truncated".into()));
        }
        let r_sur = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let s_sur = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let rlen = u16::from_le_bytes(bytes[16..18].try_into().unwrap()) as usize;
        let slen = u16::from_le_bytes(bytes[18..20].try_into().unwrap()) as usize;
        if bytes.len() < Self::HEADER_BYTES + rlen + slen {
            return Err(Error::Corrupt("view tuple payload truncated".into()));
        }
        Ok(ViewTuple {
            r_sur: Surrogate(r_sur),
            s_sur: Surrogate(s_sur),
            key,
            r_payload: bytes[20..20 + rlen].to_vec().into_boxed_slice(),
            s_payload: bytes[20 + rlen..20 + rlen + slen].to_vec().into_boxed_slice(),
        })
    }

    /// The (r, s) surrogate pair this view tuple derives from — exactly a
    /// join-index entry, which is how correctness of the three strategies is
    /// compared.
    pub fn ji_entry(&self) -> JiEntry {
        JiEntry { r: self.r_sur, s: self.s_sur }
    }
}

/// A join-index entry: the surrogate pair of a joining tuple pair
/// (Valduriez's join index; the paper's Table 4). Exactly `2·ssur` = 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JiEntry {
    /// Surrogate of the `R` tuple.
    pub r: Surrogate,
    /// Surrogate of the `S` tuple.
    pub s: Surrogate,
}

impl JiEntry {
    /// Size the model packs by (`n_JI`): two 4-byte surrogates.
    pub const BYTES: usize = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_tuple_roundtrip() {
        let t = BaseTuple::with_payload(Surrogate(17), 0xDEAD_BEEF, b"hello", 64).unwrap();
        assert_eq!(t.serialized_len(), 64);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), 64);
        let back = BaseTuple::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(&back.payload[..5], b"hello");
        assert!(back.payload[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn base_tuple_padded_exact_size() {
        let t = BaseTuple::padded(Surrogate(1), 42, 200);
        assert_eq!(t.serialized_len(), 200);
        assert_eq!(t.to_bytes().len(), 200);
    }

    #[test]
    fn base_tuple_rejects_oversized_payload() {
        let err = BaseTuple::with_payload(Surrogate(0), 0, &[1u8; 100], 50).unwrap_err();
        assert!(matches!(err, Error::PageOverflow { .. }));
    }

    #[test]
    fn base_tuple_rejects_truncation() {
        let t = BaseTuple::padded(Surrogate(9), 7, 40);
        let bytes = t.to_bytes();
        assert!(BaseTuple::from_bytes(&bytes[..10]).is_err());
        assert!(BaseTuple::from_bytes(&bytes[..20]).is_err());
    }

    #[test]
    fn view_tuple_roundtrip_and_size() {
        let r = BaseTuple::padded(Surrogate(13), 99, 200);
        let s = BaseTuple::padded(Surrogate(30), 99, 200);
        let v = ViewTuple::join(&r, &s);
        // T_V = 20 + 186 + 186 = 392 ≈ T_R + T_S = 400.
        assert_eq!(v.serialized_len(), 392);
        let back = ViewTuple::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.ji_entry(), JiEntry { r: Surrogate(13), s: Surrogate(30) });
    }

    #[test]
    fn hash_key_is_deterministic_and_spreads() {
        assert_eq!(hash_key(42), hash_key(42));
        assert_ne!(hash_key(0), hash_key(1));
        // Low bits of consecutive keys should differ (bucket addressing
        // relies on this).
        let mut low_bits = std::collections::HashSet::new();
        for k in 0..64u64 {
            low_bits.insert(hash_key(k) & 0xFF);
        }
        assert!(low_bits.len() > 32, "hash low bits too clustered");
    }

    #[test]
    fn shard_of_key_is_total_and_balanced() {
        for shards in [1usize, 2, 3, 4, 8] {
            let mut counts = vec![0u32; shards];
            for k in 0..4096u64 {
                let s = shard_of_key(k, shards);
                assert!(s < shards);
                counts[s] += 1;
            }
            let expect = 4096 / shards as u32;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    c > expect / 2 && c < expect * 2,
                    "shard {i}/{shards} got {c} of 4096 keys"
                );
            }
        }
        // Single shard degenerates to the unsharded engine.
        assert_eq!(shard_of_key(0xDEAD_BEEF, 1), 0);
    }

    #[test]
    fn surrogate_ordering_matches_u32() {
        assert!(Surrogate(1) < Surrogate(2));
        assert_eq!(Surrogate(7).to_string(), "007");
    }
}
