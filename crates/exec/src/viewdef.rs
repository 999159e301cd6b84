//! Select-project view definitions — the paper's §5 future work: "the
//! cost equations ... need to be augmented to account for the projectivity
//! of a join. In addition, the entire analysis should be generalized to
//! ... other additional operators like select".
//!
//! A [`ViewDef`] restricts the materialized view to
//! `V = π(σ_p(R) ⋈ σ_q(S))`:
//!
//! * **selections** are deterministic [`Predicate`]s over base tuples;
//!   maintenance translates base-relation mutations through them, so
//!   *irrelevant updates* (both states fail `p`) are detected at log time
//!   and cost nothing — the optimization of Blakeley, Coburn & Larson
//!   ("Updating derived relations: detecting irrelevant and autonomously
//!   computable updates", the paper's reference \[2\]);
//! * **projection** keeps only a payload prefix of each side, shrinking
//!   `T_V` and with it the dominant `F·|V|` read — exactly the lever the
//!   paper says makes the view's region grow.

use trijoin_common::{BaseTuple, ViewTuple};

use crate::strategy::Mutation;

/// A deterministic predicate over a base tuple.
///
/// Closures would be more flexible but not comparable/printable; this
/// small algebra covers selections on the join attribute and on fixed
/// payload bytes (the engine's payloads are opaque byte strings), and
/// composes with the usual connectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (no selection).
    True,
    /// Join attribute within `[lo, hi]`.
    KeyRange {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Payload byte at `index` is strictly less than `bound` (missing
    /// bytes fail).
    PayloadByteLt {
        /// Byte offset within the payload.
        index: usize,
        /// Exclusive upper bound.
        bound: u8,
    },
    /// Payload byte at `index` equals `value` (missing bytes fail).
    PayloadByteEq {
        /// Byte offset within the payload.
        index: usize,
        /// Required value.
        value: u8,
    },
    /// Negation.
    Not(Box<Predicate>),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a tuple.
    pub fn eval(&self, t: &BaseTuple) -> bool {
        match self {
            Predicate::True => true,
            Predicate::KeyRange { lo, hi } => (*lo..=*hi).contains(&t.key),
            Predicate::PayloadByteLt { index, bound } => {
                t.payload.get(*index).map(|&b| b < *bound).unwrap_or(false)
            }
            Predicate::PayloadByteEq { index, value } => {
                t.payload.get(*index).map(|&b| b == *value).unwrap_or(false)
            }
            Predicate::Not(p) => !p.eval(t),
            Predicate::And(a, b) => a.eval(t) && b.eval(t),
            Predicate::Or(a, b) => a.eval(t) || b.eval(t),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }
}

/// Definition of a select-project join view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// Selection on the `R` side.
    pub r_pred: Predicate,
    /// Selection on the `S` side.
    pub s_pred: Predicate,
    /// Keep only this many leading payload bytes of `R` tuples
    /// (`None` = full payload).
    pub r_project: Option<usize>,
    /// Keep only this many leading payload bytes of `S` tuples.
    pub s_project: Option<usize>,
}

impl Default for ViewDef {
    fn default() -> Self {
        ViewDef {
            r_pred: Predicate::True,
            s_pred: Predicate::True,
            r_project: None,
            s_project: None,
        }
    }
}

impl ViewDef {
    /// The full join (no selection, no projection).
    pub fn full() -> Self {
        Self::default()
    }

    /// True when this is the plain `R ⋈ S` of the paper's main analysis.
    pub fn is_full(&self) -> bool {
        *self == Self::default()
    }

    /// Construct the (projected) view tuple for a joining pair that has
    /// already passed both selections.
    pub fn make_view_tuple(&self, rt: &BaseTuple, st: &BaseTuple) -> ViewTuple {
        let cut = |payload: &[u8], keep: Option<usize>| -> Box<[u8]> {
            match keep {
                Some(k) if k < payload.len() => payload[..k].to_vec().into_boxed_slice(),
                _ => payload.to_vec().into_boxed_slice(),
            }
        };
        ViewTuple {
            r_sur: rt.sur,
            s_sur: st.sur,
            key: rt.key,
            r_payload: cut(&rt.payload, self.r_project),
            s_payload: cut(&st.payload, self.s_project),
        }
    }

    /// Serialized view-tuple size for base tuples of the given sizes.
    pub fn view_tuple_bytes(&self, r_bytes: usize, s_bytes: usize) -> usize {
        let r_payload = r_bytes - BaseTuple::HEADER_BYTES;
        let s_payload = s_bytes - BaseTuple::HEADER_BYTES;
        let rp = self.r_project.map(|k| k.min(r_payload)).unwrap_or(r_payload);
        let sp = self.s_project.map(|k| k.min(s_payload)).unwrap_or(s_payload);
        ViewTuple::HEADER_BYTES + rp + sp
    }

    /// Translate a base-relation mutation through the `R`-side selection:
    /// the view only needs to learn about states that satisfy `p`.
    /// Returns what should be logged; `(None, None)` is an *irrelevant*
    /// mutation that costs the view nothing.
    pub fn translate_r(&self, m: &Mutation) -> (Option<BaseTuple>, Option<BaseTuple>) {
        let keep = |t: Option<&BaseTuple>| t.filter(|t| self.r_pred.eval(t)).cloned();
        let (del, ins) = m.sides();
        (keep(del), keep(ins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Update;
    use trijoin_common::Surrogate;

    fn tup(key: u64, payload: &[u8]) -> BaseTuple {
        BaseTuple::with_payload(Surrogate(1), key, payload, 48).unwrap()
    }

    #[test]
    fn predicate_algebra() {
        let t = tup(10, &[5, 200]);
        assert!(Predicate::True.eval(&t));
        assert!(Predicate::KeyRange { lo: 10, hi: 10 }.eval(&t));
        assert!(!Predicate::KeyRange { lo: 11, hi: 20 }.eval(&t));
        assert!(Predicate::PayloadByteLt { index: 0, bound: 6 }.eval(&t));
        assert!(!Predicate::PayloadByteLt { index: 1, bound: 100 }.eval(&t));
        assert!(Predicate::PayloadByteEq { index: 1, value: 200 }.eval(&t));
        // Out-of-range byte index fails closed.
        assert!(!Predicate::PayloadByteEq { index: 500, value: 0 }.eval(&t));
        let p = Predicate::KeyRange { lo: 0, hi: 50 }
            .and(Predicate::Not(Box::new(Predicate::PayloadByteEq { index: 0, value: 9 })));
        assert!(p.eval(&t));
        let q = Predicate::Or(
            Box::new(Predicate::KeyRange { lo: 99, hi: 99 }),
            Box::new(Predicate::True),
        );
        assert!(q.eval(&t));
    }

    #[test]
    fn projection_sizes_and_tuples() {
        let def = ViewDef { r_project: Some(4), s_project: Some(0), ..ViewDef::default() };
        // 48-byte tuples: payload 34 bytes each side.
        assert_eq!(def.view_tuple_bytes(48, 48), ViewTuple::HEADER_BYTES + 4);
        let full = ViewDef::full();
        assert_eq!(full.view_tuple_bytes(48, 48), ViewTuple::HEADER_BYTES + 68);
        assert!(full.is_full());
        assert!(!def.is_full());

        let r = tup(3, b"abcdefgh");
        let s = tup(3, b"12345678");
        let vt = def.make_view_tuple(&r, &s);
        assert_eq!(&vt.r_payload[..], b"abcd");
        assert_eq!(&vt.s_payload[..], b"");
        assert_eq!(vt.key, 3);
        // Over-long projection keeps everything.
        let big = ViewDef { r_project: Some(10_000), ..ViewDef::default() };
        assert_eq!(big.make_view_tuple(&r, &s).r_payload.len(), 34);
    }

    #[test]
    fn mutation_translation_detects_irrelevant_updates() {
        let def = ViewDef { r_pred: Predicate::KeyRange { lo: 0, hi: 9 }, ..ViewDef::default() };
        let inside = tup(5, b"x");
        let outside = tup(50, b"y");
        // Irrelevant: both states outside the selection.
        let m = Mutation::Update(Update { old: outside.clone(), new: tup(60, b"z") });
        assert_eq!(def.translate_r(&m), (None, None));
        // Entering the view: insert-only.
        let m = Mutation::Update(Update { old: outside.clone(), new: inside.clone() });
        assert_eq!(def.translate_r(&m), (None, Some(inside.clone())));
        // Leaving the view: delete-only.
        let m = Mutation::Update(Update { old: inside.clone(), new: outside.clone() });
        assert_eq!(def.translate_r(&m), (Some(inside.clone()), None));
        // Staying inside: both sides logged.
        let inside2 = tup(7, b"w");
        let m = Mutation::Update(Update { old: inside.clone(), new: inside2.clone() });
        assert_eq!(def.translate_r(&m), (Some(inside.clone()), Some(inside2)));
        // Inserts/deletes filter too.
        assert_eq!(def.translate_r(&Mutation::Insert(outside.clone())), (None, None));
        assert_eq!(def.translate_r(&Mutation::Delete(inside.clone())), (Some(inside), None));
    }
}
