//! Fuzz-style round-trip properties for the serialization surfaces: the
//! self-describing row codec ([`codec::encode_row`]/[`codec::decode_row`])
//! and the fixed-layout tuple formats ([`BaseTuple`], [`ViewTuple`]). Two
//! claims, checked from both directions:
//!
//! - every value a writer can produce decodes back to exactly itself,
//!   including the edges (empty rows, empty fields, `u16::MAX`-length
//!   strings, zero-length payloads); and
//! - no byte sequence — arbitrary garbage or a truncation of a valid
//!   encoding — makes a decoder panic or allocate unboundedly: malformed
//!   input must come back as `Err`, never as a crash.

use proptest::prelude::*;

use trijoin_common::codec::{decode_row, encode_row, Value};
use trijoin_common::{BaseTuple, JiEntry, Surrogate, ViewTuple};

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Strings include the empty string and multi-byte characters;
        // lengths stay modest here, the u16::MAX edge has its own
        // deterministic test below.
        prop::collection::vec(
            prop_oneof![Just('a'), Just('Z'), Just('0'), Just(' '), Just('µ'), Just('→')],
            0..40,
        )
        .prop_map(|cs| Value::Str(cs.into_iter().collect())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Writer → reader is the identity, empty rows and fields included.
    #[test]
    fn row_codec_round_trips(row in prop::collection::vec(value(), 0..12)) {
        let bytes = encode_row(&row);
        prop_assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    /// Fixed-size tuples zero-pad their payloads; the decoder must ignore
    /// exactly that padding.
    #[test]
    fn row_codec_ignores_trailing_padding(
        row in prop::collection::vec(value(), 0..8),
        pad in 0usize..32,
    ) {
        let mut bytes = encode_row(&row);
        bytes.extend(std::iter::repeat_n(0u8, pad));
        prop_assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    /// Any strict prefix of an encoding cuts into the count header or a
    /// value body, so it must be rejected — and rejected with `Err`, not
    /// a panic or an out-of-bounds read.
    #[test]
    fn row_codec_rejects_truncations(row in prop::collection::vec(value(), 1..8)) {
        let bytes = encode_row(&row);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_row(&bytes[..cut]).is_err(),
                "prefix of {} / {} bytes decoded", cut, bytes.len()
            );
        }
    }

    /// Arbitrary bytes never panic the row decoder. (The interesting
    /// adversarial shapes — huge length prefixes, unknown tags, non-UTF-8
    /// strings — all occur in random bytes at these sizes.)
    #[test]
    fn row_codec_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_row(&bytes);
    }

    /// `BaseTuple`: `write_bytes` ≡ `to_bytes`, `from_bytes` inverts both,
    /// and truncation anywhere — header or payload — is an `Err`.
    #[test]
    fn base_tuple_round_trips(
        sur in any::<u32>(),
        key in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let tuple_bytes = BaseTuple::HEADER_BYTES + payload.len();
        let t = BaseTuple::with_payload(Surrogate(sur), key, &payload, tuple_bytes).unwrap();
        let bytes = t.to_bytes();
        prop_assert_eq!(bytes.len(), t.serialized_len());

        // The buffer-reuse path appends the identical bytes.
        let mut appended = vec![0xAA, 0xBB];
        t.write_bytes(&mut appended);
        prop_assert_eq!(&appended[2..], &bytes[..]);

        prop_assert_eq!(BaseTuple::from_bytes(&bytes).unwrap(), t);
        // Extra trailing bytes are tolerated (tuples are sliced out of pages)…
        let mut padded = bytes.clone();
        padded.push(0);
        prop_assert_eq!(BaseTuple::from_bytes(&padded).unwrap(), t);
        // …but any truncation is corruption.
        for cut in 0..bytes.len() {
            prop_assert!(BaseTuple::from_bytes(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    /// `ViewTuple` mirrors `BaseTuple`, with two independent payloads; a
    /// view tuple built by `join` carries both sides' bytes verbatim.
    #[test]
    fn view_tuple_round_trips(
        r_sur in any::<u32>(),
        s_sur in any::<u32>(),
        key in any::<u64>(),
        r_payload in prop::collection::vec(any::<u8>(), 0..64),
        s_payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let r = BaseTuple::with_payload(
            Surrogate(r_sur), key, &r_payload, BaseTuple::HEADER_BYTES + r_payload.len(),
        ).unwrap();
        let s = BaseTuple::with_payload(
            Surrogate(s_sur), key, &s_payload, BaseTuple::HEADER_BYTES + s_payload.len(),
        ).unwrap();
        let v = ViewTuple::join(&r, &s);
        prop_assert_eq!(&v.r_payload[..], &r_payload[..]);
        prop_assert_eq!(&v.s_payload[..], &s_payload[..]);

        let bytes = v.to_bytes();
        prop_assert_eq!(bytes.len(), v.serialized_len());
        let back = ViewTuple::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.ji_entry(), JiEntry { r: Surrogate(r_sur), s: Surrogate(s_sur) });
        for cut in 0..bytes.len() {
            prop_assert!(ViewTuple::from_bytes(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    /// Garbage never panics the tuple decoders either (a random header can
    /// claim any payload length up to `u16::MAX`; the bounds checks must
    /// hold it to the buffer).
    #[test]
    fn tuple_decoders_survive_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = BaseTuple::from_bytes(&bytes);
        let _ = ViewTuple::from_bytes(&bytes);
    }
}

/// The length prefix is a `u16`: a string of exactly `u16::MAX` bytes is
/// the largest legal field and must round-trip.
#[test]
fn max_length_string_round_trips() {
    let row = vec![Value::Str("x".repeat(u16::MAX as usize)), Value::Int(i64::MIN)];
    let bytes = encode_row(&row);
    assert_eq!(decode_row(&bytes).unwrap(), row);
}

/// Non-UTF-8 string bytes are corruption, not a panic.
#[test]
fn invalid_utf8_in_string_field_is_rejected() {
    let mut bytes = encode_row(&[Value::Str("ab".to_string())]);
    // Clobber the string body (count:2 + tag:1 + len:2 = offset 5) with an
    // invalid UTF-8 sequence.
    bytes[5] = 0xFF;
    bytes[6] = 0xFE;
    let err = decode_row(&bytes).unwrap_err();
    assert!(err.to_string().contains("UTF-8"), "{err}");
}

/// An unknown value tag names itself in the error.
#[test]
fn unknown_tag_is_rejected() {
    let mut bytes = encode_row(&[Value::Int(7)]);
    bytes[2] = 0x7F; // the tag byte of the first value
    let err = decode_row(&bytes).unwrap_err();
    assert!(err.to_string().contains("0x7f"), "{err}");
}

/// A length prefix pointing past the buffer is caught by the bounds check
/// even when the claimed length is maximal.
#[test]
fn oversized_length_prefix_is_rejected() {
    let mut bytes = encode_row(&[Value::Str("hi".to_string())]);
    let len_at = 3; // count:2 + tag:1
    bytes[len_at..len_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(decode_row(&bytes).is_err());
}
