//! Property tests for the journal's record framing.
//!
//! Two properties, over arbitrary inputs:
//! 1. Encoding a sequence of store events and decoding the buffer yields
//!    the identical sequence (byte-for-byte after re-serialization).
//! 2. Any prefix of a valid log decodes *cleanly*: every record fully
//!    contained in the prefix comes back intact, and the cut surfaces as
//!    `End` (at a record boundary) or `Torn` (mid-record) — never
//!    `Corrupt`, and never a wrong record.
//!
//! Event payloads themselves: every event survives its binary record
//! (`StoreEvent::to_record` → `from_record`), JSON payloads of older
//! journals still decode, and hostile payload bytes give a typed error.

use proptest::prelude::*;
use semex_journal::record::{self, Decoded};
use semex_model::{AssocId, AttrId, ClassId, Value};
use semex_store::{ObjectId, SourceId, SourceInfo, SourceKind, StoreEvent};

/// A strategy over the id-carrying event variants (the variants carrying a
/// whole model or source registry are exercised by the recovery tests; for
/// framing, what matters is varied payload shapes and sizes).
fn event_strategy() -> impl Strategy<Value = StoreEvent> {
    prop_oneof![
        any::<u16>().prop_map(|c| StoreEvent::AddObject { class: ClassId(c) }),
        (any::<u64>(), any::<u16>(), ".{0,64}").prop_map(|(o, a, s)| StoreEvent::AddAttr {
            object: ObjectId(o),
            attr: AttrId(a),
            value: Value::from(s),
        }),
        (any::<u64>(), any::<u32>()).prop_map(|(o, s)| StoreEvent::AddSource {
            object: ObjectId(o),
            source: SourceId(s),
        }),
        (any::<u64>(), any::<u16>(), any::<u64>(), any::<u32>()).prop_map(|(s, a, o, src)| {
            StoreEvent::AddTriple {
                subject: ObjectId(s),
                assoc: AssocId(a),
                object: ObjectId(o),
                source: SourceId(src),
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(w, l)| StoreEvent::Merge {
            winner: ObjectId(w),
            loser: ObjectId(l),
        }),
    ]
}

/// Every event variant but `SyncModel`, with every value kind.
fn any_event() -> impl Strategy<Value = StoreEvent> {
    let value = prop_oneof![
        ".{0,64}".prop_map(Value::from),
        any::<i64>().prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        any::<i64>().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
    ];
    prop_oneof![
        event_strategy(),
        (any::<u64>(), any::<u16>(), value).prop_map(|(o, a, value)| StoreEvent::AddAttr {
            object: ObjectId(o),
            attr: AttrId(a),
            value,
        }),
        (".{0,40}", any::<bool>(), ".{0,40}").prop_map(|(name, located, at)| {
            let info = SourceInfo::new(name, SourceKind::Contacts);
            StoreEvent::RegisterSource {
                info: if located { info.at(at) } else { info },
            }
        }),
    ]
}

fn json(e: &StoreEvent) -> String {
    serde_json::to_string(e).unwrap()
}

/// Decode a whole buffer into payloads, returning the terminal state.
fn decode_all(buf: &[u8]) -> (Vec<Vec<u8>>, Decoded<'_>) {
    let mut rest = buf;
    let mut payloads = Vec::new();
    loop {
        match record::decode(rest) {
            Decoded::Record { payload, consumed } => {
                payloads.push(payload.to_vec());
                rest = &rest[consumed..];
            }
            terminal => return (payloads, terminal),
        }
    }
}

proptest! {
    /// Arbitrary event sequences survive encode → decode unchanged.
    #[test]
    fn events_round_trip(events in prop::collection::vec(event_strategy(), 0..40)) {
        let mut buf = Vec::new();
        let mut expected = Vec::new();
        for e in &events {
            let payload = serde_json::to_vec(e).unwrap();
            record::encode(&payload, &mut buf);
            expected.push(payload);
        }
        let (decoded, terminal) = decode_all(&buf);
        prop_assert_eq!(terminal, Decoded::End);
        prop_assert_eq!(&decoded, &expected);
        // And the payloads deserialize back to the same events.
        for (bytes, original) in decoded.iter().zip(&events) {
            let back: StoreEvent = serde_json::from_slice(bytes).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(original).unwrap()
            );
        }
    }

    /// Any prefix of a valid log decodes cleanly: intact records up to the
    /// cut, then End or Torn — never Corrupt, never a mangled record.
    #[test]
    fn every_prefix_decodes_cleanly(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..12),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for p in &payloads {
            record::encode(p, &mut buf);
            boundaries.push(buf.len());
        }
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        let prefix = &buf[..cut];
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();

        let (decoded, terminal) = decode_all(prefix);
        prop_assert_eq!(decoded.len(), complete, "records fully inside the prefix");
        for (d, p) in decoded.iter().zip(&payloads) {
            prop_assert_eq!(d, p);
        }
        if boundaries.contains(&cut) {
            prop_assert_eq!(terminal, Decoded::End, "cut on a record boundary");
        } else {
            prop_assert_eq!(terminal, Decoded::Torn, "cut mid-record");
        }
    }

    /// Binary event records round-trip every event, and are smaller than
    /// the JSON the journal used to store; JSON payloads still decode.
    #[test]
    fn event_records_round_trip(events in prop::collection::vec(any_event(), 1..20)) {
        for e in &events {
            let record = e.to_record().unwrap();
            let back = StoreEvent::from_record(&record).unwrap();
            prop_assert_eq!(json(&back), json(e));
            prop_assert!(record.len() < json(e).len());
            let old = StoreEvent::from_record(json(e).as_bytes()).unwrap();
            prop_assert_eq!(json(&old), json(e));
        }
    }

    /// Damaged records — any truncation, any single bit flip, any bytes
    /// after the marker — decode to a typed error or to some event, never
    /// a panic; a truncated record never decodes.
    #[test]
    fn hostile_event_records_never_panic(
        e in any_event(),
        cut_fraction in 0.0f64..1.0,
        flip in any::<u64>(),
        noise in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let record = e.to_record().unwrap();
        let cut = ((record.len() as f64) * cut_fraction) as usize;
        prop_assert!(StoreEvent::from_record(&record[..cut]).is_err());
        let mut flipped = record.clone();
        let bit = (flip % (flipped.len() as u64 * 8)) as usize;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = StoreEvent::from_record(&flipped);
        let mut hostile = vec![record[0]];
        hostile.extend(noise);
        let _ = StoreEvent::from_record(&hostile);
    }
}
