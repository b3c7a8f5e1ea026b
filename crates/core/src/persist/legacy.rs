//! Everything only format versions 0–7 need. The reader proper decodes
//! the sections every version shares; this module supplies what an old
//! version could not carry, and steps over what it stored that is now
//! derived, in one hop:
//!
//! | version | what is filled in or stepped over |
//! |---|---|
//! | 0 | no envelope: the one bare JSON object is split by field name |
//! | ≤ 1 | vacuum policy [`VacuumPolicy::Never`], 0 lifetime vacuums |
//! | ≤ 2 | one shard |
//! | ≤ 5 | quantization [`QuantizationMode::Off`] |
//! | 6 | quantization read from the stored index section's mode tag |
//! | ≤ 7 | stepped over: the vector stored in every `signatures` record, `state`'s per-doc epochs |
//!
//! Dropping support for old saves is deleting this module and its two
//! call sites.

use fmeter_ir::codec::{CodecError, Reader};
use fmeter_ir::QuantizationMode;
use serde::{Deserialize, Serialize, Value};

use super::{
    decode_slot, decode_slots, json_section, persist_err, Parts, RawSection, SectionCodec,
    Sharding, Slot, State,
};
use crate::{FmeterError, VacuumPolicy};

/// The `index` section v1–v6 envelopes carry. Only v6's is looked at,
/// and only for its quantization tag.
const SEC_INDEX: &str = "index";

/// Decodes a pre-v8 `state` object, appending the fields `version` had
/// no room for (`quantization` is `None` for v7, which stores it).
/// Fields are looked up by name, so an object with extra fields (every
/// old state carries `doc_epoch`; the version-0 save is the whole
/// database) decodes just the same.
fn fill_state(
    version: u32,
    mut state: Value,
    quantization: Option<QuantizationMode>,
) -> Result<State, FmeterError> {
    let Value::Object(fields) = &mut state else {
        return Err(FmeterError::Persist(format!(
            "legacy layout: expected a state object, found {}",
            state.kind()
        )));
    };
    if version < 2 {
        fields.push(("vacuum_policy".to_string(), VacuumPolicy::Never.to_value()));
        fields.push(("vacuums".to_string(), 0u64.to_value()));
    }
    if let Some(quantization) = quantization {
        fields.push(("quantization".to_string(), quantization.to_value()));
    }
    State::from_value(&state).map_err(|e| persist_err("legacy layout", e))
}

/// Old `signatures` records as JSON objects: decoded by field name, so
/// the `vector` each stores is simply not asked for.
fn json_slots(records: Vec<Value>) -> Result<Vec<Slot>, FmeterError> {
    let slot = |v| {
        Ok((
            field(v, "label")?,
            field(v, "started_at")?,
            field(v, "ended_at")?,
        ))
    };
    records.iter().map(slot).collect()
}

/// The `signatures` records, `state` section and shard count of a v1–v7
/// envelope, whose sections `section` looks up by name. A binary record
/// (v5–v7) leads with the slot's stored vector — `dim`, `terms`,
/// `values` — which is stepped over.
pub(super) fn read<'a>(
    version: u32,
    section: &impl Fn(&str) -> Result<&'a RawSection<'a>, FmeterError>,
) -> Result<(Vec<Slot>, State, usize), FmeterError> {
    let signatures = section(super::SEC_SIGNATURES)?;
    let slots = match signatures.codec {
        SectionCodec::Json => json_slots(json_section(signatures)?)?,
        SectionCodec::Binary => decode_slots(signatures, |r| {
            r.get_usize()?;
            r.skip_array(4)?;
            r.skip_array(8)?;
            decode_slot(r)
        })?,
    };
    let quantization = match version {
        7 => None,
        6 => Some(v6_quantization(section(SEC_INDEX)?)?),
        _ => Some(QuantizationMode::Off),
    };
    let state = fill_state(
        version,
        json_section(section(super::SEC_STATE)?)?,
        quantization,
    )?;
    let num_shards = if version >= 3 {
        json_section::<Sharding>(section(super::SEC_SHARDING)?)?.num_shards
    } else {
        1
    };
    Ok((slots, state, num_shards))
}

/// Reads the quantization mode out of a v6 `index` section without
/// decoding the index: the mode is a one-byte tag behind the eleven
/// fields v5 already stored, so the walk steps over their length
/// prefixes (bounds-checked by [`Reader`]) and reads the tag.
fn v6_quantization(index: &RawSection<'_>) -> Result<QuantizationMode, FmeterError> {
    if index.codec != SectionCodec::Binary {
        return Err(FmeterError::Persist(
            "v6 index section is not binary".to_string(),
        ));
    }
    let tag = (|| -> Result<u8, CodecError> {
        let mut r = Reader::new(index.payload);
        r.get_usize()?; // dim
        r.skip_array(8)?; // offsets
        r.skip_array(4)?; // docs
        r.skip_array(8)?; // weights
        for _ in 0..r.array_len(1)? {
            // One tail posting list per term: docs, weights.
            r.skip_array(4)?;
            r.skip_array(8)?;
        }
        r.get_usize()?; // tail_len
        r.get_usize()?; // num_docs
        r.skip_array(8)?; // max_impact
        r.skip_array(1)?; // removed
        r.get_usize()?; // num_removed
        r.get_usize()?; // dead_unpurged
        r.get_u8()
    })()
    .map_err(|e| persist_err("section `index`", e))?;
    match tag {
        0 => Ok(QuantizationMode::Off),
        1 => Ok(QuantizationMode::Int8),
        t => Err(FmeterError::Persist(format!(
            "section `index`: invalid quantization mode tag {t:#04x}"
        ))),
    }
}

fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, FmeterError> {
    value
        .get_field(name)
        .and_then(T::from_value)
        .map_err(|e| persist_err("legacy layout", e))
}

/// Reads a pre-envelope (format version 0) save: one bare JSON object
/// holding every field of the old database struct.
pub(super) fn read_bare_json(bytes: &[u8]) -> Result<Parts, FmeterError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| persist_err("pre-envelope save is not UTF-8 JSON", e))?;
    let value: Value = serde_json::from_str(text)?;
    Ok(Parts {
        model: field(&value, "model")?,
        corpus: field(&value, "corpus")?,
        slots: json_slots(field(&value, "signatures")?)?,
        state: fill_state(0, value, Some(QuantizationMode::Off))?,
        num_shards: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_ir::codec::{put_f64s, put_u32s, put_u8, put_usize, put_usizes};

    /// The eleven v5 index fields of a 2-term, 3-doc index (one tail
    /// posting), followed by `tail` — where v6 put the mode tag.
    fn v6_index_prefix(tail: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_usize(&mut out, 2); // dim
        put_usizes(&mut out, &[0, 1, 2]); // offsets
        put_u32s(&mut out, &[0, 1]); // docs
        put_f64s(&mut out, &[1.0, 1.0]); // weights
        put_usize(&mut out, 2); // tail lists, one per term
        put_u32s(&mut out, &[2]);
        put_f64s(&mut out, &[1.0]);
        put_u32s(&mut out, &[]);
        put_f64s(&mut out, &[]);
        put_usize(&mut out, 1); // tail_len
        put_usize(&mut out, 3); // num_docs
        put_f64s(&mut out, &[1.0, 1.0]); // max_impact
        put_usize(&mut out, 3); // removed: count, then one byte each
        out.extend_from_slice(&[0, 0, 0]);
        put_usize(&mut out, 0); // num_removed
        put_usize(&mut out, 0); // dead_unpurged
        out.extend_from_slice(tail);
        out
    }

    fn index_section(payload: &[u8]) -> RawSection<'_> {
        RawSection {
            name: SEC_INDEX.to_string(),
            codec: SectionCodec::Binary,
            payload,
        }
    }

    #[test]
    fn v6_tag_walk_finds_the_mode_and_rejects_everything_else() {
        let tagged = |tag: u8| {
            let mut tail = Vec::new();
            put_u8(&mut tail, tag);
            // Whatever follows the tag (grids, block metadata) is not
            // looked at.
            tail.extend_from_slice(b"rest of the v6 extension");
            v6_index_prefix(&tail)
        };
        let mode = |tag: u8| v6_quantization(&index_section(&tagged(tag)));
        assert_eq!(mode(0).unwrap(), QuantizationMode::Off);
        assert_eq!(mode(1).unwrap(), QuantizationMode::Int8);
        match mode(7) {
            Err(FmeterError::Persist(msg)) => assert!(msg.contains("0x07"), "{msg}"),
            other => panic!("expected a Persist error, got {other:?}"),
        }
        // Every truncation of the walked prefix errors cleanly.
        let full = tagged(1);
        let tag_at = v6_index_prefix(&[]).len();
        for cut in 0..=tag_at {
            let short = index_section(&full[..cut]);
            assert!(v6_quantization(&short).is_err(), "cut at {cut}");
        }
        // A JSON-tagged v6 index cannot hold the binary tag.
        let json = RawSection {
            codec: SectionCodec::Json,
            ..index_section(&full)
        };
        assert!(v6_quantization(&json).is_err());
    }
}
