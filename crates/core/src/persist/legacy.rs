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
//! | ≤ 6 | quantization [`QuantizationMode::Off`] |
//! | ≤ 7 | stepped over: the `index` section (v1–v6), the vector stored in every `signatures` record, `state`'s per-doc epochs |
//!
//! Dropping support for old saves is deleting this module and its two
//! call sites.

use serde::{Deserialize, Serialize, Value};

use super::{
    decode_slot, decode_slots, json_section, persist_err, Parts, QuantizationMode, RawSection,
    SectionCodec, Sharding, Slot, State,
};
use crate::{FmeterError, VacuumPolicy};

/// Decodes a pre-v8 `state` object, appending the fields `version` had
/// no room for. Fields are looked up by name, so an object with extra
/// fields (every old state carries `doc_epoch`; the version-0 save is
/// the whole database) decodes just the same.
fn fill_state(version: u32, mut state: Value) -> Result<State, FmeterError> {
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
    if version < 7 {
        fields.push(("quantization".to_string(), QuantizationMode::Off.to_value()));
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
    let state = fill_state(version, json_section(section(super::SEC_STATE)?)?)?;
    let num_shards = if version >= 3 {
        json_section::<Sharding>(section(super::SEC_SHARDING)?)?.num_shards
    } else {
        1
    };
    Ok((slots, state, num_shards))
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
        state: fill_state(0, value)?,
        num_shards: 1,
    })
}
