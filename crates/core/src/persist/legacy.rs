//! Everything only format versions 5–7 need. The reader proper decodes
//! the sections every version shares; this module supplies what an old
//! version could not carry, and steps over what it stored that is now
//! derived, in one hop:
//!
//! | version | what is filled in or stepped over |
//! |---|---|
//! | ≤ 6 | quantization [`QuantizationMode::Off`] |
//! | ≤ 7 | stepped over: the `index` section (v5, v6), the vector stored in every `signatures` record, `state`'s per-doc epochs |
//!
//! (The fixed-width integers of v5–v8 are not this module's: the
//! envelope's version hands the shared decoders a fixed-width reader.)
//! Dropping support for these saves is deleting this module and its
//! call site.

use fmeter_ir::codec::Width;
use serde::{Deserialize, Serialize, Value};

use super::{decode_slot, decode_slots, json_section, persist_err, QuantizationMode, RawSection};
use super::{Slot, State};
use crate::FmeterError;

/// Decodes a pre-v8 `state` object, appending the fields `version` had
/// no room for. Fields are looked up by name, so an object with extra
/// fields (every old state carries `doc_epoch`) decodes just the same.
fn fill_state(version: u32, mut state: Value) -> Result<State, FmeterError> {
    let Value::Object(fields) = &mut state else {
        return Err(FmeterError::Persist(format!(
            "legacy layout: expected a state object, found {}",
            state.kind()
        )));
    };
    if version < 7 {
        fields.push(("quantization".to_string(), QuantizationMode::Off.to_value()));
    }
    State::from_value(&state).map_err(|e| persist_err("legacy layout", e))
}

/// The `signatures` records and `state` section of a v5–v7 envelope,
/// whose sections `section` looks up by name. Each record leads with the
/// slot's stored vector — `dim`, `terms`, `values` — which is stepped
/// over.
pub(super) fn read<'a>(
    version: u32,
    section: &impl Fn(&str) -> Result<&'a RawSection<'a>, FmeterError>,
) -> Result<(Vec<Slot>, State), FmeterError> {
    let slots = decode_slots(section(super::SEC_SIGNATURES)?, Width::Fixed, |r| {
        r.get_usize()?;
        r.skip_array(4)?;
        r.skip_array(8)?;
        decode_slot(r)
    })?;
    let state = fill_state(version, json_section(section(super::SEC_STATE)?)?)?;
    Ok((slots, state))
}
