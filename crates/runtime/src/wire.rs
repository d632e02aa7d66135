//! The JSON request codec: how an [`InferenceRequest`] crosses a wire.
//!
//! This module pins the encoding of a request and refuses hostile
//! bytes on the way in — malformed JSON, a NaN pixel, a shape that
//! disagrees with its data, nesting deep enough to overflow a recursive
//! parser — as typed errors. Replies are not encoded: nothing reads
//! them off a wire. The codec is exercised end to end by the `loadgen`
//! bench and the repository benchmark (every generated request is
//! encoded, decoded, then submitted) and pinned by the round-trip
//! proptests in `tests/wire_roundtrip.rs`.
//!
//! ```
//! use shenjing_nn::Tensor;
//! use shenjing_runtime::wire;
//! use shenjing_runtime::InferenceRequest;
//!
//! let request = InferenceRequest::new("digits", Tensor::zeros(vec![4]));
//! let json = wire::encode_request(&request)?;
//! assert_eq!(wire::decode_request(&json)?, request);
//! # Ok::<(), shenjing_core::Error>(())
//! ```

use shenjing_core::{Error, Result};

use crate::server::InferenceRequest;

/// Encodes a request for the wire.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when serialization fails.
pub fn encode_request(request: &InferenceRequest) -> Result<String> {
    serde_json::to_string(request).map_err(|e| Error::config(format!("encode request: {e}")))
}

/// Decodes a request off the wire.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for malformed input, and
/// [`Error::ShapeMismatch`] for an input tensor whose shape does not
/// hold exactly its data (a shape whose product overflows included).
pub fn decode_request(json: &str) -> Result<InferenceRequest> {
    let request: InferenceRequest =
        serde_json::from_str(json).map_err(|e| Error::config(format!("decode request: {e}")))?;
    let (shape, len) = (request.input.shape(), request.input.len());
    if shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) != Some(len) {
        return Err(Error::shape_mismatch(
            format!("a shape holding {len} elements"),
            format!("shape {shape:?}"),
        ));
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn request_roundtrip_preserves_every_field() {
        let request = InferenceRequest::new(
            "cifar",
            shenjing_nn::Tensor::from_vec(vec![4], vec![0.0, 0.25, 0.5, 1.0]).unwrap(),
        )
        .with_deadline(Duration::from_micros(1_500))
        .with_priority(7);
        let json = encode_request(&request).unwrap();
        assert_eq!(decode_request(&json).unwrap(), request);
    }

    #[test]
    fn a_nan_pixel_never_crosses_the_wire_as_a_number() {
        // JSON has no NaN: the encoder writes one as `null`, and a frame
        // carrying `null` or a bare `NaN` decodes to a typed error, never
        // to a NaN pixel.
        let frame = shenjing_nn::Tensor::from_vec(vec![2], vec![0.5, f64::NAN]).unwrap();
        let json = encode_request(&InferenceRequest::new("m", frame)).unwrap();
        assert!(json.contains("[0.5,null]"), "{json}");
        for hostile in [json.clone(), json.replace("null", "NaN")] {
            let err = decode_request(&hostile).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig { .. }), "{hostile}: {err}");
        }
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(decode_request("{not json").is_err());
        assert!(decode_request("42").is_err());
    }

    #[test]
    fn million_deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep_array = "[".repeat(1 << 20);
        let deep_object = "{\"input\":".repeat(1 << 20);
        for json in [&deep_array, &deep_object] {
            assert!(matches!(decode_request(json), Err(Error::InvalidConfig { .. })));
        }
    }
}
