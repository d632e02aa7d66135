//! The serialized wire format requests and replies round-trip through.
//!
//! A serving tier is only a *tier* if something can sit on the other
//! side of a wire from it: this module pins the JSON encoding of
//! [`InferenceRequest`] and of a reply envelope ([`WireReply`]) that
//! carries either a full [`InferenceReply`] or a typed failure — so a
//! remote client sees the same [`RejectReason`] a local caller matches
//! on. The encoding is exercised end to end by the `loadgen` bench
//! (every generated request is encoded, decoded, then submitted) and
//! pinned by the round-trip proptests in `tests/wire_roundtrip.rs`.
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

use shenjing_core::{Error, RejectReason, Result};

use crate::server::{InferenceReply, InferenceRequest};

/// The reply envelope a serving endpoint writes back: one frame's full
/// reply, a typed admission rejection, or an execution failure rendered
/// as its message.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WireReply {
    /// The request was served; the full reply rides along.
    Reply(InferenceReply),
    /// Admission control or deadline enforcement refused the request;
    /// the typed reason survives the wire.
    Rejected(RejectReason),
    /// Execution failed; only the error's rendered message crosses the
    /// wire (the full [`Error`] enum carries non-serializable detail).
    Failed {
        /// The failure, as displayed by the error it came from.
        message: String,
    },
}

impl WireReply {
    /// Wraps a runtime verdict for the wire, preserving typed rejection
    /// reasons and collapsing other errors to their display form.
    pub fn from_result(result: Result<InferenceReply>) -> WireReply {
        match result {
            Ok(reply) => WireReply::Reply(reply),
            Err(Error::Rejected { reason }) => WireReply::Rejected(reason),
            Err(e) => WireReply::Failed { message: e.to_string() },
        }
    }

    /// Unwraps a decoded envelope back into a caller-side verdict.
    ///
    /// # Errors
    ///
    /// [`Rejected`](WireReply::Rejected) becomes
    /// [`Error::Rejected`] with the original reason;
    /// [`Failed`](WireReply::Failed) becomes
    /// [`Error::InvalidControl`] carrying the remote message.
    pub fn into_result(self) -> Result<InferenceReply> {
        match self {
            WireReply::Reply(reply) => Ok(reply),
            WireReply::Rejected(reason) => Err(Error::rejected(reason)),
            WireReply::Failed { message } => {
                Err(Error::InvalidControl { component: "remote runtime".into(), reason: message })
            }
        }
    }
}

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

/// Encodes a reply envelope for the wire.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when serialization fails.
pub fn encode_reply(reply: &WireReply) -> Result<String> {
    serde_json::to_string(reply).map_err(|e| Error::config(format!("encode reply: {e}")))
}

/// Decodes a reply envelope off the wire.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for malformed input.
pub fn decode_reply(json: &str) -> Result<WireReply> {
    serde_json::from_str(json).map_err(|e| Error::config(format!("decode reply: {e}")))
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
    fn rejection_reasons_survive_the_wire_typed() {
        for reason in [
            RejectReason::UnknownModel { id: "ghost".into() },
            RejectReason::QueueFull { limit: 64 },
            RejectReason::DeadlineExpired,
            RejectReason::ShuttingDown,
        ] {
            let envelope = WireReply::from_result(Err(Error::rejected(reason.clone())));
            let json = encode_reply(&envelope).unwrap();
            let back = decode_reply(&json).unwrap();
            assert_eq!(back, envelope);
            assert_eq!(back.into_result().unwrap_err().reject_reason(), Some(&reason));
        }
    }

    #[test]
    fn non_rejection_failures_collapse_to_messages() {
        let envelope = WireReply::from_result(Err(Error::config("boom")));
        let json = encode_reply(&envelope).unwrap();
        match decode_reply(&json).unwrap() {
            WireReply::Failed { message } => assert_eq!(message, "invalid configuration: boom"),
            other => panic!("expected Failed, got {other:?}"),
        }
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
        // A NaN submitted in process is refused at admission as
        // `OutOfBounds` (`server` tests); the envelope keeps its message.
        let refusal = Error::out_of_bounds("input 1 of model `m` is NaN, outside [0, 1]");
        let envelope = WireReply::from_result(Err(refusal.clone()));
        let back = decode_reply(&encode_reply(&envelope).unwrap()).unwrap();
        assert_eq!(back, WireReply::Failed { message: refusal.to_string() });
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(decode_request("{not json").is_err());
        assert!(decode_reply("42").is_err());
    }

    #[test]
    fn million_deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep_array = "[".repeat(1 << 20);
        let deep_object = "{\"input\":".repeat(1 << 20);
        for json in [&deep_array, &deep_object] {
            assert!(matches!(decode_request(json), Err(Error::InvalidConfig { .. })));
            assert!(matches!(decode_reply(json), Err(Error::InvalidConfig { .. })));
        }
    }
}
