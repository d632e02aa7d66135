//! Property: the request codec is an identity — any [`InferenceRequest`]
//! encodes to JSON and decodes back to an equal value.
//!
//! Whatever tensor payload, deadline budget, priority and model id a
//! client constructs, the runtime sees exactly that after the wire.
//! Random tensors and options pin it — and hostile bytes must come back
//! as typed errors, never as a panic.

use std::time::Duration;

use proptest::prelude::*;
use shenjing_nn::Tensor;
use shenjing_runtime::wire::{decode_request, encode_request};
use shenjing_runtime::InferenceRequest;

/// Model-id pool: empty-adjacent, unicode and plain ids all must survive.
const IDS: [&str; 4] = ["m", "mnist-mlp", "cifar_cnn", "zoo/résnet-20"];

proptest! {
    #[test]
    fn request_roundtrip_is_identity(
        len in 1usize..48,
        fill in proptest::collection::vec(0.0f64..1.0, 48),
        id_sel in 0usize..4,
        deadline_us in 0u64..10_000_000,
        has_deadline in proptest::prelude::any::<bool>(),
        priority in 0u8..=255,
        has_priority in proptest::prelude::any::<bool>(),
    ) {
        let input = Tensor::from_vec(vec![len], fill[..len].to_vec()).unwrap();
        let mut request = InferenceRequest::new(IDS[id_sel], input);
        if has_deadline {
            request = request.with_deadline(Duration::from_micros(deadline_us));
        }
        if has_priority {
            request = request.with_priority(priority);
        }
        let json = encode_request(&request).unwrap();
        let back = decode_request(&json).unwrap();
        prop_assert_eq!(back, request);
    }
}

/// A tensor's shape must hold exactly its data: the derived decoder
/// skips `Tensor::from_vec`'s check, so the wire makes it, overflowing
/// shapes included.
#[test]
fn a_shape_that_disagrees_with_its_data_is_a_typed_error() {
    let input = Tensor::from_vec(vec![1], vec![0.5]).unwrap();
    let valid = encode_request(&InferenceRequest::new("m", input)).unwrap();
    assert!(valid.contains(r#""shape":[1],"data":[0.5]"#), "{valid}");
    assert!(decode_request(&valid).is_ok());
    for shape in ["[2,2]", "[3]", "[0]", "[18446744073709551615,2]", "[4294967296,4294967296,1]"] {
        let hostile = valid.replace(r#""shape":[1]"#, &format!(r#""shape":{shape}"#));
        let err = decode_request(&hostile).unwrap_err();
        assert!(matches!(err, shenjing_core::Error::ShapeMismatch { .. }), "{hostile}: {err}");
    }
}

/// One valid request encoding, to truncate and mutate.
fn valid_encoding() -> String {
    let input = Tensor::from_vec(vec![3], vec![0.0, 0.5, 1.0]).unwrap();
    let request = InferenceRequest::new(IDS[3], input)
        .with_deadline(Duration::from_micros(1_500))
        .with_priority(7);
    encode_request(&request).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Hostile bytes — arbitrary, or a valid encoding truncated or with
    /// one byte overwritten — decode to `Ok` or a typed `Err`, never a
    /// panic.
    #[test]
    fn hostile_bytes_never_panic_the_decoders(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        cut in 0usize..1_000,
        at in 0usize..1_000,
        byte in any::<u8>(),
    ) {
        let bytes = valid_encoding().into_bytes();
        let mut mutated = bytes.clone();
        mutated[at % bytes.len()] = byte;
        for text in [&noise[..], &bytes[..cut % (bytes.len() + 1)], &mutated] {
            let _ = decode_request(&String::from_utf8_lossy(text));
        }
    }
}
