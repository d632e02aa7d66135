//! Property: the wire format is an identity — any [`InferenceRequest`]
//! or [`WireReply`] encodes to JSON and decodes back to an equal value.
//!
//! The serving tier's remote story rests on this: whatever tensor
//! payload, deadline budget, priority and model id a client constructs,
//! the runtime sees exactly that after the wire, and the client sees
//! exactly the runtime's verdict (including typed rejection reasons)
//! after the reply hop. Random tensors, options and reply shapes pin
//! both directions.

use std::time::Duration;

use proptest::prelude::*;
use shenjing_core::RejectReason;
use shenjing_nn::Tensor;
use shenjing_runtime::wire::{
    decode_reply, decode_request, encode_reply, encode_request, WireReply,
};
use shenjing_runtime::{InferenceReply, InferenceRequest};
use shenjing_snn::SnnOutput;

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

    #[test]
    fn reply_roundtrip_is_identity(
        spikes in proptest::collection::vec(0u32..500, 6),
        latency_ns in 0u64..5_000_000_000,
        worker in 0usize..8,
        batch_size in 1usize..17,
        id_sel in 0usize..4,
        shape in 0usize..3,
        queue_limit in 1usize..1024,
    ) {
        let output = SnnOutput {
            potentials: spikes.iter().map(|&s| i64::from(s) - 100).collect(),
            spikes_by_step: (0..3).map(|t| spikes.iter().map(|&s| s > t).collect()).collect(),
            spike_counts: spikes.clone(),
        };
        let envelope = match shape {
            0 => WireReply::Reply(InferenceReply {
                model_id: IDS[id_sel].to_string(),
                predicted: output.predicted_class(),
                output,
                latency: Duration::from_nanos(latency_ns),
                // Queue wait is a portion of the end-to-end latency.
                queue_wait: Duration::from_nanos(latency_ns / 3),
                worker,
                batch_size,
                attempts: 1 + (batch_size % 3) as u32,
            }),
            1 => WireReply::Rejected(match worker % 4 {
                0 => RejectReason::UnknownModel { id: IDS[id_sel].to_string() },
                1 => RejectReason::QueueFull { limit: queue_limit },
                2 => RejectReason::DeadlineExpired,
                _ => RejectReason::ShuttingDown,
            }),
            _ => WireReply::Failed {
                message: format!("frame {worker} failed: {latency_ns}"),
                attempts: 1 + (worker % 3) as u32,
            },
        };
        let json = encode_reply(&envelope).unwrap();
        let back = decode_reply(&json).unwrap();
        prop_assert_eq!(back, envelope);
    }
}
