//! Property tests for the `fixd` wire protocol.
//!
//! The decoder is total: for *any* byte string — random garbage, a valid
//! frame with bytes flipped, a truncated prefix, or a frame whose length
//! fields lie — it must return a structured [`ProtoError`] or a valid
//! value, never panic, and never allocate proportionally to a length
//! field it has not yet validated against the actual payload size.

use proptest::prelude::*;

use fix_server::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, MAX_FRAME,
};
use fix_server::{ErrorCode, Request, Response, WireMetrics};

fn tenant_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z]{1,12}",
        // Tenant names are arbitrary UTF-8 on the wire.
        Just("tênant-☃".to_string()),
    ]
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "//[a-z]{1,8}/[a-z]{1,8}",
        "[a-z/☃{1,32}]{0,32}",
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        (tenant_strategy(), query_strategy())
            .prop_map(|(tenant, query)| Request::Query { tenant, query }),
    ]
}

fn error_code_strategy() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadQuery),
        Just(ErrorCode::NotCovered),
        Just(ErrorCode::Admission),
        Just(ErrorCode::Quota),
        Just(ErrorCode::Oversize),
        Just(ErrorCode::Malformed),
        Just(ErrorCode::Internal),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::Deadline),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        (
            prop::collection::vec((any::<u32>(), any::<u32>()), 0..24),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(
                |(results, entries, candidates, delta_candidates, producing, elapsed_ns)| {
                    Response::Hits {
                        results,
                        metrics: WireMetrics {
                            entries,
                            candidates,
                            delta_candidates,
                            producing,
                        },
                        elapsed_ns,
                    }
                }
            ),
        (error_code_strategy(), "\\PC{0,24}")
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

/// Strips the 4-byte length prefix `frame()` adds, returning the payload
/// the decoder sees.
fn payload(frame: &[u8]) -> &[u8] {
    assert!(frame.len() >= 4, "every encoded frame has a length prefix");
    let claimed = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(claimed, frame.len() - 4, "length prefix must be honest");
    &frame[4..]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity for every request.
    #[test]
    fn request_round_trips(req in request_strategy()) {
        let frame = encode_request(&req);
        prop_assert!(frame.len() <= MAX_FRAME + 4);
        let decoded = decode_request(payload(&frame)).expect("own encoding must decode");
        prop_assert_eq!(decoded, req);
    }

    /// Encode → decode is the identity for every response.
    #[test]
    fn response_round_trips(resp in response_strategy()) {
        let frame = encode_response(&resp);
        prop_assert!(frame.len() <= MAX_FRAME + 4);
        let decoded = decode_response(payload(&frame)).expect("own encoding must decode");
        prop_assert_eq!(decoded, resp);
    }

    /// Flipping bytes anywhere in a valid request payload yields either a
    /// different valid request or a structured error — never a panic.
    #[test]
    fn mutated_requests_never_panic(
        req in request_strategy(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let frame = encode_request(&req);
        let mut body = payload(&frame).to_vec();
        if body.is_empty() {
            return Ok(());
        }
        for (idx, xor) in flips {
            let i = idx.index(body.len());
            body[i] ^= xor;
        }
        let _ = decode_request(&body); // Ok or Err(ProtoError), both fine
    }

    /// Same for responses — including the hits vector, whose count field
    /// is the classic over-allocation vector.
    #[test]
    fn mutated_responses_never_panic(
        resp in response_strategy(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let frame = encode_response(&resp);
        let mut body = payload(&frame).to_vec();
        if body.is_empty() {
            return Ok(());
        }
        for (idx, xor) in flips {
            let i = idx.index(body.len());
            body[i] ^= xor;
        }
        let _ = decode_response(&body);
    }

    /// Every truncation of a valid payload decodes or fails structurally.
    /// Cutting inside the fixed header must fail (the bytes are simply
    /// not there); cuts inside a rest-of-frame field may legitimately
    /// produce a shorter valid value.
    #[test]
    fn truncations_are_structured(req in request_strategy(), resp in response_strategy()) {
        let req_frame = encode_request(&req);
        let req_body = payload(&req_frame);
        for cut in 0..req_body.len() {
            let _ = decode_request(&req_body[..cut]);
        }
        let resp_frame = encode_response(&resp);
        let resp_body = payload(&resp_frame);
        for cut in 0..resp_body.len() {
            let _ = decode_response(&resp_body[..cut]);
        }
    }

    /// A hits frame whose count field claims up to u32::MAX entries over
    /// a tiny actual payload is rejected *before* any allocation sized by
    /// the claim: decoding must fail fast, not OOM.
    #[test]
    fn hits_count_lies_are_rejected_without_allocation(
        claimed in 1u32..=u32::MAX,
        real_pairs in 0usize..4,
    ) {
        // Hand-build: opcode OP_HITS, claimed count, then only
        // `real_pairs` actual (u32, u32) entries and no trailer.
        let mut body = vec![fix_server::proto::OP_HITS];
        body.extend_from_slice(&claimed.to_le_bytes());
        for i in 0..real_pairs {
            body.extend_from_slice(&(i as u32).to_le_bytes());
            body.extend_from_slice(&(i as u32).to_le_bytes());
        }
        if (claimed as usize) > real_pairs {
            prop_assert!(decode_response(&body).is_err());
        }
    }

    /// The frame reader over an arbitrary byte stream never panics, never
    /// yields a payload larger than MAX_FRAME, and terminates.
    #[test]
    fn frame_reader_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut src: &[u8] = &bytes;
        let mut frames = 0usize;
        loop {
            match read_frame(&mut src) {
                Ok(None) => break,          // clean EOF at a boundary
                Ok(Some(Ok(p))) => {
                    prop_assert!(p.len() <= MAX_FRAME);
                    frames += 1;
                    prop_assert!(frames <= bytes.len() / 4 + 1);
                }
                Ok(Some(Err(_))) => break,  // structured protocol error
                Err(_) => break,            // torn frame / io error
            }
        }
    }

    /// A length prefix claiming more than MAX_FRAME is rejected before
    /// the reader ever tries to buffer it.
    #[test]
    fn oversize_length_claims_are_rejected(extra in (MAX_FRAME as u32 + 1)..=u32::MAX) {
        let mut bytes = extra.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        let mut src: &[u8] = &bytes;
        match read_frame(&mut src) {
            Ok(Some(Err(_))) => {}
            other => prop_assert!(false, "oversize claim must be structured, got {other:?}"),
        }
    }
}
