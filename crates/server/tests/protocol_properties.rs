//! Property tests for the wire protocol: tagged request/response
//! envelopes must round-trip through encode/decode for arbitrary
//! payloads, and the incremental [`FrameBuffer`] must reassemble frames
//! identically no matter how the byte stream is chopped up.

use proptest::prelude::*;

use skinner_server::protocol::{ErrorCode, FrameBuffer, QuerySummary, Request, Response};
use skinner_server::Value;

fn arb_inner_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Hello { version: 2 }),
        "\\PC{0,200}".prop_map(|sql| Request::Query { sql }),
        "\\PC{0,100}".prop_map(|sql| Request::Prepare { sql }),
        (0u32..1000).prop_map(|id| Request::Execute { id }),
        (0u32..1000).prop_map(|id| Request::Close { id }),
        ("[a-z_]{1,12}", "\\PC{0,40}").prop_map(|(key, value)| Request::Set { key, value }),
        (0u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(conn_id, key)| Request::Cancel { conn_id, key }),
        Just(Request::Shutdown),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1000i64..1000).prop_map(|x| Value::Float(x as f64 / 8.0)),
        "\\PC{0,24}".prop_map(|s| Value::from(s.as_str())),
    ]
}

fn arb_inner_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        (0u64..1000, 0u64..u64::MAX, 1u32..64).prop_map(|(conn_id, cancel_key, max_inflight)| {
            Response::HelloOk {
                version: 2,
                conn_id,
                cancel_key,
                max_inflight,
            }
        }),
        proptest::collection::vec("[a-z]{1,8}", 0..5)
            .prop_map(|columns| Response::RowHeader { columns }),
        proptest::collection::vec(proptest::collection::vec(arb_value(), 0..4), 0..6)
            .prop_map(|rows| Response::RowBatch { rows }),
        "\\PC{0,120}".prop_map(|text| Response::Text { text }),
        Just(Response::Done {
            summary: QuerySummary::default(),
        }),
        ("\\PC{0,80}").prop_map(|message| Response::Error {
            code: ErrorCode::Sql,
            message,
        }),
        (0u32..100, proptest::collection::vec("[a-z]{1,6}", 0..4))
            .prop_map(|(id, columns)| Response::PrepareOk { id, columns }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    /// Tagged requests round-trip for any tag (including 0 and u32::MAX)
    /// and any inner request.
    fn tagged_requests_roundtrip(tag in proptest::prelude::any::<u32>(), req in arb_inner_request()) {
        let wrapped = Request::Tagged { tag, req: Box::new(req) };
        let bytes = wrapped.encode().expect("encode");
        let back = Request::decode(&bytes).expect("decode");
        prop_assert_eq!(back, wrapped);
    }

    #[test]
    /// Tagged responses round-trip likewise.
    fn tagged_responses_roundtrip(tag in proptest::prelude::any::<u32>(), resp in arb_inner_response()) {
        let wrapped = Response::Tagged { tag, resp: Box::new(resp) };
        let bytes = wrapped.encode().expect("encode");
        let back = Response::decode(&bytes).expect("decode");
        prop_assert_eq!(back, wrapped);
    }

    #[test]
    /// A pipelined stream of tagged frames survives arbitrary TCP
    /// segmentation: chop the concatenated frames at random boundaries,
    /// feed the chunks through the event loop's FrameBuffer, and the
    /// reassembled frames must decode to the original sequence in order.
    fn frame_buffer_reassembles_any_segmentation(
        reqs in proptest::collection::vec((proptest::prelude::any::<u32>(), arb_inner_request()), 1..6),
        cuts in proptest::collection::vec(1usize..64, 0..12),
    ) {
        let originals: Vec<Request> = reqs
            .into_iter()
            .map(|(tag, req)| Request::Tagged { tag, req: Box::new(req) })
            .collect();
        let mut stream = Vec::new();
        for r in &originals {
            let payload = r.encode().expect("encode");
            stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            stream.extend_from_slice(&payload);
        }
        let mut buf = FrameBuffer::new();
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        let mut cut_ix = 0usize;
        while pos < stream.len() {
            let step = if cut_ix < cuts.len() { cuts[cut_ix] } else { stream.len() };
            cut_ix += 1;
            let end = (pos + step).min(stream.len());
            buf.ingest(&stream[pos..end]);
            pos = end;
            while let Some(payload) = buf.try_frame().expect("well-formed stream") {
                decoded.push(Request::decode(&payload).expect("decode"));
            }
        }
        prop_assert_eq!(decoded, originals);
    }
}
