//! Property tests for the wire protocol: tagged request/response
//! envelopes must round-trip through encode/decode for arbitrary
//! payloads, the incremental [`FrameBuffer`] must reassemble frames
//! identically no matter how the byte stream is chopped up, result rows
//! encoded in place must be the bytes of one `RowBatch` response per
//! batch, and no damaged row-batch frame may panic a decoder.

use proptest::prelude::*;

use skinner_server::protocol::{
    encode_row_batches, ErrorCode, FrameBuffer, FrameReader, QuerySummary, Request, Response,
    StatementSummary, BATCH_BYTES, ROWS_PER_BATCH,
};
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

/// Values at the edges of their types: `i64` extremes, NaN, −0.0,
/// infinities and subnormal floats (and any other bit pattern), the empty
/// string and multi-byte UTF-8.
fn arb_edge_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0i64), Just(-1i64)].prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        prop_oneof![
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(-0.0),
            Just(f64::NEG_INFINITY),
            Just(f64::from_bits(1)),
            Just(f64::MIN_POSITIVE / 3.0),
        ]
        .prop_map(Value::Float),
        prop_oneof![
            Just(""),
            Just("é"),
            Just("日本語"),
            Just("🦀 crab"),
            Just("a\u{0}b")
        ]
        .prop_map(Value::from),
        "\\PC{0,16}".prop_map(|s| Value::from(s.as_str())),
    ]
}

/// A result of `0..=2·ROWS_PER_BATCH + 3` rows, all of one width in `0..8`:
/// batches fill to the row limit, and end on both sides of it.
fn arb_result() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (0usize..8).prop_flat_map(|width| {
        proptest::collection::vec(
            proptest::collection::vec(arb_edge_value(), width),
            0..=2 * ROWS_PER_BATCH + 3,
        )
    })
}

/// A few rows carrying strings near the byte limit: two half-limit rows
/// fill a batch exactly, a byte more starts the next, and a row over the
/// limit goes in a frame of its own. Row overhead is 4 bytes, plus 5 per
/// string and 9 per int.
fn arb_wide_result() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let half = BATCH_BYTES / 2 - 4 - 5;
    let sized = |len: usize| {
        // Multi-byte characters right up to the end of the string.
        let mut s = "x".repeat(len - len % 4);
        s.push_str(&"é".repeat(len % 4 / 2));
        s.push_str(&"y".repeat(len % 2));
        Value::from(s.as_str())
    };
    let strings = [
        sized(half),
        sized(half + 1),
        sized(half - 9),
        sized(BATCH_BYTES - 9),
        sized(BATCH_BYTES + 1),
        sized(100),
    ];
    proptest::collection::vec(
        (0..strings.len(), any::<bool>()).prop_map(move |(i, with_int)| {
            let mut row = vec![strings[i].clone()];
            if with_int {
                row.push(Value::Int(i as i64));
            }
            row
        }),
        1..10,
    )
}

/// The frames of a result as one `RowBatch` response per batch plus
/// `Done`: the model the in-place encoder must match byte for byte.
fn model_frames(tag: Option<u32>, rows: &[Vec<Value>], done: &Response) -> Vec<u8> {
    let wrap = |resp: Response| match tag {
        Some(tag) => Response::Tagged {
            tag,
            resp: Box::new(resp),
        },
        None => resp,
    };
    let mut out = Vec::new();
    let mut batch: Vec<Vec<Value>> = Vec::new();
    let mut batch_bytes = 0;
    for row in rows {
        let row_bytes: usize = 4 + row
            .iter()
            .map(|v| match v {
                Value::Str(s) => 5 + s.len(),
                _ => 9,
            })
            .sum::<usize>();
        if !batch.is_empty()
            && (batch.len() >= ROWS_PER_BATCH || batch_bytes + row_bytes > BATCH_BYTES)
        {
            let rows = std::mem::take(&mut batch);
            wrap(Response::RowBatch { rows })
                .encode_framed(&mut out)
                .unwrap();
            batch_bytes = 0;
        }
        batch_bytes += row_bytes;
        batch.push(row.clone());
    }
    if !batch.is_empty() {
        wrap(Response::RowBatch { rows: batch })
            .encode_framed(&mut out)
            .unwrap();
    }
    wrap(done.clone()).encode_framed(&mut out).unwrap();
    out
}

/// A value's identity on the wire: NaN payloads and −0.0 included.
fn wire_identity(v: &Value) -> (u8, u64, &str) {
    match v {
        Value::Int(i) => (1, *i as u64, ""),
        Value::Float(x) => (2, x.to_bits(), ""),
        Value::Str(s) => (3, 0, s),
    }
}

/// Encode `rows` in place, check the bytes against the model, then read
/// them back as the client does and check every value bit for bit.
fn check_in_place_encoding(tag: Option<u32>, rows: &[Vec<Value>]) {
    let done = Response::Done {
        summary: QuerySummary {
            work_units: 17,
            wall_micros: 3,
            statements: vec![StatementSummary {
                rows: rows.len() as u64,
                ..StatementSummary::default()
            }],
        },
    };
    let mut bytes = Vec::new();
    encode_row_batches(&mut bytes, tag, rows).expect("encodes");
    let unwrapped = done.clone();
    match tag {
        Some(tag) => Response::Tagged {
            tag,
            resp: Box::new(unwrapped),
        },
        None => unwrapped,
    }
    .encode_framed(&mut bytes)
    .unwrap();
    let model = model_frames(tag, rows, &done);
    assert!(
        bytes == model,
        "in-place frames differ from the model ({} rows)",
        rows.len()
    );

    let mut reader = FrameReader::new(bytes.as_slice());
    let mut got: Vec<Vec<Value>> = Vec::new();
    loop {
        let resp = match (tag, reader.read_response().expect("frame decodes")) {
            (Some(tag), Response::Tagged { tag: t, resp }) if t == tag => *resp,
            (None, resp) => resp,
            (_, other) => panic!("frame outside the tag: {other:?}"),
        };
        match resp {
            Response::RowBatch { rows } => {
                assert!(!rows.is_empty() && rows.len() <= ROWS_PER_BATCH);
                got.extend(rows);
            }
            resp => {
                assert_eq!(resp, done);
                break;
            }
        }
    }
    assert_eq!(got.len(), rows.len());
    for (g, r) in got.iter().zip(rows) {
        let g: Vec<_> = g.iter().map(wire_identity).collect();
        let r: Vec<_> = r.iter().map(wire_identity).collect();
        assert_eq!(g, r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    /// In-place row batches are byte-identical to one `RowBatch` response
    /// per batch, tagged or not, and decode to the same rows.
    fn in_place_row_batches_match_per_batch_responses(
        tag in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        rows in arb_result(),
    ) {
        check_in_place_encoding(tag, &rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    /// The same at the byte limit: rows of strings around `BATCH_BYTES`.
    fn in_place_row_batches_split_at_the_byte_limit(
        tag in any::<u32>(),
        rows in arb_wide_result(),
    ) {
        check_in_place_encoding(Some(tag), &rows);
    }
}

/// Every truncation and every single-byte flip of a tagged row-batch
/// frame decodes to an error or to a response that re-encodes to the very
/// same bytes; none panics, through `Response::decode` or through the
/// client's `FrameReader`.
#[test]
fn damaged_row_batch_frames_never_panic() {
    let rows = vec![
        vec![
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::from("日本"),
            Value::Float(f64::NAN),
        ],
        vec![
            Value::Int(i64::MAX),
            Value::Float(f64::from_bits(1)),
            Value::from(""),
            Value::Int(-1),
        ],
        vec![],
    ];
    let mut frame = Vec::new();
    encode_row_batches(&mut frame, Some(0x0102_0304), &rows).unwrap();
    let payload = &frame[4..];
    let check = |payload: &[u8]| {
        if let Ok(resp) = Response::decode(payload) {
            assert_eq!(resp.encode().unwrap(), payload, "{resp:?}");
        }
    };
    for len in 0..payload.len() {
        assert!(
            Response::decode(&payload[..len]).is_err(),
            "prefix of {len} bytes"
        );
    }
    for len in 0..frame.len() {
        let mut reader = FrameReader::new(&frame[..len]);
        assert!(reader.read_response().is_err(), "frame cut at {len} bytes");
    }
    for at in 0..frame.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut damaged = frame.clone();
            damaged[at] ^= flip;
            check(&damaged[4..]);
            let _ = FrameReader::new(damaged.as_slice()).read_response();
        }
    }
}
