//! Golden-byte pins of the wire format: one encoded frame per `Request`
//! and `Response` variant. A change to any byte here is a protocol change
//! and must bump `PROTOCOL_VERSION`; a codec refactor must leave every pin
//! as it is.

use skinner_server::protocol::{
    ErrorCode, ProfileSpan, QueryProfile, QuerySummary, Request, Response, StatementSummary,
};
use skinnerdb::Value;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The full frame (length prefix + payload) `write` puts on the wire.
fn request_frame(req: &Request) -> String {
    let mut out = Vec::new();
    req.write(&mut out).expect("encodes");
    hex(&out)
}

fn response_frame(resp: &Response) -> String {
    let mut out = Vec::new();
    resp.write(&mut out).expect("encodes");
    let mut framed = Vec::new();
    resp.encode_framed(&mut framed).expect("encodes");
    assert_eq!(out, framed, "write and encode_framed agree");
    hex(&out)
}

#[test]
fn request_frames_are_pinned() {
    let cases = [
        (Request::Hello { version: 2 }, "050000000102000000"),
        (
            Request::Tagged {
                tag: 0x0102_0304,
                req: Box::new(Request::Execute { id: 9 }),
            },
            "0a00000010040302010409000000",
        ),
        (
            Request::Query {
                sql: "SELECT 1".into(),
            },
            "0d000000020800000053454c4543542031",
        ),
        (
            Request::Prepare { sql: "é".into() },
            "070000000302000000c3a9",
        ),
        (Request::Execute { id: 7 }, "050000000407000000"),
        (Request::Close { id: 0xffff_ffff }, "0500000005ffffffff"),
        (
            Request::Set {
                key: "strategy".into(),
                value: "".into(),
            },
            "110000000608000000737472617465677900000000",
        ),
        (
            Request::Cancel {
                conn_id: 3,
                key: 0xdead_beef_0bad_f00d,
            },
            "110000000703000000000000000df0ad0befbeadde",
        ),
        (Request::Shutdown, "0100000008"),
        (
            Request::Profile { key: u64::MAX },
            "0900000009ffffffffffffffff",
        ),
    ];
    for (req, want) in cases {
        assert_eq!(request_frame(&req), want, "{req:?}");
    }
}

#[test]
fn response_frames_are_pinned() {
    let cases = [
        (
            Response::HelloOk {
                version: 2,
                conn_id: 5,
                cancel_key: 0x1122_3344_5566_7788,
                max_inflight: 32,
            },
            "1900000081020000000500000000000000887766554433221120000000",
        ),
        (
            Response::Tagged {
                tag: 41,
                resp: Box::new(Response::Ok),
            },
            "06000000902900000082",
        ),
        (Response::Ok, "0100000082"),
        (
            Response::PrepareOk {
                id: 1,
                columns: vec!["t.x".into(), "c".into()],
            },
            "1500000083010000000200000003000000742e780100000063",
        ),
        (
            Response::RowHeader {
                columns: vec!["a".into()],
            },
            "0a00000084010000000100000061",
        ),
        (
            Response::RowBatch {
                rows: vec![
                    vec![Value::Int(-5), Value::Float(2.75), Value::from("hé")],
                    vec![],
                ],
            },
            "2700000085020000000300000001fbffffffffffffff020000000000000640030300000068c3a900000000",
        ),
        (
            Response::Done {
                summary: QuerySummary {
                    work_units: 99,
                    wall_micros: 1_000,
                    statements: vec![StatementSummary {
                        rows: 10,
                        work_units: 44,
                        wall_micros: 17,
                        slices: 3,
                        order: vec![2, 0, 1],
                    }],
                },
            },
            "45000000866300000000000000e803000000000000010000000a000000000000002c000000000000001100000000000000030000000000000003000000020000000000000001000000",
        ),
        (Response::Text { text: "a\n".into() }, "070000008702000000610a"),
        (
            Response::Error {
                code: ErrorCode::TooLarge,
                message: "big".into(),
            },
            "0a00000088090003000000626967",
        ),
        (
            Response::Profile(QueryProfile {
                total_ns: 1_000_000,
                dropped: 1,
                spans: vec![ProfileSpan {
                    stage: "episodes".into(),
                    label: "[1,0]".into(),
                    start_ns: 10,
                    dur_ns: 20,
                    detail: 30,
                }],
            }),
            "420000008940420f000000000001000000000000000100000008000000657069736f646573050000005b312c305d0a0000000000000014000000000000001e00000000000000",
        ),
    ];
    for (resp, want) in cases {
        assert_eq!(response_frame(&resp), want, "{resp:?}");
    }
}
