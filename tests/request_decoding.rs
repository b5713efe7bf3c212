//! Request decoding, pinned and cross-checked.
//!
//! * `request_outcomes_are_pinned` decodes a fixed corpus of frames with
//!   `parse_request` and compares one line per frame with
//!   `tests/fixtures/expected_request_outcomes.txt`: `ok` plus the request
//!   with every f64 as its bit pattern, or `err` plus the exact message.
//!   The corpus holds every message `parse_request` can return, every
//!   syntax error the JSON lexer reports, free key order, repeated and
//!   escaped keys, number spellings, unknown keys holding nested values,
//!   nesting around `MAX_DEPTH`, and one valid `raw` frame cut at every
//!   byte. Regenerate after an intentional change with
//!
//!   ```text
//!   RIPQ_REGEN_GOLDEN=1 cargo test --test request_decoding
//!   ```
//!
//! * `decoder_matches_the_tree_walk` feeds generated frames to
//!   `parse_request` and to `tree_walk`, the decoder that parsed the
//!   whole document into a `json::Value` tree first and then walked it.
//!   That walk defines the protocol's semantics; it lives here only as
//!   the reference. Both must return the same request or the same error.
//!   The generator spells entries plainly most of the time and otherwise
//!   with whitespace, exponents, `+`, `-0`, leading zeros, 15- and
//!   16-digit times, ids around 2^32, the wrong item count, an item left
//!   out, or a cut just past a plain prefix.
//! * `accepted_numbers_equal_str_parse` checks the numbers themselves
//!   against `str::parse`, which shares no code with the JSON lexer that
//!   the decoder and the tree walk both read through: a fault in number
//!   lexing moves both of them alike, but not this test.
//! * `simulated_session_matches_the_tree_walk` decodes every `reading`
//!   and `raw` frame of a simulated 200-object, 120 s session, samples
//!   spelled `[61.05,123,4]` as the benchmark writes them, both ways.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq::core::continuous::SubscriptionKind;
use ripq::geom::{Point2, Rect};
use ripq::rfid::{ObjectId, RawReading, ReaderId, SensingModel};
use ripq::server::json::{self, Value, MAX_DEPTH};
use ripq::server::{parse_request, Request};
use ripq::sim::transcript::{record_transcript, TranscriptSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// A request with every f64 as its bit pattern, so two renderings are
/// equal exactly when the requests are bit-equal.
fn render_request(request: &Request) -> String {
    match request {
        Request::Readings { second, detections } => {
            let pairs: Vec<String> = detections
                .iter()
                .map(|(o, r)| format!("{}/{}", o.raw(), r.raw()))
                .collect();
            format!("reading second={second} detections=[{}]", pairs.join(","))
        }
        Request::Raw { second, samples } => {
            let samples: Vec<String> = samples
                .iter()
                .map(|s| format!("{}/{}/{}", bits(s.time), s.object.raw(), s.reader.raw()))
                .collect();
            format!("raw second={second} samples=[{}]", samples.join(","))
        }
        Request::Subscribe {
            sub,
            kind: SubscriptionKind::Range(rect),
        } => format!(
            "subscribe sub={sub} range=[{},{},{},{}]",
            bits(rect.min().x),
            bits(rect.min().y),
            bits(rect.max().x),
            bits(rect.max().y)
        ),
        Request::Subscribe {
            sub,
            kind: SubscriptionKind::Knn(point, k),
        } => format!(
            "subscribe sub={sub} point=[{},{}] k={k}",
            bits(point.x),
            bits(point.y)
        ),
        Request::Unsubscribe { sub } => format!("unsubscribe sub={sub}"),
        Request::Tick { second, budget } => format!("tick second={second} budget={budget:?}"),
        Request::Metrics => "metrics".to_string(),
        Request::Checkpoint => "checkpoint".to_string(),
        Request::Shutdown => "shutdown".to_string(),
    }
}

fn render_outcome(outcome: &Result<Request, String>) -> String {
    match outcome {
        Ok(request) => format!("ok {}", render_request(request)),
        Err(message) => format!("err {}", message.as_bytes().escape_ascii()),
    }
}

/// The frames the fixture pins, in fixture order.
fn corpus() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = [
        // Every op, as clients write it.
        &br#"{"op":"reading","second":3,"readings":[[1,2],[0,18]]}"#[..],
        br#"{"op":"reading","second":0,"readings":[]}"#,
        br#"{"op":"raw","second":2,"samples":[[2.5,1,4],[2.05,3,0],[2,7,7],[2.999999999999999,0,1]]}"#,
        br#"{"op":"raw","second":7,"samples":[]}"#,
        br#"{"op":"subscribe","sub":9,"range":[0,1,10,5]}"#,
        br#"{"op":"subscribe","sub":1,"point":[3.5,-2],"k":2}"#,
        br#"{"op":"unsubscribe","sub":9}"#,
        br#"{"op":"tick","second":8}"#,
        br#"{"op":"tick","second":8,"budget":150}"#,
        br#"{"op":"tick","second":8,"budget":0}"#,
        br#"{"op":"metrics"}"#,
        br#"{"op":"checkpoint"}"#,
        br#"{"op":"shutdown"}"#,
        // Key order is free, a repeated key keeps its last value, and keys
        // and ops may be escaped.
        br#"{"readings":[[1,2]],"second":3,"op":"reading"}"#,
        br#"{"samples":[[4.5,1,2]],"op":"raw","second":4}"#,
        br#"{"samples":[[4.5,1,2]],"second":5,"op":"raw"}"#,
        br#"{"k":4,"point":[1,2],"sub":3,"op":"subscribe"}"#,
        br#"{"budget":7,"second":2,"op":"tick"}"#,
        br#"{"op":"tick","second":1,"second":2}"#,
        br#"{"op":"warp","second":1,"op":"tick"}"#,
        br#"{"op":"tick","op":"warp","second":1}"#,
        br#"{"op":"tick","second":"x","second":4}"#,
        br#"{"op":"tick","second":4,"second":"x"}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2]],"samples":[[1.25,3,4],[1.75,5,6]]}"#,
        br#"{"op":"raw","second":1,"samples":[["bad"]],"samples":[[1.5,1,2]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,2]],"readings":"none"}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,1,1],"range":[2,2,3,3]}"#,
        br#"{"o\u0070":"tick","s\u0065cond":3}"#,
        br#"{"op":"t\u0069ck","second":3}"#,
        br#"{"op":"\u0074ick","second":3,"b\u0075dget":1}"#,
        br#"{"\u006fp":"raw","second":1,"samples":[]}"#,
        br#"{"op":"r\u0061w","s\u0061mples":[[1.5,2,3]],"second":1}"#,
        br#"{"op\u0000":"tick","second":1}"#,
        br#"{"op":"tick\u0000","second":1}"#,
        br#"{"op":"new\nline"}"#,
        br#"{"op":"\/\\\"\t\r"}"#,
        br#"{"op":"\u00e9t\u00e9"}"#,
        "{\"op\":\"\u{e9}t\u{e9}\"}".as_bytes(),
        br#"{"op":"\u+123"}"#,
        br#"{"op" :"tick", "second" :3}"#,
        b" \t\r\n{ \t\"op\"\n:\r\"raw\" ,\n\"second\" : 1 , \"samples\" : [ [ 1.5 , 2 , 3 ] ,[1.25,2,3] ] } \n",
        b"{\"op\":\"tick\",\"second\":1} \n\t ",
        br#"{"op":"tick","second":1,"x":"a
b"}"#,
        // Not an object, or no usable op.
        b"",
        b"   ",
        b"null",
        b"true",
        b"false",
        b"0",
        br#""op""#,
        b"[]",
        br#"[{"op":"tick","second":1}]"#,
        b"{}",
        b"{ }",
        br#"{"OP":"tick"}"#,
        br#"{"op":null}"#,
        br#"{"op":3}"#,
        br#"{"op":["tick"]}"#,
        br#"{"op":{"name":"tick"}}"#,
        br#"{"op":"Tick","second":1}"#,
        br#"{"op":""}"#,
        br#"{"op":"dead_letters"}"#,
        br#"{"second":1}"#,
        // Syntax errors, each of the lexer's messages.
        b"nul",
        b"tru",
        b"fals",
        b"not json",
        b"[1,2",
        b"[1,]",
        b"[1 2]",
        br#"{"op":"tick",}"#,
        br#"{"op" "tick"}"#,
        br#"{"op":"tick" "second":1}"#,
        br#"{"op":"tick","second":1"#,
        br#"{"op":"tick","second":1,"#,
        br#"{"op":"tick","second":"#,
        br#"{"op":"#,
        b"{",
        br#"{op:"tick"}"#,
        br#"{"op":'tick'}"#,
        br#"{"op":"tick","second":1}x"#,
        br#"{"op":"tick","second":1}{}"#,
        br#"{"op":"tick\"}"#,
        br#"{"op":"tick\"#,
        br#"{"op":"\u12"}"#,
        br#"{"op":"\u12g4"}"#,
        br#"{"op":"\ud800"}"#,
        br#"{"op":"\q"}"#,
        br#"{"op":"\b"}"#,
        b"{\"op\":\"\xff\"}",
        b"{\"op\":\"tick\",\"second\":1,\"\xc3\":2}",
        b"{\"op\":\"tick\",\"second\":1,\xff}",
        b"\xef\xbb\xbf{\"op\":\"metrics\"}",
        b"{\"op\":\"tick\",\"second\":1,\"x\":\xe9}",
        // Number spellings: every JSON number is an f64, and an integer is
        // that f64 when it is non-negative and whole.
        br#"{"op":"tick","second":01}"#,
        br#"{"op":"tick","second":1.}"#,
        br#"{"op":"tick","second":3.0}"#,
        br#"{"op":"tick","second":3e0}"#,
        br#"{"op":"tick","second":3E0}"#,
        br#"{"op":"tick","second":30e-1}"#,
        br#"{"op":"tick","second":0.3e1}"#,
        br#"{"op":"tick","second":0.03E+2}"#,
        br#"{"op":"tick","second":-0}"#,
        br#"{"op":"tick","second":-0.0}"#,
        br#"{"op":"tick","second":1e-400}"#,
        br#"{"op":"tick","second":1e400}"#,
        br#"{"op":"tick","second":-1e400}"#,
        br#"{"op":"tick","second":-1}"#,
        br#"{"op":"tick","second":1.5}"#,
        br#"{"op":"tick","second":999999999999999}"#,
        br#"{"op":"tick","second":1234567890123456}"#,
        br#"{"op":"tick","second":123456789012345678}"#,
        br#"{"op":"tick","second":9007199254740993}"#,
        br#"{"op":"tick","second":18446744073709551615}"#,
        br#"{"op":"tick","second":18446744073709551616}"#,
        br#"{"op":"tick","second":1e20}"#,
        br#"{"op":"tick","second":-}"#,
        br#"{"op":"tick","second":--1}"#,
        br#"{"op":"tick","second":1e}"#,
        br#"{"op":"tick","second":1.2.3}"#,
        br#"{"op":"tick","second":1-2}"#,
        br#"{"op":"tick","second":+1}"#,
        br#"{"op":"tick","second":.5}"#,
        br#"{"op":"tick","second":0x1F}"#,
        br#"{"op":"tick","second":1_000}"#,
        br#"{"op":"tick","second":Infinity}"#,
        br#"{"op":"tick","second":-Infinity}"#,
        br#"{"op":"tick","second":NaN}"#,
        br#"{"op":"reading","second":1,"readings":[[4294967295,4294967295]]}"#,
        br#"{"op":"reading","second":1,"readings":[[4294967296,0]]}"#,
        br#"{"op":"reading","second":1,"readings":[[3.0,3e0],[-0,01],[1.,2E0]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1e400,0]]}"#,
        br#"{"op":"raw","second":2,"samples":[[2.12345678901234567,1,2],[2.000000000000000000001,1,2],[2.30000000000000004,1,2]]}"#,
        br#"{"op":"raw","second":2,"samples":[[2.1,1,2],[2.05,1,2],[2.333333333333333,1,2],[2.0000000000000001,1,2]]}"#,
        br#"{"op":"raw","second":123456,"samples":[[123456.789012345,1,2],[1.234567e5,1,2],[123456.7890123456,1,2]]}"#,
        br#"{"op":"subscribe","sub":1,"range":[-0.5,1e-3,1.5E1,0.000001]}"#,
        br#"{"op":"subscribe","sub":1,"point":[0.1,0.30000000000000004],"k":3.0}"#,
        // Field errors of `reading`.
        br#"{"op":"reading","second":1}"#,
        br#"{"op":"reading","readings":[]}"#,
        br#"{"op":"reading","second":-1,"readings":[]}"#,
        br#"{"op":"reading","second":"one","readings":[[1]]}"#,
        br#"{"op":"reading","second":1,"readings":{}}"#,
        br#"{"op":"reading","second":1,"readings":null}"#,
        br#"{"op":"reading","second":1,"readings":[[1]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,2,3]]}"#,
        br#"{"op":"reading","second":1,"readings":[1]}"#,
        br#"{"op":"reading","second":1,"readings":["a"]}"#,
        br#"{"op":"reading","second":1,"readings":[null]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,"x",3]]}"#,
        br#"{"op":"reading","second":1,"readings":[["x",1]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,-2]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1.5,2]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,2],[3]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,2],[3,-4],[5]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,{"nested":[1,2]}]]}"#,
        br#"{"op":"reading","second":1,"readings":[[1,2]],"extra":[1,}"#,
        // Field errors of `raw`.
        br#"{"op":"raw","second":1}"#,
        br#"{"op":"raw","samples":[]}"#,
        br#"{"op":"raw","samples":[[0.5,1,2]]}"#,
        br#"{"op":"raw","second":1.5,"samples":[]}"#,
        br#"{"op":"raw","second":1,"samples":"x"}"#,
        br#"{"op":"raw","second":1,"samples":{"0":[1.5,1,2]}}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2,3]]}"#,
        br#"{"op":"raw","second":1,"samples":[5]}"#,
        br#"{"op":"raw","second":1,"samples":[{"t":1}]}"#,
        br#"{"op":"raw","second":1,"samples":[["a",1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[null,1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[0.5,1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[2,1,2]]}"#,
        br#"{"op":"raw","second":0,"samples":[[-0.5,1,2]]}"#,
        br#"{"op":"raw","second":0,"samples":[[-0.0,1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1e300,1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,-1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,4294967296]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2.5]]}"#,
        br#"{"op":"raw","second":1,"samples":[[0.5,"x",2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,"x",2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2],[0.5,1,2],[1.2,"x",3]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2],[1.2,"x",3],[0.5,1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2],[1.2,1],[0.5,1,2]]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2],"x"]}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2],[0.5,1,2]],"second":0}"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2]"#,
        br#"{"op":"raw","second":1,"samples":[[1.5,1,2]],"extra":[1,}"#,
        // Field errors of `subscribe`, `unsubscribe` and `tick`.
        br#"{"op":"subscribe","range":[0,0,1,1]}"#,
        br#"{"op":"subscribe","sub":-1,"range":[0,0,1,1]}"#,
        br#"{"op":"subscribe","sub":1}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,1,1],"point":[0,0]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,1,1],"point":null}"#,
        br#"{"op":"subscribe","sub":1,"point":[1,2],"k":3,"range":[0,0,1,1]}"#,
        br#"{"op":"subscribe","sub":1,"range":null}"#,
        br#"{"op":"subscribe","sub":1,"range":{}}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,1]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,1,1,1]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,"a",1,1]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,1,[1]]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,-1,1]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,1,-1]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,-0,1]}"#,
        br#"{"op":"subscribe","sub":1,"range":[0,0,0,0]}"#,
        br#"{"op":"subscribe","sub":1,"point":[1]}"#,
        br#"{"op":"subscribe","sub":1,"point":[1,2,3]}"#,
        br#"{"op":"subscribe","sub":1,"point":[1,"y"],"k":2}"#,
        br#"{"op":"subscribe","sub":1,"point":"here","k":2}"#,
        br#"{"op":"subscribe","sub":1,"point":[1,2]}"#,
        br#"{"op":"subscribe","sub":1,"point":[1,2],"k":-1}"#,
        br#"{"op":"subscribe","sub":1,"point":[1,2],"k":2.5}"#,
        br#"{"op":"subscribe","sub":1,"point":[1,2],"k":"3"}"#,
        br#"{"op":"subscribe","point":[1,2],"k":1}"#,
        br#"{"op":"unsubscribe"}"#,
        br#"{"op":"unsubscribe","sub":-3}"#,
        br#"{"op":"unsubscribe","sub":[9]}"#,
        br#"{"op":"tick"}"#,
        br#"{"op":"tick","second":1,"budget":-3}"#,
        br#"{"op":"tick","second":1,"budget":"fast"}"#,
        br#"{"op":"tick","second":1,"budget":null}"#,
        br#"{"op":"tick","budget":-3}"#,
        br#"{"op":"tick","budget":5}"#,
        // A syntax error anywhere beats every field error.
        br#"{"op":"warp","x":[}"#,
        br#"{"op":7,"x":"\q"}"#,
        br#"{"second":1,"op":"tick","x":tru}"#,
        // Unknown keys may hold any value, nested or not.
        br#"{"op":"tick","second":2,"meta":{"a":[1,2,{"b":[true,false,null]}],"c":"d","e":-1.5e3}}"#,
        br#"{"meta":{"op":"shutdown"},"op":"tick","second":2}"#,
        br#"{"op":"metrics","second":{"deep":[[[]]]},"samples":[[[[1]]]],"readings":7}"#,
        br#"{"op":"checkpoint","range":[0,0,-1,1],"point":"x","k":-1,"sub":null}"#,
        br#"{"op":"tick","second":2,"meta":[1,2}"#,
        br#"{"op":"tick","second":2,"meta":{"a":1,}}"#,
        br#"{"op":"tick","second":2,"meta":{"a" 1}}"#,
        br#"{"op":"tick","second":2,"meta":{"a":1 "b":2}}"#,
        br#"{"op":"tick","second":2,"meta":"\u00"}"#,
    ]
    .iter()
    .map(|f| f.to_vec())
    .collect();

    // Nesting just inside and just past MAX_DEPTH: the top-level object
    // is depth 0 and each array level adds one.
    let depth = MAX_DEPTH as usize;
    let nested = |open: &str, close: &str, inner: &str, n: usize| {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    };
    for n in [depth - 1, depth, depth + 1] {
        frames.push(
            format!(
                r#"{{"op":"tick","second":1,"x":{}}}"#,
                nested("[", "]", "", n)
            )
            .into_bytes(),
        );
        frames.push(
            format!(
                r#"{{"op":"tick","second":1,"x":{}}}"#,
                nested("[", "]", "1", n)
            )
            .into_bytes(),
        );
        frames.push(
            format!(
                r#"{{"op":"tick","second":1,"x":{}}}"#,
                nested(r#"{"a":"#, "}", "null", n)
            )
            .into_bytes(),
        );
        frames.push(
            format!(
                r#"{{"op":"raw","second":1,"samples":[{}]}}"#,
                nested("[", "]", "", n - 1)
            )
            .into_bytes(),
        );
        frames.push(nested("[", "]", "", n + 1).into_bytes());
    }
    frames.push(nested("[", "]", "", 10_000).into_bytes());

    // One valid raw frame cut at every byte.
    let whole =
        br#"{"op":"r\u0061w", "second":12,"samples":[[12.5,3,7],[12.05,0,1e0],[12.999,-0,18]]}"#;
    frames.extend((0..=whole.len()).map(|cut| whole[..cut].to_vec()));
    frames
}

fn outcome_lines(frames: &[Vec<u8>]) -> String {
    let mut out = String::new();
    for frame in frames {
        out.push_str(&format!(
            "{} => {}\n",
            frame.escape_ascii(),
            render_outcome(&parse_request(frame))
        ));
    }
    out
}

/// The committed outcome of every corpus frame, byte for byte.
#[test]
fn request_outcomes_are_pinned() {
    let path = fixture_path("expected_request_outcomes.txt");
    let actual = outcome_lines(&corpus());
    if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write outcome fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("missing outcome fixture; run with RIPQ_REGEN_GOLDEN=1 to create it");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "outcome line {} drifted", line + 1);
    }
    assert_eq!(
        expected, actual,
        "request outcomes drifted from the fixture; if intentional, regenerate with \
         RIPQ_REGEN_GOLDEN=1 cargo test --test request_decoding"
    );
}

/// The corpus reaches every message the decoder can return.
#[test]
fn the_corpus_reaches_every_message() {
    let outcomes = outcome_lines(&corpus());
    for message in [
        "err bad JSON: nesting too deep at byte",
        "err bad JSON: unexpected `",
        "err bad JSON: unexpected end of input at byte",
        "err bad JSON: expected `\\\"` at byte",
        "err bad JSON: expected `:` at byte",
        "err bad JSON: expected `,` or `}` at byte",
        "err bad JSON: expected `,` or `]` at byte",
        "err bad JSON: invalid UTF-8 in string at byte",
        "err bad JSON: unterminated escape at byte",
        "err bad JSON: truncated \\\\u escape at byte",
        "err bad JSON: bad \\\\u escape at byte",
        "err bad JSON: bad \\\\u code point at byte",
        "err bad JSON: unsupported escape `\\\\",
        "err bad JSON: unterminated string at byte",
        "err bad JSON: bad number at byte",
        "err bad JSON: trailing garbage at byte",
        "err frame is not a JSON object",
        "err missing field `op`",
        "err field `op` must be a string",
        "err unknown op `",
        "err missing field `second`",
        "err field `second` must be a non-negative integer",
        "err missing field `readings`",
        "err field `readings` must be an array",
        "err each reading must be [object, reader]",
        "err reading must be an array of small non-negative integers",
        "err missing field `samples`",
        "err field `samples` must be an array",
        "err each sample must be [time, object, reader]",
        "err sample must be an array of numbers",
        "err sample time ",
        "err sample must be an array of small non-negative integers",
        "err missing field `sub`",
        "err field `sub` must be a non-negative integer",
        "err subscribe needs exactly one of `range` or `point`",
        "err field `range` must be [x, y, w, h]",
        "err range must be an array of numbers",
        "err range width/height must be non-negative",
        "err field `point` must be [x, y]",
        "err point must be an array of numbers",
        "err missing field `k`",
        "err field `k` must be a non-negative integer",
        "err field `budget` must be a non-negative integer",
        "ok reading ",
        "ok raw ",
        "ok subscribe sub=9 range=",
        "ok subscribe sub=1 point=",
        "ok unsubscribe ",
        "ok tick second=8 budget=None",
        "ok tick second=8 budget=Some(150)",
        "ok metrics",
        "ok checkpoint",
        "ok shutdown",
    ] {
        assert!(
            outcomes.lines().any(|l| l
                .split_once(" => ")
                .is_some_and(|(_, o)| o.starts_with(message))),
            "no corpus frame returns {message:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The reference: decode the whole document into a tree, then walk it.
// ---------------------------------------------------------------------------

fn field<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn field_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn num_at(items: &[Value], i: usize, what: &str) -> Result<f64, String> {
    items
        .get(i)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what} must be an array of numbers"))
}

fn u32_at(items: &[Value], i: usize, what: &str) -> Result<u32, String> {
    items
        .get(i)
        .and_then(Value::as_u64)
        .filter(|&v| v <= u64::from(u32::MAX))
        .map(|v| v as u32)
        .ok_or_else(|| format!("{what} must be an array of small non-negative integers"))
}

/// The tree-walking decoder the protocol's semantics were defined by.
fn tree_walk(payload: &[u8]) -> Result<Request, String> {
    let doc = json::parse(payload).map_err(|e| format!("bad JSON: {e}"))?;
    let obj = doc.as_obj().ok_or("frame is not a JSON object")?;
    let op = field(obj, "op")?
        .as_str()
        .ok_or("field `op` must be a string")?;
    match op {
        "reading" => {
            let second = field_u64(obj, "second")?;
            let items = field(obj, "readings")?
                .as_arr()
                .ok_or("field `readings` must be an array")?;
            let mut detections = Vec::with_capacity(items.len());
            for pair in items {
                let pair = pair
                    .as_arr()
                    .ok_or("each reading must be [object, reader]")?;
                if pair.len() != 2 {
                    return Err("each reading must be [object, reader]".to_string());
                }
                let object = u32_at(pair, 0, "reading")?;
                let reader = u32_at(pair, 1, "reading")?;
                detections.push((ObjectId::new(object), ReaderId::new(reader)));
            }
            Ok(Request::Readings { second, detections })
        }
        "raw" => {
            let second = field_u64(obj, "second")?;
            let items = field(obj, "samples")?
                .as_arr()
                .ok_or("field `samples` must be an array")?;
            let mut samples = Vec::with_capacity(items.len());
            for entry in items {
                let entry = entry
                    .as_arr()
                    .ok_or("each sample must be [time, object, reader]")?;
                if entry.len() != 3 {
                    return Err("each sample must be [time, object, reader]".to_string());
                }
                let time = num_at(entry, 0, "sample")?;
                if time.is_nan() || time < 0.0 || time.floor() as u64 != second {
                    return Err(format!("sample time {time} outside second {second}"));
                }
                let object = u32_at(entry, 1, "sample")?;
                let reader = u32_at(entry, 2, "sample")?;
                samples.push(RawReading {
                    time,
                    object: ObjectId::new(object),
                    reader: ReaderId::new(reader),
                });
            }
            Ok(Request::Raw { second, samples })
        }
        "subscribe" => {
            let sub = field_u64(obj, "sub")?;
            match (obj.get("range"), obj.get("point")) {
                (Some(range), None) => {
                    let r = range.as_arr().ok_or("field `range` must be [x, y, w, h]")?;
                    if r.len() != 4 {
                        return Err("field `range` must be [x, y, w, h]".to_string());
                    }
                    let x = num_at(r, 0, "range")?;
                    let y = num_at(r, 1, "range")?;
                    let w = num_at(r, 2, "range")?;
                    let h = num_at(r, 3, "range")?;
                    if !(w >= 0.0 && h >= 0.0) {
                        return Err("range width/height must be non-negative".to_string());
                    }
                    Ok(Request::Subscribe {
                        sub,
                        kind: SubscriptionKind::Range(Rect::new(x, y, w, h)),
                    })
                }
                (None, Some(point)) => {
                    let pt = point.as_arr().ok_or("field `point` must be [x, y]")?;
                    if pt.len() != 2 {
                        return Err("field `point` must be [x, y]".to_string());
                    }
                    let x = num_at(pt, 0, "point")?;
                    let y = num_at(pt, 1, "point")?;
                    let k = field_u64(obj, "k")? as usize;
                    Ok(Request::Subscribe {
                        sub,
                        kind: SubscriptionKind::Knn(Point2::new(x, y), k),
                    })
                }
                _ => Err("subscribe needs exactly one of `range` or `point`".to_string()),
            }
        }
        "unsubscribe" => Ok(Request::Unsubscribe {
            sub: field_u64(obj, "sub")?,
        }),
        "tick" => {
            let budget = match obj.get("budget") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("field `budget` must be a non-negative integer")?,
                ),
            };
            Ok(Request::Tick {
                second: field_u64(obj, "second")?,
                budget,
            })
        }
        "metrics" => Ok(Request::Metrics),
        "checkpoint" => Ok(Request::Checkpoint),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

#[test]
fn the_pinned_corpus_agrees_with_the_tree_walk() {
    for frame in corpus() {
        assert_eq!(
            render_outcome(&parse_request(&frame)),
            render_outcome(&tree_walk(&frame)),
            "frame {}",
            frame.escape_ascii()
        );
    }
}

// ---------------------------------------------------------------------------
// Generated frames: a small grammar of request fragments, then shuffled,
// repeated, nested, cut or corrupted.
// ---------------------------------------------------------------------------

/// Reads choices off a generated list, wrapping around; an empty list
/// always chooses 0.
struct Choices<'a> {
    list: &'a [u32],
    at: usize,
}

impl Choices<'_> {
    fn pick(&mut self, n: usize) -> usize {
        let c = if self.list.is_empty() {
            0
        } else {
            self.list[self.at % self.list.len()]
        };
        self.at += 1;
        c as usize % n.max(1)
    }

    fn one<'b>(&mut self, options: &[&'b str]) -> &'b str {
        options[self.pick(options.len())]
    }
}

const OPS: [&str; 13] = [
    "reading",
    "raw",
    "subscribe",
    "unsubscribe",
    "tick",
    "metrics",
    "checkpoint",
    "shutdown",
    "warp",
    "r\\u0061w",
    "t\\u0069ck",
    "readin",
    "",
];

/// Number spellings JSON accepts here, valid ids or not.
const NUMBERS: [&str; 26] = [
    "0",
    "1",
    "2",
    "3.0",
    "3e0",
    "-0",
    "-0.0",
    "01",
    "1.",
    "1e-400",
    "4294967295",
    "4294967296",
    "-1",
    "1.5",
    "2.25",
    "0.1",
    "0.5e1",
    "18446744073709551616",
    "1e20",
    "9007199254740993",
    "2.12345678901234567",
    "123456789012345",
    "2.999999999999999",
    "7E-1",
    "-2.5",
    "1e300",
];

/// Number tokens the lexer refuses, or that are not numbers at all.
const BAD_NUMBERS: [&str; 10] = [
    "1e400", "-1e400", "-", "--1", "1e", "1.2.3", "+1", ".5", "1_0", "0x1",
];

const KEYS: [&str; 11] = [
    "op", "second", "readings", "samples", "sub", "range", "point", "k", "budget", "o\\u0070",
    "extra",
];

/// The keys `op` reads, so a frame for it usually carries them.
fn keys_read_by(op: &str) -> &'static [&'static str] {
    match op {
        "reading" => &["second", "readings"],
        "raw" | "r\\u0061w" => &["second", "samples"],
        "subscribe" => &["sub", "k"],
        "unsubscribe" => &["sub"],
        "tick" | "t\\u0069ck" => &["second"],
        _ => &[],
    }
}

/// A number spelling, now and then one the lexer refuses.
fn any_number(c: &mut Choices) -> String {
    if c.pick(40) == 0 {
        c.one(&BAD_NUMBERS).to_string()
    } else {
        c.one(&NUMBERS).to_string()
    }
}

/// Any JSON-ish value, nested at most `depth` more levels.
fn any_value(c: &mut Choices, depth: usize) -> String {
    match c.pick(if depth == 0 { 5 } else { 8 }) {
        0 => any_number(c),
        1 => format!("\"{}\"", c.one(&OPS)),
        2 if c.pick(30) == 0 => c.one(&["nul", "\"\\q\"", "tru", "\"\\u00\""]).to_string(),
        2 => c
            .one(&["true", "false", "null", "\"x\"", "\"\\u00e9\\n\""])
            .to_string(),
        3 => format!("{}.{}", c.pick(4), c.pick(1000)),
        4 => c.pick(20).to_string(),
        5 | 6 => {
            let n = c.pick(5);
            let items: Vec<String> = (0..n).map(|_| any_value(c, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let n = c.pick(4);
            let members: Vec<String> = (0..n)
                .map(|_| format!("\"{}\":{}", c.one(&KEYS), any_value(c, depth - 1)))
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

/// Id spellings at the plain-item reader's edges: 10 and 11 digits around
/// 2^32, leading zeros, `-0`, exponents and `+`.
const EDGE_IDS: [&str; 14] = [
    "4294967295",
    "4294967296",
    "0004294967295",
    "9999999999",
    "10000000000",
    "00",
    "007",
    "-0",
    "7e0",
    "1E+1",
    "+1",
    "2.0",
    "3.",
    "-4",
];

/// A number that is usually a valid id, sometimes not.
fn id(c: &mut Choices) -> String {
    match c.pick(20) {
        0 => any_number(c),
        1 => c.one(&EDGE_IDS).to_string(),
        _ => c.pick(25).to_string(),
    }
}

/// `n` decimal digits.
fn digits(c: &mut Choices, n: usize) -> String {
    let mut out = String::new();
    while out.len() < n {
        out.push_str(&format!("{:03}", c.pick(1000)));
    }
    out.truncate(n);
    out
}

/// A sample time: usually inside `second`, sometimes outside, ill-typed
/// or spelled at the edge of a short plain decimal.
fn sample_time(c: &mut Choices, second: usize) -> String {
    match c.pick(24) {
        0 => any_number(c),
        1 => any_value(c, 1),
        2 => format!("{}.5", second + 1),
        3 => format!("{}.5", second.wrapping_sub(1)),
        4 => second.to_string(),
        5 => format!("{second}.{}e0", c.pick(10)),
        // Exactly 15 significant digits, then exactly 16.
        6 => format!("{second}.{}", digits(c, 14)),
        7 => format!("{second}.{}", digits(c, 15)),
        8 => format!("00{second}.{}", c.pick(100)),
        9 => c
            .one(&["-0", "-0.0", "-0.5", "0.0", "-0.000000000000001"])
            .to_string(),
        10 => {
            let exponent = c.one(&["e+0", "E+0", "e-0", "0e-1", "E0"]);
            format!("{second}.{}{exponent}", c.pick(100))
        }
        11 => format!("+{second}.5"),
        12 => format!("{second}.5.5"),
        13 => format!("{second}.{}-1", c.pick(10)),
        _ => format!("{second}.{}", c.pick(100_000)),
    }
}

/// Whitespace, usually none.
fn pad(c: &mut Choices) -> &'static str {
    const WS: [&str; 5] = [" ", "\n", "\t", "\r", ""];
    WS[c.pick(WS.len() * 3).min(WS.len() - 1)]
}

/// `[a,b,...]`, now and then with whitespace around the items, or with
/// one item left out (`[1,]`, `[,2]`, `[]`).
fn list(c: &mut Choices, items: &[String]) -> String {
    match c.pick(36) {
        0..=5 => {
            let padded: Vec<String> = items
                .iter()
                .map(|item| format!("{}{item}{}", pad(c), pad(c)))
                .collect();
            format!("[{}{}]", padded.join(","), pad(c))
        }
        6 if !items.is_empty() => {
            let mut items = items.to_vec();
            let gone = c.pick(items.len());
            items[gone].clear();
            format!("[{}]", items.join(","))
        }
        _ => format!("[{}]", items.join(",")),
    }
}

/// An array of `n` items, usually `expected` of them.
fn items(c: &mut Choices, expected: usize, item: fn(&mut Choices) -> String) -> String {
    let n = if c.pick(8) == 0 {
        c.pick(expected + 3)
    } else {
        expected
    };
    let items: Vec<String> = (0..n).map(|_| item(c)).collect();
    list(c, &items)
}

/// The value of one known key, shaped like a request usually wants it.
fn shaped_value(c: &mut Choices, key: &str, second: usize) -> String {
    if c.pick(16) == 0 {
        return any_value(c, 2);
    }
    match key {
        "op" | "o\\u0070" => format!("\"{}\"", c.one(&OPS)),
        "readings" => {
            let n = c.pick(6);
            let entries: Vec<String> = (0..n)
                .map(|_| match c.pick(16) {
                    0 => any_value(c, 2),
                    // One and three items.
                    1 => {
                        let n = 1 + 2 * c.pick(2);
                        let ids: Vec<String> = (0..n).map(|_| id(c)).collect();
                        list(c, &ids)
                    }
                    _ => items(c, 2, id),
                })
                .collect();
            list(c, &entries)
        }
        "samples" => {
            let n = c.pick(7);
            let entries: Vec<String> = (0..n)
                .map(|_| match c.pick(16) {
                    0 => any_value(c, 2),
                    1 => items(c, 3, id),
                    // Two and four items.
                    2 => {
                        let mut parts = vec![sample_time(c, second), id(c)];
                        if c.pick(2) == 0 {
                            parts.extend([id(c), id(c)]);
                        }
                        list(c, &parts)
                    }
                    _ => {
                        let parts = [sample_time(c, second), id(c), id(c)];
                        list(c, &parts)
                    }
                })
                .collect();
            list(c, &entries)
        }
        "range" => items(c, 4, |c| match c.pick(12) {
            0 => any_value(c, 1),
            1 | 2 => any_number(c),
            _ => c.pick(30).to_string(),
        }),
        "point" => items(c, 2, |c| match c.pick(12) {
            0 => any_value(c, 1),
            _ => any_number(c),
        }),
        "extra" => any_value(c, 3),
        // second, sub, k, budget
        _ => {
            if c.pick(6) == 0 {
                any_number(c)
            } else {
                second.to_string()
            }
        }
    }
}

/// One request frame built from `choices`, then shuffled, repeated,
/// nested, cut or corrupted as the choices say.
fn generated_frame(choices: &[u32], cut: usize, byte: u8) -> Vec<u8> {
    let mut c = Choices {
        list: choices,
        at: 0,
    };
    let second = c.pick(4);
    let op = c.one(&OPS);
    let read = keys_read_by(op);
    // A subscribe usually names exactly one of `range` or `point`.
    let shape = if op == "subscribe" {
        c.one(&["range", "point"])
    } else {
        ""
    };
    let mut members: Vec<(String, String)> = vec![("op".to_string(), format!("\"{op}\""))];
    for key in KEYS.iter().skip(1) {
        let usual = read.contains(key) || *key == shape;
        if c.pick(if usual { 12 } else { 5 }) < if usual { 11 } else { 1 } {
            members.push((key.to_string(), shaped_value(&mut c, key, second)));
        }
    }
    // Repeat some members (the last one wins) and shuffle.
    for _ in 0..c.pick(3) {
        let i = c.pick(members.len());
        let key = members[i].0.clone();
        let value = shaped_value(&mut c, &key, second);
        members.push((key, value));
    }
    for i in (1..members.len()).rev() {
        let j = c.pick(i + 1);
        members.swap(i, j);
    }
    // Wrap one value in nesting around the depth limit.
    if c.pick(8) == 0 {
        let i = c.pick(members.len());
        let n = MAX_DEPTH as usize - 3 + c.pick(6);
        let (open, close) = if c.pick(2) == 0 {
            ("[", "]")
        } else {
            ("{\"a\":", "}")
        };
        let value = &mut members[i].1;
        *value = format!("{}{value}{}", open.repeat(n), close.repeat(n));
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| {
            format!(
                "{}\"{k}\"{}:{}{v}{}",
                pad(&mut c),
                pad(&mut c),
                pad(&mut c),
                pad(&mut c)
            )
        })
        .collect();
    let mut frame = format!("{{{}}}", body.join(",")).into_bytes();
    match c.pick(8) {
        0 => frame.truncate(cut % (frame.len() + 1)),
        1 => {
            let len = frame.len();
            frame[cut % len] = byte;
        }
        // Cut inside the first entries of a list, often one byte past a
        // plainly spelled prefix of an item.
        2 => {
            let text = String::from_utf8_lossy(&frame).into_owned();
            if let Some(at) = ["\"samples\":[[", "\"readings\":[["]
                .iter()
                .find_map(|key| text.find(key).map(|at| at + key.len() - 1))
            {
                frame.truncate((at + cut % 32).min(frame.len()));
            }
        }
        _ => {}
    }
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The decoder and the tree walk agree on generated frames: the same
    /// request, or the same error string.
    #[test]
    fn decoder_matches_the_tree_walk(
        choices in proptest::collection::vec(0u32..1_000_000, 0..160),
        cut in 0usize..4096,
        byte in 0u8..=255u8,
    ) {
        let frame = generated_frame(&choices, cut, byte);
        prop_assert_eq!(
            render_outcome(&parse_request(&frame)),
            render_outcome(&tree_walk(&frame)),
            "frame {}",
            frame.escape_ascii()
        );
    }

    /// The decoder's numbers equal `str::parse`'s, which shares no code
    /// with `json::Lexer`: whenever `parse_request` accepts a one-sample
    /// `raw` frame spelled by `sample_time` and `id`, the time has the
    /// bits `str::parse::<f64>` reads from its spelling and each id is
    /// the integer it reads from its own. The second is sometimes in the
    /// nineties, where a 14-digit fraction spells a 16-digit time above
    /// 2^53.
    #[test]
    fn accepted_numbers_equal_str_parse(
        choices in proptest::collection::vec(0u32..1_000_000, 0..16),
    ) {
        let mut c = Choices {
            list: &choices,
            at: 0,
        };
        let second = c.pick(4) + 90 * c.pick(2);
        let spelled = [sample_time(&mut c, second), id(&mut c), id(&mut c)];
        let frame = format!(
            "{{\"op\":\"raw\",\"second\":{second},\"samples\":[[{}]]}}",
            spelled.join(",")
        );
        let parsed: Vec<Option<f64>> = spelled.iter().map(|s| s.parse().ok()).collect();
        match parse_request(frame.as_bytes()) {
            Ok(Request::Raw { samples, .. }) => {
                prop_assert_eq!(samples.len(), 1);
                let sample = samples[0];
                prop_assert_eq!(Some(bits(sample.time)), parsed[0].map(bits), "frame {}", &frame);
                prop_assert_eq!(Some(f64::from(sample.object.raw())), parsed[1], "frame {}", &frame);
                prop_assert_eq!(Some(f64::from(sample.reader.raw())), parsed[2], "frame {}", &frame);
            }
            Ok(other) => prop_assert!(false, "frame {} decoded as {:?}", frame, other),
            Err(_) => {}
        }
    }
}

/// One second's detections as a `raw` frame spelled the way the benchmark
/// writes it: each reader samples its object `samples_per_second` times,
/// each sample kept with the detection probability (at least one kept),
/// at `second + (slot + 0.5) / samples_per_second`, rendered by `{}`.
fn sampled_raw_frame(rng: &mut StdRng, second: u64, detections: &[(ObjectId, ReaderId)]) -> String {
    let sensing = SensingModel::default();
    let per_second = sensing.samples_per_second.max(1);
    let mut samples = Vec::new();
    for &(object, reader) in detections {
        let mut slots: Vec<u32> = (0..per_second)
            .filter(|_| rng.random::<f64>() < sensing.detection_probability)
            .collect();
        if slots.is_empty() {
            slots.push(rng.random_range(0..per_second));
        }
        for slot in slots {
            let time = second as f64 + (f64::from(slot) + 0.5) / f64::from(per_second);
            samples.push(format!("[{time},{},{}]", object.raw(), reader.raw()));
        }
    }
    format!(
        "{{\"op\":\"raw\",\"second\":{second},\"samples\":[{}]}}",
        samples.join(",")
    )
}

/// Every `reading` frame of a simulated 200-object, 120 s session, and the
/// `raw` frame of each of its seconds, decode alike both ways.
#[test]
fn simulated_session_matches_the_tree_walk() {
    let transcript = record_transcript(&TranscriptSpec {
        seed: 1,
        objects: 200,
        seconds: 120,
        ..TranscriptSpec::default()
    });
    let mut rng = StdRng::seed_from_u64(5);
    let (mut readings, mut samples) = (0, 0);
    for frame in &transcript.frames {
        let outcome = tree_walk(frame.as_bytes());
        assert_eq!(
            render_outcome(&parse_request(frame.as_bytes())),
            render_outcome(&outcome),
            "frame {frame}"
        );
        let Ok(Request::Readings { second, detections }) = outcome else {
            continue;
        };
        readings += detections.len();
        let raw = sampled_raw_frame(&mut rng, second, &detections);
        let outcome = tree_walk(raw.as_bytes());
        assert_eq!(
            render_outcome(&parse_request(raw.as_bytes())),
            render_outcome(&outcome),
            "frame {raw}"
        );
        match outcome {
            Ok(Request::Raw { samples: s, .. }) => samples += s.len(),
            other => panic!("a sampled frame must decode: {other:?}"),
        }
    }
    assert!(readings > 5_000, "{readings} detections");
    assert!(samples > 5 * readings, "{samples} samples");
}
