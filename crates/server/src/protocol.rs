//! The request/response protocol spoken inside frames.
//!
//! Each frame payload is one compact JSON object with an `"op"` key, in
//! any key order; a repeated key keeps its last value. [`parse_request`]
//! reads a payload in one pass straight into a [`Request`], on the lexer
//! [`crate::json`] shares with its tree parser, so no document tree is
//! built for a request and malformed JSON fails with the tree parser's
//! message. A plainly spelled `samples` or `readings` entry is read by a
//! strict reader that accepts only what the generic path decodes alike
//! and otherwise leaves the entry to it. Responses are rendered as
//! canonical JSON text (one string per response frame). Probabilities
//! travel as 16-hex-digit f64 bit patterns, so a response stream
//! byte-compares across runs and worker counts without any
//! float-formatting ambiguity.

use crate::json::{self, Lexer, ParseError, Start};
use ripq_core::continuous::{ResultDelta, SubscriptionKind};
use ripq_geom::{Point2, Rect};
use ripq_rfid::{ObjectId, RawReading, ReaderId};
use std::fmt::Write as _;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Pre-aggregated detections for one logical second. Several frames
    /// may carry one second (one per gateway, say): a later frame merges
    /// into it, and an object already detected in that second keeps its
    /// first reader.
    Readings {
        /// The logical second the detections belong to.
        second: u64,
        /// `(object, detecting reader)` pairs.
        detections: Vec<(ObjectId, ReaderId)>,
    },
    /// Sample-level raw readings for one logical second. The collector
    /// aggregates them per object: the reader with the most samples
    /// wins, and a tie goes to the lowest reader id.
    Raw {
        /// The logical second the samples belong to.
        second: u64,
        /// The raw samples.
        samples: Vec<RawReading>,
    },
    /// Open a continuous subscription.
    Subscribe {
        /// Client-chosen subscription id.
        sub: u64,
        /// What to watch.
        kind: SubscriptionKind,
    },
    /// Close a subscription.
    Unsubscribe {
        /// The subscription id to close.
        sub: u64,
    },
    /// Advance the epoch clock: evaluate all subscriptions at `second`
    /// and emit deltas and events.
    Tick {
        /// The logical second to evaluate at.
        second: u64,
        /// Optional per-request deadline budget (logical cost units)
        /// overriding the server-wide `query_budget` for this tick. The
        /// tick ack is tagged with the worst `DegradationLevel` the
        /// budget forced.
        budget: Option<u64>,
    },
    /// Request a metrics snapshot frame.
    Metrics,
    /// Write a durable checkpoint now.
    Checkpoint,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// Parses one frame payload into a [`Request`]. Every failure is a clean
/// `Err` message — malformed JSON, a missing/ill-typed field or an
/// unknown op never panics and never poisons the framing layer.
///
/// The payload is read once, straight into the request's fields, with
/// the lexer [`json::parse`] uses, so a malformed payload fails with the
/// same `bad JSON: … at byte N` message. Because a field may follow the
/// `op` that needs it, the fields are checked only after the whole
/// payload has been read: a syntax error anywhere wins over every field
/// error, and the field checks then run in a fixed order per op.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let fields = Fields::read(payload).map_err(|e| format!("bad JSON: {e}"))?;
    fields.ok_or("frame is not a JSON object")?.request()
}

/// The last value a request key had on the wire.
#[derive(Debug, Default)]
enum Field<T> {
    /// The key did not appear.
    #[default]
    Missing,
    /// The value has the wrong type or shape.
    Invalid,
    /// The value, decoded.
    Valid(T),
}

impl<T> Field<T> {
    fn is_present(&self) -> bool {
        !matches!(self, Field::Missing)
    }

    /// The value, or the missing-field message, or `invalid`.
    fn require(self, key: &str, invalid: &str) -> Result<T, String> {
        match self {
            Field::Missing => Err(format!("missing field `{key}`")),
            Field::Invalid => Err(invalid.to_string()),
            Field::Valid(v) => Ok(v),
        }
    }
}

fn require_u64(field: Field<u64>, key: &str) -> Result<u64, String> {
    field.require(
        key,
        &format!("field `{key}` must be a non-negative integer"),
    )
}

/// A `samples` array, read up to its first malformed entry.
#[derive(Debug, Default)]
struct Samples {
    /// The well-formed samples before the first malformed entry, their
    /// times not yet checked against the frame's second.
    read: Vec<RawReading>,
    /// The first malformed entry: its time, when that is a number (the
    /// time check comes first), and what is wrong with it.
    bad: Option<(Option<f64>, &'static str)>,
}

impl Samples {
    /// The samples, if every time lies in `second`; else the error of the
    /// first bad entry, in wire order.
    fn in_second(self, second: u64) -> Result<Vec<RawReading>, String> {
        let check = |time: f64| {
            // NaN must fail too: NaN as u64 is 0, which would slip past the
            // second check. A time not below 0 truncates to its floor.
            if time.is_nan() || time < 0.0 || time as u64 != second {
                Err(format!("sample time {time} outside second {second}"))
            } else {
                Ok(())
            }
        };
        for sample in &self.read {
            check(sample.time)?;
        }
        match self.bad {
            None => Ok(self.read),
            Some((time, message)) => {
                if let Some(time) = time {
                    check(time)?;
                }
                Err(message.to_string())
            }
        }
    }
}

/// A `readings` array's pairs, or the error of its first bad pair.
type Detections = Result<Vec<(ObjectId, ReaderId)>, &'static str>;

/// Every field a request can read, from the payload's top-level object.
/// A repeated key keeps its last value; other keys are read and dropped.
#[derive(Debug, Default)]
struct Fields {
    op: Field<String>,
    second: Field<u64>,
    sub: Field<u64>,
    k: Field<u64>,
    budget: Field<u64>,
    readings: Field<Detections>,
    samples: Field<Samples>,
    range: Field<[Option<f64>; 4]>,
    point: Field<[Option<f64>; 2]>,
}

impl Fields {
    /// Reads the whole payload. `None` when it is JSON but not an object.
    fn read(payload: &[u8]) -> Result<Option<Fields>, ParseError> {
        let mut lex = Lexer::new(payload);
        let start = lex.value_start(0)?;
        if start != Start::Object {
            lex.skip(start, 0)?;
            lex.finish()?;
            return Ok(None);
        }
        let mut fields = Fields::default();
        let mut first = true;
        while let Some(key) = lex.next_member(first)? {
            first = false;
            let lex = &mut lex;
            match key.as_str() {
                "op" => fields.op = string(lex, 1)?,
                "second" => fields.second = integer(lex, 1)?,
                "sub" => fields.sub = integer(lex, 1)?,
                "k" => fields.k = integer(lex, 1)?,
                "budget" => fields.budget = integer(lex, 1)?,
                "readings" => fields.readings = readings(lex, 1)?,
                "samples" => fields.samples = samples(lex, 1)?,
                "range" => fields.range = fixed_array(lex, 1)?.map_or(Field::Invalid, Field::Valid),
                "point" => fields.point = fixed_array(lex, 1)?.map_or(Field::Invalid, Field::Valid),
                _ => lex.skip_value(1)?,
            }
        }
        lex.finish()?;
        Ok(Some(fields))
    }

    /// The request the fields spell, checked in the op's field order.
    fn request(self) -> Result<Request, String> {
        let op = self.op.require("op", "field `op` must be a string")?;
        match op.as_str() {
            "reading" => {
                let second = require_u64(self.second, "second")?;
                let detections = self
                    .readings
                    .require("readings", "field `readings` must be an array")??;
                Ok(Request::Readings { second, detections })
            }
            "raw" => {
                let second = require_u64(self.second, "second")?;
                let samples = self
                    .samples
                    .require("samples", "field `samples` must be an array")?
                    .in_second(second)?;
                Ok(Request::Raw { second, samples })
            }
            "subscribe" => {
                let sub = require_u64(self.sub, "sub")?;
                let kind = match (self.range.is_present(), self.point.is_present()) {
                    (true, false) => {
                        let (x, y, w, h) = match self
                            .range
                            .require("range", "field `range` must be [x, y, w, h]")?
                        {
                            [Some(x), Some(y), Some(w), Some(h)] => (x, y, w, h),
                            _ => return Err("range must be an array of numbers".to_string()),
                        };
                        if !(w >= 0.0 && h >= 0.0) {
                            return Err("range width/height must be non-negative".to_string());
                        }
                        SubscriptionKind::Range(Rect::new(x, y, w, h))
                    }
                    (false, true) => {
                        let (x, y) = match self
                            .point
                            .require("point", "field `point` must be [x, y]")?
                        {
                            [Some(x), Some(y)] => (x, y),
                            _ => return Err("point must be an array of numbers".to_string()),
                        };
                        let k = require_u64(self.k, "k")? as usize;
                        SubscriptionKind::Knn(Point2::new(x, y), k)
                    }
                    _ => {
                        return Err("subscribe needs exactly one of `range` or `point`".to_string())
                    }
                };
                Ok(Request::Subscribe { sub, kind })
            }
            "unsubscribe" => Ok(Request::Unsubscribe {
                sub: require_u64(self.sub, "sub")?,
            }),
            "tick" => {
                let budget = match self.budget {
                    Field::Missing => None,
                    budget => Some(require_u64(budget, "budget")?),
                };
                Ok(Request::Tick {
                    second: require_u64(self.second, "second")?,
                    budget,
                })
            }
            "metrics" => Ok(Request::Metrics),
            "checkpoint" => Ok(Request::Checkpoint),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Reads a value that should be a string.
fn string(lex: &mut Lexer<'_>, depth: u32) -> Result<Field<String>, ParseError> {
    match lex.value_start(depth)? {
        Start::Str => Ok(Field::Valid(lex.string()?)),
        other => lex.skip(other, depth).map(|()| Field::Invalid),
    }
}

/// Reads a value that should be a number: `None` when it is not one.
fn number(lex: &mut Lexer<'_>, depth: u32) -> Result<Option<f64>, ParseError> {
    match lex.value_start(depth)? {
        Start::Number => lex.number().map(Some),
        other => lex.skip(other, depth).map(|()| None),
    }
}

/// Reads a value that should be a non-negative integer.
fn integer(lex: &mut Lexer<'_>, depth: u32) -> Result<Field<u64>, ParseError> {
    Ok(number(lex, depth)?
        .and_then(json::f64_as_u64)
        .map_or(Field::Invalid, Field::Valid))
}

/// An id: a number that is a non-negative integer within u32.
fn small_int(n: Option<f64>) -> Option<u32> {
    n.and_then(json::f64_as_u64)
        .and_then(|v| u32::try_from(v).ok())
}

/// Starts a value that should be an array: `false`, with the whole
/// value read, when it is not one.
fn array_start(lex: &mut Lexer<'_>, depth: u32) -> Result<bool, ParseError> {
    let start = lex.value_start(depth)?;
    if start == Start::Array {
        return Ok(true);
    }
    lex.skip(start, depth)?;
    Ok(false)
}

/// Reads a value that should be an array of `N` items: each item a
/// number (`Some`) or anything else (`None`). `None` for a value that is
/// not an array or has another length.
fn fixed_array<const N: usize>(
    lex: &mut Lexer<'_>,
    depth: u32,
) -> Result<Option<[Option<f64>; N]>, ParseError> {
    if !array_start(lex, depth)? {
        return Ok(None);
    }
    let mut items = [None; N];
    let mut len = 0;
    while lex.next_item(len == 0)? {
        let item = number(lex, depth + 1)?;
        if let Some(slot) = items.get_mut(len) {
            *slot = item;
        }
        len += 1;
    }
    Ok((len == N).then_some(items))
}

/// A strict reader for one plainly spelled array item at the lexer's
/// position: `[`, numbers separated by `,`, then `]`, with no whitespace.
/// A time must be a short plain decimal ([`json::scan_number`]) and an id
/// 1 to 10 digits within u32, so whatever it accepts [`fixed_array`]
/// decodes to the same values. It consumes the item only when the whole
/// item matched; on any other byte the lexer stays at the item's first
/// byte, for the generic path to read.
struct PlainItem<'a> {
    bytes: &'a json::Payload,
    at: usize,
}

impl<'a> PlainItem<'a> {
    /// Opens the item at the lexer's position, if it starts with `[`.
    fn open(lex: &Lexer<'a>) -> Option<Self> {
        let bytes = lex.rest();
        (bytes.first() == Some(&b'[')).then_some(PlainItem { bytes, at: 1 })
    }

    /// Reads `b`, which must be the next byte.
    fn byte(&mut self, b: u8) -> Option<()> {
        (self.bytes.get(self.at) == Some(&b)).then(|| self.at += 1)
    }

    /// Reads a time and the `,` after it.
    fn time(&mut self) -> Option<f64> {
        let (len, time) = json::scan_number(self.bytes.get(self.at..)?);
        self.at += len;
        self.byte(b',')?;
        time
    }

    /// Reads an id and the `end` byte after it. Ten digits stay below
    /// 10^10, so the u64 cannot overflow.
    fn id(&mut self, end: u8) -> Option<u32> {
        let start = self.at;
        let mut id = 0u64;
        while let Some(&b) = self.bytes.get(self.at) {
            if !b.is_ascii_digit() || self.at - start == 10 {
                break;
            }
            id = id * 10 + u64::from(b - b'0');
            self.at += 1;
        }
        if self.at == start {
            return None;
        }
        self.byte(end)?;
        u32::try_from(id).ok()
    }

    /// Consumes the item from the lexer.
    fn close(self, lex: &mut Lexer<'_>) {
        lex.advance(self.at);
    }
}

/// A plainly spelled `samples` entry, `[<time>,<object>,<reader>]`.
fn plain_sample(lex: &mut Lexer<'_>) -> Option<RawReading> {
    let mut item = PlainItem::open(lex)?;
    let time = item.time()?;
    let object = item.id(b',')?;
    let reader = item.id(b']')?;
    item.close(lex);
    Some(RawReading {
        time,
        object: ObjectId::new(object),
        reader: ReaderId::new(reader),
    })
}

/// A plainly spelled `readings` pair, `[<object>,<reader>]`.
fn plain_pair(lex: &mut Lexer<'_>) -> Option<(ObjectId, ReaderId)> {
    let mut item = PlainItem::open(lex)?;
    let object = item.id(b',')?;
    let reader = item.id(b']')?;
    item.close(lex);
    Some((ObjectId::new(object), ReaderId::new(reader)))
}

/// Reads a `readings` value: `[object, reader]` pairs, or the error of
/// the first bad pair.
fn readings(lex: &mut Lexer<'_>, depth: u32) -> Result<Field<Detections>, ParseError> {
    if !array_start(lex, depth)? {
        return Ok(Field::Invalid);
    }
    let mut detections = Ok(Vec::new());
    let mut first = true;
    while lex.next_item(first)? {
        first = false;
        if let Some(pair) = plain_pair(lex) {
            if let Ok(list) = &mut detections {
                list.push(pair);
            }
            continue;
        }
        let pair = fixed_array::<2>(lex, depth + 1)?;
        if let Ok(list) = &mut detections {
            match pair.map(|[o, r]| (small_int(o), small_int(r))) {
                None => detections = Err("each reading must be [object, reader]"),
                Some((Some(o), Some(r))) => list.push((ObjectId::new(o), ReaderId::new(r))),
                Some(_) => {
                    detections = Err("reading must be an array of small non-negative integers")
                }
            }
        }
    }
    Ok(Field::Valid(detections))
}

/// Reads a `samples` value: `[time, object, reader]` entries up to the
/// first malformed one.
fn samples(lex: &mut Lexer<'_>, depth: u32) -> Result<Field<Samples>, ParseError> {
    if !array_start(lex, depth)? {
        return Ok(Field::Invalid);
    }
    let mut samples = Samples::default();
    let mut first = true;
    while lex.next_item(first)? {
        first = false;
        if let Some(sample) = plain_sample(lex) {
            if samples.bad.is_none() {
                samples.read.push(sample);
            }
            continue;
        }
        let entry = fixed_array::<3>(lex, depth + 1)?;
        if samples.bad.is_some() {
            continue;
        }
        match entry {
            None => samples.bad = Some((None, "each sample must be [time, object, reader]")),
            Some([None, _, _]) => samples.bad = Some((None, "sample must be an array of numbers")),
            Some([Some(time), object, reader]) => match (small_int(object), small_int(reader)) {
                (Some(o), Some(r)) => samples.read.push(RawReading {
                    time,
                    object: ObjectId::new(o),
                    reader: ReaderId::new(r),
                }),
                _ => {
                    samples.bad = Some((
                        Some(time),
                        "sample must be an array of small non-negative integers",
                    ))
                }
            },
        }
    }
    Ok(Field::Valid(samples))
}

/// An f64 as its exact 16-hex-digit bit pattern — the byte-stable
/// probability encoding used in delta and event frames.
pub fn hex_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses a [`hex_bits`] rendering back to the exact f64.
pub fn from_hex_bits(s: &str) -> Option<f64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
        .map(f64::from_bits)
}

/// Renders one subscription delta as a response frame.
pub fn render_delta(sub: u64, second: u64, delta: &ResultDelta) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"delta\":{{\"sub\":{sub},\"second\":{second},\"appeared\":["
    );
    for (i, (o, pr)) in delta.appeared.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},\"{}\"]", o.raw(), hex_bits(*pr));
    }
    out.push_str("],\"disappeared\":[");
    for (i, o) in delta.disappeared.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", o.raw());
    }
    out.push_str("],\"changed\":[");
    for (i, (o, old, new)) in delta.changed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},\"{}\",\"{}\"]",
            o.raw(),
            hex_bits(*old),
            hex_bits(*new)
        );
    }
    out.push_str("]}}");
    out
}

/// Renders one event frame: `{"event":"<event>", ...fields}`, each field
/// an integer. A tick appends its events after its delta frames.
pub(crate) fn render_event(event: &str, fields: &[(&str, u64)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"event\":\"{event}\"");
    for (k, v) in fields {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    out.push('}');
    out
}

/// Renders an acknowledgment frame: `{"ok":"<op>", ...extras}` with
/// extras pre-rendered as `"key":value` fragments.
pub fn render_ok(op: &str, extras: &[(&str, String)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"ok\":\"{op}\"");
    for (k, v) in extras {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    out.push('}');
    out
}

/// Renders an overload (admission-control) rejection frame:
/// `{"busy":"<op>", ...extras, "retry_after_ticks":N}`. The hint is
/// deterministic — a retrying client that honors it provably converges
/// to the unthrottled session's final state.
pub fn render_busy(op: &str, extras: &[(&str, String)], retry_after_ticks: u64) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"busy\":\"{op}\"");
    for (k, v) in extras {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    let _ = write!(out, ",\"retry_after_ticks\":{retry_after_ticks}}}");
    out
}

/// Renders a protocol error frame.
pub fn render_error(message: &str) -> String {
    let mut out = String::from("{\"error\":");
    json::render_str(message, &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let r = parse_request(br#"{"op":"reading","second":3,"readings":[[1,2]]}"#).unwrap();
        assert_eq!(
            r,
            Request::Readings {
                second: 3,
                detections: vec![(ObjectId::new(1), ReaderId::new(2))],
            }
        );
        let r = parse_request(br#"{"op":"raw","second":2,"samples":[[2.5,1,4]]}"#).unwrap();
        match r {
            Request::Raw { second, samples } => {
                assert_eq!(second, 2);
                assert_eq!(samples.len(), 1);
                assert_eq!(samples.first().unwrap().reader, ReaderId::new(4));
            }
            other => panic!("{other:?}"),
        }
        let r = parse_request(br#"{"op":"subscribe","sub":9,"range":[0,1,10,5]}"#).unwrap();
        assert_eq!(
            r,
            Request::Subscribe {
                sub: 9,
                kind: SubscriptionKind::Range(Rect::new(0.0, 1.0, 10.0, 5.0)),
            }
        );
        let r = parse_request(br#"{"op":"subscribe","sub":1,"point":[3.5,2],"k":2}"#).unwrap();
        assert_eq!(
            r,
            Request::Subscribe {
                sub: 1,
                kind: SubscriptionKind::Knn(Point2::new(3.5, 2.0), 2),
            }
        );
        assert_eq!(
            parse_request(br#"{"op":"unsubscribe","sub":9}"#).unwrap(),
            Request::Unsubscribe { sub: 9 }
        );
        assert_eq!(
            parse_request(br#"{"op":"tick","second":8}"#).unwrap(),
            Request::Tick {
                second: 8,
                budget: None
            }
        );
        assert_eq!(
            parse_request(br#"{"op":"tick","second":8,"budget":150}"#).unwrap(),
            Request::Tick {
                second: 8,
                budget: Some(150)
            }
        );
        assert_eq!(
            parse_request(br#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(br#"{"op":"checkpoint"}"#).unwrap(),
            Request::Checkpoint
        );
        assert_eq!(
            parse_request(br#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_requests_cleanly() {
        for bad in [
            &b"not json"[..],
            br#"[1,2]"#,
            br#"{"second":1}"#,
            br#"{"op":"warp"}"#,
            br#"{"op":"reading","second":1}"#,
            br#"{"op":"reading","second":1,"readings":[[1]]}"#,
            br#"{"op":"reading","second":-1,"readings":[]}"#,
            br#"{"op":"subscribe","sub":1}"#,
            br#"{"op":"subscribe","sub":1,"range":[0,0,1,1],"point":[0,0]}"#,
            br#"{"op":"subscribe","sub":1,"range":[0,0,-1,1]}"#,
            br#"{"op":"raw","second":5,"samples":[[4.5,1,2]]}"#,
            br#"{"op":"tick"}"#,
            br#"{"op":"tick","second":1,"budget":-3}"#,
            br#"{"op":"tick","second":1,"budget":"fast"}"#,
            br#"{"op":"dead_letters"}"#,
        ] {
            assert!(
                parse_request(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn hex_bits_round_trip() {
        for v in [0.0, 1.0, 0.25, -3.5, f64::MIN_POSITIVE] {
            assert_eq!(from_hex_bits(&hex_bits(v)), Some(v));
        }
        assert_eq!(from_hex_bits("xyz"), None);
        assert_eq!(from_hex_bits("00"), None);
    }

    #[test]
    fn renders_deltas_deterministically() {
        let delta = ResultDelta {
            appeared: vec![(ObjectId::new(3), 0.5)],
            disappeared: vec![ObjectId::new(1), ObjectId::new(2)],
            changed: vec![(ObjectId::new(4), 0.5, 0.25)],
        };
        let line = render_delta(7, 12, &delta);
        assert_eq!(
            line,
            "{\"delta\":{\"sub\":7,\"second\":12,\"appeared\":[[3,\"3fe0000000000000\"]],\
             \"disappeared\":[1,2],\"changed\":[[4,\"3fe0000000000000\",\"3fd0000000000000\"]]}}"
        );
        // The rendered frame is itself valid JSON.
        assert!(crate::json::parse(line.as_bytes()).is_ok());
    }

    #[test]
    fn event_frames_are_json_named_by_their_event() {
        let events = [
            (
                "geofence_entered",
                render_event(
                    "geofence_entered",
                    &[("sub", 1), ("object", 4), ("second", 9)],
                ),
            ),
            (
                "geofence_left",
                render_event(
                    "geofence_left",
                    &[("sub", 1), ("object", 4), ("second", 10)],
                ),
            ),
            (
                "object_unseen",
                render_event(
                    "object_unseen",
                    &[("object", 2), ("second", 70), ("last_seen", 3)],
                ),
            ),
        ];
        for (name, line) in &events {
            let doc = crate::json::parse(line.as_bytes()).unwrap();
            assert_eq!(doc.as_obj().unwrap()["event"].as_str(), Some(*name));
        }
        assert_eq!(
            events[2].1,
            "{\"event\":\"object_unseen\",\"object\":2,\"second\":70,\"last_seen\":3}"
        );
    }

    #[test]
    fn ok_and_error_frames_render() {
        assert_eq!(
            render_ok("tick", &[("second", "4".to_string())]),
            "{\"ok\":\"tick\",\"second\":4}"
        );
        assert_eq!(render_error("no\nway"), "{\"error\":\"no\\nway\"}");
        assert_eq!(
            render_busy("reading", &[("second", "5".to_string())], 1),
            "{\"busy\":\"reading\",\"second\":5,\"retry_after_ticks\":1}"
        );
        assert!(crate::json::parse(render_busy("tick", &[], 2).as_bytes()).is_ok());
    }
}
