//! The request/response protocol spoken inside frames.
//!
//! Each frame payload is one compact JSON object with an `"op"` key.
//! Responses are rendered as canonical JSON text (one string per
//! response frame). Probabilities travel as 16-hex-digit f64 bit
//! patterns, so a response stream byte-compares across runs and worker
//! counts without any float-formatting ambiguity.

use crate::json::{self, Value};
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
    /// Sample-level raw readings for one logical second.
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

fn field<'a>(
    obj: &'a std::collections::BTreeMap<String, Value>,
    key: &str,
) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn field_u64(obj: &std::collections::BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
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

/// Parses one frame payload into a [`Request`]. Every failure is a clean
/// `Err` message — malformed JSON, a missing/ill-typed field or an
/// unknown op never panics and never poisons the framing layer.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
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
                // NaN must fail too: NaN.floor() as u64 is 0, which
                // would slip past the second check below.
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
