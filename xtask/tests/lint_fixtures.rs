//! End-to-end fixture coverage for the lint gate: every rule must FIRE
//! on the `ws_fire` fixture workspace and stay QUIET on `ws_quiet`,
//! including the suppression mechanics (a reasoned suppression silences,
//! a reasonless one does not).

use std::collections::BTreeMap;
use std::path::PathBuf;
use xtask::lint::{self, DiagStatus};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn every_rule_fires_on_the_fire_workspace() {
    let report = lint::run(&fixture_root("ws_fire")).expect("lint pass runs");
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for d in report.active() {
        *by_rule.entry(d.rule_id).or_insert(0) += 1;
    }
    // R1: thread_rng + Instant::now (core) + Instant::now in the
    // obs-style span recorder + the ambient-RNG draw in the sim-style
    // fault injector. R2: for-loop over a HashMap field + .keys() +
    // the hash-ordered pivot-selection loop in the graph-style
    // fixture. R3: reasonless-suppressed unwrap + expect +
    // panic!. R4: virtual root manifest (2 problems) + core crate
    // manifest (2); the obs, sim, ckpt and graph fixture crates carry
    // their hygiene attrs so they add none. R5: exact == against a
    // literal + lossy `as f32` cast. R6: raw `fs::write` +
    // `File::create` in the ckpt-style snapshot writer.
    assert_eq!(by_rule.get("R1"), Some(&4), "{by_rule:?}");
    assert_eq!(by_rule.get("R2"), Some(&3), "{by_rule:?}");
    assert_eq!(by_rule.get("R3"), Some(&3), "{by_rule:?}");
    assert_eq!(by_rule.get("R4"), Some(&4), "{by_rule:?}");
    assert_eq!(by_rule.get("R5"), Some(&2), "{by_rule:?}");
    assert_eq!(by_rule.get("R6"), Some(&2), "{by_rule:?}");
    // The raw wall-clock read inside recorder code is caught where it
    // happens: metrics snapshots are deterministic artifacts, so obs-layer
    // code gets no clock-access pass.
    assert!(
        report
            .active()
            .any(|d| d.rule_id == "R1" && d.file.contains("crates/obs/")),
        "Instant::now() in an obs-style recorder must fire R1"
    );
    // Fault injection is result-producing too: a faulted run must replay
    // bit-for-bit, so an ambient-RNG draw in the injector fires R1.
    assert!(
        report
            .active()
            .any(|d| d.rule_id == "R1" && d.file.contains("crates/sim/")),
        "an ambient-RNG draw in a fault-injection site must fire R1"
    );
    // Pivot selection fixes which distance rows a graph precomputes, so
    // a hash-ordered argmax there would make every downstream search
    // irreproducible: R2 must catch it in graph-style code.
    assert!(
        report
            .active()
            .any(|d| d.rule_id == "R2" && d.file.contains("crates/graph/")),
        "a hash-ordered pivot loop in graph-style code must fire R2"
    );
    // A checkpoint writer that overwrites its snapshot in place (raw
    // `std::fs::write`) tears on crash — the new atomic-persistence rule
    // must catch it where it happens.
    assert!(
        report
            .active()
            .any(|d| d.rule_id == "R6" && d.file.contains("crates/ckpt/")),
        "a non-atomic snapshot write in checkpoint-style code must fire R6"
    );
    // A suppression without ` -- reason` does not suppress, and the
    // diagnostic explains why.
    assert!(
        report
            .active()
            .any(|d| d.message.contains("lacks the required")),
        "reasonless suppression must stay active with an explanatory note"
    );
    // Nothing in the fixture is suppressed or allowlisted.
    let (_, suppressed, allowed) = report.counts();
    assert_eq!((suppressed, allowed), (0, 0));
}

#[test]
fn quiet_workspace_passes_with_reasoned_suppressions() {
    let report = lint::run(&fixture_root("ws_quiet")).expect("lint pass runs");
    let active: Vec<String> = report
        .active()
        .map(|d| format!("{}:{} [{}] {}", d.file, d.line, d.rule_id, d.message))
        .collect();
    assert!(
        active.is_empty(),
        "unexpected active diagnostics:\n{active:#?}"
    );
    // The three reasoned suppressions (R1 wall-clock, R3 expect, R6 raw
    // marker write) are recorded — not dropped — and carry their reasons
    // through.
    let reasons: Vec<&String> = report
        .diags
        .iter()
        .filter_map(|d| match &d.status {
            DiagStatus::Suppressed(r) => Some(r),
            _ => None,
        })
        .collect();
    assert_eq!(reasons.len(), 3, "{reasons:?}");
    assert!(reasons.iter().all(|r| r.contains("fixture")));
}

#[test]
fn text_and_json_renderings_carry_the_diagnostics() {
    let report = lint::run(&fixture_root("ws_fire")).expect("lint pass runs");
    let text = report.render_text();
    assert!(text.contains("error[R1/no-nondeterminism]"), "{text}");
    assert!(text.contains("crates/core/src/lib.rs:"), "{text}");
    assert!(text.contains("files scanned"), "{text}");
    let json = report.render_json();
    assert!(json.contains("\"diagnostics\""), "{json}");
    assert!(json.contains("\"rule\": \"R5\""), "{json}");
    assert!(json.contains("\"status\": \"active\""), "{json}");
    assert!(json.contains("\"files_scanned\""), "{json}");
}
