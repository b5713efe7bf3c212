//! A2 — metrics-registry drift.
//!
//! Instrument names are scattered string literals (`recorder.counter
//! ("pf.resamples")` and friends), yet PR 3's byte-identical snapshot
//! guarantee makes them part of the public artifact surface: a typo'd
//! name silently forks a new instrument, a renamed one silently kills
//! golden fixtures. This analysis extracts every literal instrument
//! registration/recording site across the workspace and cross-checks it
//! against the checked-in canonical registry
//! (`xtask/metrics_registry.toml`):
//!
//! * **undocumented** — a name used in code but absent from the registry
//!   (with a did-you-mean suggestion when it is edit-distance ≤ 2 from a
//!   registered name: the typo case);
//! * **kind mismatch** — a registered name recorded through the wrong
//!   instrument family;
//! * **dead** — a registered name no code records (delete the entry or
//!   resurrect the instrument);
//! * **fixture drift** — a name in `tests/fixtures/expected_metrics.json`
//!   the registry does not document.
//!
//! `docs/METRICS.md` is *generated* from the registry (`render_doc`);
//! the orchestrator reports drift between the generated text and the
//! committed file.

use super::json;
use super::workspace::Workspace;
use super::{Analysis, Finding, FindingStatus, Severity};
use crate::lint::rules::{lex, Tok};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Instrument families, in registry/doc section order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Monotone counter.
    Counter,
    /// Last-write-wins level.
    Gauge,
    /// Fixed log-bucket histogram.
    Histogram,
    /// Hierarchical slash-path span.
    Span,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Span => "span",
        }
    }

    fn section(self) -> &'static str {
        match self {
            Kind::Counter => "counters",
            Kind::Gauge => "gauges",
            Kind::Histogram => "histograms",
            Kind::Span => "spans",
        }
    }
}

/// One canonical registry entry.
#[derive(Debug)]
pub struct RegistryEntry {
    /// Instrument kind.
    pub kind: Kind,
    /// Instrument name (`stage.metric`, spans `stage/sub`).
    pub name: String,
    /// One-line description (required — the registry is the doc source).
    pub description: String,
    /// 1-based line in the registry file.
    pub line: usize,
}

/// The parsed canonical registry.
#[derive(Debug, Default)]
pub struct Registry {
    /// Entries in file order.
    pub entries: Vec<RegistryEntry>,
}

/// Workspace-relative path of the canonical registry.
pub const REGISTRY_PATH: &str = "xtask/metrics_registry.toml";

/// Workspace-relative path of the generated documentation.
pub const DOC_PATH: &str = "docs/METRICS.md";

/// Workspace-relative path of the golden metrics fixture.
pub const FIXTURE_PATH: &str = "tests/fixtures/expected_metrics.json";

impl Registry {
    /// Parses the registry format: `[counters]`-style section headers and
    /// `"name" = "description"` lines (valid TOML, hand-parsed because
    /// the build is hermetic).
    pub fn parse(text: &str) -> Result<Registry, String> {
        let mut entries = Vec::new();
        let mut kind: Option<Kind> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                kind = Some(match section {
                    "counters" => Kind::Counter,
                    "gauges" => Kind::Gauge,
                    "histograms" => Kind::Histogram,
                    "spans" => Kind::Span,
                    other => return Err(format!("line {}: unknown section [{other}]", idx + 1)),
                });
                continue;
            }
            let Some(k) = kind else {
                return Err(format!("line {}: entry before any section header", idx + 1));
            };
            let parse_quoted = |s: &str| -> Option<(String, String)> {
                let s = s.trim_start().strip_prefix('"')?;
                let end = s.find('"')?;
                Some((s[..end].to_string(), s[end + 1..].to_string()))
            };
            let Some((name, rest)) = parse_quoted(line) else {
                return Err(format!(
                    "line {}: expected `\"name\" = \"description\"`",
                    idx + 1
                ));
            };
            let Some((description, _)) = rest.trim_start().strip_prefix('=').and_then(parse_quoted)
            else {
                return Err(format!("line {}: missing `= \"description\"`", idx + 1));
            };
            if description.trim().is_empty() {
                return Err(format!(
                    "line {}: `{name}` has an empty description — the registry is the \
                     documentation source, every instrument must say what it measures",
                    idx + 1
                ));
            }
            entries.push(RegistryEntry {
                kind: k,
                name,
                description,
                line: idx + 1,
            });
        }
        Ok(Registry { entries })
    }

    fn find(&self, name: &str) -> Option<&RegistryEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Renders `docs/METRICS.md` — deterministic, name-sorted sections.
    pub fn render_doc(&self) -> String {
        let mut out = String::from(
            "# RIPQ metrics registry\n\n\
             <!-- GENERATED by `cargo xtask audit --write-docs` from\n     \
             xtask/metrics_registry.toml — do not edit by hand. -->\n\n\
             Every instrument the pipeline records, by family. Names follow the\n\
             `stage.metric` convention (spans use slash paths). Metrics snapshots are\n\
             deterministic artifacts: under logical timing the JSON rendering is\n\
             byte-identical across runs and worker counts, so this registry is part of\n\
             the output contract — `cargo xtask audit` fails on any drift between this\n\
             registry, the recording sites in code, and the golden fixture.\n",
        );
        for kind in [Kind::Counter, Kind::Gauge, Kind::Histogram, Kind::Span] {
            let mut entries: Vec<&RegistryEntry> =
                self.entries.iter().filter(|e| e.kind == kind).collect();
            if entries.is_empty() {
                continue;
            }
            entries.sort_by(|a, b| a.name.cmp(&b.name));
            let title = match kind {
                Kind::Counter => "Counters",
                Kind::Gauge => "Gauges",
                Kind::Histogram => "Histograms",
                Kind::Span => "Spans",
            };
            let _ = write!(out, "\n## {title}\n\n| name | description |\n|---|---|\n");
            for e in entries {
                let _ = writeln!(out, "| `{}` | {} |", e.name, e.description);
            }
        }
        out
    }
}

/// One literal instrument use site found in code.
#[derive(Debug)]
pub struct UseSite {
    /// Instrument kind implied by the method called.
    pub kind: Kind,
    /// The literal name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column of the literal.
    pub col: usize,
}

/// Methods that take an instrument name as their first (literal) argument.
const METHODS: [(&str, Kind); 8] = [
    ("counter", Kind::Counter),
    ("add", Kind::Counter),
    ("gauge", Kind::Gauge),
    ("set_gauge", Kind::Gauge),
    ("histogram", Kind::Histogram),
    ("observe", Kind::Histogram),
    ("span", Kind::Span),
    ("record_span", Kind::Span),
];

/// Extracts every literal instrument use site from non-test code across
/// the workspace, sorted by (file, line, col).
pub fn extract_use_sites(ws: &Workspace) -> Vec<UseSite> {
    let mut sites = Vec::new();
    for krate in &ws.crates {
        // The audit tooling itself mentions method names in its own
        // extraction tables; instrument literals only live in product
        // crates.
        if krate.name == "xtask" {
            continue;
        }
        for file in &krate.files {
            for (idx, line) in file.src.lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                let toks = lex(&line.code);
                for w in 0..toks.len() {
                    let (method, kind) = match toks[w] {
                        Tok::Ident(name, _) => match METHODS.iter().find(|(m, _)| *m == name) {
                            Some((m, k)) => (*m, *k),
                            None => continue,
                        },
                        _ => continue,
                    };
                    let _ = method;
                    let after_dot = w >= 1 && matches!(toks[w - 1], Tok::Punct(".", _));
                    let open = matches!(toks.get(w + 1), Some(Tok::Punct("(", _)));
                    if !after_dot || !open {
                        continue;
                    }
                    let Some(Tok::Punct("(", paren)) = toks.get(w + 1) else {
                        continue;
                    };
                    // The scrubbed code blanks string literals; read the
                    // literal back out of the raw line (offsets match).
                    if let Some((name, col)) = literal_after(&line.raw, paren + 1) {
                        sites.push(UseSite {
                            kind,
                            name,
                            file: file.rel.clone(),
                            line: idx + 1,
                            col: col + 1,
                        });
                    } else if line.raw[paren + 1..].trim().is_empty() {
                        // rustfmt broke the call: `.set_gauge(` at end of
                        // line, literal leading the next line.
                        if let Some((name, col)) = file
                            .src
                            .lines
                            .get(idx + 1)
                            .and_then(|next| literal_after(&next.raw, 0))
                        {
                            sites.push(UseSite {
                                kind,
                                name,
                                file: file.rel.clone(),
                                line: idx + 2,
                                col: col + 1,
                            });
                        }
                    }
                }
            }
        }
    }
    sites.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    sites
}

/// Reads a `"…"` literal starting at or after byte `from` in `raw`
/// (skipping only whitespace). Returns (contents, byte offset of the
/// opening quote). Instrument names never contain escapes.
fn literal_after(raw: &str, from: usize) -> Option<(String, usize)> {
    let bytes = raw.as_bytes();
    let mut i = from;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    let start = i + 1;
    let end = raw[start..].find('"')? + start;
    Some((raw[start..end].to_string(), i))
}

/// Levenshtein distance, for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Runs A2 over the scanned workspace. Returns the findings plus the
/// generated doc text (empty when the registry is missing/unparsable).
pub fn check(root: &Path, ws: &Workspace) -> (Vec<Finding>, String) {
    let mut findings = Vec::new();
    let registry_text = match fs::read_to_string(root.join(REGISTRY_PATH)) {
        Ok(t) => t,
        Err(_) => {
            findings.push(Finding {
                analysis: Analysis::MetricsRegistry,
                severity: Severity::Error,
                file: REGISTRY_PATH.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "canonical metrics registry `{REGISTRY_PATH}` is missing — every \
                     instrument name must be documented there"
                ),
                snippet: String::new(),
                status: FindingStatus::Active,
            });
            return (findings, String::new());
        }
    };
    let registry = match Registry::parse(&registry_text) {
        Ok(r) => r,
        Err(e) => {
            findings.push(Finding {
                analysis: Analysis::MetricsRegistry,
                severity: Severity::Error,
                file: REGISTRY_PATH.to_string(),
                line: 1,
                col: 1,
                message: format!("cannot parse `{REGISTRY_PATH}`: {e}"),
                snippet: String::new(),
                status: FindingStatus::Active,
            });
            return (findings, String::new());
        }
    };

    let sites = extract_use_sites(ws);

    // Undocumented / kind-mismatched uses: one finding per distinct
    // (name, kind), anchored at the first use site.
    let mut seen: Vec<(String, Kind)> = Vec::new();
    for site in &sites {
        if seen.iter().any(|(n, k)| *n == site.name && *k == site.kind) {
            continue;
        }
        seen.push((site.name.clone(), site.kind));
        match registry.find(&site.name) {
            None => {
                let suggestion = registry
                    .entries
                    .iter()
                    .map(|e| (edit_distance(&site.name, &e.name), &e.name))
                    .filter(|(d, _)| *d <= 2)
                    .min()
                    .map(|(_, name)| format!(" — did you mean `{name}`?"))
                    .unwrap_or_default();
                findings.push(Finding {
                    analysis: Analysis::MetricsRegistry,
                    severity: Severity::Error,
                    file: site.file.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "undocumented instrument `{}` ({}) — not in {REGISTRY_PATH}{}",
                        site.name,
                        site.kind.label(),
                        suggestion
                    ),
                    snippet: String::new(),
                    status: FindingStatus::Active,
                });
            }
            Some(entry) if entry.kind != site.kind => {
                findings.push(Finding {
                    analysis: Analysis::MetricsRegistry,
                    severity: Severity::Error,
                    file: site.file.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "instrument `{}` is registered as a {} but recorded here as a {} — \
                         one name, one family",
                        site.name,
                        entry.kind.label(),
                        site.kind.label()
                    ),
                    snippet: String::new(),
                    status: FindingStatus::Active,
                });
            }
            Some(_) => {}
        }
    }

    // Dead registry entries.
    for entry in &registry.entries {
        if !sites.iter().any(|s| s.name == entry.name) {
            findings.push(Finding {
                analysis: Analysis::MetricsRegistry,
                severity: Severity::Error,
                file: REGISTRY_PATH.to_string(),
                line: entry.line,
                col: 1,
                message: format!(
                    "dead registry entry `{}` ({}) — no code records it; delete the entry \
                     or resurrect the instrument",
                    entry.name,
                    entry.kind.label()
                ),
                snippet: String::new(),
                status: FindingStatus::Active,
            });
        }
    }

    // Golden-fixture cross-check: every instrument the fixture pins must
    // be documented.
    if let Ok(fixture_text) = fs::read_to_string(root.join(FIXTURE_PATH)) {
        match json::parse(&fixture_text) {
            Ok(doc) => {
                for kind in [Kind::Counter, Kind::Gauge, Kind::Histogram, Kind::Span] {
                    let Some(family) = doc
                        .as_obj()
                        .and_then(|o| o.get(kind.section()))
                        .and_then(|v| v.as_obj())
                    else {
                        continue;
                    };
                    for name in family.keys() {
                        if registry.find(name).is_none() {
                            findings.push(Finding {
                                analysis: Analysis::MetricsRegistry,
                                severity: Severity::Error,
                                file: FIXTURE_PATH.to_string(),
                                line: 1,
                                col: 1,
                                message: format!(
                                    "golden fixture pins instrument `{name}` ({}) that \
                                     {REGISTRY_PATH} does not document",
                                    kind.label()
                                ),
                                snippet: String::new(),
                                status: FindingStatus::Active,
                            });
                        }
                    }
                }
            }
            Err(e) => findings.push(Finding {
                analysis: Analysis::MetricsRegistry,
                severity: Severity::Error,
                file: FIXTURE_PATH.to_string(),
                line: 1,
                col: 1,
                message: format!("cannot parse `{FIXTURE_PATH}`: {e}"),
                snippet: String::new(),
                status: FindingStatus::Active,
            }),
        }
    }

    (findings, registry.render_doc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_parses_sections_and_rejects_empty_descriptions() {
        let reg = Registry::parse(
            "# comment\n[counters]\n\"pf.resamples\" = \"resampling passes\"\n\
             [spans]\n\"evaluate\" = \"whole evaluation pass\"\n",
        )
        .expect("parses");
        assert_eq!(reg.entries.len(), 2);
        assert_eq!(reg.entries[0].kind, Kind::Counter);
        assert_eq!(reg.entries[1].kind, Kind::Span);
        assert!(Registry::parse("[counters]\n\"x\" = \"\"\n").is_err());
        assert!(Registry::parse("[weird]\n").is_err());
        assert!(Registry::parse("\"x\" = \"y\"\n").is_err());
    }

    #[test]
    fn edit_distance_catches_single_typos() {
        assert_eq!(
            edit_distance("collector.detections", "colector.detections"),
            1
        );
        assert_eq!(edit_distance("a", "a"), 0);
        assert!(edit_distance("pf.resamples", "cache.entries") > 2);
    }

    #[test]
    fn doc_rendering_is_sorted_and_sectioned() {
        let reg = Registry::parse(
            "[counters]\n\"z.b\" = \"zb\"\n\"a.a\" = \"aa\"\n[gauges]\n\"g.g\" = \"gg\"\n",
        )
        .unwrap();
        let doc = reg.render_doc();
        let a = doc.find("`a.a`").unwrap();
        let z = doc.find("`z.b`").unwrap();
        assert!(a < z, "entries sorted by name");
        assert!(doc.contains("## Counters"));
        assert!(doc.contains("## Gauges"));
        assert!(!doc.contains("## Histograms"), "empty sections omitted");
    }

    #[test]
    fn literal_extraction_reads_raw_contents() {
        assert_eq!(
            literal_after("rec.add(\"pf.x\", 1)", 8),
            Some(("pf.x".to_string(), 8))
        );
        assert_eq!(literal_after("rec.add(name, 1)", 8), None);
    }
}
