//! `cargo xtask lint` — the repo-specific static-analysis gate.
//!
//! Walks every workspace crate (vendored stand-ins under `vendor/` are
//! excluded — they are external code) and enforces the R1–R6 rules from
//! [`rules`]. Violations can be silenced two ways, both requiring a
//! written reason:
//!
//! * inline, for single sites: `// ripq-lint: allow(<rule-name>) -- reason`
//!   on the offending line or the line directly above it;
//! * the static [`allowlist`], for structural whole-file exemptions.
//!
//! The gate exits nonzero on any unsuppressed violation and is run both by
//! CI and by the tier-1 test `tests/lint_gate.rs`.

pub mod allowlist;
pub mod rules;
pub mod source;

use allowlist::{AllowEntry, ALLOWLIST};
use rules::{Hit, Rule};
use source::SourceFile;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose outputs are query results: R2/R5 apply here. `obs` is
/// included because metrics snapshots are result artifacts — golden
/// fixtures and determinism tests compare them byte-for-byte, so
/// iteration order and float hygiene matter as much as in query code.
/// `rfid` is included because its collector's per-second entries are the
/// evidence every answer is computed from.
const RESULT_PRODUCING: [&str; 6] = ["core", "pf", "graph", "symbolic", "obs", "rfid"];

/// What happened to a candidate violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagStatus {
    /// Unsuppressed — fails the gate.
    Active,
    /// Silenced by an inline suppression with the given reason.
    Suppressed(String),
    /// Silenced by a static allowlist entry with the given reason.
    Allowlisted(&'static str),
}

/// One diagnostic produced by the gate.
#[derive(Debug)]
pub struct Diagnostic {
    /// Rule short id (`R1` … `R6`).
    pub rule_id: &'static str,
    /// Rule name (`no-nondeterminism` …).
    pub rule_name: &'static str,
    /// Workspace-relative path (unix separators).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Explanation and remediation advice.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Suppression state.
    pub status: DiagStatus,
}

/// The result of one full lint pass.
#[derive(Debug)]
pub struct LintReport {
    /// Every diagnostic found, including suppressed ones, sorted by
    /// (file, line, column, rule).
    pub diags: Vec<Diagnostic>,
    /// Number of `.rs` files scanned with line rules.
    pub files_scanned: usize,
    /// Allowlist entries that matched nothing (stale — prune them).
    pub stale_allowlist: Vec<&'static AllowEntry>,
}

impl LintReport {
    /// Unsuppressed violations.
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.status == DiagStatus::Active)
    }

    /// (active, suppressed, allowlisted) counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diags {
            match d.status {
                DiagStatus::Active => c.0 += 1,
                DiagStatus::Suppressed(_) => c.1 += 1,
                DiagStatus::Allowlisted(_) => c.2 += 1,
            }
        }
        c
    }

    /// Renders rustc-style text diagnostics plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in self.active() {
            let _ = writeln!(
                out,
                "{}:{}:{}: error[{}/{}]: {}",
                d.file, d.line, d.col, d.rule_id, d.rule_name, d.message
            );
            let _ = writeln!(out, "    {}", d.snippet);
        }
        let (active, suppressed, allowed) = self.counts();
        for entry in &self.stale_allowlist {
            let _ = writeln!(
                out,
                "note: stale allowlist entry matched nothing: ({}, {})",
                entry.rule, entry.path_prefix
            );
        }
        let _ = writeln!(
            out,
            "ripq-lint: {} violation{} ({} suppressed, {} allowlisted) — {} files scanned",
            active,
            if active == 1 { "" } else { "s" },
            suppressed,
            allowed,
            self.files_scanned
        );
        out
    }

    /// Renders the whole report as a JSON object (machine-readable mode).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diags.iter().enumerate() {
            let (status, reason) = match &d.status {
                DiagStatus::Active => ("active", String::new()),
                DiagStatus::Suppressed(r) => ("suppressed", r.clone()),
                DiagStatus::Allowlisted(r) => ("allowlisted", (*r).to_string()),
            };
            let _ = write!(
                out,
                "{}\n    {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \
                 \"line\": {}, \"col\": {}, \"status\": \"{}\", \"reason\": \"{}\", \
                 \"message\": \"{}\", \"snippet\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                d.rule_id,
                d.rule_name,
                esc(&d.file),
                d.line,
                d.col,
                status,
                esc(&reason),
                esc(&d.message),
                esc(&d.snippet)
            );
        }
        let (active, suppressed, allowed) = self.counts();
        let _ = write!(
            out,
            "\n  ],\n  \"active\": {active},\n  \"suppressed\": {suppressed},\n  \
             \"allowlisted\": {allowed},\n  \"files_scanned\": {}\n}}\n",
            self.files_scanned
        );
        out
    }
}

/// A workspace crate subject to linting.
struct CrateTarget {
    /// Directory name used for rule scoping (`core`, `pf`, …; the root
    /// package is `.`, the automation crate `xtask`).
    name: String,
    /// Crate directory, relative to the workspace root.
    dir: PathBuf,
}

/// Locates the workspace root by walking up from `start` until a
/// `Cargo.toml` containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// diagnostic order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn rel_unix(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Enumerates the lintable workspace crates: the root package, every
/// directory under `crates/`, and `xtask`. `vendor/` is excluded — those
/// are offline stand-ins for external dependencies, not our code.
fn crate_targets(root: &Path) -> Vec<CrateTarget> {
    let mut targets = vec![CrateTarget {
        name: ".".to_string(),
        dir: PathBuf::new(),
    }];
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").exists())
            .collect();
        dirs.sort();
        for d in dirs {
            let name = d
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            targets.push(CrateTarget {
                name,
                dir: PathBuf::from("crates").join(d.file_name().unwrap_or_default()),
            });
        }
    }
    if root.join("xtask/Cargo.toml").exists() {
        targets.push(CrateTarget {
            name: "xtask".to_string(),
            dir: PathBuf::from("xtask"),
        });
    }
    targets
}

/// Runs the line rules configured for `crate_name` over one parsed file.
pub fn lint_file(crate_name: &str, file: &SourceFile) -> Vec<(&'static Rule, Hit)> {
    let mut hits: Vec<(&'static Rule, Hit)> = Vec::new();
    // The automation crate itself is tooling: it reads arbitrary files and
    // reports to a terminal, so the server-oriented line rules don't apply
    // (R4 hygiene still does).
    if crate_name == "xtask" {
        return hits;
    }
    if crate_name != "bench" {
        for h in rules::check_no_nondeterminism(file) {
            hits.push((&rules::NO_NONDETERMINISM, h));
        }
    }
    for h in rules::check_no_panic_paths(file) {
        hits.push((&rules::NO_PANIC_PATHS, h));
    }
    for h in rules::check_atomic_persistence(file) {
        hits.push((&rules::ATOMIC_PERSISTENCE, h));
    }
    if RESULT_PRODUCING.contains(&crate_name) {
        for h in rules::check_ordered_iteration(file) {
            hits.push((&rules::ORDERED_ITERATION, h));
        }
        for h in rules::check_prob_hygiene(file) {
            hits.push((&rules::PROB_HYGIENE, h));
        }
    }
    hits
}

/// Resolves a candidate hit against inline suppressions (same line or the
/// line directly above) and the static allowlist.
fn resolve_status(
    rule: &Rule,
    file: &SourceFile,
    rel_path: &str,
    line: usize,
    allow_hits: &mut [bool],
) -> (DiagStatus, bool) {
    let mut missing_reason = false;
    for idx in [Some(line - 1), line.checked_sub(2)].into_iter().flatten() {
        if let Some(l) = file.lines.get(idx) {
            for s in &l.suppressions {
                if s.rule == rule.name || s.rule == rule.id {
                    match &s.reason {
                        Some(r) => return (DiagStatus::Suppressed(r.clone()), false),
                        None => missing_reason = true,
                    }
                }
            }
        }
    }
    for (i, entry) in ALLOWLIST.iter().enumerate() {
        if (entry.rule == rule.name || entry.rule == rule.id)
            && rel_path.starts_with(entry.path_prefix)
        {
            allow_hits[i] = true;
            return (DiagStatus::Allowlisted(entry.reason), false);
        }
    }
    (DiagStatus::Active, missing_reason)
}

/// Runs the full gate over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<LintReport, String> {
    let root_manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read workspace Cargo.toml: {e}"))?;
    let workspace_lints_ok = rules::workspace_lints_defined(&root_manifest);

    let mut diags = Vec::new();
    let mut files_scanned = 0usize;
    let mut allow_hits = vec![false; ALLOWLIST.len()];

    for target in crate_targets(root) {
        let crate_dir = root.join(&target.dir);
        // R4: crate hygiene.
        let manifest_path = crate_dir.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let root_src_path = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|p| crate_dir.join(p))
            .find(|p| p.exists());
        let root_src = root_src_path
            .as_ref()
            .and_then(|p| fs::read_to_string(p).ok());
        for problem in
            rules::check_crate_hygiene(&manifest, root_src.as_deref(), workspace_lints_ok)
        {
            diags.push(Diagnostic {
                rule_id: rules::CRATE_HYGIENE.id,
                rule_name: rules::CRATE_HYGIENE.name,
                file: rel_unix(root, &manifest_path),
                line: 1,
                col: 1,
                message: problem,
                snippet: String::new(),
                status: DiagStatus::Active,
            });
        }

        // Line rules over the crate's library sources.
        for path in rust_files(&crate_dir.join("src")) {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let file = SourceFile::parse(&text);
            let rel = rel_unix(root, &path);
            files_scanned += 1;
            for (rule, hit) in lint_file(&target.name, &file) {
                let (status, missing_reason) =
                    resolve_status(rule, &file, &rel, hit.line, &mut allow_hits);
                let mut message = hit.message;
                if missing_reason {
                    message.push_str(
                        " (a suppression comment was found but lacks the required \
                         ` -- reason`, so it does not apply)",
                    );
                }
                let snippet = file
                    .lines
                    .get(hit.line - 1)
                    .map(|l| l.raw.trim().to_string())
                    .unwrap_or_default();
                diags.push(Diagnostic {
                    rule_id: rule.id,
                    rule_name: rule.name,
                    file: rel.clone(),
                    line: hit.line,
                    col: hit.col,
                    message,
                    snippet,
                    status,
                });
            }
        }
    }

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule_id).cmp(&(&b.file, b.line, b.col, b.rule_id))
    });
    let stale_allowlist = ALLOWLIST
        .iter()
        .enumerate()
        .filter(|(i, _)| !allow_hits[*i])
        .map(|(_, e)| e)
        .collect();
    Ok(LintReport {
        diags,
        files_scanned,
        stale_allowlist,
    })
}
