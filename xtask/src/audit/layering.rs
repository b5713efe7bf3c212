//! A1 — crate layering: the internal dependency DAG must match the
//! declared layering spec.
//!
//! The spec below *is* the architecture document: each crate names the
//! complete set of internal crates it may depend on. The analysis
//! checks, over every crate manifest and every `ripq_*::` reference in
//! non-test source code:
//!
//! * **unknown crate** — a workspace crate missing from the spec (the
//!   spec must be extended deliberately, not implicitly);
//! * **forbidden edge** — a manifest dependency the spec does not allow
//!   (this is what keeps `ripq-obs`/`ripq-persist` dependency-free and
//!   `ripq-core` out of `ripq-sim`);
//! * **undeclared edge** — source code referencing an internal crate the
//!   manifest does not declare (path-hygiene: edges must be visible in
//!   `Cargo.toml`, not smuggled through re-exports);
//! * **cycle** — any cycle in the manifest dependency graph.
//!
//! Spec entries for crates absent from the workspace are *ignored*, not
//! errors: the fixture workspaces are deliberate subsets.

use super::workspace::Workspace;
use super::{Analysis, Finding, FindingStatus, Severity};

/// A2 uses dotted instrument names; A1's identity is the crate directory
/// name, with `.` for the root package.
#[derive(Debug)]
pub struct Layer {
    /// Crate directory name.
    pub name: &'static str,
    /// Internal crates this layer may depend on (complete set).
    pub allowed: &'static [&'static str],
    /// One-line statement of the layer's architectural role.
    pub role: &'static str,
}

/// Every internal crate the leaf-free layers may reach, for the root
/// package and the harness crates that legitimately see everything.
const ALL_LIBS: &[&str] = &[
    "geom",
    "persist",
    "obs",
    "floorplan",
    "graph",
    "rfid",
    "pf",
    "symbolic",
    "core",
    "sim",
    "server",
];

/// The declared layering spec. Order is bottom-up and is the order the
/// architecture docs present the crates in.
pub const LAYERS: &[Layer] = &[
    Layer {
        name: "geom",
        allowed: &[],
        role: "2D primitives; depends on nothing internal",
    },
    Layer {
        name: "persist",
        allowed: &[],
        role: "crash-safe persistence primitives; MUST stay dependency-free so every \
               layer can use it without cycles",
    },
    Layer {
        name: "obs",
        allowed: &[],
        role: "observability; MUST stay dependency-free so every layer can record into it",
    },
    Layer {
        name: "floorplan",
        allowed: &["geom"],
        role: "indoor floor-plan model",
    },
    Layer {
        name: "graph",
        allowed: &["geom", "floorplan", "persist"],
        role: "walking graph, anchor index, distance oracle",
    },
    Layer {
        name: "rfid",
        allowed: &["geom", "floorplan", "graph", "persist", "obs"],
        role: "reader deployment, sensing model, event collector",
    },
    Layer {
        name: "symbolic",
        allowed: &["geom", "floorplan", "graph", "rfid"],
        role: "symbolic-model baseline inference",
    },
    Layer {
        name: "pf",
        allowed: &["geom", "floorplan", "graph", "rfid", "persist", "obs"],
        role: "particle filter and preprocessing",
    },
    Layer {
        name: "core",
        allowed: &["geom", "floorplan", "graph", "rfid", "pf", "persist", "obs"],
        role: "query evaluation engine; must NEVER depend on the simulator",
    },
    Layer {
        name: "sim",
        allowed: &[
            "geom",
            "floorplan",
            "graph",
            "rfid",
            "pf",
            "symbolic",
            "core",
            "persist",
            "obs",
        ],
        role: "simulator, ground truth, experiments",
    },
    Layer {
        name: "server",
        allowed: &["geom", "persist", "floorplan", "rfid", "core"],
        role: "streaming query daemon: framed ingestion, continuous subscriptions, \
               geofence/unseen events; must NEVER depend on the simulator (transcripts \
               arrive as plain frames)",
    },
    Layer {
        name: "bench",
        allowed: ALL_LIBS,
        role: "experiment/bench harness; may see everything",
    },
    Layer {
        name: ".",
        allowed: ALL_LIBS,
        role: "root facade crate and CLI; may see everything",
    },
    Layer {
        name: "xtask",
        allowed: &[],
        role: "workspace automation; internal deps would drag product code into the \
               lint/audit toolchain",
    },
];

fn layer(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|l| l.name == name)
}

/// Runs A1 over the scanned workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let dirs: Vec<String> = ws.crates.iter().map(|c| c.name.clone()).collect();

    for krate in &ws.crates {
        let Some(spec) = layer(&krate.name) else {
            findings.push(Finding {
                analysis: Analysis::Layering,
                severity: Severity::Error,
                file: krate.manifest_rel.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "crate `{}` is not in the layering spec — add it to \
                     xtask/src/audit/layering.rs with its complete allowed-dependency set",
                    krate.name
                ),
                snippet: String::new(),
                status: FindingStatus::Active,
            });
            continue;
        };
        // Forbidden manifest edges.
        for dep in &krate.deps {
            if !spec.allowed.contains(&dep.target.as_str()) {
                let target_note = match dep.target.as_str() {
                    "sim" => " (the engine must never depend on the simulator)",
                    _ => "",
                };
                let from_note = if spec.allowed.is_empty() {
                    format!(
                        " — `{}` is declared dependency-free: {}",
                        krate.name, spec.role
                    )
                } else {
                    String::new()
                };
                findings.push(Finding {
                    analysis: Analysis::Layering,
                    severity: Severity::Error,
                    file: krate.manifest_rel.clone(),
                    line: dep.line,
                    col: 1,
                    message: format!(
                        "forbidden dependency edge `{}` → `{}`: the layering spec allows \
                         [{}]{}{}",
                        krate.name,
                        dep.target,
                        spec.allowed.join(", "),
                        target_note,
                        from_note
                    ),
                    snippet: String::new(),
                    status: FindingStatus::Active,
                });
            }
        }
        // Undeclared code edges.
        for edge in krate.use_edges(&dirs) {
            if !krate.deps.iter().any(|d| d.target == edge.target) {
                let spec_note = if spec.allowed.contains(&edge.target.as_str()) {
                    "declare it in [dependencies]"
                } else {
                    "the layering spec forbids this edge entirely"
                };
                findings.push(Finding {
                    analysis: Analysis::Layering,
                    severity: Severity::Error,
                    file: edge.file.clone(),
                    line: edge.line,
                    col: edge.col,
                    message: format!(
                        "undeclared dependency edge: `{}` code references `ripq_{}` but the \
                         manifest declares no such dependency — {}",
                        krate.name,
                        edge.target.replace('-', "_"),
                        spec_note
                    ),
                    snippet: String::new(),
                    status: FindingStatus::Active,
                });
            }
        }
    }

    // Cycle detection over manifest edges, deterministic: DFS from each
    // crate in name order, reporting each cycle once (rotated so the
    // lexicographically smallest member leads).
    let mut reported: Vec<Vec<String>> = Vec::new();
    for start in &ws.crates {
        let mut stack: Vec<String> = vec![start.name.clone()];
        dfs_cycles(ws, &mut stack, &mut reported, &mut findings);
    }
    findings
}

fn dfs_cycles(
    ws: &Workspace,
    stack: &mut Vec<String>,
    reported: &mut Vec<Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let current = stack.last().cloned().unwrap_or_default();
    let Some(krate) = ws.crates.iter().find(|c| c.name == current) else {
        return;
    };
    for dep in &krate.deps {
        if let Some(pos) = stack.iter().position(|n| *n == dep.target) {
            // Canonicalize: rotate so the smallest name leads.
            let cycle: Vec<String> = stack[pos..].to_vec();
            let min_idx = cycle
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut canon: Vec<String> = cycle[min_idx..].to_vec();
            canon.extend_from_slice(&cycle[..min_idx]);
            if !reported.contains(&canon) {
                reported.push(canon.clone());
                let path = canon
                    .iter()
                    .chain(std::iter::once(&canon[0]))
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(" → ");
                let anchor = ws
                    .crates
                    .iter()
                    .find(|c| c.name == canon[0])
                    .map(|c| c.manifest_rel.clone())
                    .unwrap_or_default();
                findings.push(Finding {
                    analysis: Analysis::Layering,
                    severity: Severity::Error,
                    file: anchor,
                    line: 1,
                    col: 1,
                    message: format!("dependency cycle: {path}"),
                    snippet: String::new(),
                    status: FindingStatus::Active,
                });
            }
        } else {
            stack.push(dep.target.clone());
            dfs_cycles(ws, stack, reported, findings);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_itself_a_dag_with_known_targets() {
        for l in LAYERS {
            for dep in l.allowed {
                let target = layer(dep).expect("allowed dep must be a spec layer");
                assert!(
                    !target.allowed.contains(&l.name),
                    "spec contains 2-cycle {} <-> {}",
                    l.name,
                    dep
                );
            }
        }
        // Bottom-up order: every allowed dep appears earlier in LAYERS.
        for (i, l) in LAYERS.iter().enumerate() {
            for dep in l.allowed {
                let pos = LAYERS.iter().position(|x| x.name == *dep).unwrap();
                assert!(pos < i, "{} must precede {}", dep, l.name);
            }
        }
    }

    #[test]
    fn obs_and_persist_are_declared_leaf_layers() {
        assert!(layer("obs").unwrap().allowed.is_empty());
        assert!(layer("persist").unwrap().allowed.is_empty());
        assert!(!layer("core").unwrap().allowed.contains(&"sim"));
    }
}
