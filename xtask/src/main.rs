//! `cargo xtask` — workspace automation entry point.
//!
//! ```text
//! cargo xtask lint [--json] [--root <path>]   run the static-analysis gate
//! cargo xtask audit [flags]                   run the workspace audit (A1–A4)
//! cargo xtask rules                           list the rule/analysis catalogue
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{audit, lint};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <task>\n\n\
         tasks:\n  \
         lint [--json] [--root <path>]   run the repo lint gate (exit 1 on violations)\n  \
         audit [--json] [--sarif] [--sarif-out <path>] [--root <path>]\n        \
         [--check] [--write-docs] [--update-baseline]\n                                  \
         run the workspace audit: layering DAG, metrics\n                                  \
         registry, determinism taint, panic ratchet\n  \
         rules                           list lint rules and audit analyses"
    );
    ExitCode::from(2)
}

fn workspace_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    explicit.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        lint::find_workspace_root(&cwd)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut json = false;
            let mut root: Option<PathBuf> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--json" => json = true,
                    "--root" => match it.next() {
                        Some(p) => root = Some(PathBuf::from(p)),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let Some(root) = workspace_root(root) else {
                eprintln!("error: could not locate the workspace root (try --root <path>)");
                return ExitCode::FAILURE;
            };
            match lint::run(&root) {
                Ok(report) => {
                    if json {
                        print!("{}", report.render_json());
                    } else {
                        print!("{}", report.render_text());
                    }
                    if report.active().next().is_some() {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("audit") => {
            let mut json = false;
            let mut sarif = false;
            let mut sarif_out: Option<PathBuf> = None;
            let mut root: Option<PathBuf> = None;
            let mut check = false;
            let mut write_docs = false;
            let mut update_baseline = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--json" => json = true,
                    "--sarif" => sarif = true,
                    "--sarif-out" => match it.next() {
                        Some(p) => sarif_out = Some(PathBuf::from(p)),
                        None => return usage(),
                    },
                    "--root" => match it.next() {
                        Some(p) => root = Some(PathBuf::from(p)),
                        None => return usage(),
                    },
                    "--check" => check = true,
                    "--write-docs" => write_docs = true,
                    "--update-baseline" => update_baseline = true,
                    _ => return usage(),
                }
            }
            let Some(root) = workspace_root(root) else {
                eprintln!("error: could not locate the workspace root (try --root <path>)");
                return ExitCode::FAILURE;
            };
            let report = match audit::run(&root, audit::AuditOptions { check }) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if update_baseline {
                let text = audit::panics::render_baseline(&report.panic_counts);
                let path = root.join(audit::panics::BASELINE_PATH);
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", audit::panics::BASELINE_PATH);
            }
            if write_docs {
                if report.metrics_doc.is_empty() {
                    eprintln!(
                        "error: metrics registry missing or unparsable — cannot generate {}",
                        audit::metrics::DOC_PATH
                    );
                    return ExitCode::FAILURE;
                }
                let path = root.join(audit::metrics::DOC_PATH);
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                if let Err(e) = std::fs::write(&path, &report.metrics_doc) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", audit::metrics::DOC_PATH);
            }
            if update_baseline || write_docs {
                // Mutating runs exist to converge the tree; re-run to gate.
                return ExitCode::SUCCESS;
            }
            if let Some(path) = &sarif_out {
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                if let Err(e) = std::fs::write(path, report.render_sarif()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if sarif {
                print!("{}", report.render_sarif());
            } else if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.gate_failures().next().is_some() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("rules") => {
            for rule in lint::rules::ALL_RULES {
                println!("{} {:<20} {}", rule.id, rule.name, rule.summary);
            }
            for a in audit::Analysis::ALL {
                println!("{} {:<20} {}", a.id(), a.name(), a.summary());
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
