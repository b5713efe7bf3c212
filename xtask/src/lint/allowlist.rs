//! The static, per-rule allowlist.
//!
//! Entries exempt whole files (by path prefix) from one rule, and every
//! entry must carry a written reason — this is the "justified residue"
//! left after the burn-down, reviewed like code. Prefer an inline
//! `// ripq-lint: allow(<rule>) -- reason` suppression for single sites;
//! use an allowlist entry only when a file's exemption is structural
//! (e.g. a CLI entry point that fails fast on malformed arguments).
//!
//! Entries that match no diagnostic are reported by `cargo xtask lint` so
//! stale exemptions get pruned.

/// One allowlist entry: `rule` (rule *name*, e.g. `no-panic-paths`)
/// exempted for every file whose workspace-relative path starts with
/// `path_prefix`.
#[derive(Debug)]
pub struct AllowEntry {
    /// Rule name the entry applies to.
    pub rule: &'static str,
    /// Workspace-relative path prefix (unix separators).
    pub path_prefix: &'static str,
    /// Why this exemption is sound. Required.
    pub reason: &'static str,
}

/// The workspace allowlist. Keep this SHORT — every entry is debt.
pub const ALLOWLIST: &[AllowEntry] = &[
    AllowEntry {
        rule: "no-panic-paths",
        path_prefix: "src/bin/",
        reason: "CLI entry point: fail-fast process exit on malformed arguments/IO is the \
                 intended behavior, not a server panic path",
    },
    AllowEntry {
        rule: "no-panic-paths",
        path_prefix: "crates/bench/src/",
        reason: "benchmark/experiment harness: panicking on invalid experiment configs is \
                 acceptable in dev tooling that never serves queries",
    },
    AllowEntry {
        rule: "no-panic-paths",
        path_prefix: "crates/graph/src/",
        reason: "graph construction and traversal unwraps encode topology invariants \
                 (endpoints exist, binary-searched offsets are in range) established at \
                 build time and exercised by the cross-crate test suite; threading \
                 RipqError through Dijkstra inner loops would cost clarity for \
                 unreachable branches",
    },
    AllowEntry {
        rule: "no-panic-paths",
        path_prefix: "crates/rfid/src/",
        reason: "reader deployment and episode bookkeeping run at system construction / \
                 ingest time, before any query is served; failing fast on a malformed \
                 deployment or an impossible episode transition is the intended behavior",
    },
    AllowEntry {
        rule: "no-panic-paths",
        path_prefix: "crates/sim/src/",
        reason: "simulation and visualization tooling, not the query-serving path; most \
                 hits are fmt::Write into a String, which is infallible",
    },
    AllowEntry {
        rule: "atomic-persistence",
        path_prefix: "src/bin/",
        reason: "CLI report artifacts (plan/trace SVGs, metrics JSON) are regenerated on \
                 demand from a deterministic run; a torn write is visible and rerun by \
                 the user, never recovered from — checkpoint snapshots go through \
                 ripq-persist's atomic path instead",
    },
    AllowEntry {
        rule: "no-panic-paths",
        path_prefix: "crates/symbolic/src/",
        reason: "symbolic-model cell graphs are built once from a validated floor plan; \
                 the unwraps assert construction-time invariants (every door joins two \
                 known cells)",
    },
];
