//! Fire fixture: a graph-style pivot selector that iterates its
//! `HashMap` distance table directly. Farthest-point selection breaks
//! argmax ties by visit order, so hash-ordered iteration would pick
//! different pivots run to run — and with them every distance row
//! derived from the pivots. Expected: R2 ×1, nothing else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// Per-candidate distance rows keyed by node id.
pub struct PivotTables {
    tables: HashMap<u32, Vec<f64>>,
}

impl PivotTables {
    /// Farthest-point step: returns the node whose minimum distance to
    /// the already-chosen pivots is largest. Iterating the hash map
    /// makes the tie-break nondeterministic — the exact pattern R2 must
    /// catch (deterministic code walks node ids in index order instead).
    pub fn next_pivot(&self) -> Option<u32> {
        let mut best: Option<(u32, f64)> = None;
        for (&node, row) in self.tables.iter() {
            let score = row.iter().copied().fold(f64::INFINITY, f64::min);
            match best {
                Some((_, s)) if s >= score => {}
                _ => best = Some((node, score)),
            }
        }
        best.map(|(node, _)| node)
    }
}
