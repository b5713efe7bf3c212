//! Query types.

use crate::RipqError;
use ripq_geom::{Point2, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryId(u32);

impl QueryId {
    /// Wraps a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        QueryId(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A probabilistic indoor range query: "which objects are inside `window`,
/// with what probability?"
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeQuery {
    /// This query's identifier.
    pub id: QueryId,
    /// The rectangular query window.
    pub window: Rect,
}

impl RangeQuery {
    /// Creates a range query, validating the window: its area must be
    /// positive, so a window whose area is NaN (an infinite side times a
    /// zero one) is refused too.
    pub fn new(id: QueryId, window: Rect) -> Result<Self, RipqError> {
        let area = window.area();
        if area.is_nan() || area <= 0.0 {
            return Err(RipqError::EmptyWindow);
        }
        Ok(RangeQuery { id, window })
    }
}

/// A probabilistic indoor k-nearest-neighbor query: "which objects are
/// among the `k` nearest to `point` by indoor walking distance?"
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnnQuery {
    /// This query's identifier.
    pub id: QueryId,
    /// The query point (snapped to the nearest walking-graph edge during
    /// evaluation, §4.6).
    pub point: Point2,
    /// Number of neighbors requested.
    pub k: usize,
}

impl KnnQuery {
    /// Creates a kNN query, validating `k`.
    pub fn new(id: QueryId, point: Point2, k: usize) -> Result<Self, RipqError> {
        if k == 0 {
            return Err(RipqError::ZeroK);
        }
        Ok(KnnQuery { id, point, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_query_rejects_empty_window() {
        let err = RangeQuery::new(QueryId::new(0), Rect::new(0.0, 0.0, 0.0, 5.0));
        assert_eq!(err.unwrap_err(), RipqError::EmptyWindow);
        // 1e308 + 1e308 overflows: width inf, height 0, area NaN.
        let err = RangeQuery::new(QueryId::new(0), Rect::new(1e308, 0.0, 1e308, 0.0));
        assert_eq!(err.unwrap_err(), RipqError::EmptyWindow);
        assert!(RangeQuery::new(QueryId::new(0), Rect::new(0.0, 0.0, 2.0, 5.0)).is_ok());
    }

    #[test]
    fn knn_query_rejects_zero_k() {
        let err = KnnQuery::new(QueryId::new(1), Point2::new(1.0, 1.0), 0);
        assert_eq!(err.unwrap_err(), RipqError::ZeroK);
        let q = KnnQuery::new(QueryId::new(1), Point2::new(1.0, 1.0), 3).unwrap();
        assert_eq!(q.k, 3);
    }

    #[test]
    fn query_id_display() {
        assert_eq!(QueryId::new(12).to_string(), "q12");
    }
}
