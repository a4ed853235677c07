//! Coverage accounting: who can we watch, and at what precision?
//!
//! Figure 1 of the paper is a coverage curve: the fraction of observed
//! blocks that are measurable grows as the time bin widens (coarser
//! temporal precision), and grows again if spatial aggregation is
//! allowed (coarser spatial precision). This module computes both axes
//! from learned histories.

use crate::aggregate::AggregationPlan;
use crate::config::DetectorConfig;
use crate::history::{BlockHistory, IndexedHistories};
use crate::tuning::{tune_estimate, RateEstimate};
use outage_types::AddrFamily;
use std::collections::HashMap;

/// One point on the temporal-precision coverage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// Bin width in seconds.
    pub width: u64,
    /// Blocks measurable at this width (i.e. with this width or finer).
    pub measurable: usize,
    /// Total observed blocks.
    pub total: usize,
}

impl CoveragePoint {
    /// Measurable fraction (0.0 when nothing was observed).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.measurable as f64 / self.total as f64
        }
    }
}

/// The temporal coverage curve: for each candidate width, how many blocks
/// become measurable once that width is allowed.
pub fn coverage_by_width(
    histories: &IndexedHistories,
    config: &DetectorConfig,
    family: Option<AddrFamily>,
) -> Vec<CoveragePoint> {
    let relevant: Vec<&BlockHistory> = histories
        .histories()
        .iter()
        .filter(|h| family.is_none_or(|f| h.prefix.family() == f))
        .collect();
    let total = relevant.len();
    config
        .bin_widths
        .iter()
        .map(|&width| {
            let measurable = relevant
                .iter()
                .filter(|h| {
                    tune_estimate(RateEstimate::from_history(h, config), config)
                        .params()
                        .is_some_and(|p| p.width <= width)
                })
                .count();
            CoveragePoint {
                width,
                measurable,
                total,
            }
        })
        .collect()
}

/// Spatial coverage summary from an aggregation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialCoverage {
    /// Blocks covered by their own block-level unit.
    pub block_level: usize,
    /// Blocks covered only through an aggregate, keyed by aggregate
    /// prefix length.
    pub by_aggregate_len: Vec<(u8, usize)>,
    /// Blocks not covered at all.
    pub uncovered: usize,
}

impl SpatialCoverage {
    /// Total blocks accounted for.
    pub fn total(&self) -> usize {
        self.block_level
            + self.by_aggregate_len.iter().map(|&(_, n)| n).sum::<usize>()
            + self.uncovered
    }

    /// Fraction of blocks covered at any spatial precision.
    pub fn covered_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (t - self.uncovered) as f64 / t as f64
        }
    }
}

/// Summarize a plan's spatial coverage.
pub fn spatial_coverage(plan: &AggregationPlan) -> SpatialCoverage {
    let mut block_level = 0;
    let mut by_len: HashMap<u8, usize> = HashMap::new();
    for u in &plan.units {
        if u.is_aggregate() {
            *by_len.entry(u.prefix.len()).or_default() += u.members.len();
        } else {
            block_level += 1;
        }
    }
    let mut by_aggregate_len: Vec<(u8, usize)> = by_len.into_iter().collect();
    by_aggregate_len.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
    SpatialCoverage {
        block_level,
        by_aggregate_len,
        uncovered: plan.uncovered.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::plan;
    use crate::index::BlockIndex;
    use outage_types::Prefix;

    fn hist(prefix: &str, lambda: f64) -> BlockHistory {
        BlockHistory {
            prefix: prefix.parse().unwrap(),
            lambda,
            total: (lambda * 86_400.0) as u64,
            hourly_shape: [1.0; 24],
            // Treat the flat shape as *known* so these synthetic
            // histories tune at their nominal rates.
            shape_estimated: true,
        }
    }

    fn indexed(histories: Vec<BlockHistory>) -> IndexedHistories {
        let mut index = BlockIndex::new();
        for h in &histories {
            index.intern(h.prefix);
        }
        IndexedHistories::from_parts(index, histories).unwrap()
    }

    fn histories() -> IndexedHistories {
        indexed(vec![
            hist("10.0.0.0/24", 0.1),     // measurable at 300
            hist("10.0.1.0/24", 0.005),   // at 1200
            hist("10.0.2.0/24", 0.0008),  // at 7200
            hist("10.0.3.0/24", 0.00001), // never
            hist("2001:db8::/48", 0.02),  // v6, at 300
        ])
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let cfg = DetectorConfig::default();
        let curve = coverage_by_width(&histories(), &cfg, None);
        assert_eq!(curve.len(), cfg.bin_widths.len());
        for w in curve.windows(2) {
            assert!(w[0].measurable <= w[1].measurable);
            assert_eq!(w[0].total, w[1].total);
        }
        assert_eq!(curve[0].measurable, 2); // 0.1 and 0.02
        assert_eq!(curve.last().unwrap().measurable, 4); // all but the dead one
        assert!((curve.last().unwrap().fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn family_filter_restricts_population() {
        let cfg = DetectorConfig::default();
        let v4 = coverage_by_width(&histories(), &cfg, Some(AddrFamily::V4));
        let v6 = coverage_by_width(&histories(), &cfg, Some(AddrFamily::V6));
        assert_eq!(v4[0].total, 4);
        assert_eq!(v6[0].total, 1);
        assert_eq!(v6[0].measurable, 1);
    }

    #[test]
    fn empty_histories_give_zero_fraction() {
        let cfg = DetectorConfig::default();
        let curve = coverage_by_width(&indexed(Vec::new()), &cfg, None);
        assert!(curve.iter().all(|p| p.fraction() == 0.0));
    }

    #[test]
    fn spatial_coverage_accounts_everyone() {
        let cfg = DetectorConfig::default();
        // one dense, four sparse-but-poolable, one hopeless
        let mut rates = vec![("10.0.0.0/24", 0.1), ("10.99.0.0/24", 1e-7)];
        for i in 0..4 {
            rates.push((
                ["10.1.0.0/24", "10.1.1.0/24", "10.1.2.0/24", "10.1.3.0/24"][i],
                3e-4,
            ));
        }
        let parsed: Vec<(Prefix, RateEstimate)> = rates
            .iter()
            .map(|&(s, r)| (s.parse().unwrap(), RateEstimate::flat(r)))
            .collect();
        let p = plan(parsed, &cfg);
        let sc = spatial_coverage(&p);
        assert_eq!(sc.total(), 6);
        assert_eq!(sc.block_level, 1);
        assert_eq!(sc.uncovered, 1);
        let agg_total: usize = sc.by_aggregate_len.iter().map(|&(_, n)| n).sum();
        assert_eq!(agg_total, 4);
        assert!((sc.covered_fraction() - 5.0 / 6.0).abs() < 1e-9);
        // aggregate lengths are coarser than /24
        assert!(sc.by_aggregate_len.iter().all(|&(len, _)| len < 24));
    }
}
