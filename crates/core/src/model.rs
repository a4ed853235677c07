//! The learned model as a *checkpointable* artifact.
//!
//! [`LearnedModel`] bundles what a warm-startable detector needs to skip
//! the history pass entirely: the dense block index, the built
//! [`BlockHistory`] table, **and** the raw per-hour count arena the
//! histories were derived from. Keeping the arena is the design point —
//! derived rates (trimmed means, normalized shapes) are lossy and cannot
//! be recombined exactly, but hourly counts are plain sums. Two
//! checkpoints over adjacent windows therefore merge by arena
//! concatenation and a rebuild, not by approximate weighted averaging of
//! rates.
//!
//! Merge semantics (see DESIGN.md "Model persistence & warm start"):
//!
//! * **Identical windows** — element-wise addition of count rows, as in
//!   sharded learning. Bit-exact: equals one pass over the union stream.
//! * **Adjacent windows** (`a.end == b.start`, either argument order) —
//!   the combined window is `[a.start, b.end)`; `a`'s hour rows keep
//!   their positions and `b`'s shift by `a`'s duration. When `a`'s
//!   duration is a whole number of hours this is bit-exact against
//!   learning the full window from raw traffic. Otherwise `b`'s hours
//!   straddle combined hour boundaries; each row is floor-assigned
//!   whole, skewing `b`'s counts by strictly less than one hour.
//! * **Overlapping windows with hour-aligned starts** (the federation
//!   case: vantages learn over windows that share hour boundaries) —
//!   the combined window is `[min start, max end)` and each operand's
//!   hour `h` lands at the absolute combined hour
//!   `(start − combined.start)/3600 + h`, counts summed on the shared
//!   arena. Summation is commutative, so the merged arena is
//!   deterministic regardless of merge order.
//! * Anything else (gap, or an overlap whose starts differ by a
//!   fraction of an hour) is a typed [`ModelError`].

use crate::history::{build_history, BlockHistory, IndexedHistories};
use crate::index::BlockIndex;
use outage_types::{Interval, Observation};

/// Why a [`LearnedModel`] could not be assembled or merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The count arena's length is not `blocks × hours`.
    InconsistentArena {
        /// Interned block count.
        blocks: usize,
        /// Hour rows per block implied by the window.
        hours: usize,
        /// Actual arena length found.
        len: usize,
    },
    /// Merge arguments cover windows that are neither identical,
    /// adjacent, nor hour-aligned overlapping (they leave a gap, or
    /// overlap at a mid-hour offset).
    WindowMismatch {
        /// First checkpoint's window.
        a: Interval,
        /// Second checkpoint's window.
        b: Interval,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InconsistentArena { blocks, hours, len } => write!(
                f,
                "count arena length {len} != {blocks} blocks x {hours} hours"
            ),
            ModelError::WindowMismatch { a, b } => write!(
                f,
                "cannot merge: first operand covers [{}, {}), second operand covers \
                 [{}, {}); windows must be identical, adjacent, or overlapping with \
                 hour-aligned starts",
                a.start.secs(),
                a.end.secs(),
                b.start.secs(),
                b.end.secs()
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// A learned history model plus the count arena it was built from:
/// loadable, saveable, and mergeable.
#[derive(Debug, Clone)]
pub struct LearnedModel {
    window: Interval,
    hours: usize,
    /// Flat `blocks × hours` arena, rows in block-id order.
    counts: Vec<u64>,
    indexed: IndexedHistories,
}

/// Hour rows implied by a window (mirrors `HistoryBuilder::new`).
fn window_hours(window: Interval) -> usize {
    (window.duration() as usize).div_ceil(3_600).max(1)
}

impl LearnedModel {
    /// Assemble from a finished `HistoryBuilder`'s parts (infallible:
    /// the builder maintains the arena invariant).
    pub(crate) fn from_builder_parts(
        window: Interval,
        index: BlockIndex,
        counts: Vec<u64>,
    ) -> LearnedModel {
        LearnedModel::from_parts(window, index, counts)
            .expect("HistoryBuilder arena invariant violated")
    }

    /// Assemble from raw parts, rebuilding every [`BlockHistory`] from
    /// the count arena. This is the load path: the arena length is
    /// validated against `blocks × hours` before any indexing.
    pub fn from_parts(
        window: Interval,
        index: BlockIndex,
        counts: Vec<u64>,
    ) -> Result<LearnedModel, ModelError> {
        let hours = window_hours(window);
        if counts.len() != index.len() * hours {
            return Err(ModelError::InconsistentArena {
                blocks: index.len(),
                hours,
                len: counts.len(),
            });
        }
        let histories: Vec<BlockHistory> = index
            .prefixes()
            .iter()
            .enumerate()
            .map(|(id, &prefix)| {
                build_history(prefix, &counts[id * hours..(id + 1) * hours], window)
            })
            .collect();
        let indexed = IndexedHistories::from_parts(index, histories)
            .expect("histories built in id order cannot mismatch their index");
        Ok(LearnedModel {
            window,
            hours,
            counts,
            indexed,
        })
    }

    /// The history window the model was learned over.
    pub fn window(&self) -> Interval {
        self.window
    }

    /// Hour rows per block in the count arena.
    pub fn hours(&self) -> usize {
        self.hours
    }

    /// The flat `blocks × hours` count arena (rows in block-id order).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The interning index (block ↔ id).
    pub fn index(&self) -> &BlockIndex {
        self.indexed.index()
    }

    /// The built histories, addressable by id or prefix.
    pub fn indexed(&self) -> &IndexedHistories {
        &self.indexed
    }

    /// Give up the arena and keep only the built histories (what the
    /// detection pass consumes).
    pub fn into_indexed(self) -> IndexedHistories {
        self.indexed
    }

    /// Number of blocks with a learned history.
    pub fn len(&self) -> usize {
        self.indexed.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.indexed.is_empty()
    }

    /// Merge two checkpoints into one covering their combined window.
    ///
    /// Windows must be identical (counts add), adjacent (rows
    /// concatenate; see the module docs for the exactness rule), or
    /// overlapping with hour-aligned starts (counts sum on the shared
    /// arena). The result's histories are rebuilt from the merged
    /// arena.
    pub fn merge(a: &LearnedModel, b: &LearnedModel) -> Result<LearnedModel, ModelError> {
        if a.window == b.window {
            return LearnedModel::merge_identical(a, b);
        }
        // Normalize argument order so `first` precedes `second`.
        if a.window.end == b.window.start {
            return LearnedModel::merge_adjacent(a, b);
        }
        if b.window.end == a.window.start {
            return LearnedModel::merge_adjacent(b, a);
        }
        // Overlapping windows merge only when their starts share hour
        // boundaries — otherwise the shared hours straddle bin edges
        // and counts could not be summed exactly.
        let overlaps = a.window.start < b.window.end && b.window.start < a.window.end;
        let offset = a.window.start.secs().abs_diff(b.window.start.secs());
        if overlaps && offset.is_multiple_of(3_600) {
            // Normalize by (start, end) so the interned-index order —
            // and therefore the arena layout — does not depend on
            // argument order.
            let (first, second) =
                if (a.window.start, a.window.end) <= (b.window.start, b.window.end) {
                    (a, b)
                } else {
                    (b, a)
                };
            return LearnedModel::merge_overlapping(first, second);
        }
        Err(ModelError::WindowMismatch {
            a: a.window,
            b: b.window,
        })
    }

    /// Same-window merge: element-wise addition, ids unioned in
    /// first-then-second appearance order (as sharded learning does).
    fn merge_identical(a: &LearnedModel, b: &LearnedModel) -> Result<LearnedModel, ModelError> {
        let hours = a.hours;
        let mut index = a.index().clone();
        let mut counts = a.counts.clone();
        for (oid, p) in b.index().prefixes().iter().enumerate() {
            let id = index.intern(*p) as usize;
            if id * hours == counts.len() {
                counts.resize(counts.len() + hours, 0);
            }
            let dst = &mut counts[id * hours..(id + 1) * hours];
            let src = &b.counts[oid * hours..(oid + 1) * hours];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        LearnedModel::from_parts(a.window, index, counts)
    }

    /// Adjacent-window merge: `first`'s rows keep their hour positions,
    /// `second`'s shift by `first`'s duration (floor rule when that
    /// duration is not hour-aligned).
    fn merge_adjacent(
        first: &LearnedModel,
        second: &LearnedModel,
    ) -> Result<LearnedModel, ModelError> {
        let window = Interval {
            start: first.window.start,
            end: second.window.end,
        };
        let hours = window_hours(window);
        let offset_secs = first.window.duration();

        let mut index = first.index().clone();
        for p in second.index().prefixes() {
            index.intern(*p);
        }
        let mut counts = vec![0u64; index.len() * hours];

        // `first` starts where the combined window starts, so its hour
        // `h` *is* combined hour `h` (its last, possibly partial, hour
        // included: every event in it still floors to the same index).
        for (id, _) in index.prefixes().iter().enumerate().take(first.len()) {
            let src = &first.counts[id * hours_of(first)..(id + 1) * hours_of(first)];
            for (h, &c) in src.iter().enumerate() {
                counts[id * hours + h.min(hours - 1)] += c;
            }
        }
        // `second`'s hour `h` covers absolute seconds
        // `[offset + 3600h, offset + 3600(h+1))`; floor-assign the row.
        for (oid, p) in second.index().prefixes().iter().enumerate() {
            let id = index.get(p).expect("interned above") as usize;
            let src = &second.counts[oid * hours_of(second)..(oid + 1) * hours_of(second)];
            for (h, &c) in src.iter().enumerate() {
                let target = ((offset_secs + h as u64 * 3_600) / 3_600) as usize;
                counts[id * hours + target.min(hours - 1)] += c;
            }
        }
        LearnedModel::from_parts(window, index, counts)
    }

    /// Overlapping-window merge (hour-aligned starts, `first` starting
    /// no later than `second`): the combined window is
    /// `[first.start, max end)` and each operand's hour `h` lands at
    /// absolute combined hour `(start − combined.start)/3600 + h`,
    /// counts summed. Exact: every source hour row maps onto exactly
    /// one combined hour row.
    fn merge_overlapping(
        first: &LearnedModel,
        second: &LearnedModel,
    ) -> Result<LearnedModel, ModelError> {
        let window = Interval {
            start: first.window.start,
            end: first.window.end.max(second.window.end),
        };
        let hours = window_hours(window);

        let mut index = first.index().clone();
        for p in second.index().prefixes() {
            index.intern(*p);
        }
        let mut counts = vec![0u64; index.len() * hours];

        for m in [first, second] {
            let shift = ((m.window.start.secs() - window.start.secs()) / 3_600) as usize;
            for (oid, p) in m.index().prefixes().iter().enumerate() {
                let id = index.get(p).expect("interned above") as usize;
                let src = &m.counts[oid * hours_of(m)..(oid + 1) * hours_of(m)];
                for (h, &c) in src.iter().enumerate() {
                    counts[id * hours + (shift + h).min(hours - 1)] += c;
                }
            }
        }
        LearnedModel::from_parts(window, index, counts)
    }

    /// The same model with its block index re-interned in sorted prefix
    /// order (count rows permuted to match).
    ///
    /// `merge` unions indices in first-then-second appearance order, so
    /// a fold over shards leaks the fold order into the arena layout.
    /// Canonicalizing after the fold makes multi-shard fusion
    /// bit-for-bit identical regardless of merge order — the federation
    /// determinism guarantee (see [`crate::federation::fuse_models`]).
    pub fn canonical(&self) -> LearnedModel {
        let mut order: Vec<usize> = (0..self.len()).collect();
        let prefixes = self.index().prefixes();
        order.sort_by_key(|&id| prefixes[id]);
        let mut index = BlockIndex::new();
        let mut counts = Vec::with_capacity(self.counts.len());
        for &id in &order {
            index.intern(prefixes[id]);
            counts.extend_from_slice(&self.counts[id * self.hours..(id + 1) * self.hours]);
        }
        LearnedModel::from_parts(self.window, index, counts)
            .expect("permuting rows preserves the arena invariant")
    }

    /// Learn a model in one sequential pass (the cold path [`crate::
    /// PassiveDetector::learn_model`] wraps with spans and sharding).
    pub fn learn<I: IntoIterator<Item = Observation>>(
        observations: I,
        window: Interval,
    ) -> LearnedModel {
        let mut hb = crate::history::HistoryBuilder::new(window);
        hb.record_all(observations);
        hb.into_model()
    }
}

/// A model's per-block row length (alias for readability in merge).
fn hours_of(m: &LearnedModel) -> usize {
    m.hours
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::{Observation, Prefix, UnixTime};

    fn p4(i: u32) -> Prefix {
        Prefix::v4_raw(0x0A00_0000 + (i << 8), 24)
    }

    fn stream(start: u64, end: u64, step: u64, blocks: &[Prefix]) -> Vec<Observation> {
        (start..end)
            .step_by(step as usize)
            .flat_map(|t| {
                blocks
                    .iter()
                    .map(move |b| Observation::new(UnixTime(t), *b))
            })
            .collect()
    }

    fn day() -> Interval {
        Interval::from_secs(0, 86_400)
    }

    #[test]
    fn model_histories_match_builder_output() {
        let blocks: Vec<Prefix> = (0..5).map(p4).collect();
        let obs = stream(0, 86_400, 25, &blocks);
        let model = LearnedModel::learn(obs.iter().copied(), day());
        let mut hb = crate::history::HistoryBuilder::new(day());
        hb.record_all(obs.iter().copied());
        let direct = hb.build_indexed();
        assert_eq!(model.len(), direct.len());
        for id in 0..direct.len() as u32 {
            assert_eq!(model.indexed().by_id(id), direct.by_id(id));
        }
    }

    #[test]
    fn identical_window_merge_is_bit_exact() {
        let blocks: Vec<Prefix> = (0..6).map(p4).collect();
        let obs = stream(0, 86_400, 30, &blocks);
        let (lo, hi) = obs.split_at(obs.len() / 2);
        let a = LearnedModel::learn(lo.iter().copied(), day());
        let b = LearnedModel::learn(hi.iter().copied(), day());
        let merged = LearnedModel::merge(&a, &b).unwrap();
        let full = LearnedModel::learn(obs.iter().copied(), day());
        assert_eq!(merged.counts(), full.counts());
        assert_eq!(merged.indexed().histories(), full.indexed().histories());
    }

    #[test]
    fn adjacent_aligned_merge_equals_full_window_learning() {
        let blocks: Vec<Prefix> = (0..4).map(p4).collect();
        let obs = stream(0, 86_400, 45, &blocks);
        let half = Interval::from_secs(0, 43_200);
        let rest = Interval::from_secs(43_200, 86_400);
        let a = LearnedModel::learn(obs.iter().copied(), half);
        let b = LearnedModel::learn(obs.iter().copied(), rest);
        // Either argument order merges into [0, 86_400).
        for merged in [
            LearnedModel::merge(&a, &b).unwrap(),
            LearnedModel::merge(&b, &a).unwrap(),
        ] {
            let full = LearnedModel::learn(obs.iter().copied(), day());
            assert_eq!(merged.window(), day());
            assert_eq!(merged.counts(), full.counts(), "arena must be bit-exact");
            assert_eq!(merged.indexed().histories(), full.indexed().histories());
        }
    }

    #[test]
    fn unaligned_merge_is_close_not_exact() {
        let blocks = [p4(0)];
        let obs = stream(0, 86_400, 20, &blocks);
        // First window ends mid-hour: merge must still succeed, with
        // rates within the documented <1h re-binning tolerance.
        let a = LearnedModel::learn(obs.iter().copied(), Interval::from_secs(0, 41_400));
        let b = LearnedModel::learn(obs.iter().copied(), Interval::from_secs(41_400, 86_400));
        let merged = LearnedModel::merge(&a, &b).unwrap();
        let full = LearnedModel::learn(obs.iter().copied(), day());
        let hm = merged.indexed().get(&blocks[0]).unwrap();
        let hf = full.indexed().get(&blocks[0]).unwrap();
        assert_eq!(hm.total, hf.total, "no event may be lost to re-binning");
        let rel = (hm.lambda - hf.lambda).abs() / hf.lambda;
        assert!(rel < 0.1, "lambda off by {rel} after unaligned merge");
    }

    #[test]
    fn hour_aligned_overlap_merge_sums_shared_hours() {
        // a covers [0, 2h) and b covers [1h, 3h); the shared hour is
        // absolute hour 1. Disjoint streams so sums are easy to check.
        let a_obs = stream(0, 7_200, 60, &[p4(0)]);
        let b_obs = stream(3_600, 10_800, 90, &[p4(0)]);
        let a = LearnedModel::learn(a_obs.iter().copied(), Interval::from_secs(0, 7_200));
        let b = LearnedModel::learn(b_obs.iter().copied(), Interval::from_secs(3_600, 10_800));
        let merged = LearnedModel::merge(&a, &b).unwrap();
        assert_eq!(merged.window(), Interval::from_secs(0, 10_800));
        assert_eq!(merged.hours(), 3);
        let rows = merged.counts();
        assert_eq!(rows[0], a.counts()[0]);
        assert_eq!(rows[1], a.counts()[1] + b.counts()[0]);
        assert_eq!(rows[2], b.counts()[1]);
    }

    #[test]
    fn overlap_merge_is_order_independent() {
        let a_obs = stream(0, 7_200, 30, &[p4(0), p4(1)]);
        let b_obs = stream(3_600, 10_800, 50, &[p4(2), p4(0)]);
        let a = LearnedModel::learn(a_obs.iter().copied(), Interval::from_secs(0, 7_200));
        let b = LearnedModel::learn(b_obs.iter().copied(), Interval::from_secs(3_600, 10_800));
        let ab = LearnedModel::merge(&a, &b).unwrap();
        let ba = LearnedModel::merge(&b, &a).unwrap();
        assert_eq!(ab.window(), ba.window());
        assert_eq!(ab.index().prefixes(), ba.index().prefixes());
        assert_eq!(ab.counts(), ba.counts());
    }

    #[test]
    fn canonical_sorts_the_index_and_permutes_rows() {
        let obs: Vec<Observation> = stream(0, 3_600, 60, &[p4(3), p4(1), p4(2)]);
        let model = LearnedModel::learn(obs.iter().copied(), Interval::from_secs(0, 3_600));
        let canon = model.canonical();
        let mut sorted = model.index().prefixes().to_vec();
        sorted.sort();
        assert_eq!(canon.index().prefixes(), &sorted[..]);
        for p in &sorted {
            assert_eq!(
                canon.indexed().get(p).unwrap(),
                model.indexed().get(p).unwrap()
            );
        }
    }

    #[test]
    fn disjoint_and_overlapping_windows_refuse_to_merge() {
        let obs = stream(0, 7_200, 20, &[p4(0)]);
        let a = LearnedModel::learn(obs.iter().copied(), Interval::from_secs(0, 3_600));
        let gap = LearnedModel::learn(obs.iter().copied(), Interval::from_secs(7_200, 10_800));
        let overlap = LearnedModel::learn(obs.iter().copied(), Interval::from_secs(1_800, 5_400));
        assert!(matches!(
            LearnedModel::merge(&a, &gap),
            Err(ModelError::WindowMismatch { .. })
        ));
        assert!(matches!(
            LearnedModel::merge(&a, &overlap),
            Err(ModelError::WindowMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_rejects_inconsistent_arena() {
        let mut index = BlockIndex::new();
        index.intern(p4(0));
        let err = LearnedModel::from_parts(day(), index, vec![0u64; 7]).unwrap_err();
        assert!(matches!(err, ModelError::InconsistentArena { .. }));
        let msg = err.to_string();
        assert!(msg.contains("arena"), "{msg}");
    }
}
