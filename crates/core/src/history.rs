//! Per-block traffic history: the model each block is judged against.
//!
//! "We build a model of historical traffic from each source to the
//! service" — concretely, a robust estimate of the block's arrival rate
//! `P(a)`, plus an optional hour-of-day profile. Robustness matters: the
//! history window itself may contain outages, and a naive mean would then
//! *underestimate* the up-rate and blunt every likelihood ratio. We use a
//! trimmed mean over hourly counts, discarding the quietest quarter of
//! hours (which is where any outage hides).

use crate::index::BlockIndex;
use outage_types::{Interval, Observation, Prefix, UnixTime};

/// Fraction of the quietest hours discarded by the robust rate estimate.
const TRIM_FRACTION: f64 = 0.25;

/// Learned traffic model for one block.
#[derive(Debug, Clone)]
pub struct BlockHistory {
    /// The block.
    pub prefix: Prefix,
    /// Robust mean arrival rate while up, events/second.
    pub lambda: f64,
    /// Total arrivals seen in the history window.
    pub total: u64,
    /// Hour-of-day multipliers (mean ≈ 1.0) for the diurnal model.
    /// Flat (all 1.0) when `shape_estimated` is false.
    pub hourly_shape: [f64; 24],
    /// Whether `hourly_shape` was actually estimated from data (false for
    /// blocks with too few events, whose shape is the flat fallback).
    pub shape_estimated: bool,
}

/// Tolerance-free bitwise `f64` equality: `NaN == NaN`, `-0.0 != 0.0`.
///
/// This is the equality a model *store* needs — "did the round trip
/// preserve every bit" — not numeric closeness. A derived `PartialEq`
/// would use IEEE `==`, under which a NaN smuggled into a checkpoint
/// compares unequal to itself and silently poisons every equality-based
/// test; bit comparison keeps such a model comparable (and detectable).
#[inline]
pub fn f64_bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

impl PartialEq for BlockHistory {
    fn eq(&self, other: &Self) -> bool {
        self.prefix == other.prefix
            && self.total == other.total
            && self.shape_estimated == other.shape_estimated
            && f64_bits_eq(self.lambda, other.lambda)
            && self
                .hourly_shape
                .iter()
                .zip(other.hourly_shape.iter())
                .all(|(a, b)| f64_bits_eq(*a, *b))
    }
}

impl BlockHistory {
    /// Expected rate at time `t` under the diurnal model.
    pub fn rate_at(&self, t: UnixTime, diurnal: bool) -> f64 {
        if diurnal {
            let hour = (t.secs() % 86_400) / 3_600;
            self.lambda * self.hourly_shape[hour as usize]
        } else {
            self.lambda
        }
    }

    /// The block's lowest hourly multiplier — its diurnal trough. Bin
    /// widths are tuned against the trough rate so that a quiet night
    /// still carries `min_expected_per_bin` of expected traffic. For
    /// blocks whose shape could not be estimated, the worst-case trough
    /// [`CONSERVATIVE_TROUGH`] is assumed: an unknown phase must not turn
    /// a quiet night into an outage.
    pub fn trough_multiplier(&self) -> f64 {
        if self.shape_estimated {
            self.hourly_shape
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        } else {
            CONSERVATIVE_TROUGH
        }
    }

    /// The per-hour multipliers a detector should use as *judgement
    /// expectations*: the learned shape when available, otherwise the
    /// conservative worst-case trough for every hour (understating
    /// evidence is safe; overstating it manufactures outages).
    pub fn expectation_shape(&self, diurnal_model: bool) -> [f64; 24] {
        if !diurnal_model {
            [1.0; 24]
        } else if self.shape_estimated {
            self.hourly_shape
        } else {
            [CONSERVATIVE_TROUGH; 24]
        }
    }
}

/// Worst-case diurnal trough multiplier assumed for blocks whose shape
/// is unknown (deepest diurnal swing the simulator produces is amplitude
/// 0.8 ⇒ trough factor 0.2; real resolver populations are comparable).
pub const CONSERVATIVE_TROUGH: f64 = 0.2;

/// Accumulates observations into per-block hourly counts and produces
/// [`BlockHistory`] models.
///
/// Blocks are interned into a dense [`BlockIndex`] on first sight and
/// all hourly counters live in one flat `hours × blocks` arena — the
/// per-observation path is one cheap hash probe plus an array increment,
/// with no per-block allocation.
#[derive(Debug)]
pub struct HistoryBuilder {
    window: Interval,
    hours: usize,
    index: BlockIndex,
    /// Flat arena: block `id`'s hourly counts occupy
    /// `counts[id*hours .. (id+1)*hours]`.
    counts: Vec<u64>,
}

impl HistoryBuilder {
    /// A builder over the given history window.
    pub fn new(window: Interval) -> HistoryBuilder {
        let hours = (window.duration() as usize).div_ceil(3_600).max(1);
        HistoryBuilder {
            window,
            hours,
            index: BlockIndex::new(),
            counts: Vec::new(),
        }
    }

    /// Account one observation.
    #[inline]
    pub fn record(&mut self, obs: &Observation) {
        if !self.window.contains(obs.time) {
            return;
        }
        let hour = ((obs.time.since(self.window.start) / 3_600) as usize).min(self.hours - 1);
        let id = self.index.intern(obs.block) as usize;
        if id * self.hours == self.counts.len() {
            self.counts.resize(self.counts.len() + self.hours, 0);
        }
        self.counts[id * self.hours + hour] += 1;
    }

    /// Account a whole stream.
    pub fn record_all<I: IntoIterator<Item = Observation>>(&mut self, obs: I) {
        for o in obs {
            self.record(&o);
        }
    }

    /// Number of distinct blocks seen.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Fold another builder's counts into this one. Both builders must
    /// cover the same window. Merging shard builders in shard order
    /// reproduces the sequential result exactly: u64 addition commutes,
    /// and ids assigned by in-order merge equal the ids a single
    /// sequential pass would have assigned (every block whose first
    /// appearance is in an earlier shard interns before any block first
    /// appearing in a later one).
    pub fn merge(&mut self, other: HistoryBuilder) {
        assert_eq!(
            self.window, other.window,
            "merged HistoryBuilders must share a window"
        );
        for (oid, p) in other.index.prefixes().iter().enumerate() {
            let id = self.index.intern(*p) as usize;
            if id * self.hours == self.counts.len() {
                self.counts.resize(self.counts.len() + self.hours, 0);
            }
            let dst = &mut self.counts[id * self.hours..(id + 1) * self.hours];
            let src = &other.counts[oid * self.hours..(oid + 1) * self.hours];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Finish keeping the dense index: histories addressable by block id
    /// as well as by prefix.
    pub fn build_indexed(self) -> IndexedHistories {
        let hours = self.hours;
        let window = self.window;
        let histories: Vec<BlockHistory> = self
            .index
            .prefixes()
            .iter()
            .enumerate()
            .map(|(id, &prefix)| {
                let row = &self.counts[id * hours..(id + 1) * hours];
                build_history(prefix, row, window)
            })
            .collect();
        IndexedHistories {
            index: self.index,
            histories,
        }
    }

    /// Finish keeping *everything*: the built histories plus the raw
    /// per-hour count arena they were built from. The arena is the
    /// mergeable primitive of the model store — two checkpoints over
    /// adjacent windows recombine by arena, then rebuild histories,
    /// rather than by approximating from the derived rates.
    pub fn into_model(self) -> crate::model::LearnedModel {
        crate::model::LearnedModel::from_builder_parts(self.window, self.index, self.counts)
    }
}

/// Learned histories keyed by a dense [`BlockIndex`]: `O(1)` flat lookup
/// by id, one cheap hash probe by prefix.
#[derive(Debug, Clone)]
pub struct IndexedHistories {
    index: BlockIndex,
    /// Parallel to the index: `histories[id]` is block `id`'s model.
    histories: Vec<BlockHistory>,
}

impl IndexedHistories {
    /// Reassemble from an index and its parallel history vector (the
    /// model store's load path). Rejects structurally inconsistent
    /// parts: a length mismatch, or a history filed under the wrong
    /// block.
    pub fn from_parts(
        index: BlockIndex,
        histories: Vec<BlockHistory>,
    ) -> Result<IndexedHistories, &'static str> {
        if index.len() != histories.len() {
            return Err("index and history lengths differ");
        }
        for (id, h) in histories.iter().enumerate() {
            if index.prefix(id as u32) != h.prefix {
                return Err("history filed under the wrong block id");
            }
        }
        Ok(IndexedHistories { index, histories })
    }

    /// The interning index (block ↔ id).
    pub fn index(&self) -> &BlockIndex {
        &self.index
    }

    /// All histories, parallel to the index (id order).
    pub fn histories(&self) -> &[BlockHistory] {
        &self.histories
    }

    /// Number of blocks with a learned history.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// Whether no history was learned.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// The history for block `id`.
    pub fn by_id(&self, id: u32) -> &BlockHistory {
        &self.histories[id as usize]
    }

    /// The history for a prefix, if learned.
    pub fn get(&self, p: &Prefix) -> Option<&BlockHistory> {
        self.index.get(p).map(|id| &self.histories[id as usize])
    }
}

/// Flat arena of per-unit hour-of-day expectation shapes: 24 contiguous
/// `f64`s per unit instead of a `[f64; 24]` embedded in every detector.
/// The engine's inner loop reads one unit's shape as a slice out of a
/// single allocation, which keeps paper-scale unit counts cache-friendly
/// and avoids per-unit overhead.
#[derive(Debug, Default)]
pub(crate) struct ShapeTable {
    flat: Vec<f64>,
}

impl ShapeTable {
    /// An empty table expecting `units` entries.
    pub(crate) fn with_capacity(units: usize) -> ShapeTable {
        ShapeTable {
            flat: Vec::with_capacity(units * 24),
        }
    }

    /// Append one unit's shape; units are indexed in push order.
    pub(crate) fn push(&mut self, shape: [f64; 24]) {
        self.flat.extend_from_slice(&shape);
    }

    /// The shape of unit `i`.
    pub(crate) fn get(&self, i: usize) -> &[f64; 24] {
        self.flat[i * 24..(i + 1) * 24]
            .try_into()
            .expect("24-element shape row")
    }
}

pub(crate) fn build_history(prefix: Prefix, hourly: &[u64], window: Interval) -> BlockHistory {
    let total: u64 = hourly.iter().sum();
    let lambda = trimmed_mean_rate(hourly, window);
    let (hourly_shape, shape_estimated) = hourly_shape(hourly, window);
    BlockHistory {
        prefix,
        lambda,
        total,
        hourly_shape,
        shape_estimated,
    }
}

/// Robust up-rate: mean of hourly counts after dropping the quietest
/// `TRIM_FRACTION` of *full* hours, divided by 3600.
fn trimmed_mean_rate(hourly: &[u64], window: Interval) -> f64 {
    if hourly.is_empty() {
        return 0.0;
    }
    // The final hour may be partial; weight it by its actual length.
    let mut full: Vec<u64> = hourly.to_vec();
    let last_len = window.duration() - (hourly.len() as u64 - 1) * 3_600;
    // Scale a partial last hour up to a full-hour equivalent so trimming
    // compares like with like (only when it actually is partial).
    if last_len > 0 && last_len < 3_600 {
        let idx = full.len() - 1;
        full[idx] = (full[idx] as f64 * 3_600.0 / last_len as f64).round() as u64;
    }
    full.sort_unstable();
    let drop = ((full.len() as f64) * TRIM_FRACTION).floor() as usize;
    let kept = &full[drop.min(full.len() - 1)..];
    let sum: u64 = kept.iter().sum();
    sum as f64 / (kept.len() as f64 * 3_600.0)
}

/// Minimum events for any shape estimation at all.
const SHAPE_MIN_EVENTS: u64 = 48;
/// Events above which full 24-bucket hourly estimation is reliable;
/// between the two thresholds a smoothed 6-bucket (4-hour) estimate is
/// used instead, trading resolution for variance.
const SHAPE_HOURLY_EVENTS: u64 = 240;

/// Hour-of-day multipliers with mean ≈ 1.0 and whether they were
/// estimated.
///
/// Sparse blocks get a coarser (4-hour-bucket) estimate: with only a few
/// dozen events, 24 independent hourly multipliers would be sampling
/// noise, and a noisy shape corrupts every bin expectation. Blocks with
/// fewer than [`SHAPE_MIN_EVENTS`] get a flat fallback.
fn hourly_shape(hourly: &[u64], window: Interval) -> ([f64; 24], bool) {
    let shape = [1.0f64; 24];
    let total: u64 = hourly.iter().sum();
    if total < SHAPE_MIN_EVENTS || hourly.len() < 24 {
        return (shape, false);
    }
    // Fold the window's hours onto hour-of-day (window starts at its
    // start time's hour).
    let mut sums = [0.0f64; 24];
    let mut counts = [0u32; 24];
    let start_hour = (window.start.secs() / 3_600) % 24;
    for (i, &c) in hourly.iter().enumerate() {
        let hod = ((start_hour + i as u64) % 24) as usize;
        sums[hod] += c as f64;
        counts[hod] += 1;
    }
    let mut means: Vec<f64> = (0..24)
        .map(|h| {
            if counts[h] > 0 {
                sums[h] / counts[h] as f64
            } else {
                0.0
            }
        })
        .collect();

    // Smooth into 4-hour buckets when data is thin.
    if total < SHAPE_HOURLY_EVENTS {
        for bucket in 0..6 {
            let lo = bucket * 4;
            let avg: f64 = means[lo..lo + 4].iter().sum::<f64>() / 4.0;
            for m in &mut means[lo..lo + 4] {
                *m = avg;
            }
        }
    }

    let grand = means.iter().sum::<f64>() / 24.0;
    if grand <= 0.0 {
        return (shape, false);
    }
    let mut out = [1.0f64; 24];
    for h in 0..24 {
        // Floor the multiplier so a zero-traffic hour cannot zero out the
        // expected rate (which would make empty bins uninformative).
        out[h] = (means[h] / grand).max(0.1);
    }
    (out, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: u64, block: &Prefix) -> Observation {
        Observation::new(UnixTime(t), *block)
    }

    fn day() -> Interval {
        Interval::from_secs(0, 86_400)
    }

    fn block() -> Prefix {
        "192.0.2.0/24".parse().unwrap()
    }

    /// The history `hb` learned for `b`.
    fn learned(hb: HistoryBuilder, b: &Prefix) -> BlockHistory {
        hb.build_indexed()
            .get(b)
            .expect("block was recorded")
            .clone()
    }

    #[test]
    fn steady_rate_is_recovered() {
        let b = block();
        let mut hb = HistoryBuilder::new(day());
        // one event every 20 s → λ = 0.05
        for t in (0..86_400).step_by(20) {
            hb.record(&obs(t, &b));
        }
        let h = &learned(hb, &b);
        assert!((h.lambda - 0.05).abs() < 0.005, "lambda {}", h.lambda);
        assert_eq!(h.total, 4_320);
    }

    #[test]
    fn outage_hours_do_not_depress_the_estimate() {
        let b = block();
        let mut hb = HistoryBuilder::new(day());
        // Steady λ=0.05, but silent for 4 hours in the middle (an outage).
        for t in (0..86_400).step_by(20) {
            if !(40_000..54_400).contains(&t) {
                hb.record(&obs(t, &b));
            }
        }
        let h = &learned(hb, &b);
        // naive mean would be ≈ 0.042; the trimmed estimate stays ≈ 0.05
        assert!(
            (h.lambda - 0.05).abs() < 0.005,
            "lambda {} polluted by outage",
            h.lambda
        );
    }

    #[test]
    fn sparse_blocks_get_nonzero_rate() {
        let b = block();
        let mut hb = HistoryBuilder::new(day());
        // 12 events over the day
        for t in (0..86_400).step_by(7_200) {
            hb.record(&obs(t, &b));
        }
        let h = &learned(hb, &b);
        assert!(h.lambda > 0.0);
        assert_eq!(h.total, 12);
        // flat shape with so little data
        assert!(h.hourly_shape.iter().all(|&m| m == 1.0));
    }

    #[test]
    fn out_of_window_observations_ignored() {
        let b = block();
        let mut hb = HistoryBuilder::new(day());
        hb.record(&obs(100_000, &b));
        assert_eq!(hb.block_count(), 0);
    }

    #[test]
    fn multiple_blocks_kept_separate() {
        let b1 = block();
        let b2: Prefix = "198.51.100.0/24".parse().unwrap();
        let mut hb = HistoryBuilder::new(day());
        for t in (0..86_400).step_by(40) {
            hb.record(&obs(t, &b1));
        }
        for t in (0..86_400).step_by(400) {
            hb.record(&obs(t, &b2));
        }
        let hists = hb.build_indexed();
        assert_eq!(hists.len(), 2);
        assert!(hists.get(&b1).unwrap().lambda > hists.get(&b2).unwrap().lambda * 5.0);
    }

    #[test]
    fn diurnal_shape_tracks_traffic() {
        let b = block();
        let mut hb = HistoryBuilder::new(day());
        // Twice the traffic during hours 12..24 than 0..12.
        for t in (0..43_200).step_by(40) {
            hb.record(&obs(t, &b));
        }
        for t in (43_200..86_400).step_by(20) {
            hb.record(&obs(t, &b));
        }
        let h = &learned(hb, &b);
        let am: f64 = h.hourly_shape[..12].iter().sum::<f64>() / 12.0;
        let pm: f64 = h.hourly_shape[12..].iter().sum::<f64>() / 12.0;
        assert!(pm > am * 1.5, "am {am} pm {pm}");
        // multipliers average ≈ 1
        let mean: f64 = h.hourly_shape.iter().sum::<f64>() / 24.0;
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
        // rate_at honours the shape only when the model is enabled
        let noon = UnixTime(13 * 3_600);
        assert!(h.rate_at(noon, true) > h.rate_at(noon, false) * 0.9);
        assert_eq!(h.rate_at(noon, false), h.lambda);
    }

    #[test]
    fn record_all_and_empty_build() {
        let hb = HistoryBuilder::new(day());
        assert!(hb.build_indexed().is_empty());
        let b = block();
        let mut hb = HistoryBuilder::new(day());
        hb.record_all((0..100).map(|i| obs(i * 100, &b)));
        assert_eq!(hb.block_count(), 1);
    }

    #[test]
    fn merged_shards_equal_one_sequential_pass() {
        let blocks: Vec<Prefix> = (0..7u32)
            .map(|i| Prefix::v4_raw(0x0A00_0000 + (i << 8), 24))
            .collect();
        let obs: Vec<Observation> = (0..86_400u64)
            .step_by(30)
            .flat_map(|t| {
                blocks
                    .iter()
                    .filter(move |_| t % 90 != 60)
                    .map(move |b| Observation::new(UnixTime(t), *b))
            })
            .collect();

        let mut seq = HistoryBuilder::new(day());
        seq.record_all(obs.iter().copied());

        for shards in [2usize, 3, 5] {
            let chunk = obs.len().div_ceil(shards);
            let mut merged = HistoryBuilder::new(day());
            for c in obs.chunks(chunk) {
                let mut hb = HistoryBuilder::new(day());
                hb.record_all(c.iter().copied());
                merged.merge(hb);
            }
            assert_eq!(merged.block_count(), seq.block_count());
            let a = merged.build_indexed();
            let mut seq2 = HistoryBuilder::new(day());
            seq2.record_all(obs.iter().copied());
            let s = seq2.build_indexed();
            assert_eq!(a.index().prefixes(), s.index().prefixes(), "id order");
            for id in 0..a.len() as u32 {
                assert_eq!(a.by_id(id), s.by_id(id), "history {shards} shards");
            }
        }
    }

    #[test]
    fn merge_empty_and_into_empty() {
        let b = block();
        let mut full = HistoryBuilder::new(day());
        full.record_all((0..100).map(|i| obs(i * 100, &b)));
        // empty ← full
        let mut e = HistoryBuilder::new(day());
        e.merge(full);
        assert_eq!(e.block_count(), 1);
        // full ← empty
        e.merge(HistoryBuilder::new(day()));
        assert_eq!(e.block_count(), 1);
        assert_eq!(learned(e, &b).total, 100);
    }

    #[test]
    fn partial_last_hour_is_rescaled_not_dropped() {
        let b = block();
        // 90-minute window: hour 0 full, hour 1 half.
        let w = Interval::from_secs(0, 5_400);
        let mut hb = HistoryBuilder::new(w);
        for t in (0..5_400).step_by(10) {
            hb.record(&obs(t, &b));
        }
        let h = &learned(hb, &b);
        assert!((h.lambda - 0.1).abs() < 0.02, "lambda {}", h.lambda);
    }
}
