//! Decision provenance: why an event fired, captured as it fired.
//!
//! Every enrolled unit carries a fixed-capacity ring of recently closed
//! bins ([`EvidenceSample`]: bin start, arrival count, diurnal-weighted
//! expectation, posterior belief). When the hysteresis machine opens an
//! outage the ring is snapshotted; when the outage commits, the
//! snapshot plus the open/close context freezes into an
//! [`EventEvidence`] record that rides the `UnitReport` through every
//! execution path — batch, streaming, and parallel produce identical
//! records because they run the identical `UnitState` code.
//!
//! Enrollment is decided by a stable hash of the unit's prefix
//! ([`prefix_bucket`]) against the configured
//! [`EvidenceConfig`] tier, never by
//! unit order — so a sampled tier enrolls the *same* units at any
//! worker count.

use crate::config::EvidenceConfig;
use outage_obs::Value;
use outage_types::rng::Fnv1a;
use outage_types::{Interval, IntervalSet, Prefix, UnixTime};

/// Closed bins remembered per enrolled unit. Sized so the trajectory
/// spans several hysteresis transitions at any bin width while keeping
/// the ring one cache-friendly inline array (~0.5 KiB per unit).
pub const RING_CAPACITY: usize = 16;

/// One closed bin as the detector judged it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvidenceSample {
    /// Start of the bin.
    pub bin_start: UnixTime,
    /// Arrivals counted into the bin.
    pub arrivals: u64,
    /// Expected arrivals under the (diurnal) up-model.
    pub expected: f64,
    /// Belief that the unit is up, after this bin's update.
    pub belief: f64,
}

impl EvidenceSample {
    const ZERO: EvidenceSample = EvidenceSample {
        bin_start: UnixTime(0),
        arrivals: 0,
        expected: 0.0,
        belief: 0.0,
    };
}

impl Default for EvidenceSample {
    fn default() -> EvidenceSample {
        EvidenceSample::ZERO
    }
}

/// Which detection path opened the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceTrigger {
    /// The per-bin Bayesian path: belief crossed the down threshold.
    Bin,
    /// The exact-timestamp path: one inter-arrival gap was decisive.
    Gap,
}

impl EvidenceTrigger {
    /// Stable lower-case name used in JSON and pretty output.
    pub fn name(&self) -> &'static str {
        match self {
            EvidenceTrigger::Bin => "bin",
            EvidenceTrigger::Gap => "gap",
        }
    }
}

/// The frozen provenance of one committed outage event: everything
/// needed to reproduce the belief trajectory that opened it.
#[derive(Debug, Clone, PartialEq)]
pub struct EventEvidence {
    /// The unit the event belongs to.
    pub prefix: Prefix,
    /// The committed (merged) outage interval — identical to the
    /// matching entry in `UnitReport::detections`.
    pub interval: Interval,
    /// The committed confidence (max over merged raw detections).
    pub confidence: f64,
    /// Which path opened the first raw detection of this event.
    pub trigger: EvidenceTrigger,
    /// The unit's tuned bin width in seconds.
    pub bin_width: u64,
    /// Belief immediately after the opening judgement.
    pub belief_at_open: f64,
    /// Lowest belief reached while down (drives confidence).
    pub min_belief: f64,
    /// The event ran into the window end unrecovered.
    pub censored: bool,
    /// Last arrival seen before the outage opened, if any.
    pub last_arrival_before: Option<UnixTime>,
    /// First arrival seen after the outage (the refined end), if any.
    pub first_arrival_after: Option<UnixTime>,
    /// Raw detections merged into this event (>= 1).
    pub merged: u32,
    /// Seconds of this event's span the sensor spent quarantined.
    /// Assembled at harvest from the run's quarantined set, not at
    /// capture — the per-unit state machines never see the gate.
    pub quarantined_secs: u64,
    /// Hour-of-day expectation multipliers the unit judged against.
    pub shape: [f64; 24],
    /// Recently closed bins at open time, oldest first.
    pub trajectory: Vec<EvidenceSample>,
}

impl EventEvidence {
    /// The stable event id: `PREFIX@START_SECS` (e.g.
    /// `192.0.2.0/24@30010`). The same id scheme addresses
    /// `GET /events/{id}/explain` and `passive-outage explain`.
    pub fn id(&self) -> String {
        event_id(&self.prefix, self.interval.start)
    }

    /// Fill `quarantined_secs` from the run's quarantined set.
    pub(crate) fn fill_quarantine(&mut self, quarantined: &IntervalSet) {
        self.quarantined_secs = quarantined.overlap_secs(&IntervalSet::singleton(self.interval));
    }

    /// The record as a JSON tree. Every surface that emits evidence —
    /// `explain` (CLI), `GET /events/{id}/explain`, webhook payloads,
    /// `--evidence-out` documents — renders this one tree, so they are
    /// byte-identical for the same record.
    pub fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.set("id", Value::Str(self.id()));
        v.set("prefix", Value::Str(self.prefix.to_string()));
        v.set("start", Value::Num(self.interval.start.secs() as f64));
        v.set("end", Value::Num(self.interval.end.secs() as f64));
        v.set("duration_secs", Value::Num(self.interval.duration() as f64));
        v.set("confidence", Value::Num(self.confidence));
        v.set("trigger", Value::Str(self.trigger.name().to_string()));
        v.set("bin_width_secs", Value::Num(self.bin_width as f64));
        v.set("belief_at_open", Value::Num(self.belief_at_open));
        v.set("min_belief", Value::Num(self.min_belief));
        v.set("censored", Value::Bool(self.censored));
        v.set(
            "last_arrival_before",
            match self.last_arrival_before {
                Some(t) => Value::Num(t.secs() as f64),
                None => Value::Null,
            },
        );
        v.set(
            "first_arrival_after",
            match self.first_arrival_after {
                Some(t) => Value::Num(t.secs() as f64),
                None => Value::Null,
            },
        );
        v.set("merged", Value::Num(self.merged as f64));
        v.set("quarantined_secs", Value::Num(self.quarantined_secs as f64));
        v.set(
            "shape",
            Value::Arr(self.shape.iter().map(|&s| Value::Num(s)).collect()),
        );
        v.set(
            "trajectory",
            Value::Arr(
                self.trajectory
                    .iter()
                    .map(|s| {
                        let mut e = Value::object();
                        e.set("bin_start", Value::Num(s.bin_start.secs() as f64));
                        e.set("arrivals", Value::Num(s.arrivals as f64));
                        e.set("expected", Value::Num(s.expected));
                        e.set("belief", Value::Num(s.belief));
                        e
                    })
                    .collect(),
            ),
        );
        v
    }
}

/// The id an event would carry: `PREFIX@START_SECS`.
pub fn event_id(prefix: &Prefix, start: UnixTime) -> String {
    format!("{}@{}", prefix, start.secs())
}

/// A stable 64-bit bucket for sampling-tier enrollment. FNV-1a over
/// the prefix's family/address/length — independent of unit order,
/// worker count, and platform, so every execution mode enrolls the
/// same sample.
pub fn prefix_bucket(prefix: &Prefix) -> u64 {
    let mut h = Fnv1a::wide_prime();
    match prefix {
        Prefix::V4 { addr, len } => {
            h.byte(4);
            h.bytes(&addr.to_le_bytes());
            h.byte(*len);
        }
        Prefix::V6 { addr, len } => {
            h.byte(6);
            h.bytes(&addr.to_le_bytes());
            h.byte(*len);
        }
    }
    h.finish()
}

/// Whether `prefix` is enrolled under `tier`.
pub fn enrolls(tier: EvidenceConfig, prefix: &Prefix) -> bool {
    !tier.is_off() && tier.enrolled(prefix_bucket(prefix))
}

/// Ring snapshot plus open-context captured when an outage opens,
/// waiting for the commit that freezes it.
#[derive(Debug, Clone)]
struct PendingEvidence {
    belief_at_open: f64,
    last_arrival_before: Option<UnixTime>,
    trajectory: Vec<EvidenceSample>,
}

/// Per-unit capture state: the bin ring, the pending open, and the
/// frozen records accumulated this window. Lives in the engine's
/// `UnitArena` beside the unit's hot state.
#[derive(Debug, Clone, Default)]
pub struct UnitEvidence {
    ring: [EvidenceSample; RING_CAPACITY],
    head: usize,
    len: usize,
    pending: Option<PendingEvidence>,
    frozen: Vec<EventEvidence>,
}

impl UnitEvidence {
    /// A fresh, empty capture state.
    pub fn new() -> UnitEvidence {
        UnitEvidence {
            ring: [EvidenceSample::ZERO; RING_CAPACITY],
            head: 0,
            len: 0,
            pending: None,
            frozen: Vec::new(),
        }
    }

    /// Record one closed bin.
    pub(crate) fn record_bin(
        &mut self,
        bin_start: UnixTime,
        arrivals: u64,
        expected: f64,
        belief: f64,
    ) {
        self.ring[self.head] = EvidenceSample {
            bin_start,
            arrivals,
            expected,
            belief,
        };
        self.head = (self.head + 1) % RING_CAPACITY;
        self.len = (self.len + 1).min(RING_CAPACITY);
    }

    /// The ring contents, oldest first.
    fn snapshot(&self) -> Vec<EvidenceSample> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let idx = (self.head + RING_CAPACITY - self.len + i) % RING_CAPACITY;
            out.push(self.ring[idx]);
        }
        out
    }

    /// Bin-path open: the hysteresis machine just went Down.
    pub(crate) fn open(&mut self, belief_at_open: f64, last_arrival_before: Option<UnixTime>) {
        self.pending = Some(PendingEvidence {
            belief_at_open,
            last_arrival_before,
            trajectory: self.snapshot(),
        });
    }

    /// Commit: freeze the pending open (or, defensively, a snapshot
    /// taken now) into a raw record.
    #[allow(clippy::too_many_arguments)] // capture site passes the full close context once
    pub(crate) fn close(
        &mut self,
        prefix: Prefix,
        interval: Interval,
        confidence: f64,
        min_belief: f64,
        first_arrival_after: Option<UnixTime>,
        censored: bool,
        bin_width: u64,
        shape: &[f64; 24],
    ) {
        let pending = self.pending.take().unwrap_or_else(|| PendingEvidence {
            belief_at_open: min_belief,
            last_arrival_before: None,
            trajectory: self.snapshot(),
        });
        self.frozen.push(EventEvidence {
            prefix,
            interval,
            confidence,
            trigger: EvidenceTrigger::Bin,
            bin_width,
            belief_at_open: pending.belief_at_open,
            min_belief,
            censored,
            last_arrival_before: pending.last_arrival_before,
            first_arrival_after,
            merged: 1,
            quarantined_secs: 0,
            shape: *shape,
            trajectory: pending.trajectory,
        });
    }

    /// Drop a pending open whose outage committed to nothing (clipped
    /// empty by the window).
    pub(crate) fn drop_pending(&mut self) {
        self.pending = None;
    }

    /// Gap-path record: a single decisive inter-arrival gap, declared
    /// retroactively — open and close in one step.
    #[allow(clippy::too_many_arguments)] // capture site passes the full gap context once
    pub(crate) fn record_gap(
        &mut self,
        prefix: Prefix,
        interval: Interval,
        confidence: f64,
        posterior_belief: f64,
        belief_before: f64,
        bin_width: u64,
        shape: &[f64; 24],
    ) {
        self.frozen.push(EventEvidence {
            prefix,
            interval,
            confidence,
            trigger: EvidenceTrigger::Gap,
            bin_width,
            belief_at_open: belief_before,
            min_belief: posterior_belief,
            censored: false,
            last_arrival_before: Some(interval.start - 1),
            first_arrival_after: Some(interval.end),
            merged: 1,
            quarantined_secs: 0,
            shape: *shape,
            trajectory: self.snapshot(),
        });
    }

    /// Quarantine recovery: the ring holds sensor artifacts, not
    /// evidence. Frozen records from before the fault stay.
    pub(crate) fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
        self.pending = None;
    }

    /// End of window: sort and merge the frozen raw records exactly as
    /// `UnitState::finish` merges `raw_outages` (stable by start, hull
    /// touching neighbours, max confidence), so record `i` aligns 1:1
    /// with `UnitReport::detections[i]`.
    pub(crate) fn finalize(&mut self) -> Vec<EventEvidence> {
        self.pending = None;
        let mut raw = std::mem::take(&mut self.frozen);
        raw.sort_by_key(|r| r.interval.start);
        let mut merged: Vec<EventEvidence> = Vec::with_capacity(raw.len());
        for rec in raw {
            match merged.last_mut() {
                Some(last) if last.interval.touches(&rec.interval) => {
                    last.interval = last.interval.hull(&rec.interval);
                    last.confidence = last.confidence.max(rec.confidence);
                    last.min_belief = last.min_belief.min(rec.min_belief);
                    last.censored |= rec.censored;
                    if last.first_arrival_after.is_none() {
                        last.first_arrival_after = rec.first_arrival_after;
                    }
                    last.merged += 1;
                }
                _ => merged.push(rec),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn ring_keeps_the_newest_samples_oldest_first() {
        let mut ev = UnitEvidence::new();
        for i in 0..(RING_CAPACITY as u64 + 5) {
            ev.record_bin(UnixTime(i * 300), i, 3.0, 0.9);
        }
        let snap = ev.snapshot();
        assert_eq!(snap.len(), RING_CAPACITY);
        assert_eq!(snap[0].arrivals, 5);
        assert_eq!(snap.last().unwrap().arrivals, RING_CAPACITY as u64 + 4);
        assert!(snap.windows(2).all(|w| w[0].bin_start < w[1].bin_start));
    }

    #[test]
    fn open_snapshots_the_ring_at_open_time() {
        let mut ev = UnitEvidence::new();
        ev.record_bin(UnixTime(0), 4, 4.0, 0.95);
        ev.record_bin(UnixTime(300), 0, 4.0, 0.05);
        ev.open(0.05, Some(UnixTime(295)));
        // Bins closed while down must not leak into the open snapshot.
        ev.record_bin(UnixTime(600), 0, 4.0, 0.01);
        let shape = [1.0; 24];
        ev.close(
            block("192.0.2.0/24"),
            Interval::from_secs(296, 900),
            0.99,
            0.01,
            Some(UnixTime(900)),
            false,
            300,
            &shape,
        );
        let recs = ev.finalize();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].trajectory.len(), 2);
        assert_eq!(recs[0].belief_at_open, 0.05);
        assert_eq!(recs[0].last_arrival_before, Some(UnixTime(295)));
        assert_eq!(recs[0].id(), "192.0.2.0/24@296");
    }

    #[test]
    fn finalize_merges_touching_records_like_detections() {
        let shape = [1.0; 24];
        let mut ev = UnitEvidence::new();
        ev.record_gap(
            block("192.0.2.0/24"),
            Interval::from_secs(500, 600),
            0.9,
            0.1,
            0.95,
            300,
            &shape,
        );
        ev.open(0.05, None);
        ev.close(
            block("192.0.2.0/24"),
            Interval::from_secs(100, 550),
            0.99,
            0.01,
            None,
            false,
            300,
            &shape,
        );
        let recs = ev.finalize();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].interval, Interval::from_secs(100, 600));
        assert_eq!(recs[0].confidence, 0.99);
        assert_eq!(recs[0].merged, 2);
        assert_eq!(recs[0].trigger, EvidenceTrigger::Bin);
    }

    #[test]
    fn reset_clears_the_ring_but_keeps_frozen_records() {
        let shape = [1.0; 24];
        let mut ev = UnitEvidence::new();
        ev.record_bin(UnixTime(0), 4, 4.0, 0.9);
        ev.record_gap(
            block("192.0.2.0/24"),
            Interval::from_secs(10, 70),
            0.9,
            0.1,
            0.95,
            300,
            &shape,
        );
        ev.open(0.05, None);
        ev.reset();
        assert_eq!(ev.snapshot().len(), 0);
        let recs = ev.finalize();
        assert_eq!(recs.len(), 1, "pre-fault record survives reset");
    }

    #[test]
    fn enrollment_is_stable_and_tier_scaled() {
        let blocks: Vec<Prefix> = (0..1_000u32).map(|i| Prefix::v4_raw(i << 8, 24)).collect();
        let full = blocks
            .iter()
            .filter(|p| enrolls(EvidenceConfig::Full, p))
            .count();
        assert_eq!(full, 1_000);
        let none = blocks
            .iter()
            .filter(|p| enrolls(EvidenceConfig::Off, p))
            .count();
        assert_eq!(none, 0);
        let sampled = blocks
            .iter()
            .filter(|p| enrolls(EvidenceConfig::Sampled(16), p))
            .count();
        assert!(
            (20..=110).contains(&sampled),
            "1-in-16 of 1000 should land near 62, got {sampled}"
        );
        // Deterministic across calls (and thus across execution modes).
        for p in &blocks {
            assert_eq!(
                enrolls(EvidenceConfig::Sampled(16), p),
                enrolls(EvidenceConfig::Sampled(16), p)
            );
        }
    }

    #[test]
    fn quarantine_fill_measures_the_overlap() {
        let shape = [1.0; 24];
        let mut ev = UnitEvidence::new();
        ev.open(0.05, None);
        ev.close(
            block("192.0.2.0/24"),
            Interval::from_secs(100, 1_100),
            0.99,
            0.01,
            None,
            false,
            300,
            &shape,
        );
        let mut recs = ev.finalize();
        let mut q = IntervalSet::new();
        q.insert(Interval::from_secs(600, 5_000));
        recs[0].fill_quarantine(&q);
        assert_eq!(recs[0].quarantined_secs, 500);
    }
}
