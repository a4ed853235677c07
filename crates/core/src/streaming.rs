//! Online operation: a long-running monitor with rolling recalibration.
//!
//! The batch pipeline ([`crate::pipeline::PassiveDetector`]) replays a
//! finished window twice. A deployed system instead runs *forever*:
//! observations arrive continuously, verdicts must be available now, and
//! the per-block models must follow the traffic as it drifts. The
//! [`StreamingMonitor`] does exactly that:
//!
//! * Time is divided into **epochs** (default one day). Throughout epoch
//!   `n`, detection runs with the parameters learned from epoch `n−1`,
//!   while epoch `n`'s history accumulates for the next hand-over —
//!   so there is always a full day of history behind every judgement,
//!   as in the paper's deployment at B-root.
//! * The first epoch is a **warm-up**: only history is collected, no
//!   verdicts are produced (a detector with no model has no business
//!   declaring outages). A monitor warm-started from a checkpointed
//!   model ([`StreamingMonitor::from_model`]) skips the warm-up and is
//!   live from its first instant.
//! * Completed outages are emitted as [`OutageEvent`]s; the current
//!   belief of any block can be queried at any time.
//!
//! Detection semantics — unit advancement, sentinel transitions,
//! quarantine bookkeeping, skip-to re-seeding — live in the embedded
//! [`DetectionEngine`], shared bit-for-bit with the batch and parallel
//! paths. The monitor adds only what streaming genuinely needs:
//!
//! * A bounded **reorder buffer** ([`StreamingMonitor::with_reorder`]):
//!   real capture pipelines deliver modestly out-of-order packets, and
//!   the per-unit detectors require non-decreasing time. Observations
//!   are held until a watermark (`max time seen − max_skew`) passes
//!   them, then released in time order; anything arriving behind the
//!   watermark is counted and dropped rather than corrupting bin state.
//! * The **epoch clock**: at each boundary the engine's unit set is
//!   rotated out (finished into events and timelines) and a fresh set
//!   is planned from the epoch's accumulated history. The engine's
//!   quarantine gate persists across rotations, so a feed fault
//!   spanning an epoch boundary stays one fault.
//! * The **drain API**: completed events and closed per-block
//!   timelines, queryable without stopping the monitor.

use crate::config::{ConfigError, DetectorConfig};
use crate::engine::{DetectionEngine, GateHandles, QuarantineGate};
use crate::evidence::EventEvidence;
use crate::history::HistoryBuilder;
use crate::model::LearnedModel;
use crate::pipeline::PassiveDetector;
use crate::sentinel::{FeedHealth, FeedSentinel, SentinelConfig};
use outage_obs::{Counter, Gauge, Obs};
use outage_types::{Interval, IntervalSet, Observation, OutageEvent, Prefix, Timeline, UnixTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Pre-resolved metric handles for the streaming hot path (one atomic
/// op per update; no registry lookups while ingesting). Quarantine
/// lifecycle handles live on the engine's gate, not here.
#[derive(Debug)]
struct StreamHandles {
    reorder_occupancy: Gauge,
    watermark_lag: Gauge,
    late_drops: Counter,
    epochs: Counter,
}

impl StreamHandles {
    fn new(obs: &Obs) -> StreamHandles {
        let r = &obs.registry;
        StreamHandles {
            reorder_occupancy: r.gauge("po_reorder_occupancy", &[]),
            watermark_lag: r.gauge("po_reorder_watermark_lag_seconds", &[]),
            late_drops: r.counter("po_reorder_late_drops_total", &[]),
            epochs: r.counter("po_stream_epochs_total", &[]),
        }
    }
}

/// Bounded watermark reorder stage (see module docs).
#[derive(Debug)]
struct ReorderBuffer {
    max_skew: u64,
    heap: BinaryHeap<Reverse<Observation>>,
    /// Everything strictly before this has been released downstream.
    released: Option<UnixTime>,
    late_drops: u64,
}

impl ReorderBuffer {
    fn new(max_skew: u64) -> ReorderBuffer {
        ReorderBuffer {
            max_skew,
            heap: BinaryHeap::new(),
            released: None,
            late_drops: 0,
        }
    }

    /// Accept one observation; appends the observations now safe to
    /// release to `out`, in time order.
    fn push(&mut self, obs: Observation, out: &mut Vec<Observation>) {
        if self.released.is_some_and(|r| obs.time < r) {
            // Behind the watermark: releasing it would time-travel.
            self.late_drops += 1;
            return;
        }
        self.heap.push(Reverse(obs));
        self.drain_to(UnixTime(obs.time.secs().saturating_sub(self.max_skew)), out);
    }

    /// Release everything at or before `watermark` into `out` (wall-clock
    /// ticks advance the watermark even when no packets arrive).
    fn drain_to(&mut self, watermark: UnixTime, out: &mut Vec<Observation>) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time > watermark {
                break;
            }
            out.push(self.heap.pop().unwrap().0);
        }
        if self.released.is_none_or(|r| r < watermark) {
            self.released = Some(watermark);
        }
    }
}

/// A continuously-running passive outage monitor.
#[derive(Debug)]
pub struct StreamingMonitor {
    detector: PassiveDetector,
    epoch_secs: u64,
    /// First instant the monitor covers (sentinel bucket origin).
    start: UnixTime,
    /// Start of the epoch currently being *detected* (None during
    /// warm-up).
    current_epoch: Option<UnixTime>,
    /// Start of the epoch whose history is accumulating.
    history_epoch_start: UnixTime,
    history: HistoryBuilder,
    /// The shared detection kernel: per-unit state, routing, and the
    /// quarantine gate. Its unit set is rotated at epoch boundaries;
    /// the gate and stray count persist across rotations.
    engine: DetectionEngine,
    /// Events from epochs already closed.
    completed: Vec<OutageEvent>,
    /// Frozen evidence records from closed epochs (empty with the
    /// evidence tier off).
    completed_evidence: Vec<EventEvidence>,
    /// Per-block judged timelines from closed epochs.
    timelines: HashMap<Prefix, Vec<Timeline>>,
    started: bool,
    reorder: Option<ReorderBuffer>,
    /// Observations the reorder stage has just released, awaiting
    /// ingest; empty between calls, kept only for its capacity.
    released: Vec<Observation>,
    /// The model the *live* epoch's units were planned from (None during
    /// warm-up). A service checkpoints this at each epoch roll so a
    /// restarted process can warm-start bit-identically.
    current_model: Option<LearnedModel>,
    /// Observability bundle (default: unscraped) and its pre-resolved
    /// handles, present only once [`Self::with_obs`] attaches a bundle.
    obs: Obs,
    handles: Option<StreamHandles>,
    /// Late drops already mirrored into the registry.
    late_drops_reported: u64,
    /// Stable empty set for [`Self::quarantined`] without a sentinel.
    no_quarantine: IntervalSet,
}

impl StreamingMonitor {
    /// A monitor starting at `start` with epochs of `epoch_secs`
    /// (the warm-up epoch is `[start, start + epoch_secs)`).
    pub fn new(
        config: DetectorConfig,
        start: UnixTime,
        epoch_secs: u64,
    ) -> Result<StreamingMonitor, ConfigError> {
        if epoch_secs < 3_600 {
            return Err(ConfigError::EpochTooShort { epoch_secs });
        }
        let first_window = Interval::new(start, start + epoch_secs);
        Ok(StreamingMonitor {
            detector: PassiveDetector::try_new(config)?,
            epoch_secs,
            start,
            current_epoch: None,
            history_epoch_start: start,
            history: HistoryBuilder::new(first_window),
            engine: DetectionEngine::idle(first_window, None),
            completed: Vec::new(),
            completed_evidence: Vec::new(),
            timelines: HashMap::new(),
            started: false,
            reorder: None,
            released: Vec::new(),
            current_model: None,
            obs: Obs::default(),
            handles: None,
            late_drops_reported: 0,
            no_quarantine: IntervalSet::new(),
        })
    }

    /// A monitor with one-day epochs.
    pub fn daily(config: DetectorConfig, start: UnixTime) -> Result<StreamingMonitor, ConfigError> {
        StreamingMonitor::new(config, start, 86_400)
    }

    /// Warm start: a monitor whose first epoch is already live, with
    /// units planned from a checkpointed [`LearnedModel`] instead of a
    /// warm-up pass. History for the *next* epoch accumulates from the
    /// live traffic as usual, so recalibration proceeds normally after
    /// the first boundary.
    pub fn from_model(
        config: DetectorConfig,
        model: &LearnedModel,
        start: UnixTime,
        epoch_secs: u64,
    ) -> Result<StreamingMonitor, ConfigError> {
        let mut monitor = StreamingMonitor::new(config, start, epoch_secs)?;
        let first_window = Interval::new(start, start + epoch_secs);
        let plan = monitor.detector.plan_units(model.indexed());
        monitor.engine = DetectionEngine::from_plan(
            monitor.detector.config(),
            plan,
            model.indexed(),
            first_window,
            None,
        );
        monitor.current_epoch = Some(start);
        monitor.current_model = Some(model.clone());
        Ok(monitor)
    }

    /// Attach a feed-health sentinel: while it judges the feed unhealthy
    /// the monitor quarantines instead of reporting mass outages.
    pub fn with_sentinel(mut self, cfg: SentinelConfig) -> Result<StreamingMonitor, ConfigError> {
        cfg.validate()?;
        let mut gate = QuarantineGate::from_sentinel(FeedSentinel::new(cfg, self.start));
        if self.handles.is_some() {
            gate.set_handles(GateHandles::new(&self.obs));
        }
        self.engine.set_gate(gate);
        Ok(self)
    }

    /// Accept observations up to `max_skew_secs` out of order: they are
    /// re-sequenced through a watermark buffer before ingest. Anything
    /// later than that is counted ([`Self::late_drops`]) and dropped.
    pub fn with_reorder(mut self, max_skew_secs: u64) -> StreamingMonitor {
        self.reorder = Some(ReorderBuffer::new(max_skew_secs));
        self
    }

    /// Attach an observability bundle: reorder-buffer occupancy and
    /// watermark lag, epoch rolls, quarantine open/close counts and
    /// durations, and swallowed-arrival counts all record into its
    /// registry, and the detector's learn/plan stages inherit it.
    pub fn with_obs(mut self, obs: Obs) -> StreamingMonitor {
        self.handles = Some(StreamHandles::new(&obs));
        if let Some(gate) = self.engine.gate_mut() {
            gate.set_handles(GateHandles::new(&obs));
        }
        self.detector = std::mem::take(&mut self.detector).with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Whether the warm-up epoch has completed (verdicts are live).
    pub fn is_live(&self) -> bool {
        self.current_epoch.is_some()
    }

    /// Epoch length in seconds.
    pub fn epoch_secs(&self) -> u64 {
        self.epoch_secs
    }

    /// First instant the monitor covers.
    pub fn start(&self) -> UnixTime {
        self.start
    }

    /// Start of the epoch currently being detected (None during
    /// warm-up).
    pub fn live_epoch_start(&self) -> Option<UnixTime> {
        self.current_epoch
    }

    /// The model the live epoch's units were planned from (None during
    /// warm-up). Checkpoint this together with
    /// [`Self::live_epoch_start`] and the events drained so far: a new
    /// monitor built with [`Self::from_model`] at that instant, replayed
    /// over the same source, reproduces the rest of the run exactly.
    pub fn current_model(&self) -> Option<&LearnedModel> {
        self.current_model.as_ref()
    }

    /// The detector configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        self.detector.config()
    }

    /// Units currently believed down (belief < 0.5), with beliefs;
    /// empty during warm-up and frozen during quarantine.
    pub fn down_units(&self) -> Vec<(Prefix, f64)> {
        self.engine.down_units()
    }

    /// Observations that arrived for blocks with no unit this epoch.
    pub fn strays(&self) -> u64 {
        self.engine.strays()
    }

    /// Observations dropped for arriving behind the reorder watermark.
    pub fn late_drops(&self) -> u64 {
        self.reorder.as_ref().map_or(0, |r| r.late_drops)
    }

    /// Observations swallowed (not judged) while the feed was
    /// quarantined.
    pub fn quarantine_swallowed(&self) -> u64 {
        self.engine.gate().map_or(0, QuarantineGate::swallowed)
    }

    /// The sentinel's current feed judgement, if a sentinel is attached.
    pub fn feed_health(&self) -> Option<FeedHealth> {
        self.engine.gate().map(QuarantineGate::health)
    }

    /// Whether verdicts are currently suspended by the sentinel.
    pub fn is_quarantined(&self) -> bool {
        self.engine.is_quarantined()
    }

    /// Closed quarantine intervals so far (feed faults, not outages).
    pub fn quarantined(&self) -> &IntervalSet {
        self.engine
            .gate()
            .map(QuarantineGate::quarantined)
            .unwrap_or(&self.no_quarantine)
    }

    /// All quarantined time through `end`, including a quarantine still
    /// open at `end`.
    pub fn quarantined_through(&self, end: UnixTime) -> IntervalSet {
        self.engine
            .gate()
            .map_or_else(IntervalSet::new, |g| g.quarantined_through(end))
    }

    /// Feed one observation. With a reorder buffer, observations may be
    /// modestly out of order; without one they must be non-decreasing in
    /// time. An observation past the current epoch's end first rolls the
    /// epoch over (possibly several times for a long silence).
    pub fn observe(&mut self, obs: Observation) {
        self.sequence(obs);
        self.sync_reorder_metrics();
    }

    /// Feed a whole batch: the same as [`Self::observe`] on each
    /// observation in turn, except that the reorder gauges are synced
    /// once, after the batch.
    pub fn observe_all<I: IntoIterator<Item = Observation>>(&mut self, obs: I) {
        for o in obs {
            self.sequence(o);
        }
        self.sync_reorder_metrics();
    }

    /// Pass one observation through the reorder stage (if any) and
    /// ingest whatever it releases.
    fn sequence(&mut self, obs: Observation) {
        let Some(buf) = &mut self.reorder else {
            return self.ingest(obs);
        };
        buf.push(obs, &mut self.released);
        self.ingest_released();
    }

    /// Ingest, in order, everything the reorder stage released into the
    /// reused buffer, leaving it empty.
    fn ingest_released(&mut self) {
        let mut released = std::mem::take(&mut self.released);
        for obs in released.drain(..) {
            self.ingest(obs);
        }
        self.released = released;
    }

    /// Mirror the reorder stage's state into the registry (no-op without
    /// an attached bundle).
    fn sync_reorder_metrics(&mut self) {
        let (Some(h), Some(buf)) = (&self.handles, &self.reorder) else {
            return;
        };
        h.reorder_occupancy.set(buf.heap.len() as f64);
        // How far the oldest held observation still is from release.
        if let (Some(Reverse(oldest_held)), Some(watermark)) = (buf.heap.peek(), buf.released) {
            h.watermark_lag
                .set(oldest_held.time.secs().saturating_sub(watermark.secs()) as f64);
        }
        h.late_drops.add(buf.late_drops - self.late_drops_reported);
        self.late_drops_reported = buf.late_drops;
    }

    /// In-order ingest behind the reorder stage. The gate's open check
    /// runs *before* rolling so a dark epoch tail is skipped, not
    /// judged; the close check runs *after* rolling so recovery
    /// re-seeds the units that actually exist now.
    fn ingest(&mut self, obs: Observation) {
        self.started = true;
        self.engine.gate_observe(obs.time);
        while obs.time >= self.history_epoch_start + self.epoch_secs {
            self.roll_epoch();
        }
        self.engine.gate_close_if_recovered(obs.time);

        // History accumulates regardless of quarantine: brownout arrivals
        // are real traffic, and the next epoch needs whatever model it
        // can get. (A faulted span depresses the learned rate slightly —
        // toward conservatism, the right direction after a fault.)
        self.history.record(&obs);
        if self.current_epoch.is_some() {
            self.engine.ingest(obs);
        }
    }

    /// Advance every live detector's bin clock to `now` (e.g. from a
    /// once-a-minute timer). Without ticks, a block's belief only moves
    /// when *its own* packets arrive — which during an outage is never.
    /// Ticks also advance the reorder watermark and the sentinel's
    /// bucket clock, so a total feed blackout is noticed on wall-clock
    /// time.
    ///
    /// With a reorder stage, everything a tick moves — sentinel
    /// buckets, the quarantine gate, bins and epochs — moves only up to
    /// the watermark (`now` minus the allowed skew): observations
    /// younger than that are still held and will be ingested later, so
    /// judging their bucket, bin or epoch at `now` would count them in
    /// the wrong one.
    pub fn tick(&mut self, now: UnixTime) {
        let mut settled = now;
        if let Some(buf) = &mut self.reorder {
            settled = UnixTime(now.secs().saturating_sub(buf.max_skew));
            buf.drain_to(settled, &mut self.released);
            self.ingest_released();
            self.sync_reorder_metrics();
        }
        self.engine.gate_advance(settled);
        while self.started && settled >= self.history_epoch_start + self.epoch_secs {
            self.roll_epoch();
        }
        self.engine.gate_close_if_recovered(settled);
        self.engine.advance_units(settled);
    }

    /// Current belief that `block` is up, if it is covered this epoch.
    pub fn belief(&self, block: &Prefix) -> Option<f64> {
        self.engine.belief(block)
    }

    /// Blocks covered in the current epoch.
    pub fn covered_blocks(&self) -> usize {
        self.engine.covered_blocks()
    }

    /// Units in the live epoch carrying an evidence ring (0 with the
    /// tier off, or during warm-up).
    pub fn evidence_enrolled(&self) -> usize {
        self.engine.evidence_enrolled()
    }

    /// Drain outage events completed so far (closed epochs only).
    pub fn drain_events(&mut self) -> Vec<OutageEvent> {
        std::mem::take(&mut self.completed)
    }

    /// Drain frozen evidence records completed so far (closed epochs
    /// only). Empty unless the config's evidence tier enrolled units.
    pub fn drain_evidence(&mut self) -> Vec<EventEvidence> {
        std::mem::take(&mut self.completed_evidence)
    }

    /// Judged timelines of all closed epochs for a block.
    pub fn closed_timelines(&self, block: &Prefix) -> &[Timeline] {
        self.timelines.get(block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Close the current epoch (if live), then promote the accumulated
    /// history into a fresh set of detectors for the next epoch.
    fn roll_epoch(&mut self) {
        if let Some(h) = &self.handles {
            h.epochs.inc();
        }
        let epoch_end = self.history_epoch_start + self.epoch_secs;
        // 1. Close the running detection epoch: the engine skips a
        //    still-quarantined tail, finishes its units, and keeps its
        //    gate for the next epoch.
        if self.current_epoch.is_some() {
            let (mut reports, route, unit_of_id) = self.engine.rotate_out(epoch_end);
            for r in &reports {
                self.completed.extend(r.events());
            }
            // Record per-block timelines: each interned block id maps to
            // its owning unit's report.
            for (id, &u) in unit_of_id.iter().enumerate() {
                self.timelines
                    .entry(route.prefix(id as u32))
                    .or_default()
                    .push(reports[u as usize].timeline.clone());
            }
            for r in &mut reports {
                self.completed_evidence.append(&mut r.evidence);
            }
        }

        // 2. Promote history → next epoch's detectors.
        let next_epoch_start = epoch_end;
        let next_window = Interval::new(next_epoch_start, next_epoch_start + self.epoch_secs);
        let finished_history =
            std::mem::replace(&mut self.history, HistoryBuilder::new(next_window));
        // Promote through a LearnedModel (not raw histories): planning is
        // deterministic either way, and keeping the model means a service
        // can checkpoint exactly what the live epoch runs on.
        let model = finished_history.into_model();
        let plan = self.detector.plan_units(model.indexed());
        self.engine
            .install_units(self.detector.config(), plan, model.indexed(), next_window);
        self.current_model = Some(model);

        self.current_epoch = Some(next_epoch_start);
        self.history_epoch_start = next_epoch_start;
    }

    /// Finish at `end`: close the in-flight epoch and return all
    /// remaining events (sorted by start, then prefix), plus every
    /// quarantined interval (a quarantine still open at `end` is closed
    /// at `end`).
    ///
    /// The in-flight epoch is judged only through `end`: finishing
    /// mid-epoch, or right after a tick opened a new epoch, reports
    /// nothing about the unobserved time past `end`. A monitor that
    /// runs continuously (the intended deployment) never calls this at
    /// all.
    pub fn finish_with_quarantine(self, end: UnixTime) -> (Vec<OutageEvent>, IntervalSet) {
        let (events, quarantined, _) = self.finish_with_evidence(end);
        (events, quarantined)
    }

    /// [`Self::finish_with_quarantine`] also returning every frozen
    /// evidence record, sorted `(start, prefix)` like the events — the
    /// streaming counterpart of [`DetectionReport::evidence`].
    ///
    /// [`DetectionReport::evidence`]: crate::pipeline::DetectionReport::evidence
    pub fn finish_with_evidence(
        mut self,
        end: UnixTime,
    ) -> (Vec<OutageEvent>, IntervalSet, Vec<EventEvidence>) {
        // Flush the reorder stage: at end of stream everything held is
        // safe to release.
        if let Some(mut buf) = self.reorder.take() {
            buf.drain_to(UnixTime(u64::MAX), &mut self.released);
            self.ingest_released();
        }
        // The engine settles the gate (a quarantine still open swallows
        // the tail: the feed never came back, and we cannot tell sensor
        // silence from network silence), advances in-flight detectors to
        // `end` without opening a new epoch, and closes them.
        let (mut reports, parts) = self.engine.finish_units(end);
        // Final export: the sentinel's transition matrix and dwell
        // times land in the registry exactly once, at shutdown.
        if self.handles.is_some() {
            if let Some(s) = &parts.sentinel {
                s.export_metrics(&self.obs.registry);
            }
        }
        for r in &mut reports {
            self.completed.extend(r.events());
            self.completed_evidence.append(&mut r.evidence);
        }
        let mut events = self.completed;
        events.sort_by_key(|e| (e.interval.start, e.prefix));
        let mut evidence = self.completed_evidence;
        evidence.sort_by_key(|e| (e.interval.start, e.prefix));
        (events, parts.quarantined, evidence)
    }

    /// [`Self::finish_with_quarantine`], discarding the quarantine set.
    pub fn finish(self, end: UnixTime) -> Vec<OutageEvent> {
        self.finish_with_quarantine(end).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Prefix {
        "192.0.2.0/24".parse().unwrap()
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig::default()
    }

    fn daily(start: u64) -> StreamingMonitor {
        StreamingMonitor::daily(cfg(), UnixTime(start)).expect("valid default config")
    }

    /// Three days of steady 10 s traffic with an outage on day 3.
    fn feed(monitor: &mut StreamingMonitor, quiet: std::ops::Range<u64>) {
        let b = block();
        for t in (0..3 * 86_400).step_by(10) {
            if !quiet.contains(&t) {
                monitor.observe(Observation::new(UnixTime(t), b));
            }
        }
    }

    #[test]
    fn short_epochs_are_rejected_not_panicked() {
        let err = StreamingMonitor::new(cfg(), UnixTime(0), 30).unwrap_err();
        assert_eq!(err, ConfigError::EpochTooShort { epoch_secs: 30 });
        let msg = err.to_string();
        assert!(msg.contains("30"), "message should name the value: {msg}");
    }

    #[test]
    fn invalid_detector_config_is_rejected() {
        let mut c = cfg();
        c.bin_widths.clear();
        let err = StreamingMonitor::daily(c, UnixTime(0)).unwrap_err();
        assert_eq!(err, ConfigError::EmptyBinWidths);
    }

    #[test]
    fn warmup_epoch_produces_no_verdicts() {
        let mut m = daily(0);
        assert!(!m.is_live());
        // Day 1 only.
        for t in (0..86_000).step_by(10) {
            m.observe(Observation::new(UnixTime(t), block()));
        }
        assert!(!m.is_live());
        assert!(m.belief(&block()).is_none());
        assert!(m.finish(UnixTime(86_000)).is_empty());
    }

    #[test]
    fn goes_live_after_first_epoch() {
        let mut m = daily(0);
        for t in (0..2 * 86_400).step_by(10) {
            m.observe(Observation::new(UnixTime(t), block()));
        }
        assert!(m.is_live());
        assert_eq!(m.covered_blocks(), 1);
        let b = m.belief(&block()).expect("covered");
        assert!(b > 0.9, "steady block should be believed up: {b}");
    }

    #[test]
    fn detects_outage_in_live_epoch() {
        let mut m = daily(0);
        // Outage on day 3, 2 hours.
        let quiet = (2 * 86_400 + 30_000)..(2 * 86_400 + 37_200);
        feed(&mut m, quiet.clone());
        let events = m.finish(UnixTime(3 * 86_400));
        assert_eq!(events.len(), 1, "{events:?}");
        let ev = &events[0];
        assert!(
            quiet.contains(&ev.interval.start.secs())
                || ev.interval.start.secs() + 15 >= quiet.start
        );
        assert!(ev.duration() > 6_500);
    }

    #[test]
    fn belief_drops_during_live_outage() {
        let mut m = daily(0);
        let b = block();
        // Two clean days, then silence for three hours of day 3 — query
        // the belief mid-outage without finishing.
        for t in (0..2 * 86_400 + 30_000).step_by(10) {
            m.observe(Observation::new(UnixTime(t), b));
        }
        assert!(m.belief(&b).unwrap() > 0.9);
        // Silence; advance the wall clock with ticks (as a deployment's
        // timer would).
        m.tick(UnixTime(2 * 86_400 + 41_000));
        let mid = m.belief(&b).unwrap();
        assert!(mid < 0.1, "belief should have collapsed mid-outage: {mid}");
    }

    #[test]
    fn events_drain_at_epoch_boundaries() {
        let mut m = daily(0);
        // Outage on day 2; then day 3 begins, closing day 2's epoch.
        let quiet = (86_400 + 30_000)..(86_400 + 37_200);
        feed(&mut m, quiet);
        // We fed through day 3, so day 2's epoch is closed.
        let events = m.drain_events();
        assert_eq!(events.len(), 1);
        // second drain is empty
        assert!(m.drain_events().is_empty());
        // Day 1 was warm-up, day 2 is closed, day 3 is still in flight.
        let closed = m.closed_timelines(&block());
        assert_eq!(closed.len(), 1, "only day 2 is closed");
        assert!(closed[0].down_secs() > 6_000);
    }

    #[test]
    fn long_silence_rolls_multiple_epochs() {
        let mut m = daily(0);
        let b = block();
        for t in (0..86_400).step_by(10) {
            m.observe(Observation::new(UnixTime(t), b));
        }
        // Nothing for three days, then one packet.
        m.observe(Observation::new(UnixTime(4 * 86_400 + 5), b));
        assert!(m.is_live());
        // The silent epochs produced a censored outage for the block.
        let events = m.finish(UnixTime(4 * 86_400 + 10));
        assert!(
            events.iter().any(|e| e.duration() > 80_000),
            "multi-day silence must be reported: {events:?}"
        );
    }

    #[test]
    fn model_follows_traffic_across_epochs() {
        // A block that doubles its rate on day 2: day 3's detector must
        // use day 2's history (the monitor recalibrates per epoch).
        let mut m = daily(0);
        let b = block();
        for t in (0..86_400).step_by(40) {
            m.observe(Observation::new(UnixTime(t), b));
        }
        for t in (86_400..2 * 86_400).step_by(10) {
            m.observe(Observation::new(UnixTime(t), b));
        }
        // Early day 3: live with day-2 model.
        m.observe(Observation::new(UnixTime(2 * 86_400 + 5), b));
        assert!(m.is_live());
        assert!(m.belief(&b).is_some());
    }

    #[test]
    fn warm_start_from_model_is_live_immediately() {
        // Learn day 1 into a model, then warm-start a monitor on day 2:
        // it must be live from the first observation, with the same
        // coverage a warmed-up monitor would have.
        let b = block();
        let day1: Vec<Observation> = (0..86_400)
            .step_by(10)
            .map(|t| Observation::new(UnixTime(t), b))
            .collect();
        let model = LearnedModel::learn(day1, Interval::from_secs(0, 86_400));
        let m = StreamingMonitor::from_model(cfg(), &model, UnixTime(86_400), 86_400)
            .expect("valid config");
        assert!(m.is_live(), "warm start skips the warm-up epoch");
        assert_eq!(m.covered_blocks(), 1);

        // An outage on the warm-started epoch is detected.
        let mut m = m;
        for t in (86_400..2 * 86_400).step_by(10) {
            if !(120_000..126_000).contains(&t) {
                m.observe(Observation::new(UnixTime(t), b));
            }
        }
        let events = m.finish(UnixTime(2 * 86_400));
        assert_eq!(events.len(), 1, "{events:?}");
        assert!((119_900..120_100).contains(&events[0].interval.start.secs()));
    }

    #[test]
    fn reorder_buffer_absorbs_bounded_skew() {
        // Interleave each pair of 10 s arrivals out of order; with a
        // 60 s reorder stage the monitor sees them sorted and judges the
        // stream exactly like the in-order run.
        let b = block();
        let mut sorted = daily(0);
        let mut skewed = daily(0).with_reorder(60);
        for t in (0..(2 * 86_400)).step_by(20) {
            sorted.observe(Observation::new(UnixTime(t), b));
            sorted.observe(Observation::new(UnixTime(t + 10), b));
            // Swapped within the skew bound:
            skewed.observe(Observation::new(UnixTime(t + 10), b));
            skewed.observe(Observation::new(UnixTime(t), b));
        }
        assert_eq!(skewed.late_drops(), 0);
        assert_eq!(
            sorted.belief(&b).map(|v| (v * 1e9) as i64),
            skewed.belief(&b).map(|v| (v * 1e9) as i64),
            "same stream, same belief"
        );
        assert_eq!(
            sorted.finish(UnixTime(2 * 86_400)).len(),
            skewed.finish(UnixTime(2 * 86_400)).len()
        );
    }

    #[test]
    fn hard_time_regressions_are_counted_and_dropped() {
        let b = block();
        let mut m = daily(0).with_reorder(60);
        m.observe(Observation::new(UnixTime(1_000), b));
        m.observe(Observation::new(UnixTime(2_000), b)); // watermark → 1940
        m.observe(Observation::new(UnixTime(100), b)); // far too late
        assert_eq!(m.late_drops(), 1);
        m.observe(Observation::new(UnixTime(1_950), b)); // inside skew: kept
        assert_eq!(m.late_drops(), 1);
    }

    /// 1 Hz traffic (60 arrivals per sentinel bucket — enough aggregate
    /// for the ratio test) with a gap, plus minute ticks like a deployed
    /// timer.
    fn feed_with_blackout(m: &mut StreamingMonitor, until: u64, blackout: std::ops::Range<u64>) {
        let b = block();
        let mut next_tick = 60u64;
        for t in 0..until {
            if t >= next_tick {
                m.tick(UnixTime(t));
                next_tick += 60;
            }
            if !blackout.contains(&t) {
                m.observe(Observation::new(UnixTime(t), b));
            }
        }
    }

    #[test]
    fn without_sentinel_a_feed_blackout_reads_as_outage() {
        let blackout = (2 * 86_400 + 43_200)..(2 * 86_400 + 45_000);
        let mut m = daily(0);
        feed_with_blackout(&mut m, 2 * 86_400 + 50_000, blackout.clone());
        let events = m.finish(UnixTime(2 * 86_400 + 50_000));
        assert!(
            events.iter().any(|e| e.interval.start.secs() < blackout.end
                && e.interval.end.secs() > blackout.start),
            "a naive monitor must mistake the stall for an outage: {events:?}"
        );
    }

    #[test]
    fn sentinel_quarantines_blackout_instead_of_reporting_outage() {
        let blackout = (2 * 86_400 + 43_200)..(2 * 86_400 + 45_000);
        let b = block();
        let mut m = daily(0)
            .with_sentinel(SentinelConfig::default())
            .expect("valid sentinel config");
        feed_with_blackout(&mut m, 2 * 86_400 + 50_000, blackout.clone());
        // Recovered and judging again by the end of the feed.
        assert_eq!(m.feed_health(), Some(FeedHealth::Healthy));
        assert!(!m.is_quarantined());
        assert!(m.quarantine_swallowed() > 0, "recovery lag swallows a few");
        let belief = m.belief(&b).expect("covered");
        assert!(belief > 0.5, "belief was frozen, not collapsed: {belief}");

        let (events, quarantined) = m.finish_with_quarantine(UnixTime(2 * 86_400 + 50_000));
        assert!(
            !events.iter().any(|e| e.interval.start.secs() < blackout.end
                && e.interval.end.secs() > blackout.start),
            "no event may overlap the sensor fault: {events:?}"
        );
        assert_eq!(quarantined.intervals().len(), 1, "{quarantined:?}");
        let q = quarantined.intervals()[0];
        assert!(
            q.start.secs() <= blackout.start + 120 && q.end.secs() >= blackout.end,
            "quarantine must cover the blackout: {q:?}"
        );
        // ...but not by much: under 10 minutes of slack total.
        assert!(q.duration() < (blackout.end - blackout.start) + 600);
    }

    #[test]
    fn streaming_metrics_record_epochs_and_quarantine_lifecycle() {
        let blackout = (2 * 86_400 + 43_200)..(2 * 86_400 + 45_000);
        let obs = Obs::new();
        let mut m = daily(0)
            .with_sentinel(SentinelConfig::default())
            .expect("valid sentinel config")
            .with_obs(obs.clone());
        feed_with_blackout(&mut m, 2 * 86_400 + 50_000, blackout);
        let (_events, quarantined) = m.finish_with_quarantine(UnixTime(2 * 86_400 + 50_000));

        let value = |name: &str| obs.registry.value(name, &[]).unwrap_or(0.0);
        // Two epoch rolls: day 1 -> day 2 -> day 3.
        assert_eq!(value("po_stream_epochs_total"), 2.0);
        assert_eq!(value("po_stream_quarantine_opened_total"), 1.0);
        assert_eq!(value("po_stream_quarantine_closed_total"), 1.0);
        assert!(value("po_stream_quarantine_swallowed_total") > 0.0);
        // The duration histogram saw exactly the quarantined span.
        assert_eq!(value("po_quarantine_duration_seconds_count"), 1.0);
        assert_eq!(
            value("po_quarantine_duration_seconds_sum"),
            quarantined.total() as f64
        );
        // The sentinel exported its transition matrix at finish.
        let trips = obs
            .registry
            .value(
                "po_sentinel_transitions_total",
                &[("from", "healthy"), ("to", "dark")],
            )
            .unwrap_or(0.0);
        assert!(trips >= 1.0, "blackout must record a healthy->dark entry");
    }

    #[test]
    fn obs_then_sentinel_builder_order_still_records_lifecycle() {
        // The builder chain must not care whether the bundle or the
        // sentinel is attached first: the gate's lifecycle handles are
        // installed either way.
        let blackout = (2 * 86_400 + 43_200)..(2 * 86_400 + 45_000);
        let obs = Obs::new();
        let mut m = daily(0)
            .with_obs(obs.clone())
            .with_sentinel(SentinelConfig::default())
            .expect("valid sentinel config");
        feed_with_blackout(&mut m, 2 * 86_400 + 50_000, blackout);
        let _ = m.finish_with_quarantine(UnixTime(2 * 86_400 + 50_000));
        let value = |name: &str| obs.registry.value(name, &[]).unwrap_or(0.0);
        assert_eq!(value("po_stream_quarantine_opened_total"), 1.0);
        assert_eq!(value("po_stream_quarantine_closed_total"), 1.0);
    }

    #[test]
    fn reorder_metrics_track_buffer_occupancy() {
        let b = block();
        let obs = Obs::new();
        let mut m = daily(0).with_reorder(60).with_obs(obs.clone());
        // Two observations held in the buffer, nothing released yet.
        m.observe(Observation::new(UnixTime(1_000), b));
        m.observe(Observation::new(UnixTime(1_010), b));
        assert_eq!(
            obs.registry.value("po_reorder_occupancy", &[]).unwrap(),
            2.0
        );
        // A late arrival beyond the skew bound is counted as dropped.
        m.observe(Observation::new(UnixTime(2_000), b));
        m.observe(Observation::new(UnixTime(1_000), b));
        assert_eq!(
            obs.registry
                .value("po_reorder_late_drops_total", &[])
                .unwrap(),
            1.0
        );
        assert!(
            obs.registry
                .value("po_reorder_watermark_lag_seconds", &[])
                .unwrap()
                >= 0.0
        );
    }

    #[test]
    fn batched_observe_all_matches_per_observation_observe() {
        // One reordered stream fed twice in lockstep: once one `observe`
        // per observation, once in `observe_all` batches cut short at
        // every tick. Block `a` arrives at 1 Hz with each pair of seconds
        // swapped, block `b` every 10 s with a real outage on day 3, and
        // every 1000 s a stale replay lands behind the watermark. A feed
        // blackout follows the outage.
        enum Step {
            Obs(Observation),
            Tick(UnixTime),
        }
        let (a, b) = (block(), "198.51.100.0/24".parse::<Prefix>().unwrap());
        let until = 2 * 86_400 + 50_000;
        let outage = (2 * 86_400 + 20_000)..(2 * 86_400 + 27_200);
        let blackout = (2 * 86_400 + 43_200)..(2 * 86_400 + 45_000);
        let mut steps = Vec::new();
        let mut next_tick = 60;
        for t in (0..until).step_by(2) {
            if t >= next_tick {
                steps.push(Step::Tick(UnixTime(t)));
                next_tick += 60;
            }
            if blackout.contains(&t) {
                continue;
            }
            steps.push(Step::Obs(Observation::new(UnixTime(t + 1), a)));
            steps.push(Step::Obs(Observation::new(UnixTime(t), a)));
            if t % 10 == 0 && !outage.contains(&t) {
                steps.push(Step::Obs(Observation::new(UnixTime(t), b)));
            }
            if t % 1_000 == 0 && t >= 300 {
                steps.push(Step::Obs(Observation::new(UnixTime(t - 300), a)));
            }
        }

        let monitor = |obs: &Obs| {
            daily(0)
                .with_sentinel(SentinelConfig::default())
                .expect("valid sentinel config")
                .with_reorder(60)
                .with_obs(obs.clone())
        };
        let (single_obs, batched_obs) = (Obs::new(), Obs::new());
        let mut single = monitor(&single_obs);
        let mut batched = monitor(&batched_obs);
        let gauges = |obs: &Obs| {
            [
                "po_reorder_occupancy",
                "po_reorder_watermark_lag_seconds",
                "po_reorder_late_drops_total",
            ]
            .map(|name| obs.registry.value(name, &[]))
        };
        let mut batch = Vec::new();
        for step in &steps {
            match *step {
                Step::Obs(o) => {
                    single.observe(o);
                    batch.push(o);
                    if batch.len() == 37 {
                        batched.observe_all(batch.drain(..));
                    }
                }
                Step::Tick(now) => {
                    batched.observe_all(batch.drain(..));
                    assert_eq!(gauges(&single_obs), gauges(&batched_obs), "at {now:?}");
                    single.tick(now);
                    batched.tick(now);
                }
            }
        }
        batched.observe_all(batch.drain(..));
        assert_eq!(gauges(&single_obs), gauges(&batched_obs));
        assert!(single.late_drops() > 0, "the stale replays are dropped");
        assert_eq!(single.late_drops(), batched.late_drops());

        let end = UnixTime(until);
        let (events, quarantined) = single.finish_with_quarantine(end);
        assert!(!events.is_empty(), "block b's outage is reported");
        assert!(!quarantined.is_empty(), "the blackout is quarantined");
        assert_eq!((events, quarantined), batched.finish_with_quarantine(end));
    }

    #[test]
    fn ticks_roll_epochs_only_behind_the_reorder_watermark() {
        // Steady traffic for three days with a tick at every day
        // boundary and at the end. With a 60 s reorder window the last
        // observations before a boundary are still held when its tick
        // fires: they belong to the closing epoch, so the tick must not
        // roll it, and the final tick must not open an epoch past the
        // stream (whose empty units would all report outages).
        let b = block();
        let end = 3 * 86_400;
        let mut m = daily(0).with_reorder(60);
        for t in (0..end).step_by(10) {
            if t > 0 && t % 86_400 == 0 {
                let before = m.live_epoch_start();
                m.tick(UnixTime(t));
                assert_eq!(m.live_epoch_start(), before, "tick at {t} rolled early");
            }
            m.observe(Observation::new(UnixTime(t), b));
        }
        assert_eq!(m.live_epoch_start(), Some(UnixTime(2 * 86_400)));
        m.tick(UnixTime(end));
        assert_eq!(m.live_epoch_start(), Some(UnixTime(2 * 86_400)));
        let events = m.finish(UnixTime(end));
        assert!(events.is_empty(), "steady traffic, no outage: {events:?}");
    }

    #[test]
    fn finish_mid_epoch_judges_only_through_end() {
        // A steady block fed for two and a half days: the live epoch
        // [2 d, 3 d) is finished halfway, and its unobserved second half
        // is not silence.
        let end = 2 * 86_400 + 43_200;
        let mut m = daily(0);
        for t in (0..end).step_by(10) {
            m.observe(Observation::new(UnixTime(t), block()));
        }
        let events = m.finish(UnixTime(end));
        assert!(
            events.is_empty(),
            "nothing past {end} was observed: {events:?}"
        );
    }

    #[test]
    fn finish_at_a_ticked_boundary_judges_nothing_of_the_next_epoch() {
        // Without a reorder stage a tick at the day boundary rolls into
        // the next epoch at once; finishing there must not report that
        // whole day down.
        let end = 2 * 86_400;
        let mut m = daily(0);
        for t in (0..end).step_by(10) {
            m.observe(Observation::new(UnixTime(t), block()));
        }
        m.tick(UnixTime(end));
        assert_eq!(m.live_epoch_start(), Some(UnixTime(end)));
        let events = m.finish(UnixTime(end));
        assert!(events.is_empty(), "the next day is unobserved: {events:?}");
    }

    #[test]
    fn quarantine_closed_near_a_boundary_claims_no_judged_time() {
        // The feed goes dark late on day 2 and its recovery is noticed
        // on a tick just past the day boundary, while the last minute
        // of day 2 is still held in the reorder stage. Block `b` stays
        // silent from the boundary on: a real outage, judged by day 3's
        // units. The quarantine must end at the watermark the gate was
        // judged at, so it claims none of the time day 3 judged.
        let epoch_end = 2 * 86_400;
        let blackout = (epoch_end - 2_015)..(epoch_end - 215);
        let outage = epoch_end..epoch_end + 7_200;
        let (a, b) = (block(), "198.51.100.0/24".parse().unwrap());
        let until = 3 * 86_400;
        let mut m = daily(0)
            .with_reorder(90)
            .with_sentinel(SentinelConfig::default())
            .expect("valid sentinel config");
        let mut next_tick = 60u64;
        for t in 0..until {
            if t >= next_tick {
                m.tick(UnixTime(t));
                next_tick += 60;
            }
            if !blackout.contains(&t) {
                m.observe(Observation::new(UnixTime(t), a));
                if !outage.contains(&t) {
                    m.observe(Observation::new(UnixTime(t), b));
                }
            }
        }
        let (events, quarantined) = m.finish_with_quarantine(UnixTime(until));
        let q = quarantined.intervals();
        assert_eq!(q.len(), 1, "{q:?}");
        assert!(q[0].start.secs() <= blackout.start + 120, "{q:?}");
        assert!(q[0].end.secs() >= blackout.end, "{q:?}");
        assert!(q[0].end.secs() <= epoch_end, "claims day 3's time: {q:?}");
        assert!(
            events
                .iter()
                .any(|e| e.prefix == b && e.interval.end.secs() > outage.start),
            "the real outage is reported: {events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|e| e.interval.start < q[0].end && e.interval.end > q[0].start),
            "no event inside the quarantine: {events:?} vs {q:?}"
        );
    }

    #[test]
    fn belief_is_frozen_while_quarantined() {
        let blackout = (2 * 86_400 + 43_200)..(2 * 86_400 + 45_000);
        let b = block();
        let mut m = daily(0)
            .with_sentinel(SentinelConfig::default())
            .expect("valid sentinel config");
        // Feed up to mid-blackout (ticks keep coming, packets don't).
        feed_with_blackout(&mut m, 2 * 86_400 + 44_500, blackout.clone());
        assert!(m.is_quarantined(), "mid-blackout the feed is quarantined");
        assert_ne!(m.feed_health(), Some(FeedHealth::Healthy));
        let frozen = m.belief(&b).expect("covered");
        assert!(frozen > 0.5, "belief must not collapse mid-fault: {frozen}");
    }

    #[test]
    fn quarantine_spanning_epoch_boundary_stays_clean() {
        // Feed goes dark late on day 2 and comes back early on day 3:
        // the roll must not judge day 2's dark tail, and day 3's units
        // must skip their faulted head.
        let blackout = (2 * 86_400 - 2_000)..(2 * 86_400 + 2_000);
        let mut m = daily(0)
            .with_sentinel(SentinelConfig::default())
            .expect("valid sentinel config");
        feed_with_blackout(&mut m, 2 * 86_400 + 20_000, blackout.clone());
        assert_eq!(m.feed_health(), Some(FeedHealth::Healthy));
        let (events, quarantined) = m.finish_with_quarantine(UnixTime(2 * 86_400 + 20_000));
        assert!(
            !events.iter().any(|e| e.interval.start.secs() < blackout.end
                && e.interval.end.secs() > blackout.start),
            "no event may overlap the boundary-spanning fault: {events:?}"
        );
        assert!(!quarantined.is_empty());
    }
}
