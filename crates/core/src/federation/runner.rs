//! One vantage's isolated detection engine.

use crate::config::{ConfigError, DetectorConfig};
use crate::model::LearnedModel;
use crate::pipeline::{DetectionReport, PassiveDetector};
use crate::sentinel::{FeedHealth, SentinelConfig};
use outage_obs::Obs;
use outage_types::{Interval, Observation, UnixTime};

/// A per-vantage runner owning its own [`PassiveDetector`] (sentinel
/// included) and [`Obs`] scope.
///
/// The isolation is the point: each vantage's sentinel watches only its
/// own shard's aggregate rate, and each vantage's metrics land in its
/// own registry. A feed blackout at one vantage therefore quarantines
/// only that vantage's blocks — the other runners never see the fault
/// (see the fault-isolation tests).
#[derive(Debug)]
pub struct VantageRunner {
    vantage: usize,
    detector: PassiveDetector,
    /// A sentinel configuration [`Self::with_sentinel`] rejected,
    /// reported by the next run.
    invalid_sentinel: Option<ConfigError>,
}

/// One vantage's detection outcome, ready for
/// [`super::FederationRouter::assemble`].
#[derive(Debug)]
pub struct VantageReport {
    /// The vantage id (its index in the [`super::VantagePlan`]).
    pub vantage: usize,
    /// The vantage's own detection report, quarantine included.
    pub report: DetectionReport,
    /// The vantage sentinel's final state; `None` when the runner had
    /// no sentinel configured.
    pub feed_health: Option<FeedHealth>,
    /// How far the vantage has processed. Batch runs end at the window
    /// edge; streaming federations report their per-vantage high-water
    /// mark here.
    pub watermark: UnixTime,
}

impl VantageRunner {
    /// A runner for vantage `vantage` with its own detector and a fresh
    /// (isolated) obs scope.
    pub fn new(vantage: usize, config: DetectorConfig) -> Result<VantageRunner, ConfigError> {
        Ok(VantageRunner {
            vantage,
            detector: PassiveDetector::try_new(config)?.with_obs(Obs::new()),
            invalid_sentinel: None,
        })
    }

    /// Guard this vantage's detection pass with a feed sentinel. An
    /// invalid configuration is reported by [`Self::run_with_model`].
    pub fn with_sentinel(mut self, sentinel: SentinelConfig) -> VantageRunner {
        match self.detector.clone().with_sentinel(sentinel) {
            Ok(detector) => self.detector = detector,
            Err(e) => self.invalid_sentinel = Some(e),
        }
        self
    }

    /// The vantage id.
    pub fn vantage(&self) -> usize {
        self.vantage
    }

    /// The vantage's detector (for metric scraping or direct driving).
    pub fn detector(&self) -> &PassiveDetector {
        &self.detector
    }

    /// The vantage's isolated obs scope.
    pub fn obs(&self) -> &Obs {
        self.detector.obs()
    }

    /// Learn this vantage's model from its shard of the stream.
    pub fn learn(
        &self,
        observations: &[Observation],
        window: Interval,
        workers: usize,
    ) -> LearnedModel {
        self.detector.learn_model(observations, window, workers)
    }

    /// Detection pass over this vantage's shard from an already-learned
    /// (possibly fused, possibly warm-started) model, sentinel-guarded
    /// when configured.
    pub fn run_with_model(
        &self,
        model: &LearnedModel,
        observations: &[Observation],
        window: Interval,
    ) -> Result<VantageReport, ConfigError> {
        if let Some(e) = &self.invalid_sentinel {
            return Err(e.clone());
        }
        let report = self
            .detector
            .detect(model.indexed(), observations.iter().copied(), window);
        Ok(VantageReport {
            vantage: self.vantage,
            report,
            feed_health: self.final_health(),
            watermark: window.end,
        })
    }

    /// The sentinel's final state, read back from this vantage's own
    /// registry (where every detection path exports it).
    fn final_health(&self) -> Option<FeedHealth> {
        self.detector.sentinel()?;
        match self.obs().registry.value("po_sentinel_health", &[]) {
            Some(h) if h as i64 == 0 => Some(FeedHealth::Healthy),
            Some(h) if h as i64 == 1 => Some(FeedHealth::Degraded),
            Some(h) if h as i64 == 2 => Some(FeedHealth::Dark),
            _ => None,
        }
    }
}
