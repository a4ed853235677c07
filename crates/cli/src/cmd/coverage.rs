//! `coverage`: the Figure-1 measurability curve.

use super::CommandError;
use crate::format;
use outage_core::{coverage_by_width, DetectorConfig, PassiveDetector};
use outage_types::{durations, Interval, UnixTime};

/// `coverage`: the Figure-1 curve for an observation document.
pub fn coverage(observations_doc: &str) -> Result<String, CommandError> {
    let observations = format::parse_observations(observations_doc)?;
    let Some(max_t) = observations.iter().map(|o| o.time.secs()).max() else {
        return Err(CommandError("no observations in input".into()));
    };
    let window = Interval::new(
        UnixTime::EPOCH,
        UnixTime(max_t.div_ceil(durations::DAY) * durations::DAY),
    );
    let detector = PassiveDetector::new(DetectorConfig::default());
    let histories = detector.learn_histories_indexed(observations.iter().copied(), window);
    let mut out = String::from("bin-width-secs measurable total fraction\n");
    for p in coverage_by_width(&histories, detector.config(), None) {
        out.push_str(&format!(
            "{:>14} {:>10} {:>5} {:>8.3}\n",
            p.width,
            p.measurable,
            p.total,
            p.fraction()
        ));
    }
    Ok(out)
}
