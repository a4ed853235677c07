//! Warm-start equivalence: `learn → save → load → detect` must produce a
//! [`DetectionReport`] identical to the all-in-memory pipeline — same
//! verdicts, same timelines, same diagnostics — for IPv4 /24 and IPv6
//! /48 scenarios. Anything less and a checkpoint silently changes what
//! the detector says, which would make persistence a correctness bug.

use outage_core::{DetectionReport, DetectorConfig, PassiveDetector};
use outage_netsim::Scenario;
use outage_store::ModelPersistence;
use outage_types::Observation;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("outage-store-warm-{tag}-{}", std::process::id()));
    fs::create_dir_all(&d).unwrap();
    d
}

/// Field-by-field report equality (DetectionReport itself carries
/// non-comparable internals, so compare everything observable).
fn assert_reports_identical(cold: &DetectionReport, warm: &DetectionReport) {
    assert_eq!(cold.window, warm.window);
    assert_eq!(cold.strays, warm.strays);
    assert_eq!(cold.uncovered, warm.uncovered);
    assert_eq!(cold.members, warm.members);
    assert_eq!(cold.covered_blocks(), warm.covered_blocks());
    assert_eq!(cold.quarantined, warm.quarantined);
    assert_eq!(cold.events(), warm.events());
    assert_eq!(cold.units.len(), warm.units.len());
    for (c, w) in cold.units.iter().zip(warm.units.iter()) {
        assert_eq!(c.prefix, w.prefix);
        assert_eq!(c.params, w.params);
        assert_eq!(c.timeline, w.timeline);
        assert_eq!(c.detections, w.detections);
        assert_eq!(c.diagnostics, w.diagnostics);
    }
}

fn check_scenario(scenario: Scenario, tag: &str, workers: usize) {
    let observations: Vec<Observation> = scenario.collect_observations();
    let window = scenario.window();
    let detector = PassiveDetector::new(DetectorConfig::default());

    // Cold: learn in memory, detect straight away.
    let model = detector.learn_model(&observations, window, workers);
    let cold = detector.detect(model.indexed(), observations.iter().copied(), window);

    // Warm: round-trip the model through the store, then detect.
    let dir = tmpdir(tag);
    let path = dir.join("model.poms");
    detector.save_model(&model, &path).unwrap();
    let loaded = detector.load_model(&path).unwrap();
    assert_eq!(
        loaded.indexed().histories(),
        model.indexed().histories(),
        "round trip must preserve every history bit"
    );
    let warm = detector.detect(loaded.indexed(), observations.iter().copied(), window);

    assert_reports_identical(&cold, &warm);
    assert!(cold.covered_blocks() > 0, "scenario produced no coverage");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ipv4_warm_start_detect_is_identical() {
    check_scenario(Scenario::table1(30, 11), "v4", 1);
}

#[test]
fn ipv4_warm_start_after_sharded_learn_is_identical() {
    check_scenario(Scenario::table1(30, 12), "v4-sharded", 4);
}

#[test]
fn ipv6_warm_start_detect_is_identical() {
    check_scenario(Scenario::ipv6_day(30, 13), "v6", 1);
}

#[test]
fn merge_of_half_window_checkpoints_matches_full_window_learning() {
    use outage_core::LearnedModel;
    use outage_types::Interval;

    let scenario = Scenario::table1(30, 14);
    let observations: Vec<Observation> = scenario.collect_observations();
    let window = scenario.window();
    let detector = PassiveDetector::new(DetectorConfig::default());

    // Split the window at an hour boundary so the merge is bit-exact
    // (the documented exactness condition).
    let mid_secs = window.start.secs() + (window.duration() / 2 / 3_600) * 3_600;
    let first = Interval::from_secs(window.start.secs(), mid_secs);
    let second = Interval::from_secs(mid_secs, window.end.secs());
    assert!(first.duration().is_multiple_of(3_600));

    let a = detector.learn_model(&observations, first, 1);
    let b = detector.learn_model(&observations, second, 1);
    let merged = LearnedModel::merge(&a, &b).unwrap();
    let full = detector.learn_model(&observations, window, 1);

    assert_eq!(merged.window(), window);
    assert_eq!(merged.counts(), full.counts(), "arena must be bit-exact");
    assert_eq!(merged.indexed().histories(), full.indexed().histories());

    // And the merged model detects identically to the full-window one.
    let from_merged = detector.detect(merged.indexed(), observations.iter().copied(), window);
    let from_full = detector.detect(full.indexed(), observations.iter().copied(), window);
    assert_reports_identical(&from_full, &from_merged);
}
