//! Cross-crate integration: the full pipeline against ground truth.

use passive_outage::detector::detect_parallel;
use passive_outage::dnswire::Telescope;
use passive_outage::netsim::{OutageSchedule, PacketFeed};
use passive_outage::prelude::*;

/// A quick scenario with the random schedule it was generated with.
fn scenario() -> Scenario {
    Scenario::quick(1001)
}

#[test]
fn pipeline_against_ground_truth_is_accurate() {
    let scenario = scenario();
    let observations = scenario.collect_observations();
    let detector = PassiveDetector::new(DetectorConfig::default());
    let report = detector.run_slice(&observations, scenario.window());

    // Sum the duration confusion matrix over every covered block,
    // against the simulator's own truth (the strongest possible
    // reference).
    let mut matrix = DurationMatrix::default();
    for (i, unit) in report.units.iter().enumerate() {
        for block in &report.members[i] {
            let truth = scenario.schedule.truth(block);
            matrix += DurationMatrix::of(&unit.timeline, &truth);
        }
    }
    assert!(matrix.total() > 0);
    assert!(
        matrix.precision() > 0.995,
        "precision {} too low\n{matrix}",
        matrix.precision()
    );
    assert!(
        matrix.recall() > 0.99,
        "recall {} too low\n{matrix}",
        matrix.recall()
    );
    // Some outage time is caught (TNR varies with block density mix).
    assert!(matrix.tnr() > 0.3, "TNR {}\n{matrix}", matrix.tnr());
}

#[test]
fn detection_is_deterministic() {
    let scenario = scenario();
    let observations = scenario.collect_observations();
    let detector = PassiveDetector::new(DetectorConfig::default());
    let a = detector.run_slice(&observations, scenario.window());
    let b = detector.run_slice(&observations, scenario.window());
    assert_eq!(a.covered_blocks(), b.covered_blocks());
    for (i, unit) in a.units.iter().enumerate() {
        assert_eq!(unit.timeline, b.units[i].timeline);
        assert_eq!(unit.diagnostics, b.units[i].diagnostics);
    }
}

#[test]
fn parallel_driver_matches_sequential_at_scenario_scale() {
    let scenario = scenario();
    let observations = scenario.collect_observations();
    let detector = PassiveDetector::new(DetectorConfig::default());
    let histories =
        detector.learn_histories_indexed(observations.iter().copied(), scenario.window());
    let seq = detector.detect(&histories, observations.iter().copied(), scenario.window());
    let par = detect_parallel(
        &detector,
        &histories,
        observations.iter().copied(),
        scenario.window(),
        4,
    );
    assert_eq!(seq.covered_blocks(), par.covered_blocks());
    assert_eq!(seq.strays, par.strays);
    for b in scenario.internet.blocks() {
        assert_eq!(
            seq.timeline_for(&b.prefix),
            par.timeline_for(&b.prefix),
            "divergence on {}",
            b.prefix
        );
    }
}

#[test]
fn wire_path_equals_observation_path() {
    // Detecting from parsed packets must give identical verdicts to
    // detecting from the raw observation stream.
    let scenario = scenario();
    let observations = scenario.collect_observations();

    let mut feed = PacketFeed::new(9);
    let packets: Vec<_> = observations.iter().map(|o| feed.render(o)).collect();
    let mut telescope = Telescope::new();
    let parsed: Vec<Observation> = telescope.observe_all(packets).collect();
    assert_eq!(
        parsed.len(),
        observations.len(),
        "telescope dropped valid queries"
    );
    assert_eq!(parsed, observations, "attribution must be lossless");

    let detector = PassiveDetector::new(DetectorConfig::default());
    let via_wire = detector.run_slice(&parsed, scenario.window());
    let direct = detector.run_slice(&observations, scenario.window());
    assert_eq!(via_wire.covered_blocks(), direct.covered_blocks());
    for b in scenario.internet.blocks() {
        assert_eq!(
            via_wire.timeline_for(&b.prefix),
            direct.timeline_for(&b.prefix)
        );
    }
}

#[test]
fn injected_long_outage_recovered_with_tight_edges() {
    let mut scenario = Scenario::quick(555);
    let victim = scenario
        .internet
        .blocks()
        .iter()
        .max_by(|a, b| a.base_rate.total_cmp(&b.base_rate))
        .unwrap()
        .prefix;
    let truth = Interval::from_secs(40_000, 47_200);
    let mut schedule = OutageSchedule::new(scenario.window());
    schedule.add(victim, truth);
    scenario.schedule = schedule;

    let observations = scenario.collect_observations();
    let detector = PassiveDetector::new(DetectorConfig::default());
    let report = detector.run_slice(&observations, scenario.window());
    let tl = report.timeline_for(&victim).expect("covered");
    let hit = tl
        .down
        .iter()
        .find(|iv| iv.overlaps(&truth))
        .expect("outage found");
    // The busiest block has sub-minute inter-arrivals: edges should be
    // within ~2 minutes of truth.
    assert!(
        hit.start.secs().abs_diff(truth.start.secs()) < 120,
        "start {}",
        hit.start
    );
    assert!(
        hit.end.secs().abs_diff(truth.end.secs()) < 120,
        "end {}",
        hit.end
    );
}

#[test]
fn report_events_match_timelines() {
    let scenario = scenario();
    let observations = scenario.collect_observations();
    let detector = PassiveDetector::new(DetectorConfig::default());
    let report = detector.run_slice(&observations, scenario.window());
    let events = report.events();
    let total_event_secs: u64 = events.iter().map(|e| e.duration()).sum();
    let total_timeline_secs: u64 = report.units.iter().map(|u| u.timeline.down_secs()).sum();
    assert_eq!(total_event_secs, total_timeline_secs);
    for e in &events {
        assert!(e.interval.start >= scenario.window().start);
        assert!(e.interval.end <= scenario.window().end);
        assert_eq!(e.detector, passive_outage::types::DetectorId::PassiveBayes);
    }
}

#[test]
fn two_day_run_history_from_day_one() {
    // Operating mode closest to production: learn on day 1, judge day 2.
    let config = passive_outage::netsim::ScenarioConfig {
        name: "two-day".into(),
        topology: passive_outage::netsim::TopologyConfig::default(),
        outages: passive_outage::netsim::OutageConfig::default(),
        window_secs: 2 * durations::DAY,
        seed: 31337,
    };
    let scenario = Scenario::build(config);
    let observations = scenario.collect_observations();
    let day1 = Interval::from_secs(0, durations::DAY);
    let day2 = Interval::from_secs(durations::DAY, 2 * durations::DAY);

    let detector = PassiveDetector::new(DetectorConfig::default());
    let histories = detector.learn_histories_indexed(
        observations
            .iter()
            .copied()
            .filter(|o| day1.contains(o.time)),
        day1,
    );
    let report = detector.detect(
        &histories,
        observations
            .iter()
            .copied()
            .filter(|o| day2.contains(o.time)),
        day2,
    );

    let mut matrix = DurationMatrix::default();
    for (i, unit) in report.units.iter().enumerate() {
        for block in &report.members[i] {
            // Clip truth to day 2.
            let truth = scenario.schedule.truth(block);
            let truth_day2 = Timeline::from_down(day2, truth.down.clip(day2));
            matrix += DurationMatrix::of(&unit.timeline, &truth_day2);
        }
    }
    assert!(matrix.precision() > 0.99, "{matrix}");
    assert!(matrix.recall() > 0.98, "{matrix}");
}
