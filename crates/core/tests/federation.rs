//! Federation acceptance tests: union equivalence, quarantine
//! isolation, and corroboration (the claims `examples/multi_vantage.rs`
//! demonstrates, asserted rather than printed).

use outage_core::{
    ConfigError, DetectorConfig, FederationRouter, FusionPolicy, PassiveDetector, SentinelConfig,
    VantagePlan, VantageReport, VantageRunner,
};
use outage_netsim::{FaultPlan, Scenario};
use outage_types::{Interval, Observation, OutageEvent};

/// Render events the way the CLI event document does — bitwise-stable
/// fields only, so "identical timeline" means identical documents.
fn render(events: &[OutageEvent]) -> String {
    events
        .iter()
        .map(|e| {
            format!(
                "{} {} {} {}\n",
                e.prefix,
                e.interval.start.secs(),
                e.interval.end.secs(),
                e.confidence.to_bits()
            )
        })
        .collect()
}

/// Self-calibrated run over one vantage's shard: learn, then detect.
fn run(runner: &VantageRunner, shard: &[Observation], window: Interval) -> VantageReport {
    let model = runner.learn(shard, window, 1);
    runner.run_with_model(&model, shard, window).unwrap()
}

fn run_federated(
    scenario: &Scenario,
    plan: &VantagePlan,
    policy: FusionPolicy,
) -> (Vec<OutageEvent>, Vec<VantageReport>) {
    let window = scenario.window();
    let reports: Vec<VantageReport> = (0..plan.vantages())
        .map(|v| {
            let shard: Vec<Observation> =
                scenario.observations_where(|p| plan.sees(v, p)).collect();
            let runner = VantageRunner::new(v, DetectorConfig::default()).unwrap();
            run(&runner, &shard, window)
        })
        .collect();
    let fused = FederationRouter::new(policy).assemble(&reports).unwrap();
    (fused.outage_events(), reports)
}

/// Acceptance: a fault-free 3-vantage federated run under `--fusion
/// union` produces a fused event timeline identical to the
/// single-vantage run over the union stream.
#[test]
fn three_vantage_union_matches_single_vantage_run() {
    let scenario = Scenario::quick(11);
    let window = scenario.window();
    let plan = VantagePlan::new(3).unwrap();

    let (fused_events, reports) = run_federated(&scenario, &plan, FusionPolicy::Union);

    let union: Vec<Observation> = scenario.collect_observations();
    let single = PassiveDetector::new(DetectorConfig::default());
    let solo_events = single.run_slice(&union, window).events();

    assert!(
        !solo_events.is_empty(),
        "scenario must produce outages for the comparison to mean anything"
    );
    assert_eq!(
        render(&fused_events),
        render(&solo_events),
        "union federation must be bit-identical to the single-vantage run"
    );
    // Sanity on the partition: every vantage covered something, and the
    // per-vantage coverage sums to the single run's coverage.
    let single_covered = single.run_slice(&union, window).covered_blocks();
    let fed_covered: usize = reports.iter().map(|r| r.report.covered_blocks()).sum();
    assert!(reports.iter().all(|r| r.report.covered_blocks() > 0));
    assert_eq!(fed_covered, single_covered);
}

/// Acceptance: blacking out one vantage's feed quarantines only that
/// vantage's shard. Other vantages' timelines stay bit-identical to
/// their solo runs, and the blackout creates zero false outages
/// globally.
#[test]
fn blackout_at_one_vantage_stays_isolated() {
    let scenario = Scenario::quick(12);
    let window = scenario.window();
    let plan = VantagePlan::new(3).unwrap();
    let sentinel = SentinelConfig::default();
    // Black out vantage 0's feed for two mid-window hours.
    let blackout = Interval::from_secs(30_000, 37_200);
    let fault = FaultPlan::new(9).blackout(blackout);

    let shards: Vec<Vec<Observation>> = (0..3)
        .map(|v| scenario.observations_where(|p| plan.sees(v, p)).collect())
        .collect();

    let mut faulted_reports = Vec::new();
    let mut solo_reports = Vec::new();
    for (v, shard) in shards.iter().enumerate() {
        let ingest = if v == 0 {
            fault.apply_to_vec(shard)
        } else {
            shard.clone()
        };
        let runner = VantageRunner::new(v, DetectorConfig::default())
            .unwrap()
            .with_sentinel(sentinel);
        faulted_reports.push(run(&runner, &ingest, window));
        let solo = VantageRunner::new(v, DetectorConfig::default())
            .unwrap()
            .with_sentinel(sentinel);
        solo_reports.push(run(&solo, shard, window));
    }

    // Only the blacked-out vantage quarantines, and its quarantine
    // covers the blackout.
    assert!(faulted_reports[0].report.quarantined_secs() >= blackout.duration() / 2);
    for r in &faulted_reports[1..] {
        assert_eq!(r.report.quarantined_spans(), 0, "vantage {}", r.vantage);
        assert_eq!(r.report.quarantined_secs(), 0);
    }

    // Untouched vantages are bit-identical to their solo runs.
    for (faulted, solo) in faulted_reports[1..].iter().zip(&solo_reports[1..]) {
        assert_eq!(
            render(&faulted.report.events()),
            render(&solo.report.events()),
            "vantage {} timeline changed under a fault it never saw",
            faulted.vantage
        );
    }

    // Globally: the fused timeline gains no false outages from the
    // blackout. Any event overlapping the blackout on a vantage-0 unit
    // that ground truth never took down would be a sensor artefact;
    // quarantine must have suppressed them all.
    let fused = FederationRouter::new(FusionPolicy::Union)
        .assemble(&faulted_reports)
        .unwrap();
    let truth_down = |unit: &outage_types::Prefix| {
        let mut set = outage_types::IntervalSet::new();
        for b in scenario.internet.blocks() {
            if unit.contains(&b.prefix) || unit == &b.prefix {
                if let Some(down) = scenario.schedule.down_set(&b.prefix) {
                    set = set.union(down);
                }
            }
        }
        set
    };
    let false_events: Vec<_> = fused
        .outage_events()
        .into_iter()
        .filter(|e| plan.owner(&e.prefix) == 0 && e.interval.overlaps(&blackout))
        .filter(|e| {
            truth_down(&e.prefix).overlap_secs(&outage_types::IntervalSet::singleton(e.interval))
                == 0
        })
        .collect();
    assert!(
        false_events.is_empty(),
        "false outages leaked through quarantine: {false_events:?}"
    );
}

/// Corroboration (the multi-vantage example's claim): with overlap,
/// blocks seen by two vantages fuse under quorum without inventing
/// outage time that neither vantage saw, and union never loses outage
/// time either vantage saw.
#[test]
fn overlap_corroboration_brackets_single_vantage_verdicts() {
    let scenario = Scenario::quick(13);
    let plan = VantagePlan::new(2).unwrap().with_overlap(1.0).unwrap();

    let (quorum_events, reports) = run_federated(&scenario, &plan, FusionPolicy::Quorum(2));
    let union_events = FederationRouter::new(FusionPolicy::Union)
        .assemble(&reports)
        .unwrap()
        .outage_events();

    // Full overlap: every unit is double-covered.
    let per_vantage_down: Vec<u64> = reports
        .iter()
        .map(|r| r.report.events().iter().map(|e| e.duration()).sum())
        .collect();
    let quorum_down: u64 = quorum_events.iter().map(|e| e.duration()).sum();
    let union_down: u64 = union_events.iter().map(|e| e.duration()).sum();

    assert!(
        quorum_down <= *per_vantage_down.iter().min().unwrap(),
        "quorum-2 may only keep time both vantages agree on"
    );
    assert!(
        union_down >= *per_vantage_down.iter().max().unwrap(),
        "union may not lose outage time either vantage saw"
    );
    assert!(quorum_down > 0, "agreement must survive on real outages");
}

/// An invalid sentinel configuration is a typed error from the run, not
/// a panic and not a silently unguarded vantage.
#[test]
fn invalid_vantage_sentinel_is_reported_by_the_run() {
    let scenario = Scenario::quick(14);
    let window = scenario.window();
    let shard: Vec<Observation> = scenario.collect_observations();
    let runner = VantageRunner::new(0, DetectorConfig::default())
        .unwrap()
        .with_sentinel(SentinelConfig {
            recovery_buckets: 0,
            ..SentinelConfig::default()
        });
    let model = runner.learn(&shard, window, 1);
    let err = runner.run_with_model(&model, &shard, window).unwrap_err();
    assert_eq!(err, ConfigError::SentinelNoRecovery);
}
