//! Federating multiple passive vantages.
//!
//! The paper: "when possible, we correlate multiple signals from the same
//! region to corroborate results" and "we expect to add additional
//! passive sources to increase coverage". This example runs the
//! federation subsystem end to end — a [`VantagePlan`] shards the block
//! universe across three vantages, each [`VantageRunner`] detects on its
//! own shard in isolation, and a [`FederationRouter`] assembles the
//! per-vantage reports into one global event timeline — showing the
//! subsystem's two headline behaviours:
//!
//! * **Union equivalence**: with a disjoint partition, the fused global
//!   timeline is bit-identical to a single engine over the union stream.
//! * **Corroboration**: with overlap, quorum fusion keeps only outages
//!   the covering vantages agree on, while union fusion keeps everything
//!   any vantage saw — and every fused event says which vantages voted.
//!
//! The claims printed here are asserted for real in
//! `crates/core/tests/federation.rs`.
//!
//! ```text
//! cargo run --release --example multi_vantage
//! ```

use passive_outage::detector::{
    fuse_models, FederationRouter, FusionPolicy, VantagePlan, VantageReport, VantageRunner,
};
use passive_outage::prelude::*;

/// Run one isolated engine per vantage over its shard of the stream.
fn run_vantages(
    plan: &VantagePlan,
    observations: &[Observation],
    window: Interval,
) -> Vec<VantageReport> {
    plan.split(observations)
        .iter()
        .enumerate()
        .map(|(v, shard)| {
            let runner = VantageRunner::new(v, DetectorConfig::default()).expect("valid config");
            let model = runner.learn(shard, window, 1);
            runner
                .run_with_model(&model, shard, window)
                .expect("valid config")
        })
        .collect()
}

fn main() {
    let scenario = Scenario::quick(314);
    let window = scenario.window();
    let observations: Vec<Observation> = scenario.collect_observations();

    // --- Union equivalence: disjoint 3-vantage split -----------------
    let plan = VantagePlan::new(3).expect("three vantages");
    println!("plan: {plan}");
    for v in 0..plan.vantages() {
        let shard: Vec<Observation> = scenario.observations_where(|p| plan.sees(v, p)).collect();
        println!("  vantage {v} ingests {} observations", shard.len());
    }

    let reports = run_vantages(&plan, &observations, window);
    let fused = FederationRouter::new(FusionPolicy::Union)
        .assemble(&reports)
        .expect("assemble");
    let single = PassiveDetector::new(DetectorConfig::default()).run_slice(&observations, window);
    assert_eq!(
        fused.outage_events(),
        single.events(),
        "disjoint union federation must match the single-vantage run"
    );
    println!(
        "\nunion equivalence: {} fused events == {} single-vantage events",
        fused.events.len(),
        single.events().len()
    );

    // --- Corroboration: overlapping coverage, quorum vs union --------
    let plan = VantagePlan::new(3)
        .expect("three vantages")
        .with_overlap(0.5)
        .expect("valid overlap");
    let reports = run_vantages(&plan, &observations, window);
    let union = FederationRouter::new(FusionPolicy::Union)
        .assemble(&reports)
        .expect("assemble");
    let quorum = FederationRouter::new(FusionPolicy::Quorum(2))
        .assemble(&reports)
        .expect("assemble");
    println!(
        "\nwith {:.0}% overlap ({} units covered twice):",
        100.0 * plan.overlap(),
        union.fused_units
    );
    println!(
        "  union    : {} events — everything any vantage saw",
        union.events.len()
    );
    println!(
        "  quorum:2 : {} events — only corroborated intervals",
        quorum.events.len()
    );
    assert!(
        quorum.events.len() <= union.events.len(),
        "quorum can only tighten the union timeline"
    );
    for g in union.events.iter().filter(|g| g.sources > 1).take(3) {
        println!(
            "  {:?} [{}, {}) seen by vantages {:?} of {} covering",
            g.event.prefix,
            g.event.interval.start.secs(),
            g.event.interval.end.secs(),
            g.vantages,
            g.sources
        );
    }

    // --- Cross-vantage model fusion ----------------------------------
    let models: Vec<LearnedModel> = plan
        .split(&observations)
        .iter()
        .enumerate()
        .map(|(v, shard)| {
            VantageRunner::new(v, DetectorConfig::default())
                .expect("valid config")
                .learn(shard, window, 1)
        })
        .collect();
    let forward = fuse_models(&models).expect("fuse");
    let mut reversed = models.clone();
    reversed.reverse();
    let backward = fuse_models(&reversed).expect("fuse");
    assert_eq!(
        forward.counts(),
        backward.counts(),
        "fusion must not depend on merge order"
    );
    println!(
        "\nfused model: {} blocks over {} hours, identical under reversed merge order",
        forward.len(),
        forward.hours()
    );
    println!("\nmulti_vantage OK");
}
