//! Property tests for the detector: structural invariants that must hold
//! for *any* traffic pattern, not just the scenarios we thought of.

use outage_check::prelude::*;
use outage_core::{
    fuse_timelines, AggregationPlan, Belief, BeliefClamp, BlockIndex, DetectionEngine,
    DetectorConfig, IndexedHistories, PassiveDetector, PlannedUnit, UnitParams,
};
use outage_types::{Interval, IntervalSet, Observation, Prefix, Timeline, UnixTime};

const DAY: u64 = 86_400;

fn block() -> Prefix {
    "192.0.2.0/24".parse().unwrap()
}

/// Arbitrary strictly-increasing arrival times within a day.
fn arb_arrivals() -> impl Gen<Value = Vec<u64>> {
    vec(1u64..120, 0..400).prop_map(|gaps| {
        let mut t = 0u64;
        let mut out = Vec::with_capacity(gaps.len());
        for g in gaps {
            t += g * 40; // gaps up to ~80 min
            if t >= DAY {
                break;
            }
            out.push(t);
        }
        out
    })
}

/// Run one block through an engine over a one-unit plan (no history:
/// a flat hour shape).
fn run_detector(arrivals: &[u64], params: UnitParams) -> Timeline {
    let plan = AggregationPlan {
        units: vec![PlannedUnit {
            prefix: block(),
            members: vec![block()],
            params,
        }],
        uncovered: Vec::new(),
    };
    let histories = IndexedHistories::from_parts(BlockIndex::new(), Vec::new()).unwrap();
    let window = Interval::from_secs(0, DAY);
    let mut d =
        DetectionEngine::from_plan(&DetectorConfig::default(), plan, &histories, window, None);
    for &t in arrivals {
        d.observe(Observation::new(UnixTime(t), block()));
    }
    d.finish().report.units.remove(0).timeline
}

/// Structural invariants of one detector run over `arrivals`.
fn detector_invariants(arrivals: &[u64]) -> Result<(), String> {
    let params = UnitParams {
        width: 600,
        lambda: 0.02,
        leak: 2e-4,
    };
    let tl = run_detector(arrivals, params);
    // 1. window is the day
    prop_assert_eq!(tl.window, Interval::from_secs(0, DAY));
    // 2. down intervals are inside the window, sorted, disjoint
    for iv in tl.down.iter() {
        prop_assert!(iv.start >= tl.window.start);
        prop_assert!(iv.end <= tl.window.end);
        prop_assert!(!iv.is_empty());
    }
    // 3. up + down partition the window
    prop_assert_eq!(tl.up().total() + tl.down.total(), DAY);
    // Note: arrivals *may* fall inside judged outages — the leak rate
    // ε exists precisely because real outages still leak the odd
    // packet, and traffic far below the modeled rate is legitimately
    // judged down. So "no arrival inside an outage" is NOT an
    // invariant of the model.
    Ok(())
}

/// An input that once failed `detector_invariants_hold_for_any_arrivals`,
/// kept so it is checked on every run.
#[test]
fn detector_invariants_hold_for_recorded_failure() {
    let arrivals = [
        3400, 7480, 11640, 15800, 18200, 19720, 21280, 24600, 27520, 31240, 31360, 32360, 35320,
        36800, 38520, 39880, 41320, 43280, 46520, 48360, 48800, 49160, 50200, 53720, 57760, 62360,
        64880, 65560, 69400, 69840, 73320, 77480, 81000, 84320, 85120, 86280,
    ];
    detector_invariants(&arrivals).unwrap();
}

property! {
    #![cases(64)]

    #[test]
    fn detector_invariants_hold_for_any_arrivals(arrivals in arb_arrivals()) {
        detector_invariants(&arrivals)?;
    }

    #[test]
    fn silence_is_always_detected_when_long_enough(quiet_start in 10_000u64..50_000, quiet_len in 8_000u64..20_000) {
        // Dense block, arrivals every 10 s outside the quiet range: any
        // multi-hour silence must be reported, wherever it falls.
        let params = UnitParams { width: 300, lambda: 0.1, leak: 1e-3 };
        let arrivals: Vec<u64> = (0..DAY)
            .step_by(10)
            .filter(|t| !(quiet_start..quiet_start + quiet_len).contains(t))
            .collect();
        let tl = run_detector(&arrivals, params);
        let covered = tl
            .down
            .overlap_secs(&IntervalSet::singleton(Interval::from_secs(
                quiet_start,
                quiet_start + quiet_len,
            )));
        prop_assert!(
            covered as f64 >= 0.9 * quiet_len as f64,
            "only {covered} of {quiet_len} s detected"
        );
    }

    #[test]
    fn steady_traffic_never_alarms(period in 5u64..40) {
        let params = UnitParams { width: 300, lambda: 1.0 / period as f64, leak: 1e-3 / period as f64 };
        let arrivals: Vec<u64> = (0..DAY).step_by(period as usize).collect();
        let tl = run_detector(&arrivals, params);
        prop_assert_eq!(tl.down_secs(), 0, "false alarm with period {}", period);
    }

    #[test]
    fn belief_always_in_clamp_range(counts in vec(0u64..50, 1..200)) {
        let cfg = DetectorConfig::default();
        let mut b = Belief::new(&cfg);
        for n in counts {
            let v = b.update_bin(n, 12.0, 0.12, BeliefClamp::new(&cfg));
            prop_assert!(v >= cfg.belief_floor - 1e-12);
            prop_assert!(v <= cfg.belief_ceiling + 1e-12);
            prop_assert!((Belief::bin_llr(n, 12.0, 0.12)).is_finite());
        }
    }

    #[test]
    fn fuse_timelines_quorum_monotone(downs_a in arb_downs(), downs_b in arb_downs(), downs_c in arb_downs()) {
        let w = Interval::from_secs(0, DAY);
        let tls = [
            Timeline::from_down(w, downs_a),
            Timeline::from_down(w, downs_b),
            Timeline::from_down(w, downs_c),
        ];
        let q1 = fuse_timelines(&tls, 1);
        let q2 = fuse_timelines(&tls, 2);
        let q3 = fuse_timelines(&tls, 3);
        // higher quorum ⇒ less down time, and nesting holds
        prop_assert!(q3.down_secs() <= q2.down_secs());
        prop_assert!(q2.down_secs() <= q1.down_secs());
        prop_assert_eq!(q3.down.intersect(&q1.down).total(), q3.down.total());
        // q1 is exactly the union, q3 exactly the intersection
        let union = tls[0].down.union(&tls[1].down).union(&tls[2].down);
        prop_assert_eq!(q1.down.total(), union.total());
        let inter = tls[0].down.intersect(&tls[1].down).intersect(&tls[2].down);
        prop_assert_eq!(q3.down.total(), inter.total());
    }

    #[test]
    fn pipeline_covered_plus_uncovered_equals_observed(seeds in vec(1u64..1000, 1..6)) {
        // Synthetic multi-block streams with varying densities: the plan
        // must account for every observed block exactly once.
        let window = Interval::from_secs(0, DAY);
        let mut obs: Vec<Observation> = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            let b = Prefix::v4_raw(0x0A00_0000 + ((i as u32) << 8), 24);
            let period = 10 + (seed % 5_000);
            for t in (0..DAY).step_by(period as usize) {
                obs.push(Observation::new(UnixTime(t), b));
            }
        }
        obs.sort();
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window);
        let observed_blocks = seeds.len();
        prop_assert_eq!(
            report.covered_blocks() + report.uncovered.len(),
            observed_blocks
        );
        // every covered block appears in exactly one unit's member list
        let mut seen = std::collections::HashSet::new();
        for members in &report.members {
            for m in members {
                prop_assert!(seen.insert(*m), "block {} in two units", m);
            }
        }
    }
}

fn arb_downs() -> impl Gen<Value = IntervalSet> {
    vec((0u64..DAY, 300u64..7_200), 0..6).prop_map(|ivs| {
        IntervalSet::from_intervals(
            ivs.into_iter()
                .map(|(s, d)| Interval::from_secs(s, (s + d).min(DAY))),
        )
    })
}
