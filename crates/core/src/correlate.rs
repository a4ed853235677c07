//! Multi-source corroboration.
//!
//! "When possible, we correlate multiple signals from the same region to
//! corroborate results." [`fuse_timelines`] supports that by quorum
//! voting over judged timelines: a second is down iff at least `quorum`
//! sources judged it down.

use outage_types::{Interval, IntervalSet, Timeline, UnixTime};

/// Fuse judged timelines by quorum: a second is down iff at least
/// `quorum` of the timelines judge it down. All timelines must share the
/// same window.
///
/// `quorum = 1` is a union (any source suffices), `quorum = n` an
/// intersection (all must agree).
pub fn fuse_timelines(timelines: &[Timeline], quorum: usize) -> Timeline {
    assert!(!timelines.is_empty(), "need at least one timeline");
    assert!(quorum >= 1, "quorum must be at least 1");
    let window = timelines[0].window;
    debug_assert!(
        timelines.iter().all(|t| t.window == window),
        "timelines must share a window"
    );

    // Sweep over boundary events; emit spans where the down-count meets
    // the quorum.
    let mut edges: Vec<(UnixTime, i32)> = Vec::new();
    for t in timelines {
        for iv in t.down.iter() {
            edges.push((iv.start, 1));
            edges.push((iv.end, -1));
        }
    }
    edges.sort_unstable();
    let mut down = IntervalSet::new();
    let mut count = 0i32;
    let mut span_start: Option<UnixTime> = None;
    for (t, delta) in edges {
        let was_met = count >= quorum as i32;
        count += delta;
        let now_met = count >= quorum as i32;
        match (was_met, now_met) {
            (false, true) => span_start = Some(t),
            (true, false) => {
                if let Some(s) = span_start.take() {
                    down.insert(Interval::new(s, t));
                }
            }
            _ => {}
        }
    }
    Timeline::from_down(window, down)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(window: (u64, u64), downs: &[(u64, u64)]) -> Timeline {
        Timeline::from_down(
            Interval::from_secs(window.0, window.1),
            IntervalSet::from_intervals(downs.iter().map(|&(a, b)| Interval::from_secs(a, b))),
        )
    }

    #[test]
    fn quorum_one_is_union() {
        let a = tl((0, 1_000), &[(100, 200)]);
        let b = tl((0, 1_000), &[(150, 300)]);
        let fused = fuse_timelines(&[a, b], 1);
        assert_eq!(fused.down.intervals(), &[Interval::from_secs(100, 300)]);
    }

    #[test]
    fn quorum_all_is_intersection() {
        let a = tl((0, 1_000), &[(100, 200)]);
        let b = tl((0, 1_000), &[(150, 300)]);
        let fused = fuse_timelines(&[a, b], 2);
        assert_eq!(fused.down.intervals(), &[Interval::from_secs(150, 200)]);
    }

    #[test]
    fn two_of_three_quorum() {
        let a = tl((0, 1_000), &[(100, 400)]);
        let b = tl((0, 1_000), &[(200, 500)]);
        let c = tl((0, 1_000), &[(300, 600)]);
        let fused = fuse_timelines(&[a, b, c], 2);
        // ≥2 agree on [200,500): a∩b [200,400), b∩c [300,500)
        assert_eq!(fused.down.intervals(), &[Interval::from_secs(200, 500)]);
    }

    #[test]
    fn disjoint_sources_with_full_quorum_yield_nothing() {
        let a = tl((0, 1_000), &[(100, 200)]);
        let b = tl((0, 1_000), &[(300, 400)]);
        let fused = fuse_timelines(&[a, b], 2);
        assert!(fused.down.is_empty());
    }

    #[test]
    fn touching_edges_handle_cleanly() {
        // One source's outage ends exactly where the other's begins.
        let a = tl((0, 1_000), &[(100, 200)]);
        let b = tl((0, 1_000), &[(200, 300)]);
        let union = fuse_timelines(&[a.clone(), b.clone()], 1);
        assert_eq!(union.down.total(), 200);
        let both = fuse_timelines(&[a, b], 2);
        assert_eq!(both.down.total(), 0);
    }
}
