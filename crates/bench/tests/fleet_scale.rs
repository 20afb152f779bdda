//! Fleet-scale claims as deterministic tier-1 bars: the guillotine fast
//! path agrees with the paper scheduler where both must, and needs a
//! tenth of its fit probes under churn; cluster fast-forward is
//! digest-exact on the Zipf fleet and coalesces ≥ 95 % of its events.
//!
//! Every bar here is a counter or a byte comparison, never a wall-clock
//! ratio; the `perfbench` workloads are what measure time.

use fastg_bench::{churn_storm, fleet_platform, parity_fleet};
use fastg_des::SimTime;
use fastgshare::manager::SchedPolicy;
use fastgshare::scheduler::{ArenaScheduler, NodeSelector, PlacementPolicy};

/// On full-plane demands the paper reference and the fast path both pick
/// the lowest empty node, so the whole run must match byte for byte.
#[test]
fn fastpath_matches_paper_on_full_plane_fleet() {
    let [(paper_text, paper), (fast_text, fast)] =
        [SchedPolicy::Paper, SchedPolicy::FastPath].map(|sched| {
            let mut p = parity_fleet(12, 53, sched);
            let report = p.run_for(SimTime::from_secs(15));
            (report.canonical_text(), p.scheduler_stats())
        });
    assert_eq!(
        paper_text, fast_text,
        "paper vs fast-path fleet reports diverged"
    );
    assert_eq!(
        paper.placements, fast.placements,
        "allocators bound different pod counts"
    );
    assert!(paper.placements > 0, "parity fleet placed nothing");
}

/// The same place/release storm through both allocators: the guillotine
/// arena probes at least ten times fewer nodes than the paper's
/// maximal-rects scan, repeats exactly, and both keep their books
/// consistent.
#[test]
fn fastpath_churn_storm_needs_a_tenth_of_the_probes() {
    let (nodes, ops, seed) = (300, 20_000, 41);
    let paper = churn_storm(
        &mut NodeSelector::new(PlacementPolicy::MaximalRectangles),
        nodes,
        ops,
        seed,
    );
    let fast_storm = || {
        churn_storm(
            &mut ArenaScheduler::new(SchedPolicy::FastPath, false),
            nodes,
            ops,
            seed,
        )
    };
    let (fast, again) = (fast_storm(), fast_storm());
    assert_eq!(
        (fast.placements, fast.probes),
        (again.placements, again.probes),
        "storm repeats diverged"
    );
    assert!(
        paper.probes >= 10 * fast.probes,
        "paper {} probes vs fast path {} probes ({} exact fallbacks) is under 10x",
        paper.probes,
        fast.probes,
        fast.fallbacks
    );
    for (name, run) in [("paper", paper), ("fast path", fast)] {
        assert!(
            run.releases <= run.placements,
            "{name} released more than it placed"
        );
        assert!(run.used_area > 0, "{name} storm ended empty");
    }
}

/// Cluster fast-forward is a pure optimization on the Zipf fleet: the
/// report is byte-identical with it off, and it genuinely engaged.
#[test]
fn cluster_fastforward_is_digest_exact_on_zipf_fleet() {
    let [(on_text, on_cycles), (off_text, off_cycles)] = [true, false].map(|cluster_ff| {
        let (mut p, _) = fleet_platform(8, 61, cluster_ff);
        let report = p.run_for(SimTime::from_secs(20));
        (report.canonical_text(), p.ff_cluster_cycles())
    });
    assert_eq!(
        on_text, off_text,
        "cluster fast-forward parity broke on the fleet"
    );
    assert!(on_cycles > 0, "cluster fast-forward never engaged");
    assert_eq!(
        off_cycles, 0,
        "disabled cluster fast-forward credited cycles"
    );
}

/// On a fleet sized to serve at least 120k arrivals, cluster
/// fast-forward never schedules ≥ 95 % of the events an event-by-event
/// run would deliver.
#[test]
fn cluster_fastforward_coalesces_95_percent_of_fleet_events() {
    const TARGET_ARRIVALS: u64 = 120_000;
    let (mut p, total_rps) = fleet_platform(32, 61, true);
    // Bounded by target / rate (a few hundred seconds), far inside u64.
    let sim_secs = (TARGET_ARRIVALS as f64 * 1.02 / total_rps).ceil() as u64;
    let report = p.run_for(SimTime::from_secs(sim_secs));
    let arrivals: u64 = report.functions.values().map(|f| f.arrivals).sum();
    assert!(
        arrivals >= TARGET_ARRIVALS,
        "undersized fleet: {arrivals} arrivals"
    );
    let coalesced = p.ff_cluster_coalesced_events();
    let virtual_events = coalesced + p.events_handled();
    assert!(
        coalesced * 100 >= virtual_events * 95,
        "coalesced {coalesced} of {virtual_events} virtual events, under 95 %"
    );
}
