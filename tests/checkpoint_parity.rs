//! Checkpoint/restore digest parity: suspending a platform at an instant
//! T and resuming from the snapshot must reproduce the straight-through
//! run byte-for-byte — chaos plans, overload control, cluster
//! fast-forward and every same-instant tie-break order included.
//!
//! These are the correctness bars the prefix-shared sweep and the
//! checkpoint-forking search lean on: if any of them breaks, warm-resume
//! is silently diverging from the reference simulation.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::{SchedPolicy, SharingPolicy};
use fastgshare::platform::{
    run_sweep_stats, run_sweep_unshared, FaultKind, FaultPlan, FunctionConfig, Platform,
    PlatformConfig, Scenario, Snapshot, TieBreak, TreatmentAction,
};
use proptest::prelude::*;

/// The four canonical same-instant delivery orders (the `race_detector`
/// matrix).
const TIEBREAKS: [TieBreak; 4] = [
    TieBreak::Fifo,
    TieBreak::Lifo,
    TieBreak::SeededShuffle(1),
    TieBreak::SeededShuffle(2),
];

/// The standard chaos plan: pod crash, clock degrade, node crash, node
/// recover — one event per second, so any checkpoint instant in (0, 5 s)
/// lands between two pending faults.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(SimTime::from_secs(1), FaultKind::PodCrash { func_index: 0 })
        .at(
            SimTime::from_secs(2),
            FaultKind::NodeDegrade {
                node_index: 1,
                factor: 2.0,
            },
        )
        .at(SimTime::from_secs(3), FaultKind::NodeCrash { node_index: 0 })
        .at(SimTime::from_secs(4), FaultKind::NodeRecover { node_index: 1 })
}

/// The fleet-shaped scenario from `determinism.rs`: three single-replica
/// constant-rate functions on three nodes, chaos plan armed, both
/// fast-forward layers on, under a chosen tie-break order.
fn fleet_platform(tiebreak: TieBreak, overload: bool) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(3)
            .policy(SharingPolicy::FaST)
            .oversubscribe(true)
            .recovery(true)
            .seed(23)
            .fastforward(true)
            .cluster_fastforward(true)
            .overload_control(overload)
            .tiebreak(tiebreak)
            .fault_plan(chaos_plan()),
    );
    for (i, (model, rate)) in [("resnet50", 18.0), ("bert_base", 30.0), ("rnnt", 9.0)]
        .iter()
        .enumerate()
    {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("fleet-{i}"), model)
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(*rate));
    }
    p
}

/// Splits a 6 s run at `at`: the straight-through reference runs both
/// halves on one platform; the resumed run checkpoints at the split,
/// drops the live platform, restores from the snapshot and runs the
/// second half. Returns each second-half report's canonical text plus
/// the final event/cycle counters of both runs.
fn split_run(
    mut straight: Platform,
    mut twin: Platform,
    at: SimTime,
    total: SimTime,
) -> ((String, u64, u64), (String, u64, u64)) {
    let rest = total.saturating_sub(at);

    straight.run_for(at);
    let handled_at_split = straight.events_handled();
    let s_report = straight.run_for(rest);
    let s = (
        s_report.canonical_text(),
        straight.events_handled(),
        straight.ff_cluster_cycles(),
    );

    twin.run_for(at);
    let snapshot = twin.checkpoint();
    drop(twin);
    let mut resumed = Platform::from_snapshot(&snapshot).unwrap();
    assert_eq!(
        resumed.events_handled(),
        handled_at_split,
        "restore must resume the event counter where the snapshot left it"
    );
    assert_eq!(resumed.now(), at, "restore must resume the clock at the split");
    let r_report = resumed.run_for(rest);
    let r = (
        r_report.canonical_text(),
        resumed.events_handled(),
        resumed.ff_cluster_cycles(),
    );
    (s, r)
}

/// Checkpoint-at-T ≡ straight-through on the chaotic fleet, under all
/// four tie-break orders — and cluster fast-forward genuinely engaged,
/// or the parity claim would be vacuous.
#[test]
fn fleet_checkpoint_parity_across_tiebreak_orders() {
    for tb in TIEBREAKS {
        let (s, r) = split_run(
            fleet_platform(tb, false),
            fleet_platform(tb, false),
            SimTime::from_millis(2500),
            SimTime::from_secs(6),
        );
        assert!(s.2 > 0, "cluster fast-forward never engaged under {tb:?}");
        assert_eq!(s.0, r.0, "resume diverged from straight-through under {tb:?}");
        assert_eq!(s.1, r.1, "event counts diverged under {tb:?}");
        assert_eq!(s.2, r.2, "steady-cycle credit diverged under {tb:?}");
    }
}

/// The same fleet with the overload control plane armed: admission
/// queues, EWMA estimators and breaker windows all ride the snapshot.
#[test]
fn overloaded_fleet_checkpoint_parity_across_tiebreak_orders() {
    for tb in TIEBREAKS {
        let (s, r) = split_run(
            fleet_platform(tb, true),
            fleet_platform(tb, true),
            SimTime::from_millis(2500),
            SimTime::from_secs(6),
        );
        assert_eq!(s.0, r.0, "overloaded resume diverged under {tb:?}");
        assert_eq!(s.1, r.1, "overloaded event counts diverged under {tb:?}");
    }
}

/// Checkpoint instants swept across the chaos timeline: before the first
/// fault, between every pair of faults, and after the last — each split
/// must be digest-exact, with pending fault events riding the snapshot.
#[test]
fn checkpoint_at_every_chaos_phase_is_digest_exact() {
    for at_ms in [500u64, 1500, 3500, 5500] {
        let (s, r) = split_run(
            fleet_platform(TieBreak::Fifo, false),
            fleet_platform(TieBreak::Fifo, false),
            SimTime::from_millis(at_ms),
            SimTime::from_secs(6),
        );
        assert_eq!(s.0, r.0, "resume diverged when split at {at_ms} ms");
        assert_eq!(s.1, r.1, "event counts diverged when split at {at_ms} ms");
    }
}

/// The flash-crowd overload scenario on the guillotine fast path (the
/// `fastpath_overload_digest` fixture): checkpointing mid-crowd, while
/// shedding and breaker state are live, resumes byte-identically.
fn flash_crowd_platform(tiebreak: TieBreak) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::default()
            .nodes(2)
            .policy(SharingPolicy::FaST)
            .scheduler(SchedPolicy::FastPath)
            .recovery(true)
            .seed(17)
            .fastforward(true)
            .overload_control(true)
            .tiebreak(tiebreak)
            .fault_plan(chaos_plan()),
    );
    let f = p
        .deploy(
            FunctionConfig::new("flash", "resnet50")
                .slo_ms(200)
                .replicas(2)
                .resources(50.0, 0.5, 0.8),
        )
        .unwrap();
    p.set_load(
        f,
        fastg_workload::patterns::flash_crowd(
            30.0,
            400.0,
            SimTime::from_secs(1),
            SimTime::from_millis(500),
            SimTime::from_secs(2),
            SimTime::from_secs(6),
            1,
            19,
        ),
    );
    p
}

#[test]
fn flash_crowd_checkpoint_parity_across_tiebreak_orders() {
    for tb in TIEBREAKS {
        // 2.5 s is inside the crowd plateau: shedding, brownout and
        // breaker state are all live at the split.
        let (s, r) = split_run(
            flash_crowd_platform(tb),
            flash_crowd_platform(tb),
            SimTime::from_millis(2500),
            SimTime::from_secs(6),
        );
        assert_eq!(s.0, r.0, "flash-crowd resume diverged under {tb:?}");
        assert_eq!(s.1, r.1, "flash-crowd event counts diverged under {tb:?}");
    }
}

/// Snapshots survive serialization: shipping the bytes through
/// `as_bytes` → `Snapshot::from_bytes` (the cross-process path) restores
/// the same run as the in-memory snapshot.
#[test]
fn snapshot_round_trips_through_raw_bytes() {
    let mut p = fleet_platform(TieBreak::Fifo, false);
    p.run_for(SimTime::from_secs(3));
    let snapshot = p.checkpoint();

    let mut direct = Platform::from_snapshot(&snapshot).unwrap();
    let shipped = Snapshot::from_bytes(snapshot.as_bytes().to_vec()).unwrap();
    let mut revived = Platform::from_snapshot(&shipped).unwrap();

    let a = direct.run_for(SimTime::from_secs(3));
    let b = revived.run_for(SimTime::from_secs(3));
    assert_eq!(a.canonical_text(), b.canonical_text());
    assert_eq!(a.digest(), b.digest());
}

/// A snapshot whose `event_capacity` was corrupted to an unallocatable
/// size restores as a typed error, not a "capacity overflow" panic.
#[test]
fn hostile_event_capacity_is_a_typed_error() {
    // Distinctive enough that its 8 LE bytes occur once in the payload.
    const CAP: usize = 0x01_F00D;
    let p = Platform::new(PlatformConfig::default().event_capacity(CAP));
    let mut bytes = p.checkpoint().as_bytes().to_vec();
    let needle = u64::try_from(CAP).unwrap().to_le_bytes();
    let at: Vec<usize> = (0..=bytes.len() - needle.len())
        .filter(|&i| bytes[i..i + needle.len()] == needle)
        .collect();
    assert_eq!(at.len(), 1, "event_capacity must be located unambiguously");
    let hostile = u64::try_from(usize::MAX / 2).unwrap().to_le_bytes();
    bytes[at[0]..at[0] + needle.len()].copy_from_slice(&hostile);
    let snapshot = Snapshot::from_bytes(bytes).unwrap();
    let err = Platform::from_snapshot(&snapshot)
        .err()
        .expect("hostile capacity must not restore");
    assert_eq!(err.what, "event capacity");
}

/// The warmup-heavy headline grid: `cells` scenarios that agree on
/// everything up to the end of `warmup` and then each reconfigure
/// function 0 to a different share of the GPU before a short measured
/// window, shaped like a real profiling sweep.
fn headline_grid(cells: u64, warmup: SimTime, window: SimTime) -> Vec<Scenario> {
    (0..cells)
        .map(|i| {
            // Spread the treatment over (6.25 %, 12.5 %, …) SM partitions.
            let sm = 6.25 * (i + 1) as f64;
            let quota = (0.1 * (i + 1) as f64).min(1.0);
            Scenario::new(
                format!("headline/sm{sm}"),
                PlatformConfig::default().nodes(2).seed(29),
            )
            .function(
                FunctionConfig::new("f0", "resnet50")
                    .replicas(2)
                    .resources(50.0, 0.5, 0.5),
            )
            .function(
                FunctionConfig::new("f1", "bert_base")
                    .replicas(1)
                    .resources(25.0, 0.25, 0.25),
            )
            .load(0, ArrivalProcess::poisson(40.0, 7))
            .load(1, ArrivalProcess::poisson(15.0, 11))
            .warmup(warmup)
            .then(TreatmentAction::Reconfigure {
                func_index: 0,
                sm_partition: sm,
                quota_request: quota,
                quota_limit: quota,
            })
            .duration(window)
        })
        .collect()
}

/// Prefix sharing on the headline grid is digest-exact and simulates at
/// most a third of the platform-seconds the unshared path does: one
/// shared warmup plus each cell's window, against every cell replaying
/// its own warmup.
#[test]
fn prefix_sharing_simulates_a_third_of_the_headline_grid() {
    let (cells, warmup, window) = (6u64, SimTime::from_secs(4), SimTime::from_millis(500));
    let (shared, stats) = run_sweep_stats(headline_grid(cells, warmup, window), 1).unwrap();
    let unshared = run_sweep_unshared(headline_grid(cells, warmup, window), 1).unwrap();
    assert_eq!(
        stats.prefixes_shared, 1,
        "the grid must collapse to one prefix"
    );
    assert_eq!(u64::try_from(stats.cells_resumed).unwrap(), cells);
    assert_eq!(shared.len(), unshared.len());
    for ((n1, r1), (n2, r2)) in shared.iter().zip(&unshared) {
        assert_eq!(n1, n2);
        assert_eq!(r1.digest(), r2.digest(), "prefix sharing changed cell {n1}");
    }
    let unshared_sim = (warmup + window) * cells;
    let shared_sim = unshared_sim.saturating_sub(stats.warmup_avoided);
    assert!(
        shared_sim * 3 <= unshared_sim,
        "sharing simulated {shared_sim} of {unshared_sim}"
    );
    // A grid whose cells all agree would make the digest bar vacuous.
    let first = shared[0].1.digest();
    assert!(
        shared.iter().any(|(_, r)| r.digest() != first),
        "the treatment is inert"
    );
}

/// The matrix chaos plan: a pod crash and a clock degrade inside the
/// warmup (so fault effects ride the snapshot) and a recovery inside
/// the measured window (so a pending fault event must survive restore).
fn matrix_chaos() -> FaultPlan {
    FaultPlan::new()
        .at(SimTime::from_millis(300), FaultKind::PodCrash { func_index: 0 })
        .at(
            SimTime::from_millis(600),
            FaultKind::NodeDegrade {
                node_index: 1,
                factor: 1.5,
            },
        )
        .at(
            SimTime::from_millis(1_200),
            FaultKind::NodeRecover { node_index: 1 },
        )
}

/// One matrix combination: a two-cell shared-prefix grid under the given
/// chaos / overload / cluster-FF / tie-break knobs.
fn matrix_grid(chaos: bool, overload: bool, cluster_ff: bool, tiebreak: TieBreak) -> Vec<Scenario> {
    let mut config = PlatformConfig::default()
        .nodes(2)
        .seed(43)
        .oversubscribe(true)
        .recovery(true)
        .overload_control(overload)
        .fastforward(true)
        .cluster_fastforward(cluster_ff)
        .tiebreak(tiebreak);
    if chaos {
        config = config.fault_plan(matrix_chaos());
    }
    let base = |name: &str| {
        Scenario::new(name, config.clone())
            .function(
                FunctionConfig::new("f0", "resnet50")
                    .replicas(2)
                    .resources(50.0, 0.5, 0.5)
                    .slo_ms(200),
            )
            .function(
                FunctionConfig::new("f1", "rnnt")
                    .replicas(1)
                    .resources(25.0, 0.25, 0.25),
            )
            .load(0, ArrivalProcess::poisson(60.0, 5))
            .load(1, ArrivalProcess::poisson(10.0, 9))
            .warmup(SimTime::from_millis(800))
            .duration(SimTime::from_millis(700))
    };
    vec![
        base("cell/reconfigure").then(TreatmentAction::Reconfigure {
            func_index: 0,
            sm_partition: 25.0,
            quota_request: 0.25,
            quota_limit: 0.5,
        }),
        base("cell/kill").then(TreatmentAction::KillPods {
            func_index: 0,
            count: 1,
        }),
    ]
}

/// The resume-parity matrix: every {clean, chaos} × {overload on, off} ×
/// {cluster fast-forward on, off} × tie-break combination (32 in all)
/// resumes both cells from the shared snapshot and matches the unshared
/// replay byte for byte.
#[test]
fn resume_parity_matrix_shared_equals_unshared() {
    for chaos in [false, true] {
        for overload in [false, true] {
            for cluster_ff in [false, true] {
                for tb in TIEBREAKS {
                    let combo =
                        format!("chaos={chaos} overload={overload} cluster_ff={cluster_ff} {tb:?}");
                    let (shared, stats) =
                        run_sweep_stats(matrix_grid(chaos, overload, cluster_ff, tb), 1).unwrap();
                    let unshared =
                        run_sweep_unshared(matrix_grid(chaos, overload, cluster_ff, tb), 1)
                            .unwrap();
                    assert_eq!(stats.cells_resumed, 2, "sharing never engaged: {combo}");
                    assert_eq!(shared.len(), unshared.len());
                    for ((n1, r1), (n2, r2)) in shared.iter().zip(&unshared) {
                        assert_eq!(n1, n2);
                        assert_eq!(
                            r1.canonical_text(),
                            r2.canonical_text(),
                            "resume parity broke on {n1}: {combo}"
                        );
                    }
                    assert_ne!(
                        shared[0].1.digest(),
                        shared[1].1.digest(),
                        "the treatments are inert: {combo}"
                    );
                }
            }
        }
    }
}

/// A random fleet grid for checkpoint parity: node count, load, seed and
/// mid-run perturbations — kills and reconfigurations on either side of
/// the checkpoint instant — all drawn at random.
#[derive(Debug, Clone, Copy)]
struct CkptGrid {
    nodes: usize,
    rate: u32,
    seed: u64,
    /// Kill the first function's pod just before the checkpoint instant.
    kill_before: bool,
    /// Kill the last function's pod after the resume.
    kill_after: bool,
    /// Reconfigure the last function's partition before the checkpoint.
    reconfig: bool,
    /// Inject the degrade/recover chaos plan.
    chaos: bool,
    /// Milliseconds past the 1 s mark at which to checkpoint.
    split_ms: u64,
}

fn arb_ckpt_grid() -> impl Strategy<Value = CkptGrid> {
    (
        2usize..5,
        5u32..45,
        0u64..1000,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        200u64..1500,
    )
        .prop_map(
            |(nodes, rate, seed, kill_before, kill_after, reconfig, chaos, split_ms)| CkptGrid {
                nodes,
                rate,
                seed,
                kill_before,
                kill_after,
                reconfig,
                chaos,
                split_ms,
            },
        )
}

const GRID_MODELS: [&str; 4] = ["resnet50", "bert_base", "rnnt", "resnext101"];

/// Drives one grid point: run to 1 s, perturb, run to the split instant,
/// optionally checkpoint → drop → restore, perturb again, run the final
/// window. With `checkpoint == false` this is the straight-through
/// reference the resumed run must match byte-for-byte.
fn ckpt_grid_run(g: CkptGrid, checkpoint: bool) -> (String, u64) {
    let mut cfg = PlatformConfig::default()
        .nodes(g.nodes)
        .policy(SharingPolicy::FaST)
        .oversubscribe(true)
        .seed(g.seed)
        .fastforward(true)
        .cluster_fastforward(true);
    if g.chaos {
        cfg = cfg.fault_plan(
            FaultPlan::new()
                .at(
                    SimTime::from_millis(1500),
                    FaultKind::NodeDegrade {
                        node_index: 0,
                        factor: 1.5,
                    },
                )
                .at(
                    SimTime::from_millis(2500),
                    FaultKind::NodeRecover { node_index: 0 },
                ),
        );
    }
    let mut p = Platform::new(cfg);
    let mut funcs = Vec::new();
    for i in 0..g.nodes {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("f{i}"), GRID_MODELS[i % GRID_MODELS.len()])
                    .replicas(1)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(f64::from(g.rate) + i as f64));
        funcs.push(f);
    }
    p.run_for(SimTime::from_secs(1));
    if g.kill_before {
        if let Some(&victim) = p.pods_of(funcs[0]).first() {
            p.kill_pod(victim);
        }
    }
    if g.reconfig {
        let _ = p.reconfigure(funcs[g.nodes - 1], 50.0, 1.0, 1.0);
    }
    p.run_for(SimTime::from_millis(g.split_ms));
    if checkpoint {
        let snapshot = p.checkpoint();
        drop(p);
        p = Platform::from_snapshot(&snapshot).unwrap();
    }
    if g.kill_after {
        if let Some(&victim) = p.pods_of(funcs[g.nodes - 1]).first() {
            p.kill_pod(victim);
        }
    }
    let report = p.run_for(SimTime::from_secs(2));
    (report.canonical_text(), p.events_handled())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `restore(checkpoint(p))` digest parity over random fleet grids:
    /// whatever the topology, load, chaos or mid-run churn on either
    /// side of the split, the resumed run must reproduce the
    /// straight-through report byte-for-byte.
    #[test]
    fn checkpoint_parity_on_random_fleet_grids(g in arb_ckpt_grid()) {
        let (straight, s_events) = ckpt_grid_run(g, false);
        let (resumed, r_events) = ckpt_grid_run(g, true);
        prop_assert_eq!(s_events, r_events, "event counts diverged on {:?}", g);
        prop_assert_eq!(straight, resumed, "checkpoint parity broke on {:?}", g);
    }
}
