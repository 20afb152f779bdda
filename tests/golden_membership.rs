//! Golden pins for the cluster's pod-membership paths.
//!
//! Two scenarios drive every membership query the engine makes — the
//! least-loaded node walk on each oversubscribed deploy, per-function
//! replica counts in every metrics sample, the steady-regime gate,
//! node crashes, reconcile-driven drains and kill victims — and pin two
//! literal values each: the report digest and an FNV-1a hash of the
//! final snapshot bytes. The literals were computed on the scanning
//! implementation that preceded the membership index; a change to how
//! membership is stored must leave both values exactly where they are.
//!
//! Every configuration knob that has an environment default is set
//! explicitly, so the pins hold under any `FASTG_*` environment.

use fastg_des::SimTime;
use fastg_workload::ArrivalProcess;
use fastgshare::manager::{SchedPolicy, SharingPolicy};
use fastgshare::platform::{
    FaultKind, FaultPlan, FunctionConfig, Platform, PlatformConfig, PlatformReport, TieBreak,
};

/// FNV-1a over raw bytes (the same hash `PlatformReport::digest` uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Environment-independent base configuration.
fn base(nodes: usize, seed: u64) -> PlatformConfig {
    PlatformConfig::default()
        .nodes(nodes)
        .policy(SharingPolicy::FaST)
        .scheduler(SchedPolicy::Paper)
        .oversubscribe(true)
        .fastforward(true)
        .tiebreak(TieBreak::Fifo)
        .seed(seed)
}

/// (report digest, snapshot-bytes hash) of the platform's current state.
fn pins(p: &Platform, report: &PlatformReport) -> (u64, u64) {
    (report.digest(), fnv1a(p.checkpoint().as_bytes()))
}

/// A 64-node cluster-fast-forward fleet: one constant-rate function per
/// node plus a second replica for every eighth function, so the
/// least-loaded walk sees both empty and occupied nodes and the steady
/// gate sees both single- and multi-pod nodes.
fn fleet() -> Platform {
    let mut p = Platform::new(
        base(64, 31)
            .cluster_fastforward(true)
            .window(SimTime::from_secs(1))
            .sample_interval(SimTime::from_secs(2)),
    );
    let models = [("resnet50", 12.0), ("bert_base", 20.0), ("rnnt", 6.0)];
    for i in 0..64 {
        let (model, rate) = models[i % models.len()];
        let replicas = if i % 8 == 0 { 2 } else { 1 };
        let f = p
            .deploy(
                FunctionConfig::new(&format!("fleet-{i:02}"), model)
                    .replicas(replicas)
                    .resources(100.0, 1.0, 1.0),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::constant(rate));
    }
    p
}

/// A chaotic shared cluster: a planned pod crash and node crash, plus a
/// `scale_to` drain, a `scale_to` grow and a direct `kill_pod` issued
/// between run slices.
fn chaos() -> Platform {
    let plan = FaultPlan::new()
        .at(SimTime::from_secs(1), FaultKind::PodCrash { func_index: 1 })
        .at(
            SimTime::from_secs(3),
            FaultKind::NodeCrash { node_index: 1 },
        );
    let mut p = Platform::new(
        base(4, 17)
            .cluster_fastforward(false)
            .recovery(true)
            .fault_plan(plan),
    );
    let mut funcs = Vec::new();
    for (i, (model, rate)) in [("resnet50", 40.0), ("bert_base", 25.0), ("rnnt", 8.0)]
        .iter()
        .enumerate()
    {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("chaos-{i}"), model)
                    .replicas(3)
                    .resources(24.0, 0.4, 0.6),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(*rate, 100 + i as u64));
        funcs.push(f);
    }
    p.run_for(SimTime::from_millis(1500));
    p.scale_to(funcs[0], 1);
    let victim = p.pods_of(funcs[2])[0];
    assert!(p.kill_pod(victim));
    p.run_for(SimTime::from_millis(1000));
    p.scale_to(funcs[1], 5);
    p
}

#[test]
fn fleet_membership_pins() {
    let mut p = fleet();
    let report = p.run_for(SimTime::from_secs(20));
    assert!(
        p.ff_cluster_cycles() > 0,
        "cluster fast-forward never engaged"
    );
    let (digest, snap) = pins(&p, &report);
    // Snapshot re-pinned (was 0xa376_2260_20a6_47d8) when steady nodes
    // stopped scheduling no-op dispatch passes and metric-sample replays:
    // the delivered-event counter, queue sequence numbers and per-node
    // event tallies it encodes changed on purpose. Re-pinned again (was
    // 0x2a8d_798c_9384_fd05) when device fast-forward started counting
    // only token holders' caps: the nodes with two 100 % pods, one lease
    // at a time, now coalesce their bursts, which changes the delivered
    // event counter, the queue sequence numbers and the live timelines.
    // The digest is unmoved, and `fleet_snapshot_resumes_to_straight_run`
    // shows the new snapshot resumes to the old straight-run digest.
    assert_eq!(
        (digest, snap),
        (0x435f_34c0_dbfc_395c, 0x8cc9_a648_fd77_0aaa),
        "fleet pins moved: report {digest:#018x}, snapshot {snap:#018x}"
    );
}

/// The pinned fleet snapshot is a faithful checkpoint: restored and run
/// five more seconds, it reaches the digest of one straight 25 s run,
/// pinned from the implementation that coalesced none of the two-pod
/// nodes' bursts.
#[test]
fn fleet_snapshot_resumes_to_straight_run() {
    let mut p = fleet();
    p.run_for(SimTime::from_secs(20));
    let mut resumed = Platform::from_snapshot(&p.checkpoint()).unwrap();
    let digest = resumed.run_for(SimTime::from_secs(5)).digest();
    assert_eq!(
        digest, 0x3e2f_04ec_0c07_2f97,
        "resumed fleet digest moved: {digest:#018x}"
    );
}

#[test]
fn chaos_membership_pins() {
    let mut p = chaos();
    let report = p.run_for(SimTime::from_secs(4));
    assert!(!report.nodes[1].up, "the planned node crash never landed");
    assert!(
        p.killed_pods() >= 2,
        "pod crash and kill_pod must both land"
    );
    let (digest, snap) = pins(&p, &report);
    // Snapshot re-pinned (was 0xe8d2_8ede_9463_f76d) for the snapshot
    // format v2 header alone; the payload after the 8-byte header hashes
    // to 0xc534_12ed_e008_4312 before and after. The digest is unmoved.
    assert_eq!(
        (digest, snap),
        (0x6c29_5548_a515_8901, 0x14cb_91dc_d899_ceaa),
        "chaos pins moved: report {digest:#018x}, snapshot {snap:#018x}"
    );
}
