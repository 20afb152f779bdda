//! Golden pins for the snapshot wire format.
//!
//! Each scenario drives the engine into state that the membership pins
//! (`golden_membership.rs`) never reach — the three arena placement
//! policies, a tripped circuit breaker, shared model storage, a device
//! fast-forward burst in flight at the checkpoint, profile/ramp/trace
//! arrivals with an autoscaler database, and a degrade/recover fault
//! plan — and pins two literal values: the report digest and an FNV-1a
//! hash of the checkpoint bytes. Codecs that no engine snapshot reaches
//! (the sweep prefix key, the standalone rate estimator) are pinned by
//! hashing their encoding directly.
//!
//! A codec that writes its fields in a different order still round-trips
//! and still reproduces every digest; only these byte pins notice. A
//! change to how snapshot codecs are written must leave every literal
//! exactly where it is.
//!
//! Every configuration knob that has an environment default is set
//! explicitly, so the pins hold under any `FASTG_*` environment.

use fastg_des::snap::{Snap, SnapWriter};
use fastg_des::SimTime;
use fastg_workload::{patterns, ArrivalProcess, RateEstimator};
use fastgshare::manager::{SchedPolicy, SharingPolicy};
use fastgshare::platform::{
    FaultKind, FaultPlan, FunctionConfig, Platform, PlatformConfig, PlatformReport, Scenario,
    Snapshot, TieBreak,
};
use fastgshare::profiler::db::{ProfileDb, ProfileKey, ProfileRecord};

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
        .cluster_fastforward(false)
        .tiebreak(TieBreak::Fifo)
        .seed(seed)
}

/// (report digest, snapshot-bytes hash) of the platform's current state.
fn pins(p: &Platform, report: &PlatformReport) -> (u64, u64) {
    (report.digest(), fnv1a(p.checkpoint().as_bytes()))
}

/// Three functions with mixed shapes on four nodes under an arena
/// placement policy, with a drain and a grow between run slices so the
/// planes hold freed, split and re-used slots.
fn placement(sched: SchedPolicy) -> Platform {
    let mut p = Platform::new(base(4, 5).scheduler(sched));
    let shapes = [
        ("resnet50", 24.0, 0.4, 0.6, 40.0),
        ("bert_base", 50.0, 0.5, 0.5, 20.0),
        ("rnnt", 12.0, 0.3, 0.8, 8.0),
    ];
    let mut funcs = Vec::new();
    for (i, (model, sm, request, limit, rate)) in shapes.iter().enumerate() {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("place-{i}"), model)
                    .slo_ms(100 + 50 * i as u64)
                    .replicas(3)
                    .resources(*sm, *request, *limit),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(*rate, 200 + i as u64));
        funcs.push(f);
    }
    p.run_for(SimTime::from_millis(700));
    p.scale_to(funcs[1], 1);
    p.scale_to(funcs[2], 5);
    p
}

/// A flash crowd on two half-quota replicas with overload control on:
/// the crowd trips the breaker, which engages brownout.
fn breaker() -> Platform {
    let mut p = Platform::new(base(2, 47).overload_control(true));
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
        patterns::flash_crowd(
            30.0,
            400.0,
            SimTime::from_millis(500),
            SimTime::from_millis(500),
            SimTime::from_secs(3),
            SimTime::from_secs(6),
            1,
            47,
        ),
    );
    p
}

/// Three functions over one model, two replicas each, on two nodes with
/// model sharing on: each node's storage server holds reference-counted
/// shared tensors and every pod's store client has attached to them.
fn model_sharing() -> Platform {
    let mut p = Platform::new(base(2, 9).model_sharing(true));
    for i in 0..3 {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("share-{i}"), "resnet50")
                    .replicas(2)
                    .resources(30.0, 0.3, 0.5),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(15.0, 300 + i));
    }
    p
}

/// One uncontended saturating function on one node with device
/// fast-forward on and the event trace recorded, so the caller can tell
/// bursts started from bursts delivered.
fn ff_burst() -> Platform {
    let mut p = Platform::new(base(1, 13).trace_events(true));
    p.deploy(
        FunctionConfig::new("burst", "bert_base")
            .replicas(1)
            .resources(100.0, 1.0, 1.0)
            .saturating(),
    )
    .unwrap();
    p
}

/// Profile, ramp and trace arrival processes side by side, with the
/// autoscaler armed from a profiling database.
fn arrivals() -> Platform {
    let mut p = Platform::new(
        base(3, 21)
            .autoscale_interval(SimTime::from_millis(500))
            .sample_interval(SimTime::from_millis(250)),
    );
    let names = ["curve", "ramp", "replay"];
    let mut funcs = Vec::new();
    for (name, model) in names.iter().zip(["resnet50", "bert_base", "rnnt"]) {
        let f = p
            .deploy(
                FunctionConfig::new(name, model)
                    .replicas(1)
                    .resources(40.0, 0.5, 0.7),
            )
            .unwrap();
        funcs.push(f);
    }
    let knots = vec![
        (SimTime::ZERO, 10.0),
        (SimTime::from_millis(800), 60.0),
        (SimTime::from_millis(1600), 20.0),
    ];
    p.set_load(funcs[0], ArrivalProcess::profile(knots, 31));
    p.set_load(
        funcs[1],
        ArrivalProcess::ramp(5.0, 40.0, SimTime::from_secs(2), 32),
    );
    let times = (0..40u64)
        .map(|i| SimTime::from_micros(37_000 * i + (i * i * 911) % 13_000))
        .collect();
    p.set_load(funcs[2], ArrivalProcess::trace(times));
    let mut db = ProfileDb::new();
    for (name, rps) in names.iter().zip([30.0, 18.0, 9.0]) {
        for (sm, quota) in [(20.0, 0.4), (40.0, 0.5), (60.0, 0.8)] {
            db.insert(
                name,
                ProfileKey::new(sm, quota),
                ProfileRecord {
                    rps: rps * quota * sm / 40.0,
                    p50: SimTime::from_millis(20),
                    p99: SimTime::from_millis(45),
                    utilization: quota,
                    sm_occupancy: sm / 100.0,
                },
            );
        }
    }
    p.enable_autoscaler(db);
    p
}

/// A degrade/recover fault plan with recovery on: node 1 slows down,
/// node 0 loses a pod, then node 1 recovers. Device fast-forward is off,
/// so kernels are stepped one by one and some are running at the
/// checkpoint.
fn degrade_recover() -> Platform {
    let plan = FaultPlan::new()
        .at(
            SimTime::from_millis(400),
            FaultKind::NodeDegrade {
                node_index: 1,
                factor: 2.5,
            },
        )
        .at(
            SimTime::from_millis(900),
            FaultKind::PodCrash { func_index: 0 },
        )
        .at(
            SimTime::from_millis(1400),
            FaultKind::NodeRecover { node_index: 1 },
        )
        .at(
            SimTime::from_millis(2500),
            FaultKind::NodeDegrade {
                node_index: 0,
                factor: 1.5,
            },
        );
    let mut p = Platform::new(
        base(2, 29)
            .fastforward(false)
            .recovery(true)
            .fault_plan(plan),
    );
    for (i, (model, rate)) in [("resnet50", 30.0), ("rnnt", 10.0)].iter().enumerate() {
        let f = p
            .deploy(
                FunctionConfig::new(&format!("fault-{i}"), model)
                    .replicas(2)
                    .resources(40.0, 0.5, 0.6),
            )
            .unwrap();
        p.set_load(f, ArrivalProcess::poisson(*rate, 400 + i as u64));
    }
    p
}

fn assert_pins(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name} pins moved: report {:#018x}, snapshot {:#018x}",
        got.0, got.1
    );
}

#[test]
fn fastpath_placement_pins() {
    let mut p = placement(SchedPolicy::FastPath);
    let report = p.run_for(SimTime::from_millis(600));
    assert_eq!(p.scheduler_name(), "fast-path");
    assert_pins(
        "fastpath",
        pins(&p, &report),
        (0x54cf_cb5f_bc0d_d787, 0xe5b9_d83c_4821_4cd3),
    );
}

#[test]
fn demand_match_placement_pins() {
    let mut p = placement(SchedPolicy::DemandMatch);
    let report = p.run_for(SimTime::from_millis(600));
    assert_pins(
        "demand-match",
        pins(&p, &report),
        (0x54cf_cb5f_bc0d_d787, 0x530f_3890_68e6_1c06),
    );
}

#[test]
fn priority_colocate_placement_pins() {
    let mut p = placement(SchedPolicy::PriorityColocate);
    let report = p.run_for(SimTime::from_millis(600));
    assert_pins(
        "priority-colocate",
        pins(&p, &report),
        (0x54cf_cb5f_bc0d_d787, 0x7e6d_4688_9789_466d),
    );
}

#[test]
fn breaker_trip_pins() {
    let mut p = breaker();
    let report = p.run_for(SimTime::from_millis(2500));
    let f = *report.functions.keys().next().unwrap();
    assert!(
        p.breaker_trips(f) >= 1,
        "the crowd never tripped the breaker"
    );
    assert_pins(
        "breaker",
        pins(&p, &report),
        (0xedf0_dc5d_c212_d3ae, 0x13e0_dd89_ee86_6d63),
    );
}

#[test]
fn model_sharing_pins() {
    let mut p = model_sharing();
    let report = p.run_for(SimTime::from_millis(1200));
    assert_pins(
        "model-sharing",
        pins(&p, &report),
        (0x785f_ab67_fe4a_3dd6, 0xdbeb_20c7_98db_67b7),
    );
}

#[test]
fn ff_burst_in_flight_pins() {
    let mut p = ff_burst();
    let report = p.run_for(SimTime::from_micros(1_234_567));
    let delivered = p
        .event_trace()
        .iter()
        .filter(|line| line.contains("BurstFastForward"))
        .count();
    assert!(
        p.ff_bursts() > u64::try_from(delivered).unwrap(),
        "no fast-forward burst in flight at the checkpoint"
    );
    assert_pins(
        "ff-burst",
        pins(&p, &report),
        (0xc495_eed8_9841_17d2, 0x212a_b3f3_fea3_9977),
    );
}

#[test]
fn arrival_kinds_pins() {
    let mut p = arrivals();
    let report = p.run_for(SimTime::from_millis(1700));
    assert_pins(
        "arrivals",
        pins(&p, &report),
        (0x42af_1bea_c4d3_5070, 0x1cf4_5141_eb03_1bf7),
    );
}

#[test]
fn degrade_recover_pins() {
    let mut p = degrade_recover();
    let report = p.run_for(SimTime::from_secs(3));
    assert!(p.faults_injected() >= 4, "the fault plan never completed");
    assert_pins(
        "degrade-recover",
        pins(&p, &report),
        (0x7cbd_f246_57c6_814d, 0xe25b_9c6b_ed71_3e3a),
    );
}

/// Encodings no engine snapshot carries: the sweep prefix key (resolved
/// config, function configs, arrival processes) and a rate estimator.
#[test]
fn standalone_codec_pins() {
    let scenario = Scenario::new("prefix", base(2, 3).overload_control(true))
        .function(
            FunctionConfig::new("a", "resnet50")
                .slo_ms(150)
                .replicas(2)
                .resources(30.0, 0.4, 0.6),
        )
        .function(FunctionConfig::new("b", "rnnt").saturating())
        .load(0, ArrivalProcess::poisson(12.0, 7))
        .load(1, ArrivalProcess::ramp(1.0, 9.0, SimTime::from_secs(1), 8))
        .warmup(SimTime::from_millis(250));
    let prefix = fnv1a(&scenario.prefix_key());

    let mut est = RateEstimator::new(SimTime::from_millis(200), 0.3);
    for i in 0..25u64 {
        est.on_arrival(SimTime::from_micros(13_000 * i));
        if i % 6 == 5 {
            est.tick(SimTime::from_micros(13_000 * i + 1));
        }
    }
    let mut w = SnapWriter::new();
    est.snap(&mut w);
    let estimator = fnv1a(&w.finish());

    assert_eq!(
        (prefix, estimator),
        (0x9551_3a76_7997_5045, 0x0add_565c_1fc7_3de4),
        "standalone pins moved: prefix key {prefix:#018x}, rate estimator {estimator:#018x}"
    );
}

/// Decodes `bytes` as a snapshot, catching a panic instead of
/// propagating it. `Some(ok)` is a typed outcome; `None` is a panic.
fn decode_outcome(bytes: Vec<u8>) -> Option<bool> {
    std::panic::catch_unwind(move || {
        Snapshot::from_bytes(bytes)
            .and_then(|s| Platform::from_snapshot(&s))
            .is_ok()
    })
    .ok()
}

/// Hostile-input decode: every truncation of two pinned scenarios'
/// snapshots is a typed error, and a seeded sample of single-bit flips
/// decodes to a platform or a typed error, never a panic. Runs in the
/// debug build, where an unchecked sum over counts read off the wire
/// panics on overflow.
#[test]
fn corrupt_snapshots_decode_without_panicking() {
    const FLIPS: usize = 8_000;
    let mut panicked = Vec::new();
    for (name, mut p) in [("arrivals", arrivals()), ("model-sharing", model_sharing())] {
        p.run_for(SimTime::from_millis(1200));
        let bytes = p.checkpoint().as_bytes().to_vec();
        for cut in 0..bytes.len() {
            match decode_outcome(bytes[..cut].to_vec()) {
                Some(ok) => assert!(!ok, "{name}: truncation at {cut} decoded"),
                None => panicked.push(format!("{name}: truncation at {cut}")),
            }
        }
        // SplitMix64 over a fixed seed: the same flips on every run.
        let mut state = 0x5eed_0000_0000_0000 ^ bytes.len() as u64;
        let bits = bytes.len() * 8;
        for _ in 0..FLIPS {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let bit = usize::try_from((z ^ (z >> 31)) % bits as u64).unwrap();
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if decode_outcome(flipped).is_none() {
                panicked.push(format!("{name}: bit flip at {bit}"));
            }
        }
    }
    assert!(panicked.is_empty(), "decode panicked: {panicked:?}");
}
