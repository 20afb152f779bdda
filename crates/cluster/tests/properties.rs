//! Property tests for the cluster substrate.

use fastg_cluster::cluster::ReconcileAction;
use fastg_cluster::{Cluster, FuncId, Gateway, Pod, PodId, PodState, ResourceSpec};
use fastg_des::snap::{Snap, SnapReader, SnapWriter};
use fastg_des::SimTime;
use fastg_gpu::{GpuSpec, MpsMode};
use proptest::prelude::*;

const INDEX_NODES: usize = 5;
const INDEX_FUNCS: u32 = 4;

/// The oracle: every live pod, found by probing every id ever handed out.
fn scan<'a>(c: &'a Cluster, created: &[PodId]) -> Vec<&'a Pod> {
    created.iter().filter_map(|&id| c.pod(id).ok()).collect()
}

/// Reconcile by brute force over all live pods: drain newest first.
fn reconcile_by_scan(live: &[&Pod], func: FuncId, desired: usize) -> ReconcileAction {
    let mut running: Vec<&Pod> = live
        .iter()
        .copied()
        .filter(|p| p.func == func && p.state == PodState::Running)
        .collect();
    if running.len() < desired {
        return ReconcileAction::Create(desired - running.len());
    }
    if running.len() == desired {
        return ReconcileAction::Steady;
    }
    running.sort_by_key(|p| std::cmp::Reverse((p.created_at, p.id)));
    ReconcileAction::Drain(
        running[..running.len() - desired]
            .iter()
            .map(|p| p.id)
            .collect(),
    )
}

/// Every membership query agrees with a scan over all pods.
fn assert_index_matches_scan(c: &Cluster, created: &[PodId]) {
    let live = scan(c, created);
    assert_eq!(c.pod_count(), live.len());
    for node in c.node_ids() {
        let want: Vec<PodId> = live
            .iter()
            .filter(|p| p.node == node)
            .map(|p| p.id)
            .collect();
        assert_eq!(c.pods_on(node), want.as_slice(), "pods_on({node:?})");
    }
    for f in (0..INDEX_FUNCS).map(FuncId) {
        let of: Vec<PodId> = live.iter().filter(|p| p.func == f).map(|p| p.id).collect();
        assert_eq!(c.pods_of(f), of.as_slice(), "pods_of({f:?})");
        let running: Vec<PodId> = live
            .iter()
            .filter(|p| p.func == f && p.state == PodState::Running)
            .map(|p| p.id)
            .collect();
        assert_eq!(
            c.running_pods_of(f).collect::<Vec<_>>(),
            running,
            "running_pods_of({f:?})"
        );
        assert_eq!(c.running_count(f), running.len());
        for desired in 0..=running.len() + 1 {
            assert_eq!(
                c.reconcile(f, desired),
                reconcile_by_scan(&live, f, desired)
            );
        }
    }
    let mut funcs: Vec<FuncId> = live.iter().map(|p| p.func).collect();
    funcs.sort();
    funcs.dedup();
    assert_eq!(c.funcs_with_pods().collect::<Vec<_>>(), funcs);
}

proptest! {
    /// Pod create/delete interleavings conserve GPU memory and MPS client
    /// counts exactly.
    #[test]
    fn pod_lifecycle_conserves_resources(
        ops in prop::collection::vec((0u8..2, 1u64..512), 1..120)
    ) {
        let mut c = Cluster::new();
        let node = c.add_node(GpuSpec::v100(), MpsMode::Shared);
        let spec = ResourceSpec::new(10.0, 0.2, 0.5, 0);
        let mut live: Vec<(PodId, u64)> = Vec::new();
        for &(op, mib) in &ops {
            let bytes = mib * 1024 * 1024;
            if op == 0 || live.is_empty() {
                if let Ok(p) = c.create_pod(SimTime::ZERO, node, FuncId(0), spec, bytes) {
                    live.push((p, bytes));
                }
            } else {
                let (p, _) = live.swap_remove((mib as usize) % live.len());
                c.delete_pod(p).unwrap();
            }
            let n = c.node(node).unwrap();
            let expected: u64 = live.iter().map(|&(_, b)| b).sum();
            prop_assert_eq!(n.gpu.memory().used(), expected);
            prop_assert_eq!(n.gpu.mps().client_count(), live.len());
            prop_assert_eq!(c.pod_count(), live.len());
        }
    }

    /// The gateway conserves requests: arrivals == dispatched + queued,
    /// and never dispatches to a busy or deregistered pod.
    #[test]
    fn gateway_conserves_requests(ops in prop::collection::vec(0u8..4, 1..300)) {
        let mut g = Gateway::new();
        let f = FuncId(0);
        g.register_func(f);
        let mut pods_registered = 0u64;
        let mut busy: Vec<PodId> = Vec::new();
        let mut dispatched = 0u64;
        let mut arrivals = 0u64;
        let mut completed = 0u64;
        let mut now = SimTime::ZERO;
        for &op in &ops {
            now += SimTime::from_micros(1);
            match op {
                // New pod joins.
                0 => {
                    g.register_pod(f, PodId(pods_registered));
                    pods_registered += 1;
                }
                // Request arrives.
                1 => {
                    arrivals += 1;
                    if let fastg_cluster::Admission::Dispatch(_req, p) =
                        g.on_arrival(now, f, SimTime::MAX)
                    {
                        prop_assert!(!busy.contains(&p), "dispatched to busy pod");
                        busy.push(p);
                        dispatched += 1;
                    }
                }
                // A busy pod finishes and pulls more work.
                2 if !busy.is_empty() => {
                    let p = busy.remove(0);
                    completed += 1;
                    if g.on_pod_idle(f, p).is_some() {
                        busy.push(p);
                        dispatched += 1;
                    }
                }
                // Deregister an idle pod if any.
                3 => {
                    let idle_exists = g.idle_count(f) > 0;
                    if idle_exists {
                        // Idle pods are those registered but not busy.
                        for i in 0..pods_registered {
                            let p = PodId(i);
                            if !busy.contains(&p) && g.deregister_pod(f, p) {
                                break;
                            }
                        }
                    }
                }
                _ => {}
            }
            prop_assert_eq!(
                dispatched + g.queue_len(f) as u64,
                arrivals,
                "requests lost or duplicated"
            );
            let _ = completed;
        }
    }

    /// Reconcile always converges: applying its action yields the desired
    /// replica count (when capacity allows).
    #[test]
    fn reconcile_converges(initial in 0usize..10, desired in 0usize..10) {
        use fastg_cluster::cluster::ReconcileAction;
        let mut c = Cluster::new();
        let node = c.add_node(GpuSpec::v100(), MpsMode::Shared);
        let spec = ResourceSpec::new(5.0, 0.1, 0.1, 0);
        for i in 0..initial {
            c.create_pod(SimTime::from_micros(i as u64), node, FuncId(0), spec, 0)
                .unwrap();
        }
        match c.reconcile(FuncId(0), desired) {
            ReconcileAction::Create(n) => {
                prop_assert_eq!(initial + n, desired);
            }
            ReconcileAction::Drain(pods) => {
                prop_assert_eq!(initial - pods.len(), desired);
                for p in pods {
                    c.begin_terminate(p).unwrap();
                }
                prop_assert_eq!(c.running_count(FuncId(0)), desired);
            }
            ReconcileAction::Steady => prop_assert_eq!(initial, desired),
        }
    }

    /// The membership index agrees with a brute-force scan after every
    /// step of a random create / terminate / delete / crash sequence, and
    /// again after a snapshot round trip rebuilds it from the pod table.
    #[test]
    fn membership_index_matches_scan(
        ops in prop::collection::vec((0u8..8, 0u8..32, 0u8..32), 1..80)
    ) {
        let mut c = Cluster::new();
        c.add_nodes(INDEX_NODES, GpuSpec::v100(), MpsMode::Shared);
        let spec = ResourceSpec::new(5.0, 0.1, 0.1, 0);
        let mut created: Vec<PodId> = Vec::new();
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            // Two steps share each instant, so reconcile sees ties on
            // creation time that only the pod id breaks.
            let now = SimTime::from_micros(step as u64 / 2);
            let live: Vec<PodId> = scan(&c, &created).iter().map(|p| p.id).collect();
            let pick = |k: u8| live.get(usize::from(k) % live.len().max(1)).copied();
            match op {
                0..=3 => {
                    let node = c.node_ids()[usize::from(a) % INDEX_NODES];
                    let func = FuncId(u32::from(b) % INDEX_FUNCS);
                    if let Ok(p) = c.create_pod(now, node, func, spec, 0) {
                        created.push(p);
                    }
                }
                4 | 5 => {
                    if let Some(p) = pick(a) {
                        c.begin_terminate(p).unwrap();
                    }
                }
                6 => {
                    if let Some(p) = pick(a) {
                        c.delete_pod(p).unwrap();
                    }
                }
                _ => {
                    let node = c.node_ids()[usize::from(a) % INDEX_NODES];
                    let lost = c.crash_node(now, node).unwrap();
                    let ids: Vec<PodId> = lost.iter().map(|p| p.id).collect();
                    let mut sorted = ids.clone();
                    sorted.sort();
                    prop_assert_eq!(ids, sorted, "crash victims come back in id order");
                }
            }
            assert_index_matches_scan(&c, &created);
        }
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = Cluster::unsnap(&mut r).unwrap();
        r.expect_done().unwrap();
        assert_index_matches_scan(&back, &created);
        let mut again = SnapWriter::new();
        back.snap(&mut again);
        prop_assert_eq!(again.finish(), bytes, "the index never reaches the bytes");
    }

    /// ResourceSpec areas multiply correctly and stay in [0, 1].
    #[test]
    fn resource_area_bounds(sm in 1u32..=100, q_lim_pct in 1u32..=100) {
        let q = q_lim_pct as f64 / 100.0;
        let spec = ResourceSpec::new(sm as f64, 0.0, q, 0);
        let area = spec.area();
        prop_assert!((0.0..=1.0).contains(&area));
        prop_assert!((area - sm as f64 / 100.0 * q).abs() < 1e-12);
    }
}
