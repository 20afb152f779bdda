//! Nodes, pods and their lifecycle.

use std::collections::BTreeMap;

use crate::spec::{FuncId, ResourceSpec};
use fastg_des::snap::{
    snap_enum, snap_newtype, snap_struct, Snap, SnapError, SnapReader, SnapWriter,
};
use fastg_des::{ArenaKey, IdArena, SimTime};
use fastg_gpu::{ClientId, DevicePtr, GpuDevice, GpuSpec, MpsMode};

/// Identifies a worker node (one GPU per node, as in the paper's testbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl ArenaKey for NodeId {
    fn index(self) -> usize {
        // u32 → usize is lossless on every supported target.
        // fastg-lint: allow(no-lossy-cast)
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        // Arena keys are dense indices; 2^32 nodes is unreachable,
        // truncating silently is not. fastg-lint: allow(no-panic-in-lib)
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

/// Identifies a pod (one function instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodId(pub u64);

impl ArenaKey for PodId {
    fn index(self) -> usize {
        // Pod ids are dense arena indices; exceeding the address
        // space is unreachable. fastg-lint: allow(no-panic-in-lib)
        usize::try_from(self.0).expect("pod index exceeds usize")
    }
    fn from_index(i: usize) -> Self {
        // usize → u64 is lossless on every supported target.
        // fastg-lint: allow(no-lossy-cast)
        PodId(i as u64)
    }
}

/// Pod lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodState {
    /// Serving (or ready to serve) requests.
    Running,
    /// Draining: finishes its in-flight request, accepts no new ones, then
    /// is deleted. This is how scale-down avoids dropping requests.
    Terminating,
}

/// Node health state (the failure-injection surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Healthy and schedulable.
    Up,
    /// Serving, but its GPU clock is scaled down (thermal throttling /
    /// ECC-retirement analogue): kernels run slower by the degradation
    /// factor. Still schedulable.
    Degraded,
    /// Crashed. Every pod on it is gone, its GPU was hard-reset, and no
    /// new pods may be placed on it. Crashes are permanent for a run.
    Down,
}

/// A worker node: one simulated GPU plus the MPS DaemonSet container.
#[derive(Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Node name, e.g. `gpu-worker-0`.
    pub name: String,
    /// The node's GPU (device + MPS server + memory + metrics).
    pub gpu: GpuDevice,
    /// Health state.
    pub state: NodeState,
}

/// A running function instance bound to a node.
#[derive(Debug, Clone)]
pub struct Pod {
    /// Pod id.
    pub id: PodId,
    /// The function this pod serves.
    pub func: FuncId,
    /// The node it is bound to.
    pub node: NodeId,
    /// Its MPS client on the node's GPU.
    pub client: ClientId,
    /// Its spatio-temporal resource annotations.
    pub resources: ResourceSpec,
    /// Device memory reserved at creation.
    pub memory: Option<DevicePtr>,
    /// Lifecycle state.
    pub state: PodState,
    /// Creation timestamp.
    pub created_at: SimTime,
}

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No node with that id.
    UnknownNode(NodeId),
    /// No pod with that id.
    UnknownPod(PodId),
    /// The node is crashed and cannot take pods.
    NodeDown(NodeId),
    /// The node's GPU could not admit the pod.
    Gpu(String),
    /// Not enough device memory on the node.
    OutOfMemory {
        /// Requested reservation in bytes.
        requested: u64,
        /// Free device memory in bytes.
        free: u64,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            ClusterError::UnknownPod(p) => write!(f, "unknown pod {p:?}"),
            ClusterError::NodeDown(n) => write!(f, "node {n:?} is down"),
            ClusterError::Gpu(e) => write!(f, "GPU error: {e}"),
            ClusterError::OutOfMemory { requested, free } => {
                write!(f, "node out of GPU memory: requested {requested} B, {free} B free")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The cluster: worker nodes and the pods scheduled onto them.
///
/// Both tables are arena-indexed by their dense monotone ids (node ids and
/// pod ids are handed out sequentially and never reused), so per-request
/// node/pod lookups are O(1) array accesses and iteration order stays the
/// ascending-id order the former `BTreeMap`s provided.
///
/// Membership queries ([`Self::pods_on`], [`Self::pods_of`],
/// [`Self::running_pods_of`], [`Self::reconcile`], [`Self::crash_node`])
/// read a derived index of pod ids per node and per function, kept in
/// ascending [`PodId`] order, so they cost the size of the answer rather
/// than a scan of every pod. The index is not serialized: `unsnap`
/// rebuilds it from the pod table, so snapshot bytes carry only the
/// tables themselves.
#[derive(Debug, Default)]
pub struct Cluster {
    nodes: IdArena<NodeId, Node>,
    pods: IdArena<PodId, Pod>,
    next_node: u32,
    next_pod: u64,
    members: Membership,
}

/// Pod ids per node and per function, each list in ascending id order —
/// derived from the pod table, never serialized.
#[derive(Debug, Default)]
struct Membership {
    /// One entry per node (nodes are never removed).
    by_node: IdArena<NodeId, Vec<PodId>>,
    /// Only functions with at least one pod have an entry. Keyed
    /// sparsely so a function id alone never sizes an allocation.
    by_func: BTreeMap<FuncId, Vec<PodId>>,
}

impl Membership {
    /// Records `pod`. Ids arrive in ascending order (fresh pods take the
    /// next id; a rebuild walks the pod table in order), so a push keeps
    /// each list sorted. Returns `false` if the pod's node is unknown.
    fn insert(&mut self, pod: &Pod) -> bool {
        let Some(on_node) = self.by_node.get_mut(pod.node) else {
            return false;
        };
        on_node.push(pod.id);
        self.by_func.entry(pod.func).or_default().push(pod.id);
        true
    }

    /// Forgets `pod` from its function's list; an emptied list is
    /// dropped so the index holds exactly the live functions.
    fn remove_from_func(&mut self, pod: &Pod) {
        if let Some(ids) = self.by_func.get_mut(&pod.func) {
            remove_sorted(ids, pod.id);
            if ids.is_empty() {
                self.by_func.remove(&pod.func);
            }
        }
    }

    /// Forgets `pod` from both lists.
    fn remove(&mut self, pod: &Pod) {
        if let Some(ids) = self.by_node.get_mut(pod.node) {
            remove_sorted(ids, pod.id);
        }
        self.remove_from_func(pod);
    }
}

fn remove_sorted(ids: &mut Vec<PodId>, id: PodId) {
    if let Ok(i) = ids.binary_search(&id) {
        ids.remove(i);
    }
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a worker node with one GPU of the given spec, running the MPS
    /// DaemonSet (shared mode) or the plain device plugin (exclusive mode).
    pub fn add_node(&mut self, spec: GpuSpec, mode: MpsMode) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let name = format!("gpu-worker-{}", id.0);
        self.nodes.insert(
            id,
            Node {
                id,
                name,
                gpu: GpuDevice::new(spec, mode),
                state: NodeState::Up,
            },
        );
        self.members.by_node.insert(id, Vec::new());
        id
    }

    /// Adds `n` identical nodes; returns their ids.
    pub fn add_nodes(&mut self, n: usize, spec: GpuSpec, mode: MpsMode) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node(spec.clone(), mode)).collect()
    }

    /// Node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().collect()
    }

    /// Nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> Result<&Node, ClusterError> {
        self.nodes.get(id).ok_or(ClusterError::UnknownNode(id))
    }

    /// Mutable node access (the platform drives the GPU through this).
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, ClusterError> {
        self.nodes.get_mut(id).ok_or(ClusterError::UnknownNode(id))
    }

    /// Creates a pod for `func` on `node`: registers an MPS client with the
    /// spec's SM partition and reserves `reserve_bytes` of device memory
    /// (which the caller computes — it differs under model sharing).
    pub fn create_pod(
        &mut self,
        now: SimTime,
        node: NodeId,
        func: FuncId,
        resources: ResourceSpec,
        reserve_bytes: u64,
    ) -> Result<PodId, ClusterError> {
        resources.validate();
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Err(ClusterError::NodeDown(node));
        }
        if n.gpu.memory().free_bytes() < reserve_bytes {
            return Err(ClusterError::OutOfMemory {
                requested: reserve_bytes,
                free: n.gpu.memory().free_bytes(),
            });
        }
        let client = n
            .gpu
            .register_client(resources.sm_partition)
            .map_err(|e| ClusterError::Gpu(e.to_string()))?;
        let memory = if reserve_bytes > 0 {
            match n.gpu.memory_mut().alloc(reserve_bytes) {
                Ok(ptr) => Some(ptr),
                Err(e) => {
                    // A freshly registered client has no work in flight, so
                    // this unregister cannot fail; if it somehow does the
                    // client leaks but pod creation still reports the OOM.
                    let unregistered = n.gpu.unregister_client(client);
                    debug_assert!(unregistered.is_ok(), "fresh client unregisters");
                    return Err(ClusterError::Gpu(e.to_string()));
                }
            }
        } else {
            None
        };
        let id = PodId(self.next_pod);
        self.next_pod += 1;
        let pod = Pod {
            id,
            func,
            node,
            client,
            resources,
            memory,
            state: PodState::Running,
            created_at: now,
        };
        let indexed = self.members.insert(&pod);
        debug_assert!(indexed, "node checked above");
        self.pods.insert(id, pod);
        Ok(id)
    }

    /// Marks a pod as draining (no new requests). Idempotent.
    pub fn begin_terminate(&mut self, pod: PodId) -> Result<(), ClusterError> {
        let p = self.pods.get_mut(pod).ok_or(ClusterError::UnknownPod(pod))?;
        p.state = PodState::Terminating;
        Ok(())
    }

    /// Removes a drained pod: frees its device memory and MPS client. The
    /// caller must ensure no kernels are in flight.
    pub fn delete_pod(&mut self, pod: PodId) -> Result<Pod, ClusterError> {
        let p = self.pods.remove(pod).ok_or(ClusterError::UnknownPod(pod))?;
        self.members.remove(&p);
        let n = self
            .nodes
            .get_mut(p.node)
            .ok_or(ClusterError::UnknownNode(p.node))?;
        if let Some(ptr) = p.memory {
            n.gpu
                .memory_mut()
                .free(ptr)
                .map_err(|e| ClusterError::Gpu(e.to_string()))?;
        }
        n.gpu
            .unregister_client(p.client)
            .map_err(|e| ClusterError::Gpu(e.to_string()))?;
        Ok(p)
    }

    /// A node fails outright: it is marked [`NodeState::Down`], every pod
    /// on it is removed (and returned, so the platform can unwind gateway
    /// routing, backend rows and rectangle bindings), and its GPU is
    /// hard-reset — resident and queued kernels are aborted, MPS clients
    /// deleted, and all device memory returned. Idempotent on a node that
    /// is already down (returns an empty list).
    pub fn crash_node(&mut self, now: SimTime, node: NodeId) -> Result<Vec<Pod>, ClusterError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Ok(Vec::new());
        }
        n.state = NodeState::Down;
        n.gpu.hard_reset(now);
        let victims = self
            .members
            .by_node
            .get_mut(node)
            .map(std::mem::take)
            .unwrap_or_default();
        let mut lost = Vec::with_capacity(victims.len());
        for id in victims {
            if let Some(p) = self.pods.remove(id) {
                self.members.remove_from_func(&p);
                lost.push(p);
            }
        }
        Ok(lost)
    }

    /// Degrades a node: its GPU clock slows by `factor` (≥ 1; 2.0 means
    /// kernels take twice as long). Applies to kernels started from now
    /// on; resident kernels keep their finish times.
    pub fn degrade_node(&mut self, node: NodeId, factor: f64) -> Result<(), ClusterError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Err(ClusterError::NodeDown(node));
        }
        n.state = NodeState::Degraded;
        n.gpu.set_clock_scale(factor);
        Ok(())
    }

    /// Clears a node's degradation (clock back to full speed). A crashed
    /// node stays down.
    pub fn recover_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(ClusterError::UnknownNode(node))?;
        if n.state == NodeState::Down {
            return Err(ClusterError::NodeDown(node));
        }
        n.state = NodeState::Up;
        n.gpu.set_clock_scale(1.0);
        Ok(())
    }

    /// A node's health state.
    pub fn node_state(&self, node: NodeId) -> Result<NodeState, ClusterError> {
        self.node(node).map(|n| n.state)
    }

    /// Ids of nodes that are not down, in order.
    pub fn live_node_ids(&self) -> Vec<NodeId> {
        self.nodes
            .values()
            .filter(|n| n.state != NodeState::Down)
            .map(|n| n.id)
            .collect()
    }

    /// Immutable pod access.
    pub fn pod(&self, id: PodId) -> Result<&Pod, ClusterError> {
        self.pods.get(id).ok_or(ClusterError::UnknownPod(id))
    }

    /// Replaces a pod's resource annotations. A pod's node and function
    /// are fixed at creation: they key the membership index.
    pub fn set_pod_resources(
        &mut self,
        id: PodId,
        resources: ResourceSpec,
    ) -> Result<(), ClusterError> {
        let p = self.pods.get_mut(id).ok_or(ClusterError::UnknownPod(id))?;
        p.resources = resources;
        Ok(())
    }

    /// All pods of a function, in id order.
    pub fn pods_of(&self, func: FuncId) -> &[PodId] {
        self.members.by_func.get(&func).map_or(&[], Vec::as_slice)
    }

    /// Running (non-terminating) pods of a function, in id order.
    pub fn running_pods_of(&self, func: FuncId) -> impl Iterator<Item = PodId> + '_ {
        self.running_of(func).map(|p| p.id)
    }

    /// Number of running (non-terminating) pods of a function.
    pub fn running_count(&self, func: FuncId) -> usize {
        self.running_of(func).count()
    }

    fn running_of(&self, func: FuncId) -> impl Iterator<Item = &Pod> + '_ {
        self.pods_of(func)
            .iter()
            .filter_map(|&id| self.pods.get(id))
            .filter(|p| p.state == PodState::Running)
    }

    /// All pods on a node, in id order.
    pub fn pods_on(&self, node: NodeId) -> &[PodId] {
        self.members.by_node.get(node).map_or(&[], Vec::as_slice)
    }

    /// Functions with at least one pod, in id order.
    pub fn funcs_with_pods(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.members.by_func.keys().copied()
    }

    /// Total pods.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Reconciliation helper (the FaSTPod controller loop): given a desired
    /// replica count for `func`, returns how many pods to create (positive)
    /// or which running pods to drain (chosen newest-first so the
    /// longest-lived, warmed instances survive).
    pub fn reconcile(&self, func: FuncId, desired: usize) -> ReconcileAction {
        let mut running: Vec<&Pod> = self.running_of(func).collect();
        if running.len() < desired {
            ReconcileAction::Create(desired - running.len())
        } else if running.len() > desired {
            running.sort_by_key(|p| std::cmp::Reverse((p.created_at, p.id))); // newest first
            ReconcileAction::Drain(
                running[..running.len() - desired]
                    .iter()
                    .map(|p| p.id)
                    .collect(),
            )
        } else {
            ReconcileAction::Steady
        }
    }
}

snap_newtype!(NodeId, PodId);

snap_enum!(PodState, "pod state tag" {
    0 => Running,
    1 => Terminating,
});

snap_enum!(NodeState, "node state tag" {
    0 => Up,
    1 => Degraded,
    2 => Down,
});

snap_struct!(Node {
    id,
    name,
    gpu,
    state
});

snap_struct!(Pod {
    id,
    func,
    node,
    client,
    resources,
    memory,
    state,
    created_at,
});

impl Snap for Cluster {
    fn snap(&self, w: &mut SnapWriter) {
        let Self {
            nodes,
            pods,
            next_node,
            next_pod,
            members: _,
        } = self;
        nodes.snap(w);
        pods.snap(w);
        w.u32(*next_node);
        w.u64(*next_pod);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let nodes: IdArena<NodeId, Node> = IdArena::unsnap(r)?;
        let pods: IdArena<PodId, Pod> = IdArena::unsnap(r)?;
        let next_node = r.u32()?;
        let next_pod = r.u64()?;
        if nodes.keys().any(|n| n.0 >= next_node) || pods.keys().any(|p| p.0 >= next_pod) {
            return Err(SnapError::new("cluster id space"));
        }
        // Rebuild the membership index. Lists are sized only by pushes of
        // pods actually present, never from an id read off the wire.
        let mut members = Membership::default();
        for id in nodes.keys() {
            members.by_node.insert(id, Vec::new());
        }
        for (id, pod) in pods.iter() {
            if pod.id != id {
                return Err(SnapError::new("cluster pod id"));
            }
            if !members.insert(pod) {
                return Err(SnapError::new("cluster pod on unknown node"));
            }
        }
        Ok(Cluster {
            nodes,
            pods,
            next_node,
            next_pod,
            members,
        })
    }
}

/// Outcome of a reconciliation pass for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconcileAction {
    /// Create this many new pods.
    Create(usize),
    /// Drain these pods (newest first).
    Drain(Vec<PodId>),
    /// Replicas already match.
    Steady,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ResourceSpec {
        ResourceSpec::new(12.0, 0.3, 0.8, 0)
    }

    fn cluster_with_node() -> (Cluster, NodeId) {
        let mut c = Cluster::new();
        let n = c.add_node(GpuSpec::v100(), MpsMode::Shared);
        (c, n)
    }

    #[test]
    fn create_and_delete_pod_round_trip() {
        let (mut c, n) = cluster_with_node();
        let pod = c
            .create_pod(SimTime::ZERO, n, FuncId(0), spec(), 1024)
            .unwrap();
        assert_eq!(c.pod_count(), 1);
        assert_eq!(c.node(n).unwrap().gpu.memory().used(), 1024);
        assert_eq!(c.node(n).unwrap().gpu.mps().client_count(), 1);
        c.delete_pod(pod).unwrap();
        assert_eq!(c.pod_count(), 0);
        assert_eq!(c.node(n).unwrap().gpu.memory().used(), 0);
        assert_eq!(c.node(n).unwrap().gpu.mps().client_count(), 0);
    }

    #[test]
    fn memory_capacity_enforced() {
        let mut c = Cluster::new();
        let n = c.add_node(GpuSpec::custom("small", 8, 1000), MpsMode::Shared);
        let err = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 2000);
        assert!(matches!(err, Err(ClusterError::OutOfMemory { .. })));
        // Failure leaves no stray MPS client.
        assert_eq!(c.node(n).unwrap().gpu.mps().client_count(), 0);
    }

    #[test]
    fn pods_of_filters_by_function_and_state() {
        let (mut c, n) = cluster_with_node();
        let a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0).unwrap();
        let b = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0).unwrap();
        let _x = c.create_pod(SimTime::ZERO, n, FuncId(1), spec(), 0).unwrap();
        assert_eq!(c.pods_of(FuncId(0)), vec![a, b]);
        c.begin_terminate(b).unwrap();
        assert_eq!(c.running_pods_of(FuncId(0)).collect::<Vec<_>>(), vec![a]);
        assert_eq!(c.running_count(FuncId(0)), 1);
        assert_eq!(c.pods_on(n).len(), 3);
    }

    #[test]
    fn reconcile_scales_up_and_down() {
        let (mut c, n) = cluster_with_node();
        assert_eq!(c.reconcile(FuncId(0), 2), ReconcileAction::Create(2));
        let a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0).unwrap();
        let b = c
            .create_pod(SimTime::from_secs(1), n, FuncId(0), spec(), 0)
            .unwrap();
        assert_eq!(c.reconcile(FuncId(0), 2), ReconcileAction::Steady);
        // Scale to one: the newest pod (b) drains.
        assert_eq!(c.reconcile(FuncId(0), 1), ReconcileAction::Drain(vec![b]));
        let _ = a;
    }

    #[test]
    fn unknown_ids_error() {
        let mut c = Cluster::new();
        assert!(matches!(
            c.create_pod(SimTime::ZERO, NodeId(5), FuncId(0), spec(), 0),
            Err(ClusterError::UnknownNode(_))
        ));
        assert!(matches!(c.delete_pod(PodId(9)), Err(ClusterError::UnknownPod(_))));
        assert!(c.pod(PodId(9)).is_err());
    }

    #[test]
    fn multiple_nodes_get_distinct_names() {
        let mut c = Cluster::new();
        let ids = c.add_nodes(4, GpuSpec::v100(), MpsMode::Shared);
        assert_eq!(ids.len(), 4);
        let names: Vec<_> = ids
            .iter()
            .map(|&i| c.node(i).unwrap().name.clone())
            .collect();
        assert_eq!(names[0], "gpu-worker-0");
        assert_eq!(names[3], "gpu-worker-3");
    }

    #[test]
    fn crash_node_removes_pods_and_resets_gpu() {
        let (mut c, n) = cluster_with_node();
        let a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 1024).unwrap();
        let _b = c.create_pod(SimTime::ZERO, n, FuncId(1), spec(), 2048).unwrap();
        assert_eq!(c.node_state(n).unwrap(), NodeState::Up);
        let lost = c.crash_node(SimTime::from_secs(1), n).unwrap();
        assert_eq!(lost.len(), 2);
        assert_eq!(c.pod_count(), 0);
        assert_eq!(c.node_state(n).unwrap(), NodeState::Down);
        // GPU fully reclaimed: no clients, no memory, all SMs free.
        let node = c.node(n).unwrap();
        assert_eq!(node.gpu.mps().client_count(), 0);
        assert_eq!(node.gpu.memory().used(), 0);
        assert_eq!(node.gpu.free_sms(), node.gpu.spec().sm_count);
        // Down nodes refuse new pods; a second crash is a no-op.
        assert!(matches!(
            c.create_pod(SimTime::from_secs(1), n, FuncId(0), spec(), 0),
            Err(ClusterError::NodeDown(_))
        ));
        assert!(c.crash_node(SimTime::from_secs(2), n).unwrap().is_empty());
        assert_eq!(c.live_node_ids(), Vec::<NodeId>::new());
        let _ = a;
    }

    #[test]
    fn degrade_and_recover_node() {
        let (mut c, n) = cluster_with_node();
        c.degrade_node(n, 2.0).unwrap();
        assert_eq!(c.node_state(n).unwrap(), NodeState::Degraded);
        assert_eq!(c.node(n).unwrap().gpu.clock_scale(), 2.0);
        // Degraded nodes still take pods.
        assert!(c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0).is_ok());
        c.recover_node(n).unwrap();
        assert_eq!(c.node_state(n).unwrap(), NodeState::Up);
        assert_eq!(c.node(n).unwrap().gpu.clock_scale(), 1.0);
        // A crashed node can be neither degraded nor recovered.
        c.crash_node(SimTime::ZERO, n).unwrap();
        assert!(matches!(c.degrade_node(n, 2.0), Err(ClusterError::NodeDown(_))));
        assert!(matches!(c.recover_node(n), Err(ClusterError::NodeDown(_))));
    }

    fn round_trip(c: &Cluster) -> Result<Cluster, SnapError> {
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = Cluster::unsnap(&mut r)?;
        r.expect_done()?;
        Ok(back)
    }

    #[test]
    fn unsnap_rebuilds_membership_index() {
        let mut c = Cluster::new();
        let ids = c.add_nodes(2, GpuSpec::v100(), MpsMode::Shared);
        let a = c.create_pod(SimTime::ZERO, ids[1], FuncId(3), spec(), 0).unwrap();
        let b = c.create_pod(SimTime::ZERO, ids[0], FuncId(3), spec(), 0).unwrap();
        c.begin_terminate(a).unwrap();
        let back = round_trip(&c).unwrap();
        assert_eq!(back.pods_on(ids[0]), [b]);
        assert_eq!(back.pods_on(ids[1]), [a]);
        assert_eq!(back.pods_of(FuncId(3)), [a, b]);
        assert_eq!(back.running_pods_of(FuncId(3)).collect::<Vec<_>>(), vec![b]);
        assert_eq!(back.funcs_with_pods().collect::<Vec<_>>(), vec![FuncId(3)]);
    }

    /// A snapshot whose pod names a node the cluster does not hold — the
    /// largest id included, which must not size any allocation — is a
    /// typed decode error.
    #[test]
    fn unsnap_rejects_pod_on_unknown_node() {
        for bad in [NodeId(1), NodeId(u32::MAX)] {
            let (mut c, n) = cluster_with_node();
            let pod = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0).unwrap();
            if let Some(p) = c.pods.get_mut(pod) {
                p.node = bad;
            }
            assert_eq!(
                round_trip(&c).err(),
                Some(SnapError::new("cluster pod on unknown node"))
            );
        }
    }

    /// A pod whose recorded id disagrees with its slot is rejected.
    #[test]
    fn unsnap_rejects_mismatched_pod_id() {
        let (mut c, n) = cluster_with_node();
        let pod = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0).unwrap();
        if let Some(p) = c.pods.get_mut(pod) {
            p.id = PodId(7);
        }
        assert_eq!(round_trip(&c).err(), Some(SnapError::new("cluster pod id")));
    }

    #[test]
    fn exclusive_node_admits_single_pod() {
        let mut c = Cluster::new();
        let n = c.add_node(GpuSpec::v100(), MpsMode::Exclusive);
        let _a = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0).unwrap();
        let err = c.create_pod(SimTime::ZERO, n, FuncId(0), spec(), 0);
        assert!(matches!(err, Err(ClusterError::Gpu(_))));
    }
}
