//! The GPU sharing policies compared in the paper's evaluation.

use fastg_des::snap::snap_enum;

/// How a node's GPU is shared among function pods.
///
/// These are the four mechanisms §5 compares:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Kubernetes device plugin: one pod owns the whole GPU (Figure 1a).
    /// No MPS, no tokens.
    Exclusive,
    /// Time sharing à la Gemini/KubeShare (Figure 1b and the "time
    /// sharing" comparator throughout §5): quota-managed, but at most one
    /// pod holds the token at a time and every pod runs un-partitioned
    /// (100 % SMs). The GPU idles during the holder's host-side gaps,
    /// which caps aggregate throughput at a single racing pod's.
    SingleToken,
    /// MPS over-subscription without temporal control ("racing" in §5.3):
    /// every pod launches whenever it likes, kernels contend for SMs.
    Racing,
    /// FaST-GShare: multi-token temporal scheduling + MPS spatial
    /// partitions, coordinated by the SM Allocation Adapter.
    FaST,
}

impl SharingPolicy {
    /// Whether pods under this policy go through the token protocol.
    pub fn uses_tokens(self) -> bool {
        matches!(self, SharingPolicy::SingleToken | SharingPolicy::FaST)
    }

    /// Whether MPS spatial partitions are honoured (otherwise every pod is
    /// registered at 100 % active threads).
    pub fn uses_partitions(self) -> bool {
        matches!(self, SharingPolicy::FaST | SharingPolicy::Racing)
    }

    /// The SM share the allocation adapter charges for a pod with spec
    /// partition `sm_partition`: under `SingleToken` every holder is
    /// charged the full GPU, which reduces the multi-token scheduler to
    /// exactly one token in flight.
    pub fn adapter_share(self, sm_partition: f64) -> f64 {
        match self {
            SharingPolicy::SingleToken => 100.0,
            _ => sm_partition,
        }
    }
}

impl std::fmt::Display for SharingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SharingPolicy::Exclusive => "exclusive",
            SharingPolicy::SingleToken => "time-sharing",
            SharingPolicy::Racing => "racing",
            SharingPolicy::FaST => "fast-gshare",
        };
        f.write_str(s)
    }
}

/// Which placement engine drives node selection and rectangle packing —
/// the scheduler arena's policy axis, orthogonal to [`SharingPolicy`]
/// (which governs the *per-GPU* token/partition mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedPolicy {
    /// The paper's Algorithm 1/2 over the maximal-rects reference
    /// allocator (`GpuRects`) — the digest-pinned default.
    Paper,
    /// The same best-area-fit intent over the guillotine free-list
    /// allocator with a bucketed free-capacity node index: O(log)-ish
    /// placement under churn.
    FastPath,
    /// ParvaGPU-style demand matching: demands are quantized up to MIG
    /// compute-slice percents (SM axis) and MPS 5 % quota segments
    /// (quota axis), then matched tightest-class-first.
    DemandMatch,
    /// Tally-style priority co-location: latency-critical pods (no
    /// elastic quota headroom) spread to the least-loaded GPU; best-effort
    /// pods pack onto the busiest.
    PriorityColocate,
}

impl SchedPolicy {
    /// Whether this policy runs on the guillotine arena (everything but
    /// the digest-pinned paper reference).
    pub fn uses_arena(self) -> bool {
        !matches!(self, SchedPolicy::Paper)
    }

    /// Parses the `FASTG_SCHED` environment value. Unknown values fall
    /// back to the paper reference so a typo can never silently change
    /// digests to a non-pinned family.
    pub fn from_env_value(value: &str) -> Self {
        match value.trim().to_ascii_lowercase().as_str() {
            "fast" | "fastpath" | "guillotine" => SchedPolicy::FastPath,
            "demand" | "demand-match" | "parvagpu" => SchedPolicy::DemandMatch,
            "priority" | "colocate" | "tally" => SchedPolicy::PriorityColocate,
            _ => SchedPolicy::Paper,
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedPolicy::Paper => "paper-algo1",
            SchedPolicy::FastPath => "fast-path",
            SchedPolicy::DemandMatch => "demand-match",
            SchedPolicy::PriorityColocate => "priority-colocate",
        };
        f.write_str(s)
    }
}

snap_enum!(SharingPolicy, "sharing policy tag" {
    0 => Exclusive,
    1 => SingleToken,
    2 => Racing,
    3 => FaST,
});

snap_enum!(SchedPolicy, "sched policy tag" {
    0 => Paper,
    1 => FastPath,
    2 => DemandMatch,
    3 => PriorityColocate,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_and_partition_matrix() {
        assert!(!SharingPolicy::Exclusive.uses_tokens());
        assert!(SharingPolicy::SingleToken.uses_tokens());
        assert!(!SharingPolicy::Racing.uses_tokens());
        assert!(SharingPolicy::FaST.uses_tokens());

        assert!(!SharingPolicy::Exclusive.uses_partitions());
        assert!(!SharingPolicy::SingleToken.uses_partitions());
        assert!(SharingPolicy::Racing.uses_partitions());
        assert!(SharingPolicy::FaST.uses_partitions());
    }

    #[test]
    fn single_token_charges_full_gpu() {
        assert_eq!(SharingPolicy::SingleToken.adapter_share(12.0), 100.0);
        assert_eq!(SharingPolicy::FaST.adapter_share(12.0), 12.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(SharingPolicy::FaST.to_string(), "fast-gshare");
        assert_eq!(SharingPolicy::SingleToken.to_string(), "time-sharing");
    }

    #[test]
    fn sched_policy_env_parsing_defaults_to_paper() {
        assert_eq!(SchedPolicy::from_env_value("fast"), SchedPolicy::FastPath);
        assert_eq!(
            SchedPolicy::from_env_value(" Guillotine "),
            SchedPolicy::FastPath
        );
        assert_eq!(
            SchedPolicy::from_env_value("demand"),
            SchedPolicy::DemandMatch
        );
        assert_eq!(
            SchedPolicy::from_env_value("tally"),
            SchedPolicy::PriorityColocate
        );
        assert_eq!(SchedPolicy::from_env_value("paper"), SchedPolicy::Paper);
        assert_eq!(SchedPolicy::from_env_value("bogus"), SchedPolicy::Paper);
        assert!(!SchedPolicy::Paper.uses_arena());
        assert!(SchedPolicy::FastPath.uses_arena());
        assert_eq!(SchedPolicy::DemandMatch.to_string(), "demand-match");
    }
}
