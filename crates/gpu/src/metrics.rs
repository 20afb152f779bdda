//! DCGM-exporter-style GPU metrics.
//!
//! Two headline signals, with the exact semantics the paper's measurements
//! rely on:
//!
//! * **Utilization** (`nvidia-smi` "GPU-Util"): the fraction of wall-clock
//!   time during which *at least one* kernel was resident. A single tiny
//!   kernel keeps utilization at 100 %, which is why Figure 1b can show
//!   > 95 % utilization with < 10 % SM occupancy.
//! * **SM occupancy**: the time-weighted mean fraction of SMs occupied by
//!   resident kernels.

use crate::device::ClientId;
use fastg_des::snap::{snap_struct, SnapError};
use fastg_des::{BusyTracker, SimTime, TimeSeries, TimeWeighted};
use std::collections::BTreeMap;

/// A snapshot of the GPU's aggregate counters over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuWindowStats {
    /// Busy fraction (0..=1) of the window.
    pub utilization: f64,
    /// Mean fraction (0..=1) of SMs occupied over the window.
    pub sm_occupancy: f64,
    /// Kernels completed during the window.
    pub kernels_completed: u64,
}

/// One instant of a recorded request cycle: the cumulative busy time and
/// raw occupancy integral (SM × µs, see
/// [`fastg_des::TimeWeighted::raw_integral_at`]) at `at`, and the levels
/// both signals hold from `at` until the next point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Instant of the boundary (after every change at that instant).
    at: SimTime,
    /// Busy time accumulated through `at`.
    busy: SimTime,
    /// Raw occupancy integral through `at`.
    occ_raw: f64,
    /// Whether at least one kernel is resident from `at` on.
    busy_on: bool,
    /// SMs occupied from `at` on.
    occupied: f64,
}

/// A steady request cycle's GPU signals as functions of the offset `τ`
/// since its arrival: cumulative busy time `B(τ)` and raw occupancy
/// integral `O(τ)`, built from the recording of one real cycle.
///
/// Every value is exact (integer `SimTime` sums, integer-valued `f64`
/// far below 2⁵³), so reading `O(τ)` at a metrics sample and crediting
/// `O(L) − O(τ)` at the end of the cycle lands bit-identically on what
/// the event-by-event cycle accumulates on either side of the sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleProfile {
    /// Boundaries with `at`, `busy` and `occ_raw` relative to the
    /// cycle's arrival, strictly increasing in `at`.
    points: Vec<ProfilePoint>,
}

impl CycleProfile {
    /// Builds the profile of the cycle that arrived at `arrival` and
    /// completed at `completion` from the boundaries `log` recorded
    /// meanwhile (rebased in place), with the busy/occupancy totals
    /// `base` read at `arrival`. Returns `None` unless the recording is
    /// a well-formed cycle: every boundary inside `[arrival, completion]`,
    /// in time order, and the GPU idle after the last one.
    pub fn from_recording(
        mut log: Vec<ProfilePoint>,
        arrival: SimTime,
        completion: SimTime,
        base: (SimTime, f64),
    ) -> Option<Self> {
        for p in &mut log {
            if p.at < arrival || p.at > completion || p.busy < base.0 {
                return None;
            }
            p.at -= arrival;
            p.busy -= base.0;
            p.occ_raw -= base.1;
        }
        let profile = CycleProfile { points: log };
        profile.well_formed().then_some(profile)
    }

    /// `(B(τ), O(τ))`: busy time and raw occupancy integral of the cycle
    /// through `offset` past its arrival.
    pub fn at(&self, offset: SimTime) -> (SimTime, f64) {
        let i = self.points.partition_point(|p| p.at <= offset);
        let Some(p) = i.checked_sub(1).and_then(|i| self.points.get(i)) else {
            return (SimTime::ZERO, 0.0);
        };
        let dt = offset - p.at;
        let busy = if p.busy_on { p.busy + dt } else { p.busy };
        // u64→f64: dt is far below 2^53 µs.
        // fastg-lint: allow(no-lossy-cast)
        (busy, p.occ_raw + p.occupied * dt.as_micros() as f64)
    }

    /// Strictly increasing offsets, busy time never ahead of the offset
    /// (so [`Self::at`] cannot overflow), finite occupancy, and an idle
    /// GPU after the last boundary.
    fn well_formed(&self) -> bool {
        let ordered = self.points.windows(2).all(|w| w[0].at < w[1].at);
        let bounded = self
            .points
            .iter()
            .all(|p| p.busy <= p.at && p.occ_raw.is_finite() && p.occupied.is_finite());
        let idle_after = self
            .points
            .last()
            .map_or(true, |p| !p.busy_on && p.occupied.to_bits() == 0);
        ordered && bounded && idle_after
    }
}

snap_struct!(ProfilePoint {
    at,
    busy,
    occ_raw,
    busy_on,
    occupied
});

snap_struct!(
    CycleProfile { points },
    check = |profile: &CycleProfile| {
        if !profile.well_formed() {
            return Err(SnapError::new("cycle profile"));
        }
        Ok(())
    }
);

/// Live metric accounting for one GPU.
#[derive(Debug, Clone)]
pub struct GpuMetrics {
    sm_count: u32,
    util: BusyTracker,
    occupied_sms: TimeWeighted,
    kernels_completed: u64,
    window_kernels: u64,
    per_client_busy: BTreeMap<ClientId, SimTime>,
    util_series: TimeSeries,
    occ_series: TimeSeries,
    window_start: SimTime,
    /// Boundaries of the request cycle cluster fast-forward is measuring
    /// on this GPU, `None` when not measuring. Not part of this type's
    /// snapshot: the engine carries it with the armed phase that owns it.
    recording: Option<Vec<ProfilePoint>>,
}

impl GpuMetrics {
    /// Creates metric accounting for a GPU with `sm_count` SMs, starting at
    /// time zero.
    pub fn new(sm_count: u32) -> Self {
        GpuMetrics {
            sm_count,
            util: BusyTracker::new(SimTime::ZERO),
            occupied_sms: TimeWeighted::new(SimTime::ZERO, 0.0),
            kernels_completed: 0,
            window_kernels: 0,
            per_client_busy: BTreeMap::new(),
            util_series: TimeSeries::new(),
            occ_series: TimeSeries::new(),
            window_start: SimTime::ZERO,
            recording: None,
        }
    }

    /// Records a kernel starting with `granted_sms` SMs.
    pub fn kernel_started(&mut self, now: SimTime, granted_sms: u32) {
        self.util.begin(now);
        self.occupied_sms.add(now, granted_sms as f64);
        self.record(now);
    }

    /// Records a kernel finishing; `gpu_time` is its residency duration and
    /// `client` the MPS client it belonged to.
    pub fn kernel_finished(
        &mut self,
        now: SimTime,
        client: ClientId,
        granted_sms: u32,
        gpu_time: SimTime,
    ) {
        self.util.end(now);
        self.occupied_sms.add(now, -(granted_sms as f64));
        self.record(now);
        self.kernels_completed += 1;
        self.window_kernels += 1;
        *self
            .per_client_busy
            .entry(client)
            .or_insert(SimTime::ZERO) += gpu_time;
    }

    /// The pure time-integral half of [`Self::kernel_finished`] — busy
    /// interval end plus SM release — without the completion tallies. The
    /// fast-forward drain applies these boundaries one by one (their order
    /// against other clients' boundaries is what report parity hangs on)
    /// and batches the commutative integer counters through
    /// [`Self::tally_finished`] instead.
    pub fn kernel_finish_boundary(&mut self, now: SimTime, granted_sms: u32) {
        self.util.end(now);
        self.occupied_sms.add(now, -(granted_sms as f64));
        self.record(now);
    }

    /// The merged boundary of a back-to-back kernel handoff: one kernel
    /// finishes and its successor starts at the same instant `now`.
    /// Bit-identical to [`Self::kernel_finish_boundary`] followed by
    /// [`Self::kernel_started`] at equal timestamps: the busy tracker's
    /// end+begin pair telescopes to a no-op (integer busy sums are
    /// associative and the active count is unchanged), and the two
    /// occupancy deltas — exact small integers in `f64` — sum into one.
    pub fn kernel_handoff(&mut self, now: SimTime, finished_sms: u32, started_sms: u32) {
        self.occupied_sms
            .add(now, f64::from(started_sms) - f64::from(finished_sms));
        self.record(now);
    }

    /// Batched counter updates equivalent to `kernels` individual
    /// [`Self::kernel_finished`] calls whose boundary halves were already
    /// applied via [`Self::kernel_finish_boundary`]: pure integer sums, so
    /// one call per sync is bit-identical to one call per kernel.
    pub fn tally_finished(&mut self, client: ClientId, kernels: u64, busy: SimTime) {
        if kernels == 0 {
            return;
        }
        self.kernels_completed += kernels;
        self.window_kernels += kernels;
        *self
            .per_client_busy
            .entry(client)
            .or_insert(SimTime::ZERO) += busy;
    }

    /// Records a resident kernel being aborted (node crash / hard reset):
    /// its busy interval and SM occupancy end at `now`, but it counts
    /// neither as a completion nor toward any client's busy time — the work
    /// was lost, not served.
    pub fn kernel_aborted(&mut self, now: SimTime, granted_sms: u32) {
        self.util.end(now);
        self.occupied_sms.add(now, -(granted_sms as f64));
        self.record(now);
    }

    /// Appends the signals' state after a boundary at `now` to the
    /// recording, if one is running; boundaries at one instant fold into
    /// a single point.
    fn record(&mut self, now: SimTime) {
        let Some(log) = self.recording.as_mut() else {
            return;
        };
        let point = ProfilePoint {
            at: now,
            busy: self.util.busy_at(now),
            occ_raw: self.occupied_sms.raw_integral_at(now),
            busy_on: self.util.active() > 0,
            occupied: self.occupied_sms.current(),
        };
        match log.last_mut() {
            Some(last) if last.at == now => *last = point,
            _ => log.push(point),
        }
    }

    /// Starts recording every busy/occupancy boundary onto `log` (empty
    /// for a fresh measurement; a restored one continues its own log).
    pub fn start_recording(&mut self, log: Vec<ProfilePoint>) {
        self.recording = Some(log);
    }

    /// Stops recording and hands back the boundaries recorded so far.
    pub fn take_recording(&mut self) -> Option<Vec<ProfilePoint>> {
        self.recording.take()
    }

    /// The boundaries recorded so far, if recording.
    pub fn recording(&self) -> Option<&[ProfilePoint]> {
        self.recording.as_deref()
    }

    /// Closes the current sampling window at `now`, appends the samples to
    /// the exported series, and opens a new window. Returns the window's
    /// stats (the DCGM-exporter scrape analogue).
    pub fn sample(&mut self, now: SimTime) -> GpuWindowStats {
        let stats = self.window_stats(now);
        self.util_series.push(now, stats.utilization);
        self.occ_series.push(now, stats.sm_occupancy);
        self.util.reset(now);
        self.occupied_sms.reset(now);
        self.window_start = now;
        self.window_kernels = 0;
        stats
    }

    /// Stats for the window open since the last [`Self::sample`] (or start),
    /// without closing it.
    pub fn window_stats(&self, now: SimTime) -> GpuWindowStats {
        GpuWindowStats {
            utilization: self.util.utilization_at(now),
            sm_occupancy: self.occupied_sms.mean_at(now) / self.sm_count as f64,
            kernels_completed: self.window_kernels,
        }
    }

    /// Total kernels completed since creation.
    pub fn total_kernels(&self) -> u64 {
        self.kernels_completed
    }

    /// A probe of the counters cluster fast-forward snapshots around one
    /// real template cycle: `(busy_total, raw occupancy integral, total
    /// kernels, client busy)`. All four are exact quantities (integer
    /// SimTime sums and integer-valued `f64`), so the per-cycle deltas the
    /// caller derives are exact too.
    pub fn steady_probe(&self, now: SimTime, client: ClientId) -> (SimTime, f64, u64, SimTime) {
        (
            self.util.busy_at(now),
            self.occupied_sms.raw_integral_at(now),
            self.kernels_completed,
            self.client_busy(client),
        )
    }

    /// Credits coalesced steady-cycle work in closed form: `busy` and
    /// `occ_raw` into the open window's busy time and raw occupancy
    /// integral, `kernels` and `client_busy` into the completion tallies.
    /// Bit-identical to the event-driven path, because every credited
    /// quantity is exact integer arithmetic (see
    /// [`fastg_des::TimeWeighted::credit_raw`]). Only valid while the
    /// device is idle (no resident kernels), which holds whenever cluster
    /// fast-forward runs a node's cycles in closed form.
    pub fn credit_steady(
        &mut self,
        client: ClientId,
        busy: SimTime,
        occ_raw: f64,
        kernels: u64,
        client_busy: SimTime,
    ) {
        debug_assert_eq!(self.util.active(), 0, "credit while kernels resident");
        self.util.credit(busy);
        self.occupied_sms.credit_raw(occ_raw);
        self.tally_finished(client, kernels, client_busy);
    }

    /// Cumulative GPU busy time attributed to `client` (the Gemini-style
    /// usage monitor the FaST Backend charges quotas from).
    pub fn client_busy(&self, client: ClientId) -> SimTime {
        self.per_client_busy
            .get(&client)
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// The exported utilization series (one point per sample call).
    pub fn utilization_series(&self) -> &TimeSeries {
        &self.util_series
    }

    /// The exported SM-occupancy series (one point per sample call).
    pub fn occupancy_series(&self) -> &TimeSeries {
        &self.occ_series
    }

    /// Number of SMs this accounting was created for.
    pub fn sm_count(&self) -> u32 {
        self.sm_count
    }

    /// Number of kernels currently resident.
    pub fn resident_kernels(&self) -> u32 {
        self.util.active()
    }
}

// The profile recording of an armed node is not part of the device's own
// snapshot: the engine writes it after its phase table and reinstalls it.
snap_struct!(GpuMetrics {
    sm_count,
    util,
    occupied_sms,
    kernels_completed,
    window_kernels,
    per_client_busy,
    util_series,
    occ_series,
    window_start,
} skip { recording });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_vs_occupancy_divergence() {
        // One 8-SM kernel resident the whole time on an 80-SM GPU:
        // utilization 100 %, occupancy 10 %. This is the Figure 1 effect.
        let mut m = GpuMetrics::new(80);
        m.kernel_started(SimTime::ZERO, 8);
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.utilization - 1.0).abs() < 1e-9);
        assert!((stats.sm_occupancy - 0.1).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_lower_utilization() {
        let mut m = GpuMetrics::new(80);
        m.kernel_started(SimTime::ZERO, 80);
        m.kernel_finished(SimTime::from_millis(250), ClientId(0), 80, SimTime::from_millis(250));
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.utilization - 0.25).abs() < 1e-9);
        assert!((stats.sm_occupancy - 0.25).abs() < 1e-9);
        assert_eq!(stats.kernels_completed, 1);
    }

    #[test]
    fn sampling_resets_window() {
        let mut m = GpuMetrics::new(10);
        m.kernel_started(SimTime::ZERO, 10);
        m.kernel_finished(SimTime::from_millis(500), ClientId(1), 10, SimTime::from_millis(500));
        let w1 = m.sample(SimTime::from_secs(1));
        assert!((w1.utilization - 0.5).abs() < 1e-9);
        assert_eq!(w1.kernels_completed, 1);
        // Second window: idle.
        let w2 = m.sample(SimTime::from_secs(2));
        assert_eq!(w2.utilization, 0.0);
        assert_eq!(w2.kernels_completed, 0);
        assert_eq!(m.utilization_series().len(), 2);
        assert_eq!(m.total_kernels(), 1);
    }

    #[test]
    fn per_client_busy_accumulates() {
        let mut m = GpuMetrics::new(80);
        let c = ClientId(3);
        m.kernel_started(SimTime::ZERO, 4);
        m.kernel_finished(SimTime::from_millis(10), c, 4, SimTime::from_millis(10));
        m.kernel_started(SimTime::from_millis(20), 4);
        m.kernel_finished(SimTime::from_millis(35), c, 4, SimTime::from_millis(15));
        assert_eq!(m.client_busy(c), SimTime::from_millis(25));
        assert_eq!(m.client_busy(ClientId(9)), SimTime::ZERO);
    }

    #[test]
    fn recorded_profile_reads_partial_cycles_exactly() {
        // A cycle arriving at 10 ms: 8 SMs over 12..15 ms, handoff to 4
        // SMs until 18 ms, idle, then 8 SMs over 20..21 ms.
        let ms = SimTime::from_millis;
        let mut m = GpuMetrics::new(80);
        m.start_recording(Vec::new());
        m.kernel_started(ms(12), 8);
        m.kernel_handoff(ms(15), 8, 4);
        m.kernel_finished(ms(18), ClientId(0), 4, ms(6));
        m.kernel_started(ms(20), 8);
        m.kernel_finish_boundary(ms(21), 8);
        let log = m.take_recording().unwrap();
        assert_eq!(log.len(), 5);
        let base = (SimTime::ZERO, 0.0);
        let p = CycleProfile::from_recording(log.clone(), ms(10), ms(22), base).unwrap();
        assert_eq!(p.at(ms(1)), (SimTime::ZERO, 0.0));
        assert_eq!(p.at(ms(4)), (ms(2), 16_000.0));
        assert_eq!(p.at(ms(9)), (ms(6), 36_000.0));
        assert_eq!(p.at(ms(12)), (ms(7), 44_000.0));
        // The whole cycle equals what the trackers measured.
        assert_eq!(p.at(ms(12)).0, m.steady_probe(ms(22), ClientId(0)).0);
        assert_eq!(p.at(ms(12)).1, m.steady_probe(ms(22), ClientId(0)).1);
        // A boundary outside the cycle, or a busy GPU at its end, is no
        // cycle at all.
        assert!(CycleProfile::from_recording(log.clone(), ms(13), ms(22), base).is_none());
        assert!(CycleProfile::from_recording(log[..4].to_vec(), ms(10), ms(22), base).is_none());
    }

    #[test]
    fn overlapping_kernels_sum_occupancy() {
        let mut m = GpuMetrics::new(80);
        m.kernel_started(SimTime::ZERO, 20);
        m.kernel_started(SimTime::ZERO, 20);
        assert_eq!(m.resident_kernels(), 2);
        let stats = m.window_stats(SimTime::from_secs(1));
        assert!((stats.sm_occupancy - 0.5).abs() < 1e-9);
        assert!((stats.utilization - 1.0).abs() < 1e-9);
    }
}
