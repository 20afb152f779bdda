//! Measurement plumbing shared by the workloads: host-side span timing,
//! the modelled (simulated-platform) metrics, the correctness gate and
//! the per-layer record.

use fastgshare::platform::{Platform, PlatformReport};
use std::time::Instant;

/// Runs `f` and returns its value with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a list of report digests: one fingerprint for a sweep.
pub fn combine_digests(digests: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        for b in d.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Completions a function needs before its p99 counts toward `p99_ms`.
pub const P99_MIN_SAMPLES: u64 = 1000;

/// What the simulated platform delivered, pooled over one report or
/// over every cell of a sweep.
#[derive(Debug, Clone, Default)]
pub struct Modelled {
    reports: usize,
    goodput_rps: f64,
    arrivals: u64,
    violations: u64,
    failed: u64,
    fn_p50_ms: Vec<f64>,
    /// Σ over reports of each report's worst qualifying p99.
    worst_p99_ms: f64,
    /// Σ over reports of the completions behind that p99.
    p99_samples: u64,
    gpus: usize,
}

impl Modelled {
    /// Pools one report in.
    pub fn add(&mut self, r: &PlatformReport) {
        self.reports += 1;
        self.goodput_rps += r.total_goodput();
        let mut worst = (0.0, 0);
        for f in r.functions.values() {
            self.arrivals += f.arrivals;
            self.violations += f.slo_violations;
            self.failed += f.dropped + f.rejected + f.shed_deadline;
            if f.completed > 0 {
                self.fn_p50_ms.push(f.p50.as_millis_f64());
            }
            let p99 = f.p99.as_millis_f64();
            if f.completed >= P99_MIN_SAMPLES && p99 > worst.0 {
                worst = (p99, f.completed);
            }
        }
        self.worst_p99_ms += worst.0;
        self.p99_samples += worst.1;
        self.gpus += r.nodes.iter().filter(|n| n.pods > 0).count();
    }

    /// SLO-met completions per second after warmup, summed over
    /// functions (mean per report when pooled over sweep cells).
    pub fn goodput_rps(&self) -> f64 {
        self.goodput_rps / self.reports.max(1) as f64
    }

    /// `(SLO violations + failed requests) / arrivals`.
    pub fn slo_violation_ratio(&self) -> f64 {
        (self.violations + self.failed) as f64 / self.arrivals.max(1) as f64
    }

    /// `(dropped + rejected + shed_deadline) / arrivals`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.arrivals.max(1) as f64
    }

    /// Median over functions of each function's p50.
    pub fn p50_ms(&self) -> f64 {
        median(&self.fn_p50_ms)
    }

    /// Worst per-function p99 among functions with at least
    /// [`P99_MIN_SAMPLES`] completions, with that function's sample count
    /// (mean per report, and total samples, when pooled over sweep
    /// cells: the worst over every cell is an extreme of extremes that
    /// moves by whole histogram buckets from seed to seed).
    pub fn p99_ms(&self) -> (f64, u64) {
        (
            self.worst_p99_ms / self.reports.max(1) as f64,
            self.p99_samples,
        )
    }

    /// GPUs hosting at least one pod at the end of the run (mean per
    /// report when pooled over sweep cells).
    pub fn gpus_used(&self) -> f64 {
        self.gpus as f64 / self.reports.max(1) as f64
    }

    /// Requests that arrived, over every pooled report.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }
}

/// The correctness checks of one run; any failure fails the run.
#[derive(Debug, Default)]
pub struct Gate {
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records a failure described by `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Unwraps a set-up result, recording its error as a failure.
    pub fn built<T>(&mut self, built: Result<T, String>) -> Option<T> {
        built
            .map_err(|e| self.failures.push(format!("set-up failed: {e}")))
            .ok()
    }

    /// The conservation identity, per function: every arrival is
    /// completed, dropped, rejected, deadline-shed, still queued at the
    /// gateway or executing on a pod. In-flight requests are only known
    /// platform-wide, so each function's unaccounted remainder must be
    /// non-negative and the remainders must sum to the in-flight count.
    pub fn conservation(&mut self, label: &str, p: &Platform, r: &PlatformReport) {
        let mut in_flight = 0u64;
        for (&id, f) in &r.functions {
            let queued = u64::try_from(p.queued_requests(id)).unwrap_or(u64::MAX);
            let settled = f.completed + f.dropped + f.rejected + f.shed_deadline + queued;
            self.check(settled <= f.arrivals, || {
                format!(
                    "{label}: {} accounts for {settled} requests but only {} arrived",
                    f.name, f.arrivals
                )
            });
            in_flight += f.arrivals.saturating_sub(settled);
        }
        let live = u64::try_from(p.in_flight_requests()).unwrap_or(u64::MAX);
        self.check(in_flight == live, || {
            format!("{label}: {in_flight} requests unaccounted, {live} in flight")
        });
    }

    /// The report-level bound for runs whose platform is gone (sweep
    /// cells): no function settles more requests than arrived.
    pub fn report_bound(&mut self, label: &str, r: &PlatformReport) {
        for f in r.functions.values() {
            let settled = f.completed + f.dropped + f.rejected + f.shed_deadline;
            self.check(settled <= f.arrivals, || {
                format!(
                    "{label}: {} settles {settled} requests but only {} arrived",
                    f.name, f.arrivals
                )
            });
        }
    }
}

/// Every per-layer metric with its unit, in output order. A traced run
/// prints all of them; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("des.events", "count"),
    ("des.events_per_sim_s", "1/sim_s"),
    ("des.ns_per_event", "ns"),
    ("events.arrival", "count"),
    ("events.host_done", "count"),
    ("events.kernel_finish", "count"),
    ("events.burst_ff", "count"),
    ("events.window_reset", "count"),
    ("events.dispatch", "count"),
    ("events.scale_tick", "count"),
    ("events.metrics_sample", "count"),
    ("events.breaker_tick", "count"),
    ("events.request_timeout", "count"),
    ("events.fault", "count"),
    ("events.health_tick", "count"),
    ("gpu.kernels", "count"),
    ("gpu.ff_bursts", "count"),
    ("gpu.coalesced_kernels", "count"),
    ("gpu.coalesced_share", "ratio"),
    ("gpu.utilization", "ratio"),
    ("gpu.sm_occupancy", "ratio"),
    ("cluster_ff.cycles", "count"),
    ("cluster_ff.coalesced_events", "count"),
    ("cluster_ff.share", "ratio"),
    ("scheduler.placements", "count"),
    ("scheduler.releases", "count"),
    ("scheduler.rejects", "count"),
    ("scheduler.probes", "count"),
    ("scheduler.exact_fallbacks", "count"),
    ("scheduler.probes_per_placement", "ratio"),
    ("scheduler.unschedulable", "count"),
    ("scheduler.fragmentation", "ratio"),
    ("platform.new_ms", "ms"),
    ("platform.deploy_ms", "ms"),
    ("platform.set_load_ms", "ms"),
    ("platform.run_ms", "ms"),
    ("profiler.trials", "count"),
    ("profiler.ms", "ms"),
    ("workload.arrivals", "count"),
    ("workload.gen_ms", "ms"),
    ("gateway.arrivals", "count"),
    ("gateway.completed", "count"),
    ("gateway.dropped", "count"),
    ("gateway.queued_end", "count"),
    ("gateway.in_flight_end", "count"),
    ("overload.rejected", "count"),
    ("overload.shed_deadline", "count"),
    ("overload.browned_out", "count"),
    ("overload.breaker_trips", "count"),
    ("overload.wasted_service_s", "sim_s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("sweep.prefix_ms", "ms"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("sweep.cells_resumed", "count"),
    ("sweep.warmup_avoided_s", "sim_s"),
    ("report.build_ms", "ms"),
    ("trace.traced_sim_s_per_s", "sim_s/s"),
    ("trace.untraced_sim_s_per_s", "sim_s/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values of one traced repetition, keyed by [`PER_LAYER`]
/// name. Spans add up; counters overwrite.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Adds `value` to `name` (span totals over repeated calls).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.get(name);
        self.set(name, v + value);
    }

    /// Adds the host time of `f` to the span `name` (in ms).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, secs) = timed(f);
        self.add(name, secs * 1e3);
        value
    }

    /// The value of `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Per-metric medians over several repetitions.
    pub fn median_of(reps: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for (name, _) in PER_LAYER {
            let values: Vec<f64> = reps.iter().map(|l| l.get(name)).collect();
            out.set(name, median(&values));
        }
        out
    }

    /// Platform counters every workload reads the same way: the event
    /// total, device and cluster fast-forward, placement and gateway.
    pub fn read_platform(&mut self, p: &Platform, r: &PlatformReport) {
        let events = p.events_handled() as f64;
        self.add("des.events", events);
        self.add(
            "gpu.kernels",
            r.nodes.iter().map(|n| n.kernels as f64).sum(),
        );
        self.add("gpu.ff_bursts", p.ff_bursts() as f64);
        self.add("gpu.coalesced_kernels", p.coalesced_kernels() as f64);
        self.add("cluster_ff.cycles", p.ff_cluster_cycles() as f64);
        self.add(
            "cluster_ff.coalesced_events",
            p.ff_cluster_coalesced_events() as f64,
        );
        let s = p.scheduler_stats();
        self.add("scheduler.placements", s.placements as f64);
        self.add("scheduler.releases", s.releases as f64);
        self.add("scheduler.rejects", s.rejects as f64);
        self.add("scheduler.probes", s.probes as f64);
        self.add("scheduler.exact_fallbacks", s.exact_fallbacks as f64);
        self.add("scheduler.unschedulable", p.unschedulable_pods() as f64);
        self.add("gateway.in_flight_end", p.in_flight_requests() as f64);
        for (&id, f) in &r.functions {
            self.add("gateway.queued_end", p.queued_requests(id) as f64);
            self.add("gateway.arrivals", f.arrivals as f64);
            self.add("gateway.completed", f.completed as f64);
            self.add("gateway.dropped", f.dropped as f64);
            self.add("overload.rejected", f.rejected as f64);
            self.add("overload.shed_deadline", f.shed_deadline as f64);
            self.add("overload.browned_out", f.browned_out as f64);
            self.add("overload.breaker_trips", f.breaker_trips as f64);
            self.add("overload.wasted_service_s", f.wasted_service.as_secs_f64());
        }
        // Utilization and fragmentation are per-run means: summing over
        // sweep cells is undone by `finish_ratios`.
        self.add("gpu.utilization", r.mean_utilization_active());
        self.add("gpu.sm_occupancy", r.mean_occupancy_active());
        self.add("scheduler.fragmentation", p.mean_fragmentation());
    }

    /// Adds one sweep cell's counters: cumulative counters count only
    /// what the cell did after the shared `prefix`, end-of-run state and
    /// per-run means add whole.
    pub fn add_cell(&mut self, cell: &Layers, prefix: &Layers) {
        for &(name, value) in &cell.values {
            let before = if STATE_METRICS.contains(&name) {
                0.0
            } else {
                prefix.get(name)
            };
            self.add(name, value - before);
        }
    }

    /// Adds the shared prefix's cumulative counters once.
    pub fn add_prefix(&mut self, prefix: &Layers) {
        for &(name, value) in &prefix.values {
            if !STATE_METRICS.contains(&name) {
                self.add(name, value);
            }
        }
    }

    /// Derives the ratio metrics once every counter is in; `runs` is the
    /// number of platform runs `read_platform` summed over.
    pub fn finish_ratios(&mut self, runs: f64) {
        for name in [
            "gpu.utilization",
            "gpu.sm_occupancy",
            "scheduler.fragmentation",
        ] {
            let v = self.get(name);
            self.set(name, v / runs.max(1.0));
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let coalesced = self.get("gpu.coalesced_kernels");
        self.set(
            "gpu.coalesced_share",
            ratio(coalesced, self.get("gpu.kernels")),
        );
        let credited = self.get("cluster_ff.coalesced_events");
        let handled = self.get("des.events");
        self.set("cluster_ff.share", ratio(credited, credited + handled));
        let probes = self.get("scheduler.probes");
        let placements = self.get("scheduler.placements");
        self.set("scheduler.probes_per_placement", ratio(probes, placements));
    }

    /// Tallies the event kinds of a `trace_events` delivery trace
    /// (`{time} {Event:?}` lines) into the `events.*` counters.
    pub fn count_events(&mut self, trace: &[String]) {
        let mut counts = [0u64; EVENT_KINDS.len()];
        for line in trace {
            let kind = line
                .split_once(' ')
                .map(|(_, e)| e.split('(').next().unwrap_or(e))
                .unwrap_or("");
            if let Some(i) = EVENT_KINDS.iter().position(|(k, _)| *k == kind) {
                counts[i] += 1;
            }
        }
        for ((_, name), n) in EVENT_KINDS.iter().zip(counts) {
            self.add(name, n as f64);
        }
    }
}

/// Metrics `read_platform` takes from end-of-run state or per-run means
/// rather than from counters that accumulate from t = 0.
const STATE_METRICS: [&str; 5] = [
    "gpu.utilization",
    "gpu.sm_occupancy",
    "scheduler.fragmentation",
    "gateway.queued_end",
    "gateway.in_flight_end",
];

/// `Event` variant names as the engine's trace prints them, with the
/// per-layer counter each one feeds.
const EVENT_KINDS: [(&str, &str); 12] = [
    ("Arrival", "events.arrival"),
    ("HostDone", "events.host_done"),
    ("KernelFinish", "events.kernel_finish"),
    ("BurstFastForward", "events.burst_ff"),
    ("WindowReset", "events.window_reset"),
    ("Dispatch", "events.dispatch"),
    ("ScaleTick", "events.scale_tick"),
    ("MetricsSample", "events.metrics_sample"),
    ("BreakerTick", "events.breaker_tick"),
    ("RequestTimeout", "events.request_timeout"),
    ("Fault", "events.fault"),
    ("HealthTick", "events.health_tick"),
];
