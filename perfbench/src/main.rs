//! `perfbench` — the repository benchmark of the FaST-GShare simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_steady|flash_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It repeats the workload (set-up, run,
//! correctness gate) until `--seconds` have passed, prints one line per
//! repetition, the environment (host CPUs, threads used, commit) and the
//! workload digest, and ends with one JSON line: `{"correct", "attempted",
//! "failed", "metrics"}`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. Any `FASTG_*` environment variable
//! makes the benchmark refuse to run: `PlatformConfig::default()` (and
//! through it the profiler's trial platforms) reads `FASTG_FASTFORWARD`,
//! `FASTG_CLUSTER_FF`, `FASTG_TIEBREAK` and `FASTG_SCHED`, and
//! `FASTG_SANITIZE` adds shadow checks. The benchmark's own platforms pin
//! those knobs explicitly as well.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Host metrics are the simulator's own cost; modelled metrics are what
//! the simulated platform delivered. The simulator is a seeded
//! discrete-event simulation, so modelled metrics repeat exactly for a
//! seed, while host metrics carry the host's noise.
//!
//! - `setup_s` (host, s): median time to build the workload's inputs and
//!   platform. flash_sweep's set-up is profiling plus building the grid.
//! - `sim_s_per_s` (host): simulated platform-seconds per host second in
//!   the run phase, median over repetitions. For flash_sweep the
//!   numerator is Σ over cells of (warmup + window), so sharing the
//!   warmup shows up as a gain.
//! - `peak_rss_mib` (host): `VmHWM` of the workload's own process.
//! - `goodput_rps` (modelled): SLO-met completions per second after
//!   warmup, summed over functions; mean per cell on flash_sweep.
//! - `slo_attainment` (modelled): 1 − `slo_violation_ratio`, where
//!   `slo_violation_ratio` = (SLO violations + failed requests) /
//!   arrivals, so a request that fails counts as a violation.
//! - `success_ratio` (modelled): 1 − `failed_ratio`, where `failed_ratio`
//!   = (dropped + rejected + shed_deadline) / arrivals. Both ratios are 0
//!   on fleet_steady, so the metrics are their complements; every run
//!   prints the ratios themselves.
//! - `p50_ms` (modelled, simulated ms): median over functions of each
//!   function's p50.
//! - `p99_ms` (modelled, simulated ms): worst per-function p99 among
//!   functions with at least 1000 completions (mean per cell on
//!   flash_sweep); the sample count is printed.
//! - `gpus_used` (modelled): GPUs hosting at least one pod at the end of
//!   the run (mean per cell on flash_sweep), the paper's cost metric.
//!
//! The model is **unvalidated against hardware**: there is no hardware
//! reference to compare against (EXPERIMENTS.md compares shapes only),
//! so no modelled metric carries an error figure.
//!
//! # Workloads
//!
//! Each workload's inputs come from the seed: the seed deals a fixed set
//! of per-function parameters to functions and seeds every arrival
//! stream, so the offered work is the same from seed to seed while the
//! inputs differ.
//!
//! - **fleet_steady** — 1200 nodes, one constant-load function per node
//!   (Zipf popularity, models dealt to ranks by the seed), cluster
//!   fast-forward on, 600 simulated seconds, one thread. Stresses
//!   cluster-FF crediting and replay, the per-node control ticks, report
//!   assembly over 1200 functions, and 1200 `deploy` calls in set-up.
//!   Per-request data-plane work is credited in closed form, so a
//!   data-plane gain should show **no change** here; the event queue is
//!   used through cancellable tokens rather than plain push/pop.
//! - **flash_sweep** — the FaST-Profiler profiles resnet50, bert_base,
//!   rnnt and gnmt over the paper's §5.2 grid, and the profile sizes a
//!   prefix-shared treatment grid run through `run_sweep_stats` on 2
//!   threads. The prefix (64 nodes, 128 functions, overload control on,
//!   Poisson load at 12–32 % of profiled capacity) warms up once for 30
//!   simulated seconds; 16 cells restore from its snapshot, each applies a
//!   flash crowd (5–8× base) to its own band of 8 functions plus one of
//!   `ScaleTo`, `KillPods` or `Reconfigure`, and runs a 12 s window.
//!   Stresses the profiler, overload admission, shedding, breaker and
//!   brownout, per-kernel `GpuDevice` stepping under contention,
//!   checkpoint decode per cell and the `fastg-par` fan-out behind a
//!   serial prefix. Bypasses cluster fast-forward. The only workload where
//!   requests fail.
//!
//! No workload runs the Algorithm 1 autoscaler (`enable_autoscaler`):
//! the sweep API has no hook for it, cluster fast-forward turns off
//! under it, and a profiled, autoscaled cluster under diurnal load is
//! not steady from seed to seed (the autoscaler drains replicas in the
//! troughs and lags the rise, and the backlog it leaves varies widely),
//! so it could not serve as a regression gate. `events.scale_tick`
//! therefore reads 0.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run first runs the workload untraced in a child process
//! (the reference), then repeats it in-process with the calls into the
//! platform timed from outside — `Platform::{new, deploy, set_load,
//! run_for, report, checkpoint, from_snapshot}`,
//! `Experiment::run_parallel`, `ArrivalProcess::collect_until` — and the
//! public counters read afterwards. flash_sweep is replayed by hand
//! (build, warm up, checkpoint, then per cell restore + treatment + run)
//! so each layer gets its own span, and replayed a second time with
//! `trace_events` on to count events per kind. The traced digests must
//! equal the reference's, cell for cell on flash_sweep. fleet_steady
//! never records `trace_events`: a traced platform is not eligible for
//! cluster fast-forward, so tracing would measure a different program.
//! Its per-layer numbers come from counters and call spans only, and its
//! `events.*` read 0. A layer a workload never enters reads 0.
//!
//! Each layer metric, with the end-to-end metric it should move:
//! - `des.events`, `des.ns_per_event` (wall time of the serial untraced
//!   run per handled event) → `sim_s_per_s` on flash_sweep;
//!   `des.events_per_sim_s` stays flat on fleet_steady under a data-plane
//!   change.
//! - `events.*` (handled count per `Event` kind) → `sim_s_per_s` on
//!   flash_sweep.
//! - `gpu.kernels`, `gpu.ff_bursts`, `gpu.coalesced_kernels`,
//!   `gpu.coalesced_share` → `sim_s_per_s` on flash_sweep;
//!   `gpu.utilization`, `gpu.sm_occupancy` (modelled) → `goodput_rps` and
//!   `gpus_used` on flash_sweep.
//! - `cluster_ff.cycles`, `cluster_ff.coalesced_events`,
//!   `cluster_ff.share` → `sim_s_per_s` and `peak_rss_mib` on
//!   fleet_steady; 0 on flash_sweep.
//! - `scheduler.*` → `gpus_used` and `p99_ms` on flash_sweep.
//! - `platform.deploy_ms` → `setup_s` on fleet_steady; `platform.new_ms`,
//!   `platform.set_load_ms` (also the sweep treatments) and
//!   `platform.run_ms` are the other call spans.
//! - `profiler.trials`, `profiler.ms` → `setup_s` on flash_sweep.
//! - `workload.arrivals`, `workload.gen_ms` (the prefix load generated
//!   over the warmup, outside the platform) → `sim_s_per_s` on
//!   flash_sweep.
//! - `gateway.*` → `success_ratio` on flash_sweep.
//! - `overload.*` → `success_ratio` and `goodput_rps` on flash_sweep.
//! - `checkpoint.bytes`, `checkpoint.encode_ms`, `checkpoint.decode_ms` →
//!   `sim_s_per_s` on flash_sweep; fleet_steady measures one round trip
//!   of its final state.
//! - `sweep.prefix_ms` (the serial section, which bounds the 2-thread
//!   speedup), `sweep.cell_ms_p50`, `sweep.cell_ms_max` (the slowest cell
//!   sets the wall time), `sweep.cells_resumed`, `sweep.warmup_avoided_s`
//!   → `sim_s_per_s` on flash_sweep.
//! - `report.build_ms` (one `Platform::report()` after the run) →
//!   `sim_s_per_s` on fleet_steady.
//! - `trace.overhead_ratio` = untraced / traced `sim_s_per_s`, with both
//!   rates (`trace.untraced_sim_s_per_s`, `trace.traced_sim_s_per_s`).
//!   Both sides are serial runs of the same program. On flash_sweep the
//!   traced side is the hand replay with `trace_events` on and the
//!   untraced side the same replay with it off, timed apart; on
//!   fleet_steady the traced side is the in-process run with its call
//!   spans and the untraced side the reference process.
//!
//! # Correctness gate
//!
//! Every repetition checks the conservation identity per function
//! (arrivals = completed + dropped + rejected + shed_deadline + queued +
//! in flight; in-flight is only known platform-wide, so per function the
//! remainder must be non-negative and the remainders must sum to
//! `in_flight_requests()`), or, for sweep cells whose platform is gone,
//! the report-level bound. Every repetition's digest must equal the
//! first's, and the traced run must reproduce the untraced digests. A
//! repetition that fails any check counts as failed, and `correct` is
//! false when any did.

mod measure;
mod workloads;

use measure::{median, peak_rss_mib, Layers, PER_LAYER};
use std::fmt::Write as _;
use std::process::{exit, Command};
use std::time::Instant;
use workloads::{Rep, Workload};

/// Set-up samples a run takes at least, and the host seconds of set-up
/// they must add up to; extra set-ups are timed alone until both hold.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_S: f64 = 0.25;
/// Repetitions an untraced run makes at least.
const MIN_REPS: usize = 3;

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    if let Some((key, _)) = std::env::vars().find(|(k, _)| k.starts_with("FASTG_")) {
        eprintln!("perfbench: refusing to run with {key} set (unset every FASTG_* variable)");
        exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <fleet_steady|flash_sweep> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            exit(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} trace={} host_cpus={cpus} threads={} commit={}",
        args.name,
        args.seed,
        u8::from(args.trace),
        args.workload.threads(),
        commit(),
    );
    let result = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    println!("{result}");
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Gates a set of repetitions: each must pass its own checks and
/// reproduce `expected` (the first repetition's digest unless given).
/// Returns the number of failed repetitions.
fn gate_reps(reps: &[Rep], expected: Option<(u64, &[u64])>) -> u64 {
    let expected = expected.or_else(|| reps.first().map(|r| (r.digest, r.cell_digests.as_slice())));
    let mut failed = 0;
    for (i, r) in reps.iter().enumerate() {
        let mut failures = r.gate.failures.clone();
        if let Some((digest, cells)) = expected {
            if r.digest != digest {
                failures.push(format!(
                    "digest {:016x} != expected {digest:016x}",
                    r.digest
                ));
            }
            for (c, (got, want)) in r.cell_digests.iter().zip(cells).enumerate() {
                if got != want {
                    failures.push(format!(
                        "cell {c}: digest {got:016x} != expected {want:016x}"
                    ));
                }
            }
        }
        println!(
            "rep {i}: setup {:.4} s, run {:.4} s, {:.2} sim-s/s, digest {:016x}, gate {}",
            r.setup_s,
            r.run_s,
            r.sim_s / r.run_s,
            r.digest,
            if failures.is_empty() { "ok" } else { "FAILED" },
        );
        for f in &failures {
            println!("  gate failure: {f}");
        }
        failed += u64::from(!failures.is_empty());
    }
    failed
}

fn untraced_run(args: &Args) -> String {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(workloads::rep(args.workload, args.seed));
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < MIN_SETUP_S {
        setups.push(workloads::setup_only(args.workload, args.seed));
    }
    let failed = gate_reps(&reps, None);
    let rates: Vec<f64> = reps.iter().map(|r| r.sim_s / r.run_s).collect();
    let run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let first = &reps[0];
    let m = &first.modelled;
    let (p99, p99_samples) = m.p99_ms();
    let cells: Vec<String> = first
        .cell_digests
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect();
    println!("digest {} {:016x}", args.name, first.digest);
    println!(
        "reference digest={:016x} run_s={run_s} cells={}",
        first.digest,
        cells.join(","),
    );
    println!(
        "modelled: arrivals {}, slo_violation_ratio {:.6}, failed_ratio {:.6}, \
         p99 {p99:.3} ms over {p99_samples} samples (unvalidated against hardware)",
        m.arrivals(),
        m.slo_violation_ratio(),
        m.failed_ratio(),
    );
    let metrics = [
        ("setup_s", "s", median(&setups)),
        ("sim_s_per_s", "sim_s/s", median(&rates)),
        ("peak_rss_mib", "MiB", peak_rss_mib()),
        ("goodput_rps", "1/s", m.goodput_rps()),
        ("slo_attainment", "ratio", 1.0 - m.slo_violation_ratio()),
        ("success_ratio", "ratio", 1.0 - m.failed_ratio()),
        ("p50_ms", "sim_ms", m.p50_ms()),
        ("p99_ms", "sim_ms", p99),
        ("gpus_used", "count", m.gpus_used()),
    ];
    result_json(count(reps.len()), failed, &metrics)
}

/// What the traced run needs from the untraced reference process.
struct Reference {
    digest: u64,
    cells: Vec<u64>,
    run_s: f64,
}

/// Runs the workload untraced in a child process and parses its
/// `reference` line; `None` when the child failed or was incorrect.
fn reference(args: &Args, seconds: f64) -> Option<Reference> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", &args.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() || !stdout.lines().last()?.contains("\"correct\": true") {
        println!(
            "reference run failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    let line = stdout.lines().find_map(|l| l.strip_prefix("reference "))?;
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or("")
    };
    let hex = |s: &str| u64::from_str_radix(s, 16).ok();
    Some(Reference {
        digest: hex(field("digest"))?,
        cells: field("cells")
            .split(',')
            .filter(|s| !s.is_empty())
            .map(hex)
            .collect::<Option<_>>()?,
        run_s: field("run_s").parse().ok()?,
    })
}

fn traced_run(args: &Args) -> String {
    let start = Instant::now();
    let reference = reference(args, (args.seconds / 2.0).max(1.0));
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(workloads::traced_rep(args.workload, args.seed));
    }
    // The reference run counts as one more attempt, failed when it was.
    let expected = reference.as_ref().map(|r| (r.digest, r.cells.as_slice()));
    let failed = gate_reps(&reps, expected) + u64::from(reference.is_none());
    let attempted = count(reps.len()) + 1;
    let mut layers = Layers::median_of(&reps.iter().map(|r| r.layers.clone()).collect::<Vec<_>>());
    let sim_s = reps[0].sim_s;
    let traced_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    // The untraced base is a serial run of the same program: flash_sweep's
    // own untraced hand replay, or else the reference process, whose
    // workloads run their single platform on one thread.
    let base_s = median(&reps.iter().map(|r| r.base_run_s).collect::<Vec<_>>());
    let untraced_s = if base_s > 0.0 {
        Some(base_s)
    } else {
        reference.as_ref().map(|r| r.run_s)
    };
    layers.set("trace.traced_sim_s_per_s", sim_s / traced_s);
    if let Some(untraced_s) = untraced_s {
        layers.set("trace.untraced_sim_s_per_s", sim_s / untraced_s);
        layers.set("trace.overhead_ratio", traced_s / untraced_s);
        let events = layers.get("des.events");
        if events > 0.0 {
            layers.set("des.ns_per_event", untraced_s * 1e9 / events);
        }
    }
    println!("digest {} {:016x}", args.name, reps[0].digest);
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layers.get(name)))
        .collect();
    result_json(attempted, failed, &metrics)
}

/// A count as the JSON's whole number.
fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    )
}
