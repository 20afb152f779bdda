//! The benchmark workloads. Each one builds its inputs from the
//! seed, times its set-up and run phases from outside the platform, and
//! gates its outputs; a traced repetition additionally times every call
//! into the platform and reads its public counters per layer.

use crate::measure::{combine_digests, median, timed, Gate, Layers, Modelled, PER_LAYER};
use fastg_cluster::FuncId;
use fastg_des::SimTime;
use fastg_workload::{fleet::zipf_rates, patterns, ArrivalProcess};
use fastgshare::manager::{SchedPolicy, SharingPolicy};
use fastgshare::platform::{
    run_sweep_stats, FunctionConfig, OverloadConfig, Platform, PlatformConfig, PlatformError,
    Scenario, TieBreak, TreatmentAction,
};
use fastgshare::profiler::{ConfigServer, Experiment, ProfileDb};

/// Worker threads the multi-threaded calls (profiler, sweep) may use.
pub const THREADS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A 1200-node constant-load fleet under cluster fast-forward.
    FleetSteady,
    /// A prefix-shared flash-crowd treatment grid with overload control.
    FlashSweep,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_steady" => Some(Workload::FleetSteady),
            "flash_sweep" => Some(Workload::FlashSweep),
            _ => None,
        }
    }

    /// The most threads any call of this workload uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::FleetSteady => 1,
            Workload::FlashSweep => THREADS,
        }
    }
}

/// One repetition: set-up, run, gate.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds to build the inputs and the platform.
    pub setup_s: f64,
    /// Host seconds of the run phase.
    pub run_s: f64,
    /// Host seconds of the same run phase, serial and with `trace_events`
    /// off, when a traced repetition measures one next to its traced run
    /// (flash_sweep's untraced hand replay); 0 otherwise.
    pub base_run_s: f64,
    /// Simulated platform-seconds the run phase covered.
    pub sim_s: f64,
    /// Report digest (combined over cells for a sweep).
    pub digest: u64,
    /// Per-cell digests (sweeps only).
    pub cell_digests: Vec<u64>,
    /// What the simulated platform delivered.
    pub modelled: Modelled,
    /// Correctness checks.
    pub gate: Gate,
    /// Per-layer values (reported by traced runs).
    pub layers: Layers,
}

/// Runs one untraced repetition.
pub fn rep(w: Workload, seed: u64) -> Rep {
    match w {
        Workload::FleetSteady => fleet_rep(seed, false),
        Workload::FlashSweep => flash_rep(seed),
    }
}

/// Runs one traced repetition (for flash_sweep, the hand replay of the
/// grid through the public API).
pub fn traced_rep(w: Workload, seed: u64) -> Rep {
    match w {
        Workload::FleetSteady => fleet_rep(seed, true),
        Workload::FlashSweep => flash_replay(seed),
    }
}

/// Times the set-up alone (built and dropped), for the extra set-up
/// samples a run takes when its repetitions are few.
pub fn setup_only(w: Workload, seed: u64) -> f64 {
    match w {
        Workload::FleetSteady => timed(|| fleet_setup(seed, &mut Layers::default()).is_ok()).1,
        Workload::FlashSweep => timed(|| flash_setup(seed, &mut Layers::default()).is_ok()).1,
    }
}

/// Pins the knobs `PlatformConfig::default()` would otherwise take from
/// `FASTG_*` variables. Every workload platform goes through here; the
/// profiler's trial platforms cannot, which is why the benchmark refuses
/// to run with any `FASTG_*` variable set.
fn pinned(cfg: PlatformConfig, cluster_ff: bool) -> PlatformConfig {
    cfg.fastforward(true)
        .cluster_fastforward(cluster_ff)
        .tiebreak(TieBreak::Fifo)
        .scheduler(SchedPolicy::Paper)
}

/// splitmix64: the seed expander behind every seeded input choice.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An index as a seed key.
fn key(i: usize) -> u64 {
    u64::try_from(i).unwrap_or(u64::MAX)
}

/// A seeded Fisher–Yates shuffle.
fn shuffle<T>(seed: u64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = mix(seed ^ mix(key(i))) % (key(i) + 1);
        v.swap(i, usize::try_from(j).unwrap_or(0));
    }
}

/// `n` evenly spaced values over `[lo, hi]` in a seeded order. The seed
/// decides which input gets which value, never the set of values, so the
/// offered work is the same from seed to seed.
fn dealt(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let step = (hi - lo) / n.saturating_sub(1).max(1) as f64;
    let mut v: Vec<f64> = (0..n).map(|k| lo + step * k as f64).collect();
    shuffle(seed, &mut v);
    v
}

/// The models the FaST-Profiler profiles, which flash_sweep serves.
const PROFILED: [&str; 4] = ["resnet50", "bert_base", "rnnt", "gnmt"];

/// The FaST-Profiler pass: every model over the paper's §5.2 grid.
fn profile(seed: u64, layers: &mut Layers) -> Result<ProfileDb, String> {
    let mut db = ProfileDb::new();
    for model in PROFILED {
        let mut exp = Experiment::new(model, ConfigServer::paper_grid());
        exp.seed = seed;
        let trials = layers
            .span("profiler.ms", || exp.run_parallel(&mut db, THREADS))
            .map_err(|e| format!("profiling {model}: {e:?}"))?;
        layers.add("profiler.trials", trials.len() as f64);
    }
    Ok(db)
}

// ----- fleet_steady -----------------------------------------------------

const FLEET_NODES: usize = 1200;
const FLEET_HORIZON: SimTime = SimTime::from_secs(600);
/// The fleet's models.
const FLEET_MODELS: [&str; 4] = ["resnet50", "bert_base", "resnext101", "gnmt"];
/// The steady envelope every fleet model shares: at most 22 rps keeps a
/// full-GPU replica's constant arrival gap above its service latency,
/// which is what cluster fast-forward credits in closed form.
const FLEET_RPS: (f64, f64) = (6.0, 22.0);

/// Per-function `(model, rps)`: Zipf(1.1) popularity over a 30 rps mean,
/// clamped into the shared envelope. The seed deals the models (an equal
/// number each) to the popularity ranks; the rates stay the same.
fn fleet_rates(seed: u64) -> Vec<(&'static str, f64)> {
    let mut models: Vec<usize> = (0..FLEET_NODES).map(|i| i % FLEET_MODELS.len()).collect();
    shuffle(seed, &mut models);
    zipf_rates(FLEET_NODES, FLEET_NODES as f64 * 30.0, 1.1)
        .into_iter()
        .zip(models)
        .map(|(rate, m)| (FLEET_MODELS[m], rate.clamp(FLEET_RPS.0, FLEET_RPS.1)))
        .collect()
}

/// One function per node, each replica owning its GPU, constant load.
fn fleet_setup(seed: u64, layers: &mut Layers) -> Result<Platform, String> {
    let cfg = pinned(
        PlatformConfig::default()
            .nodes(FLEET_NODES)
            .policy(SharingPolicy::FaST)
            .oversubscribe(true)
            .window(SimTime::from_secs(1))
            .sample_interval(SimTime::from_secs(2))
            .event_capacity(FLEET_NODES * 4)
            .seed(seed),
        true,
    );
    let mut p = layers.span("platform.new_ms", || Platform::new(cfg));
    for (i, (model, rate)) in fleet_rates(seed).into_iter().enumerate() {
        let fc = FunctionConfig::new(&format!("fleet-{i:04}"), model)
            .replicas(1)
            .resources(100.0, 1.0, 1.0);
        let f = layers
            .span("platform.deploy_ms", || p.deploy(fc))
            .map_err(|e| format!("deploying fleet function {i}: {e:?}"))?;
        layers.span("platform.set_load_ms", || {
            p.set_load(f, ArrivalProcess::constant(rate))
        });
    }
    Ok(p)
}

fn fleet_rep(seed: u64, traced: bool) -> Rep {
    let mut out = Rep::default();
    let (built, setup_s) = timed(|| fleet_setup(seed, &mut out.layers));
    let Some(mut p) = out.gate.built(built) else {
        return out;
    };
    let (report, run_s) = timed(|| p.run_for(FLEET_HORIZON));
    out.setup_s = setup_s;
    out.run_s = run_s;
    out.sim_s = FLEET_HORIZON.as_secs_f64();
    out.digest = report.digest();
    out.modelled.add(&report);
    out.gate.conservation("run", &p, &report);
    out.layers.add("platform.run_ms", run_s * 1e3);
    // Each report flushes one more metric sample at `now`, so this one is
    // timed but never compared with the run's own report.
    let (_, build_s) = timed(|| p.report());
    out.layers.add("report.build_ms", build_s * 1e3);
    out.layers.read_platform(&p, &report);
    out.layers.finish_ratios(1.0);
    let events = out.layers.get("des.events");
    out.layers.set("des.events_per_sim_s", events / out.sim_s);
    if traced {
        // One checkpoint round trip of the final fleet state.
        let (snap, encode_s) = timed(|| p.checkpoint());
        let (restored, decode_s) = timed(|| Platform::from_snapshot(&snap));
        out.layers.set("checkpoint.bytes", snap.size_bytes() as f64);
        out.layers.set("checkpoint.encode_ms", encode_s * 1e3);
        out.layers.set("checkpoint.decode_ms", decode_s * 1e3);
        let restored = restored.map(|mut r| r.report().digest());
        let original = p.report().digest();
        out.gate
            .check(restored.as_ref().ok() == Some(&original), || {
                format!("fleet checkpoint round trip: {restored:?} != {original:016x}")
            });
    }
    out
}

// ----- flash_sweep ------------------------------------------------------

const FLASH_NODES: usize = 64;
const FLASH_FUNCS: usize = 128;
const FLASH_CELLS: usize = 16;
/// Functions each cell's flash crowd hits.
const FLASH_CROWD: usize = FLASH_FUNCS / FLASH_CELLS;
const FLASH_WARMUP: SimTime = SimTime::from_secs(30);
const FLASH_WINDOW: SimTime = SimTime::from_secs(12);
/// SLOs (ms) of the [`PROFILED`] models.
const FLASH_SLO_MS: [u64; 4] = [100, 300, 800, 900];
/// The model mix, by index into [`PROFILED`]: 3/8 resnet50, 3/8
/// bert_base, 1/8 each rnnt and gnmt. With unequal shares the median
/// function sits inside a model's group rather than on the boundary
/// between two, where `p50_ms` would jump from seed to seed.
const FLASH_MIX: [usize; 8] = [0, 1, 0, 2, 1, 0, 3, 1];

fn flash_config(seed: u64) -> PlatformConfig {
    pinned(
        PlatformConfig::default()
            .nodes(FLASH_NODES)
            .policy(SharingPolicy::FaST)
            .warmup(SimTime::from_secs(5))
            .overload(OverloadConfig::default())
            .seed(seed),
        false,
    )
}

/// Profiles the models, then builds the grid from the profile.
fn flash_setup(seed: u64, layers: &mut Layers) -> Result<Vec<Scenario>, String> {
    flash_grid(seed, &profile(seed, layers)?)
}

/// The profiled throughput of one replica of `model` at `(sm %, quota)`.
fn profiled_rps(db: &ProfileDb, model: &str, sm: f64, quota: f64) -> Result<f64, String> {
    db.throughput_of(model, sm, quota)
        .ok_or_else(|| format!("no profile for {model} at {sm} % SM, quota {quota}"))
}

/// The shared prefix (cluster, functions, Poisson loads at 12–32 % of
/// the two replicas' profiled capacity, warmup) and 16 treatment cells:
/// each cell's flash crowd (5–8× the base rate) hits its own band of
/// functions, plus one of scale-out, pod kills or a live reconfigure on
/// the band's head function.
fn flash_grid(seed: u64, db: &ProfileDb) -> Result<Vec<Scenario>, String> {
    let mut base = Scenario::new("prefix", flash_config(seed));
    let mix_of = |i: usize| FLASH_MIX[i % FLASH_MIX.len()];
    let mut factors: Vec<Vec<f64>> = (0..PROFILED.len())
        .map(|m| {
            let count = (0..FLASH_FUNCS).filter(|&i| mix_of(i) == m).count();
            dealt(mix(seed ^ key(m)), count, 0.12, 0.32)
        })
        .collect();
    let peaks = dealt(mix(!seed), FLASH_FUNCS, 5.0, 8.0);
    let mut rates = Vec::with_capacity(FLASH_FUNCS);
    for i in 0..FLASH_FUNCS {
        let m = mix_of(i);
        let (model, slo) = (PROFILED[m], FLASH_SLO_MS[m]);
        let capacity = 2.0 * profiled_rps(db, model, 24.0, 0.4)?;
        let rate = capacity * factors[m].pop().unwrap_or(0.2);
        rates.push(rate);
        base = base
            .function(
                FunctionConfig::new(&format!("flash-{i:03}-{model}"), model)
                    .slo_ms(slo)
                    .replicas(2)
                    .resources(24.0, 0.4, 0.8),
            )
            .load(i, ArrivalProcess::poisson(rate, mix(seed ^ key(i))));
    }
    let end = FLASH_WARMUP + FLASH_WINDOW;
    let cells = (0..FLASH_CELLS)
        .map(|c| {
            let mut cell = base.clone().warmup(FLASH_WARMUP).duration(FLASH_WINDOW);
            cell.name = format!("cell-{c:02}");
            let band = c * FLASH_CROWD;
            for i in band..band + FLASH_CROWD {
                let crowd = patterns::flash_crowd(
                    rates[i],
                    rates[i] * peaks[i],
                    FLASH_WARMUP + SimTime::from_secs(2),
                    SimTime::from_secs(1),
                    SimTime::from_secs(5),
                    end,
                    1,
                    mix(seed ^ key(c * 1000 + i)),
                );
                cell = cell.then(TreatmentAction::SetLoad {
                    func_index: i,
                    process: crowd,
                });
            }
            cell.then(match c % 3 {
                0 => TreatmentAction::ScaleTo {
                    func_index: band,
                    replicas: 4,
                },
                1 => TreatmentAction::KillPods {
                    func_index: band,
                    count: 1,
                },
                _ => TreatmentAction::Reconfigure {
                    func_index: band,
                    sm_partition: 50.0,
                    quota_request: 0.6,
                    quota_limit: 1.0,
                },
            })
        })
        .collect();
    Ok(cells)
}

/// Simulated platform-seconds a grid covers: every cell's warmup plus
/// window, so sharing the warmup shows up as a gain.
fn flash_sim_s(grid: &[Scenario]) -> f64 {
    grid.iter()
        .map(|s| (s.shared_warmup + s.duration).as_secs_f64())
        .sum()
}

fn flash_rep(seed: u64) -> Rep {
    let mut out = Rep::default();
    let (built, setup_s) = timed(|| flash_setup(seed, &mut out.layers));
    let Some(grid) = out.gate.built(built) else {
        return out;
    };
    out.setup_s = setup_s;
    out.sim_s = flash_sim_s(&grid);
    let (result, run_s) = timed(|| run_sweep_stats(grid, THREADS));
    out.run_s = run_s;
    match result {
        Ok((cells, stats)) => {
            out.gate.check(stats.cells_resumed == FLASH_CELLS, || {
                format!(
                    "{} of {FLASH_CELLS} cells resumed from the prefix",
                    stats.cells_resumed
                )
            });
            for (name, report) in &cells {
                out.gate.report_bound(name, report);
                out.modelled.add(report);
                out.cell_digests.push(report.digest());
            }
        }
        Err(e) => out.gate.failures.push(format!("sweep failed: {e:?}")),
    }
    out.gate.check(out.cell_digests.len() == FLASH_CELLS, || {
        "cells missing".into()
    });
    out.digest = combine_digests(&out.cell_digests);
    out
}

/// The grid replayed by hand through the public API, serially, so each
/// layer gets its own span: build, warm up, checkpoint, then per cell
/// restore + treatment + run. A second replay with `trace_events` on
/// counts the events per kind; it carries the whole prefix trace in its
/// snapshot and platforms, so it is kept apart from the first. The first
/// replay's wall time is the untraced base (`base_run_s`), the second's
/// the traced run (`run_s`). Both replays' per-cell digests must equal
/// `run_sweep_stats`'s.
fn flash_replay(seed: u64) -> Rep {
    let mut out = Rep::default();
    let (built, setup_s) = timed(|| flash_setup(seed, &mut out.layers));
    let Some(grid) = out.gate.built(built) else {
        return out;
    };
    out.setup_s = setup_s;
    out.sim_s = flash_sim_s(&grid);
    // The prefix load as generated, outside the platform.
    for (_, load) in &grid[0].loads {
        let mut gen = load.clone();
        let arrivals = out
            .layers
            .span("workload.gen_ms", || gen.collect_until(FLASH_WARMUP));
        out.layers.add("workload.arrivals", arrivals.len() as f64);
    }
    let (digests, base_run_s) = timed(|| {
        replay(
            &grid,
            false,
            &mut out.layers,
            &mut out.gate,
            &mut out.modelled,
        )
    });
    out.cell_digests = digests;
    out.base_run_s = base_run_s;
    let mut census = Layers::default();
    let (traced, run_s) = timed(|| {
        replay(
            &grid,
            true,
            &mut census,
            &mut out.gate,
            &mut Modelled::default(),
        )
    });
    out.run_s = run_s;
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("events.")) {
        out.layers.set(name, census.get(name));
    }
    out.gate.check(traced == out.cell_digests, || {
        "the replay with trace_events on diverged from the one without".into()
    });
    let events = out.layers.get("des.events");
    out.layers.set("des.events_per_sim_s", events / out.sim_s);
    out.gate.check(out.cell_digests.len() == FLASH_CELLS, || {
        "cells missing".into()
    });
    out.digest = combine_digests(&out.cell_digests);
    out
}

/// One hand replay of `grid`; returns the per-cell digests.
fn replay(
    grid: &[Scenario],
    trace_events: bool,
    l: &mut Layers,
    gate: &mut Gate,
    modelled: &mut Modelled,
) -> Vec<u64> {
    let t0 = std::time::Instant::now();
    let template = &grid[0];
    let config = template.config.clone().trace_events(trace_events);
    let mut p = l.span("platform.new_ms", || Platform::new(config));
    let mut ids = Vec::new();
    for fc in &template.functions {
        match l.span("platform.deploy_ms", || p.deploy(fc.clone())) {
            Ok(f) => ids.push(f),
            Err(e) => {
                gate.failures.push(format!("deploying {}: {e:?}", fc.name));
                return Vec::new();
            }
        }
    }
    for (i, load) in &template.loads {
        l.span("platform.set_load_ms", || p.set_load(ids[*i], load.clone()));
    }
    let warm = l.span("platform.run_ms", || p.run_for(template.shared_warmup));
    let mut prefix = Layers::default();
    prefix.read_platform(&p, &warm);
    l.count_events(p.event_trace());
    let prefix_trace = p.event_trace().len();
    let snap = l.span("checkpoint.encode_ms", || p.checkpoint());
    drop(p);
    l.set("checkpoint.bytes", snap.size_bytes() as f64);
    l.set("sweep.prefix_ms", t0.elapsed().as_secs_f64() * 1e3);
    let mut digests = Vec::new();
    let mut cell_ms = Vec::new();
    let mut decode_ms = Vec::new();
    for cell in grid {
        let tc = std::time::Instant::now();
        let (restored, decode_s) = timed(|| Platform::from_snapshot(&snap));
        decode_ms.push(decode_s * 1e3);
        let mut p = match restored {
            Ok(p) => p,
            Err(e) => {
                gate.failures
                    .push(format!("{}: restore failed: {e:?}", cell.name));
                continue;
            }
        };
        for action in &cell.treatment {
            let applied = l.span("platform.set_load_ms", || apply(&mut p, &ids, action));
            gate.check(applied.is_ok(), || {
                format!("{}: {action:?} failed", cell.name)
            });
        }
        let report = l.span("platform.run_ms", || p.run_for(cell.duration));
        cell_ms.push(tc.elapsed().as_secs_f64() * 1e3);
        gate.conservation(&cell.name, &p, &report);
        modelled.add(&report);
        digests.push(report.digest());
        // The restored trace and counters start at t = 0: credit each
        // cell only with what it did after the shared prefix.
        l.count_events(&p.event_trace()[prefix_trace..]);
        let mut counters = Layers::default();
        counters.read_platform(&p, &report);
        l.add_cell(&counters, &prefix);
    }
    l.add_prefix(&prefix);
    l.finish_ratios(grid.len() as f64);
    l.set("checkpoint.decode_ms", median(&decode_ms));
    l.set("sweep.cell_ms_p50", median(&cell_ms));
    l.set(
        "sweep.cell_ms_max",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
    l.set("sweep.cells_resumed", cell_ms.len() as f64);
    let avoided = template.shared_warmup.as_secs_f64() * grid.len().saturating_sub(1) as f64;
    l.set("sweep.warmup_avoided_s", avoided);
    digests
}

/// Applies one treatment action through the public platform API.
fn apply(p: &mut Platform, ids: &[FuncId], action: &TreatmentAction) -> Result<(), PlatformError> {
    match action {
        TreatmentAction::Reconfigure {
            func_index,
            sm_partition,
            quota_request,
            quota_limit,
        } => {
            return p.reconfigure(
                ids[*func_index],
                *sm_partition,
                *quota_request,
                *quota_limit,
            );
        }
        TreatmentAction::ScaleTo {
            func_index,
            replicas,
        } => p.scale_to(ids[*func_index], *replicas),
        TreatmentAction::SetLoad {
            func_index,
            process,
        } => p.set_load(ids[*func_index], process.clone()),
        TreatmentAction::KillPods { func_index, count } => {
            for pod in p.pods_of(ids[*func_index]).into_iter().take(*count) {
                p.kill_pod(pod);
            }
        }
    }
    Ok(())
}
