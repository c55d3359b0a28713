//! End-to-end, layer-attributed benchmark of the SDM stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fun3d_fresh|fun3d_history|rt_durable|all \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs one of the paper's application templates on 2
//! rank threads through the whole stack: `Sdm` session → metadata store
//! (sdm-core store over the sdm-metadb engine and WAL) → sdm-mpi
//! collectives and two-phase I/O → sdm-pfs. The load is a closed loop:
//! one application run at a time.
//!
//! With `--trace 0` it reports end-to-end metrics from untraced runs;
//! with `--trace 1` it alternates untraced and traced runs and reports
//! per-layer metrics from the traced ones (see `README.md`). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! environment. A human-readable table goes to standard error.

mod fun3d;
mod layers;
mod rt;
mod stats;
mod timed_store;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdm_core::SdmResult;
use sdm_mpi::{Comm, World};
use sdm_sim::MachineConfig;

use crate::layers::{TracedRun, Untraced};
use crate::stats::{median, rel_spread};
use crate::trace::Tracer;

/// Rank threads per application run, one per core of the 2-core
/// machine the benchmark was designed on. The paper's 64-rank runs
/// stay with the `fig5`-`fig7` harnesses: 64 rank threads on 2 cores
/// would measure the scheduler.
pub const RANKS: usize = 2;
const DEFAULT_SEED: u64 = 20_010_220;
/// Fewest timed runs of each kind, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;
/// Set-up is repeated at least this often in a `--trace 0` run;
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
/// Cheap set-ups are also repeated after each run while they have cost
/// less than this share of the run time.
const SETUP_SHARE: f64 = 0.05;
/// Timed samples (runs and set-ups) taken while the hypervisor withheld
/// more than this share of the machine's CPU time (vCPU steal) are left
/// out of the medians, unless too few calm ones remain. With two rank
/// threads in lockstep, steal slows a run out of proportion: runs of
/// `rt_durable` took 0.39-0.45 s at under 2% steal and 0.8-1.3 s at
/// 20-33%.
const STEAL_MAX: f64 = 0.05;
/// Runs whose peak resident set is measured (see [`measure`]).
const MEMORY_RUNS: usize = 3;
/// The process exits with an error instead of hanging past this, per
/// workload.
const WATCHDOG: Duration = Duration::from_secs(175);
/// Traced runs whose spans are written out, besides the set-up run 0;
/// metrics use every run.
const WRITTEN_RUNS: usize = 3;
/// The end-to-end metrics, in output order.
const E2E: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("virt_s", "s"),
    ("virt_write_mbs", "MB/s"),
    ("virt_read_mbs", "MB/s"),
    ("peak_rss_mb", "MB"),
];

/// Timings of one workload set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStats {
    pub total_s: f64,
    pub gen_s: f64,
    pub partition_s: f64,
    pub edge_cut: f64,
    pub imbalance: f64,
}

/// Run `f` on [`RANKS`] rank threads of the modelled Origin2000; wall
/// seconds of the whole `World::run` plus each rank's result. A rank
/// error or panic becomes an `Err`, never an abort.
pub fn run_world<T: Send>(
    f: impl Fn(&mut Comm) -> SdmResult<T> + Sync,
) -> Result<(f64, Vec<T>), String> {
    let cfg = MachineConfig::origin2000();
    let t0 = Instant::now();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| World::run(RANKS, cfg, f)));
    let wall_s = t0.elapsed().as_secs_f64();
    let out = out.map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("a rank panicked: {msg}")
    })?;
    let ranks = out
        .into_iter()
        .enumerate()
        .map(|(r, x)| x.map_err(|e| format!("rank {r}: {e}")))
        .collect::<Result<Vec<T>, String>>()?;
    Ok((wall_s, ranks))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fun3dFresh,
    Fun3dHistory,
    RtDurable,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Fun3dFresh,
        Workload::Fun3dHistory,
        Workload::RtDurable,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Fun3dFresh => "fun3d_fresh",
            Workload::Fun3dHistory => "fun3d_history",
            Workload::RtDurable => "rt_durable",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = None;
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?]
                });
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workloads = workloads.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one workload invocation produced.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Lines for the human-readable table (name, value, unit, note).
    table: Vec<(String, f64, &'static str, String)>,
    env: Vec<(&'static str, String)>,
}

/// Counts runs and their failures; a failed run is reported, not fatal.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("run failed ({what}): {e}");
                None
            }
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let limit = WATCHDOG * args.workloads.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("error: benchmark still running after {limit:?}; giving up");
        std::process::exit(3);
    });
    // Core guard: never record a wall time taken with rank threads
    // outnumbering cores.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < RANKS {
        eprintln!(
            "error: {nproc} core(s) available, the workloads run {RANKS} rank threads; \
             refusing to measure wall time on an oversubscribed machine"
        );
        std::process::exit(2);
    }
    let workdir = match std::env::current_dir() {
        Ok(d) => d.join(".bench_tmp").join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            std::process::exit(2);
        }
    };

    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let r = run_workload(w, &args, &workdir);
        let _ = std::fs::remove_dir_all(&workdir);
        match r {
            Ok(o) => outcomes.push((w, o)),
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                std::process::exit(1);
            }
        }
    }
    let _ = std::fs::remove_dir(workdir.parent().unwrap_or(Path::new(".bench_tmp")));

    let single = outcomes.len() == 1;
    let mut all_metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (w, mut o) in outcomes {
        let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
        o.table.push((
            "failed_frac".into(),
            failed_frac,
            "ratio",
            format!("{} of {} runs", o.failed, o.attempted),
        ));
        print_table(w, &args, &o);
        let mut env: Vec<(&str, String)> = vec![
            ("workload", json_str(w.name())),
            ("seed", args.seed.to_string()),
            ("trace", (args.trace as u8).to_string()),
            ("nproc", nproc.to_string()),
            ("ranks", RANKS.to_string()),
            (
                "llc_bytes",
                llc_bytes().map_or("null".into(), |b| b.to_string()),
            ),
        ];
        env.extend(o.env.iter().map(|(k, v)| (*k, v.clone())));
        println!("{{\"env\": {{{}}}}}", join_kv(&env));
        attempted += o.attempted;
        failed += o.failed;
        for m in o.metrics {
            let name = if single {
                m.name
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            all_metrics.push(Metric { name, ..m });
        }
    }
    // A value that is not a number is a fault of the benchmark: it is
    // printed as 0 (JSON has no NaN) and the result marked incorrect.
    let finite = all_metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = all_metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0 && finite,
        metrics.join(", ")
    );
}

fn run_workload(w: Workload, args: &Args, workdir: &Path) -> Result<Outcome, String> {
    match w {
        Workload::Fun3dFresh => run_fun3d(false, args),
        Workload::Fun3dHistory => run_fun3d(true, args),
        Workload::RtDurable => {
            std::fs::create_dir_all(workdir)
                .map_err(|e| format!("create {}: {e}", workdir.display()))?;
            run_rt(args, workdir)
        }
    }
}

/// What the measuring loop collected.
struct Measured<R> {
    plain: Vec<R>,
    traced: Vec<TracedRun>,
    setup_times: Vec<f64>,
    peaks: Vec<f64>,
    /// `(kind, samples left out for steal)`, for the environment record.
    left_out: Vec<(&'static str, usize)>,
    /// Whether enough untraced runs were calm (see [`STEAL_MAX`]).
    wall_valid: bool,
}

/// The measuring loop shared by the workloads. Untraced runs (and with
/// `--trace 1` a traced run after each) repeat until the runs have
/// taken `--seconds`. With `--trace 0`, set-up repetitions are spread
/// over the same window so `setup_s` samples the machine when the runs
/// do, and `MEMORY_RUNS` runs at the end measure the peak resident set.
/// `first_setup` is the wall time and steal share of the set-up already
/// made.
fn measure<R>(
    args: &Args,
    tally: &mut Tally,
    first_setup: (f64, f64),
    mut setup_rep: impl FnMut() -> Result<f64, String>,
    mut plain: impl FnMut(u32) -> Result<R, String>,
    mut traced: impl FnMut(u32) -> Result<TracedRun, String>,
) -> Result<Measured<R>, String> {
    let mut plains = Vec::new();
    let mut traceds = Vec::new();
    let mut setups = vec![first_setup];
    let mut id = 1u32;
    let mut run_s = 0.0;
    // Runs failing over and over must not keep the loop from ending.
    while (run_s < args.seconds
        || plains.len() < MIN_SAMPLES
        || (args.trace && traceds.len() < MIN_SAMPLES))
        && run_s < 3.0 * args.seconds
    {
        let t0 = Instant::now();
        let (out, steal) = steal_during(|| plain(id));
        if let Some(r) = tally.record("untraced run", out) {
            plains.push((r, steal));
        }
        id += 1;
        if args.trace {
            let (out, steal) = steal_during(|| traced(id));
            if let Some(t) = tally.record("traced run", out) {
                traceds.push((t, steal));
            }
            id += 1;
        }
        run_s += t0.elapsed().as_secs_f64();
        if !args.trace && setup_due(&setups, run_s, args.seconds) {
            let (t, steal) = steal_during(&mut setup_rep);
            setups.push((t?, steal));
        }
    }
    if plains.is_empty() {
        return Err("no untraced run succeeded".into());
    }
    let mut peaks = Vec::new();
    if !args.trace {
        while setups.len() < SETUP_MIN_REPS {
            let (t, steal) = steal_during(&mut setup_rep);
            setups.push((t?, steal));
        }
        // Each memory run starts with the allocator's free pages handed
        // back to the kernel and the peak counter restarted, so its peak
        // counts the memory live during that run (set-up data included),
        // not what earlier runs left behind. They come after the timed
        // runs, whose wall times must not pay the page faults this causes.
        for _ in 0..MEMORY_RUNS {
            release_free_memory();
            reset_peak_rss();
            let out = plain(id);
            id += 1;
            let peak = peak_rss_mb();
            if tally.record("memory run", out).is_some() {
                peaks.push(peak);
            }
        }
    }
    let (plain, runs_out, wall_valid) = calm(plains, MIN_SAMPLES);
    let (traced, traced_out, _) = calm(traceds, MIN_SAMPLES);
    let (setup_times, setups_out, _) = calm(setups, 1);
    Ok(Measured {
        plain,
        traced,
        setup_times,
        peaks,
        left_out: vec![
            ("runs", runs_out),
            ("traced_runs", traced_out),
            ("setups", setups_out),
        ],
        wall_valid,
    })
}

/// The samples taken with at most `STEAL_MAX` steal and how many were
/// left out, or all samples when fewer than `min` are calm; and whether
/// at least `min` were.
fn calm<T>(samples: Vec<(T, f64)>, min: usize) -> (Vec<T>, usize, bool) {
    let total = samples.len();
    let enough = samples.iter().filter(|(_, s)| *s <= STEAL_MAX).count() >= min;
    let kept: Vec<T> = samples
        .into_iter()
        .filter(|(_, s)| !enough || *s <= STEAL_MAX)
        .map(|(x, _)| x)
        .collect();
    let left_out = total - kept.len();
    (kept, left_out, enough)
}

/// Run `f`; also return the share of the machine's CPU time the
/// hypervisor stole from its virtual CPUs meanwhile (0 where
/// `/proc/stat` has no such count).
fn steal_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = cpu_ticks();
    let out = f();
    let share = match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    (out, share)
}

/// `(steal, total)` clock ticks of all CPUs since boot, from the first
/// line of `/proc/stat` (user, nice, system, idle, iowait, irq, softirq,
/// steal; guest time is already inside user and nice).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Whether to repeat set-up after the runs so far: at `SETUP_MIN_REPS`
/// evenly spaced points of the window, and after every run while set-up
/// has cost less than `SETUP_SHARE` of the run time.
fn setup_due(setups: &[(f64, f64)], run_s: f64, window: f64) -> bool {
    let spaced = setups.len() < SETUP_MIN_REPS
        && run_s >= window * setups.len() as f64 / SETUP_MIN_REPS as f64;
    spaced || setups.iter().map(|(t, _)| t).sum::<f64>() < SETUP_SHARE * run_s
}

fn run_fun3d(history: bool, args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));
    let (built, setup_steal) =
        steal_during(|| fun3d::setup(fun3d::TARGET_NODES, args.seed, history, tracer.as_ref()));
    let (b, registered) = built?;
    let expect = fun3d::Expect::compute(&b.w);
    if let Some(reg) = registered {
        tally.record("registering run", fun3d::check(&expect, &reg, false));
    }
    let plain =
        |_| fun3d::run_plain(&b).and_then(|o| fun3d::check(&expect, &o.ranks, history).map(|_| o));

    let t_first = Instant::now();
    let first = tally.record("first run", plain(0));
    let first_run_s = t_first.elapsed().as_secs_f64();
    let reference = first.map(|o| o.ranks);

    let m = measure(
        args,
        &mut tally,
        (b.setup.total_s, setup_steal),
        || {
            Ok(fun3d::setup(fun3d::TARGET_NODES, args.seed, history, None)?
                .0
                .setup
                .total_s)
        },
        plain,
        |id| {
            let tr = tracer.as_ref().expect("traced runs only with a tracer");
            tr.begin_run(id);
            let t = fun3d::run_traced(&b, tr)?;
            fun3d::check(&expect, &t.ranks, history)?;
            if reference.as_ref().is_some_and(|r| *r != t.ranks) {
                return Err("traced results differ from the untraced run's".into());
            }
            Ok(TracedRun {
                run: id,
                wall_s: t.wall_s,
                counts: t.counts,
            })
        },
    )?;

    let walls: Vec<f64> = m.plain.iter().map(|o| o.wall_s).collect();
    let series =
        |f: &dyn Fn(&fun3d::RunOut) -> f64| -> Vec<f64> { m.plain.iter().map(f).collect() };
    let import = series(&|o| o.report.get("import"));
    let index = series(&|o| o.report.get("index-distribution"));

    let mut o = Outcome::new(&tally, &m, &walls, first_run_s, args);
    o.env
        .push(("working_set_bytes", pfs_resident_bytes(&b.pfs).to_string()));
    o.env.push((
        "metadata_store",
        json_str("in-memory (CachedStore over SqlStore)"),
    ));
    o.env.push(("wal_fs", json_str("none")));
    o.env
        .push(("flush_policy", json_str("none (in-memory database)")));

    let w = if history {
        Workload::Fun3dHistory
    } else {
        Workload::Fun3dFresh
    };
    if let Some(tr) = &tracer {
        let untraced = Untraced {
            wall_s: median(&walls),
            virt_import_s: median(&import),
            virt_index_s: median(&index),
            recover_s: 0.0,
        };
        o.per_layer(tr, &m.traced, &untraced, &b.setup, w, args);
    } else {
        let virt = series(&|o| o.report.total());
        let write_bw = series(&|o| o.report.bandwidth_mbs("write"));
        let read_bw = series(&|o| o.report.bandwidth_mbs("read"));
        o.end_to_end(
            [&walls, &m.setup_times, &virt, &write_bw, &read_bw, &m.peaks],
            &[
                ("virt_import_s", &import, "s"),
                ("virt_index_s", &index, "s"),
            ],
        );
    }
    Ok(o)
}

fn run_rt(args: &Args, workdir: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));
    let setup = || rt::setup(rt::TARGET_NODES, rt::TIMESTEPS, args.seed, workdir);
    let (built, setup_steal) = steal_during(setup);
    let b = built?;

    let t_first = Instant::now();
    let first = tally.record("first run", rt::run_plain(&b, 0));
    let first_run_s = t_first.elapsed().as_secs_f64();
    let reference = first.as_ref().map(|o| o.checksum);
    let resident = first.as_ref().map_or(0, |o| o.resident_bytes);

    let m = measure(
        args,
        &mut tally,
        (b.setup.total_s, setup_steal),
        || Ok(setup()?.setup.total_s),
        |id| rt::run_plain(&b, id),
        |id| {
            let tr = tracer.as_ref().expect("traced runs only with a tracer");
            tr.begin_run(id);
            let t = rt::run_traced(&b, id, tr)?;
            if reference.is_some_and(|r| r != t.checksum) {
                return Err("traced read-back differs from the untraced run's".into());
            }
            Ok(TracedRun {
                run: id,
                wall_s: t.wall_s,
                counts: t.counts,
            })
        },
    )?;

    let walls: Vec<f64> = m.plain.iter().map(|o| o.wall_s).collect();
    let series = |f: &dyn Fn(&rt::RunOut) -> f64| -> Vec<f64> { m.plain.iter().map(f).collect() };
    let recover = series(&|o| o.recover_s);

    let mut o = Outcome::new(&tally, &m, &walls, first_run_s, args);
    o.env.push(("working_set_bytes", resident.to_string()));
    o.env.push((
        "metadata_store",
        json_str("durable (CachedStore over SqlStore, WAL)"),
    ));
    o.env.push((
        "wal_fs",
        json_str(&fs_type(workdir).unwrap_or_else(|| "unknown".into())),
    ));
    o.env.push((
        "flush_policy",
        json_str("fsync per commit (WAL group commit; one transaction per timestep)"),
    ));

    if let Some(tr) = &tracer {
        let untraced = Untraced {
            wall_s: median(&walls),
            recover_s: median(&recover),
            ..Untraced::default()
        };
        o.per_layer(
            tr,
            &m.traced,
            &untraced,
            &b.setup,
            Workload::RtDurable,
            args,
        );
    } else {
        let virt = series(&|o| o.report.total());
        let write_bw = series(&|o| o.report.bandwidth_mbs("write"));
        let read_bw = series(&|o| rt::read_mbs(&o.report, &b.w));
        o.end_to_end(
            [&walls, &m.setup_times, &virt, &write_bw, &read_bw, &m.peaks],
            &[("recover_s", &recover, "s")],
        );
    }
    Ok(o)
}

impl Outcome {
    fn new<R>(
        tally: &Tally,
        m: &Measured<R>,
        walls: &[f64],
        first_run_s: f64,
        args: &Args,
    ) -> Self {
        let left_out: Vec<(&str, String)> = m
            .left_out
            .iter()
            .map(|&(k, n)| (k, n.to_string()))
            .collect();
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: Vec::new(),
            table: Vec::new(),
            env: vec![
                ("seconds", args.seconds.to_string()),
                (
                    "load",
                    json_str("closed loop, one application run at a time"),
                ),
                ("wall_samples", walls.len().to_string()),
                ("setup_reps", m.setup_times.len().to_string()),
                ("first_run_s", first_run_s.to_string()),
                ("warm_wall_median_s", median(walls).to_string()),
                ("wall_valid", m.wall_valid.to_string()),
                ("steal_max", STEAL_MAX.to_string()),
                ("left_out_for_steal", format!("{{{}}}", join_kv(&left_out))),
            ],
        }
    }

    /// Report the medians of the untraced series as the end-to-end
    /// metrics ([`E2E`], in order), and every series' spread in the
    /// table and the environment record.
    fn end_to_end(&mut self, series: [&[f64]; 6], extra: &[(&'static str, &[f64], &'static str)]) {
        let mut spreads = Vec::new();
        let all = E2E
            .iter()
            .zip(series)
            .map(|(&(name, unit), xs)| (name, xs, unit))
            .collect::<Vec<_>>();
        for (i, &(name, xs, unit)) in all.iter().chain(extra).enumerate() {
            if i < E2E.len() {
                self.metrics.push(metric(name, median(xs), unit));
            }
            self.table.push(row(name, xs, unit));
            spreads.push((name, rel_spread(xs).to_string()));
        }
        self.env
            .push(("iqr_over_median", format!("{{{}}}", join_kv(&spreads))));
    }

    /// Report the per-layer metrics of the traced runs and write out
    /// their spans.
    fn per_layer(
        &mut self,
        tr: &Tracer,
        traced: &[TracedRun],
        untraced: &Untraced,
        setup: &SetupStats,
        w: Workload,
        args: &Args,
    ) {
        let cost = MachineConfig::origin2000().io.metadata_cost;
        self.metrics = layers::per_layer(&tr.spans(), traced, untraced, cost, setup);
        for m in &self.metrics {
            self.table
                .push((m.name.clone(), m.value, m.unit, String::new()));
        }
        write_trace(tr, traced, w, args);
    }
}

fn row(name: &str, xs: &[f64], unit: &'static str) -> (String, f64, &'static str, String) {
    (
        name.to_string(),
        median(xs),
        unit,
        format!(
            "median of {}, IQR/median {:.2}%, min {:.6}, max {:.6}",
            xs.len(),
            100.0 * rel_spread(xs),
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        ),
    )
}

/// Bytes held by the files of `pfs`.
pub fn pfs_resident_bytes(pfs: &sdm_pfs::Pfs) -> u64 {
    pfs.list().iter().filter_map(|f| pfs.file_len(f).ok()).sum()
}

fn write_trace(tr: &Tracer, traced: &[TracedRun], w: Workload, args: &Args) {
    let path = PathBuf::from(".bench_out").join(format!("{}.spans.jsonl", w.name()));
    let runs: Vec<u32> = std::iter::once(0)
        .chain(traced.iter().take(WRITTEN_RUNS).map(|r| r.run))
        .collect();
    let header = format!(
        "{{\"workload\": {}, \"seed\": {}, \"ranks\": {RANKS}, \"runs\": {runs:?}}}",
        json_str(w.name()),
        args.seed
    );
    match tr.write_jsonl(&path, &header, &runs) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn print_table(w: Workload, args: &Args, o: &Outcome) {
    eprintln!(
        "== {} (seed {}, {} s, trace {}) ==",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for (name, v, unit, note) in &o.table {
        eprintln!("  {name:<34} {v:>16.6} {unit:<6} {note}");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn join_kv(kv: &[(&str, String)]) -> String {
    kv.iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Return free heap pages of every glibc arena to the kernel.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointer and accepts any pad; it
    // walks glibc's own arenas under their locks.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Restart the process's peak-resident-set counter (`VmHWM`) from the
/// current resident set, so the next reading is the peak of the run
/// that follows. Where the kernel refuses, readings stay lifetime peaks.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Size of the largest CPU cache of cpu0, in bytes.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let p = e.ok()?.path();
        let size = std::fs::read_to_string(p.join("size")).ok()?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        num.parse::<u64>().ok().map(|n| n * mult)
    })
    .max()
}

/// File-system type of the mount holding `path`.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, ty)| ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "rt_durable",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::RtDurable]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(args(&["--workload", "all"]).unwrap().workloads.len(), 3);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload required");
        assert!(args(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "all", "--bogus"]).is_err());
    }

    #[test]
    fn calm_leaves_out_stolen_samples_only_when_enough_remain() {
        let samples = vec![(1, 0.0), (2, 0.2), (3, 0.01), (4, STEAL_MAX)];
        assert_eq!(calm(samples.clone(), 3), (vec![1, 3, 4], 1, true));
        assert_eq!(calm(samples, 4), (vec![1, 2, 3, 4], 0, false));
    }

    /// `(name, unit)` of every metric object in one list of
    /// `BENCHMARK.json`.
    fn declared(json: &str, list: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closed")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let rest = &rest[rest.find('"').expect("value") + 1..];
            rest[..rest.find('"').expect("value end")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let e2e: Vec<(String, String)> = E2E
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let emitted: Vec<(String, String)> =
            layers::per_layer(&[], &[], &Untraced::default(), 0.0, &SetupStats::default())
                .into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect();
        assert_eq!(declared(&json, "per_layer"), emitted);
    }
}
