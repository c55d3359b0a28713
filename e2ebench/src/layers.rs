//! Per-layer metrics from the traced runs: spans for time, counter
//! deltas read at run boundaries for work.

use std::collections::BTreeMap;

use sdm_metadb::DbStats;

use crate::stats::{median, percentile};
use crate::trace::{child_coverage_s, Span};
use crate::{metric, Metric, SetupStats, RANKS};

/// Engine counters moved by one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbDelta {
    pub transactions: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub rows_scanned: u64,
    pub rows_returned: u64,
    pub full_scans: u64,
}

impl DbDelta {
    pub fn between(before: &DbStats, after: &DbStats) -> DbDelta {
        DbDelta {
            transactions: after.transactions - before.transactions,
            wal_appends: after.wal_appends - before.wal_appends,
            wal_fsyncs: after.wal_fsyncs - before.wal_fsyncs,
            rows_scanned: after.rows_scanned - before.rows_scanned,
            rows_returned: after.rows_returned - before.rows_returned,
            full_scans: after.full_scans - before.full_scans,
        }
    }
}

/// Counters moved by one traced run, per layer.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// The run's world counters (`mpi.*`, `sdm.*`); a world is fresh
    /// per run.
    pub mpi: BTreeMap<String, u64>,
    /// `Pfs::counters()` delta over the run (`pfs.*` and the sieve and
    /// two-phase counters sdm-mpi keeps there).
    pub pfs: BTreeMap<String, u64>,
    pub db: DbDelta,
}

/// `after - before`, per counter.
pub fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, &v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Values measured on the untraced runs of a `--trace 1` invocation
/// (0 where the workload has no such phase).
#[derive(Debug, Clone, Copy, Default)]
pub struct Untraced {
    pub wall_s: f64,
    pub virt_import_s: f64,
    pub virt_index_s: f64,
    pub recover_s: f64,
}

/// One traced run.
pub struct TracedRun {
    pub run: u32,
    pub wall_s: f64,
    pub counts: LayerCounts,
}

/// Session calls reported as `session.<call>_s`.
const SESSION_CALLS: [&str; 8] = [
    "init",
    "import",
    "index_fresh",
    "index_history",
    "registry",
    "view",
    "read",
    "finalize",
];

fn get(m: &BTreeMap<String, u64>, k: &str) -> f64 {
    m.get(k).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a workload. `untraced` holds medians over
/// the untraced runs made in the same process.
pub fn per_layer(
    spans: &[Span],
    runs: &[TracedRun],
    untraced: &Untraced,
    metadata_cost_s: f64,
    setup: &SetupStats,
) -> Vec<Metric> {
    let mut by_run: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_run.entry(s.run).or_default().push(s);
    }
    let timed: Vec<&[&Span]> = runs
        .iter()
        .map(|r| by_run.get(&r.run).map_or(&[][..], |v| &v[..]))
        .collect();
    let pooled = |name: &str| -> Vec<f64> {
        timed
            .iter()
            .flat_map(|v| v.iter())
            .filter(|s| s.name == name)
            .map(|s| s.dur_s())
            .collect()
    };
    // Per run: the slowest rank's total time in spans named `name`.
    let wall_of = |spans: &[&Span], name: &str| -> f64 {
        let mut per_rank = BTreeMap::<u32, f64>::new();
        for s in spans.iter().filter(|s| s.name == name) {
            *per_rank.entry(s.rank).or_default() += s.dur_s();
        }
        per_rank.values().copied().fold(0.0, f64::max)
    };
    let per_run = |f: &dyn Fn(&[&Span], &TracedRun) -> f64| -> f64 {
        let xs: Vec<f64> = timed.iter().zip(runs).map(|(s, r)| f(s, r)).collect();
        median(&xs)
    };

    let mut out = vec![
        metric("mesh.gen_s", setup.gen_s, "s"),
        metric("partition.s", setup.partition_s, "s"),
        metric("partition.edge_cut", setup.edge_cut, "count"),
        metric("partition.imbalance", setup.imbalance, "ratio"),
    ];
    for call in SESSION_CALLS {
        let name = format!("session.{call}");
        let v = if call == "registry" {
            // The registering run belongs to `fun3d_history`'s set-up.
            let xs: Vec<f64> = by_run
                .values()
                .map(|v| wall_of(v, &name))
                .filter(|&x| x > 0.0)
                .collect();
            median(&xs)
        } else {
            per_run(&|s, _| wall_of(s, &name))
        };
        out.push(metric(&format!("{name}_s"), v, "s"));
    }
    let commits = pooled("session.commit");
    out.push(metric(
        "session.commit_ms_p50",
        1e3 * percentile(&commits, 50.0),
        "ms",
    ));
    out.push(metric(
        "session.commit_ms_p99",
        1e3 * percentile(&commits, 99.0),
        "ms",
    ));
    out.push(metric(
        "session.metadata_syncs",
        per_run(&|_, r| get(&r.counts.mpi, "sdm.metadata_syncs")),
        "count",
    ));
    // Session self time: session spans minus the store calls under
    // them, averaged over ranks.
    out.push(metric(
        "session.self_s",
        per_run(&|spans, _| {
            let mut kids: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
            for c in spans.iter().filter(|c| c.parent != 0) {
                kids.entry(c.parent).or_default().push(c);
            }
            let total: f64 = spans
                .iter()
                .filter(|s| s.layer() == "session")
                .map(|p| p.dur_s() - child_coverage_s(p, kids.get(&p.id).map_or(&[], |v| v)))
                .sum();
            total / RANKS as f64
        }),
        "s",
    ));
    out.push(metric(
        "apps.sweep_s",
        per_run(&|s, _| wall_of(s, "apps.sweep")),
        "s",
    ));

    let store_spans = |spans: &[&Span]| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.layer() == "store")
            .map(|s| s.dur_s())
            .collect()
    };
    let store_wall = |spans: &[&Span]| store_spans(spans).iter().sum::<f64>();
    let store_calls: Vec<f64> = timed
        .iter()
        .flat_map(|v| store_spans(v))
        .map(|d| d * 1e6)
        .collect();
    let flushes: Vec<f64> = pooled("store.flush").iter().map(|d| d * 1e6).collect();
    out.extend([
        metric(
            "store.calls",
            per_run(&|s, _| store_spans(s).len() as f64),
            "count",
        ),
        metric("store.wall_s", per_run(&|s, _| store_wall(s)), "s"),
        metric(
            "store.wall_frac",
            per_run(&|s, r| ratio(store_wall(s), r.wall_s)),
            "ratio",
        ),
        metric("store.call_us_p50", percentile(&store_calls, 50.0), "us"),
        metric("store.call_us_p99", percentile(&store_calls, 99.0), "us"),
        metric("store.flush_us_p99", percentile(&flushes, 99.0), "us"),
        metric(
            "store.modelled_s",
            per_run(&|_, r| get(&r.counts.pfs, "pfs.metadata_ops") * metadata_cost_s),
            "s",
        ),
    ]);

    let db = |f: &dyn Fn(&DbDelta) -> u64| per_run(&|_, r| f(&r.counts.db) as f64);
    let scanned: u64 = runs.iter().map(|r| r.counts.db.rows_scanned).sum();
    let returned: u64 = runs.iter().map(|r| r.counts.db.rows_returned).sum();
    out.extend([
        metric("metadb.transactions", db(&|d| d.transactions), "count"),
        metric("metadb.wal_appends", db(&|d| d.wal_appends), "count"),
        metric("metadb.wal_fsyncs", db(&|d| d.wal_fsyncs), "count"),
        metric(
            "metadb.rows_scanned_per_returned",
            ratio(scanned as f64, returned as f64),
            "ratio",
        ),
        metric("metadb.full_scans", db(&|d| d.full_scans), "count"),
    ]);

    let mpi = |k: &'static str| per_run(&|_, r| get(&r.counts.mpi, k));
    let pfs = |k: &'static str| per_run(&|_, r| get(&r.counts.pfs, k));
    let pfs_sum = |k: &str| runs.iter().map(|r| get(&r.counts.pfs, k)).sum::<f64>();
    out.extend([
        metric("mpi.sends", mpi("mpi.sends"), "count"),
        metric("mpi.send_bytes", mpi("mpi.send_bytes"), "B"),
        metric("mpi.alltoalls", mpi("mpi.alltoalls"), "count"),
        metric("mpi.barriers", mpi("mpi.barriers"), "count"),
        metric(
            "mpi.collective_io",
            per_run(&|_, r| {
                get(&r.counts.mpi, "mpi.read_alls") + get(&r.counts.mpi, "mpi.write_alls")
            }),
            "count",
        ),
        metric(
            "mpi.sieve_ops",
            per_run(&|_, r| {
                get(&r.counts.pfs, "mpi.sieve_reads") + get(&r.counts.pfs, "mpi.sieve_writes")
            }),
            "count",
        ),
        metric("mpi.twophase_rmw", pfs("mpi.twophase_rmw"), "count"),
        metric("pfs.opens", pfs("pfs.opens"), "count"),
        metric("pfs.views", pfs("pfs.views"), "count"),
        metric("pfs.metadata_ops", pfs("pfs.metadata_ops"), "count"),
        metric("pfs.read_bytes", pfs("pfs.read_bytes"), "B"),
        metric("pfs.write_bytes", pfs("pfs.write_bytes"), "B"),
        metric(
            "pfs.bytes_per_read_op",
            ratio(pfs_sum("pfs.read_bytes"), pfs_sum("pfs.read_ops")),
            "B",
        ),
        metric(
            "pfs.bytes_per_write_op",
            ratio(pfs_sum("pfs.write_bytes"), pfs_sum("pfs.write_ops")),
            "B",
        ),
    ]);

    let traced_wall = median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    out.extend([
        metric("store.recover_s", untraced.recover_s, "s"),
        metric("virt.import_s", untraced.virt_import_s, "s"),
        metric("virt.index_s", untraced.virt_index_s, "s"),
        metric(
            "trace.overhead_frac",
            ratio(traced_wall, untraced.wall_s) - 1.0,
            "ratio",
        ),
    ]);
    out
}
