//! The `rt_durable` workload: the Rayleigh-Taylor template at Level 1
//! for 1000 steps on a durable metadata store (WAL, fsync per commit),
//! then a reopen of the store that replays its log.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sdm_apps::rt::{self, node_value, tri_value};
use sdm_apps::{PhaseReport, RtWorkload};
use sdm_core::{CachedStore, OrgLevel, Sdm, SdmConfig, SdmResult, SharedStore};
use sdm_mesh::gen::rt_interface_mesh;
use sdm_mesh::CsrGraph;
use sdm_mpi::Comm;
use sdm_partition::{edge_cut, imbalance, partition, Method};
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

use crate::layers::{counter_delta, DbDelta, LayerCounts};
use crate::timed_store::TimedStore;
use crate::trace::{Probe, Tracer};
use crate::{run_world, SetupStats, RANKS};

/// ~2k interface nodes: ~48 KB of node and triangle data per step.
pub const TARGET_NODES: usize = 2_000;
/// Steps per run: one execution-insert transaction and one WAL fsync
/// each.
pub const TIMESTEPS: usize = 1_000;
const ORG: OrgLevel = OrgLevel::Level1;
const APP: &str = "rt";
const DATASETS: [&str; 2] = ["node_data", "tri_data"];

pub struct RtBench {
    pub w: RtWorkload,
    /// Directory the per-run durable stores are created under.
    pub root: PathBuf,
    pub setup: SetupStats,
}

/// One finished run.
pub struct RunOut {
    pub wall_s: f64,
    pub report: PhaseReport,
    /// Wall time to reopen the durable store and replay its log.
    pub recover_s: f64,
    /// Counters the run moved (`mpi` only for traced runs).
    pub counts: LayerCounts,
    /// Bytes resident in the PFS after the run.
    pub resident_bytes: u64,
    /// Sum of the last step's node data as read back by the oracle.
    pub checksum: f64,
}

/// Build the workload: mesh generation, partitioning, and opening an
/// empty durable store under `root`.
pub fn setup(
    target_nodes: usize,
    timesteps: usize,
    seed: u64,
    root: &Path,
) -> Result<RtBench, String> {
    let t0 = Instant::now();
    let side = (target_nodes as f64).sqrt().ceil().max(3.0) as usize;
    let mesh = rt_interface_mesh(side, side, 0.35, 4);
    let gen_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let graph = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
    let pv = partition(&graph, Some(&mesh.coords), RANKS, Method::Multilevel, seed);
    let partition_s = t1.elapsed().as_secs_f64();
    let cut = edge_cut(&graph, &pv);
    let imb = imbalance(&pv, RANKS);

    let dir = root.join("setup");
    let store = open_fresh(&dir)?;
    drop(store);
    let total_s = t0.elapsed().as_secs_f64();
    remove_dir(&dir)?;
    Ok(RtBench {
        w: RtWorkload {
            mesh: Arc::new(mesh),
            partitioning_vector: Arc::new(pv),
            timesteps,
        },
        root: root.to_path_buf(),
        setup: SetupStats {
            total_s,
            gen_s,
            partition_s,
            edge_cut: cut as f64,
            imbalance: imb,
        },
    })
}

fn open_fresh(dir: &Path) -> Result<SharedStore, String> {
    remove_dir(dir)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    CachedStore::open_durable(dir).map_err(|e| format!("open durable store: {e}"))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// One untraced application run: `rt::run_sdm` on every rank over a
/// fresh durable store, then the reopen and the oracle.
pub fn run_plain(b: &RtBench, run: u32) -> Result<RunOut, String> {
    run_with(b, run, None)
}

/// One traced run: the benchmark's own copy of `rt::run_sdm` issues the
/// same `Sdm` call sequence, each call inside a session span, over
/// the store wrapped in the timing decorator.
pub fn run_traced(b: &RtBench, run: u32, tracer: &Arc<Tracer>) -> Result<RunOut, String> {
    run_with(b, run, Some(tracer))
}

fn run_with(b: &RtBench, run: u32, tracer: Option<&Arc<Tracer>>) -> Result<RunOut, String> {
    let dir = b.root.join(format!("run{run}"));
    let out = (|| {
        let store = open_fresh(&dir)?;
        let db = Arc::clone(store.database());
        let db0 = db.stats();
        let pfs = Pfs::new(MachineConfig::origin2000());
        let (wall_s, reports, mpi) = match tracer {
            None => {
                let (wall_s, reports) = run_world(|c| rt::run_sdm(c, &pfs, &store, &b.w, ORG))?;
                (wall_s, reports, BTreeMap::new())
            }
            Some(tr) => {
                let timed = TimedStore::shared(Arc::clone(&store), Arc::clone(tr));
                let probe = Probe { pfs: &pfs, db: &db };
                let (wall_s, out) = run_world(|c| {
                    let report = drive(c, &pfs, &timed, &b.w, tr, &probe)?;
                    Ok((report, c.counters().clone()))
                })?;
                let mpi = out[0].1.snapshot();
                (wall_s, out.into_iter().map(|(r, _)| r).collect(), mpi)
            }
        };
        let counts = LayerCounts {
            mpi,
            pfs: counter_delta(&BTreeMap::new(), &pfs.counters().snapshot()),
            db: DbDelta::between(&db0, &db.stats()),
        };
        let resident_bytes = crate::pfs_resident_bytes(&pfs);
        drop(db);
        drop(store);

        let t0 = Instant::now();
        let reopened =
            CachedStore::open_durable(&dir).map_err(|e| format!("reopen durable store: {e}"))?;
        let recover_s = t0.elapsed().as_secs_f64();
        let checksum = check(&reopened, &pfs, &b.w)?;
        Ok(RunOut {
            wall_s,
            report: PhaseReport::reduce_max(&reports),
            recover_s,
            counts,
            resident_bytes,
            checksum,
        })
    })();
    remove_dir(&dir)?;
    out
}

/// The RT oracle, on the reopened store: the run is recorded, every
/// (dataset, timestep) execution record is found with the offset and
/// file Level 1 gives it, and the last step's node data read back
/// through those records equals `rt::node_value`. Returns the sum of
/// that node data.
pub fn check(store: &SharedStore, pfs: &Pfs, w: &RtWorkload) -> Result<f64, String> {
    let runid = store
        .latest_runid_for_app(APP)
        .map_err(|e| e.to_string())?
        .ok_or("no run recorded after reopen")?;
    for t in 0..w.timesteps as i64 {
        for ds in DATASETS {
            let want = (0, ORG.file_name(APP, 0, ds, t));
            match store
                .lookup_execution(runid, ds, t)
                .map_err(|e| e.to_string())?
            {
                Some(got) if got == want => {}
                got => return Err(format!("{ds} step {t}: record {got:?}, expected {want:?}")),
            }
        }
    }
    let last = w.timesteps - 1;
    let check_file = |ds: &str, len: usize, value: &dyn Fn(usize) -> f64| {
        let (off, name) = store
            .lookup_execution(runid, ds, last as i64)
            .map_err(|e| e.to_string())?
            .ok_or("missing record")?;
        let (f, _) = pfs.open(&name, 0.0).map_err(|e| e.to_string())?;
        let mut vals = vec![0.0f64; len];
        pfs.read_exact_at(&f, off as u64, sdm_mpi::pod::as_bytes_mut(&mut vals), 0.0)
            .map_err(|e| e.to_string())?;
        for (i, &v) in vals.iter().enumerate() {
            if v != value(i) {
                return Err(format!("{ds} step {last} element {i}: {v} != {}", value(i)));
            }
        }
        Ok::<f64, String>(vals.iter().sum())
    };
    let sum = check_file("node_data", w.mesh.num_nodes(), &|n| {
        node_value(n as u32, last)
    })?;
    check_file("tri_data", w.mesh.num_cells(), &|k| {
        tri_value(k as u64, last)
    })?;
    Ok(sum)
}

fn drive(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    store: &SharedStore,
    w: &RtWorkload,
    tr: &Tracer,
    probe: &Probe<'_>,
) -> SdmResult<PhaseReport> {
    tr.bind_rank(comm.rank());
    let total_nodes = w.mesh.num_nodes() as u64;
    let total_tris = w.mesh.num_cells() as u64;
    let mut report = PhaseReport::new();
    let cfg = SdmConfig {
        org: ORG,
        ..SdmConfig::default()
    };
    let (mut sdm, node_h, tri_h) = tr.session(probe, comm, "session.init", |c| {
        let mut sdm = Sdm::initialize_with(c, pfs, store, APP, cfg)?;
        let reg = sdm
            .group(c)
            .dataset::<f64>(DATASETS[0], total_nodes)
            .dataset::<f64>(DATASETS[1], total_tris)
            .build()?;
        let node_h = reg.handle::<f64>(DATASETS[0])?;
        let tri_h = reg.handle::<f64>(DATASETS[1])?;
        SdmResult::Ok((sdm, node_h, tri_h))
    })?;

    let me = comm.rank() as u32;
    let owned: Vec<u64> = w
        .partitioning_vector
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p == me)
        .map(|(n, _)| n as u64)
        .collect();
    let chunk = total_tris.div_ceil(comm.size() as u64);
    let tlo = (me as u64 * chunk).min(total_tris);
    let thi = ((me as u64 + 1) * chunk).min(total_tris);
    let tri_map: Vec<u64> = (tlo..thi).collect();
    tr.session(probe, comm, "session.view", |c| {
        sdm.set_view(c, node_h, &owned)?;
        sdm.set_view(c, tri_h, &tri_map)
    })?;

    comm.barrier();
    for t in 0..w.timesteps {
        let node_vals: Vec<f64> = owned.iter().map(|&n| node_value(n as u32, t)).collect();
        let tri_vals: Vec<f64> = tri_map.iter().map(|&k| tri_value(k, t)).collect();
        let t0 = comm.now();
        tr.session(probe, comm, "session.commit", |c| {
            let mut step = sdm.timestep(c, t as i64);
            step.write(node_h, &node_vals)?;
            step.write(tri_h, &tri_vals)?;
            step.commit()
        })?;
        report.add("write", comm.now() - t0);
    }
    report.add_bytes("write", w.total_bytes());

    let t0 = comm.now();
    let mut node_back = vec![0.0f64; owned.len()];
    tr.session(probe, comm, "session.read", |c| {
        sdm.read_handle(c, node_h, (w.timesteps - 1) as i64, &mut node_back)
    })?;
    report.add("read", comm.now() - t0);

    tr.session(probe, comm, "session.finalize", |c| sdm.finalize(c))?;
    Ok(report)
}

/// Modelled read bandwidth of the template's read-back of the last
/// step's node dataset (the template records no read bytes itself).
pub fn read_mbs(report: &PhaseReport, w: &RtWorkload) -> f64 {
    let t = report.get("read");
    if t > 0.0 {
        w.mesh.num_nodes() as f64 * 8.0 / 1e6 / t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sdm-e2ebench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn oracle_accepts_real_runs_and_rejects_wrong_answers() {
        let root = root("oracle");
        let b = setup(300, 6, 11, &root).unwrap();
        let good = run_plain(&b, 0).unwrap();
        assert!(good.recover_s > 0.0);
        assert!(good.counts.db.wal_fsyncs > 0, "durable store fsyncs");

        // Tamper with a real, reopened store and PFS.
        let dir = root.join("tamper");
        let store = open_fresh(&dir).unwrap();
        let pfs = Pfs::new(MachineConfig::origin2000());
        run_world(|c| rt::run_sdm(c, &pfs, &store, &b.w, ORG)).unwrap();
        store.flush().unwrap();
        check(&store, &pfs, &b.w).unwrap();

        // A wrong value in the last step's node file.
        let name = ORG.file_name(APP, 0, "node_data", 5);
        let (f, _) = pfs.open(&name, 0.0).unwrap();
        pfs.write_at(&f, 8, &7.0f64.to_ne_bytes(), 0.0).unwrap();
        assert!(check(&store, &pfs, &b.w).is_err(), "corrupt node data");

        // A record with a wrong offset.
        let runid = store.latest_runid_for_app(APP).unwrap().unwrap();
        let pfs2 = Pfs::new(MachineConfig::origin2000());
        run_world(|c| rt::run_sdm(c, &pfs2, &store, &b.w, ORG)).unwrap();
        let runid2 = store.latest_runid_for_app(APP).unwrap().unwrap();
        assert_ne!(runid, runid2);
        store
            .record_execution(
                runid2,
                "tri_data",
                3,
                64,
                &ORG.file_name(APP, 0, "tri_data", 3),
            )
            .unwrap();
        store.flush().unwrap();
        assert!(check(&store, &pfs2, &b.w).is_err(), "wrong offset");

        // A run with fewer steps than expected.
        let mut longer = b.w.clone();
        longer.timesteps += 1;
        assert!(check(&store, &pfs2, &longer).is_err(), "missing step");
        drop(store);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn traced_run_matches_untraced() {
        let root = root("traced");
        let b = setup(300, 4, 2, &root).unwrap();
        let plain = run_plain(&b, 0).unwrap();
        let tracer = Arc::new(Tracer::default());
        let traced = run_traced(&b, 1, &tracer).unwrap();
        assert_eq!(plain.checksum, traced.checksum);
        assert_eq!(plain.counts.db.transactions, traced.counts.db.transactions);
        assert!(traced.counts.mpi["sdm.metadata_syncs"] > 0);
        let commits = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "session.commit")
            .count();
        assert_eq!(commits, 4 * RANKS);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
