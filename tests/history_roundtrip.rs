//! Integration: history files across runs — registration, replay
//! equivalence, cross-process-count invalidation, corruption fallback,
//! and database persistence across "sessions".

use std::sync::Arc;

use sdm::apps::fun3d::{run_sdm, Fun3dOptions};
use sdm::apps::Fun3dWorkload;
use sdm::metadb::Database;
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

fn world() -> (Fun3dWorkload, Arc<Pfs>, Arc<Database>) {
    let w = Fun3dWorkload::new(220, 3, 21);
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let db = Arc::new(Database::new());
    w.stage(&pfs);
    (w, pfs, db)
}

fn run(
    w: &Fun3dWorkload,
    pfs: &Arc<Pfs>,
    db: &Arc<Database>,
    nprocs: usize,
    opts: Fun3dOptions,
) -> Vec<sdm::apps::fun3d::Fun3dResult> {
    // Each run gets a fresh store over the shared database, exactly like
    // a separate job session re-attaching to the metadata service.
    let store = sdm::core::CachedStore::shared(db);
    World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store, w, opts) = (Arc::clone(pfs), Arc::clone(&store), w.clone(), opts);
        move |c| run_sdm(c, &pfs, &store, &w, &opts).unwrap()
    })
}

#[test]
fn replay_produces_identical_partitions_and_results() {
    let (w, pfs, db) = world();
    let fresh = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    let replay = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    for (a, b) in fresh.iter().zip(&replay) {
        assert!(!a.history_hit && b.history_hit);
        assert_eq!(a.partition, b.partition, "partitions must be identical");
        assert!(
            (a.p_checksum - b.p_checksum).abs() < 1e-9,
            "results must be identical"
        );
    }
}

#[test]
fn use_history_without_registration_falls_back() {
    let (w, pfs, db) = world();
    let out = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| !r.history_hit),
        "no registration: must run fresh"
    );
}

#[test]
fn different_process_count_misses() {
    let (w3, pfs, db) = world();
    run(
        &w3,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    // Same mesh partitioned for 2 ranks.
    let w2 = Fun3dWorkload::new(220, 2, 21);
    // Note: same problem size key (edge count), different nprocs.
    assert_eq!(w2.mesh.num_edges(), w3.mesh.num_edges());
    let out = run(
        &w2,
        &pfs,
        &db,
        2,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| !r.history_hit),
        "2-proc run must miss a 3-proc history"
    );
}

#[test]
fn truncated_history_file_falls_back_and_deregisters() {
    let (w, pfs, db) = world();
    run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    // Truncate the history file to a few bytes.
    let name = format!("fun3d.hist.{}.3", w.mesh.num_edges());
    assert!(pfs.exists(&name), "history file {name} must exist");
    let (f, _) = pfs.open(&name, 0.0).unwrap();
    let len = f.len();
    pfs.delete(&name, 0.0).unwrap();
    let (f2, _) = pfs.open_or_create(&name, 0.0).unwrap();
    pfs.write_at(&f2, 0, &vec![0u8; (len / 10) as usize], 0.0)
        .unwrap();

    let out = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| !r.history_hit),
        "corrupt history must fall back"
    );
    // The poisoned registration is gone: next run misses cleanly too.
    let again = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(again.iter().all(|r| !r.history_hit));
}

#[test]
fn metadata_persists_across_database_sessions() {
    let (w, pfs, _) = world();
    let dir = tempfile::tempdir().unwrap();
    let db = Arc::new(Database::open(dir.path()).unwrap());
    run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    // Checkpoint, close, and reopen the DB (a new "MySQL session"),
    // keep the PFS.
    db.checkpoint().unwrap();
    drop(db);
    let db2 = Arc::new(Database::open(dir.path()).unwrap());
    assert_eq!(db2.recovery_info().unwrap().replayed_txs, 0);
    let out = run(
        &w,
        &pfs,
        &db2,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| r.history_hit),
        "a reloaded metadata DB must still resolve the history file"
    );
}
