//! Integration tests for the typed session API.
//!
//! * Property: `DataView::compile`'s permutation round-trips — writing
//!   through the permutation and reading back through its inverse is
//!   the identity, for arbitrary (unique, in-range, shuffled) map
//!   arrays.
//! * Property: the single-pass filetype `DataView::compile` builds is
//!   exactly the flattened `resized(indexed_block(1, sorted_map))`
//!   datatype, for ascending, shuffled, reversed, gapped and empty maps
//!   of every `SdmType`; duplicate and out-of-range maps are rejected
//!   with the same `SdmError::Usage` messages.
//! * `TimestepScope` writes are **byte-identical** to the per-dataset
//!   legacy path at all three file-organization levels, while paying
//!   one metadata sync per timestep instead of one per dataset and
//!   landing each step's execution rows in a single store transaction.

#![allow(deprecated)] // half of the equivalence pair *is* the legacy veneer

use std::sync::Arc;

use proptest::prelude::*;
use sdm::core::schema::ExecutionRow;
use sdm::core::view::DataView;
use sdm::core::{OrgLevel, Sdm, SdmConfig, SdmError, SdmType};
use sdm::metadb::stmt::Query;
use sdm::metadb::Database;
use sdm::mpi::{Datatype, World};
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

// ---------------------------------------------------------------------
// DataView permutation round-trip (proptest)
// ---------------------------------------------------------------------

/// Deterministic Fisher-Yates so the generated map arrays are shuffled
/// (the interesting case), not sorted as `btree_set` yields them.
fn shuffle(xs: &mut [u64], mut seed: u64) {
    for i in (1..xs.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        xs.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn view_permutation_round_trips(
        picks in proptest::collection::btree_set(0u64..400, 0..48),
        seed in 0u64..10_000,
    ) {
        let mut map: Vec<u64> = picks.into_iter().collect();
        shuffle(&mut map, seed);
        let v = DataView::compile(&map, 400, SdmType::Double).unwrap();

        // The compiled permutation is a bijection over the local
        // elements and the sorted map is strictly increasing.
        let mut seen = vec![false; map.len()];
        for &p in &v.perm {
            prop_assert!(!seen[p as usize], "perm repeats index {p}");
            seen[p as usize] = true;
        }
        prop_assert!(v.sorted_map.windows(2).all(|w| w[0] < w[1]));

        // write-permute then read-inverse is the identity on values.
        let user: Vec<f64> = map.iter().map(|&g| g as f64 * 1.25 - 3.0).collect();
        let file_order = v.to_file_order(&user).unwrap();
        // In file order, values must sit at their sorted global slots.
        for (k, &g) in v.sorted_map.iter().enumerate() {
            prop_assert_eq!(file_order[k], g as f64 * 1.25 - 3.0);
        }
        let back = v.to_user_order(&file_order).unwrap();
        prop_assert_eq!(back, user);
    }
}

// ---------------------------------------------------------------------
// DataView filetype ≡ flattened indexed_block datatype (proptest)
// ---------------------------------------------------------------------

/// The filetype `DataView::compile` must produce, via the datatype
/// algebra: `resized(global_len, indexed_block(1, sorted map))`.
fn flattened_indexed_block(map: &[u64], global_len: u64, ty: SdmType) -> sdm::mpi::Flattened {
    let mut sorted = map.to_vec();
    sorted.sort_unstable();
    let elem = match ty {
        SdmType::Double => Datatype::double(),
        SdmType::Int32 => Datatype::int32(),
        SdmType::Int64 => Datatype::int64(),
    };
    Datatype::resized(
        global_len * ty.size(),
        Datatype::indexed_block(1, sorted, elem),
    )
    .flatten()
    .unwrap()
}

/// Put a map in one of the orders the proptest covers: as generated
/// (ascending), shuffled, or reversed.
fn reorder(map: &mut [u64], order: u8, seed: u64) {
    match order {
        0 => {}
        1 => shuffle(map, seed),
        _ => map.reverse(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn view_ftype_equals_flattened_indexed_block(
        // (gap before, length) of each run of consecutive indices; a
        // zero gap makes the run adjoin the previous one.
        runs in proptest::collection::vec((0u64..6, 1u64..5), 0..16),
        tail in 0u64..3,
        order in 0u8..3,
        ty in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let ty = [SdmType::Double, SdmType::Int32, SdmType::Int64][ty];
        let mut map = Vec::new();
        let mut next = 0u64;
        for (gap, len) in runs {
            next += gap;
            map.extend(next..next + len);
            next += len;
        }
        let global_len = next + tail;
        reorder(&mut map, order, seed);

        let v = DataView::compile(&map, global_len, ty).unwrap();
        prop_assert_eq!(&v.ftype, &flattened_indexed_block(&map, global_len, ty));
        prop_assert_eq!(v.elem_size, ty.size());
        for (k, &p) in v.perm.iter().enumerate() {
            prop_assert_eq!(map[p as usize], v.sorted_map[k]);
        }

        if let Some(&max) = map.iter().max() {
            // A repeated index, wherever it lands, is rejected.
            let g = map[seed as usize % map.len()];
            let mut dup = map.clone();
            dup.push(g);
            dup.sort_unstable();
            reorder(&mut dup, order, seed);
            match DataView::compile(&dup, global_len, ty) {
                Err(SdmError::Usage(msg)) => {
                    prop_assert_eq!(msg, format!("duplicate global index {g} in map array"))
                }
                other => prop_assert!(false, "duplicate {g} accepted: {other:?}"),
            }
            // So is an index past the end, ascending or not.
            let last = global_len + tail;
            prop_assert!(last > max);
            let mut oob = map.clone();
            oob.push(last);
            reorder(&mut oob, order, seed);
            match DataView::compile(&oob, global_len, ty) {
                Err(SdmError::Usage(msg)) => prop_assert_eq!(
                    msg,
                    format!("map index {last} out of range for global size {global_len}")
                ),
                other => prop_assert!(false, "index {last} accepted: {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// TimestepScope ≡ legacy per-dataset writes, at every org level
// ---------------------------------------------------------------------

const GLOBAL: u64 = 48;
const STEPS: i64 = 4;
const DATASETS: [&str; 3] = ["a", "b", "c"];

fn value(ds: usize, g: u64, t: i64) -> f64 {
    (ds as f64 + 1.0) * 1000.0 + g as f64 + t as f64 * 0.5
}

/// Run the workload and return the backing Pfs + Database.
/// `scoped` picks the TimestepScope path; otherwise the legacy veneer
/// writes each dataset separately.
fn run(org: OrgLevel, nprocs: usize, scoped: bool) -> (Arc<Pfs>, Arc<Database>, u64) {
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let db = Arc::new(Database::new());
    let store = sdm::core::CachedStore::shared(&db);
    let syncs = World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let cfg = SdmConfig {
                org,
                ..SdmConfig::default()
            };
            let mut sdm = Sdm::initialize_with(c, &pfs, &store, "eqv", cfg).unwrap();
            let mut b = sdm.group(c);
            for name in DATASETS {
                b = b.dataset::<f64>(name, GLOBAL);
            }
            let g = b.build().unwrap();
            let handles: Vec<_> = DATASETS
                .iter()
                .map(|n| g.handle::<f64>(n).unwrap())
                .collect();
            let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
            for &h in &handles {
                sdm.set_view(c, h, &mine).unwrap();
            }
            let before = c.counters().get("sdm.metadata_syncs");
            for t in 0..STEPS {
                let bufs: Vec<Vec<f64>> = (0..DATASETS.len())
                    .map(|d| mine.iter().map(|&g| value(d, g, t)).collect())
                    .collect();
                if scoped {
                    let mut step = sdm.timestep(c, t);
                    for (i, &h) in handles.iter().enumerate() {
                        step.write(h, &bufs[i]).unwrap();
                    }
                    step.commit().unwrap();
                } else {
                    for (i, name) in DATASETS.iter().enumerate() {
                        sdm.write(c, g.group(), name, t, &bufs[i]).unwrap();
                    }
                }
            }
            let syncs = c.counters().get("sdm.metadata_syncs") - before;
            sdm.finalize(c).unwrap();
            syncs
        }
    });
    (pfs, db, syncs[0])
}

fn file_bytes(pfs: &Arc<Pfs>, name: &str) -> Vec<u8> {
    let len = pfs.file_len(name).unwrap();
    let (f, _) = pfs.open(name, 0.0).unwrap();
    let mut buf = vec![0u8; len as usize];
    pfs.read_exact_at(&f, 0, &mut buf, 0.0).unwrap();
    buf
}

#[test]
fn scoped_writes_byte_identical_to_legacy_at_all_levels() {
    for org in OrgLevel::all() {
        let nprocs = 3;
        let (pfs_legacy, _, _) = run(org, nprocs, false);
        let (pfs_scoped, _, _) = run(org, nprocs, true);
        let mut legacy_files = pfs_legacy.list();
        let mut scoped_files = pfs_scoped.list();
        legacy_files.sort();
        scoped_files.sort();
        assert_eq!(legacy_files, scoped_files, "org {org:?}: same file set");
        for name in &legacy_files {
            assert_eq!(
                file_bytes(&pfs_legacy, name),
                file_bytes(&pfs_scoped, name),
                "org {org:?}: {name} must be byte-identical"
            );
        }
    }
}

#[test]
fn scoped_timestep_pays_one_sync_and_one_transaction() {
    let nprocs = 2;
    // Legacy: one metadata sync per dataset per timestep (per rank).
    let (_, _, legacy_syncs) = run(OrgLevel::Level2, nprocs, false);
    assert_eq!(
        legacy_syncs,
        (nprocs * DATASETS.len()) as u64 * STEPS as u64,
        "legacy path syncs once per dataset write"
    );
    // Scoped: exactly one metadata sync per timestep (per rank)...
    let (_, db, scoped_syncs) = run(OrgLevel::Level2, nprocs, true);
    assert_eq!(
        scoped_syncs,
        nprocs as u64 * STEPS as u64,
        "scoped path must sync exactly once per timestep"
    );
    // ...and exactly one store transaction per timestep: STEPS scope
    // commits plus the one `allocate_runid` reservation at initialize.
    assert_eq!(
        db.stats().transactions,
        1 + STEPS as u64,
        "each scope commit is one BEGIN..COMMIT"
    );
    // Both paths recorded the same execution rows.
    let rs = db
        .exec_stmt(&Query::<ExecutionRow>::all().count().compile(), &[])
        .unwrap();
    assert_eq!(
        rs.scalar().and_then(sdm::metadb::Value::as_i64),
        Some(DATASETS.len() as i64 * STEPS)
    );
}
