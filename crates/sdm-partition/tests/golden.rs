//! Golden partitions: the multilevel partitioner's exact output on the
//! meshes the end-to-end benchmark and the figure harnesses partition.
//!
//! Each case pins the edge cut, the load imbalance and an FNV-1a hash of
//! the whole partitioning vector, so any change to coarsening, the
//! initial partition or refinement that alters a single assignment shows
//! here. Every mesh and every partition uses seed 20010220. The cases
//! above ~10k nodes are too slow for a debug build; run them with
//! `cargo test --release -p sdm-partition --test golden -- --include-ignored`.

use sdm_mesh::gen::tet::dims_for_nodes;
use sdm_mesh::gen::{rt_interface_mesh, tet_box};
use sdm_mesh::{CsrGraph, UnstructuredMesh};
use sdm_partition::{edge_cut, imbalance, partition, Method};

const SEED: u64 = 20_010_220;

/// FNV-1a over whole `u32` entries (not bytes).
fn fnv1a(pv: &[u32]) -> u64 {
    let mut x = 0xcbf2_9ce4_8422_2325u64;
    for &p in pv {
        x ^= p as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    x
}

/// `(k, edge cut, imbalance, hash)` expected for one mesh.
type Golden = (usize, usize, f64, u64);

fn check(mesh: &UnstructuredMesh, cases: &[Golden]) {
    let g = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
    for &(k, cut, imb, hash) in cases {
        let pv = partition(&g, None, k, Method::Multilevel, SEED);
        let got = (edge_cut(&g, &pv), imbalance(&pv, k), fnv1a(&pv));
        assert!(
            got.0 == cut && (got.1 - imb).abs() < 5e-6 && got.2 == hash,
            "k={k}: got (cut {}, imbalance {:.5}, hash {:016x}), \
             want (cut {cut}, imbalance {imb:.5}, hash {hash:016x})",
            got.0,
            got.1,
            got.2
        );
    }
}

fn tet_mesh(target_nodes: usize) -> UnstructuredMesh {
    let (nx, ny, nz) = dims_for_nodes(target_nodes);
    tet_box(nx, ny, nz, 0.25, SEED)
}

/// The FUN3D benchmark mesh (`fun3d_fresh`, `fun3d_history`).
#[test]
#[ignore = "release-only"]
fn fun3d_bench_275k() {
    check(
        &tet_mesh(275_000),
        &[
            (2, 12545, 1.01538, 0x9fc0_b04f_0202_4f3f),
            (8, 49468, 1.04998, 0xe97d_5b9b_7469_914e),
        ],
    );
}

/// The `fig5` harness's default FUN3D mesh.
#[test]
#[ignore = "release-only"]
fn fun3d_fig5_68k() {
    check(
        &tet_mesh(68_750),
        &[
            (2, 4839, 1.02439, 0x1b91_db45_fc98_7105),
            (8, 18199, 1.04997, 0xcb71_d7c5_9a85_0285),
            (16, 29509, 1.05818, 0x2a57_98ce_ad32_465a),
            (32, 38059, 1.07603, 0xdd98_ed2c_82ad_1b82),
            (64, 51633, 1.05937, 0x532c_c205_0958_2193),
        ],
    );
}

/// The `fig7` harness's default Rayleigh–Taylor mesh.
#[test]
#[ignore = "release-only"]
fn rt_fig7_140k() {
    check(
        &rt_interface_mesh(375, 375, 0.35, 4),
        &[
            (2, 749, 1.04533, 0xc5f7_5846_6831_5dd8),
            (32, 7639, 1.05017, 0x46b9_d884_6373_9a8e),
            (64, 12433, 1.05131, 0x548b_85d8_5578_460d),
        ],
    );
}

/// The `rt_durable` benchmark mesh.
#[test]
fn rt_durable_2k() {
    check(
        &rt_interface_mesh(45, 45, 0.35, 4),
        &[
            (2, 89, 1.02222, 0x51d5_1e74_e48a_e14d),
            (8, 370, 1.09037, 0x4949_8558_57bf_83f1),
            (64, 1340, 1.07457, 0x90a0_0a33_5e32_4d57),
        ],
    );
}
