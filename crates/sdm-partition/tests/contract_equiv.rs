//! Contraction equivalence: `contract` builds exactly the coarse graph
//! of the reference contraction kept below (a `HashMap` of coarse edge
//! weights, sorted by `(a, b)` into CSR), field for field, on random
//! weighted graphs under arbitrary matchings and heavy-edge matchings.

use std::collections::HashMap;

use proptest::prelude::*;
use sdm_mesh::CsrGraph;
use sdm_partition::multilevel::coarsen::contract;
use sdm_partition::multilevel::matching::heavy_edge_matching;
use sdm_partition::multilevel::wgraph::WGraph;
use sdm_sim::rng::SplitMix64;

/// The reference contraction: accumulate each coarse edge `(a, b)`,
/// `a < b`, in a map, sort the pairs and lay them out as CSR rows.
fn contract_reference(g: &WGraph, mate: &[u32]) -> (WGraph, Vec<u32>) {
    let n = g.n();
    let mut cmap = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if cmap[v] == u32::MAX {
            cmap[v] = nc;
            cmap[mate[v] as usize] = nc;
            nc += 1;
        }
    }
    let ncn = nc as usize;
    let mut vwgt = vec![0u64; ncn];
    for v in 0..n {
        vwgt[cmap[v] as usize] += g.vwgt[v];
    }
    let mut edges: HashMap<(u32, u32), u64> = HashMap::new();
    for v in 0..n {
        let cv = cmap[v];
        for e in g.nbr_range(v) {
            let cu = cmap[g.adjncy[e] as usize];
            if cv < cu {
                *edges.entry((cv, cu)).or_insert(0) += g.adjwgt[e];
            }
        }
    }
    let mut sorted: Vec<((u32, u32), u64)> = edges.into_iter().collect();
    sorted.sort_unstable_by_key(|&(k, _)| k);
    let mut xadj = vec![0usize; ncn + 1];
    for &((a, b), _) in &sorted {
        xadj[a as usize + 1] += 1;
        xadj[b as usize + 1] += 1;
    }
    for v in 0..ncn {
        xadj[v + 1] += xadj[v];
    }
    let mut adjncy = vec![0u32; xadj[ncn]];
    let mut adjwgt = vec![0u64; xadj[ncn]];
    let mut fill = xadj.clone();
    for &((a, b), w) in &sorted {
        for (x, y) in [(a, b), (b, a)] {
            adjncy[fill[x as usize]] = y;
            adjwgt[fill[x as usize]] = w;
            fill[x as usize] += 1;
        }
    }
    (
        WGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        },
        cmap,
    )
}

/// A random symmetric weighted multigraph on `n` nodes: parallel edges
/// and self-loops allowed, edge weight a function of its endpoints.
fn random_graph(n: usize, pairs: &[(u32, u32)], rng: &mut SplitMix64) -> WGraph {
    let n32 = n as u32;
    let edges: Vec<(u32, u32)> = pairs.iter().map(|&(a, b)| (a % n32, b % n32)).collect();
    let csr = CsrGraph::from_edges(n, &edges);
    let mut g = WGraph::from_csr(&csr);
    let salt = rng.next_u64();
    for v in 0..n {
        for e in g.nbr_range(v) {
            let (a, b) = (v as u64, g.adjncy[e] as u64);
            let key = a.min(b) << 32 | a.max(b);
            g.adjwgt[e] = 1 + SplitMix64::new(key ^ salt).next_below(9);
        }
    }
    for w in &mut g.vwgt {
        *w = 1 + rng.next_below(5);
    }
    g
}

/// A uniformly shuffled matching that may pair non-adjacent nodes and
/// leaves some nodes unmatched.
fn arbitrary_matching(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let mut mate: Vec<u32> = (0..n as u32).collect();
    for pair in order.chunks(2) {
        if let [a, b] = *pair {
            if rng.next_below(4) != 0 {
                mate[a as usize] = b;
                mate[b as usize] = a;
            }
        }
    }
    mate
}

fn assert_same(g: &WGraph, mate: &[u32]) -> Result<(), String> {
    let (cg, cmap) = contract(g, mate);
    let (rg, rmap) = contract_reference(g, mate);
    prop_assert_eq!(cmap, rmap);
    prop_assert_eq!(cg.xadj, rg.xadj);
    prop_assert_eq!(cg.adjncy, rg.adjncy);
    prop_assert_eq!(cg.adjwgt, rg.adjwgt);
    prop_assert_eq!(cg.vwgt, rg.vwgt);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contract_matches_reference(
        n in 1usize..80,
        pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..300),
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let g = random_graph(n, &pairs, &mut rng);
        assert_same(&g, &arbitrary_matching(n, &mut rng))?;
        let hem = heavy_edge_matching(&g, rng.next_u64());
        assert_same(&g, &hem)?;
        // One level down, where node and edge weights are sums.
        let (cg, _) = contract(&g, &hem);
        assert_same(&cg, &heavy_edge_matching(&cg, rng.next_u64()))?;
        assert_same(&cg, &arbitrary_matching(cg.n(), &mut rng))?;
    }
}
