//! Graph contraction.

use crate::multilevel::wgraph::WGraph;

/// Contract matched pairs into coarse nodes. Returns the coarse graph and
/// the projection map `cmap[fine] = coarse`. `mate` must be a matching:
/// `mate[mate[v]] == v`, with `mate[v] == v` for unmatched nodes.
///
/// Each coarse row is gathered from its one or two fine members through
/// a slot table (`slot[c]` is coarse neighbour `c`'s position in the row
/// being built, `u32::MAX` when absent), so parallel fine edges merge
/// into one coarse edge; the row is then sorted by neighbour id.
pub fn contract(g: &WGraph, mate: &[u32]) -> (WGraph, Vec<u32>) {
    let n = g.n();
    let mut cmap = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if cmap[v] != u32::MAX {
            continue;
        }
        let m = mate[v] as usize;
        cmap[v] = nc;
        cmap[m] = nc; // m == v for unmatched nodes
        nc += 1;
    }
    let ncn = nc as usize;

    let mut vwgt = vec![0u64; ncn];
    for v in 0..n {
        vwgt[cmap[v] as usize] += g.vwgt[v];
    }

    let mut xadj = Vec::with_capacity(ncn + 1);
    xadj.push(0usize);
    let mut adjncy = Vec::with_capacity(g.adjncy.len());
    let mut adjwgt = Vec::with_capacity(g.adjncy.len());
    let mut slot = vec![u32::MAX; ncn];
    let mut row: Vec<(u32, u64)> = Vec::new();
    // Coarse ids were handed out in order of each pair's lower member, so
    // visiting the lower members in order builds the rows in order.
    for v in 0..n {
        let m = mate[v] as usize;
        if m < v {
            continue;
        }
        let cv = cmap[v];
        let pair = [v, m];
        let members = if m == v { &pair[..1] } else { &pair[..] };
        for &f in members {
            for e in g.nbr_range(f) {
                let cu = cmap[g.adjncy[e] as usize];
                if cu == cv {
                    continue; // interior (contracted) edge
                }
                match slot[cu as usize] {
                    u32::MAX => {
                        slot[cu as usize] = row.len() as u32;
                        row.push((cu, g.adjwgt[e]));
                    }
                    s => row[s as usize].1 += g.adjwgt[e],
                }
            }
        }
        row.sort_unstable_by_key(|&(cu, _)| cu);
        for &(cu, w) in &row {
            slot[cu as usize] = u32::MAX;
            adjncy.push(cu);
            adjwgt.push(w);
        }
        row.clear();
        xadj.push(adjncy.len());
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

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_mesh::CsrGraph;

    fn wg(n: usize, edges: &[(u32, u32)]) -> WGraph {
        WGraph::from_csr(&CsrGraph::from_edges(n, edges))
    }

    #[test]
    fn contract_square_pairwise() {
        // Square 0-1-3-2-0, match (0,1) and (2,3).
        let g = wg(4, &[(0, 1), (1, 3), (2, 3), (0, 2)]);
        let mate = vec![1, 0, 3, 2];
        let (cg, cmap) = contract(&g, &mate);
        assert_eq!(cg.n(), 2);
        assert_eq!(cmap[0], cmap[1]);
        assert_eq!(cmap[2], cmap[3]);
        assert_eq!(cg.vwgt, vec![2, 2]);
        // Two fine edges (1,3) and (0,2) between the coarse nodes.
        assert_eq!(cg.adjwgt, vec![2, 2]);
        assert_eq!(cg.cut(&[0, 1]), 2);
    }

    #[test]
    fn unmatched_nodes_survive() {
        let g = wg(3, &[(0, 1), (1, 2)]);
        let mate = vec![1, 0, 2]; // 2 unmatched
        let (cg, cmap) = contract(&g, &mate);
        assert_eq!(cg.n(), 2);
        assert_eq!(cg.vwgt.iter().sum::<u64>(), 3);
        assert_ne!(cmap[2], cmap[0]);
    }

    #[test]
    fn weight_conserved_across_levels() {
        let g = wg(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mate = crate::multilevel::matching::heavy_edge_matching(&g, 3);
        let (cg, _) = contract(&g, &mate);
        assert_eq!(cg.total_weight(), g.total_weight());
    }

    #[test]
    fn triangle_contraction_merges_parallel_edges() {
        // Triangle: match (0,1); coarse graph has one node pair with the
        // two fine edges (0,2) and (1,2) merged into weight 2.
        let g = wg(3, &[(0, 1), (0, 2), (1, 2)]);
        let (cg, _) = contract(&g, &[1, 0, 2]);
        assert_eq!(cg.n(), 2);
        assert_eq!(cg.adjwgt, vec![2, 2]);
    }
}
