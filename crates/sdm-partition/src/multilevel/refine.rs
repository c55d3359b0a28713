//! Boundary FM refinement (k-way, with move sequences and rollback).
//!
//! **Bounded passes.** A pass ends early once `max(1000, n / 20)`
//! consecutive applied moves have not improved on its best prefix, as
//! MeTiS's FM does (Karypis & Kumar, 1998), and rolls back to that
//! prefix exactly as an unbounded pass would. Without the bound, a pass
//! on a level that has already converged moves every vertex once, keeps
//! none of the moves and undoes them all: on the ~275k-node FUN3D mesh
//! that was most of the partitioner's time. The bound is a heuristic —
//! a long run of moves that never beats the best prefix seldom ends in
//! a better one — and it is safe in the sense that matters here: the
//! kept prefix is still the best one seen, a pass that keeps nothing
//! still ends refinement at its level, and the partitions of the
//! benchmark and figure meshes are bit-identical to those of unbounded
//! passes (pinned by `tests/golden.rs`). A flat bound of 1000 is not:
//! it changes the k=8 cut of the 275k-node mesh and the k=32 cut of
//! the `fig7` mesh.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::multilevel::wgraph::WGraph;

/// One refinement configuration.
#[derive(Debug, Clone, Copy)]
pub struct RefineParams {
    /// Maximum allowed imbalance (e.g. 1.05 = 5%).
    pub max_imbalance: f64,
    /// Number of improvement passes.
    pub passes: usize,
}

impl Default for RefineParams {
    fn default() -> Self {
        Self {
            max_imbalance: 1.05,
            passes: 4,
        }
    }
}

/// A pass ends after this many consecutive applied moves that did not
/// improve on its best prefix (see the module doc).
fn stall_limit(n: usize) -> usize {
    (n / 20).max(1000)
}

/// Add `v`'s edge weight to each adjacent part into `conn` and list the
/// parts it touched, in first-touch order, in `touched`. The caller
/// zeroes `conn` at `touched` once it has read the sums.
fn connect(g: &WGraph, part: &[u32], conn: &mut [i64], touched: &mut Vec<usize>, v: usize) {
    touched.clear();
    for e in g.nbr_range(v) {
        let p = part[g.adjncy[e] as usize] as usize;
        if conn[p] == 0 {
            touched.push(p);
        }
        conn[p] += g.adjwgt[e] as i64;
    }
}

/// Best available gain of `v` over adjacent foreign parts, ignoring
/// weight limits (rechecked at pop time).
fn best_gain(
    g: &WGraph,
    part: &[u32],
    conn: &mut [i64],
    touched: &mut Vec<usize>,
    v: usize,
) -> Option<i64> {
    connect(g, part, conn, touched, v);
    let home = part[v] as usize;
    let internal = conn[home];
    let mut best: Option<i64> = None;
    for &p in touched.iter() {
        if p != home {
            let gain = conn[p] - internal;
            if best.is_none_or(|b| gain > b) {
                best = Some(gain);
            }
        }
        conn[p] = 0;
    }
    best
}

/// Fiduccia–Mattheyses-style refinement. Each pass builds a *sequence*
/// of single-vertex moves (every vertex moves at most once per pass):
/// the best-gain legal move is applied even when its gain is zero or
/// negative, letting the pass climb out of local minima, and the pass
/// then rolls back to the best prefix it saw. A pass also stops after a
/// long run of moves that never beat that prefix (see the module doc).
/// During the sequence a part may exceed the balance cap by one vertex
/// of slack; prefixes are ranked feasible-first, so the kept state
/// respects the cap whenever the initial state did.
pub fn refine(g: &WGraph, part: &mut [u32], nparts: usize, params: RefineParams) {
    let n = g.n();
    if n == 0 || nparts < 2 {
        return;
    }
    let total = g.total_weight();
    // Cap per part: the average weight scaled by the allowed imbalance,
    // never below the ceiling average (which must always be feasible).
    let target = total.div_ceil(nparts as u64);
    let max_weight = (((total as f64 / nparts as f64) * params.max_imbalance) as u64).max(target);
    let slack = g.vwgt.iter().copied().max().unwrap_or(0);
    let stall = stall_limit(n);

    let mut part_weight = vec![0u64; nparts];
    for v in 0..n {
        part_weight[part[v] as usize] += g.vwgt[v];
    }
    let mut cut = g.cut(part) as i64;

    // Per-vertex entry versions for lazy heap invalidation.
    let mut version = vec![0u64; n];
    let mut conn = vec![0i64; nparts];
    let mut touched: Vec<usize> = Vec::with_capacity(nparts);

    for _ in 0..params.passes {
        let mut moved = vec![false; n];
        // Heap of candidate moves: (gain, vertex, entry version).
        let mut heap: BinaryHeap<(i64, Reverse<usize>, u64)> = BinaryHeap::new();
        for (v, &ver) in version.iter().enumerate() {
            if let Some(gain) = best_gain(g, part, &mut conn, &mut touched, v) {
                heap.push((gain, Reverse(v), ver));
            }
        }

        // Build the move sequence.
        let feasible = |pw: &[u64]| pw.iter().all(|&w| w <= max_weight);
        let initial_feasible = feasible(&part_weight);
        let mut history: Vec<(usize, u32)> = Vec::new(); // (vertex, old part)
                                                         // Best prefix key: feasibility (or the input was already
                                                         // infeasible), then lower cut. Ties keep the earlier prefix.
        let mut best_prefix = 0usize;
        let mut best_key = (initial_feasible, -cut);

        while let Some((_, Reverse(v), stamp)) = heap.pop() {
            if stamp != version[v] || moved[v] {
                continue;
            }
            // Recompute the best target for v under current weights.
            let home = part[v] as usize;
            connect(g, part, &mut conn, &mut touched, v);
            let internal = conn[home];
            let mut best: Option<(i64, u64, usize)> = None; // (gain, lighter-first, part)
            for &p in &touched {
                if p == home || part_weight[p] + g.vwgt[v] > max_weight + slack {
                    continue;
                }
                let gain = conn[p] - internal;
                let cand = (gain, u64::MAX - part_weight[p], p);
                if best.is_none_or(|b| (cand.0, cand.1) > (b.0, b.1)) {
                    best = Some(cand);
                }
            }
            for &p in &touched {
                conn[p] = 0;
            }
            let Some((gain, _, to)) = best else { continue };
            // Apply the move.
            moved[v] = true;
            history.push((v, part[v]));
            part[v] = to as u32;
            part_weight[home] -= g.vwgt[v];
            part_weight[to] += g.vwgt[v];
            cut -= gain;
            let key = (feasible(&part_weight) || !initial_feasible, -cut);
            if key > best_key {
                best_key = key;
                best_prefix = history.len();
            } else if history.len() - best_prefix >= stall {
                break; // a long run of moves that never beat the best prefix
            }
            // Refresh candidates around v.
            version[v] += 1;
            for e in g.nbr_range(v) {
                let u = g.adjncy[e] as usize;
                if !moved[u] {
                    version[u] += 1;
                    if let Some(gain) = best_gain(g, part, &mut conn, &mut touched, u) {
                        heap.push((gain, Reverse(u), version[u]));
                    }
                }
            }
        }

        // Roll back past the best prefix.
        for &(v, old) in history[best_prefix..].iter().rev() {
            let cur = part[v] as usize;
            part_weight[cur] -= g.vwgt[v];
            part_weight[old as usize] += g.vwgt[v];
            part[v] = old;
        }
        cut = g.cut(part) as i64;
        if best_prefix == 0 {
            break; // the pass kept nothing: converged
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::imbalance;
    use sdm_mesh::CsrGraph;

    fn wg(n: usize, edges: &[(u32, u32)]) -> WGraph {
        WGraph::from_csr(&CsrGraph::from_edges(n, edges))
    }

    #[test]
    fn fixes_obviously_bad_path_split() {
        // Path of 8 split alternately: cut 7. Refinement should reach the
        // optimal contiguous split (cut 1) — this *requires* zero/negative
        // gain moves inside a pass, i.e. real FM, because every single
        // move from a perfectly balanced state violates strict balance.
        let edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let g = wg(8, &edges);
        let mut part = vec![0u32, 1, 0, 1, 0, 1, 0, 1];
        refine(
            &g,
            &mut part,
            2,
            RefineParams {
                max_imbalance: 1.0,
                passes: 8,
            },
        );
        let cut = g.cut(&part);
        assert!(cut <= 2, "refined cut {cut} should approach optimal 1");
        assert!(imbalance(&part, 2) <= 1.01);
    }

    #[test]
    fn respects_balance_constraint() {
        // Star: center 0 with 6 leaves; all-to-one would be cut 0 but
        // violates balance.
        let edges: Vec<(u32, u32)> = (1..7).map(|l| (0, l)).collect();
        let g = wg(7, &edges);
        let mut part = vec![0, 0, 0, 0, 1, 1, 1];
        refine(
            &g,
            &mut part,
            2,
            RefineParams {
                max_imbalance: 1.15,
                passes: 4,
            },
        );
        let sizes = crate::vector::part_sizes(&part, 2);
        assert!(
            sizes.iter().all(|&s| s >= 3),
            "balance must hold: {sizes:?}"
        );
    }

    #[test]
    fn never_worsens_cut() {
        let edges: Vec<(u32, u32)> = (0..20u32)
            .flat_map(|i| [(i, (i + 1) % 21), (i, (i + 3) % 21)])
            .collect();
        let g = wg(21, &edges);
        let mut part: Vec<u32> = (0..21).map(|i| (i % 3) as u32).collect();
        let before = g.cut(&part);
        refine(&g, &mut part, 3, RefineParams::default());
        assert!(g.cut(&part) <= before);
    }

    #[test]
    fn single_part_noop() {
        let g = wg(4, &[(0, 1), (2, 3)]);
        let mut part = vec![0u32; 4];
        refine(&g, &mut part, 1, RefineParams::default());
        assert_eq!(part, vec![0; 4]);
    }

    #[test]
    fn infeasible_start_still_improves() {
        // Everything on one side: refinement must shed weight toward the
        // nearly-empty part even though intermediate states stay
        // infeasible for a while.
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = wg(10, &edges);
        let mut part = vec![0u32; 10];
        part[9] = 1; // seed the other side
        refine(
            &g,
            &mut part,
            2,
            RefineParams {
                max_imbalance: 1.1,
                passes: 10,
            },
        );
        let sizes = crate::vector::part_sizes(&part, 2);
        assert!(
            sizes.iter().all(|&s| s >= 3),
            "weight must flow to the light part: {sizes:?}"
        );
        assert!(
            g.cut(&part) <= 2,
            "path split should stay contiguous: cut {}",
            g.cut(&part)
        );
    }

    #[test]
    fn preserves_feasibility_of_input() {
        // A feasible input must never be returned infeasible.
        let edges: Vec<(u32, u32)> = (0..15).map(|i| (i, (i + 1) % 16)).collect();
        let g = wg(16, &edges);
        let mut part: Vec<u32> = (0..16).map(|i| (i / 4) as u32).collect();
        refine(
            &g,
            &mut part,
            4,
            RefineParams {
                max_imbalance: 1.05,
                passes: 6,
            },
        );
        let total = g.total_weight();
        let cap = (((total as f64 / 4.0) * 1.05) as u64).max(total.div_ceil(4));
        let mut w = vec![0u64; 4];
        for v in 0..16 {
            w[part[v] as usize] += g.vwgt[v];
        }
        assert!(
            w.iter().all(|&x| x <= cap),
            "weights {w:?} exceed cap {cap}"
        );
    }
}
