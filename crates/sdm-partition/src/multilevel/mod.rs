//! Multilevel k-way partitioning (MeTis-style).
//!
//! Three phases, as in Karypis & Kumar: (1) *coarsening* by heavy-edge
//! matching until the graph is small, (2) an *initial partition* of the
//! coarsest graph by greedy graph growing, (3) *uncoarsening* that
//! projects the partition back level by level, running boundary FM
//! refinement at each step. As in MeTiS, an FM pass ends after a
//! bounded run of moves that do not improve the cut ([`refine`]), and
//! contraction merges parallel edges per coarse row through a slot
//! table ([`coarsen`]); neither changes the partitions of the
//! benchmark meshes (see `tests/golden.rs`).

pub mod coarsen;
pub mod initial;
pub mod kway;
pub mod matching;
pub mod refine;
pub mod wgraph;

pub use kway::partition_kway;
pub use wgraph::WGraph;
