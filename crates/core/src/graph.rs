//! Directed graph adjacency used by every graph index in the workspace.
//!
//! Two representations share one read interface ([`GraphView`]):
//!
//! * [`DirectedGraph`] — the **build-time** structure: per-node `Vec<u32>`
//!   lists that NN-Descent, Algorithm 2's pruning passes and the
//!   connectivity repair mutate freely (`add_edge` / `set_neighbors`).
//! * [`CompactGraph`] — the **frozen query-time** structure: one contiguous
//!   CSR neighbor arena plus an offsets array, mirroring the released
//!   NSG / HNSW layout in which neighbor lists are contiguous so each hop of
//!   Algorithm 1 reads one dense `u32` run instead of chasing a `Vec`
//!   pointer per node (Table 2 reports index sizes computed from exactly
//!   this flat layout). Construction finishes, the graph is frozen once,
//!   and every query path — `NsgIndex`, `ShardedNsg`, the graph baselines,
//!   `nsg-serve` snapshots — traverses the frozen form.

use nsg_vectors::Arena;
use serde::{Deserialize, Serialize};

/// Read-only adjacency interface shared by the build-time
/// [`DirectedGraph`] and the frozen [`CompactGraph`] — the form Algorithm 1
/// and the graph analytics are generic over.
pub trait GraphView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Out-neighbors of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    fn neighbors(&self, v: u32) -> &[u32];

    /// Out-degree of `v`.
    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Whether the graph has no nodes.
    #[inline]
    fn is_empty(&self) -> bool {
        self.num_nodes() == 0
    }

    /// Total number of directed edges.
    fn num_edges(&self) -> usize {
        (0..self.num_nodes() as u32).map(|v| self.out_degree(v)).sum()
    }

    /// Average out-degree (the paper's AOD column in Table 2).
    fn average_out_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum out-degree (the paper's MOD column in Table 2).
    fn max_out_degree(&self) -> usize {
        (0..self.num_nodes() as u32).map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// Index memory in bytes under the fixed-degree layout the paper uses for
    /// Table 2: every node is allocated `max_out_degree` u32 slots plus one
    /// u32 degree counter, enabling contiguous access during search.
    fn memory_bytes_fixed_degree(&self) -> usize {
        let width = self.max_out_degree();
        self.num_nodes() * (width + 1) * std::mem::size_of::<u32>()
    }

    /// Index memory in bytes when lists are stored exactly (the CSR layout
    /// [`CompactGraph`] actually uses: one offsets array + one edge arena).
    fn memory_bytes_exact(&self) -> usize {
        (self.num_edges() + self.num_nodes() + 1) * std::mem::size_of::<u32>()
    }
}

/// A directed graph on nodes `0..n` with per-node out-neighbor lists.
///
/// This is the *mutable build-time* representation; freeze it into a
/// [`CompactGraph`] once construction finishes and query through that.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct DirectedGraph {
    adjacency: Vec<Vec<u32>>,
}

impl DirectedGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Wraps prebuilt adjacency lists.
    ///
    /// # Panics
    /// Panics if any edge points outside `0..n`.
    pub fn from_adjacency(adjacency: Vec<Vec<u32>>) -> Self {
        let n = adjacency.len() as u32;
        for (v, list) in adjacency.iter().enumerate() {
            for &u in list {
                assert!(u < n, "edge {v} -> {u} points outside the graph");
            }
        }
        Self { adjacency }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Total number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Out-neighbors of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjacency[v as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: u32) -> usize {
        self.adjacency[v as usize].len()
    }

    /// Appends an isolated node, growing the graph by one, and returns its
    /// id. The delta layer (`nsg_core::delta`) grows its incrementally built
    /// graph this way, one node per insertion.
    pub fn push_node(&mut self) -> u32 {
        self.adjacency.push(Vec::new());
        (self.adjacency.len() - 1) as u32
    }

    /// Adds the directed edge `from -> to` if it is not already present.
    /// Returns `true` when the edge was inserted.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range (both endpoints are checked
    /// with the same diagnostic).
    pub fn add_edge(&mut self, from: u32, to: u32) -> bool {
        let n = self.adjacency.len();
        assert!((from as usize) < n, "edge source {from} out of range (n = {n})");
        assert!((to as usize) < n, "edge target {to} out of range (n = {n})");
        let list = &mut self.adjacency[from as usize];
        if list.contains(&to) {
            false
        } else {
            list.push(to);
            true
        }
    }

    /// Replaces the out-neighbor list of `v`.
    ///
    /// # Panics
    /// Panics if `v` or any listed neighbor is out of range.
    pub fn set_neighbors(&mut self, v: u32, neighbors: Vec<u32>) {
        let n = self.adjacency.len() as u32;
        for &u in &neighbors {
            assert!(u < n, "edge {v} -> {u} points outside the graph");
        }
        self.adjacency[v as usize] = neighbors;
    }

    /// Average out-degree (the paper's AOD column in Table 2).
    pub fn average_out_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum out-degree (the paper's MOD column in Table 2).
    pub fn max_out_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// See [`GraphView::memory_bytes_fixed_degree`].
    pub fn memory_bytes_fixed_degree(&self) -> usize {
        GraphView::memory_bytes_fixed_degree(self)
    }

    /// See [`GraphView::memory_bytes_exact`].
    pub fn memory_bytes_exact(&self) -> usize {
        GraphView::memory_bytes_exact(self)
    }

    /// Iterates over `(node, neighbor)` edge pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(v, list)| list.iter().map(move |&u| (v as u32, u)))
    }

    /// Consumes the graph, returning the adjacency lists.
    pub fn into_adjacency(self) -> Vec<Vec<u32>> {
        self.adjacency
    }

    /// Returns the reverse graph (every edge flipped).
    pub fn reversed(&self) -> DirectedGraph {
        let mut rev = vec![Vec::new(); self.num_nodes()];
        for (v, u) in self.edges() {
            rev[u as usize].push(v);
        }
        DirectedGraph { adjacency: rev }
    }

    /// Freezes this graph into the contiguous query-time representation.
    /// Convenience for [`CompactGraph::from_directed`].
    pub fn freeze(&self) -> CompactGraph {
        CompactGraph::from_directed(self)
    }
}

impl GraphView for DirectedGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjacency[v as usize]
    }

    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        self.adjacency[v as usize].len()
    }

    fn num_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    fn max_out_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The frozen query-time adjacency: CSR (compressed sparse row) layout.
///
/// `targets[offsets[v] .. offsets[v + 1]]` is the out-neighbor list of `v`.
/// All lists live in **one** contiguous arena, so the per-hop neighbor
/// expansion of Algorithm 1 streams through a single dense `u32` run —
/// no per-node heap pointer, no per-node allocation on load, and the exact
/// layout of the NSG2 snapshot's GOFF/GTGT sections ([`crate::snapshot`]),
/// so a mapped file is traversed in place.
///
/// A `CompactGraph` is immutable by design: build with [`DirectedGraph`],
/// freeze once via [`CompactGraph::from_directed`] (or `From<&DirectedGraph>`),
/// then share the frozen graph on the query path.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct CompactGraph {
    /// `n + 1` row offsets into `targets`; `offsets[0] == 0`.
    offsets: Arena<u32>,
    /// Concatenated out-neighbor lists.
    targets: Arena<u32>,
}

impl CompactGraph {
    /// An empty graph with zero nodes.
    pub fn empty() -> Self {
        Self { offsets: Arena::from_vec(vec![0]), targets: Arena::new() }
    }

    /// Freezes a [`DirectedGraph`] into CSR form.
    ///
    /// # Panics
    /// Panics if the graph has more than `u32::MAX` nodes or edges (the CSR
    /// offsets are `u32`, matching the compact id space of the paper's
    /// released implementation).
    pub fn from_directed(graph: &DirectedGraph) -> Self {
        Self::from_view(graph)
    }

    /// Freezes any [`GraphView`] into CSR form — one pass, no intermediate
    /// adjacency clone (HNSW freezes each level through its build-time view
    /// this way).
    ///
    /// # Panics
    /// Panics if any edge points outside `0..n`, or on `u32` overflow as in
    /// [`from_directed`](Self::from_directed).
    pub fn from_view<G: GraphView + ?Sized>(graph: &G) -> Self {
        let n = graph.num_nodes();
        assert!(n <= u32::MAX as usize, "graph has {n} nodes; CSR ids are u32");
        let m = graph.num_edges();
        assert!(m <= u32::MAX as usize, "graph has {m} edges; CSR offsets are u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m);
        offsets.push(0u32);
        for v in 0..n as u32 {
            let list = graph.neighbors(v);
            for &u in list {
                assert!((u as usize) < n, "edge {v} -> {u} points outside the graph");
            }
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        Self { offsets: Arena::from_vec(offsets), targets: Arena::from_vec(targets) }
    }

    /// Freezes prebuilt adjacency lists directly (validating every edge),
    /// without materializing an intermediate [`DirectedGraph`].
    ///
    /// # Panics
    /// Panics if any edge points outside `0..n`, or on `u32` overflow as in
    /// [`from_directed`](Self::from_directed).
    pub fn from_adjacency(adjacency: Vec<Vec<u32>>) -> Self {
        let n = adjacency.len();
        assert!(n <= u32::MAX as usize, "graph has {n} nodes; CSR ids are u32");
        let m: usize = adjacency.iter().map(Vec::len).sum();
        assert!(m <= u32::MAX as usize, "graph has {m} edges; CSR offsets are u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m);
        offsets.push(0u32);
        for (v, list) in adjacency.iter().enumerate() {
            for &u in list {
                assert!((u as usize) < n, "edge {v} -> {u} points outside the graph");
            }
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        Self { offsets: Arena::from_vec(offsets), targets: Arena::from_vec(targets) }
    }

    /// Assembles a graph over arenas that may borrow from a mapped snapshot
    /// region. Only the O(1) ends of the CSR invariant are checked here (the
    /// snapshot section table already bounded every length); full monotone /
    /// in-range validation is [`CompactGraph::validate_csr`], which snapshot
    /// verification runs on demand.
    pub(crate) fn from_arena_parts(offsets: Arena<u32>, targets: Arena<u32>) -> Result<Self, String> {
        let Some(&first) = offsets.as_slice().first() else {
            return Err("CSR offsets array is empty".to_string());
        };
        if first != 0 {
            return Err(format!("CSR offsets must start at 0, found {first}"));
        }
        let last = offsets.as_slice()[offsets.len() - 1] as usize;
        if last != targets.len() {
            return Err(format!(
                "CSR offsets end at {last} but the edge arena holds {} targets",
                targets.len()
            ));
        }
        Ok(Self { offsets, targets })
    }

    /// Deep O(n + m) CSR validation: offsets monotone non-decreasing, every
    /// target inside `0..n`. The streaming decoder enforces this shape while
    /// filling; mapped snapshots opt in via `Snapshot::verify`.
    pub fn validate_csr(&self) -> Result<(), String> {
        let offs = self.offsets.as_slice();
        if let Some(w) = offs.windows(2).find(|w| w[0] > w[1]) {
            return Err(format!("CSR offsets decrease: {} then {}", w[0], w[1]));
        }
        let n = self.num_nodes();
        if let Some(&u) = self.targets.as_slice().iter().find(|&&u| (u as usize) >= n) {
            return Err(format!("edge target {u} points outside the {n}-node graph"));
        }
        Ok(())
    }

    /// Whether the CSR arenas are borrowed from a mapped region rather than
    /// owned by this graph.
    pub fn is_borrowed(&self) -> bool {
        self.targets.is_borrowed()
    }

    /// The raw `n + 1` CSR row offsets (the snapshot writer serializes these
    /// verbatim).
    pub(crate) fn csr_offsets(&self) -> &[u32] {
        self.offsets.as_slice()
    }

    /// The raw concatenated edge arena.
    pub(crate) fn csr_targets(&self) -> &[u32] {
        self.targets.as_slice()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total number of directed edges — O(1) in the frozen layout.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v`: one contiguous slice of the shared arena.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    // lint:hot-path
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        // CSR invariant: offsets are monotone non-decreasing, so the slice
        // bounds can never be inverted.
        let offs = self.offsets.as_slice();
        debug_assert!(offs[v] <= offs[v + 1]);
        &self.targets.as_slice()[offs[v] as usize..offs[v + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: u32) -> usize {
        let v = v as usize;
        let offs = self.offsets.as_slice();
        (offs[v + 1] - offs[v]) as usize
    }

    /// Average out-degree (the paper's AOD column in Table 2).
    pub fn average_out_degree(&self) -> f64 {
        GraphView::average_out_degree(self)
    }

    /// Maximum out-degree (the paper's MOD column in Table 2).
    pub fn max_out_degree(&self) -> usize {
        self.offsets.as_slice().windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// See [`GraphView::memory_bytes_fixed_degree`].
    pub fn memory_bytes_fixed_degree(&self) -> usize {
        GraphView::memory_bytes_fixed_degree(self)
    }

    /// Actual resident bytes of the frozen structure (offsets + arena) —
    /// identical to the [`GraphView::memory_bytes_exact`] model, because the
    /// frozen layout *is* that model.
    pub fn memory_bytes_exact(&self) -> usize {
        GraphView::memory_bytes_exact(self)
    }

    /// Iterates over `(node, neighbor)` edge pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_nodes() as u32).flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Thaws the graph back into the mutable build-time representation
    /// (used when a loaded index needs further editing).
    pub fn to_directed(&self) -> DirectedGraph {
        DirectedGraph {
            adjacency: (0..self.num_nodes() as u32).map(|v| self.neighbors(v).to_vec()).collect(),
        }
    }
}

impl GraphView for CompactGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        CompactGraph::neighbors(self, v)
    }

    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        CompactGraph::out_degree(self, v)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.targets.len()
    }

    fn max_out_degree(&self) -> usize {
        CompactGraph::max_out_degree(self)
    }
}

impl From<&DirectedGraph> for CompactGraph {
    fn from(graph: &DirectedGraph) -> Self {
        Self::from_directed(graph)
    }
}

impl From<&CompactGraph> for DirectedGraph {
    fn from(graph: &CompactGraph) -> Self {
        graph.to_directed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_deduplicates() {
        let mut g = DirectedGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_checks_target_bounds() {
        let mut g = DirectedGraph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_checks_source_bounds() {
        // Regression: the source endpoint used to panic with a raw index
        // message instead of the same diagnostic as the target.
        let mut g = DirectedGraph::new(2);
        g.add_edge(7, 1);
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn from_adjacency_checks_bounds() {
        let _ = DirectedGraph::from_adjacency(vec![vec![3]]);
    }

    #[test]
    fn degree_statistics() {
        let g = DirectedGraph::from_adjacency(vec![vec![1, 2], vec![0], vec![]]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_out_degree(), 2);
        assert!((g.average_out_degree() - 1.0).abs() < 1e-12);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(2), 0);
    }

    #[test]
    fn fixed_degree_memory_model() {
        let g = DirectedGraph::from_adjacency(vec![vec![1, 2], vec![0], vec![]]);
        // width = 2, 3 nodes, (2+1) u32 each.
        assert_eq!(g.memory_bytes_fixed_degree(), 3 * 3 * 4);
        assert_eq!(g.memory_bytes_exact(), (3 + 3 + 1) * 4);
    }

    #[test]
    fn reversed_flips_edges() {
        let g = DirectedGraph::from_adjacency(vec![vec![1], vec![2], vec![]]);
        let r = g.reversed();
        assert_eq!(r.neighbors(1), &[0]);
        assert_eq!(r.neighbors(2), &[1]);
        assert!(r.neighbors(0).is_empty());
    }

    #[test]
    fn set_neighbors_replaces_list() {
        let mut g = DirectedGraph::new(4);
        g.add_edge(0, 1);
        g.set_neighbors(0, vec![2, 3]);
        assert_eq!(g.neighbors(0), &[2, 3]);
    }

    #[test]
    fn edges_iterator_lists_all_pairs() {
        let g = DirectedGraph::from_adjacency(vec![vec![1], vec![0, 2], vec![]]);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 2)]);
    }

    #[test]
    fn freeze_preserves_every_list_and_statistic() {
        let g = DirectedGraph::from_adjacency(vec![vec![1, 2], vec![0], vec![], vec![0, 1, 2]]);
        let c = g.freeze();
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.max_out_degree(), g.max_out_degree());
        assert_eq!(c.average_out_degree(), g.average_out_degree());
        assert_eq!(c.memory_bytes_fixed_degree(), g.memory_bytes_fixed_degree());
        assert_eq!(c.memory_bytes_exact(), g.memory_bytes_exact());
        for v in 0..g.num_nodes() as u32 {
            assert_eq!(c.neighbors(v), g.neighbors(v), "node {v} list differs");
            assert_eq!(c.out_degree(v), g.out_degree(v));
        }
        assert_eq!(c.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn freeze_thaw_round_trips() {
        let g = DirectedGraph::from_adjacency(vec![vec![2], vec![], vec![0, 1]]);
        let c = CompactGraph::from(&g);
        assert_eq!(c.to_directed(), g);
        // Two independent freezes of the same graph compare equal.
        assert_eq!(CompactGraph::from_directed(&g), c);
    }

    #[test]
    fn compact_from_adjacency_matches_freeze() {
        let lists = vec![vec![1u32], vec![0, 2], vec![]];
        let via_directed = DirectedGraph::from_adjacency(lists.clone()).freeze();
        let direct = CompactGraph::from_adjacency(lists);
        assert_eq!(via_directed, direct);
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn compact_from_adjacency_checks_bounds() {
        let _ = CompactGraph::from_adjacency(vec![vec![9]]);
    }

    #[test]
    fn empty_compact_graph() {
        let c = CompactGraph::empty();
        assert!(c.is_empty());
        assert_eq!(c.num_nodes(), 0);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.max_out_degree(), 0);
        assert_eq!(c.average_out_degree(), 0.0);
        assert_eq!(c.edges().count(), 0);
        assert_eq!(DirectedGraph::new(0).freeze(), c);
    }

    #[test]
    fn neighbor_lists_share_one_contiguous_arena() {
        // The whole point of the frozen layout: consecutive nodes' lists are
        // adjacent in memory, with no per-node allocation between them.
        let g = DirectedGraph::from_adjacency(vec![vec![1, 2], vec![0], vec![0, 1]]);
        let c = g.freeze();
        let a = c.neighbors(0);
        let b = c.neighbors(1);
        let d = c.neighbors(2);
        // SAFETY: each `add` lands one-past-the-end of its own subslice,
        // which `<*const T>::add` permits; the pointers are only compared,
        // never dereferenced.
        unsafe {
            assert_eq!(a.as_ptr().add(a.len()), b.as_ptr(), "lists 0 and 1 not adjacent");
            assert_eq!(b.as_ptr().add(b.len()), d.as_ptr(), "lists 1 and 2 not adjacent");
        }
    }

    #[test]
    fn graph_view_is_object_safe_and_generic_usable() {
        fn total_degree<G: GraphView + ?Sized>(g: &G) -> usize {
            (0..g.num_nodes() as u32).map(|v| g.out_degree(v)).sum()
        }
        let g = DirectedGraph::from_adjacency(vec![vec![1], vec![0, 1]]);
        let c = g.freeze();
        assert_eq!(total_degree(&g), 3);
        assert_eq!(total_degree(&c), 3);
        let dynamic: &dyn GraphView = &c;
        assert_eq!(dynamic.num_edges(), 3);
        assert_eq!(dynamic.memory_bytes_exact(), (3 + 2 + 1) * 4);
    }
}
