//! Topology graph, shortest-path routing and installation into a simulation.
//!
//! Links do not fail. A faulty link is modelled as a slow one: the fault
//! axis derates it with [`Topology::degrade_edge`], and routing is a plain
//! fewest-hop search over every edge.

use crate::error::FabricError;
use serde::{Deserialize, Serialize};
use simkit::{LinkId, Simulation};

/// Identifier of a node (endpoint or switch) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an edge (PCIe link) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(usize);

impl EdgeId {
    /// Raw index of the edge.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The role a node plays in the platform. Roles are informational: routing
/// treats every node identically, but platform builders and engines use the
/// role to find "the GPU" or "the third SSD".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Host root complex / host memory attachment point.
    Host,
    /// A GPU endpoint.
    Gpu,
    /// A PCIe switch (expansion chassis switch or CSD-internal switch).
    Switch,
    /// The NVMe SSD controller endpoint of a (Smart)SSD.
    SsdPort,
    /// The FPGA endpoint of a computational storage device.
    FpgaPort,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Edge {
    a: NodeId,
    b: NodeId,
    bandwidth: f64,
}

/// An undirected graph of PCIe endpoints, switches and links.
///
/// Nodes are identified by id and role, edges by id; platform builders keep
/// the ids of the nodes they name (see [`crate::Platform`]).
///
/// Links are undirected and full-duplex is *not* modeled separately: the paper's
/// contention effects (shared uplink saturation) are per-direction dominated by
/// one direction at a time in each training phase, so a single shared capacity
/// per link is sufficient and conservative. Direction-specific device limits
/// (SSD read vs. write bandwidth) are modeled by the `ssd` crate as additional
/// media links appended to flow paths.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    edges: Vec<Edge>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `nodes` more nodes and `edges` more edges.
    pub(crate) fn reserve(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Adds a node with the given role.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(kind);
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two nodes with a link of `bandwidth` bytes per second.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownNode`] if either node id is invalid and
    /// [`FabricError::InvalidEdge`] for self-loops or non-positive bandwidth.
    pub fn connect(&mut self, a: NodeId, b: NodeId, bandwidth: f64) -> Result<EdgeId, FabricError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(FabricError::InvalidEdge { message: "self loop".into() });
        }
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(FabricError::InvalidEdge {
                message: format!("bandwidth must be positive, got {bandwidth}"),
            });
        }
        self.edges.push(Edge { a, b, bandwidth });
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Bandwidth of an edge in bytes per second (per direction).
    pub fn edge_bandwidth(&self, edge: EdgeId) -> f64 {
        self.edges[edge.0].bandwidth
    }

    /// Degrades an edge to `factor` of its current bandwidth (a flaky or
    /// retrained PCIe link running at a lower rate). Returns the new
    /// bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidEdge`] for an unknown edge or a factor
    /// outside `(0, 1]`.
    pub fn degrade_edge(&mut self, edge: EdgeId, factor: f64) -> Result<f64, FabricError> {
        self.check_edge(edge)?;
        if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
            return Err(FabricError::InvalidEdge {
                message: format!("degradation factor must be in (0, 1], got {factor}"),
            });
        }
        let e = &mut self.edges[edge.0];
        e.bandwidth *= factor;
        Ok(e.bandwidth)
    }

    /// The edge directly connecting two nodes, if one exists (the first such
    /// edge in creation order). Engines use this to identify a specific
    /// physical link — e.g. the shared host uplink — so its per-stage
    /// occupancy can be queried from a simulation timeline.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.edges.iter().position(|e| (e.a, e.b) == (a, b) || (e.a, e.b) == (b, a)).map(EdgeId)
    }

    /// All nodes of a given kind, in creation order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i] == kind).map(NodeId).collect()
    }

    /// Shortest path (fewest hops) between two nodes, as a list of edges.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownNode`] for invalid ids and
    /// [`FabricError::NoRoute`] if the nodes are disconnected.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Vec<EdgeId>, FabricError> {
        let adjacency = Adjacency::of(self);
        let mut search = Search::new(self.nodes.len());
        let mut path = Vec::new();
        search.walk(&adjacency, from, to, |edge, _| path.push(edge))?;
        path.reverse();
        Ok(path)
    }

    /// Registers every edge of the topology in `sim` and returns the mapping
    /// used to translate routes into flow paths.
    ///
    /// PCIe links are full duplex, so each edge is installed as *two* shared
    /// capacities — one per direction. [`InstalledFabric::path`] picks the
    /// directional capacity matching the traversal direction, so traffic
    /// flowing host→SSD does not contend with traffic flowing SSD→host on the
    /// same physical link, while same-direction transfers do share it.
    pub fn install(&self, sim: &mut Simulation) -> InstalledFabric {
        let links = self
            .edges
            .iter()
            .map(|e| (sim.add_link(e.bandwidth), sim.add_link(e.bandwidth)))
            .collect();
        InstalledFabric {
            links,
            adjacency: Adjacency::of(self),
            search: Search::new(self.nodes.len()),
        }
    }

    fn check_node(&self, node: NodeId) -> Result<(), FabricError> {
        if node.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(FabricError::UnknownNode { index: node.0 })
        }
    }

    fn check_edge(&self, edge: EdgeId) -> Result<(), FabricError> {
        if edge.0 < self.edges.len() {
            Ok(())
        } else {
            Err(FabricError::InvalidEdge { message: format!("unknown edge id {}", edge.0) })
        }
    }
}

/// Every node's incident edges in one flat list: node `n`'s are
/// `entries[start[n]..start[n + 1]]`, in edge creation order (the order the
/// search visits them), each as `(neighbour, edge, forward)` where
/// `forward` says the edge is crossed from its first endpoint to its second.
#[derive(Debug, Clone)]
struct Adjacency {
    start: Vec<usize>,
    entries: Vec<(NodeId, EdgeId, bool)>,
}

impl Adjacency {
    fn of(topology: &Topology) -> Self {
        let n = topology.nodes.len();
        let mut start = vec![0usize; n + 1];
        for e in &topology.edges {
            start[e.a.0 + 1] += 1;
            start[e.b.0 + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start[..n].to_vec();
        let mut entries = vec![(NodeId(0), EdgeId(0), false); start[n]];
        for (id, e) in topology.edges.iter().enumerate() {
            entries[fill[e.a.0]] = (e.b, EdgeId(id), true);
            fill[e.a.0] += 1;
            entries[fill[e.b.0]] = (e.a, EdgeId(id), false);
            fill[e.b.0] += 1;
        }
        Self { start, entries }
    }

    fn of_node(&self, node: NodeId) -> &[(NodeId, EdgeId, bool)] {
        &self.entries[self.start[node.0]..self.start[node.0 + 1]]
    }
}

/// Breadth-first search state, sized once per topology and reused: the
/// fewest-hop search visits neighbours in edge creation order, so the path it
/// finds between two nodes is always the same.
#[derive(Debug, Clone)]
struct Search {
    visited: Vec<bool>,
    /// The `(node, edge, forward)` step each reached node was reached by.
    prev: Vec<(NodeId, EdgeId, bool)>,
    queue: Vec<NodeId>,
}

impl Search {
    fn new(nodes: usize) -> Self {
        Self {
            visited: vec![false; nodes],
            prev: vec![(NodeId(0), EdgeId(0), false); nodes],
            queue: Vec::with_capacity(nodes),
        }
    }

    /// Searches from `from` until `to` is reached, then hands `visit` each
    /// edge of the path with its direction, from `to` back to `from`.
    fn walk(
        &mut self,
        adjacency: &Adjacency,
        from: NodeId,
        to: NodeId,
        mut visit: impl FnMut(EdgeId, bool),
    ) -> Result<(), FabricError> {
        let n = self.visited.len();
        for node in [from, to] {
            if node.0 >= n {
                return Err(FabricError::UnknownNode { index: node.0 });
            }
        }
        self.visited.fill(false);
        self.queue.clear();
        self.visited[from.0] = true;
        self.queue.push(from);
        let mut head = 0;
        while let Some(&cur) = self.queue.get(head) {
            head += 1;
            if cur == to {
                break;
            }
            for &(next, edge, forward) in adjacency.of_node(cur) {
                if !self.visited[next.0] {
                    self.visited[next.0] = true;
                    self.prev[next.0] = (cur, edge, forward);
                    self.queue.push(next);
                }
            }
        }
        if !self.visited[to.0] {
            return Err(FabricError::NoRoute { from: from.0, to: to.0 });
        }
        let mut cur = to;
        while cur != from {
            let (p, edge, forward) = self.prev[cur.0];
            visit(edge, forward);
            cur = p;
        }
        Ok(())
    }
}

/// A topology whose edges have been registered with a [`Simulation`].
///
/// Produced by [`Topology::install`]; translates endpoint pairs into
/// [`simkit::LinkId`] paths suitable for [`simkit::FlowSpec`]. Every edge is
/// backed by two directional capacities (PCIe full duplex).
#[derive(Debug, Clone)]
pub struct InstalledFabric {
    links: Vec<(LinkId, LinkId)>,
    adjacency: Adjacency,
    search: Search,
}

impl InstalledFabric {
    /// The shortest-hop path between two endpoints as simulation link ids,
    /// using the directional capacity of each traversed edge that matches the
    /// `from` → `to` direction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::route`].
    pub fn path(&self, from: NodeId, to: NodeId) -> Result<Vec<LinkId>, FabricError> {
        let mut path = Vec::new();
        let mut search = Search::new(self.search.visited.len());
        Self::walk(&self.links, &self.adjacency, &mut search, from, to, &mut path)?;
        Ok(path)
    }

    /// Appends the links of [`InstalledFabric::path`] to `out`, with the
    /// search state this fabric keeps: no allocation beyond `out`'s growth.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::route`]; `out` is left as it was.
    pub fn extend_path(
        &mut self,
        from: NodeId,
        to: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), FabricError> {
        Self::walk(&self.links, &self.adjacency, &mut self.search, from, to, out)
    }

    fn walk(
        links: &[(LinkId, LinkId)],
        adjacency: &Adjacency,
        search: &mut Search,
        from: NodeId,
        to: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), FabricError> {
        let start = out.len();
        search.walk(adjacency, from, to, |edge, forward| {
            let (fwd, rev) = links[edge.0];
            out.push(if forward { fwd } else { rev });
        })?;
        out[start..].reverse();
        Ok(())
    }

    /// The pair of directional simulation links backing a topology edge
    /// (`(a→b, b→a)` in the order the edge was connected).
    pub fn links_of_edge(&self, edge: EdgeId) -> (LinkId, LinkId) {
        self.links[edge.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// The two endpoints of an edge, in the order they were connected.
        fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
            let e = &self.edges[edge.0];
            (e.a, e.b)
        }
    }

    fn line_topology() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let b = t.add_node(NodeKind::Switch);
        let c = t.add_node(NodeKind::SsdPort);
        t.connect(a, b, 10.0).unwrap();
        t.connect(b, c, 5.0).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn route_finds_multi_hop_path() {
        let (t, a, _b, c) = line_topology();
        let path = t.route(a, c).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(t.edge_bandwidth(path[0]), 10.0);
        assert_eq!(t.edge_bandwidth(path[1]), 5.0);
    }

    #[test]
    fn route_to_self_is_empty() {
        let (t, a, _, _) = line_topology();
        assert!(t.route(a, a).unwrap().is_empty());
    }

    #[test]
    fn route_prefers_fewest_hops() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let b = t.add_node(NodeKind::Switch);
        let c = t.add_node(NodeKind::Switch);
        let d = t.add_node(NodeKind::SsdPort);
        // Long path a-b-c-d and a direct shortcut a-d.
        t.connect(a, b, 1.0).unwrap();
        t.connect(b, c, 1.0).unwrap();
        t.connect(c, d, 1.0).unwrap();
        let direct = t.connect(a, d, 1.0).unwrap();
        assert_eq!(t.route(a, d).unwrap(), vec![direct]);
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let b = t.add_node(NodeKind::SsdPort);
        assert_eq!(t.route(a, b), Err(FabricError::NoRoute { from: 0, to: 1 }));
    }

    #[test]
    fn invalid_edges_are_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let b = t.add_node(NodeKind::SsdPort);
        assert!(matches!(t.connect(a, a, 1.0), Err(FabricError::InvalidEdge { .. })));
        assert!(matches!(t.connect(a, b, 0.0), Err(FabricError::InvalidEdge { .. })));
        assert!(matches!(t.connect(a, b, f64::NAN), Err(FabricError::InvalidEdge { .. })));
        assert!(matches!(
            t.connect(a, NodeId(77), 1.0),
            Err(FabricError::UnknownNode { index: 77 })
        ));
    }

    #[test]
    fn degraded_edges_lose_bandwidth_but_keep_routing() {
        let (mut t, a, b, c) = line_topology();
        let ab = t.edge_between(a, b).unwrap();
        let new_bw = t.degrade_edge(ab, 0.25).unwrap();
        assert_eq!(new_bw, 2.5);
        assert_eq!(t.edge_bandwidth(ab), 2.5);
        assert_eq!(t.route(a, c).unwrap().len(), 2);
        // Invalid factors and unknown edges are rejected.
        assert!(matches!(t.degrade_edge(ab, 0.0), Err(FabricError::InvalidEdge { .. })));
        assert!(matches!(t.degrade_edge(ab, 1.5), Err(FabricError::InvalidEdge { .. })));
        assert!(matches!(t.degrade_edge(EdgeId(99), 0.5), Err(FabricError::InvalidEdge { .. })));
    }

    #[test]
    fn edge_between_finds_direct_links_only() {
        let (t, a, b, c) = line_topology();
        let ab = t.edge_between(a, b).expect("direct edge");
        assert_eq!(t.edge_endpoints(ab), (a, b));
        // Symmetric lookup, no transitive routes, out-of-range ids are None.
        assert_eq!(t.edge_between(b, a), Some(ab));
        assert_eq!(t.edge_between(a, c), None);
        assert_eq!(t.edge_between(a, NodeId(99)), None);
        assert_eq!(t.edge_between(NodeId(99), a), None);
    }

    #[test]
    fn nodes_of_kind_filters_by_role() {
        let (t, _a, b, c) = line_topology();
        assert_eq!(t.nodes_of_kind(NodeKind::Switch), vec![b]);
        assert_eq!(t.nodes_of_kind(NodeKind::SsdPort), vec![c]);
        assert_eq!(t.nodes_of_kind(NodeKind::Gpu), Vec::<NodeId>::new());
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn installed_fabric_maps_edges_to_directional_links() {
        let (t, a, _b, c) = line_topology();
        let mut sim = Simulation::new();
        let inst = t.install(&mut sim);
        // Two directional capacities per edge.
        assert_eq!(sim.link_count(), 4);
        let down = inst.path(a, c).unwrap();
        let up = inst.path(c, a).unwrap();
        assert_eq!(down.len(), 2);
        assert_eq!(up.len(), 2);
        assert_eq!(sim.link_bandwidth(down[0]), 10.0);
        assert_eq!(sim.link_bandwidth(down[1]), 5.0);
        // Opposite directions of the same edge use different capacities.
        assert!(down.iter().all(|l| !up.contains(l)));
        assert_eq!(t.edge_endpoints(t.route(a, c).unwrap()[0]).0, a);
    }

    #[test]
    fn opposite_direction_flows_do_not_contend() {
        let (t, a, _b, c) = line_topology();
        let mut sim = Simulation::new();
        let inst = t.install(&mut sim);
        let down = sim.flow(simkit::FlowSpec::new(inst.path(a, c).unwrap(), 50.0));
        let up = sim.flow(simkit::FlowSpec::new(inst.path(c, a).unwrap(), 50.0));
        let tl = sim.run().unwrap();
        // Each direction gets the full 5 B/s of the bottleneck edge.
        assert!((tl.finish_time(down) - 10.0).abs() < 1e-9);
        assert!((tl.finish_time(up) - 10.0).abs() < 1e-9);
    }

    /// Fewest-hop routing as it was before the flat adjacency and the
    /// reused search state: one `Vec` of `(neighbour, edge)` per node in
    /// edge creation order, a fresh BFS per route, and the direction of
    /// each edge recovered by walking the path. The reference the routes
    /// are held to.
    fn reference_path(t: &Topology, from: NodeId, to: NodeId) -> Result<Vec<EdgeId>, FabricError> {
        let n = t.node_count();
        for node in [from, to] {
            if node.0 >= n {
                return Err(FabricError::UnknownNode { index: node.0 });
            }
        }
        if from == to {
            return Ok(Vec::new());
        }
        let mut adjacency: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
        for (id, e) in t.edges.iter().enumerate() {
            adjacency[e.a.0].push((e.b, EdgeId(id)));
            adjacency[e.b.0].push((e.a, EdgeId(id)));
        }
        let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[from.0] = true;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                break;
            }
            for &(next, edge) in &adjacency[cur.0] {
                if !visited[next.0] {
                    visited[next.0] = true;
                    prev[next.0] = Some((cur, edge));
                    queue.push_back(next);
                }
            }
        }
        if !visited[to.0] {
            return Err(FabricError::NoRoute { from: from.0, to: to.0 });
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, e) = prev[cur.0].expect("reached");
            path.push(e);
            cur = p;
        }
        path.reverse();
        Ok(path)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Over random multigraphs (parallel edges, both orientations,
        /// unreachable nodes), every ordered node pair and an unknown node:
        /// `Topology::route` returns the reference's edges, and one installed
        /// fabric, its search state reused from query to query, appends the
        /// directional links of those edges, the same as `path` returns.
        #[test]
        fn routes_equal_the_reference_bfs_for_every_pair(
            n in 1usize..12,
            pairs in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
        ) {
            let mut t = Topology::new();
            for _ in 0..n {
                t.add_node(NodeKind::Switch);
            }
            for (a, b) in pairs {
                let _ = t.connect(NodeId(a % n), NodeId(b % (n + 1)), 1.0 + a as f64);
            }
            let mut sim = Simulation::new();
            let mut inst = t.install(&mut sim);
            let sentinel = sim.add_link(1.0);
            let mut out = vec![sentinel];
            for from in (0..=n).map(NodeId) {
                for to in (0..=n).map(NodeId) {
                    let want = reference_path(&t, from, to);
                    proptest::prop_assert_eq!(&t.route(from, to), &want);
                    let want_links = want.map(|edges| {
                        let mut current = from;
                        edges
                            .iter()
                            .map(|&e| {
                                let (a, b) = t.edge_endpoints(e);
                                let (fwd, rev) = inst.links_of_edge(e);
                                if current == a {
                                    current = b;
                                    fwd
                                } else {
                                    current = a;
                                    rev
                                }
                            })
                            .collect::<Vec<_>>()
                    });
                    proptest::prop_assert_eq!(&inst.path(from, to), &want_links);
                    let appended = inst.extend_path(from, to, &mut out).map(|()| out[1..].to_vec());
                    proptest::prop_assert_eq!(&appended, &want_links);
                    proptest::prop_assert_eq!(out[0], sentinel);
                    out.truncate(1);
                }
            }
        }
    }
}
