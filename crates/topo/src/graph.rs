//! The topology graph: nodes, levels and full-duplex links.

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of a full-duplex link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// One direction of a full-duplex link: traffic flowing *out of* end
/// `from_end` (0 or 1) toward the opposite end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkDir {
    /// The underlying full-duplex link.
    pub link: LinkId,
    /// Which end (0 or 1) traffic flows out of.
    pub from_end: u8,
}

/// What a node is. The paper's device taxonomy: hosts attach to the edge;
/// edge devices (ToR / Fabric Adapter) speak packets; fabric devices
/// (Ethernet switch in the baseline, Fabric Element in Stardust) make up
/// the interior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host (only present in host-level topologies).
    Host,
    /// Edge device: ToR switch / Fabric Adapter.
    Edge,
    /// Interior device: Ethernet switch / Fabric Element.
    Fabric,
}

/// A node: kind, tier level and attached links.
///
/// Levels: hosts are 0, edge devices 1, first fabric tier 2, and so on.
#[derive(Debug, Clone)]
pub struct Node {
    /// What role the node plays in the fabric.
    pub kind: NodeKind,
    /// Tier level (hosts 0, edge 1, fabric tiers 2+).
    pub level: u8,
    /// Links attached to this node, in port order.
    pub links: Vec<LinkId>,
}

/// A full-duplex link between two node ends, with its fiber length.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// The two endpoints.
    pub ends: [NodeId; 2],
    /// Fiber length in meters (drives propagation delay).
    pub meters: u32,
}

impl Link {
    /// The node at end `e`.
    pub fn end(&self, e: u8) -> NodeId {
        self.ends[e as usize]
    }
    /// The node a [`LinkDir`] points *to*.
    pub fn dst_of(&self, dir_from_end: u8) -> NodeId {
        self.ends[1 - dir_from_end as usize]
    }
    /// The end index (0/1) occupied by `node`; panics if not an endpoint.
    pub fn end_of(&self, node: NodeId) -> u8 {
        if self.ends[0] == node {
            0
        } else if self.ends[1] == node {
            1
        } else {
            panic!("node {node:?} is not an endpoint of this link");
        }
    }
}

/// An immutable multigraph of nodes and full-duplex links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Topology {
    /// Empty topology (use the builders in [`crate::builders`]).
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, kind: NodeKind, level: u8) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            level,
            links: Vec::new(),
        });
        id
    }

    /// Connect two nodes with a full-duplex link of the given fiber length.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, meters: u32) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            ends: [a, b],
            meters,
        });
        self.nodes[a.0 as usize].links.push(id);
        self.nodes[b.0 as usize].links.push(id);
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
    /// Number of full-duplex links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }
    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }
    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }
    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }
    /// All link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId)
    }
    /// Node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node(n).kind == kind)
            .collect()
    }

    /// The far-end node of `link` as seen from `node`.
    pub fn peer(&self, node: NodeId, link: LinkId) -> NodeId {
        let l = self.link(link);
        l.ends[1 - l.end_of(node) as usize]
    }

    /// Neighbors of `node` as `(link, peer)` pairs, in port order.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (LinkId, NodeId)> + '_ {
        self.node(node)
            .links
            .iter()
            .map(move |&l| (l, self.peer(node, l)))
    }

    /// Basic structural validation: port counts per node within `radix`,
    /// links only between adjacent levels — except fabric↔fabric links,
    /// which may sit within one level (flat fabrics: dragonfly groups,
    /// Space Shuffle rings, expanders).
    pub fn validate(&self, max_radix: usize) {
        for id in self.node_ids() {
            let n = self.node(id);
            assert!(
                n.links.len() <= max_radix,
                "{id:?} has {} ports (max {max_radix})",
                n.links.len()
            );
        }
        for l in &self.links {
            let la = self.node(l.ends[0]).level;
            let lb = self.node(l.ends[1]).level;
            let flat_fabric = la == lb
                && self.node(l.ends[0]).kind == NodeKind::Fabric
                && self.node(l.ends[1]).kind == NodeKind::Fabric;
            assert!(
                la.abs_diff(lb) == 1 || flat_fabric,
                "link between non-adjacent levels {la} and {lb}"
            );
        }
    }
}

/// Structural views the crate's tests check builders and plans against.
#[cfg(test)]
impl Topology {
    /// The [`LinkDir`] for traffic leaving `node` on `link`.
    pub(crate) fn dir_from(&self, node: NodeId, link: LinkId) -> LinkDir {
        LinkDir {
            link,
            from_end: self.link(link).end_of(node),
        }
    }

    /// Links from `node` whose peer sits one level *above*.
    pub(crate) fn up_links(&self, node: NodeId) -> Vec<LinkId> {
        let lvl = self.node(node).level;
        self.neighbors(node)
            .filter(|&(_, p)| self.node(p).level > lvl)
            .map(|(l, _)| l)
            .collect()
    }

    /// Links from `node` whose peer sits one level *below*.
    pub(crate) fn down_links(&self, node: NodeId) -> Vec<LinkId> {
        let lvl = self.node(node).level;
        self.neighbors(node)
            .filter(|&(_, p)| self.node(p).level < lvl)
            .map(|(l, _)| l)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        // Two edges, two fabric nodes, full mesh between levels.
        let mut t = Topology::new();
        let e0 = t.add_node(NodeKind::Edge, 1);
        let e1 = t.add_node(NodeKind::Edge, 1);
        let f0 = t.add_node(NodeKind::Fabric, 2);
        let f1 = t.add_node(NodeKind::Fabric, 2);
        t.add_link(e0, f0, 10);
        t.add_link(e0, f1, 10);
        t.add_link(e1, f0, 10);
        t.add_link(e1, f1, 10);
        (t, e0, e1, f0, f1)
    }

    #[test]
    fn peer_and_dirs() {
        let (t, e0, _, f0, _) = diamond();
        let l = t.node(e0).links[0];
        assert_eq!(t.peer(e0, l), f0);
        assert_eq!(t.peer(f0, l), e0);
        let d = t.dir_from(e0, l);
        assert_eq!(t.link(l).dst_of(d.from_end), f0);
        assert_eq!(t.link(l).dst_of(1 - d.from_end), e0);
    }

    #[test]
    fn up_down_links() {
        let (t, e0, _, f0, _) = diamond();
        assert_eq!(t.up_links(e0).len(), 2);
        assert_eq!(t.down_links(e0).len(), 0);
        assert_eq!(t.down_links(f0).len(), 2);
        assert_eq!(t.up_links(f0).len(), 0);
    }

    #[test]
    fn next_links_prefer_down() {
        let (t, e0, e1, f0, f1) = diamond();
        let plan = crate::RoutePlan::shortest_path(&t);
        // Endpoint indices follow node ids: e0 is 0, e1 is 1.
        let peers = |node, dst| -> Vec<NodeId> {
            let links = plan.next_links(&t, node, dst);
            links.into_iter().map(|l| t.peer(node, l)).collect()
        };
        assert_eq!(peers(f0, 1), [e1]);
        assert_eq!(peers(f0, 0), [e0]);
        assert_eq!(peers(f1, 1), [e1]);
        // An edge goes up on every link, in port order, and has no next
        // hop toward itself.
        assert_eq!(peers(e0, 1), [f0, f1]);
        assert_eq!(peers(e1, 0), [f0, f1]);
        assert!(peers(e0, 0).is_empty());
    }

    #[test]
    fn validate_passes_on_diamond() {
        let (t, ..) = diamond();
        t.validate(4);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Edge, 1);
        t.add_link(a, a, 1);
    }

    #[test]
    #[should_panic(expected = "ports")]
    fn validate_rejects_overradix() {
        let (t, ..) = diamond();
        t.validate(1);
    }
}
