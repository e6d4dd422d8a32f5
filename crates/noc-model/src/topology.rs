//! Network topologies: routers, nodes and unidirectional links.
//!
//! The paper models a network as a set of nodes Π, a set of routers Ξ and a
//! set of unidirectional links Λ; every node is attached to exactly one
//! router by an injection link (node → router) and an ejection link
//! (router → node). [`Topology::mesh`] builds the 2D meshes used throughout
//! the paper's evaluation, while [`TopologyBuilder`] supports the custom
//! arrangements of the didactic examples (Figures 2 and 3).

use std::collections::HashMap;
use std::fmt;

use crate::error::ModelError;
use crate::ids::{LinkId, NodeId, RouterId};

/// One end of a unidirectional link: either a processing node or a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A processing node (traffic source/sink).
    Node(NodeId),
    /// A router.
    Router(RouterId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Node(n) => write!(f, "{n}"),
            Endpoint::Router(r) => write!(f, "{r}"),
        }
    }
}

/// A unidirectional link λ between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    source: Endpoint,
    target: Endpoint,
}

impl Link {
    /// The endpoint transmitting over this link.
    pub fn source(&self) -> Endpoint {
        self.source
    }

    /// The endpoint receiving from this link.
    pub fn target(&self) -> Endpoint {
        self.target
    }

    /// `true` if this is an injection link (node → router).
    pub fn is_injection(&self) -> bool {
        matches!(self.source, Endpoint::Node(_))
    }

    /// `true` if this is an ejection link (router → node).
    pub fn is_ejection(&self) -> bool {
        matches!(self.target, Endpoint::Node(_))
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.source, self.target)
    }
}

/// Grid coordinates of a router in a mesh, `(x, y)` with `(0, 0)` at the
/// south-west corner and `x` growing eastwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0-based, grows east).
    pub x: u16,
    /// Row (0-based, grows north).
    pub y: u16,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Width × height of a rectangular mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshDims {
    /// Number of columns.
    pub width: u16,
    /// Number of rows.
    pub height: u16,
}

impl MeshDims {
    /// Total number of routers (= nodes) in the mesh.
    pub fn len(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// `true` for a degenerate, empty mesh.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for MeshDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[derive(Debug, Clone)]
struct RouterEntry {
    coord: Option<Coord>,
    name: Option<String>,
}

#[derive(Debug, Clone)]
struct NodeEntry {
    router: RouterId,
    name: Option<String>,
}

/// An immutable network topology: routers Ξ, nodes Π and unidirectional
/// links Λ, with constant-time lookup from endpoint pairs to [`LinkId`]s.
///
/// # Examples
///
/// ```
/// # use noc_model::topology::Topology;
/// let mesh = Topology::mesh(4, 4);
/// assert_eq!(mesh.router_count(), 16);
/// assert_eq!(mesh.node_count(), 16);
/// // 2·(3·4 + 4·3) router-router links + 2·16 node links:
/// assert_eq!(mesh.link_count(), 48 + 32);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    routers: Vec<RouterEntry>,
    nodes: Vec<NodeEntry>,
    links: Vec<Link>,
    link_lookup: HashMap<(Endpoint, Endpoint), LinkId>,
    injection: Vec<LinkId>,
    ejection: Vec<LinkId>,
    /// Links into each router, grouped by router: those of router `r` are
    /// `inputs[input_start[r]..input_start[r + 1]]`.
    input_start: Vec<usize>,
    inputs: Vec<LinkId>,
    mesh: Option<MeshDims>,
}

impl Topology {
    /// Builds a `width × height` 2D mesh with one node per router and
    /// bidirectional neighbour connections (as two unidirectional links).
    ///
    /// Routers are indexed in row-major order: router `(x, y)` has index
    /// `x + y·width`, and node `i` is attached to router `i`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn mesh(width: u16, height: u16) -> Topology {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let mut b = TopologyBuilder::new();
        for y in 0..height {
            for x in 0..width {
                let r = b.add_router_at(Coord { x, y });
                b.add_node(r);
            }
        }
        let idx = |x: u16, y: u16| RouterId::new(u32::from(x) + u32::from(y) * u32::from(width));
        for y in 0..height {
            for x in 0..width {
                if x + 1 < width {
                    b.add_duplex_router_link(idx(x, y), idx(x + 1, y));
                }
                if y + 1 < height {
                    b.add_duplex_router_link(idx(x, y), idx(x, y + 1));
                }
            }
        }
        let mut topo = b.build().expect("mesh construction cannot fail");
        topo.mesh = Some(MeshDims { width, height });
        topo
    }

    /// Number of routers |Ξ|.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of nodes |Π|.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of unidirectional links |Λ|.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Mesh dimensions, if this topology was built by [`Topology::mesh`].
    pub fn mesh_dims(&self) -> Option<MeshDims> {
        self.mesh
    }

    /// The link table entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for this topology.
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// The links whose target is `router`, in id order: the links feeding
    /// its input buffers.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of bounds.
    pub fn input_links(&self, router: RouterId) -> &[LinkId] {
        &self.inputs[self.input_start[router.index()]..self.input_start[router.index() + 1]]
    }

    /// Looks up the link from `source` to `target`, if one exists.
    pub fn find_link(&self, source: Endpoint, target: Endpoint) -> Option<LinkId> {
        self.link_lookup.get(&(source, target)).copied()
    }

    /// The router a node is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn router_of(&self, node: NodeId) -> RouterId {
        self.nodes[node.index()].router
    }

    /// The injection link (node → router) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn injection_link(&self, node: NodeId) -> LinkId {
        self.injection[node.index()]
    }

    /// The ejection link (router → node) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn ejection_link(&self, node: NodeId) -> LinkId {
        self.ejection[node.index()]
    }

    /// Grid coordinates of `router`, if known (always known for meshes).
    pub fn coord(&self, router: RouterId) -> Option<Coord> {
        self.routers[router.index()].coord
    }

    /// The router at mesh coordinate `(x, y)`.
    ///
    /// Returns `None` when the topology is not a mesh or the coordinate is
    /// out of range.
    pub fn router_at(&self, x: u16, y: u16) -> Option<RouterId> {
        let dims = self.mesh?;
        if x >= dims.width || y >= dims.height {
            return None;
        }
        Some(RouterId::new(
            u32::from(x) + u32::from(y) * u32::from(dims.width),
        ))
    }

    /// Iterates over all link identifiers.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId::new)
    }

    /// Iterates over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates over all router identifiers.
    pub fn router_ids(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.routers.len() as u32).map(RouterId::new)
    }

    /// Human-readable name assigned to `node` by the builder, if any.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.nodes[node.index()].name.as_deref()
    }

    /// Human-readable name assigned to `router` by the builder, if any.
    pub fn router_name(&self, router: RouterId) -> Option<&str> {
        self.routers[router.index()].name.as_deref()
    }

    /// Formats `link` using builder-assigned names when available, e.g.
    /// `"a→r1"` for an injection link of the didactic example.
    pub fn link_label(&self, link: LinkId) -> String {
        let l = self.link(link);
        let fmt_ep = |ep: Endpoint| match ep {
            Endpoint::Node(n) => self
                .node_name(n)
                .map(str::to_owned)
                .unwrap_or_else(|| n.to_string()),
            Endpoint::Router(r) => self
                .router_name(r)
                .map(str::to_owned)
                .unwrap_or_else(|| r.to_string()),
        };
        format!("{}→{}", fmt_ep(l.source), fmt_ep(l.target))
    }
}

/// Incremental construction of custom topologies ([C-BUILDER]).
///
/// # Examples
///
/// Build a two-router chain with one node on each side:
///
/// ```
/// # use noc_model::topology::{TopologyBuilder, Endpoint};
/// let mut b = TopologyBuilder::new();
/// let r0 = b.add_router();
/// let r1 = b.add_router();
/// let a = b.add_node(r0);
/// let z = b.add_node(r1);
/// b.add_duplex_router_link(r0, r1);
/// let topo = b.build().unwrap();
/// assert!(topo
///     .find_link(Endpoint::Router(r0), Endpoint::Router(r1))
///     .is_some());
/// assert_eq!(topo.router_of(z), r1);
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    routers: Vec<RouterEntry>,
    nodes: Vec<NodeEntry>,
    links: Vec<Link>,
    link_lookup: HashMap<(Endpoint, Endpoint), LinkId>,
    injection: Vec<LinkId>,
    ejection: Vec<LinkId>,
    duplicate: Option<(Endpoint, Endpoint)>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a router with no grid coordinate.
    pub fn add_router(&mut self) -> RouterId {
        let id = RouterId::new(self.routers.len() as u32);
        self.routers.push(RouterEntry {
            coord: None,
            name: None,
        });
        id
    }

    /// Adds a router at a grid coordinate (used by mesh construction).
    pub fn add_router_at(&mut self, coord: Coord) -> RouterId {
        let id = self.add_router();
        self.routers[id.index()].coord = Some(coord);
        id
    }

    /// Adds a named router (names show up in diagnostics and traces).
    pub fn add_named_router(&mut self, name: impl Into<String>) -> RouterId {
        let id = self.add_router();
        self.routers[id.index()].name = Some(name.into());
        id
    }

    /// Adds a node attached to `router`, creating its injection and ejection
    /// links.
    ///
    /// # Panics
    ///
    /// Panics if `router` was not created by this builder.
    pub fn add_node(&mut self, router: RouterId) -> NodeId {
        assert!(
            router.index() < self.routers.len(),
            "unknown router {router}"
        );
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(NodeEntry { router, name: None });
        let inj = self.push_link(Endpoint::Node(id), Endpoint::Router(router));
        let eje = self.push_link(Endpoint::Router(router), Endpoint::Node(id));
        self.injection.push(inj);
        self.ejection.push(eje);
        id
    }

    /// Adds a named node attached to `router`.
    pub fn add_named_node(&mut self, router: RouterId, name: impl Into<String>) -> NodeId {
        let id = self.add_node(router);
        self.nodes[id.index()].name = Some(name.into());
        id
    }

    /// Adds one unidirectional link from router `a` to router `b`.
    ///
    /// # Panics
    ///
    /// Panics if either router is unknown or `a == b`.
    pub fn add_router_link(&mut self, a: RouterId, b: RouterId) -> LinkId {
        assert!(a.index() < self.routers.len(), "unknown router {a}");
        assert!(b.index() < self.routers.len(), "unknown router {b}");
        assert_ne!(a, b, "self-links are not allowed");
        self.push_link(Endpoint::Router(a), Endpoint::Router(b))
    }

    /// Adds both directions between routers `a` and `b`.
    pub fn add_duplex_router_link(&mut self, a: RouterId, b: RouterId) -> (LinkId, LinkId) {
        (self.add_router_link(a, b), self.add_router_link(b, a))
    }

    fn push_link(&mut self, source: Endpoint, target: Endpoint) -> LinkId {
        let id = LinkId::new(self.links.len() as u32);
        if self.link_lookup.insert((source, target), id).is_some() {
            self.duplicate = Some((source, target));
        }
        self.links.push(Link { source, target });
        id
    }

    /// Finalises the topology.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateLink`] if the same directed endpoint
    /// pair was added twice.
    pub fn build(self) -> Result<Topology, ModelError> {
        if let Some((s, t)) = self.duplicate {
            return Err(ModelError::DuplicateLink {
                source: s.to_string(),
                target: t.to_string(),
            });
        }
        let mut input_start = vec![0; self.routers.len() + 1];
        for link in &self.links {
            if let Endpoint::Router(r) = link.target() {
                input_start[r.index() + 1] += 1;
            }
        }
        for r in 0..self.routers.len() {
            input_start[r + 1] += input_start[r];
        }
        let mut inputs = vec![LinkId::new(0); input_start[self.routers.len()]];
        let mut next = input_start.clone();
        for (id, link) in self.links.iter().enumerate() {
            if let Endpoint::Router(r) = link.target() {
                inputs[next[r.index()]] = LinkId::new(id as u32);
                next[r.index()] += 1;
            }
        }
        Ok(Topology {
            routers: self.routers,
            nodes: self.nodes,
            links: self.links,
            link_lookup: self.link_lookup,
            injection: self.injection,
            ejection: self.ejection,
            input_start,
            inputs,
            mesh: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_counts() {
        let t = Topology::mesh(3, 2);
        assert_eq!(t.router_count(), 6);
        assert_eq!(t.node_count(), 6);
        // router-router: horizontal 2 per row × 2 rows, vertical 3, each duplex
        // → 2·(2·2 + 3·1) = 14; node links: 2·6 = 12.
        assert_eq!(t.link_count(), 14 + 12);
        assert_eq!(
            t.mesh_dims(),
            Some(MeshDims {
                width: 3,
                height: 2
            })
        );
    }

    #[test]
    fn input_links_are_the_links_into_each_router() {
        let t = Topology::mesh(3, 2);
        for r in t.router_ids() {
            let expected: Vec<LinkId> = t
                .link_ids()
                .filter(|&l| t.link(l).target() == Endpoint::Router(r))
                .collect();
            assert_eq!(t.input_links(r), expected.as_slice());
        }
        // A corner router of a mesh has two neighbours plus its node.
        assert_eq!(t.input_links(RouterId::new(0)).len(), 3);
    }

    #[test]
    fn mesh_router_at_and_coord_roundtrip() {
        let t = Topology::mesh(4, 3);
        for y in 0..3 {
            for x in 0..4 {
                let r = t.router_at(x, y).unwrap();
                assert_eq!(t.coord(r), Some(Coord { x, y }));
            }
        }
        assert_eq!(t.router_at(4, 0), None);
        assert_eq!(t.router_at(0, 3), None);
    }

    #[test]
    fn mesh_neighbour_links_exist_both_ways() {
        let t = Topology::mesh(2, 2);
        let r00 = t.router_at(0, 0).unwrap();
        let r10 = t.router_at(1, 0).unwrap();
        let r01 = t.router_at(0, 1).unwrap();
        assert!(t
            .find_link(Endpoint::Router(r00), Endpoint::Router(r10))
            .is_some());
        assert!(t
            .find_link(Endpoint::Router(r10), Endpoint::Router(r00))
            .is_some());
        assert!(t
            .find_link(Endpoint::Router(r00), Endpoint::Router(r01))
            .is_some());
        // No diagonal links.
        let r11 = t.router_at(1, 1).unwrap();
        assert!(t
            .find_link(Endpoint::Router(r00), Endpoint::Router(r11))
            .is_none());
    }

    #[test]
    fn node_links_wired() {
        let t = Topology::mesh(2, 1);
        for n in t.node_ids() {
            let inj = t.link(t.injection_link(n));
            assert_eq!(inj.source(), Endpoint::Node(n));
            assert_eq!(inj.target(), Endpoint::Router(t.router_of(n)));
            assert!(inj.is_injection());
            let eje = t.link(t.ejection_link(n));
            assert_eq!(eje.target(), Endpoint::Node(n));
            assert!(eje.is_ejection());
        }
    }

    #[test]
    fn builder_rejects_duplicate_links() {
        let mut b = TopologyBuilder::new();
        let r0 = b.add_router();
        let r1 = b.add_router();
        b.add_router_link(r0, r1);
        b.add_router_link(r0, r1);
        assert!(matches!(b.build(), Err(ModelError::DuplicateLink { .. })));
    }

    #[test]
    fn builder_names_surface_in_labels() {
        let mut b = TopologyBuilder::new();
        let r1 = b.add_named_router("r1");
        let a = b.add_named_node(r1, "a");
        let t = b.build().unwrap();
        assert_eq!(t.node_name(a), Some("a"));
        assert_eq!(t.router_name(r1), Some("r1"));
        assert_eq!(t.link_label(t.injection_link(a)), "a→r1");
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn builder_rejects_self_link() {
        let mut b = TopologyBuilder::new();
        let r = b.add_router();
        b.add_router_link(r, r);
    }

    #[test]
    fn link_display() {
        let t = Topology::mesh(2, 1);
        let inj = t.link(t.injection_link(NodeId::new(0)));
        assert_eq!(inj.to_string(), "n0→r0");
    }
}
