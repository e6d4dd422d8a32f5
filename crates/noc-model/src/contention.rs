//! Contention domains and interference sets (§II–III of the paper).
//!
//! The *contention domain* `cd(i,j)` of two flows is the ordered set of
//! links their routes share. From it the paper derives, for a flow τᵢ:
//!
//! * the **direct interference set** `S^D_i` — higher-priority flows sharing
//!   at least one link with τᵢ;
//! * the **indirect interference set** `S^I_i` — flows not in `S^D_i` that
//!   interfere with a member of `S^D_i`;
//! * per direct interferer τⱼ, the partition of `S^I_i ∩ S^D_j` into the
//!   **upstream** set `S^upj_Ii` (τₖ hits τⱼ before τⱼ's contention with τᵢ)
//!   and the **downstream** set `S^downj_Ii` (τₖ hits τⱼ after it), by
//!   comparing link order along `routeⱼ`.
//!
//! [`InterferenceGraph`] precomputes the direct sets and their domains for a
//! [`System`] and is the single entry point used by every analysis in
//! `noc-analysis`, which wraps it in its shared `AnalysisContext` so one
//! construction serves every analysis and every compatible system variant.
//! The graph is flat: it hashes nothing, it stores only `S^D` and the
//! domains, and no query on a solver's path allocates.
//!
//! * A [`ContentionDomain`] is a `Copy` pair of route spans. Contiguity is
//!   validated on construction, so the shared links are one run on each
//!   route; they are read off `routeᵢ` when needed
//!   ([`ContentionDomain::links`]) and never stored.
//! * Each flow keeps `S^D_i` sorted from highest priority to lowest, with
//!   the domain `cd(i,j)` of every member beside it. Priorities are unique,
//!   so every contending pair is a direct edge of exactly one of its two
//!   flows, and a pair lookup is one binary search by priority.
//! * `S^I_i` is derived from the direct sets, never stored. The analyses
//!   only read it through a direct interferer `j ∈ S^D_i`, and there
//!   `S^I_i ∩ S^D_j` is `S^D_j ∖ S^D_i`, a merge of two short lists in their
//!   shared order: [`InterferenceGraph::partition_indirect`] walks it once,
//!   classifying each member up- or downstream and naming its edge in
//!   `S^D_j`, so solvers can memoise per-edge values in a flat slot array.
//!   [`InterferenceGraph::indirect_set`] collects the whole set, for
//!   inspection and tests; it allocates.
//! * A link-overlap table lists the flows crossing each link, in id order,
//!   with the link's position on their routes. Construction, the deltas and
//!   [`InterferenceGraph::victims_on_link`] read it, so they scale with real
//!   contention rather than with n².
//!
//! [`InterferenceGraph::add_flow`] and [`InterferenceGraph::remove_flow`]
//! keep flow ids dense and touch only the direct sets a delta changes;
//! after any sequence of deltas the graph equals the one built from
//! scratch for the final system. An addition may insert at any id, so
//! removing a flow and adding it back at its own id restores the graph
//! exactly. Each returns a [`GraphDelta`]: the flows whose interference
//! sets changed, and among them the flows whose direct set gained or lost
//! the delta's flow, with its position there, which names exactly the
//! direct edges whose partition `S^I_i ∩ S^D_j` changed.
//!
//! [`System`]: crate::system::System

use crate::error::ModelError;
use crate::ids::{FlowId, LinkId};
use crate::route::Route;
use crate::system::System;

/// The contention domain of an ordered pair of flows (i, j): the links
/// shared by both routes, as one span on each route.
///
/// Validated to be contiguous on both routes and traversed in the same
/// order by both flows — the standing assumption of the paper (§II), always
/// satisfied by dimension-order routing. Both spans therefore cover the
/// same links and have the same length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionDomain {
    first_i: u32,
    first_j: u32,
    len: u32,
}

impl ContentionDomain {
    /// Computes `cd(i,j)` from two routes.
    ///
    /// Returns `Ok(None)` when the routes are link-disjoint.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonContiguousContentionDomain`] (tagged with
    /// the given flow ids) if the shared links do not form one contiguous,
    /// identically-ordered segment on both routes.
    pub fn compute(
        i: FlowId,
        route_i: &Route,
        j: FlowId,
        route_j: &Route,
    ) -> Result<Option<ContentionDomain>, ModelError> {
        let mut found: Option<ContentionDomain> = None;
        for (pos_i, &link) in route_i.iter().enumerate() {
            let Some(pos_j) = route_j.position(link) else {
                continue;
            };
            let (pos_i, pos_j) = (pos_i as u32, pos_j as u32);
            match &mut found {
                None => found = Some(ContentionDomain::at(pos_i, pos_j)),
                Some(cd) => {
                    if !cd.extend(pos_i, pos_j) {
                        return Err(ModelError::NonContiguousContentionDomain {
                            first: i,
                            second: j,
                        });
                    }
                }
            }
        }
        Ok(found)
    }

    /// The one-link domain at `pos_i` on routeᵢ and `pos_j` on routeⱼ.
    fn at(pos_i: u32, pos_j: u32) -> ContentionDomain {
        ContentionDomain {
            first_i: pos_i,
            first_j: pos_j,
            len: 1,
        }
    }

    /// Grows the domain by the next shared link, at `pos_i` on routeᵢ and
    /// `pos_j` on routeⱼ; `false`, leaving it unchanged, unless that link
    /// directly follows the domain on both routes.
    fn extend(&mut self, pos_i: u32, pos_j: u32) -> bool {
        let follows = pos_i == self.first_i + self.len && pos_j == self.first_j + self.len;
        self.len += u32::from(follows);
        follows
    }

    /// The shared links in traversal order, read off flow i's route.
    ///
    /// # Panics
    ///
    /// Panics if `route_i` is shorter than flow i's route, i.e. is not it.
    pub fn links<'r>(&self, route_i: &'r Route) -> &'r [LinkId] {
        &route_i.links()[self.first_in_i()..=self.last_in_i()]
    }

    /// Number of shared links, the `|cd_ij|` of Equation 6.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always `false`: link-disjoint pairs yield `None` instead.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 0-based position of the first shared link on flow i's route.
    pub fn first_in_i(&self) -> usize {
        self.first_i as usize
    }

    /// 0-based position of the last shared link on flow i's route.
    pub fn last_in_i(&self) -> usize {
        (self.first_i + self.len - 1) as usize
    }

    /// 0-based position of the first shared link on flow j's route — the
    /// paper's `order(first(cd_ij), route_j)` minus one.
    pub fn first_in_j(&self) -> usize {
        self.first_j as usize
    }

    /// 0-based position of the last shared link on flow j's route.
    pub fn last_in_j(&self) -> usize {
        (self.first_j + self.len - 1) as usize
    }

    /// The same domain seen from flow j.
    fn reversed(self) -> ContentionDomain {
        ContentionDomain {
            first_i: self.first_j,
            first_j: self.first_i,
            len: self.len,
        }
    }
}

/// Where an indirect interferer τₖ ∈ `S^I_i ∩ S^D_j` hits τⱼ, relative to
/// `cd(i,j)` on `routeⱼ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `S^upj_Ii`: τₖ's contention with τⱼ ends before `cd(i,j)` begins.
    Upstream,
    /// `S^downj_Ii`: τₖ's contention with τⱼ begins after `cd(i,j)` ends.
    Downstream,
}

/// One member τₖ of `S^I_i ∩ S^D_j`, as yielded by [`UpDownPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectMember {
    /// The indirect interferer τₖ.
    pub flow: FlowId,
    /// Position of τₖ in [`InterferenceGraph::direct_set`]`(j)`: it names
    /// the direct edge (k → j), the key of any per-edge memo.
    pub edge: usize,
    /// Up- or downstream of `cd(i,j)`.
    pub side: Side,
}

/// The partition of `S^I_i ∩ S^D_j` into upstream and downstream indirect
/// interferers, relative to the contention domain `cd(i,j)` on `routeⱼ`,
/// for a direct interferer `j ∈ S^D_i`.
///
/// A borrowed view that never allocates. `S^I_i` is the union of the
/// direct sets of `S^D_i`'s members, less `S^D_i` itself (τᵢ, outranked by
/// all of them, is in none), so for `j ∈ S^D_i` the intersection is
/// `S^D_j ∖ S^D_i`: each walk merges those two short priority-ordered
/// sets and yields members from highest priority to lowest.
#[derive(Debug, Clone, Copy)]
pub struct UpDownPartition<'g> {
    graph: &'g InterferenceGraph,
    i: FlowId,
    j: FlowId,
    /// Positions of `cd(i,j)` on `routeⱼ`.
    first: usize,
    last: usize,
}

impl<'g> UpDownPartition<'g> {
    /// Every member of `S^I_i ∩ S^D_j` with its side, highest priority
    /// first.
    pub fn iter(&self) -> Members<'g> {
        let g = self.graph;
        Members {
            direct_j: &g.direct[self.j.index()],
            domains_j: &g.domains[self.j.index()],
            direct_i: &g.direct[self.i.index()],
            rank: &g.rank,
            edge: 0,
            skip: 0,
            partition: *self,
        }
    }

    /// `S^upj_Ii`, highest priority first.
    pub fn upstream(&self) -> impl Iterator<Item = FlowId> + 'g {
        self.on(Side::Upstream)
    }

    /// `S^downj_Ii`, highest priority first.
    pub fn downstream(&self) -> impl Iterator<Item = FlowId> + 'g {
        self.on(Side::Downstream)
    }

    fn on(&self, side: Side) -> impl Iterator<Item = FlowId> + 'g {
        self.iter().filter(move |m| m.side == side).map(|m| m.flow)
    }

    /// `true` if `S^I_i ∩ S^D_j` is empty: τⱼ then suffers no interference
    /// from a member of `S^I_i`, and the analyses charge no interference
    /// jitter `J^I_j = R_j − C_j` for τⱼ when bounding τᵢ.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl<'g> IntoIterator for UpDownPartition<'g> {
    type Item = IndirectMember;
    type IntoIter = Members<'g>;

    fn into_iter(self) -> Members<'g> {
        self.iter()
    }
}

/// Iterator over an [`UpDownPartition`].
#[derive(Debug, Clone)]
pub struct Members<'g> {
    /// `S^D_j`, and `cd(j,k)` for each of its members `k`.
    direct_j: &'g [FlowId],
    domains_j: &'g [ContentionDomain],
    /// `S^D_i`: the members of `S^D_j` to leave out.
    direct_i: &'g [FlowId],
    rank: &'g [u32],
    /// Next position in `direct_j`.
    edge: usize,
    /// First position in `direct_i` not above the flow at `edge`.
    skip: usize,
    partition: UpDownPartition<'g>,
}

impl Iterator for Members<'_> {
    type Item = IndirectMember;

    fn next(&mut self) -> Option<IndirectMember> {
        while let Some(&flow) = self.direct_j.get(self.edge) {
            let edge = self.edge;
            self.edge += 1;
            let r_k = self.rank[flow.index()];
            while let Some(&f) = self.direct_i.get(self.skip) {
                if self.rank[f.index()] >= r_k {
                    break;
                }
                self.skip += 1;
            }
            if self.direct_i.get(self.skip) == Some(&flow) {
                continue; // a direct interferer of τᵢ, not an indirect one
            }
            let p = &self.partition;
            // positions of cd(j,k) on route_j:
            let cd_jk = self.domains_j[edge];
            let side = if cd_jk.last_in_i() < p.first {
                Side::Upstream
            } else if cd_jk.first_in_i() > p.last {
                Side::Downstream
            } else {
                // Overlap is impossible: k ∈ S^I_i shares no link with
                // route_i ⊇ cd(i,j), and both domains are contiguous on
                // route_j, so their position intervals are disjoint.
                debug_assert!(
                    false,
                    "unclassifiable indirect interferer {flow} for pair ({},{})",
                    p.i, p.j
                );
                // Release-mode fallback: treat as upstream, the
                // conservative choice (disables the buffer-aware bound).
                Side::Upstream
            };
            return Some(IndirectMember { flow, edge, side });
        }
        None
    }
}

/// Reusable scratch space of graph construction and deltas. Every buffer
/// grows on demand, to the size one route's walk needs, and is back to its
/// idle state between uses.
#[derive(Default)]
struct Scratch {
    /// The partners met so far and their domains, oriented from the walker.
    found: Vec<(FlowId, ContentionDomain)>,
    /// The partners met on the previous link of the walk, then on the
    /// current one, in id order, each with its place in `found`.
    on_prev: Vec<(FlowId, u32)>,
    on_link: Vec<(FlowId, u32)>,
}

/// Position of the flow of priority rank `r` in `set`, sorted from highest
/// priority to lowest.
fn find(set: &[FlowId], rank: &[u32], r: u32) -> Option<usize> {
    set.binary_search_by(|f| rank[f.index()].cmp(&r)).ok()
}

/// What one flow addition or removal changed in an [`InterferenceGraph`]
/// ([`InterferenceGraph::add_flow`], [`InterferenceGraph::remove_flow`]),
/// every flow named by its id after the delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Every flow whose direct or indirect interference set changed, the
    /// added flow included, in ascending id order: the set an incremental
    /// solver must mark dirty.
    pub affected: Vec<FlowId>,
    /// The *reshaped* flows, those whose direct set gained or lost the
    /// delta's flow, in ascending id order, each with that flow's position
    /// in its direct set: after an addition, or before a removal. They are
    /// members of `affected`, and every other member but an added flow is a
    /// victim of one of them. The partition `S^I_i ∩ S^D_j = S^D_j ∖ S^D_i`
    /// of a direct edge (j → i) between two flows present before and after
    /// the delta changed iff τⱼ is reshaped and τᵢ is not.
    pub reshaped: Vec<(FlowId, usize)>,
}

/// Precomputed interference structure of a [`System`]: the direct set of
/// every flow, with the contention domain of each member. Indirect sets are
/// derived from these on demand.
///
/// # Examples
///
/// ```
/// # use noc_model::prelude::*;
/// # use noc_model::contention::InterferenceGraph;
/// let topology = Topology::mesh(4, 1);
/// let flows = FlowSet::new(vec![
///     Flow::builder(NodeId::new(0), NodeId::new(3))
///         .priority(Priority::new(1))
///         .period(Cycles::new(1_000))
///         .build(),
///     Flow::builder(NodeId::new(0), NodeId::new(3))
///         .priority(Priority::new(2))
///         .period(Cycles::new(2_000))
///         .build(),
/// ])?;
/// let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
/// let graph = InterferenceGraph::new(&system)?;
/// // the lower-priority flow is directly interfered with by the other:
/// assert_eq!(graph.direct_set(FlowId::new(1)), &[FlowId::new(0)]);
/// assert!(graph.direct_set(FlowId::new(0)).is_empty());
/// # Ok::<(), noc_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceGraph {
    /// Every flow's priority rank, 0 for the highest priority: the order of
    /// the direct sets.
    rank: Vec<u32>,
    /// The flows by rank, highest priority first.
    order: Vec<FlowId>,
    /// `S^D_i`, highest priority first.
    direct: Vec<Vec<FlowId>>,
    /// `cd(i,j)` for the member `j` at the same position of `direct[i]`.
    domains: Vec<Vec<ContentionDomain>>,
    /// Link-overlap table: the flows crossing each link, in id order, with
    /// the link's position on their route.
    crossings: Vec<Vec<(FlowId, u32)>>,
}

impl InterferenceGraph {
    /// Builds the interference graph of `system`.
    ///
    /// Contention domains are found through the link-overlap table, each
    /// from its lower-priority flow's route, instead of the full O(n²)
    /// route cross-product: the work scales with actual contention.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonContiguousContentionDomain`] if any pair of
    /// routes violates the contiguous contention-domain assumption, naming
    /// the lowest `(first, second)` id pair at fault.
    pub fn new(system: &System) -> Result<InterferenceGraph, ModelError> {
        let n = system.flows().len();
        let order = system.flows().ids_by_priority();
        let mut rank = vec![0; n];
        for (r, f) in order.iter().enumerate() {
            rank[f.index()] = r as u32;
        }
        let mut graph = InterferenceGraph {
            rank,
            order,
            direct: Vec::with_capacity(n),
            domains: Vec::with_capacity(n),
            crossings: Vec::new(),
        };
        // Sized first, so each overlap list is allocated once.
        let mut crossed = vec![0; system.topology().link_count()];
        for id in system.flows().ids() {
            for link in system.route(id).iter() {
                crossed[link.index()] += 1;
            }
        }
        graph.crossings = crossed.into_iter().map(Vec::with_capacity).collect();
        for id in system.flows().ids() {
            for (pos, link) in system.route(id).iter().enumerate() {
                graph.crossings[link.index()].push((id, pos as u32));
            }
        }
        let mut scratch = Scratch::default();
        let mut fault: Option<(FlowId, FlowId)> = None;
        for i in system.flows().ids() {
            let r_i = graph.rank[i.index()];
            let higher = |j: FlowId| graph.rank[j.index()] < r_i;
            if let Err(j) = graph.contenders(system.route(i), higher, &mut scratch) {
                let pair = (i.min(j), i.max(j));
                fault = Some(fault.map_or(pair, |f| f.min(pair)));
            }
            let edges = &scratch.found;
            graph.direct.push(edges.iter().map(|&(j, _)| j).collect());
            graph
                .domains
                .push(edges.iter().map(|&(_, cd)| cd).collect());
        }
        if let Some((first, second)) = fault {
            return Err(ModelError::NonContiguousContentionDomain { first, second });
        }
        Ok(graph)
    }

    /// Collects in `scratch.found` the contention domains of a flow routed
    /// over `route_i` with the flows `keep` admits, oriented from that flow
    /// and sorted by priority rank. Each link's overlap list is merged with
    /// the previous link's, both in id order, so a partner met on
    /// consecutive links grows one domain a link at a time, and the walk
    /// needs no table over all flows.
    ///
    /// `Err` names the lowest-id partner whose shared links are not one
    /// contiguous, identically ordered run: one met on links that are not
    /// adjacent on `route_i` (it then has two entries in `found`), or on
    /// adjacent links that are not adjacent on its own route.
    fn contenders(
        &self,
        route_i: &Route,
        keep: impl Fn(FlowId) -> bool,
        scratch: &mut Scratch,
    ) -> Result<(), FlowId> {
        let Scratch {
            found,
            on_prev,
            on_link,
            ..
        } = scratch;
        found.clear();
        on_prev.clear();
        let mut broken: Option<FlowId> = None;
        let mut fault = |j: FlowId| broken = Some(broken.map_or(j, |b| b.min(j)));
        for (pos_i, link) in route_i.iter().enumerate() {
            let pos_i = pos_i as u32;
            on_link.clear();
            let mut prev = 0;
            for &(j, pos_j) in &self.crossings[link.index()] {
                if !keep(j) {
                    continue;
                }
                while on_prev.get(prev).is_some_and(|&(p, _)| p < j) {
                    prev += 1;
                }
                let at = match on_prev.get(prev) {
                    Some(&(p, at)) if p == j => {
                        if !found[at as usize].1.extend(pos_i, pos_j) {
                            fault(j);
                        }
                        at
                    }
                    _ => {
                        found.push((j, ContentionDomain::at(pos_i, pos_j)));
                        found.len() as u32 - 1
                    }
                };
                on_link.push((j, at));
            }
            std::mem::swap(on_prev, on_link);
        }
        found.sort_unstable_by_key(|&(j, _)| self.rank[j.index()]);
        for pair in found.windows(2) {
            if pair[0].0 == pair[1].0 {
                fault(pair[0].0);
            }
        }
        broken.map_or(Ok(()), Err)
    }

    /// Adds `step` (wrapping, so `u32::MAX` subtracts one) to every flow
    /// id the graph stores at or above `from`. The direct sets are in rank
    /// order, so every id is compared; the add is branch-free.
    fn renumber(&mut self, from: FlowId, step: u32) {
        let shift = |f: &mut FlowId| {
            *f = FlowId::new(f.raw().wrapping_add(step * u32::from(*f >= from)));
        };
        for set in &mut self.direct {
            set.iter_mut().for_each(shift);
        }
        self.order.iter_mut().for_each(shift);
        // Overlap lists are in id order: the shifted ids form a suffix.
        for on_link in &mut self.crossings {
            let start = on_link.partition_point(|&(f, _)| f < from);
            on_link[start..].iter_mut().for_each(|(f, _)| shift(f));
        }
    }

    /// Inserts the (already routed) flow `id` of `system` into the graph,
    /// renumbering every flow at `id` or above one up, and touches only the
    /// direct sets the new flow joins: the exact inverse of
    /// [`InterferenceGraph::remove_flow`].
    ///
    /// `system` must be the *post-insertion* system, e.g. the one
    /// [`System::add_flow`] (which appends, so `id` is the old flow count)
    /// or [`System::insert_flow`] leaves. Only pairs involving the new flow
    /// can gain a contention domain, so the work is proportional to the
    /// flows sharing links with the new route — not to the whole system,
    /// which is what makes incremental admission queries cheap — plus, when
    /// `id` is not the last id, one renumbering pass.
    ///
    /// Returns every flow whose direct or indirect interference set may
    /// have changed, `id` included, and the flows whose direct set gained
    /// `id`, each with its position there (see [`GraphDelta`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonContiguousContentionDomain`] if the new
    /// route violates the contiguity assumption against an existing one.
    /// The graph is left untouched in that case.
    ///
    /// # Panics
    ///
    /// Panics if `id` is past the flow count or `system` does not have
    /// exactly one more flow than the graph covers.
    pub fn add_flow(&mut self, system: &System, id: FlowId) -> Result<GraphDelta, ModelError> {
        let n_old = self.len();
        assert!(
            id.index() <= n_old,
            "added flow must take an id up to the flow count"
        );
        assert_eq!(
            system.flows().len(),
            n_old + 1,
            "system must already contain the added flow"
        );
        let up = |f: FlowId| {
            if f >= id {
                FlowId::new(f.raw() + 1)
            } else {
                f
            }
        };
        // All fallible work happens before any mutation, so a contiguity
        // violation leaves the graph exactly as it was. The walk reads the
        // overlap table under the old ids.
        let route = system.route(id);
        let mut scratch = Scratch::default();
        self.contenders(route, |_| true, &mut scratch)
            .map_err(|g| ModelError::NonContiguousContentionDomain {
                first: up(g).min(id),
                second: up(g).max(id),
            })?;
        if id.index() < n_old {
            self.renumber(id, 1);
        }
        // Every flow the new one outranks moves one rank down.
        self.rank.insert(id.index(), 0);
        let p_new = system.flow(id).priority();
        let r_new = self
            .order
            .partition_point(|f| system.flow(*f).priority() < p_new);
        self.order.insert(r_new, id);
        for f in &self.order[r_new + 1..] {
            self.rank[f.index()] += 1;
        }
        let r_new = r_new as u32;
        self.rank[id.index()] = r_new;
        for (pos, link) in route.iter().enumerate() {
            let on_link = &mut self.crossings[link.index()];
            let at = on_link.partition_point(|&(f, _)| f < id);
            on_link.insert(at, (id, pos as u32));
        }
        // Existing flows whose direct set gains the new flow take it at its
        // priority rank; the rest go into the new flow's own direct set, in
        // the rank order the walk left them in.
        self.direct.insert(id.index(), Vec::new());
        self.domains.insert(id.index(), Vec::new());
        let mut gained: Vec<(FlowId, usize)> = Vec::new();
        for &(g, cd) in &scratch.found {
            let g = up(g);
            if r_new < self.rank[g.index()] {
                let set = &self.direct[g.index()];
                let at = set.partition_point(|f| self.rank[f.index()] < r_new);
                self.direct[g.index()].insert(at, id);
                self.domains[g.index()].insert(at, cd.reversed());
                gained.push((g, at));
            } else {
                self.direct[id.index()].push(g);
                self.domains[id.index()].push(cd);
            }
        }
        // A flow's indirect set depends on its own direct set and on the
        // direct sets of its direct interferers, so the sets that may change
        // are the new flow's, those of the flows that gained it, and those
        // of their victims — their lower-priority contenders, read off the
        // overlap table.
        let mut affected = vec![id];
        for &(g, _) in &gained {
            affected.push(g);
            let r_g = self.rank[g.index()];
            for link in system.route(g).iter() {
                let on_link = self.crossings[link.index()].iter().map(|&(a, _)| a);
                affected.extend(on_link.filter(|a| r_g < self.rank[a.index()]));
            }
        }
        affected.sort_unstable();
        affected.dedup();
        gained.sort_unstable();
        Ok(GraphDelta {
            affected,
            reshaped: gained,
        })
    }

    /// Removes flow `id` from the graph, renumbering every larger id one
    /// down (flow ids are dense indices) and dropping it from the direct
    /// sets that held it.
    ///
    /// `system` must be the *post-removal* system, e.g. the one returned by
    /// [`System::without_flow`]. The flows that lose the removed one, and
    /// their victims, are found through the overlap table, so apart from
    /// one binary search per link the work is proportional to them, plus,
    /// when `id` is not the last id, one renumbering pass.
    ///
    /// Returns every remaining flow — under its **new** id, in ascending
    /// order — whose direct or indirect interference set changed, and the
    /// flows whose direct set held `id`, each with the position it had
    /// there (see [`GraphDelta`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds or `system` does not have exactly
    /// one flow fewer than the graph covers.
    pub fn remove_flow(&mut self, system: &System, id: FlowId) -> GraphDelta {
        let n_old = self.len();
        assert!(id.index() < n_old, "no such flow to remove");
        assert_eq!(
            system.flows().len(),
            n_old - 1,
            "system must no longer contain the removed flow"
        );
        let down = |f: FlowId| {
            if f > id {
                FlowId::new(f.raw() - 1)
            } else {
                f
            }
        };
        // Under the old ids: the flows sharing a link with the removed one
        // and ranked below it lose a direct interferer.
        let r_gone = self.rank[id.index()];
        let mut losers: Vec<FlowId> = Vec::new();
        for on_link in &mut self.crossings {
            let at = on_link.partition_point(|&(f, _)| f < id);
            if on_link.get(at).is_some_and(|&(f, _)| f == id) {
                on_link.remove(at);
                let below = on_link.iter().map(|&(f, _)| f);
                losers.extend(below.filter(|f| self.rank[f.index()] > r_gone));
            }
        }
        losers.sort_unstable();
        losers.dedup();
        // Their victims reach the removed flow through a loser, so it was in
        // each victim's S^D (the victim is a loser too) or in its S^I:
        // either way the victim's sets change.
        let mut affected = losers.clone();
        for &j in &losers {
            let r_j = self.rank[j.index()];
            for link in system.route(down(j)).iter() {
                let on_link = self.crossings[link.index()].iter().map(|&(a, _)| a);
                affected.extend(on_link.filter(|a| self.rank[a.index()] > r_j));
            }
        }
        let mut reshaped = Vec::with_capacity(losers.len());
        for &a in &losers {
            let at = find(&self.direct[a.index()], &self.rank, r_gone)
                .expect("a victim holds its direct interferer");
            self.direct[a.index()].remove(at);
            self.domains[a.index()].remove(at);
            reshaped.push((down(a), at));
        }
        // Every flow the removed one outranked moves one rank up.
        for f in &self.order[r_gone as usize + 1..] {
            self.rank[f.index()] -= 1;
        }
        self.rank.remove(id.index());
        self.order.remove(r_gone as usize);
        self.direct.remove(id.index());
        self.domains.remove(id.index());
        if id.index() + 1 < n_old {
            self.renumber(id, u32::MAX);
        }
        affected.sort_unstable();
        affected.dedup();
        GraphDelta {
            affected: affected.into_iter().map(down).collect(),
            reshaped,
        }
    }

    /// The contention domain `cd(i,j)`, oriented so that
    /// [`ContentionDomain::first_in_i`] refers to flow `i`'s route.
    ///
    /// Returns `None` for link-disjoint pairs (and for `i == j`).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn contention_domain(&self, i: FlowId, j: FlowId) -> Option<ContentionDomain> {
        let (r_i, r_j) = (self.rank[i.index()], self.rank[j.index()]);
        if r_j < r_i {
            find(&self.direct[i.index()], &self.rank, r_j).map(|e| self.domains[i.index()][e])
        } else {
            find(&self.direct[j.index()], &self.rank, r_i)
                .map(|e| self.domains[j.index()][e].reversed())
        }
    }

    /// `|cd(i,j)|`, or 0 for disjoint pairs.
    pub fn contention_len(&self, i: FlowId, j: FlowId) -> usize {
        self.contention_domain(i, j).map_or(0, |cd| cd.len())
    }

    /// `true` if flows `i` and `j` share at least one link.
    pub fn contend(&self, i: FlowId, j: FlowId) -> bool {
        self.contention_domain(i, j).is_some()
    }

    /// The direct interference set `S^D_i`, sorted from highest priority to
    /// lowest.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn direct_set(&self, i: FlowId) -> &[FlowId] {
        &self.direct[i.index()]
    }

    /// The contention domains `cd(i,j)` of the members `j` of `S^D_i`, in
    /// [`InterferenceGraph::direct_set`] order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn direct_domains(&self, i: FlowId) -> &[ContentionDomain] {
        &self.domains[i.index()]
    }

    /// The indirect interference set `S^I_i`, sorted from highest priority
    /// to lowest: the members of `S^D_j` for any `j ∈ S^D_i` that are not
    /// in `S^D_i` (τᵢ, outranked by all of them, is in none).
    ///
    /// Derived on each call, so it allocates; the analyses read `S^I_i`
    /// only through [`InterferenceGraph::partition_indirect`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn indirect_set(&self, i: FlowId) -> Vec<FlowId> {
        let direct = &self.direct[i.index()];
        let mut set: Vec<FlowId> = direct
            .iter()
            .flat_map(|j| &self.direct[j.index()])
            .copied()
            .filter(|k| find(direct, &self.rank, self.rank[k.index()]).is_none())
            .collect();
        set.sort_unstable_by_key(|k| self.rank[k.index()]);
        set.dedup();
        set
    }

    /// Partitions `S^I_i ∩ S^D_j` into the upstream set `S^upj_Ii` and the
    /// downstream set `S^downj_Ii` by comparing link positions on `routeⱼ`
    /// (the paper's §III definitions).
    ///
    /// # Panics
    ///
    /// Panics if `j ∉ S^D_i`, or in debug builds if a member cannot be
    /// classified — impossible while the contiguity invariant holds.
    pub fn partition_indirect(&self, i: FlowId, j: FlowId) -> UpDownPartition<'_> {
        let edge = find(&self.direct[i.index()], &self.rank, self.rank[j.index()])
            .expect("partition_indirect requires j ∈ S^D_i");
        let cd_ij = self.domains[i.index()][edge];
        UpDownPartition {
            graph: self,
            i,
            j,
            first: cd_ij.first_in_j(),
            last: cd_ij.last_in_j(),
        }
    }

    /// The flows routed over `link` that share it with a higher-priority
    /// flow, in ascending id order: exactly the victims `x` of the direct
    /// pairs (`y ∈ S^D_x`) whose contention domain `cd(x,y)` contains
    /// `link`. These are the flows whose buffer-aware bound reads the
    /// depth of the buffer `link` feeds.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not a link of the graph's topology.
    pub fn victims_on_link(&self, link: LinkId) -> impl Iterator<Item = FlowId> + '_ {
        let on_link = &self.crossings[link.index()];
        let top = on_link
            .iter()
            .map(|&(f, _)| f)
            .min_by_key(|f| self.rank[f.index()]);
        on_link
            .iter()
            .map(|&(f, _)| f)
            .filter(move |&f| Some(f) != top)
    }

    /// Flow ids from highest priority to lowest: the order the interference
    /// sets are sorted in, and the order a fixed-point solve
    /// settles flows in.
    pub fn priority_order(&self) -> &[FlowId] {
        &self.order
    }

    /// Number of flows covered by this graph.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// `true` if the graph covers no flows.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::flow::{Flow, FlowSet};
    use crate::ids::{NodeId, Priority};
    use crate::routing::{TableRouting, XyRouting};
    use crate::time::Cycles;
    use crate::topology::{Topology, TopologyBuilder};

    /// Three flows on a 4x1 chain: τ0 (P3) 0→3, τ1 (P1) 1→3, τ2 (P2) 2→3.
    fn chain_system() -> System {
        let topology = Topology::mesh(4, 1);
        let mk = |src: u32, dst: u32, p: u32, t: u64| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(4)
                .build()
        };
        let flows =
            FlowSet::new(vec![mk(0, 3, 3, 900), mk(1, 3, 1, 300), mk(2, 3, 2, 600)]).unwrap();
        System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap()
    }

    #[test]
    fn contention_domain_of_nested_routes() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        // τ0 (0→3) and τ1 (1→3) share r1→r2, r2→r3 and the ejection link.
        let cd = g.contention_domain(FlowId::new(0), FlowId::new(1)).unwrap();
        assert_eq!(cd.len(), 3);
        // On τ0's route those are positions 2..4 (after n0→r0, r0→r1).
        assert_eq!(cd.first_in_i(), 2);
        assert_eq!(cd.last_in_i(), 4);
        // On τ1's route they are positions 1..3 (after n1→r1).
        assert_eq!(cd.first_in_j(), 1);
        assert_eq!(cd.last_in_j(), 3);
    }

    #[test]
    fn contention_domain_orientation_swaps() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        let a = g.contention_domain(FlowId::new(0), FlowId::new(1)).unwrap();
        let b = g.contention_domain(FlowId::new(1), FlowId::new(0)).unwrap();
        assert_eq!(
            a.links(sys.route(FlowId::new(0))),
            b.links(sys.route(FlowId::new(1)))
        );
        assert_eq!(a.first_in_i(), b.first_in_j());
        assert_eq!(a.last_in_j(), b.last_in_i());
    }

    #[test]
    fn direct_sets_respect_priority() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        // τ0 has lowest priority and shares links with both others.
        assert_eq!(
            g.direct_set(FlowId::new(0)),
            &[FlowId::new(1), FlowId::new(2)]
        );
        // τ1 is highest: nothing interferes with it.
        assert!(g.direct_set(FlowId::new(1)).is_empty());
        // τ2 is interfered by τ1 only.
        assert_eq!(g.direct_set(FlowId::new(2)), &[FlowId::new(1)]);
    }

    #[test]
    fn indirect_set_empty_when_everything_is_direct() {
        let sys = chain_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        for i in 0..3 {
            assert!(g.indirect_set(FlowId::new(i)).is_empty(), "flow {i}");
        }
    }

    #[test]
    fn disjoint_flows_do_not_contend() {
        let topology = Topology::mesh(4, 4);
        let mk = |src: u32, dst: u32, p: u32| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(1000))
                .build()
        };
        // τ0 along the bottom row, τ1 along the top row.
        let flows = FlowSet::new(vec![mk(0, 3, 2), mk(12, 15, 1)]).unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let g = InterferenceGraph::new(&sys).unwrap();
        assert!(!g.contend(FlowId::new(0), FlowId::new(1)));
        assert_eq!(g.contention_len(FlowId::new(0), FlowId::new(1)), 0);
        assert!(g.direct_set(FlowId::new(0)).is_empty());
    }

    /// The didactic topology of Figure 3 (reconstructed; see DESIGN.md):
    /// routers 1..4 in a row, router 5 below 3, router 6 below 4.
    /// τ1: f→e via (6,5); τ2: a→e via (1,2,3,4,6,5); τ3: b→f via (2,3,4,6).
    fn didactic_system() -> System {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (1..=6)
            .map(|i| b.add_named_router(format!("r{i}")))
            .collect();
        let names = ["a", "b", "c", "d", "e", "f"];
        let nodes: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, n)| b.add_named_node(r[i], *n))
            .collect();
        // row links 1-2-3-4, verticals 3-5 and 4-6, bottom 5-6.
        for (x, y) in [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)] {
            b.add_duplex_router_link(r[x], r[y]);
        }
        let topo = b.build().unwrap();
        let link = |from: Endpoint, to: Endpoint| topo.find_link(from, to).unwrap();
        use crate::topology::Endpoint;
        let rt = |idx: usize| Endpoint::Router(r[idx]);
        let mut table = TableRouting::new();
        // τ1: f→e
        table.insert(
            nodes[5],
            nodes[4],
            Route::new(
                &topo,
                vec![
                    topo.injection_link(nodes[5]),
                    link(rt(5), rt(4)),
                    topo.ejection_link(nodes[4]),
                ],
            )
            .unwrap(),
        );
        // τ2: a→e via 1,2,3,4,6,5
        table.insert(
            nodes[0],
            nodes[4],
            Route::new(
                &topo,
                vec![
                    topo.injection_link(nodes[0]),
                    link(rt(0), rt(1)),
                    link(rt(1), rt(2)),
                    link(rt(2), rt(3)),
                    link(rt(3), rt(5)),
                    link(rt(5), rt(4)),
                    topo.ejection_link(nodes[4]),
                ],
            )
            .unwrap(),
        );
        // τ3: b→f via 2,3,4,6
        table.insert(
            nodes[1],
            nodes[5],
            Route::new(
                &topo,
                vec![
                    topo.injection_link(nodes[1]),
                    link(rt(1), rt(2)),
                    link(rt(2), rt(3)),
                    link(rt(3), rt(5)),
                    topo.ejection_link(nodes[5]),
                ],
            )
            .unwrap(),
        );
        let mk = |src: usize, dst: usize, p: u32, l: u32, t: u64| {
            Flow::builder(nodes[src], nodes[dst])
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(l)
                .name(format!("τ{p}"))
                .build()
        };
        let flows = FlowSet::new(vec![
            mk(5, 4, 1, 60, 200),   // τ1
            mk(0, 4, 2, 198, 4000), // τ2
            mk(1, 5, 3, 128, 6000), // τ3
        ])
        .unwrap();
        let config = NocConfig::builder()
            .buffer_depth(2)
            .link_latency(Cycles::ONE)
            .routing_latency(Cycles::ZERO)
            .virtual_channels(3)
            .build();
        System::new(topo, config, flows, &table).unwrap()
    }

    #[test]
    fn didactic_routes_and_latencies_match_table_one() {
        let sys = didactic_system();
        assert_eq!(sys.route(FlowId::new(0)).len(), 3);
        assert_eq!(sys.route(FlowId::new(1)).len(), 7);
        assert_eq!(sys.route(FlowId::new(2)).len(), 5);
        assert_eq!(sys.zero_load_latency(FlowId::new(0)), Cycles::new(62));
        assert_eq!(sys.zero_load_latency(FlowId::new(1)), Cycles::new(204));
        assert_eq!(sys.zero_load_latency(FlowId::new(2)), Cycles::new(132));
    }

    #[test]
    fn didactic_interference_structure() {
        let sys = didactic_system();
        let g = InterferenceGraph::new(&sys).unwrap();
        let (t1, t2, t3) = (FlowId::new(0), FlowId::new(1), FlowId::new(2));
        // τ3 is directly interfered with by τ2 only; τ1 is indirect.
        assert_eq!(g.direct_set(t3), &[t2]);
        assert_eq!(g.indirect_set(t3), [t1]);
        // τ2 is directly interfered with by τ1.
        assert_eq!(g.direct_set(t2), &[t1]);
        assert!(g.indirect_set(t2).is_empty());
        // |cd(3,2)| = 3 — the key quantity behind Table II.
        assert_eq!(g.contention_len(t3, t2), 3);
        // τ1's hits on τ2 land downstream of cd(3,2):
        let part = g.partition_indirect(t3, t2);
        assert_eq!(part.downstream().collect::<Vec<_>>(), vec![t1]);
        assert!(part.upstream().next().is_none());
        // τ2 suffers indirect-relevant interference relative to τ3:
        assert!(!g.partition_indirect(t3, t2).is_empty());
        assert!(g.partition_indirect(t2, t1).is_empty());
    }

    #[test]
    fn upstream_partition_detected() {
        // τ_low: n1→n3 on a 5x1 chain; τ_mid: n0→n3 (shares r1→r2,r2→r3 with
        // τ_low); τ_hi: n0→n1 — hits τ_mid on links *before* cd(low,mid).
        let topology = Topology::mesh(5, 1);
        let mk = |src: u32, dst: u32, p: u32, t: u64| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(t))
                .length_flits(4)
                .build()
        };
        let flows = FlowSet::new(vec![
            mk(1, 4, 3, 1000), // τ_low
            mk(0, 4, 2, 500),  // τ_mid: shares n0 injection? no — 0→4 shares r1..r4 with low
            mk(0, 1, 1, 100),  // τ_hi: shares r0→r1 with mid only (plus ejection at n1)
        ])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let g = InterferenceGraph::new(&sys).unwrap();
        let (low, mid, hi) = (FlowId::new(0), FlowId::new(1), FlowId::new(2));
        assert_eq!(g.direct_set(low), &[mid]);
        assert_eq!(g.indirect_set(low), [hi]);
        let part = g.partition_indirect(low, mid);
        assert_eq!(part.upstream().collect::<Vec<_>>(), vec![hi]);
        assert!(part.downstream().next().is_none());
    }

    #[test]
    fn non_contiguous_domain_rejected() {
        // Custom topology where two routes share link A, diverge, and share
        // link B again: a "braid" that violates the paper's assumption.
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..6).map(|_| b.add_router()).collect();
        let src = b.add_node(r[0]);
        let dst = b.add_node(r[5]);
        // two parallel middle paths: r1→r2→r4 and r1→r3→r4
        for (x, y) in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
            b.add_duplex_router_link(r[x], r[y]);
        }
        let topo = b.build().unwrap();
        use crate::topology::Endpoint;
        let link = |a: usize, c: usize| {
            topo.find_link(Endpoint::Router(r[a]), Endpoint::Router(r[c]))
                .unwrap()
        };
        let mk_route = |mid: usize| {
            Route::new(
                &topo,
                vec![
                    topo.injection_link(src),
                    link(0, 1),
                    link(1, mid),
                    link(mid, 4),
                    link(4, 5),
                    topo.ejection_link(dst),
                ],
            )
            .unwrap()
        };
        let route_via_2 = mk_route(2);
        let route_via_3 = mk_route(3);
        let err =
            ContentionDomain::compute(FlowId::new(0), &route_via_2, FlowId::new(1), &route_via_3)
                .unwrap_err();
        assert!(matches!(
            err,
            ModelError::NonContiguousContentionDomain { .. }
        ));
    }

    #[test]
    fn non_contiguous_systems_rejected_by_build_and_delta() {
        // The braid above, with two flows taking different middle paths.
        use crate::topology::Endpoint;
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..6).map(|_| b.add_router()).collect();
        let (src_a, src_b) = (b.add_node(r[0]), b.add_node(r[0]));
        let (dst_a, dst_b) = (b.add_node(r[5]), b.add_node(r[5]));
        for (x, y) in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
            b.add_duplex_router_link(r[x], r[y]);
        }
        let topo = b.build().unwrap();
        let link = |a: usize, c: usize| {
            topo.find_link(Endpoint::Router(r[a]), Endpoint::Router(r[c]))
                .unwrap()
        };
        let mut table = TableRouting::new();
        for (src, dst, mid) in [(src_a, dst_a, 2), (src_b, dst_b, 3)] {
            let links = vec![
                topo.injection_link(src),
                link(0, 1),
                link(1, mid),
                link(mid, 4),
                link(4, 5),
                topo.ejection_link(dst),
            ];
            table.insert(src, dst, Route::new(&topo, links).unwrap());
        }
        let mk = |src, dst, p| {
            Flow::builder(src, dst)
                .priority(Priority::new(p))
                .period(Cycles::new(1000))
                .build()
        };
        let both = FlowSet::new(vec![mk(src_a, dst_a, 2), mk(src_b, dst_b, 1)]).unwrap();
        let sys = System::new(topo.clone(), NocConfig::default(), both, &table).unwrap();
        assert!(matches!(
            InterferenceGraph::new(&sys),
            Err(ModelError::NonContiguousContentionDomain { first, second })
                if (first, second) == (FlowId::new(0), FlowId::new(1))
        ));
        // An admission that would braid fails and leaves the graph as it was.
        let one = FlowSet::new(vec![mk(src_a, dst_a, 2)]).unwrap();
        let one = System::new(topo, NocConfig::default(), one, &table).unwrap();
        let mut g = InterferenceGraph::new(&one).unwrap();
        let before = g.clone();
        let (next, id) = one.with_added_flow(mk(src_b, dst_b, 1), &table).unwrap();
        assert!(matches!(
            g.add_flow(&next, id),
            Err(ModelError::NonContiguousContentionDomain { .. })
        ));
        assert_eq!(g, before);
        // So does one inserted ahead of the existing flow, naming the pair
        // by their ids after the insertion.
        let mut ahead = one.clone();
        let route = next.route(id).clone();
        ahead
            .insert_flow(FlowId::new(0), mk(src_b, dst_b, 1), route)
            .unwrap();
        assert!(matches!(
            g.add_flow(&ahead, FlowId::new(0)),
            Err(ModelError::NonContiguousContentionDomain { first, second })
                if (first, second) == (FlowId::new(0), FlowId::new(1))
        ));
        assert_eq!(g, before);
    }

    /// Six flows criss-crossing a 4×4 mesh — enough contention to exercise
    /// direct, indirect, and disjoint pairs at once.
    fn mesh_specs() -> Vec<(u32, u32, u32, u64)> {
        vec![
            (0, 15, 1, 1000),
            (4, 7, 2, 1500),
            (12, 3, 3, 2000),
            (1, 13, 4, 2500),
            (5, 6, 5, 3000),
            (0, 10, 6, 3500),
        ]
    }

    fn mesh_flow((src, dst, p, t): (u32, u32, u32, u64)) -> Flow {
        Flow::builder(NodeId::new(src), NodeId::new(dst))
            .priority(Priority::new(p))
            .period(Cycles::new(t))
            .length_flits(8)
            .build()
    }

    #[test]
    fn incremental_add_matches_from_scratch() {
        let topology = Topology::mesh(4, 4);
        let specs = mesh_specs();
        let flows = FlowSet::new(vec![mesh_flow(specs[0])]).unwrap();
        let mut sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let mut g = InterferenceGraph::new(&sys).unwrap();
        for &spec in &specs[1..] {
            let (next, id) = sys.with_added_flow(mesh_flow(spec), &XyRouting).unwrap();
            let delta = g.add_flow(&next, id).unwrap();
            assert!(delta.affected.contains(&id));
            sys = next;
            assert_eq!(g, InterferenceGraph::new(&sys).unwrap());
        }
    }

    #[test]
    fn incremental_remove_matches_from_scratch() {
        let topology = Topology::mesh(4, 4);
        let flows = FlowSet::new(mesh_specs().into_iter().map(mesh_flow).collect()).unwrap();
        let mut sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let mut g = InterferenceGraph::new(&sys).unwrap();
        // Remove from the middle, the front, and the middle again so the
        // id renumbering gets exercised in every position.
        for victim in [2u32, 0, 2] {
            let id = FlowId::new(victim);
            sys = sys.without_flow(id).unwrap();
            g.remove_flow(&sys, id);
            assert_eq!(g, InterferenceGraph::new(&sys).unwrap());
        }
    }

    #[test]
    fn remove_then_re_add_round_trips() {
        let full = didactic_system();
        let g_full = InterferenceGraph::new(&full).unwrap();
        // Drop the last flow (τ3), then grow the graph back. `add_flow`
        // only needs the post-addition system, and removing the *last* id
        // leaves every other id unchanged — so `full` itself is that system.
        let last = FlowId::new(2);
        let smaller = full.without_flow(last).unwrap();
        let mut g = g_full.clone();
        g.remove_flow(&smaller, last);
        assert_eq!(g, InterferenceGraph::new(&smaller).unwrap());
        let delta = g.add_flow(&full, last).unwrap();
        assert!(delta.affected.contains(&last));
        assert_eq!(g, g_full);
    }

    /// Removing any flow and inserting it back at its own id, with its own
    /// route, are exact inverses, and every intermediate graph equals the
    /// one built from scratch, priority order included.
    #[test]
    fn insertion_at_any_id_inverts_removal() {
        let topology = Topology::mesh(4, 4);
        let flows = FlowSet::new(mesh_specs().into_iter().map(mesh_flow).collect()).unwrap();
        let full = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let g_full = InterferenceGraph::new(&full).unwrap();
        assert_eq!(g_full.priority_order(), full.flows().ids_by_priority());
        for gone in full.flows().ids() {
            let mut sys = full.clone();
            let (flow, route) = sys.remove_flow(gone).unwrap();
            let mut g = g_full.clone();
            let lost = g.remove_flow(&sys, gone);
            let scratch = InterferenceGraph::new(&sys).unwrap();
            assert_eq!(g, scratch, "removing {gone}");
            assert_eq!(g.priority_order(), sys.flows().ids_by_priority());
            sys.insert_flow(gone, flow, route).unwrap();
            let gained = g.add_flow(&sys, gone).unwrap();
            assert_eq!(g, g_full, "re-inserting {gone}");
            // The flows whose sets changed are the same both ways, bar the
            // inserted flow itself, and so are the reshaped flows and the
            // positions of `gone` in their direct sets.
            let up = |f: FlowId| {
                if f >= gone {
                    FlowId::new(f.raw() + 1)
                } else {
                    f
                }
            };
            let affected: Vec<FlowId> = lost.affected.iter().copied().map(up).collect();
            assert!(
                affected.iter().all(|f| gained.affected.contains(f)),
                "{gone}: {affected:?} ⊄ {:?}",
                gained.affected
            );
            let reshaped: Vec<(FlowId, usize)> =
                lost.reshaped.iter().map(|&(f, at)| (up(f), at)).collect();
            assert_eq!(reshaped, gained.reshaped, "{gone}");
        }
    }

    #[test]
    fn opposite_direction_links_do_not_contend() {
        let topology = Topology::mesh(3, 1);
        let mk = |src: u32, dst: u32, p: u32| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(1000))
                .build()
        };
        let flows = FlowSet::new(vec![mk(0, 2, 1), mk(2, 0, 2)]).unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let g = InterferenceGraph::new(&sys).unwrap();
        assert!(!g.contend(FlowId::new(0), FlowId::new(1)));
    }
}
