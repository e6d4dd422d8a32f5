//! The complete analysable system: topology + configuration + routed flows.

use crate::config::{BufferMap, NocConfig};
use crate::error::ModelError;
use crate::flow::{Flow, FlowSet};
use crate::ids::{FlowId, LinkId, RouterId};
use crate::route::Route;
use crate::routing::RoutingAlgorithm;
use crate::time::Cycles;
use crate::topology::{Endpoint, Topology};

/// A fully-routed system instance: the inputs every response-time analysis
/// and the simulator consume.
///
/// Constructing a `System` runs all cross-entity validation: every flow is
/// routed, routes are checked for connectivity, and the configured virtual
/// channel count (if any) is checked against the number of priority levels.
///
/// # Examples
///
/// ```
/// # use noc_model::prelude::*;
/// let topology = Topology::mesh(4, 4);
/// let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(15))
///     .priority(Priority::new(1))
///     .period(Cycles::new(1_000))
///     .length_flits(20)
///     .build()])?;
/// let system = System::new(topology, NocConfig::default(), flows, &XyRouting)?;
/// // Eq. 1: C = routl·(|route|−1) + linkl·|route| + linkl·(L−1)
/// //          = 0·7 + 1·8 + 1·19 = 27 with the default config.
/// assert_eq!(system.zero_load_latency(FlowId::new(0)), Cycles::new(27));
/// # Ok::<(), noc_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    topology: Topology,
    config: NocConfig,
    flows: FlowSet,
    routes: Vec<Route>,
    /// Per-router buffer depths. Invariant: `buffers.default_depth()`
    /// always equals `config.buffer_depth()`, so the scalar accessor and
    /// the map never disagree about un-overridden routers.
    buffers: BufferMap,
}

impl System {
    /// Routes every flow over `topology` and validates the assembled system.
    ///
    /// # Errors
    ///
    /// Propagates routing failures ([`ModelError::NoRoute`],
    /// [`ModelError::BrokenRoute`], [`ModelError::UnknownNode`]) and returns
    /// [`ModelError::InsufficientVirtualChannels`] when a fixed `vc(Ξ)` is
    /// smaller than the number of priority levels.
    pub fn new(
        topology: Topology,
        config: NocConfig,
        flows: FlowSet,
        routing: &dyn RoutingAlgorithm,
    ) -> Result<System, ModelError> {
        if let Some(vcs) = config.virtual_channels() {
            let required = flows.priority_levels();
            if vcs < required {
                return Err(ModelError::InsufficientVirtualChannels {
                    available: vcs,
                    required,
                });
            }
        }
        let mut routes = Vec::with_capacity(flows.len());
        for (_, flow) in flows.iter() {
            routes.push(routing.route(&topology, flow.source(), flow.dest())?);
        }
        let buffers = BufferMap::uniform(config.buffer_depth());
        Ok(System {
            topology,
            config,
            flows,
            routes,
            buffers,
        })
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The homogeneous router configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The flow set Γ.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// The flow τᵢ.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn flow(&self, id: FlowId) -> &Flow {
        self.flows.flow(id)
    }

    /// The route of flow `id` (the paper's `routeᵢ`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn route(&self, id: FlowId) -> &Route {
        &self.routes[id.index()]
    }

    /// Number of virtual channels each router must provide: the explicit
    /// `vc(Ξ)` if configured, otherwise the number of priority levels.
    pub fn virtual_channels(&self) -> u32 {
        self.config
            .virtual_channels()
            .unwrap_or_else(|| self.flows.priority_levels())
    }

    /// Maximum zero-load network latency Cᵢ — Equation 1 of the paper:
    ///
    /// ```text
    /// Cᵢ = routl(Ξ)·(|routeᵢ|−1) + linkl(Ξ)·|routeᵢ| + linkl(Ξ)·(Lᵢ−1)
    /// ```
    ///
    /// the header's per-hop routing and link traversal time plus one link
    /// time per payload flit pipelined behind it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn zero_load_latency(&self, id: FlowId) -> Cycles {
        let flow = self.flows.flow(id);
        let route_len = self.routes[id.index()].len() as u64;
        let routl = self.config.routing_latency();
        let linkl = self.config.link_latency();
        routl * (route_len - 1) + linkl * route_len + linkl * u64::from(flow.length_flits() - 1)
    }

    /// Returns a copy of the system extended with one additional flow,
    /// routed by `routing`, together with the [`FlowId`] it was assigned:
    /// a clone plus [`System::add_flow`].
    ///
    /// # Errors
    ///
    /// The conditions of [`System::add_flow`].
    pub fn with_added_flow(
        &self,
        flow: Flow,
        routing: &dyn RoutingAlgorithm,
    ) -> Result<(System, FlowId), ModelError> {
        let mut copy = self.clone();
        let id = copy.add_flow(flow, routing)?;
        Ok((copy, id))
    }

    /// Admits one more flow, routed by `routing`, and returns the
    /// [`FlowId`] it was assigned.
    ///
    /// The new flow is appended, so every existing flow keeps its id — the
    /// delta the incremental analysis context in `noc-analysis` exploits:
    /// only interference pairs involving the new flow can change.
    ///
    /// # Errors
    ///
    /// Propagates routing failures, plus the conditions of
    /// [`System::insert_flow`]. The system is unchanged on error.
    pub fn add_flow(
        &mut self,
        flow: Flow,
        routing: &dyn RoutingAlgorithm,
    ) -> Result<FlowId, ModelError> {
        let route = routing.route(&self.topology, flow.source(), flow.dest())?;
        let id = FlowId::new(self.routes.len() as u32);
        self.insert_flow(id, flow, route)?;
        Ok(id)
    }

    /// Inserts `flow`, routed over `route`, at `id`, renumbering every flow
    /// at `id` or above one up: the exact inverse of
    /// [`System::remove_flow`]. Costs O(n) moves and copies no other flow
    /// or route.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFlow`] / [`ModelError::DuplicatePriority`] as
    /// [`FlowSet::insert`] reports them, [`ModelError::BrokenRoute`] if
    /// `route` does not run from the flow's source to its destination, and
    /// [`ModelError::InsufficientVirtualChannels`] when a fixed `vc(Ξ)`
    /// cannot accommodate the extra priority level. The system is unchanged
    /// on error.
    pub fn insert_flow(&mut self, id: FlowId, flow: Flow, route: Route) -> Result<(), ModelError> {
        let (source, dest) = (flow.source(), flow.dest());
        self.flows.insert(id, flow)?;
        let joins = self.topology.link(route.first()).source() == Endpoint::Node(source)
            && self.topology.link(route.last()).target() == Endpoint::Node(dest);
        if !joins {
            self.flows.remove(id).expect("just inserted");
            return Err(ModelError::BrokenRoute {
                detail: format!("route {route} does not run from {source} to {dest}"),
            });
        }
        if let Some(vcs) = self.config.virtual_channels() {
            let required = self.flows.priority_levels();
            if vcs < required {
                self.flows.remove(id).expect("just inserted");
                return Err(ModelError::InsufficientVirtualChannels {
                    available: vcs,
                    required,
                });
            }
        }
        self.routes.insert(id.index(), route);
        Ok(())
    }

    /// Returns a copy of the system without flow `id`: a clone plus
    /// [`System::remove_flow`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFlow`] if `id` is out of bounds.
    pub fn without_flow(&self, id: FlowId) -> Result<System, ModelError> {
        let mut copy = self.clone();
        copy.remove_flow(id)?;
        Ok(copy)
    }

    /// Retires flow `id` and returns it with its route, which
    /// [`System::insert_flow`] takes back.
    ///
    /// Flow ids are dense indices, so every flow with a larger id is
    /// renumbered one down; routes and all other structure are preserved
    /// verbatim (no re-routing happens).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFlow`] if `id` is out of bounds; the
    /// system is unchanged then.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<(Flow, Route), ModelError> {
        let flow = self.flows.remove(id)?;
        Ok((flow, self.routes.remove(id.index())))
    }

    /// Returns a copy with the explicit virtual-channel count replaced
    /// (`None` restores automatic sizing to the number of priority levels).
    /// Useful before admission what-ifs against systems built with a tight
    /// fixed `vc(Ξ)`, which would otherwise reject any added flow.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientVirtualChannels`] if a fixed count
    /// is below the current number of priority levels.
    pub fn with_virtual_channels(&self, vcs: Option<u32>) -> Result<System, ModelError> {
        if let Some(v) = vcs {
            let required = self.flows.priority_levels();
            if v < required {
                return Err(ModelError::InsufficientVirtualChannels {
                    available: v,
                    required,
                });
            }
        }
        let mut copy = self.clone();
        copy.config = self.config.with_virtual_channels(vcs);
        Ok(copy)
    }

    /// Returns a copy of the system with a different *homogeneous* per-VC
    /// buffer depth — everything else (routes included) is preserved, and
    /// any per-router overrides are cleared. This is the lever the
    /// buffer-aware analysis studies.
    #[must_use]
    pub fn with_buffer_depth(&self, depth: u32) -> System {
        System {
            topology: self.topology.clone(),
            config: self.config.with_buffer_depth(depth),
            flows: self.flows.clone(),
            routes: self.routes.clone(),
            buffers: BufferMap::uniform(depth),
        }
    }

    /// The per-router buffer-depth map `buf(ξ)`.
    pub fn buffer_map(&self) -> &BufferMap {
        &self.buffers
    }

    /// Returns a copy of the system with its whole buffer configuration
    /// replaced by `map` — the heterogeneous counterpart of
    /// [`System::with_buffer_depth`]. The scalar `config.buffer_depth()` is
    /// kept in sync with the map's default depth, so uniform maps are
    /// bit-identical to the scalar path everywhere.
    ///
    /// # Panics
    ///
    /// Panics if the map carries an override for a router this topology
    /// does not have.
    #[must_use]
    pub fn with_buffer_map(&self, map: BufferMap) -> System {
        assert!(
            map.override_span() <= self.topology.router_count(),
            "buffer map overrides {} routers but the topology has {}",
            map.override_span(),
            self.topology.router_count()
        );
        System {
            topology: self.topology.clone(),
            config: self.config.with_buffer_depth(map.default_depth()),
            flows: self.flows.clone(),
            routes: self.routes.clone(),
            buffers: map,
        }
    }

    /// Returns a copy with the per-VC buffer depth of one router overridden
    /// — the heterogeneous generalisation the paper's per-router `buf(ξᵢ)`
    /// notation (§II) allows. The buffer-aware analysis and the simulator
    /// honour per-router depths; Equation 6 generalises to
    /// `bi(i,j) = linkl(Ξ) · Σ_{λ ∈ cd(i,j)} buf(target(λ))`.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of bounds or `depth` is zero.
    #[must_use]
    pub fn with_router_buffer_depth(&self, router: RouterId, depth: u32) -> System {
        let mut copy = self.clone();
        copy.set_router_buffer_depth(router, Some(depth));
        copy
    }

    /// Overrides (`Some`) or clears (`None`) the per-VC buffer depth of one
    /// router in place, and returns the override it replaced. Passing that
    /// back restores a [`BufferMap`] equal to the one before.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of bounds or `depth` is `Some(0)`.
    pub fn set_router_buffer_depth(&mut self, router: RouterId, depth: Option<u32>) -> Option<u32> {
        assert!(
            router.index() < self.topology.router_count(),
            "unknown router {router}"
        );
        let previous = self.buffers.override_at(router);
        match depth {
            Some(depth) => self.buffers.set_router_depth(router, depth),
            None => self.buffers.clear_router_depth(router),
        }
        previous
    }

    /// The per-VC buffer depth at `router`: the override if one was set,
    /// otherwise the homogeneous `buf(Ξ)`.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of bounds.
    pub fn buffer_depth_at(&self, router: RouterId) -> u32 {
        assert!(
            router.index() < self.topology.router_count(),
            "unknown router {router}"
        );
        self.buffers.depth_at(router)
    }

    /// The buffer depth of the input VC fed by `link` — the depth at the
    /// link's target router, or `None` for ejection links (nodes sink flits
    /// without buffering limits).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of bounds.
    pub fn buffer_depth_of_link(&self, link: LinkId) -> Option<u32> {
        match self.topology.link(link).target() {
            Endpoint::Router(r) => Some(self.buffer_depth_at(r)),
            Endpoint::Node(_) => None,
        }
    }

    /// `true` if any router's buffer depth differs from the homogeneous
    /// configuration.
    pub fn has_heterogeneous_buffers(&self) -> bool {
        !self.buffers.is_uniform()
    }

    /// Returns a copy of the system with every period and deadline scaled
    /// by the rational factor `numerator / denominator` (clamped below at
    /// one cycle). Routes and packet lengths are preserved.
    ///
    /// Scaling periods *down* (factor < 1) increases load; the breakdown
    /// utilities in `noc-experiments` binary-search this factor to measure
    /// how much headroom an analysis certifies.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFlow`] if scaling degenerates a flow
    /// (cannot happen for factors ≥ 1/T of every flow, since values clamp
    /// at one cycle and D ≤ T is preserved by uniform scaling).
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero.
    pub fn with_scaled_periods(
        &self,
        numerator: u64,
        denominator: u64,
    ) -> Result<System, ModelError> {
        assert!(denominator > 0, "scaling denominator must be positive");
        let scale = |c: Cycles| {
            let v = (u128::from(c.as_u64()) * u128::from(numerator)) / u128::from(denominator);
            Cycles::new(u64::try_from(v).unwrap_or(u64::MAX).max(1))
        };
        let scaled: Vec<Flow> = self
            .flows
            .iter()
            .map(|(_, f)| {
                let mut b = Flow::builder(f.source(), f.dest())
                    .priority(f.priority())
                    .period(scale(f.period()))
                    .deadline(scale(f.deadline()))
                    .jitter(f.jitter())
                    .burst(f.burst())
                    .length_flits(f.length_flits());
                if let Some(name) = f.name() {
                    b = b.name(name);
                }
                b.build()
            })
            .collect();
        Ok(System {
            topology: self.topology.clone(),
            config: self.config,
            flows: FlowSet::new(scaled)?,
            routes: self.routes.clone(),
            buffers: self.buffers.clone(),
        })
    }

    /// Total utilisation Σ Cᵢ/Tᵢ of the flow set (a scalar health metric
    /// for generated workloads; not used by the analyses themselves).
    pub fn total_utilisation(&self) -> f64 {
        self.flows
            .iter()
            .map(|(id, f)| self.zero_load_latency(id).as_u64() as f64 / f.period().as_u64() as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, Priority};
    use crate::routing::XyRouting;

    fn simple_system(length_flits: u32, buffer: u32) -> System {
        let topology = Topology::mesh(4, 1);
        let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(3))
            .priority(Priority::new(1))
            .period(Cycles::new(100_000))
            .length_flits(length_flits)
            .build()])
        .unwrap();
        let config = NocConfig::builder()
            .buffer_depth(buffer)
            .link_latency(Cycles::ONE)
            .routing_latency(Cycles::ZERO)
            .build();
        System::new(topology, config, flows, &XyRouting).unwrap()
    }

    #[test]
    fn zero_load_latency_matches_equation_one() {
        // |route| = 5, L = 60 → C = 0·4 + 1·5 + 1·59 = 64.
        let sys = simple_system(60, 2);
        assert_eq!(sys.zero_load_latency(FlowId::new(0)), Cycles::new(64));
    }

    #[test]
    fn zero_load_latency_with_routing_latency() {
        let topology = Topology::mesh(4, 1);
        let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(3))
            .priority(Priority::new(1))
            .period(Cycles::new(100_000))
            .length_flits(60)
            .build()])
        .unwrap();
        let config = NocConfig::builder().routing_latency(Cycles::ONE).build();
        let sys = System::new(topology, config, flows, &XyRouting).unwrap();
        // C = 1·4 + 1·5 + 1·59 = 68.
        assert_eq!(sys.zero_load_latency(FlowId::new(0)), Cycles::new(68));
    }

    #[test]
    fn zero_load_latency_single_flit() {
        let sys = simple_system(1, 2);
        // header only: C = |route| = 5.
        assert_eq!(sys.zero_load_latency(FlowId::new(0)), Cycles::new(5));
    }

    #[test]
    fn didactic_zero_load_values() {
        // Table I of the paper: C = L + |route| − 1 with routl=0, linkl=1.
        for (l, route_len, expect) in [(60u32, 3usize, 62u64), (198, 7, 204), (128, 5, 132)] {
            // emulate with a straight mesh of the right length
            let topology = Topology::mesh(route_len as u16 - 1, 1);
            let flows = FlowSet::new(vec![Flow::builder(
                NodeId::new(0),
                NodeId::new(route_len as u32 - 2),
            )
            .priority(Priority::new(1))
            .period(Cycles::new(1_000_000))
            .length_flits(l)
            .build()])
            .unwrap();
            let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
            assert_eq!(sys.route(FlowId::new(0)).len(), route_len);
            assert_eq!(sys.zero_load_latency(FlowId::new(0)), Cycles::new(expect));
        }
    }

    #[test]
    fn insufficient_vcs_rejected() {
        let topology = Topology::mesh(2, 1);
        let flows = FlowSet::new(vec![
            Flow::builder(NodeId::new(0), NodeId::new(1))
                .priority(Priority::new(1))
                .period(Cycles::new(100))
                .build(),
            Flow::builder(NodeId::new(1), NodeId::new(0))
                .priority(Priority::new(2))
                .period(Cycles::new(100))
                .build(),
        ])
        .unwrap();
        let config = NocConfig::builder().virtual_channels(1).build();
        assert!(matches!(
            System::new(topology, config, flows, &XyRouting),
            Err(ModelError::InsufficientVirtualChannels {
                available: 1,
                required: 2
            })
        ));
    }

    #[test]
    fn auto_vcs_equals_priority_levels() {
        let sys = simple_system(10, 2);
        assert_eq!(sys.virtual_channels(), 1);
    }

    #[test]
    fn with_buffer_depth_keeps_routes() {
        let sys = simple_system(10, 2);
        let big = sys.with_buffer_depth(100);
        assert_eq!(big.config().buffer_depth(), 100);
        assert_eq!(big.route(FlowId::new(0)), sys.route(FlowId::new(0)));
        assert_eq!(
            big.zero_load_latency(FlowId::new(0)),
            sys.zero_load_latency(FlowId::new(0))
        );
    }

    #[test]
    fn buffer_map_round_trips_through_system() {
        use crate::config::BufferMap;
        use crate::ids::RouterId;
        let sys = simple_system(10, 2);
        assert!(sys.buffer_map().is_uniform());
        assert_eq!(sys.buffer_map().default_depth(), 2);

        let map = BufferMap::uniform(4).with_router_depth(RouterId::new(1), 9);
        let hetero = sys.with_buffer_map(map.clone());
        assert_eq!(hetero.buffer_map(), &map);
        // The scalar accessor stays in sync with the map's default.
        assert_eq!(hetero.config().buffer_depth(), 4);
        assert_eq!(hetero.buffer_depth_at(RouterId::new(0)), 4);
        assert_eq!(hetero.buffer_depth_at(RouterId::new(1)), 9);
        assert!(hetero.has_heterogeneous_buffers());
        // Routes and latencies are untouched by buffer reconfiguration.
        assert_eq!(hetero.route(FlowId::new(0)), sys.route(FlowId::new(0)));
        assert_eq!(
            hetero.zero_load_latency(FlowId::new(0)),
            sys.zero_load_latency(FlowId::new(0))
        );
    }

    #[test]
    fn uniform_buffer_map_equals_scalar_path() {
        use crate::config::BufferMap;
        use crate::ids::RouterId;
        let sys = simple_system(10, 2);
        let via_map = sys.with_buffer_map(BufferMap::uniform(7));
        let via_scalar = sys.with_buffer_depth(7);
        assert_eq!(via_map.config(), via_scalar.config());
        assert!(!via_map.has_heterogeneous_buffers());
        for r in 0..4 {
            assert_eq!(
                via_map.buffer_depth_at(RouterId::new(r)),
                via_scalar.buffer_depth_at(RouterId::new(r))
            );
        }
    }

    #[test]
    #[should_panic(expected = "buffer map overrides")]
    fn oversized_buffer_map_rejected() {
        use crate::config::BufferMap;
        use crate::ids::RouterId;
        let sys = simple_system(10, 2);
        let _ = sys.with_buffer_map(BufferMap::uniform(2).with_router_depth(RouterId::new(99), 3));
    }

    #[test]
    fn scaled_periods_preserve_burst() {
        let topology = Topology::mesh(2, 1);
        let flows = FlowSet::new(vec![Flow::builder(NodeId::new(0), NodeId::new(1))
            .priority(Priority::new(1))
            .period(Cycles::new(1_000))
            .burst(3)
            .length_flits(8)
            .build()])
        .unwrap();
        let sys = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let scaled = sys.with_scaled_periods(2, 1).unwrap();
        assert_eq!(scaled.flow(FlowId::new(0)).burst(), 3);
    }

    /// The in-place deltas undo each other exactly, and their copying
    /// forms agree with them.
    #[test]
    fn in_place_deltas_invert_each_other() {
        let topology = Topology::mesh(3, 3);
        let mk = |src: u32, dst: u32, p: u32| {
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(p))
                .period(Cycles::new(1_000))
                .length_flits(4)
                .build()
        };
        let flows = FlowSet::new(vec![mk(0, 8, 2), mk(2, 6, 1), mk(3, 5, 3)]).unwrap();
        let config = NocConfig::builder().virtual_channels(4).build();
        let base = System::new(topology, config, flows, &XyRouting).unwrap();
        let same = |a: &System, b: &System| {
            a.flows() == b.flows()
                && a.flows().ids().all(|id| a.route(id) == b.route(id))
                && a.buffer_map() == b.buffer_map()
        };

        let mut sys = base.clone();
        let (flow, route) = sys.remove_flow(FlowId::new(1)).unwrap();
        assert!(same(&sys, &base.without_flow(FlowId::new(1)).unwrap()));
        // A route that does not join the flow's endpoints is refused.
        let wrong = sys.route(FlowId::new(0)).clone();
        assert!(matches!(
            sys.insert_flow(FlowId::new(1), flow.clone(), wrong),
            Err(ModelError::BrokenRoute { .. })
        ));
        sys.insert_flow(FlowId::new(1), flow, route).unwrap();
        assert!(same(&sys, &base));

        let id = sys.add_flow(mk(1, 7, 4), &XyRouting).unwrap();
        assert!(same(
            &sys,
            &base.with_added_flow(mk(1, 7, 4), &XyRouting).unwrap().0
        ));
        // A fifth priority level does not fit four virtual channels.
        let before = sys.clone();
        assert!(matches!(
            sys.add_flow(mk(4, 5, 5), &XyRouting),
            Err(ModelError::InsufficientVirtualChannels { .. })
        ));
        assert!(same(&sys, &before));
        sys.remove_flow(id).unwrap();
        assert!(same(&sys, &base));

        let router = RouterId::new(4);
        assert_eq!(sys.set_router_buffer_depth(router, Some(9)), None);
        assert_eq!(
            sys.buffer_map(),
            base.with_router_buffer_depth(router, 9).buffer_map()
        );
        assert_eq!(sys.set_router_buffer_depth(router, Some(3)), Some(9));
        assert_eq!(sys.set_router_buffer_depth(router, None), Some(3));
        assert!(same(&sys, &base));
    }

    #[test]
    fn utilisation_is_positive_and_small_here() {
        let sys = simple_system(10, 2);
        let u = sys.total_utilisation();
        assert!(u > 0.0 && u < 0.01, "u = {u}");
    }

    #[test]
    fn scaled_periods_change_load_not_structure() {
        let sys = simple_system(10, 2);
        let id = FlowId::new(0);
        let halved = sys.with_scaled_periods(1, 2).unwrap();
        assert_eq!(halved.flow(id).period(), Cycles::new(50_000));
        assert_eq!(halved.flow(id).deadline(), Cycles::new(50_000));
        assert_eq!(halved.route(id), sys.route(id));
        assert_eq!(halved.zero_load_latency(id), sys.zero_load_latency(id));
        let doubled = sys.with_scaled_periods(2, 1).unwrap();
        assert_eq!(doubled.flow(id).period(), Cycles::new(200_000));
        // Utilisation scales inversely with the factor.
        assert!(halved.total_utilisation() > sys.total_utilisation());
        assert!(doubled.total_utilisation() < sys.total_utilisation());
    }

    #[test]
    fn scaling_clamps_at_one_cycle() {
        let sys = simple_system(10, 2);
        let tiny = sys.with_scaled_periods(1, u64::MAX).unwrap();
        assert_eq!(tiny.flow(FlowId::new(0)).period(), Cycles::ONE);
        assert_eq!(tiny.flow(FlowId::new(0)).deadline(), Cycles::ONE);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = simple_system(10, 2).with_scaled_periods(1, 0);
    }
}
