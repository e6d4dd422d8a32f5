//! Network configuration parameters: the homogeneous [`NocConfig`] and the
//! per-router [`BufferMap`] generalisation.

use std::fmt;

use crate::ids::RouterId;
use crate::time::Cycles;

/// Architectural parameters shared by every router of a homogeneous network:
/// the paper's `buf(Ξ)`, `vc(Ξ)`, `linkl(Ξ)` and `routl(Ξ)`.
///
/// # Examples
///
/// ```
/// # use noc_model::config::NocConfig;
/// # use noc_model::time::Cycles;
/// // The didactic example of the paper: routl = 0, linkl = 1, 2-flit buffers.
/// let cfg = NocConfig::builder()
///     .buffer_depth(2)
///     .link_latency(Cycles::new(1))
///     .routing_latency(Cycles::ZERO)
///     .build();
/// assert_eq!(cfg.buffer_depth(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NocConfig {
    buffer_depth: u32,
    link_latency: Cycles,
    routing_latency: Cycles,
    virtual_channels: Option<u32>,
}

impl NocConfig {
    /// Starts building a configuration. Defaults: 2-flit buffers,
    /// `linkl = 1`, `routl = 0`, virtual channels sized automatically to the
    /// number of priority levels in the flow set.
    pub fn builder() -> NocConfigBuilder {
        NocConfigBuilder {
            config: NocConfig::default(),
        }
    }

    /// FIFO buffer depth per virtual channel, in flits — the paper's
    /// `buf(Ξ)`.
    ///
    /// Depths of **at least 2** keep the cycle-accurate simulator inside
    /// Equation 1's streaming assumption; see
    /// [`NocConfigBuilder::buffer_depth`] for the fidelity precondition.
    pub fn buffer_depth(&self) -> u32 {
        self.buffer_depth
    }

    /// Time for a router to transmit one flit over a link — `linkl(Ξ)`.
    pub fn link_latency(&self) -> Cycles {
        self.link_latency
    }

    /// Time to route a header flit at a router — `routl(Ξ)`.
    pub fn routing_latency(&self) -> Cycles {
        self.routing_latency
    }

    /// Explicitly configured number of virtual channels per router
    /// (`vc(Ξ)`), or `None` when sized automatically.
    pub fn virtual_channels(&self) -> Option<u32> {
        self.virtual_channels
    }

    /// Returns a copy of this configuration with a different buffer depth —
    /// the knob the IBN analysis is sensitive to.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: u32) -> NocConfig {
        self.buffer_depth = depth;
        self
    }

    /// Returns a copy with the virtual-channel count replaced; `None`
    /// restores automatic sizing to the number of priority levels.
    #[must_use]
    pub fn with_virtual_channels(mut self, vcs: Option<u32>) -> NocConfig {
        self.virtual_channels = vcs;
        self
    }
}

impl Default for NocConfig {
    /// A minimal full-throughput configuration: 2-flit buffers, single-cycle
    /// links, zero routing latency, auto-sized virtual channels.
    fn default() -> Self {
        NocConfig {
            buffer_depth: 2,
            link_latency: Cycles::ONE,
            routing_latency: Cycles::ZERO,
            virtual_channels: None,
        }
    }
}

impl fmt::Display for NocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buf={} linkl={} routl={} vc={}",
            self.buffer_depth,
            self.link_latency,
            self.routing_latency,
            match self.virtual_channels {
                Some(v) => v.to_string(),
                None => "auto".into(),
            }
        )
    }
}

/// Per-router virtual-channel buffer depths: the heterogeneous
/// generalisation of the scalar `buf(Ξ)` that the paper's per-router
/// `buf(ξᵢ)` notation (§II) allows, following the per-router/per-link
/// buffer model of Giroudot & Mifdaoui (arXiv:1911.02430).
///
/// A map is a *default depth* plus sparse per-router overrides.
/// [`BufferMap::uniform`] builds the degenerate map every pre-existing
/// call site uses — one line, and **bit-identical** to the scalar
/// `NocConfig::buffer_depth` path everywhere (pinned by the workspace's
/// degenerate-equivalence tests).
///
/// # Examples
///
/// ```
/// # use noc_model::config::BufferMap;
/// # use noc_model::ids::RouterId;
/// let map = BufferMap::uniform(4).with_router_depth(RouterId::new(2), 16);
/// assert_eq!(map.depth_at(RouterId::new(0)), 4);
/// assert_eq!(map.depth_at(RouterId::new(2)), 16);
/// assert!(!map.is_uniform());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufferMap {
    default_depth: u32,
    /// Sparse per-router overrides, indexed by router; indices beyond the
    /// vector's length mean "no override".
    overrides: Vec<Option<u32>>,
}

impl BufferMap {
    /// A map where every router has the same `depth` — the scalar
    /// `buf(Ξ)` configuration as a map.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero: wormhole switching needs at least one
    /// flit of buffering per VC.
    pub fn uniform(depth: u32) -> BufferMap {
        assert!(depth >= 1, "buffer depth must be at least one flit");
        BufferMap {
            default_depth: depth,
            overrides: Vec::new(),
        }
    }

    /// Returns a copy with `router`'s depth overridden (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_router_depth(mut self, router: RouterId, depth: u32) -> BufferMap {
        self.set_router_depth(router, depth);
        self
    }

    /// Overrides the depth of one router in place.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn set_router_depth(&mut self, router: RouterId, depth: u32) {
        assert!(depth >= 1, "buffer depth must be at least one flit");
        if self.overrides.len() <= router.index() {
            self.overrides.resize(router.index() + 1, None);
        }
        self.overrides[router.index()] = Some(depth);
    }

    /// Removes the override of one router, restoring the default depth.
    /// The override list never ends in an empty slot, so setting an
    /// override and clearing it again gives back a map equal to the first
    /// under `==`, not only in every depth.
    pub fn clear_router_depth(&mut self, router: RouterId) {
        if let Some(slot) = self.overrides.get_mut(router.index()) {
            *slot = None;
        }
        let span = self.override_span();
        self.overrides.truncate(span);
    }

    /// The depth routers without an override use.
    pub fn default_depth(&self) -> u32 {
        self.default_depth
    }

    /// The per-VC buffer depth at `router` — the override if set, the
    /// default otherwise. Total over all router indices.
    pub fn depth_at(&self, router: RouterId) -> u32 {
        self.overrides
            .get(router.index())
            .copied()
            .flatten()
            .unwrap_or(self.default_depth)
    }

    /// The explicit override at `router`, if any.
    pub fn override_at(&self, router: RouterId) -> Option<u32> {
        self.overrides.get(router.index()).copied().flatten()
    }

    /// `true` when every router resolves to the default depth (no override,
    /// or an override equal to it) — the degenerate scalar configuration.
    pub fn is_uniform(&self) -> bool {
        self.overrides
            .iter()
            .all(|o| o.is_none() || *o == Some(self.default_depth))
    }

    /// The largest router index with an explicit override, plus one — the
    /// router count a consumer must validate against its topology.
    pub fn override_span(&self) -> usize {
        self.overrides
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1)
    }
}

impl fmt::Display for BufferMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf[default={}", self.default_depth)?;
        for (i, o) in self.overrides.iter().enumerate() {
            if let Some(d) = o {
                write!(f, ", ξ{i}={d}")?;
            }
        }
        write!(f, "]")
    }
}

/// Builder for [`NocConfig`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct NocConfigBuilder {
    config: NocConfig,
}

impl NocConfigBuilder {
    /// Sets the per-VC FIFO depth in flits (`buf(Ξ)`).
    ///
    /// # Simulator-fidelity precondition: `buf(Ξ) ≥ 2`
    ///
    /// The zero-load latency of Equation 1 assumes a packet's flits stream
    /// through each router back to back. With a **1-flit** buffer the
    /// credit-based flow control of the reference router (Figure 1) cannot
    /// stream: the upstream router must wait a full credit round-trip
    /// before sending the next flit, so even an uncontended packet incurs
    /// stall bubbles beyond Equation 1. Consequences:
    ///
    /// * the **analyses** stay well-defined and safe *with respect to the
    ///   modelled router* at `buf(Ξ) = 1` (Equation 6 simply charges one
    ///   flit per contention-domain link), but
    /// * the **cycle-accurate simulator** (`noc-sim`) can observe latencies
    ///   above `R^IBN` at depth 1, because its credit stalls are real
    ///   hardware behaviour Equation 1 does not model. The end-to-end
    ///   soundness chain `R^sim ≤ R^IBN ≤ R^XLWX` is therefore only
    ///   asserted for `buf(Ξ) ≥ 2` (`tests/soundness_invariant.rs` pins
    ///   this boundary; depth 1 is exercised analytically only).
    ///
    /// Use depth 1 for analytical what-if studies; use ≥ 2 whenever
    /// simulation results are compared against bounds.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero: wormhole switching needs at least one flit
    /// of buffering per VC.
    pub fn buffer_depth(mut self, depth: u32) -> Self {
        assert!(depth >= 1, "buffer depth must be at least one flit");
        self.config.buffer_depth = depth;
        self
    }

    /// Sets the link traversal latency (`linkl(Ξ)`).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero: flits cannot cross links instantly.
    pub fn link_latency(mut self, latency: Cycles) -> Self {
        assert!(!latency.is_zero(), "link latency must be positive");
        self.config.link_latency = latency;
        self
    }

    /// Sets the header routing latency (`routl(Ξ)`); zero is allowed and is
    /// what the paper's didactic example uses.
    pub fn routing_latency(mut self, latency: Cycles) -> Self {
        self.config.routing_latency = latency;
        self
    }

    /// Fixes the number of virtual channels (`vc(Ξ)`) instead of sizing it
    /// automatically from the flow set.
    pub fn virtual_channels(mut self, vcs: u32) -> Self {
        self.config.virtual_channels = Some(vcs);
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> NocConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documentation() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.buffer_depth(), 2);
        assert_eq!(cfg.link_latency(), Cycles::ONE);
        assert_eq!(cfg.routing_latency(), Cycles::ZERO);
        assert_eq!(cfg.virtual_channels(), None);
    }

    #[test]
    fn builder_sets_all_fields() {
        let cfg = NocConfig::builder()
            .buffer_depth(10)
            .link_latency(Cycles::new(2))
            .routing_latency(Cycles::new(1))
            .virtual_channels(8)
            .build();
        assert_eq!(cfg.buffer_depth(), 10);
        assert_eq!(cfg.link_latency(), Cycles::new(2));
        assert_eq!(cfg.routing_latency(), Cycles::new(1));
        assert_eq!(cfg.virtual_channels(), Some(8));
    }

    #[test]
    fn with_buffer_depth_changes_only_depth() {
        let base = NocConfig::builder().buffer_depth(2).build();
        let big = base.with_buffer_depth(100);
        assert_eq!(big.buffer_depth(), 100);
        assert_eq!(big.link_latency(), base.link_latency());
    }

    #[test]
    #[should_panic(expected = "buffer depth")]
    fn zero_buffer_rejected() {
        let _ = NocConfig::builder().buffer_depth(0);
    }

    #[test]
    #[should_panic(expected = "link latency")]
    fn zero_link_latency_rejected() {
        let _ = NocConfig::builder().link_latency(Cycles::ZERO);
    }

    #[test]
    fn display_mentions_every_field() {
        let s = NocConfig::default().to_string();
        assert!(s.contains("buf=2"));
        assert!(s.contains("vc=auto"));
    }

    #[test]
    fn uniform_map_resolves_default_everywhere() {
        let map = BufferMap::uniform(4);
        assert!(map.is_uniform());
        assert_eq!(map.default_depth(), 4);
        assert_eq!(map.override_span(), 0);
        for r in 0..64 {
            assert_eq!(map.depth_at(RouterId::new(r)), 4);
            assert_eq!(map.override_at(RouterId::new(r)), None);
        }
    }

    #[test]
    fn overrides_set_clear_and_span() {
        let mut map = BufferMap::uniform(2).with_router_depth(RouterId::new(5), 8);
        assert!(!map.is_uniform());
        assert_eq!(map.depth_at(RouterId::new(5)), 8);
        assert_eq!(map.override_at(RouterId::new(5)), Some(8));
        assert_eq!(map.override_span(), 6);
        map.set_router_depth(RouterId::new(1), 16);
        assert_eq!(map.depth_at(RouterId::new(1)), 16);
        map.clear_router_depth(RouterId::new(5));
        assert_eq!(map.depth_at(RouterId::new(5)), 2);
        assert_eq!(map.override_span(), 2);
        // Set and cleared again, a map compares equal to what it was.
        let before = map.clone();
        map.set_router_depth(RouterId::new(9), 4);
        map.clear_router_depth(RouterId::new(9));
        assert_eq!(map, before);
        map.clear_router_depth(RouterId::new(1));
        assert_eq!(map, BufferMap::uniform(2));
    }

    #[test]
    fn override_equal_to_default_stays_uniform() {
        let map = BufferMap::uniform(4).with_router_depth(RouterId::new(3), 4);
        assert!(map.is_uniform());
        assert_eq!(map.depth_at(RouterId::new(3)), 4);
    }

    #[test]
    #[should_panic(expected = "buffer depth")]
    fn zero_depth_map_rejected() {
        let _ = BufferMap::uniform(0);
    }

    #[test]
    #[should_panic(expected = "buffer depth")]
    fn zero_depth_override_rejected() {
        let _ = BufferMap::uniform(2).with_router_depth(RouterId::new(0), 0);
    }

    #[test]
    fn buffer_map_display_lists_overrides() {
        let map = BufferMap::uniform(2).with_router_depth(RouterId::new(3), 9);
        let s = map.to_string();
        assert!(s.contains("default=2"));
        assert!(s.contains("ξ3=9"));
    }
}
