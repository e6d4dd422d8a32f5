//! Real-time traffic flows and flow sets.
//!
//! A flow τᵢ = (Pᵢ, Cᵢ, Tᵢ, Dᵢ, Jᵢ, πˢᵢ, πᵈᵢ) releases a potentially
//! unbounded sequence of packets of at most `Lᵢ` flits, no closer together
//! than the period `Tᵢ`, each of which must reach the destination within the
//! deadline `Dᵢ ≤ Tᵢ`. The basic network latency Cᵢ is *derived* (Equation 1)
//! from the packet length and the route, so it lives on
//! [`System`](crate::system::System) rather than here.

use std::fmt;

use crate::arrival::LeakyBucket;
use crate::error::ModelError;
use crate::ids::{FlowId, NodeId, Priority};
use crate::time::Cycles;

/// A periodic or sporadic real-time traffic flow.
///
/// Construct flows with [`Flow::builder`]; identifiers are assigned by the
/// [`FlowSet`] in insertion order.
///
/// # Examples
///
/// ```
/// # use noc_model::flow::Flow;
/// # use noc_model::ids::{NodeId, Priority};
/// # use noc_model::time::Cycles;
/// let flow = Flow::builder(NodeId::new(0), NodeId::new(5))
///     .priority(Priority::new(2))
///     .length_flits(128)
///     .period(Cycles::new(6_000))
///     .build();
/// assert_eq!(flow.deadline(), Cycles::new(6_000)); // D defaults to T
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    priority: Priority,
    period: Cycles,
    deadline: Cycles,
    jitter: Cycles,
    burst: u32,
    length_flits: u32,
    source: NodeId,
    dest: NodeId,
    name: Option<String>,
}

impl Flow {
    /// Starts building a flow from `source` to `dest`.
    pub fn builder(source: NodeId, dest: NodeId) -> FlowBuilder {
        FlowBuilder {
            flow: Flow {
                priority: Priority::HIGHEST,
                period: Cycles::new(1),
                deadline: Cycles::ZERO, // sentinel: defaults to period
                jitter: Cycles::ZERO,
                burst: 0,
                length_flits: 1,
                source,
                dest,
                name: None,
            },
            deadline_set: false,
        }
    }

    /// Fixed priority Pᵢ (1 = highest).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Minimum packet inter-release time Tᵢ.
    pub fn period(&self) -> Cycles {
        self.period
    }

    /// Relative deadline Dᵢ (≤ Tᵢ).
    pub fn deadline(&self) -> Cycles {
        self.deadline
    }

    /// Release jitter Jᵢ.
    pub fn jitter(&self) -> Cycles {
        self.jitter
    }

    /// Burst allowance σᵢ: how many packets beyond the periodic pattern the
    /// flow may release at once (0 = the paper's strictly periodic model).
    pub fn burst(&self) -> u32 {
        self.burst
    }

    /// The flow's release model as an arrival curve: a [`LeakyBucket`] over
    /// (Tᵢ, Jᵢ, σᵢ). With σᵢ = 0 this is bit-identical to the paper's
    /// periodic-with-jitter curve ([`crate::arrival::PeriodicWithJitter`]) —
    /// the analyses consume this and nothing else about the release model.
    pub fn arrival_curve(&self) -> LeakyBucket {
        LeakyBucket::new(self.period, self.jitter, self.burst)
    }

    /// Maximum packet length Lᵢ in flits (header included).
    pub fn length_flits(&self) -> u32 {
        self.length_flits
    }

    /// Source node πˢᵢ.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Destination node πᵈᵢ.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Optional human-readable name (e.g. `"τ1"` or `"front-camera"`).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    fn validate(&self, id: FlowId) -> Result<(), ModelError> {
        let fail = |reason: &str| {
            Err(ModelError::InvalidFlow {
                flow: id,
                reason: reason.into(),
            })
        };
        if self.period.is_zero() {
            return fail("period must be positive");
        }
        if self.deadline.is_zero() {
            return fail("deadline must be positive");
        }
        if self.deadline > self.period {
            return fail("constrained deadlines required (D ≤ T)");
        }
        if self.length_flits == 0 {
            return fail("packet length must be at least one flit");
        }
        if self.source == self.dest {
            return fail("source and destination must differ");
        }
        Ok(())
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            write!(f, "{name}")?;
        } else {
            write!(f, "flow")?;
        }
        write!(
            f,
            "({}, L={}, T={}, D={}, J={}",
            self.priority, self.length_flits, self.period, self.deadline, self.jitter,
        )?;
        if self.burst > 0 {
            write!(f, ", σ={}", self.burst)?;
        }
        write!(f, ", {}→{})", self.source, self.dest)
    }
}

/// Builder for [`Flow`] ([C-BUILDER], non-consuming terminal).
#[derive(Debug, Clone)]
pub struct FlowBuilder {
    flow: Flow,
    deadline_set: bool,
}

impl FlowBuilder {
    /// Sets the fixed priority (1 = highest). Defaults to 1.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.flow.priority = priority;
        self
    }

    /// Sets the period Tᵢ. Defaults to 1 cycle.
    pub fn period(mut self, period: Cycles) -> Self {
        self.flow.period = period;
        self
    }

    /// Sets the relative deadline Dᵢ. Defaults to the period.
    pub fn deadline(mut self, deadline: Cycles) -> Self {
        self.flow.deadline = deadline;
        self.deadline_set = true;
        self
    }

    /// Sets the release jitter Jᵢ. Defaults to zero.
    pub fn jitter(mut self, jitter: Cycles) -> Self {
        self.flow.jitter = jitter;
        self
    }

    /// Sets the burst allowance σᵢ (extra packets releasable at once on top
    /// of the periodic pattern). Defaults to zero — the paper's model.
    pub fn burst(mut self, burst: u32) -> Self {
        self.flow.burst = burst;
        self
    }

    /// Sets the maximum packet length Lᵢ in flits. Defaults to 1.
    pub fn length_flits(mut self, flits: u32) -> Self {
        self.flow.length_flits = flits;
        self
    }

    /// Assigns a human-readable name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.flow.name = Some(name.into());
        self
    }

    /// Finalises the flow. Validation happens when the flow is added to a
    /// [`FlowSet`].
    pub fn build(mut self) -> Flow {
        if !self.deadline_set {
            self.flow.deadline = self.flow.period;
        }
        self.flow
    }
}

/// An ordered set Γ of flows with distinct priorities.
///
/// `FlowSet` is the validated collection handed to
/// [`System`](crate::system::System): flows are indexed by [`FlowId`] in
/// insertion order, and [`FlowSet::new`] enforces per-flow sanity (positive
/// period, D ≤ T, non-empty packets, source ≠ destination) plus global
/// priority uniqueness, which the priority-preemptive VC model requires.
///
/// # Examples
///
/// ```
/// # use noc_model::flow::{Flow, FlowSet};
/// # use noc_model::ids::{NodeId, Priority};
/// # use noc_model::time::Cycles;
/// let flows = FlowSet::new(vec![
///     Flow::builder(NodeId::new(0), NodeId::new(1))
///         .priority(Priority::new(1))
///         .period(Cycles::new(100))
///         .build(),
///     Flow::builder(NodeId::new(1), NodeId::new(0))
///         .priority(Priority::new(2))
///         .period(Cycles::new(200))
///         .build(),
/// ])?;
/// assert_eq!(flows.len(), 2);
/// # Ok::<(), noc_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSet {
    flows: Vec<Flow>,
}

impl FlowSet {
    /// Validates and wraps a list of flows.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFlow`] for malformed flows and
    /// [`ModelError::DuplicatePriority`] when two flows share a priority.
    pub fn new(flows: Vec<Flow>) -> Result<FlowSet, ModelError> {
        for (i, f) in flows.iter().enumerate() {
            f.validate(FlowId::new(i as u32))?;
        }
        let mut by_prio: Vec<(u32, usize)> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| (f.priority.level(), i))
            .collect();
        by_prio.sort_unstable();
        for w in by_prio.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(ModelError::DuplicatePriority {
                    first: FlowId::new(w[0].1 as u32),
                    second: FlowId::new(w[1].1 as u32),
                    level: w[0].0,
                });
            }
        }
        Ok(FlowSet { flows })
    }

    /// Inserts `flow` at `id`, renumbering every flow at `id` or above one
    /// up, under the checks of [`FlowSet::new`]: the result is the set
    /// [`FlowSet::new`] would build from the flows in their new order. The
    /// exact inverse of [`FlowSet::remove`]. O(n), copying no flow.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFlow`] for a malformed flow or an `id` past the
    /// end, and [`ModelError::DuplicatePriority`] (naming both flows by
    /// their ids after the insertion) when the priority is taken. The set
    /// is unchanged on error.
    pub fn insert(&mut self, id: FlowId, flow: Flow) -> Result<(), ModelError> {
        let at = id.index();
        if at > self.flows.len() {
            return Err(ModelError::InvalidFlow {
                flow: id,
                reason: format!("no position to insert at (set has {})", self.flows.len()),
            });
        }
        flow.validate(id)?;
        if let Some(clash) = self.flows.iter().position(|f| f.priority == flow.priority) {
            let clash = clash + usize::from(clash >= at);
            return Err(ModelError::DuplicatePriority {
                first: FlowId::new(clash.min(at) as u32),
                second: FlowId::new(clash.max(at) as u32),
                level: flow.priority.level(),
            });
        }
        self.flows.insert(at, flow);
        Ok(())
    }

    /// Removes and returns the flow `id`, renumbering every larger id one
    /// down.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFlow`] if `id` is out of bounds; the set
    /// is unchanged then.
    pub fn remove(&mut self, id: FlowId) -> Result<Flow, ModelError> {
        if id.index() >= self.flows.len() {
            return Err(ModelError::InvalidFlow {
                flow: id,
                reason: format!("no such flow to remove (set has {})", self.flows.len()),
            });
        }
        Ok(self.flows.remove(id.index()))
    }

    /// Number of flows n = |Γ|.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` if the set contains no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn flow(&self, id: FlowId) -> &Flow {
        &self.flows[id.index()]
    }

    /// Returns the flow for `id`, or `None` if out of bounds.
    pub fn get(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(id.index())
    }

    /// Iterates over `(FlowId, &Flow)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &Flow)> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| (FlowId::new(i as u32), f))
    }

    /// All flow identifiers in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        (0..self.flows.len() as u32).map(FlowId::new)
    }

    /// Flow identifiers sorted from highest priority (P=1) to lowest.
    pub fn ids_by_priority(&self) -> Vec<FlowId> {
        let mut ids: Vec<FlowId> = self.ids().collect();
        ids.sort_by_key(|&id| self.flow(id).priority());
        ids
    }

    /// Number of distinct priority levels (equals [`FlowSet::len`] thanks to
    /// uniqueness validation).
    pub fn priority_levels(&self) -> u32 {
        self.flows.len() as u32
    }
}

impl<'a> IntoIterator for &'a FlowSet {
    type Item = (FlowId, &'a Flow);
    type IntoIter = Box<dyn Iterator<Item = (FlowId, &'a Flow)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(prio: u32, period: u64) -> Flow {
        Flow::builder(NodeId::new(0), NodeId::new(1))
            .priority(Priority::new(prio))
            .period(Cycles::new(period))
            .length_flits(8)
            .build()
    }

    #[test]
    fn builder_defaults() {
        let f = Flow::builder(NodeId::new(2), NodeId::new(3)).build();
        assert_eq!(f.priority(), Priority::HIGHEST);
        assert_eq!(f.period(), Cycles::new(1));
        assert_eq!(f.deadline(), Cycles::new(1));
        assert_eq!(f.jitter(), Cycles::ZERO);
        assert_eq!(f.length_flits(), 1);
        assert_eq!(f.name(), None);
    }

    #[test]
    fn deadline_defaults_to_period_but_can_differ() {
        let f = flow(1, 500);
        assert_eq!(f.deadline(), Cycles::new(500));
        let g = Flow::builder(NodeId::new(0), NodeId::new(1))
            .period(Cycles::new(500))
            .deadline(Cycles::new(300))
            .build();
        assert_eq!(g.deadline(), Cycles::new(300));
    }

    #[test]
    fn flowset_assigns_ids_in_order() {
        let set = FlowSet::new(vec![flow(3, 100), flow(1, 50), flow(2, 75)]).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.flow(FlowId::new(0)).priority(), Priority::new(3));
        assert_eq!(
            set.ids_by_priority(),
            vec![FlowId::new(1), FlowId::new(2), FlowId::new(0)]
        );
        assert_eq!(set.priority_levels(), 3);
        assert!(set.get(FlowId::new(9)).is_none());
    }

    #[test]
    fn flowset_rejects_duplicate_priority() {
        let err = FlowSet::new(vec![flow(1, 100), flow(1, 200)]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::DuplicatePriority { level: 1, .. }
        ));
    }

    #[test]
    fn flowset_rejects_deadline_greater_than_period() {
        let bad = Flow::builder(NodeId::new(0), NodeId::new(1))
            .period(Cycles::new(100))
            .deadline(Cycles::new(150))
            .build();
        let err = FlowSet::new(vec![bad]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidFlow { .. }));
    }

    #[test]
    fn flowset_rejects_zero_length_packet() {
        let bad = Flow::builder(NodeId::new(0), NodeId::new(1))
            .period(Cycles::new(10))
            .length_flits(0)
            .build();
        assert!(FlowSet::new(vec![bad]).is_err());
    }

    #[test]
    fn flowset_rejects_local_flow() {
        let bad = Flow::builder(NodeId::new(4), NodeId::new(4))
            .period(Cycles::new(10))
            .build();
        assert!(FlowSet::new(vec![bad]).is_err());
    }

    #[test]
    fn flowset_rejects_zero_period() {
        let bad = Flow::builder(NodeId::new(0), NodeId::new(1))
            .period(Cycles::ZERO)
            .build();
        assert!(FlowSet::new(vec![bad]).is_err());
    }

    #[test]
    fn display_includes_parameters() {
        let f = Flow::builder(NodeId::new(0), NodeId::new(1))
            .priority(Priority::new(2))
            .period(Cycles::new(4000))
            .length_flits(198)
            .name("τ2")
            .build();
        let s = f.to_string();
        assert!(s.contains("τ2"));
        assert!(s.contains("L=198"));
        assert!(s.contains("P2"));
    }

    #[test]
    fn burst_defaults_to_zero_and_round_trips() {
        let f = flow(1, 100);
        assert_eq!(f.burst(), 0);
        let g = Flow::builder(NodeId::new(0), NodeId::new(1))
            .period(Cycles::new(100))
            .burst(3)
            .build();
        assert_eq!(g.burst(), 3);
        assert!(g.to_string().contains("σ=3"));
        assert!(FlowSet::new(vec![g]).is_ok());
    }

    #[test]
    fn arrival_curve_reflects_flow_parameters() {
        use crate::arrival::ArrivalCurve;
        let f = Flow::builder(NodeId::new(0), NodeId::new(1))
            .period(Cycles::new(200))
            .jitter(Cycles::new(20))
            .burst(2)
            .build();
        let curve = f.arrival_curve();
        assert_eq!(curve.period(), Cycles::new(200));
        assert_eq!(curve.jitter(), Cycles::new(20));
        assert_eq!(curve.burst(), 2);
        // ⌈(181 + 20)/200⌉ + 2 = 2 + 2.
        assert_eq!(curve.max_arrivals(Cycles::new(181)), 4);
    }

    #[test]
    fn flowset_iteration() {
        let set = FlowSet::new(vec![flow(1, 100), flow(2, 200)]).unwrap();
        let collected: Vec<u32> = (&set)
            .into_iter()
            .map(|(_, f)| f.priority().level())
            .collect();
        assert_eq!(collected, vec![1, 2]);
    }

    /// In-place insertion and removal agree with [`FlowSet::new`] over the
    /// same flows, errors included, and undo each other.
    #[test]
    fn insert_and_remove_match_a_rebuilt_set() {
        let flows = vec![flow(1, 100), flow(3, 300), flow(2, 200)];
        let full = FlowSet::new(flows.clone()).unwrap();
        for at in 0..flows.len() {
            let mut set = full.clone();
            let gone = set.remove(FlowId::new(at as u32)).unwrap();
            let mut rest = flows.clone();
            rest.remove(at);
            assert_eq!(set, FlowSet::new(rest.clone()).unwrap());
            // A clashing priority names both flows by their ids after the
            // insertion, as `FlowSet::new` over that order would.
            for clash_at in 0..=rest.len() {
                let mut clashing = rest.clone();
                clashing.insert(clash_at, flow(rest[0].priority().level(), 50));
                let mut probe = set.clone();
                let err = probe.insert(FlowId::new(clash_at as u32), clashing[clash_at].clone());
                assert_eq!(err.unwrap_err(), FlowSet::new(clashing).unwrap_err());
                assert_eq!(probe, set);
            }
            set.insert(FlowId::new(at as u32), gone).unwrap();
            assert_eq!(set, full);
        }
        let mut set = full.clone();
        assert!(set.insert(FlowId::new(4), flow(9, 900)).is_err());
        assert!(set.insert(FlowId::new(0), flow(9, 0)).is_err());
        assert!(set.remove(FlowId::new(3)).is_err());
        assert_eq!(set, full);
    }
}
