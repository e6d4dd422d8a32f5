//! The didactic example of the paper (§V, Figure 3, Tables I–II).
//!
//! Three flows on a six-router custom topology, chosen by the authors to
//! expose downstream indirect interference of τ1 over τ3 through τ2. The
//! figure's geometry is partially garbled in the available text, so the
//! routes here were reverse-engineered under the constraints that fix every
//! number in Tables I and II (see `DESIGN.md`):
//!
//! ```text
//!   a    b    c    d            τ1: f→e        via r6, r5   (|route| = 3)
//!   r1 ─ r2 ─ r3 ─ r4           τ2: a→e via r1,r2,r3,r4,r6,r5 (|route| = 7)
//!             │    │            τ3: b→f        via r2,r3,r4,r6 (|route| = 5)
//!             r5 ─ r6
//!             e    f
//! ```
//!
//! Key structural facts (asserted by tests across the workspace):
//! `cd(3,2) = {r2→r3, r3→r4, r4→r6}` (3 links), `cd(1,2) = {r6→r5, r5→e}`
//! downstream of it on τ2's route, and `cd(1,3) = ∅`.

use noc_model::prelude::*;

/// Flow parameters of Table I.
///
/// `(priority, length flits, period, deadline, jitter)` for τ1, τ2, τ3; the
/// zero-load latencies C of Table I (62, 204, 132) follow from Equation 1
/// with `routl = 0`, `linkl = 1`.
pub const TABLE_I: [(u32, u32, u64, u64, u64); 3] = [
    (1, 60, 200, 200, 0),
    (2, 198, 4000, 4000, 0),
    (3, 128, 6000, 6000, 0),
];

/// Identifiers of the three flows in the returned [`System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DidacticFlows {
    /// τ1 — highest priority, f→e.
    pub tau1: FlowId,
    /// τ2 — middle priority, a→e.
    pub tau2: FlowId,
    /// τ3 — lowest priority, b→f; the victim of MPB.
    pub tau3: FlowId,
}

impl DidacticFlows {
    /// The fixed flow identifiers (insertion order τ1, τ2, τ3).
    pub const fn ids() -> DidacticFlows {
        DidacticFlows {
            tau1: FlowId::new(0),
            tau2: FlowId::new(1),
            tau3: FlowId::new(2),
        }
    }
}

/// Builds the didactic system with the given per-VC buffer depth
/// (`b = buf(Ξ)`, the subscript of Table II).
///
/// # Examples
///
/// ```
/// # use noc_workload::didactic;
/// let system = didactic::system(2);
/// let flows = didactic::DidacticFlows::ids();
/// assert_eq!(system.zero_load_latency(flows.tau2).as_u64(), 204);
/// ```
///
/// # Panics
///
/// Panics if `buffer_depth` is zero (forwarded from
/// `NocConfig` validation).
pub fn system(buffer_depth: u32) -> System {
    system_with_routing(buffer_depth).0
}

/// [`system`], but also returning the routing table the system was built
/// with — needed by callers that keep routing *new* flows over the didactic
/// topology afterwards (e.g. admission what-ifs in `noc-serve`). The table
/// routes the three `(source, dest)` pairs of Table I.
pub fn system_with_routing(buffer_depth: u32) -> (System, TableRouting) {
    let mut b = TopologyBuilder::new();
    let r: Vec<RouterId> = (1..=6)
        .map(|i| b.add_named_router(format!("r{i}")))
        .collect();
    let node_names = ["a", "b", "c", "d", "e", "f"];
    let nodes: Vec<NodeId> = node_names
        .iter()
        .enumerate()
        .map(|(i, n)| b.add_named_node(r[i], *n))
        .collect();
    // Top row r1-r2-r3-r4; verticals r3-r5 and r4-r6; bottom row r5-r6.
    for (x, y) in [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)] {
        b.add_duplex_router_link(r[x], r[y]);
    }
    let topo = b.build().expect("didactic topology is well-formed");

    let rl = |a: usize, c: usize| {
        topo.find_link(Endpoint::Router(r[a]), Endpoint::Router(r[c]))
            .expect("didactic link exists")
    };
    let route = |links: Vec<LinkId>| Route::new(&topo, links).expect("didactic route is connected");

    let mut table = TableRouting::new();
    // τ1: f→e via r6, r5.
    table.insert(
        nodes[5],
        nodes[4],
        route(vec![
            topo.injection_link(nodes[5]),
            rl(5, 4),
            topo.ejection_link(nodes[4]),
        ]),
    );
    // τ2: a→e via r1, r2, r3, r4, r6, r5.
    table.insert(
        nodes[0],
        nodes[4],
        route(vec![
            topo.injection_link(nodes[0]),
            rl(0, 1),
            rl(1, 2),
            rl(2, 3),
            rl(3, 5),
            rl(5, 4),
            topo.ejection_link(nodes[4]),
        ]),
    );
    // τ3: b→f via r2, r3, r4, r6.
    table.insert(
        nodes[1],
        nodes[5],
        route(vec![
            topo.injection_link(nodes[1]),
            rl(1, 2),
            rl(2, 3),
            rl(3, 5),
            topo.ejection_link(nodes[5]),
        ]),
    );

    let endpoints = [(5usize, 4usize), (0, 4), (1, 5)];
    let flows = FlowSet::new(
        TABLE_I
            .iter()
            .zip(endpoints)
            .map(|(&(p, l, t, d, j), (src, dst))| {
                Flow::builder(nodes[src], nodes[dst])
                    .priority(Priority::new(p))
                    .period(Cycles::new(t))
                    .deadline(Cycles::new(d))
                    .jitter(Cycles::new(j))
                    .length_flits(l)
                    .name(format!("τ{p}"))
                    .build()
            })
            .collect(),
    )
    .expect("didactic flow set is valid");

    let config = NocConfig::builder()
        .buffer_depth(buffer_depth)
        .link_latency(Cycles::ONE)
        .routing_latency(Cycles::ZERO)
        .virtual_channels(3)
        .build();
    let system = System::new(topo, config, flows, &table).expect("didactic system is valid");
    (system, table)
}

/// Identifiers of the three flows of the Figure 2 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure2Flows {
    /// τk — highest priority, c→d; the downstream hitter.
    pub tau_k: FlowId,
    /// τj — middle priority, a→d; the flow whose flits get buffered.
    pub tau_j: FlowId,
    /// τi — lowest priority, a→c; the MPB victim.
    pub tau_i: FlowId,
}

impl Figure2Flows {
    /// The fixed flow identifiers (insertion order τk, τj, τi).
    pub const fn ids() -> Figure2Flows {
        Figure2Flows {
            tau_k: FlowId::new(0),
            tau_j: FlowId::new(1),
            tau_i: FlowId::new(2),
        }
    }
}

/// Builds the four-router chain of the paper's **Figure 2** — the scenario
/// used to *explain* the MPB mechanism (§IV):
///
/// ```text
///   a    b    c    d        τj: a→d (all four routers)
///   r1 ─ r2 ─ r3 ─ r4       τi: a→c (shares r1..r3 with τj)
///                           τk: c→d (hits τj on r3→r4, after cd(i,j))
/// ```
///
/// τi and τj are released together from node a; τk's packets (small, much
/// more frequent) repeatedly stall τj downstream, and each stall lets τi
/// advance past buffered τj flits that then hit it again.
///
/// # Examples
///
/// ```
/// # use noc_workload::didactic;
/// let system = didactic::figure2_system(4);
/// assert_eq!(system.flows().len(), 3);
/// ```
pub fn figure2_system(buffer_depth: u32) -> System {
    let mut b = TopologyBuilder::new();
    let r: Vec<RouterId> = (1..=4)
        .map(|i| b.add_named_router(format!("r{i}")))
        .collect();
    let node_names = ["a", "b", "c", "d"];
    let nodes: Vec<NodeId> = node_names
        .iter()
        .enumerate()
        .map(|(i, n)| b.add_named_node(r[i], *n))
        .collect();
    for x in 0..3 {
        b.add_duplex_router_link(r[x], r[x + 1]);
    }
    let topo = b.build().expect("figure-2 topology is well-formed");
    let rl = |a: usize, c: usize| {
        topo.find_link(Endpoint::Router(r[a]), Endpoint::Router(r[c]))
            .expect("figure-2 link exists")
    };
    let route = |links: Vec<LinkId>| Route::new(&topo, links).expect("figure-2 route connected");
    let mut table = TableRouting::new();
    // τk: c→d.
    table.insert(
        nodes[2],
        nodes[3],
        route(vec![
            topo.injection_link(nodes[2]),
            rl(2, 3),
            topo.ejection_link(nodes[3]),
        ]),
    );
    // τj: a→d.
    table.insert(
        nodes[0],
        nodes[3],
        route(vec![
            topo.injection_link(nodes[0]),
            rl(0, 1),
            rl(1, 2),
            rl(2, 3),
            topo.ejection_link(nodes[3]),
        ]),
    );
    // τi: a→c.
    table.insert(
        nodes[0],
        nodes[2],
        route(vec![
            topo.injection_link(nodes[0]),
            rl(0, 1),
            rl(1, 2),
            topo.ejection_link(nodes[2]),
        ]),
    );
    // τi and τj have much larger periods and longer packets than τk (§IV).
    let params: [(usize, usize, u32, u32, u64, &str); 3] = [
        (2, 3, 1, 8, 40, "τk"),
        (0, 3, 2, 60, 2000, "τj"),
        (0, 2, 3, 40, 3000, "τi"),
    ];
    let flows = FlowSet::new(
        params
            .iter()
            .map(|&(src, dst, p, l, t, name)| {
                Flow::builder(nodes[src], nodes[dst])
                    .priority(Priority::new(p))
                    .period(Cycles::new(t))
                    .length_flits(l)
                    .name(name)
                    .build()
            })
            .collect(),
    )
    .expect("figure-2 flow set is valid");
    let config = NocConfig::builder()
        .buffer_depth(buffer_depth)
        .link_latency(Cycles::ONE)
        .routing_latency(Cycles::ZERO)
        .virtual_channels(3)
        .build();
    System::new(topo, config, flows, &table).expect("figure-2 system is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::contention::InterferenceGraph;

    #[test]
    fn table_one_zero_load_latencies() {
        let sys = system(2);
        let f = DidacticFlows::ids();
        assert_eq!(sys.zero_load_latency(f.tau1), Cycles::new(62));
        assert_eq!(sys.zero_load_latency(f.tau2), Cycles::new(204));
        assert_eq!(sys.zero_load_latency(f.tau3), Cycles::new(132));
    }

    #[test]
    fn route_lengths_match_table_one() {
        let sys = system(2);
        let f = DidacticFlows::ids();
        assert_eq!(sys.route(f.tau1).len(), 3);
        assert_eq!(sys.route(f.tau2).len(), 7);
        assert_eq!(sys.route(f.tau3).len(), 5);
    }

    #[test]
    fn interference_structure_is_the_mpb_scenario() {
        let sys = system(2);
        let f = DidacticFlows::ids();
        let g = InterferenceGraph::new(&sys).unwrap();
        assert_eq!(g.direct_set(f.tau3), &[f.tau2]);
        assert_eq!(g.indirect_set(f.tau3), [f.tau1]);
        assert_eq!(g.contention_len(f.tau3, f.tau2), 3);
        let part = g.partition_indirect(f.tau3, f.tau2);
        assert_eq!(part.downstream().collect::<Vec<_>>(), vec![f.tau1]);
        assert!(part.upstream().next().is_none());
        // τ1 and τ3 never share a link.
        assert!(!g.contend(f.tau1, f.tau3));
    }

    #[test]
    fn buffer_depth_parameterises_config() {
        assert_eq!(system(2).config().buffer_depth(), 2);
        assert_eq!(system(10).config().buffer_depth(), 10);
    }

    #[test]
    fn figure2_interference_structure() {
        let sys = figure2_system(4);
        let f = Figure2Flows::ids();
        let g = InterferenceGraph::new(&sys).unwrap();
        // τi is directly interfered with by τj only; τk is indirect.
        assert_eq!(g.direct_set(f.tau_i), &[f.tau_j]);
        assert_eq!(g.indirect_set(f.tau_i), [f.tau_k]);
        assert!(!g.contend(f.tau_i, f.tau_k));
        // τk hits τj downstream of cd(i,j): the MPB trigger of Figure 2.
        let part = g.partition_indirect(f.tau_i, f.tau_j);
        assert_eq!(part.downstream().collect::<Vec<_>>(), vec![f.tau_k]);
        assert!(part.upstream().next().is_none());
        // cd(i,j) covers the three links a→r1, r1→r2, r2→r3.
        assert_eq!(g.contention_len(f.tau_i, f.tau_j), 3);
    }

    #[test]
    fn figure2_zero_load_latencies() {
        let sys = figure2_system(4);
        let f = Figure2Flows::ids();
        assert_eq!(sys.zero_load_latency(f.tau_k), Cycles::new(10));
        assert_eq!(sys.zero_load_latency(f.tau_j), Cycles::new(64));
        assert_eq!(sys.zero_load_latency(f.tau_i), Cycles::new(43));
    }
}
