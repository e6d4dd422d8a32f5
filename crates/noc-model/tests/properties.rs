//! Property-based tests for the system model: routing, contention domains
//! and interference sets on randomly generated mesh workloads.

use noc_model::contention::InterferenceGraph;
use noc_model::prelude::*;
use proptest::prelude::*;

/// Raw flow draw: (source, dest, period, length).
type RawFlow = (u32, u32, u64, u32);

/// Strategy: a mesh size and a set of random flows on it.
fn mesh_and_flows() -> impl Strategy<Value = (u16, u16, Vec<RawFlow>)> {
    (2u16..6, 2u16..6).prop_flat_map(|(w, h)| {
        let nodes = u32::from(w) * u32::from(h);
        let flow = (0..nodes, 0..nodes, 100u64..100_000, 1u32..256);
        (Just(w), Just(h), proptest::collection::vec(flow, 1..12))
    })
}

fn build_system(w: u16, h: u16, raw: &[RawFlow]) -> Option<System> {
    let topology = Topology::mesh(w, h);
    let mut flows = Vec::new();
    for (idx, &(src, dst, period, len)) in raw.iter().enumerate() {
        if src == dst {
            return None; // invalid pick; skip this case
        }
        flows.push(
            Flow::builder(NodeId::new(src), NodeId::new(dst))
                .priority(Priority::new(idx as u32 + 1))
                .period(Cycles::new(period))
                .length_flits(len)
                .build(),
        );
    }
    let flows = FlowSet::new(flows).ok()?;
    System::new(topology, NocConfig::default(), flows, &XyRouting).ok()
}

/// Brute-force interference structure derived from routes alone: the
/// shared-link span of every ordered pair, then `S^D` and `S^I` by their
/// definitions.
struct Oracle {
    /// `(first position on routeᵢ, first position on routeⱼ, length)` of
    /// `cd(i,j)`, indexed `[i][j]`.
    spans: Vec<Vec<Option<(usize, usize, usize)>>>,
    direct: Vec<Vec<FlowId>>,
    indirect: Vec<Vec<FlowId>>,
}

impl Oracle {
    fn new(system: &System) -> Oracle {
        let ids: Vec<FlowId> = system.flows().ids().collect();
        let priority = |f: FlowId| system.flow(f).priority();
        let spans: Vec<Vec<Option<(usize, usize, usize)>>> = ids
            .iter()
            .map(|&i| {
                ids.iter()
                    .map(|&j| {
                        if i == j {
                            return None;
                        }
                        let route_j = system.route(j).links();
                        let shared: Vec<(usize, usize)> = system
                            .route(i)
                            .iter()
                            .enumerate()
                            .filter_map(|(pi, l)| {
                                route_j.iter().position(|m| m == l).map(|pj| (pi, pj))
                            })
                            .collect();
                        let &(fi, fj) = shared.first()?;
                        // XY routes always share one contiguous run.
                        for (n, &(pi, pj)) in shared.iter().enumerate() {
                            assert_eq!((pi, pj), (fi + n, fj + n), "non-contiguous XY domain");
                        }
                        Some((fi, fj, shared.len()))
                    })
                    .collect()
            })
            .collect();
        let by_priority = |mut set: Vec<FlowId>| {
            set.sort_by_key(|&f| priority(f));
            set
        };
        let direct: Vec<Vec<FlowId>> = ids
            .iter()
            .map(|&i| {
                by_priority(
                    ids.iter()
                        .copied()
                        .filter(|&j| {
                            spans[i.index()][j.index()].is_some()
                                && priority(j).is_higher_than(priority(i))
                        })
                        .collect(),
                )
            })
            .collect();
        let indirect = ids
            .iter()
            .map(|&i| {
                let d = &direct[i.index()];
                by_priority(
                    ids.iter()
                        .copied()
                        .filter(|&k| {
                            k != i
                                && !d.contains(&k)
                                && d.iter().any(|j| direct[j.index()].contains(&k))
                        })
                        .collect(),
                )
            })
            .collect();
        Oracle {
            spans,
            direct,
            indirect,
        }
    }

    /// `S^I_i ∩ S^D_j` split into the members whose domain with τⱼ lies
    /// before `cd(i,j)` on `routeⱼ` and those whose domain lies after it.
    fn partition(&self, i: FlowId, j: FlowId) -> (Vec<FlowId>, Vec<FlowId>) {
        let (_, ij_first, ij_len) = self.spans[i.index()][j.index()].unwrap();
        let (mut up, mut down) = (Vec::new(), Vec::new());
        for &k in &self.indirect[i.index()] {
            if !self.direct[j.index()].contains(&k) {
                continue;
            }
            let (jk_first, _, jk_len) = self.spans[j.index()][k.index()].unwrap();
            if jk_first + jk_len <= ij_first {
                up.push(k);
            } else if jk_first >= ij_first + ij_len {
                down.push(k);
            } else {
                panic!("cd({j},{k}) overlaps cd({i},{j}) on route_j");
            }
        }
        (up, down)
    }
}

/// Compares every accessor of `graph` with the brute-force oracle of
/// `system`.
fn check_against_oracle(graph: &InterferenceGraph, system: &System) -> Result<(), TestCaseError> {
    let oracle = Oracle::new(system);
    let ids: Vec<FlowId> = system.flows().ids().collect();
    prop_assert_eq!(graph.len(), ids.len());
    for &i in &ids {
        prop_assert_eq!(graph.direct_set(i), oracle.direct[i.index()].as_slice());
        prop_assert_eq!(graph.indirect_set(i), oracle.indirect[i.index()]);
        for (&j, &cd) in graph.direct_set(i).iter().zip(graph.direct_domains(i)) {
            prop_assert_eq!(Some(cd), graph.contention_domain(i, j));
        }
        let route_i = system.route(i);
        for &j in &ids {
            let span = oracle.spans[i.index()][j.index()];
            prop_assert_eq!(graph.contend(i, j), span.is_some());
            prop_assert_eq!(graph.contention_len(i, j), span.map_or(0, |s| s.2));
            let cd = graph.contention_domain(i, j);
            prop_assert_eq!(
                cd.map(|cd| (cd.first_in_i(), cd.first_in_j(), cd.len())),
                span
            );
            let via = oracle.indirect[i.index()]
                .iter()
                .any(|k| oracle.direct[j.index()].contains(k));
            let Some(cd) = cd else { continue };
            prop_assert_eq!(cd.last_in_i(), cd.first_in_i() + cd.len() - 1);
            prop_assert_eq!(cd.last_in_j(), cd.first_in_j() + cd.len() - 1);
            let shared: Vec<LinkId> = route_i
                .iter()
                .copied()
                .filter(|&l| system.route(j).contains(l))
                .collect();
            prop_assert_eq!(cd.links(route_i), shared.as_slice());
            if !oracle.direct[i.index()].contains(&j) {
                continue; // partitions are defined for direct edges only
            }
            let (up, down) = oracle.partition(i, j);
            let part = graph.partition_indirect(i, j);
            prop_assert_eq!(part.upstream().collect::<Vec<_>>(), up);
            prop_assert_eq!(part.downstream().collect::<Vec<_>>(), down);
            prop_assert_eq!(part.is_empty(), !via);
            for m in part {
                prop_assert_eq!(graph.direct_set(j)[m.edge], m.flow);
            }
        }
    }
    for link in system.topology().link_ids() {
        let expected: Vec<FlowId> = ids
            .iter()
            .copied()
            .filter(|&x| {
                system.route(x).contains(link)
                    && oracle.direct[x.index()]
                        .iter()
                        .any(|&y| system.route(y).contains(link))
            })
            .collect();
        prop_assert_eq!(graph.victims_on_link(link).collect::<Vec<_>>(), expected);
    }
    Ok(())
}

/// Strategy: seeded graph deltas — `(kind, a, b, priority)`, a removal of
/// flow `a mod n` when `kind == 0`, else an admission from node `a` to
/// node `b` (mod the node count) at `priority`.
fn deltas() -> impl Strategy<Value = Vec<(u32, u32, u32, u32)>> {
    proptest::collection::vec((0u32..3, 0u32..64, 0u32..64, 1u32..48), 1..8)
}

proptest! {
    /// XY route length is always the Manhattan distance plus the two node
    /// links.
    #[test]
    fn xy_route_length_is_manhattan_plus_two(
        (w, h) in (2u16..8, 2u16..8),
        src in 0u32..64,
        dst in 0u32..64,
    ) {
        let nodes = u32::from(w) * u32::from(h);
        let (src, dst) = (src % nodes, dst % nodes);
        prop_assume!(src != dst);
        let topology = Topology::mesh(w, h);
        let route = XyRouting
            .route(&topology, NodeId::new(src), NodeId::new(dst))
            .unwrap();
        let (sx, sy) = (src % u32::from(w), src / u32::from(w));
        let (dx, dy) = (dst % u32::from(w), dst / u32::from(w));
        let manhattan = sx.abs_diff(dx) + sy.abs_diff(dy);
        prop_assert_eq!(route.len(), manhattan as usize + 2);
        // First and last links are the injection/ejection links.
        prop_assert_eq!(route.first(), topology.injection_link(NodeId::new(src)));
        prop_assert_eq!(route.last(), topology.ejection_link(NodeId::new(dst)));
    }

    /// Contention domains of XY routes always satisfy the paper's
    /// contiguity assumption: `InterferenceGraph::new` never fails on a
    /// mesh with XY routing.
    #[test]
    fn xy_contention_domains_always_contiguous(
        (w, h, raw) in mesh_and_flows(),
    ) {
        if let Some(system) = build_system(w, h, &raw) {
            let graph = InterferenceGraph::new(&system);
            prop_assert!(graph.is_ok());
        }
    }

    /// The contention relation is symmetric and domains agree in length and
    /// link content regardless of orientation.
    #[test]
    fn contention_domain_symmetry((w, h, raw) in mesh_and_flows()) {
        let Some(system) = build_system(w, h, &raw) else { return Ok(()); };
        let Ok(graph) = InterferenceGraph::new(&system) else { return Ok(()); };
        let ids: Vec<FlowId> = system.flows().ids().collect();
        for &i in &ids {
            for &j in &ids {
                if i == j { continue; }
                prop_assert_eq!(graph.contend(i, j), graph.contend(j, i));
                if let (Some(a), Some(b)) = (
                    graph.contention_domain(i, j),
                    graph.contention_domain(j, i),
                ) {
                    prop_assert_eq!(a.len(), b.len());
                    prop_assert_eq!(a.links(system.route(i)), b.links(system.route(j)));
                    prop_assert_eq!(a.first_in_i(), b.first_in_j());
                }
            }
        }
    }

    /// Direct interference sets contain exactly the higher-priority
    /// contenders; indirect sets never overlap direct sets and every member
    /// interferes with some direct interferer.
    #[test]
    fn interference_set_definitions((w, h, raw) in mesh_and_flows()) {
        let Some(system) = build_system(w, h, &raw) else { return Ok(()); };
        let Ok(graph) = InterferenceGraph::new(&system) else { return Ok(()); };
        for (i, flow_i) in system.flows().iter() {
            let direct = graph.direct_set(i);
            for (j, flow_j) in system.flows().iter() {
                if i == j { continue; }
                let expected = flow_j.priority().is_higher_than(flow_i.priority())
                    && graph.contend(i, j);
                prop_assert_eq!(direct.contains(&j), expected);
            }
            for k in graph.indirect_set(i) {
                prop_assert!(!direct.contains(&k));
                prop_assert!(!graph.contend(i, k));
                prop_assert!(
                    direct.iter().any(|&j| graph.direct_set(j).contains(&k)),
                    "indirect member must interfere with a direct interferer"
                );
                // All indirect interferers have higher priority than τi.
                prop_assert!(system
                    .flow(k)
                    .priority()
                    .is_higher_than(flow_i.priority()));
            }
        }
    }

    /// The upstream/downstream partition is total over S^I_i ∩ S^D_j and
    /// its members are disjoint.
    #[test]
    fn up_down_partition_total((w, h, raw) in mesh_and_flows()) {
        let Some(system) = build_system(w, h, &raw) else { return Ok(()); };
        let Ok(graph) = InterferenceGraph::new(&system) else { return Ok(()); };
        for (i, _) in system.flows().iter() {
            for &j in graph.direct_set(i) {
                let part = graph.partition_indirect(i, j);
                let expected: Vec<FlowId> = graph
                    .indirect_set(i)
                    .into_iter()
                    .filter(|&k| graph.direct_set(j).contains(&k))
                    .collect();
                let upstream: Vec<FlowId> = part.upstream().collect();
                let downstream: Vec<FlowId> = part.downstream().collect();
                let mut together = upstream.clone();
                together.extend(downstream.iter().copied());
                together.sort();
                let mut expected_sorted = expected.clone();
                expected_sorted.sort();
                prop_assert_eq!(together, expected_sorted);
                for k in &upstream {
                    prop_assert!(!downstream.contains(k));
                }
            }
        }
    }

    /// Every graph accessor agrees with the brute-force oracle on freshly
    /// built graphs.
    #[test]
    fn graph_matches_oracle((w, h, raw) in mesh_and_flows()) {
        let Some(system) = build_system(w, h, &raw) else { return Ok(()); };
        let graph = InterferenceGraph::new(&system).unwrap();
        check_against_oracle(&graph, &system)?;
    }
}

/// Case count of the delta property: 64 for local runs, 512 in the CI
/// soundness leg (`NOC_MPB_SWEEP_EXHAUSTIVE=1`).
fn delta_cases() -> u32 {
    if std::env::var("NOC_MPB_SWEEP_EXHAUSTIVE").is_ok_and(|v| v == "1") {
        512
    } else {
        64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(delta_cases()))]

    /// Every graph accessor agrees with the oracle after each delta of a
    /// random admission/removal sequence, the graph equals a from-scratch
    /// build, and each delta reports exactly the flows its definition names.
    #[test]
    fn graph_matches_oracle_under_deltas((w, h, raw) in mesh_and_flows(), ops in deltas()) {
        let Some(mut system) = build_system(w, h, &raw) else { return Ok(()); };
        let mut graph = InterferenceGraph::new(&system).unwrap();
        let nodes = u32::from(w) * u32::from(h);
        for (kind, a, b, p) in ops {
            let n = system.flows().len();
            let affected = if kind == 0 && n > 1 {
                let id = FlowId::new(a % n as u32);
                let before = Oracle::new(&system);
                let next = system.without_flow(id).unwrap();
                let affected = graph.remove_flow(&next, id);
                // Flows that held the removed one, under their new ids.
                let expected: Vec<FlowId> = system
                    .flows()
                    .ids()
                    .filter(|&x| {
                        before.direct[x.index()].contains(&id)
                            || before.indirect[x.index()].contains(&id)
                    })
                    .map(|x| if x > id { FlowId::new(x.raw() - 1) } else { x })
                    .collect();
                prop_assert_eq!(&affected, &expected);
                system = next;
                affected
            } else {
                let (src, dst) = (a % nodes, b % nodes);
                if src == dst {
                    continue;
                }
                let flow = Flow::builder(NodeId::new(src), NodeId::new(dst))
                    .priority(Priority::new(p))
                    .period(Cycles::new(10_000))
                    .length_flits(8)
                    .build();
                // A drawn priority may already be taken; skip that draw.
                let Ok((next, id)) = system.with_added_flow(flow, &XyRouting) else { continue };
                let affected = graph.add_flow(&next, id).unwrap();
                // The new flow, the flows whose direct set gained it, and
                // every flow directly interfered with by one of those.
                let after = Oracle::new(&next);
                let gained: Vec<FlowId> =
                    next.flows().ids().filter(|&g| after.direct[g.index()].contains(&id)).collect();
                let expected: Vec<FlowId> = next
                    .flows()
                    .ids()
                    .filter(|&x| {
                        x == id
                            || gained.contains(&x)
                            || after.direct[x.index()].iter().any(|j| gained.contains(j))
                    })
                    .collect();
                prop_assert_eq!(&affected, &expected);
                system = next;
                affected
            };
            prop_assert!(affected.windows(2).all(|w| w[0] < w[1]));
            check_against_oracle(&graph, &system)?;
            prop_assert!(graph == InterferenceGraph::new(&system).unwrap());
        }
    }
}

proptest! {
    /// Equation 1 is monotone in packet length and strictly increasing in
    /// route length for fixed parameters.
    #[test]
    fn zero_load_latency_monotone(
        len_a in 1u32..4096,
        len_b in 1u32..4096,
    ) {
        let topology = Topology::mesh(6, 1);
        let mk = |l: u32, p: u32| {
            Flow::builder(NodeId::new(0), NodeId::new(5))
                .priority(Priority::new(p))
                .period(Cycles::new(1_000_000))
                .length_flits(l)
                .build()
        };
        let flows = FlowSet::new(vec![mk(len_a, 1), mk(len_b, 2)]).unwrap();
        let system = System::new(topology, NocConfig::default(), flows, &XyRouting).unwrap();
        let ca = system.zero_load_latency(FlowId::new(0));
        let cb = system.zero_load_latency(FlowId::new(1));
        if len_a <= len_b {
            prop_assert!(ca <= cb);
        } else {
            prop_assert!(ca > cb);
        }
    }
}
