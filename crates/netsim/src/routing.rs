//! Shortest-path ECMP routing.
//!
//! Routes are precomputed: for every (node, destination host) pair the
//! table yields every port that lies on a shortest path. Per-flow ECMP
//! picks one port by hashing the flow id with the node id, so a flow is
//! pinned to one path (no reordering from multipathing) while flows spread
//! across paths.
//!
//! The table is ToR-compressed. Every host has a single NIC (asserted by
//! `Sim::new`), so the routes to a host equal the routes to its attachment
//! (ToR) switch plus the ToR's down-port to it. One BFS per *ToR* over the
//! switch-only graph gives O(switches × ToRs) rows: at a k=16 fat-tree that
//! is 320×128 rows instead of 1344×1024 for a dense `next[node][dst]`
//! table, and at the 3-tier WAN topology ~0.4M rows instead of ~1.1G.
//!
//! The BFS expands its frontier in (node-ascending, port-ascending) order,
//! so each candidate list has the same *order* a dense per-host BFS would
//! produce. That order is load-bearing: golden traces pin ECMP picks. The
//! tests keep the dense builder as an oracle and check the two agree on
//! every topology constructor.

use crate::packet::{FlowId, NodeId};

/// Precomputed next-hop table.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    /// Node -> dense switch row in `next` (`u32::MAX` for hosts).
    sw_row: Vec<u32>,
    /// Node -> where the host attaches (meaningful only at host indices).
    attach: Vec<Attach>,
    num_tors: usize,
    /// `next[sw_row * num_tors + tor_col]` = candidate ports.
    next: Vec<Vec<u16>>,
    salt: u64,
}

/// A single-NIC host's attachment: everything a lookup needs about the
/// destination host in one record.
#[derive(Clone, Copy, Debug, Default)]
struct Attach {
    /// The host's only egress port.
    up: u16,
    /// The ToR's down-port to this host.
    down: u16,
    /// The attachment (ToR) switch.
    tor: NodeId,
    /// The ToR's dense column in `next`.
    col: u32,
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Reverse adjacency: `radj[peer]` = `(node, port)` pairs such that
/// `adj[node]` contains `(port, peer)`, in (node-ascending, port-order)
/// order — exactly the order the original O(V·E) builder scanned them in,
/// which the candidate lists (and golden traces) depend on.
fn reverse_adj(adj: &[Vec<(u16, NodeId)>]) -> Vec<Vec<(NodeId, u16)>> {
    let mut radj = vec![Vec::new(); adj.len()];
    for (node, ports) in adj.iter().enumerate() {
        for &(port, peer) in ports {
            radj[peer as usize].push((node as NodeId, port));
        }
    }
    radj
}

impl RoutingTable {
    /// Build from an adjacency list: `adj[node]` = `(port, peer)` pairs.
    /// `is_host[node]` marks hosts (hosts never forward).
    ///
    /// # Panics
    /// Panics unless every host has exactly one NIC, attached to a switch.
    pub fn build(adj: &[Vec<(u16, NodeId)>], is_host: &[bool], salt: u64) -> Self {
        let n = adj.len();
        let radj = reverse_adj(adj);

        let mut attach = vec![Attach::default(); n];
        let mut tor_col = vec![u32::MAX; n];
        let mut sw_row = vec![u32::MAX; n];
        let mut num_tors = 0usize;
        let mut num_sw = 0usize;
        for (node, h) in is_host.iter().enumerate() {
            if !*h {
                sw_row[node] = num_sw as u32;
                num_sw += 1;
            }
        }
        for (node, h) in is_host.iter().enumerate() {
            if !*h {
                continue;
            }
            assert_eq!(
                adj[node].len(),
                1,
                "routing requires single-NIC hosts (host {node} has {} ports)",
                adj[node].len()
            );
            let (up, tor) = adj[node][0];
            assert!(!is_host[tor as usize], "host {node} attaches to host {tor}");
            // The ToR's port back down to this host.
            let down = adj[tor as usize]
                .iter()
                .find(|&&(_, peer)| peer as usize == node)
                .map(|&(port, _)| port)
                .expect("host link must be bidirectional");
            if tor_col[tor as usize] == u32::MAX {
                tor_col[tor as usize] = num_tors as u32;
                num_tors += 1;
            }
            attach[node] = Attach {
                up,
                down,
                tor,
                col: tor_col[tor as usize],
            };
        }

        // One BFS per ToR over the switch-only graph, expanding in
        // (node-ascending, port-order) sequence so the candidate lists come
        // out in the dense builder's order.
        let mut next = vec![Vec::new(); num_sw * num_tors];
        let mut dist = vec![u32::MAX; n];
        for (tor, &col) in tor_col.iter().enumerate() {
            if col == u32::MAX {
                continue;
            }
            let col = col as usize;
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[tor] = 0;
            let mut frontier = vec![tor];
            while !frontier.is_empty() {
                let mut nf = Vec::new();
                for &u in &frontier {
                    for &(node, port) in &radj[u] {
                        let node = node as usize;
                        if is_host[node] {
                            continue;
                        }
                        let slot = sw_row[node] as usize * num_tors + col;
                        let cand = dist[u] + 1;
                        if dist[node] > cand {
                            if dist[node] == u32::MAX {
                                nf.push(node);
                            }
                            dist[node] = cand;
                            next[slot].clear();
                            next[slot].push(port);
                        } else if dist[node] == cand && !next[slot].contains(&port) {
                            next[slot].push(port);
                        }
                    }
                }
                frontier = nf;
            }
        }

        RoutingTable {
            sw_row,
            attach,
            num_tors,
            next,
            salt,
        }
    }

    /// All ECMP candidate ports at `node` toward host `dst`.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[u16] {
        let dst_u = dst as usize;
        if node == dst || self.sw_row[dst_u] != u32::MAX {
            return &[];
        }
        let row = self.sw_row[node as usize];
        if row == u32::MAX {
            // Single-NIC host: its only port is the route to everything
            // else.
            return std::slice::from_ref(&self.attach[node as usize].up);
        }
        let a = &self.attach[dst_u];
        if node == a.tor {
            return std::slice::from_ref(&a.down);
        }
        &self.next[row as usize * self.num_tors + a.col as usize]
    }

    /// The ECMP-selected port for `flow` at `node` toward `dst`.
    ///
    /// # Panics
    /// Panics when `dst` is unreachable from `node`.
    pub fn port_for(&self, node: NodeId, dst: NodeId, flow: FlowId) -> u16 {
        let cands = self.candidates(node, dst);
        assert!(!cands.is_empty(), "no route from node {node} to host {dst}");
        if cands.len() == 1 {
            return cands[0];
        }
        let h = mix(self.salt ^ (flow as u64) << 20 ^ node as u64);
        cands[(h % cands.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeKind, ThreeTierWanSpec, Topology};
    use simcore::{Rate, Time};

    /// Dense `next[node][dst]` oracle: one reverse BFS per destination
    /// host over the whole graph, no single-NIC assumption. Checks the
    /// ToR-compressed table's candidate lists, order included.
    fn build_exact(adj: &[Vec<(u16, NodeId)>], is_host: &[bool]) -> Vec<Vec<Vec<u16>>> {
        let n = adj.len();
        let radj = reverse_adj(adj);
        let mut next = vec![vec![Vec::new(); n]; n];
        for (dst, _) in is_host.iter().enumerate().filter(|(_, h)| **h) {
            let mut dist = vec![u32::MAX; n];
            dist[dst] = 0;
            let mut frontier = vec![dst];
            while !frontier.is_empty() {
                let mut nf = Vec::new();
                for &u in &frontier {
                    // Hosts never forward traffic: only the destination host
                    // itself may be an intermediate BFS root.
                    if u != dst && is_host[u] {
                        continue;
                    }
                    for &(node, port) in &radj[u] {
                        let node = node as usize;
                        let cand = dist[u] + 1;
                        if dist[node] > cand {
                            if dist[node] == u32::MAX {
                                nf.push(node);
                            }
                            dist[node] = cand;
                            next[node][dst].clear();
                            next[node][dst].push(port);
                        } else if dist[node] == cand && !next[node][dst].contains(&port) {
                            next[node][dst].push(port);
                        }
                    }
                }
                frontier = nf;
            }
        }
        next
    }

    fn host_mask(t: &Topology) -> Vec<bool> {
        t.kinds.iter().map(|k| *k == NodeKind::Host).collect()
    }

    /// A 4-node line: h0 - s1 - s2 - h3 (hosts at the ends).
    fn line() -> (Vec<Vec<(u16, NodeId)>>, Vec<bool>) {
        let adj = vec![
            vec![(0, 1)],         // h0 -> s1
            vec![(0, 0), (1, 2)], // s1 -> h0, s2
            vec![(0, 1), (1, 3)], // s2 -> s1, h3
            vec![(0, 2)],         // h3 -> s2
        ];
        let is_host = vec![true, false, false, true];
        (adj, is_host)
    }

    #[test]
    fn line_routes_forward() {
        let (adj, is_host) = line();
        let rt = RoutingTable::build(&adj, &is_host, 0);
        assert_eq!(rt.port_for(0, 3, 7), 0);
        assert_eq!(rt.port_for(1, 3, 7), 1);
        assert_eq!(rt.port_for(2, 3, 7), 1);
        assert_eq!(rt.port_for(2, 0, 7), 0);
        assert_eq!(rt.port_for(1, 0, 7), 0);
    }

    /// A single-NIC switch fan: h0 - s1 - {s2..s(n+1)} - s(n+2) - h(n+3).
    /// The ingress switch `FAN_IN` = s1 reaches the far host over `n`
    /// equal-cost paths; its port 0 faces h0 and ports `1..=n` the middle
    /// switches.
    fn fan(n: usize) -> (Vec<Vec<(u16, NodeId)>>, Vec<bool>) {
        let s_out = (n + 2) as NodeId;
        let dst = (n + 3) as NodeId;
        let mut adj = vec![Vec::new(); n + 4];
        adj[0] = vec![(0, FAN_IN)];
        adj[FAN_IN as usize].push((0, 0));
        for i in 0..n {
            let mid = (i + 2) as NodeId;
            let p = adj[FAN_IN as usize].len() as u16;
            adj[FAN_IN as usize].push((p, mid));
            adj[mid as usize] = vec![(0, FAN_IN), (1, s_out)];
            let p = adj[s_out as usize].len() as u16;
            adj[s_out as usize].push((p, mid));
        }
        let p = adj[s_out as usize].len() as u16;
        adj[s_out as usize].push((p, dst));
        adj[dst as usize] = vec![(0, s_out)];
        let mut is_host = vec![false; n + 4];
        is_host[0] = true;
        is_host[dst as usize] = true;
        (adj, is_host)
    }

    const FAN_IN: NodeId = 1;
    /// The far host of `fan(8)`.
    const FAN8_DST: NodeId = 11;

    #[test]
    fn ecmp_uses_both_paths_and_is_per_flow_stable() {
        let (adj, is_host) = fan(2);
        let rt = RoutingTable::build(&adj, &is_host, 42);
        assert_eq!(rt.candidates(FAN_IN, 5).len(), 2);
        let mut used = std::collections::BTreeSet::new();
        for f in 0..64u32 {
            let p = rt.port_for(FAN_IN, 5, f);
            assert_eq!(p, rt.port_for(FAN_IN, 5, f), "per-flow stability");
            used.insert(p);
        }
        assert_eq!(used.len(), 2, "both ECMP paths used across flows");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_panics() {
        // h0 - s1 and h2 - s3, with no link between the two switches.
        let adj = vec![vec![(0, 1)], vec![(0, 0)], vec![(0, 3)], vec![(0, 2)]];
        let is_host = vec![true, false, true, false];
        let rt = RoutingTable::build(&adj, &is_host, 0);
        rt.port_for(1, 2, 0);
    }

    #[test]
    fn hash_is_stable_across_table_rebuilds() {
        // The selection must be a pure function of (salt, node, flow), not
        // of construction order or table identity: rebuilding the same
        // topology reproduces every flow's path exactly.
        let (adj, is_host) = fan(8);
        let a = RoutingTable::build(&adj, &is_host, 1234);
        let b = RoutingTable::build(&adj, &is_host, 1234);
        for f in 0..256u32 {
            assert_eq!(
                a.port_for(FAN_IN, FAN8_DST, f),
                b.port_for(FAN_IN, FAN8_DST, f),
                "flow {f}"
            );
        }
    }

    #[test]
    fn wide_fan_coverage_is_roughly_balanced() {
        let (adj, is_host) = fan(8);
        let rt = RoutingTable::build(&adj, &is_host, 7);
        assert_eq!(rt.candidates(FAN_IN, FAN8_DST), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut count = [0usize; 8];
        const FLOWS: usize = 1024;
        for f in 0..FLOWS as u32 {
            count[rt.port_for(FAN_IN, FAN8_DST, f) as usize - 1] += 1;
        }
        // Every path is used, and no path gets less than a quarter or more
        // than double its fair share (a loose bound; the hash is not
        // cryptographic but must not collapse onto a few ports).
        let fair = FLOWS / 8;
        for (p, &c) in count.iter().enumerate() {
            assert!(c >= fair / 4, "path {p} starved: {c}/{FLOWS}");
            assert!(c <= fair * 2, "path {p} overloaded: {c}/{FLOWS}");
        }
    }

    #[test]
    fn salt_remaps_flow_placement() {
        let (adj, is_host) = fan(8);
        let a = RoutingTable::build(&adj, &is_host, 1);
        let b = RoutingTable::build(&adj, &is_host, 2);
        let moved = (0..256u32)
            .filter(|&f| a.port_for(FAN_IN, FAN8_DST, f) != b.port_for(FAN_IN, FAN8_DST, f))
            .count();
        assert!(moved > 64, "changing the salt moved only {moved}/256 flows");
    }

    #[test]
    fn fat_tree_shortest_path_candidate_counts() {
        // k=4 fat-tree: hosts 0..16, edges/aggs/cores after. From an edge
        // switch, a remote-pod host is reachable through every aggregation
        // switch of the pod (k/2 ways); a directly attached host has exactly
        // one port; an aggregation switch fans out over k/2 cores.
        let t = Topology::fat_tree(4, Rate::from_gbps(100), Time::from_us(1));
        let rt = RoutingTable::build(&t.adjacency(), &host_mask(&t), 0);
        // Layout: 16 hosts, then per pod edges followed by aggs:
        // pod 0 edges 16,17 aggs 18,19; pod 1 edges 20,21 aggs 22,23; ...
        let pod0_edge = 16 as NodeId;
        let pod0_agg = 18 as NodeId;
        let local_host = 0 as NodeId; // host 0 hangs off pod 0 edge 0
        let remote_host = 15 as NodeId; // last host, pod 3
        assert_eq!(rt.candidates(pod0_edge, local_host).len(), 1);
        assert_eq!(
            rt.candidates(pod0_edge, remote_host).len(),
            2,
            "k/2 aggs up from an edge"
        );
        assert_eq!(
            rt.candidates(pod0_agg, remote_host).len(),
            2,
            "k/2 cores up from an agg"
        );
        // Flows spread over both uplinks at the edge.
        let used: std::collections::BTreeSet<u16> = (0..64u32)
            .map(|f| rt.port_for(pod0_edge, remote_host, f))
            .collect();
        assert_eq!(used.len(), 2, "both edge uplinks carry traffic");
    }

    /// Ordered candidate-list equality between the dense oracle and the
    /// ToR-compressed table on every (node, host-dst) pair of a topology.
    fn assert_modes_agree(t: &Topology, salt: u64) {
        let adj = t.adjacency();
        let is_host = host_mask(t);
        let exact = build_exact(&adj, &is_host);
        let comp = RoutingTable::build(&adj, &is_host, salt);
        for dst in (0..adj.len()).filter(|&d| is_host[d]) {
            for (node, row) in exact.iter().enumerate() {
                assert_eq!(
                    row[dst].as_slice(),
                    comp.candidates(node as NodeId, dst as NodeId),
                    "candidate order diverged at node {node} -> dst {dst}"
                );
            }
        }
    }

    #[test]
    fn compressed_matches_exact_fat_tree() {
        for k in [4, 6, 8] {
            let t = Topology::fat_tree(k, Rate::from_gbps(100), Time::from_us(1));
            assert_modes_agree(&t, 0x5EED);
        }
    }

    #[test]
    fn compressed_matches_exact_leaf_spine() {
        let t = Topology::leaf_spine(
            4,
            3,
            4,
            Rate::from_gbps(100),
            Rate::from_gbps(400),
            Time::from_us(1),
        );
        assert_modes_agree(&t, 0xB0B);
    }

    #[test]
    fn compressed_matches_exact_testbed_tree() {
        assert_modes_agree(&Topology::testbed_tree(), 7);
    }

    #[test]
    fn compressed_matches_exact_three_tier_wan_tiny() {
        assert_modes_agree(&Topology::three_tier_wan(&ThreeTierWanSpec::tiny()), 0xDC);
    }

    #[test]
    fn compressed_matches_exact_single_switch_chain_ring() {
        let (rate, prop) = (Rate::from_gbps(100), Time::from_us(1));
        assert_modes_agree(&Topology::single_switch(8, rate, prop), 1);
        for switches in [1, 2, 9] {
            assert_modes_agree(&Topology::chain(switches, rate, prop), 2);
        }
        for n in [3, 4, 7] {
            assert_modes_agree(&Topology::ring(n, rate, prop), 3);
        }
    }
}
