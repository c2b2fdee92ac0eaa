//! The benchmark's own correctness checker.
//!
//! It knows the generated edge list and nothing else of the program: exact
//! distances come from its own Dijkstra, not from `graphs::shortest_paths`
//! or any `routing` code, so a fault shared by the program's own cross-check
//! and the code under test still shows here. Every check counts one attempt
//! and, when it fails, one failure with the first failure's description kept
//! for the report.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Checks attempted and failed, with the first failure described.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that found a wrong output.
    pub failed: u64,
    /// What the first failed check saw.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Count one check whose verdict is `ok`; `what` describes a failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }
}

/// One round's packet totals as the conservation check reads them.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundCount {
    /// Packets injected this round.
    pub injected: u64,
    /// Packets delivered this round.
    pub delivered: u64,
    /// Packets dropped this round, for any reason.
    pub dropped: u64,
    /// Packets queued at the end of the round.
    pub queued: u64,
    /// Packets on the wire at the end of the round.
    pub on_wire: u64,
}

/// Exact distances and edge membership over a generated edge list.
pub struct Reference {
    adj: Vec<Vec<(u32, u64)>>,
    weight: HashMap<(u32, u32), u64>,
    k: u64,
}

impl Reference {
    /// Index `edges` (undirected, positive weights) over `n` vertices, for
    /// a scheme built with parameter `k`.
    pub fn new(n: usize, edges: impl IntoIterator<Item = (u32, u32, u64)>, k: usize) -> Reference {
        let mut adj = vec![Vec::new(); n];
        let mut weight = HashMap::new();
        for (u, v, w) in edges {
            adj[u as usize].push((v, w));
            adj[v as usize].push((u, w));
            weight.insert((u.min(v), u.max(v)), w);
        }
        Reference {
            adj,
            weight,
            k: k as u64,
        }
    }

    /// Exact distances from `root` to every vertex (`u64::MAX` where
    /// unreachable).
    pub fn distances_from(&self, root: u32) -> Vec<u64> {
        let mut dist = vec![u64::MAX; self.adj.len()];
        let mut heap = BinaryHeap::new();
        dist[root as usize] = 0;
        heap.push(Reverse((0u64, root)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// A routed weight `w` for a pair at exact distance `d`:
    /// `d ≤ w ≤ (4k − 3)·d`.
    pub fn route(&self, checks: &mut Checks, d: u64, w: u64) {
        let cap = (4 * self.k - 3).saturating_mul(d);
        checks.expect(d <= w && w <= cap, || {
            format!("route weight {w} outside [{d}, {cap}]")
        });
    }

    /// A distance estimate `est` for a pair at exact distance `d`:
    /// `d ≤ est ≤ (2k − 1)·d`.
    pub fn estimate(&self, checks: &mut Checks, d: u64, est: u64) {
        let cap = (2 * self.k - 1).saturating_mul(d);
        checks.expect(d <= est && est <= cap, || {
            format!("distance estimate {est} outside [{d}, {cap}]")
        });
    }

    /// A traced path from `src` to `dst` reported with weight `w`: it starts
    /// at `src`, ends at `dst`, every hop is an edge, the edge weights sum
    /// to `w`, and `w` is a valid route weight for exact distance `d`.
    pub fn trace(&self, checks: &mut Checks, src: u32, dst: u32, d: u64, w: u64, path: &[u32]) {
        checks.expect(
            path.first() == Some(&src) && path.last() == Some(&dst),
            || {
                format!(
                    "trace {src}->{dst} runs {:?}..{:?}",
                    path.first(),
                    path.last()
                )
            },
        );
        let mut sum = 0u64;
        let mut missing = None;
        for hop in path.windows(2) {
            match self.weight.get(&(hop[0].min(hop[1]), hop[0].max(hop[1]))) {
                Some(&ew) => sum += ew,
                None => {
                    missing.get_or_insert((hop[0], hop[1]));
                }
            }
        }
        checks.expect(missing.is_none(), || {
            format!("trace {src}->{dst} hop {missing:?} is not an edge")
        });
        checks.expect(sum == w, || {
            format!("trace {src}->{dst} edges sum to {sum}, reported {w}")
        });
        self.route(checks, d, w);
    }
}

/// Per-round conservation: cumulative injections equal cumulative
/// deliveries plus cumulative drops plus what is queued or on the wire.
/// One check per round.
pub fn conservation(checks: &mut Checks, rounds: impl IntoIterator<Item = RoundCount>) {
    let (mut injected, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
    for (round, r) in rounds.into_iter().enumerate() {
        injected += r.injected;
        delivered += r.delivered;
        dropped += r.dropped;
        let accounted = delivered + dropped + r.queued + r.on_wire;
        checks.expect(injected == accounted, || {
            format!("round {round}: {injected} injected, {accounted} accounted for")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -2- 2, plus a heavy chord 0 -5- 2; k = 2 (route cap 5·d,
    /// estimate cap 3·d).
    fn triangle() -> Reference {
        Reference::new(3, [(0, 1, 1), (1, 2, 2), (0, 2, 5)], 2)
    }

    fn one(f: impl FnOnce(&mut Checks)) -> Checks {
        let mut c = Checks::default();
        f(&mut c);
        c
    }

    #[test]
    fn dijkstra_takes_the_light_path() {
        assert_eq!(triangle().distances_from(0), vec![0, 1, 3]);
        assert_eq!(triangle().distances_from(2), vec![3, 2, 0]);
    }

    #[test]
    fn correct_answers_pass() {
        let r = triangle();
        let c = one(|c| {
            r.route(c, 3, 3);
            r.route(c, 3, 15);
            r.estimate(c, 3, 9);
            r.trace(c, 0, 2, 3, 3, &[0, 1, 2]);
            r.trace(c, 0, 2, 3, 5, &[0, 2]);
            r.route(c, 0, 0);
        });
        assert_eq!((c.attempted, c.failed), (12, 0), "{:?}", c.first_failure);
    }

    #[test]
    fn trace_weight_off_by_one_is_counted() {
        let r = triangle();
        let c = one(|c| r.trace(c, 0, 2, 3, 4, &[0, 1, 2]));
        assert_eq!(c.failed, 1, "{:?}", c.first_failure);
        assert!(c.first_failure.unwrap().contains("sum to 3"));
    }

    #[test]
    fn trace_hop_that_is_not_an_edge_is_counted() {
        let r = Reference::new(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 2);
        // 0 -> 2 is no edge of the path graph 0-1-2-3.
        let c = one(|c| r.trace(c, 0, 3, 3, 2, &[0, 2, 3]));
        assert!(c.failed >= 1);
        assert!(c.first_failure.unwrap().contains("not an edge"));
    }

    #[test]
    fn trace_with_wrong_endpoints_is_counted() {
        let r = triangle();
        let c = one(|c| r.trace(c, 0, 2, 3, 1, &[0, 1]));
        assert!(c.failed >= 1);
        assert!(c.first_failure.unwrap().contains("runs"));
    }

    #[test]
    fn route_above_the_stretch_bound_is_counted() {
        let r = triangle();
        let c = one(|c| r.route(c, 3, 16));
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn route_below_the_distance_is_counted() {
        let r = triangle();
        let c = one(|c| r.route(c, 3, 2));
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn estimate_below_the_distance_is_counted() {
        let r = triangle();
        let c = one(|c| r.estimate(c, 3, 2));
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn estimate_above_the_oracle_bound_is_counted() {
        let r = triangle();
        let c = one(|c| r.estimate(c, 3, 10));
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn conservation_gap_is_counted() {
        let rounds = [
            RoundCount {
                injected: 4,
                on_wire: 4,
                ..RoundCount::default()
            },
            RoundCount {
                delivered: 2,
                on_wire: 1,
                ..RoundCount::default()
            },
            RoundCount {
                delivered: 1,
                ..RoundCount::default()
            },
        ];
        let c = one(|c| conservation(c, rounds));
        assert_eq!((c.attempted, c.failed), (3, 2), "{:?}", c.first_failure);
        assert!(c.first_failure.unwrap().starts_with("round 1"));
        let whole = [RoundCount {
            injected: 2,
            delivered: 1,
            dropped: 1,
            ..RoundCount::default()
        }];
        assert_eq!(one(|c| conservation(c, whole)).failed, 0);
    }
}
