//! The fault list compiled into a step table over network time.
//!
//! A [`NetConfig`](crate::config::NetConfig)'s faults never change after the
//! runtime is built, and the link state they imply changes only at *boundary
//! ticks*: every fault's `at`, plus the `until` of each
//! [`NetFault::Drop`] and [`NetFault::CorruptMessage`] window. Between two
//! boundaries every link check has the same answer, so [`FaultTimeline`]
//! computes the answers once, per boundary, as two node bitmasks:
//!
//! * **lossy** — the node's links drop every message: it is isolated by the
//!   latest partition or heal, down by its latest crash or recover, or
//!   inside a drop window;
//! * **corrupting** — messages on the node's links are corrupted in flight
//!   (inside a corrupt-message window).
//!
//! A link check is then one `partition_point` over the boundary ticks plus a
//! bit test, and a two-endpoint check tests both nodes against the same row.
//! Events at the same tick apply in fault-list order, so the later entry
//! wins.
//!
//! An empty fault list compiles to no table at all: fault-free runs allocate
//! nothing and every lookup answers "healthy" without touching memory.

use std::sync::Arc;

use crate::config::NetFault;

/// A replica crash or recovery: `(tick, node, is_crash)`.
pub type ReplicaEvent = (u64, usize, bool);

/// The compiled fault list. Cheap to clone (clones share the table) and
/// derived from the config, so it takes no part in runtime fingerprints.
#[derive(Clone, Debug, Default)]
pub struct FaultTimeline {
    table: Option<Arc<Table>>,
}

#[derive(Debug)]
struct Table {
    /// Boundary ticks, strictly ascending.
    ticks: Vec<u64>,
    /// Mask words per node set: `nodes.div_ceil(64)`.
    words: usize,
    /// Row `i` is the link state from `ticks[i]` up to the next boundary:
    /// `words` lossy words, then `words` corrupting words.
    rows: Vec<u64>,
    /// The crash/recover events sorted by tick, ties in fault-list order.
    replica_events: Vec<ReplicaEvent>,
}

/// The link state of every node over one stretch of time between two
/// boundary ticks. Nodes outside the topology have no links and read as
/// healthy.
#[derive(Clone, Copy, Debug)]
pub struct Links<'a> {
    /// `words` lossy words then `words` corrupting words; empty when no
    /// fault is active.
    row: &'a [u64],
}

impl Links<'_> {
    /// `true` iff a message touching `node`'s links is lost.
    pub fn lossy(&self, node: usize) -> bool {
        bit(&self.row[..self.row.len() / 2], node)
    }

    /// `true` iff a message on `node`'s links is corrupted in flight.
    pub fn corrupting(&self, node: usize) -> bool {
        bit(&self.row[self.row.len() / 2..], node)
    }
}

fn bit(words: &[u64], node: usize) -> bool {
    words.get(node / 64).is_some_and(|w| (w >> (node % 64)) & 1 == 1)
}

/// One state change, in the order the sweep applies them.
enum Edge<'a> {
    /// The partition in force becomes this node set (empty: healed).
    Partition(&'a [usize]),
    /// A node goes down (`true`) or comes back up (`false`).
    Down(usize, bool),
    /// A drop window on a node opens (`+1`) or closes (`-1`).
    Drop(usize, i32),
    /// A corrupt-message window on a node opens (`+1`) or closes (`-1`).
    Corrupt(usize, i32),
}

impl FaultTimeline {
    /// Compiles `faults` for a `nodes`-replica topology.
    pub fn compile(faults: &[NetFault], nodes: usize) -> FaultTimeline {
        if faults.is_empty() {
            return FaultTimeline::default();
        }
        let mut edges: Vec<(u64, Edge<'_>)> = Vec::new();
        for f in faults {
            match f {
                NetFault::Partition { at, nodes } => edges.push((*at, Edge::Partition(nodes))),
                NetFault::Heal { at } => edges.push((*at, Edge::Partition(&[]))),
                NetFault::CrashReplica { at, node } => edges.push((*at, Edge::Down(*node, true))),
                NetFault::RecoverReplica { at, node } => {
                    edges.push((*at, Edge::Down(*node, false)));
                }
                // A window with `until <= at` is never active.
                NetFault::Drop { at, until, node } if at < until => {
                    edges.push((*at, Edge::Drop(*node, 1)));
                    edges.push((*until, Edge::Drop(*node, -1)));
                }
                NetFault::CorruptMessage { at, until, node } if at < until => {
                    edges.push((*at, Edge::Corrupt(*node, 1)));
                    edges.push((*until, Edge::Corrupt(*node, -1)));
                }
                NetFault::Drop { .. } | NetFault::CorruptMessage { .. } => {}
            }
        }
        // Stable: edges at one tick keep fault-list order, so the later
        // partition/heal or crash/recover entry wins.
        edges.sort_by_key(|(t, _)| *t);
        let replica_events = edges
            .iter()
            .filter_map(|(t, e)| match e {
                Edge::Down(node, down) => Some((*t, *node, *down)),
                _ => None,
            })
            .collect();

        let words = nodes.div_ceil(64);
        let mut partition: &[usize] = &[];
        let mut down = vec![false; nodes];
        let mut drops = vec![0i32; nodes];
        let mut corrupt = vec![0i32; nodes];
        let mut ticks = Vec::new();
        let mut rows = Vec::new();
        for group in edges.chunk_by(|a, b| a.0 == b.0) {
            for (_, edge) in group {
                match *edge {
                    Edge::Partition(set) => partition = set,
                    Edge::Down(n, d) if n < nodes => down[n] = d,
                    Edge::Drop(n, delta) if n < nodes => drops[n] += delta,
                    Edge::Corrupt(n, delta) if n < nodes => corrupt[n] += delta,
                    _ => {}
                }
            }
            let base = rows.len();
            rows.resize(base + 2 * words, 0);
            let (lossy, corrupting) = rows[base..].split_at_mut(words);
            for n in partition.iter().copied().filter(|n| *n < nodes) {
                lossy[n / 64] |= 1 << (n % 64);
            }
            for n in 0..nodes {
                if down[n] || drops[n] > 0 {
                    lossy[n / 64] |= 1 << (n % 64);
                }
                if corrupt[n] > 0 {
                    corrupting[n / 64] |= 1 << (n % 64);
                }
            }
            ticks.push(group[0].0);
        }
        FaultTimeline { table: Some(Arc::new(Table { ticks, words, rows, replica_events })) }
    }

    /// The link state at tick `t`.
    pub fn at(&self, t: u64) -> Links<'_> {
        let Some(table) = &self.table else {
            return Links { row: &[] };
        };
        match table.ticks.partition_point(|b| *b <= t) {
            0 => Links { row: &[] },
            i => {
                let width = 2 * table.words;
                Links { row: &table.rows[(i - 1) * width..i * width] }
            }
        }
    }

    /// The crash/recover events, sorted by tick with ties in fault-list
    /// order — the order the backends replay replica failures in.
    pub fn replica_events(&self) -> &[ReplicaEvent] {
        self.table.as_deref().map_or(&[], |t| &t.replica_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::mix;

    /// The linear scans the table replaces, kept as the reference.
    mod oracle {
        use crate::config::NetFault;

        /// The latest partition/heal at or before `t` decides; the later
        /// list entry wins a tie.
        pub fn isolated(faults: &[NetFault], node: usize, t: u64) -> bool {
            let mut verdict = false;
            let mut latest = 0u64;
            for f in faults {
                match f {
                    NetFault::Partition { at, nodes } if *at <= t && *at >= latest => {
                        latest = *at;
                        verdict = nodes.contains(&node);
                    }
                    NetFault::Heal { at } if *at <= t && *at >= latest => {
                        latest = *at;
                        verdict = false;
                    }
                    _ => {}
                }
            }
            verdict
        }

        /// The latest crash/recover of `node` at or before `t` decides, by
        /// the same rule.
        pub fn down(faults: &[NetFault], node: usize, t: u64) -> bool {
            let mut verdict = false;
            let mut latest = 0u64;
            for f in faults {
                match f {
                    NetFault::CrashReplica { at, node: n }
                        if *n == node && *at <= t && *at >= latest =>
                    {
                        latest = *at;
                        verdict = true;
                    }
                    NetFault::RecoverReplica { at, node: n }
                        if *n == node && *at <= t && *at >= latest =>
                    {
                        latest = *at;
                        verdict = false;
                    }
                    _ => {}
                }
            }
            verdict
        }

        pub fn lossy(faults: &[NetFault], node: usize, t: u64) -> bool {
            isolated(faults, node, t)
                || down(faults, node, t)
                || faults.iter().any(|f| {
                    matches!(f, NetFault::Drop { at, until, node: d } if *d == node && *at <= t && t < *until)
                })
        }

        pub fn corrupting(faults: &[NetFault], node: usize, t: u64) -> bool {
            faults.iter().any(|f| {
                matches!(f, NetFault::CorruptMessage { at, until, node: c } if *c == node && *at <= t && t < *until)
            })
        }

        /// The crash/recover events as the backends used to collect them.
        pub fn replica_events(faults: &[NetFault]) -> Vec<(u64, usize, bool)> {
            let mut events: Vec<(u64, usize, bool)> = faults
                .iter()
                .filter_map(|f| match f {
                    NetFault::CrashReplica { at, node } => Some((*at, *node, true)),
                    NetFault::RecoverReplica { at, node } => Some((*at, *node, false)),
                    _ => None,
                })
                .collect();
            events.sort_by_key(|e| e.0);
            events
        }
    }

    /// A seeded random fault list over `nodes` replicas: every kind, ticks
    /// drawn from a small range so several events share a tick, windows
    /// that may be empty or inverted, and the occasional node outside the
    /// topology.
    fn random_faults(seed: u64, nodes: usize, len: usize) -> Vec<NetFault> {
        let mut s = seed;
        let mut draw = |m: u64| {
            s = mix(s);
            s % m
        };
        (0..len)
            .map(|_| {
                let at = draw(24);
                let n = draw(nodes as u64 + 1) as usize;
                match draw(6) {
                    0 => NetFault::Partition {
                        at,
                        nodes: (0..draw(4)).map(|_| draw(nodes as u64 + 1) as usize).collect(),
                    },
                    1 => NetFault::Heal { at },
                    2 => NetFault::Drop { at, until: draw(28), node: n },
                    3 => NetFault::CrashReplica { at, node: n },
                    4 => NetFault::RecoverReplica { at, node: n },
                    _ => NetFault::CorruptMessage { at, until: draw(28), node: n },
                }
            })
            .collect()
    }

    /// Boundary ticks, one tick either side of each, and `extra` sampled
    /// ticks.
    fn probe_ticks(faults: &[NetFault], seed: u64, extra: usize) -> Vec<u64> {
        let mut ticks = vec![0, 1, u64::MAX];
        for f in faults {
            let (at, until) = match f {
                NetFault::Partition { at, .. }
                | NetFault::Heal { at }
                | NetFault::CrashReplica { at, .. }
                | NetFault::RecoverReplica { at, .. } => (*at, None),
                NetFault::Drop { at, until, .. } | NetFault::CorruptMessage { at, until, .. } => {
                    (*at, Some(*until))
                }
            };
            for b in std::iter::once(at).chain(until) {
                ticks.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
            }
        }
        ticks.extend((0..extra as u64).map(|i| mix(seed ^ i) % 64));
        ticks
    }

    fn assert_matches_oracle(faults: &[NetFault], nodes: usize, ticks: &[u64]) {
        let tl = FaultTimeline::compile(faults, nodes);
        for &t in ticks {
            let links = tl.at(t);
            for n in 0..nodes {
                assert_eq!(
                    links.lossy(n),
                    oracle::lossy(faults, n, t),
                    "lossy({n}, {t}) over {faults:?}"
                );
                assert_eq!(
                    links.corrupting(n),
                    oracle::corrupting(faults, n, t),
                    "corrupting({n}, {t}) over {faults:?}"
                );
            }
        }
        assert_eq!(tl.replica_events(), oracle::replica_events(faults).as_slice());
    }

    #[test]
    fn compiled_table_matches_the_linear_scans() {
        for seed in 0..300u64 {
            // Every fifth topology is wider than one 64-bit mask word.
            let nodes = match seed % 5 {
                0 => 65 + (mix(seed) % 136) as usize,
                _ => 1 + (mix(seed) % 7) as usize,
            };
            let len = (mix(seed ^ 0xf00) % 32) as usize;
            let faults = random_faults(seed, nodes, len);
            assert_matches_oracle(&faults, nodes, &probe_ticks(&faults, seed, 16));
        }
    }

    #[test]
    fn later_entries_win_ties_at_one_tick() {
        let faults = vec![
            NetFault::Partition { at: 5, nodes: vec![0, 1] },
            NetFault::Heal { at: 5 },
            NetFault::Heal { at: 7 },
            NetFault::Partition { at: 7, nodes: vec![2] },
            NetFault::RecoverReplica { at: 0, node: 1 },
            NetFault::CrashReplica { at: 0, node: 1 },
            NetFault::CrashReplica { at: 9, node: 0 },
            NetFault::RecoverReplica { at: 9, node: 0 },
        ];
        let tl = FaultTimeline::compile(&faults, 3);
        assert!(tl.at(0).lossy(1), "crash listed after the recovery at tick 0 wins");
        assert!(!tl.at(5).lossy(0) && tl.at(5).lossy(1), "heal listed after the partition wins");
        assert!(tl.at(7).lossy(2) && !tl.at(7).lossy(0), "partition listed after the heal wins");
        assert!(!tl.at(9).lossy(0), "recovery listed after the crash wins");
        assert_matches_oracle(&faults, 3, &probe_ticks(&faults, 0, 0));
    }

    #[test]
    fn inert_windows_and_empty_lists_compile_to_healthy_links() {
        let empty = FaultTimeline::compile(&[], 5);
        assert!(empty.table.is_none(), "no faults, no table");
        assert!((0..5).all(|n| !empty.at(0).lossy(n) && !empty.at(u64::MAX).corrupting(n)));
        assert!(empty.replica_events().is_empty());
        let inert = vec![
            NetFault::Drop { at: 4, until: 4, node: 0 },
            NetFault::Drop { at: 9, until: 2, node: 1 },
            NetFault::CorruptMessage { at: 3, until: 0, node: 0 },
        ];
        let tl = FaultTimeline::compile(&inert, 2);
        assert!((0..2).all(|n| (0..12).all(|t| !tl.at(t).lossy(n) && !tl.at(t).corrupting(n))));
        assert_matches_oracle(&inert, 2, &probe_ticks(&inert, 0, 0));
        // Windows starting at tick 0 are active from the first tick.
        let at_zero = vec![
            NetFault::Drop { at: 0, until: 3, node: 0 },
            NetFault::CorruptMessage { at: 0, until: 1, node: 1 },
        ];
        let tl = FaultTimeline::compile(&at_zero, 2);
        assert!(tl.at(0).lossy(0) && tl.at(2).lossy(0) && !tl.at(3).lossy(0));
        assert!(tl.at(0).corrupting(1) && !tl.at(1).corrupting(1));
    }

    #[test]
    fn nodes_outside_the_topology_read_healthy() {
        let faults = vec![
            NetFault::Partition { at: 0, nodes: vec![0, 7] },
            NetFault::CrashReplica { at: 0, node: 9 },
            NetFault::Drop { at: 0, until: 5, node: 3 },
        ];
        let tl = FaultTimeline::compile(&faults, 2);
        assert!(tl.at(1).lossy(0) && !tl.at(1).lossy(1));
        assert!(!tl.at(1).lossy(3) && !tl.at(1).lossy(7) && !tl.at(1).lossy(9));
        assert_eq!(tl.replica_events(), &[(0, 9, true)]);
    }
}
