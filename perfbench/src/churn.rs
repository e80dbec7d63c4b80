//! `abd_churn`: a write-heavy op stream straight into an ABD backend under a
//! seeded fault timeline.
//!
//! Each item is one *episode*: a fresh 5-replica `AbdBackend` whose network
//! carries a fault timeline generated from the episode seed, and one
//! synchronous caller that issues a fixed number of register ops through
//! `MemoryBackend::read`/`write` without pausing or backing off. Ops due
//! during a fault are still attempted and counted. No kernel, scheduler or
//! automaton is involved.
//!
//! An op *fails* when it is not served by a live quorum: a degradation was
//! raised during it, or it returned while the backend's breaker was open.
//!
//! Replica stores are durable. With volatile stores (the `NetConfig`
//! default) a quorum read can miss a completed write: a write that reached
//! only a bare majority during a minority partition loses a copy when one of
//! its holders crashes and is wiped, and the holder's re-sync pulls from only
//! `quorum − 1` peers, which may all lack the write. The ignored test
//! `volatile_replicas_keep_every_completed_write` in `tests/checks.rs`
//! reproduces it.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use wfa_kernel::memory::{RegKey, SharedMemory};
use wfa_kernel::value::{Pid, Value};
use wfa_net::abd::AbdBackend;
use wfa_net::config::{Durability, NetConfig, NetFault};
use wfa_obs::local as obs_local;
use wfa_obs::metrics::{Counter, MetricsHandle};

use crate::trace::{self, NetProbe, TimedBackend};
use crate::{item_seed, mix, read_obs, Mode, Sample};

/// ABD replicas.
pub const NODES: usize = 5;
/// Registers the stream addresses.
pub const REGISTERS: u32 = 64;
/// Client pids the stream rotates through.
pub const CLIENTS: u64 = 4;
/// Share of writes, in percent.
pub const WRITE_PCT: u64 = 70;
/// Register ops per episode.
pub const OPS: u64 = 2_000;
/// Network ticks the fault timeline spans (the faults sit in its first
/// part, so every episode outlasts its last heal).
pub const SPAN: u64 = 12_000;
/// Crash/recover pairs per episode.
pub const CRASHES: usize = 4;
/// Minority partitions (one or two replicas cut off) per episode.
pub const MINORITY: usize = 3;
/// Majority partitions (three replicas cut off) per episode.
pub const MAJORITY: usize = 1;
/// Episodes that warm the caches during set-up.
pub const WARMUP: u64 = 4;

/// The fault timeline of one episode: `CRASHES + MINORITY + MAJORITY`
/// faults in non-overlapping windows of `SPAN`, kinds in seeded order.
pub fn timeline(seed: u64) -> Vec<NetFault> {
    let total = CRASHES + MINORITY + MAJORITY;
    let mut kinds: Vec<u8> = [(0u8, CRASHES), (1, MINORITY), (2, MAJORITY)]
        .iter()
        .flat_map(|(k, n)| std::iter::repeat_n(*k, *n))
        .collect();
    // Seeded Fisher-Yates over the kinds.
    for i in (1..kinds.len()).rev() {
        let j = (mix(seed ^ ((i as u64) << 8)) % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    let width = SPAN / total as u64;
    let mut faults = Vec::new();
    for (slot, kind) in kinds.into_iter().enumerate() {
        let r = mix(seed ^ 0xfa17 ^ ((slot as u64) << 16));
        let at = slot as u64 * width + width / 10 + r % (width / 5);
        let until = at + width / 4 + (r >> 20) % (width / 3);
        let node = ((r >> 40) % NODES as u64) as usize;
        match kind {
            0 => {
                faults.push(NetFault::CrashReplica { at, node });
                faults.push(NetFault::RecoverReplica { at: until, node });
            }
            1 => {
                let size = 1 + ((r >> 48) & 1) as usize;
                let nodes = (0..size).map(|d| (node + d) % NODES).collect();
                faults.push(NetFault::Partition { at, nodes });
                faults.push(NetFault::Heal { at: until });
            }
            _ => {
                let nodes = (0..3).map(|d| (node + d) % NODES).collect();
                faults.push(NetFault::Partition { at, nodes });
                faults.push(NetFault::Heal { at: until });
            }
        }
    }
    faults
}

/// The workload's fixed inputs.
pub struct Churn {
    seed: u64,
    keys: Vec<RegKey>,
}

/// Checks each op's answer against a mirror of every write.
#[derive(Default)]
pub struct Mirror {
    mem: SharedMemory,
}

impl Mirror {
    /// Records a completed write.
    pub fn wrote(&mut self, key: RegKey, val: Value) {
        self.mem.write(key, val);
    }

    /// Checks a read: one served by a live quorum must return the last
    /// value written.
    ///
    /// # Errors
    ///
    /// The key, the expected and the returned value.
    pub fn read(&self, key: RegKey, got: &Value, quorum_served: bool) -> Result<(), String> {
        let want = self.mem.peek(key);
        if quorum_served && *got != want {
            return Err(format!(
                "quorum read of {key:?} returned {got:?}, last write was {want:?}"
            ));
        }
        Ok(())
    }
}

/// The per-episode self-check: the timeline must raise and resolve at least
/// one quorum loss, and most ops must still be served by a quorum — so the
/// failure ratio and recovery time can move in both directions.
///
/// # Errors
///
/// Names what the episode lacked.
pub fn check_episode(s: &Sample) -> Result<(), String> {
    if s.degradations == 0 || s.resolutions == 0 {
        return Err(format!(
            "episode raised {} and resolved {} quorum losses; needs at least one of each",
            s.degradations, s.resolutions
        ));
    }
    if 2 * s.ops_failed >= s.ops {
        return Err(format!(
            "{} of {} ops were not served by a quorum",
            s.ops_failed, s.ops
        ));
    }
    Ok(())
}

impl Churn {
    /// Fixes the register set and warms the caches with [`WARMUP`]
    /// episodes.
    ///
    /// # Errors
    ///
    /// The warm-up episode's check failure.
    pub fn setup(seed: u64) -> Result<Churn, String> {
        let keys = (0..REGISTERS).map(|i| RegKey::new(9).at(0, i)).collect();
        let w = Churn { seed, keys };
        for j in 0..WARMUP {
            w.run(u64::MAX - j, Mode::Plain)?;
        }
        Ok(w)
    }

    /// The backend of episode `seed`: its network carries the timeline and
    /// its replicas keep their stores across a crash.
    pub fn backend(seed: u64) -> AbdBackend {
        AbdBackend::new(Churn::config(seed, Durability::Durable))
    }

    /// The network of episode `seed` with replica stores of `durability`.
    pub fn config(seed: u64, durability: Durability) -> NetConfig {
        let mut cfg = NetConfig::new(NODES, seed ^ 0x7e7);
        cfg.faults = timeline(seed);
        cfg.durability = durability;
        cfg
    }

    /// Runs item `i`: one churn episode.
    ///
    /// # Errors
    ///
    /// A quorum-served read that missed the last write, or an episode that
    /// fails [`check_episode`].
    pub fn run(&self, i: u64, mode: Mode) -> Result<Sample, String> {
        let start = Instant::now();
        let seed = item_seed(self.seed, i);
        let obs = mode.handle();
        let counted = (mode != Mode::Plain).then_some(&obs);
        let _ctx = counted.map(|h| obs_local::enter(h, 0, 0));
        let sample = if mode == Mode::Traced {
            trace::begin_run();
            let mut s = self.episode(TimedBackend(Churn::backend(seed)), (seed, start), counted)?;
            let (span, counts) = trace::end_run(i, s.wall_ns);
            s.span = Some(span);
            s.counts = counts;
            s
        } else {
            self.episode(Churn::backend(seed), (seed, start), counted)?
        };
        let sample = Sample {
            obs: read_obs(&obs),
            ..sample
        };
        check_episode(&sample)?;
        Ok(sample)
    }

    /// Drives episode `seed`, started at `start`, into `b`; `obs` (when
    /// counting) is the handle installed as the thread's recording context.
    fn episode<B: NetProbe>(
        &self,
        mut b: B,
        (seed, start): (u64, Instant),
        obs: Option<&MetricsHandle>,
    ) -> Result<Sample, String> {
        let retransmits = || obs.map_or(0, |h| h.get(Counter::NetRetransmits));
        let mut mirror = Mirror::default();
        let mut s = Sample {
            ops: OPS,
            ..Sample::default()
        };
        let mut digest = 0u64;
        for op in 0..OPS {
            let r = mix(seed.wrapping_add(op));
            let me = Pid((r % CLIENTS) as usize);
            let key = self.keys[((r >> 8) % self.keys.len() as u64) as usize];
            let write = (r >> 32) % 100 < WRITE_PCT;
            let (ticks, before) = (b.ticks(), retransmits());
            let got = if write {
                let val = Value::Int(op as i64 + 1);
                b.write(me, op, key, val.clone());
                mirror.wrote(key, val);
                None
            } else {
                Some(b.read(me, op, key))
            };
            let raised = b.drain_degradations().len() as u64;
            let resolved = b.drain_resolutions();
            let failed = raised > 0 || b.degraded();
            if let Some(v) = &got {
                mirror.read(key, v, !failed)?;
                digest = mix(digest ^ value_bits(v));
            }
            s.degradations += raised;
            s.resolutions += resolved.len() as u64;
            s.mttr.extend(resolved.iter().map(|r| r.time_to_recovery()));
            s.ops_failed += u64::from(failed);
            if obs.is_some() {
                s.op_ticks.push(b.ticks() - ticks);
                s.first_round += u64::from(retransmits() == before && !failed);
            }
        }
        s.wall_ns = start.elapsed().as_nanos() as u64;
        s.msgs = Some(b.msgs());
        s.outputs = vec![Value::Int(digest as i64)];
        Ok(s)
    }
}

fn value_bits(v: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}
