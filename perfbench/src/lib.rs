//! The repository benchmark: four workloads over the wait-freedom-with-advice
//! crates, one command, end-to-end metrics untraced and per-layer metrics
//! from a separate traced run.
//!
//! * `ensemble` — Theorem-9 k-set agreement through `wait_freedom_ensemble`
//!   on shared memory (see [`ensemble`]).
//! * `ksa_abd`, `ksa_gossip` — closed-loop EFD k-set agreement runs to
//!   decision over the ABD and gossip register backends (see [`ksa`]).
//! * `abd_churn` — a write-heavy op stream straight into an ABD backend under
//!   a seeded fault timeline (see [`churn`]).
//!
//! Every workload is a sequence of *items* (one run or one churn episode)
//! whose inputs derive from the workload seed and the item index. Each item
//! runs in one of three [`Mode`]s; all three must agree on every logical
//! count of the item ([`Sample::logical`]).

pub mod churn;
pub mod clock;
pub mod ensemble;
pub mod ksa;
pub mod measure;
pub mod stats;
pub mod trace;

use wfa_kernel::value::Value;
use wfa_obs::metrics::{Counter, MetricsHandle};

/// How an item is run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The program as a user runs it: no wrappers, observability disabled.
    Plain,
    /// No wrappers, `wfa-obs` counters enabled.
    Obs,
    /// Pass-through timing wrappers on every layer seam, counters enabled.
    Traced,
}

impl Mode {
    /// The observability handle this mode runs with.
    pub fn handle(self) -> MetricsHandle {
        match self {
            Mode::Plain => MetricsHandle::disabled(),
            Mode::Obs | Mode::Traced => MetricsHandle::counters(),
        }
    }
}

/// The `wfa-obs` counters the benchmark reads after a run.
pub const OBS_COUNTERS: [Counter; 11] = [
    Counter::NetMsgsSent,
    Counter::NetMsgsDelivered,
    Counter::NetMsgsDropped,
    Counter::NetRetransmits,
    Counter::NetResyncMsgs,
    Counter::NetQuorumLost,
    Counter::NetDegradationsResolved,
    Counter::NetGossipRounds,
    Counter::NetGossipDeltasSent,
    Counter::NetGossipDigestHits,
    Counter::NetGossipStaleReads,
];

/// Reads [`OBS_COUNTERS`] from `obs`.
pub fn read_obs(obs: &MetricsHandle) -> [u64; 11] {
    OBS_COUNTERS.map(|c| obs.get(c))
}

/// The value of counter `c` in a [`read_obs`] array.
pub fn obs_of(obs: &[u64; 11], c: Counter) -> u64 {
    OBS_COUNTERS
        .iter()
        .position(|x| *x == c)
        .map_or(0, |i| obs[i])
}

/// What one item did. Fields that a workload or mode cannot observe stay at
/// their defaults.
#[derive(Clone, Default, Debug)]
pub struct Sample {
    /// Wall time of the item, in ns.
    pub wall_ns: u64,
    /// The C-process output vectors (EFD runs) or a digest of every value
    /// read (churn episodes).
    pub outputs: Vec<Value>,
    /// Own steps each decided C-process took.
    pub own_steps: Vec<u64>,
    /// Schedule slots the harness ran.
    pub slots: u64,
    /// Messages the backend sent (`None` where the mode cannot see them).
    pub msgs: Option<u64>,
    /// Register ops issued to a backend.
    pub ops: u64,
    /// Ops not served by a live quorum.
    pub ops_failed: u64,
    /// Ops served in their first quorum round.
    pub first_round: u64,
    /// Network ticks of each backend op.
    pub op_ticks: Vec<u64>,
    /// Time-to-recovery of each resolved degradation, in ticks.
    pub mttr: Vec<u64>,
    /// Degradations raised.
    pub degradations: u64,
    /// Degradations resolved.
    pub resolutions: u64,
    /// [`OBS_COUNTERS`] after the item (zeros in `Plain` mode).
    pub obs: [u64; 11],
    /// Wrapper counts (traced mode only).
    pub counts: trace::Counts,
    /// The item's run span (traced mode only).
    pub span: Option<trace::RunSpan>,
}

impl Sample {
    /// The logical outcome every mode must reproduce exactly: outputs, own
    /// steps, slots run and ops issued ([`same_outcome`] adds messages sent
    /// where both modes see them).
    pub fn logical(&self) -> (Vec<Value>, Vec<u64>, u64, u64) {
        (
            self.outputs.clone(),
            self.own_steps.clone(),
            self.slots,
            self.ops,
        )
    }
}

/// Checks that two samples of the same item agree on every logical count.
pub fn same_outcome(a: &Sample, b: &Sample) -> Result<(), String> {
    if a.logical() != b.logical() {
        return Err(format!(
            "modes disagree: {:?} vs {:?}",
            a.logical(),
            b.logical()
        ));
    }
    if let (Some(x), Some(y)) = (a.msgs, b.msgs) {
        if x != y {
            return Err(format!("modes disagree on messages sent: {x} vs {y}"));
        }
    }
    Ok(())
}

/// The splitmix64 finalizer: every input the benchmark generates derives
/// from the workload seed through it.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of item `i` of a workload run with `seed`.
pub fn item_seed(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i.wrapping_add(0x5eed)))
}
