//! The run executor.
//!
//! A run of the paper's model is a tuple ⟨F, H, I, Sch, T⟩ (§2.1): a failure
//! pattern, a failure-detector history, an initial state, a schedule and a
//! time sequence. [`Executor`] holds the initial-state-plus-progress part
//! (process automata and shared memory) and exposes a single primitive,
//! [`Executor::step`], that performs the k-th step of a schedule: it runs one
//! step of one process at the current logical time with a given
//! failure-detector value. Schedules (`Sch`), failure patterns (`F`) and
//! histories (`H`) are supplied by the layers above (schedulers in
//! [`crate::sched`], failure detectors in `wfa-fd`, the EFD harness in
//! `wfa-core`).
//!
//! The executor is `Clone`, and the complete run state is hashable via
//! [`Executor::fingerprint`] — the two properties the bounded model checker
//! needs to explore interleavings.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wfa_obs::metrics::{Counter, MetricsHandle};
use wfa_obs::span::{seq, EventKind, ObsEvent, Op};
use wfa_obs::{local as obs_local};

use crate::backend::{Degradation, MemoryBackend, Resolution};
use crate::memory::SharedMemory;
use crate::process::{DynProcess, Status, StepCtx};
use crate::trace::{Trace, TraceEvent};
use crate::value::{Pid, Value};

/// One registered process and its run-local bookkeeping.
///
/// The automaton sits behind an [`Arc`] so that cloning an executor (which
/// the model checker does at every branch point) is a reference-count bump
/// per process; the automaton state is only deep-copied when a shared slot
/// actually takes a step (copy-on-write).
struct Slot {
    proc: Arc<dyn DynProcess>,
    status: Status,
    steps: u64,
    /// Logical time of the step at which the process decided, if it has.
    decided_at: Option<u64>,
    /// Cached [`slot_fp`], or [`UNHASHED`]. Filled on demand by
    /// [`Executor::fingerprint`], cleared by each effective step, inherited
    /// by forks. Atomic only so `fingerprint(&self)` can fill it: relaxed
    /// ops cost what plain ones do, while a `OnceLock` re-runs its
    /// initialization on every clone (and the explorer clones per child).
    /// `Relaxed` suffices because the value publishes no other data: a
    /// racing reader that still sees `UNHASHED` computes the same hash.
    fp: AtomicU64,
}

/// The empty cache value. A slot whose hash really is 0 is simply rehashed
/// on every call; the fingerprint is the same either way.
const UNHASHED: u64 = 0;

impl Slot {
    /// This slot's hash, from the cache or computed and cached.
    fn fingerprint(&self, index: usize) -> u64 {
        match self.fp.load(Ordering::Relaxed) {
            UNHASHED => {
                let fp = slot_fp(index, &self.status, &*self.proc);
                self.fp.store(fp, Ordering::Relaxed);
                fp
            }
            fp => fp,
        }
    }
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        Slot {
            proc: self.proc.clone(),
            status: self.status.clone(),
            steps: self.steps,
            decided_at: self.decided_at,
            fp: AtomicU64::new(self.fp.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("proc", &self.proc.label())
            .field("status", &self.status)
            .field("steps", &self.steps)
            .finish()
    }
}

/// Hash of one slot's observable state, salted with its index so two slots
/// in the same local state don't cancel under XOR combination.
fn slot_fp(index: usize, status: &Status, proc: &dyn DynProcess) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    index.hash(&mut h);
    status.hash(&mut h);
    proc.fingerprint(&mut h);
    h.finish()
}

/// Holds the evolving state of a run and performs schedule steps.
///
/// # Examples
///
/// ```
/// use wfa_kernel::executor::Executor;
/// use wfa_kernel::process::{Process, Status, StepCtx};
/// use wfa_kernel::memory::RegKey;
/// use wfa_kernel::value::Value;
///
/// #[derive(Clone, Hash)]
/// struct Echo(i64);
/// impl Process for Echo {
///     fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Status {
///         Status::Decided(Value::Int(self.0))
///     }
/// }
///
/// let mut ex = Executor::new();
/// let p = ex.add_process(Box::new(Echo(5)));
/// ex.step(p, None);
/// assert_eq!(ex.status(p).decision(), Some(&Value::Int(5)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Executor {
    mem: SharedMemory,
    /// When set, register operations route through this backend instead of
    /// `mem` (see [`crate::backend`]); `None` is the base shared-memory
    /// model and pays nothing.
    backend: Option<Box<dyn MemoryBackend>>,
    slots: Vec<Slot>,
    clock: u64,
    trace: Option<Trace>,
    /// Structured degradations drained from the backend after each step, in
    /// step order. An observation stream like `trace` — excluded from
    /// [`Executor::fingerprint`].
    degradations: Vec<Degradation>,
    /// Matching degradation-resolved records, in step order — the closing
    /// half of the lifecycle `degradations` opens. Same discipline: an
    /// observation stream excluded from [`Executor::fingerprint`].
    resolutions: Vec<Resolution>,
    /// Observability sink; the default (disabled) handle costs one branch
    /// per step. Excluded from [`Executor::fingerprint`] — metrics are an
    /// observer, not run state.
    obs: MetricsHandle,
}

impl Executor {
    /// Creates an executor with empty memory and no processes.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Registers a process; its [`Pid`] is its registration index.
    pub fn add_process(&mut self, proc: Box<dyn DynProcess>) -> Pid {
        let index = self.slots.len();
        self.slots.push(Slot {
            proc: Arc::from(proc),
            status: Status::Running,
            steps: 0,
            decided_at: None,
            fp: AtomicU64::new(UNHASHED),
        });
        Pid(index)
    }

    /// Number of registered processes.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// All process ids, in registration order.
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        (0..self.slots.len()).map(Pid)
    }

    /// The current logical time (number of schedule steps performed).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The shared register contents (for verifiers; processes go through
    /// [`StepCtx`]). With a backend installed this is the backend's
    /// linearized view, so verifiers work unchanged across substrates.
    pub fn memory(&self) -> &SharedMemory {
        match &self.backend {
            Some(b) => b.view(),
            None => &self.mem,
        }
    }

    /// Installs a register backend; all subsequent steps route their memory
    /// operations through it. The executor's own `SharedMemory` is left
    /// untouched (and empty, unless steps ran before the install).
    pub fn set_backend(&mut self, backend: Box<dyn MemoryBackend>) {
        self.backend = Some(backend);
    }

    /// The installed register backend, if any.
    pub fn backend(&self) -> Option<&dyn MemoryBackend> {
        self.backend.as_deref()
    }

    /// Structured degradations the backend raised during this run, in step
    /// order (empty for backends that never degrade, and always empty for
    /// the `None` shared-memory path).
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    /// Degradation-resolved records the backend emitted during this run, in
    /// step order. Each closes a degraded spell surfaced through
    /// [`Executor::degradations`]; reports expose them as `recoveries`.
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }

    /// Current status of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not returned by [`Executor::add_process`].
    pub fn status(&self, pid: Pid) -> &Status {
        &self.slots[pid.0].status
    }

    /// Number of effective steps `pid` has taken.
    pub fn steps(&self, pid: Pid) -> u64 {
        self.slots[pid.0].steps
    }

    /// Logical time of the step at which `pid` decided, or `None` while it
    /// is undecided.
    pub fn decided_at(&self, pid: Pid) -> Option<u64> {
        self.slots[pid.0].decided_at
    }

    /// `true` iff `pid` has taken at least one step (is *participating*).
    pub fn participating(&self, pid: Pid) -> bool {
        self.slots[pid.0].steps > 0
    }

    /// Label of the automaton behind `pid`.
    pub fn label(&self, pid: Pid) -> String {
        self.slots[pid.0].proc.label()
    }

    /// Performs one schedule step of `pid` with failure-detector value `fd`.
    ///
    /// A step of a decided or halted process is a *null step*: the logical
    /// clock advances, but nothing else changes (§2.2). Returns the status
    /// after the step.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown or the process performs more than one
    /// memory operation.
    pub fn step(&mut self, pid: Pid, fd: Option<&Value>) -> &Status {
        let now = self.clock;
        self.clock += 1;
        let obs = self.obs.clone();
        let slot = &mut self.slots[pid.0];
        if slot.status.is_running() {
            slot.steps += 1;
            // Copy-on-write: materialize a private automaton only if the Arc
            // is shared with a forked run.
            if Arc::get_mut(&mut slot.proc).is_none() {
                slot.proc = slot.proc.clone_arc();
            }
            let proc = Arc::get_mut(&mut slot.proc).expect("uniquely owned after copy-on-write");
            let mut ctx = match &mut self.backend {
                Some(b) => StepCtx::with_backend(b.as_mut(), fd, now, pid, 1),
                None => StepCtx::new(&mut self.mem, fd, now, pid, 1),
            };
            slot.status = if obs.is_enabled() {
                // Install the recording context so automata (which cannot
                // hold a handle — they must stay `Clone + Hash`) can record
                // advice/simulation events through `wfa_obs::local`.
                let _guard = obs_local::enter(&obs, now, pid.0 as u32);
                proc.step(&mut ctx)
            } else {
                proc.step(&mut ctx)
            };
            *slot.fp.get_mut() = UNHASHED;
            let decided = matches!(slot.status, Status::Decided(_));
            if decided {
                slot.decided_at = Some(now);
            }
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent { time: now, pid, op: ctx.last_op(), decided });
            }
            if obs.is_enabled() {
                let op = Op::from(ctx.last_op());
                obs.bump(Counter::EffectiveSteps);
                obs.bump(match op {
                    Op::None => Counter::OpNone,
                    Op::Read { .. } => Counter::OpReads,
                    Op::Write { .. } => Counter::OpWrites,
                    Op::Snapshot(_) => Counter::OpSnapshots,
                });
                if decided {
                    obs.bump(Counter::Decisions);
                }
                obs.record(ObsEvent {
                    time: now,
                    pid: pid.0 as u32,
                    seq: seq::STEP,
                    kind: EventKind::Step { op, decided },
                });
            }
            if let Some(b) = &mut self.backend {
                let mut raised = b.drain_degradations();
                if !raised.is_empty() {
                    self.degradations.append(&mut raised);
                }
                let mut resolved = b.drain_resolutions();
                if !resolved.is_empty() {
                    self.resolutions.append(&mut resolved);
                }
            }
        } else {
            obs.bump(Counter::NullSteps);
        }
        &self.slots[pid.0].status
    }

    /// Enables event tracing, retaining the last `cap` effective steps.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(Trace::new(cap));
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Attaches an observability handle; every subsequent step records
    /// counters (and events, when the handle retains them) into it.
    pub fn set_metrics(&mut self, obs: MetricsHandle) {
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.obs
    }

    /// `true` iff every process in `among` has decided.
    pub fn all_decided<I: IntoIterator<Item = Pid>>(&self, among: I) -> bool {
        among
            .into_iter()
            .all(|p| matches!(self.slots[p.0].status, Status::Decided(_)))
    }

    /// `true` iff no process in the run can still take effective steps.
    pub fn quiescent(&self) -> bool {
        self.slots.iter().all(|s| !s.status.is_running())
    }

    /// The output vector of the run: `O[i]` is `pid` i's decision, or `⊥`
    /// while undecided (§2.2).
    pub fn output_vector(&self) -> Vec<Value> {
        self.slots
            .iter()
            .map(|s| s.status.decision().cloned().unwrap_or(Value::Unit))
            .collect()
    }

    /// Hashes the complete run state (memory, process states, statuses).
    ///
    /// The clock and step counters are excluded: two runs that reach the same
    /// configuration by different-length schedules are the same state for
    /// exploration purposes.
    ///
    /// The memory side is maintained incrementally on each register write.
    /// The process side is the XOR of per-slot hashes, each cached until the
    /// slot's next effective step: a call rehashes only the automata that
    /// stepped since the last call (or since the fork they were cloned in),
    /// and costs O(#processes) when none did.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        match &self.backend {
            Some(b) => b.fingerprint(&mut h),
            None => self.mem.fingerprint(&mut h),
        }
        let procs_fp = self.slots.iter().enumerate().fold(0, |acc, (i, s)| acc ^ s.fingerprint(i));
        procs_fp.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::RegKey;
    use crate::process::Process;

    #[derive(Clone, Hash)]
    struct WriteThenDecide {
        reg: u32,
        val: i64,
        wrote: bool,
    }

    impl Process for WriteThenDecide {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            if !self.wrote {
                self.wrote = true;
                ctx.write(RegKey::new(0).at(0, self.reg), Value::Int(self.val));
                Status::Running
            } else {
                Status::Decided(Value::Int(self.val))
            }
        }
    }

    fn two_proc_exec() -> Executor {
        let mut ex = Executor::new();
        ex.add_process(Box::new(WriteThenDecide { reg: 0, val: 10, wrote: false }));
        ex.add_process(Box::new(WriteThenDecide { reg: 1, val: 20, wrote: false }));
        ex
    }

    #[test]
    fn stepping_advances_clock_and_counts() {
        let mut ex = two_proc_exec();
        assert_eq!(ex.clock(), 0);
        ex.step(Pid(0), None);
        ex.step(Pid(1), None);
        ex.step(Pid(0), None);
        assert_eq!(ex.clock(), 3);
        assert_eq!(ex.steps(Pid(0)), 2);
        assert_eq!(ex.steps(Pid(1)), 1);
        assert!(ex.participating(Pid(1)));
    }

    #[test]
    fn decided_processes_take_null_steps() {
        let mut ex = two_proc_exec();
        ex.step(Pid(0), None);
        ex.step(Pid(0), None);
        assert_eq!(ex.status(Pid(0)).decision(), Some(&Value::Int(10)));
        let steps = ex.steps(Pid(0));
        let fp = ex.fingerprint();
        ex.step(Pid(0), None); // null step
        assert_eq!(ex.steps(Pid(0)), steps);
        assert_eq!(ex.fingerprint(), fp);
        assert_eq!(ex.clock(), 3); // clock still advances
    }

    #[test]
    fn output_vector_tracks_decisions() {
        let mut ex = two_proc_exec();
        assert_eq!(ex.output_vector(), vec![Value::Unit, Value::Unit]);
        ex.step(Pid(0), None);
        ex.step(Pid(0), None);
        assert_eq!(ex.output_vector(), vec![Value::Int(10), Value::Unit]);
        assert!(!ex.all_decided([Pid(0), Pid(1)]));
        assert!(ex.all_decided([Pid(0)]));
    }

    #[test]
    fn quiescence() {
        let mut ex = two_proc_exec();
        for _ in 0..2 {
            ex.step(Pid(0), None);
            ex.step(Pid(1), None);
        }
        assert!(ex.quiescent());
    }

    #[test]
    fn clone_forks_the_run() {
        let mut ex = two_proc_exec();
        ex.step(Pid(0), None);
        let mut fork = ex.clone();
        fork.step(Pid(1), None);
        assert_ne!(ex.fingerprint(), fork.fingerprint());
        ex.step(Pid(1), None);
        assert_eq!(ex.fingerprint(), fork.fingerprint());
    }

    #[test]
    fn decided_at_records_the_deciding_slot() {
        let mut ex = two_proc_exec();
        ex.step(Pid(0), None);
        ex.step(Pid(1), None);
        ex.step(Pid(1), None);
        ex.step(Pid(1), None); // null step: the decision time stays put
        assert_eq!(ex.decided_at(Pid(0)), None);
        assert_eq!(ex.decided_at(Pid(1)), Some(2));
    }

    /// Counts up in its own register and halts at `limit`.
    #[derive(Clone, Hash)]
    struct Counter {
        reg: u32,
        n: i64,
        limit: i64,
    }

    impl Process for Counter {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            self.n += 1;
            ctx.write(RegKey::new(1).at(0, self.reg), Value::Int(self.n));
            if self.n == self.limit {
                Status::Halted
            } else {
                Status::Running
            }
        }
    }

    /// Snapshots `regs` registers, remembers their sum and writes it back
    /// (or clears its cell, writing `⊥`, when the sum is even); decides after
    /// `rounds` snapshots.
    #[derive(Clone, Hash)]
    struct Summer {
        regs: u32,
        sum: i64,
        rounds: u32,
        wrote: bool,
    }

    impl Process for Summer {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            if self.wrote {
                let keys: Vec<RegKey> = (0..self.regs).map(|i| RegKey::new(1).at(0, i)).collect();
                self.sum = ctx.snapshot(&keys).iter().filter_map(Value::as_int).sum();
                self.rounds -= 1;
                self.wrote = false;
                if self.rounds == 0 {
                    return Status::Decided(Value::Int(self.sum));
                }
                return Status::Running;
            }
            let val = if self.sum % 2 == 0 { Value::Unit } else { Value::Int(self.sum) };
            ctx.write(RegKey::new(2), val);
            self.wrote = true;
            Status::Running
        }
    }

    /// The fingerprint rebuilt from nothing: memory replayed into a fresh
    /// register file, every slot hashed anew.
    fn rehash(ex: &Executor) -> u64 {
        let mut mem = SharedMemory::new();
        for (k, v) in ex.memory().iter() {
            mem.write(*k, v.clone());
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        mem.fingerprint(&mut h);
        let procs =
            ex.slots.iter().enumerate().fold(0u64, |acc, (i, s)| acc ^ slot_fp(i, &s.status, &*s.proc));
        procs.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cached_fingerprint_matches_a_full_rehash() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ex = Executor::new();
            ex.add_process(Box::new(WriteThenDecide { reg: 0, val: 7, wrote: false }));
            ex.add_process(Box::new(Counter { reg: 1, n: 0, limit: 9 }));
            ex.add_process(Box::new(Counter { reg: 2, n: 3, limit: 15 }));
            ex.add_process(Box::new(Summer { regs: 3, sum: 0, rounds: 6, wrote: false }));
            let mut runs = vec![ex];
            for _ in 0..60 {
                let r = rng.gen_range(0..runs.len());
                if runs.len() < 4 && rng.gen_range(0..8) == 0 {
                    // Fork; both sides then step on independently.
                    let fork = runs[r].clone();
                    assert_eq!(fork.fingerprint(), runs[r].fingerprint());
                    runs.push(fork);
                    continue;
                }
                let pid = Pid(rng.gen_range(0..runs[r].n()));
                runs[r].step(pid, None);
                // Ask only sometimes, so caches also go stale across steps.
                if rng.gen_range(0..2) == 0 {
                    for ex in &runs {
                        assert_eq!(ex.fingerprint(), rehash(ex), "seed {seed}");
                    }
                }
            }
            for ex in &runs {
                assert_eq!(ex.fingerprint(), rehash(ex), "seed {seed}");
            }
        }
    }

    #[test]
    fn fingerprint_ignores_schedule_length() {
        let mut a = two_proc_exec();
        let mut b = two_proc_exec();
        a.step(Pid(0), None);
        b.step(Pid(0), None);
        b.step(Pid(0), None); // extra step changes state (decides)
        assert_ne!(a.fingerprint(), b.fingerprint());
        a.step(Pid(0), None);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
