//! Bounded exhaustive interleaving exploration — parallel and deterministic.
//!
//! The paper's impossibility results (Lemma 11, Theorem 12) are statements
//! about *all* schedules of *all* algorithms. For a concrete algorithm and a
//! small process count, the schedule space of the deterministic simulator is
//! a finite directed graph over run fingerprints: [`Explorer`] sweeps it with
//! a pool of work-stealing worker threads sharing a lock-striped visited set,
//! and reports
//!
//! * **safety violations** — a user predicate over reached states (e.g. "the
//!   decided outputs violate Δ"),
//! * **non-termination witnesses** — a reachable cycle in which some
//!   scheduled process is still undecided (the schedule can be pumped
//!   forever: the FLP-style "forever bivalent" adversary made concrete).
//!
//! # Semantics
//!
//! The sweep visits every state reachable through non-terminal states, where
//! a state is *terminal* iff it violates the safety predicate, every watched
//! process has stopped, or it sits at the depth limit. Terminality is a
//! property of the state alone, so the visited set — and therefore
//! [`ExploreReport::states`] — is independent of exploration order and of
//! the thread count. Violation and cycle *witness schedules* are produced by
//! cheap sequential index-order DFS passes that run only when the parallel
//! sweep has established existence, so the full report is reproducible
//! bit-for-bit across thread counts (see the determinism suite). Reports of
//! truncated explorations are best-effort: once a limit cuts the sweep short,
//! which states were reached first is scheduling-dependent.
//!
//! # Cycle detection under parallelism
//!
//! The classic "fingerprint already on my DFS path" back-edge test is only
//! sound for a *single* depth-first traversal: a cycle split between two
//! workers through the shared visited set would go undetected. Instead, the
//! sweep records the edges between live (not-all-done) states and the
//! post-pass trims nodes of out-degree zero until a fixpoint; a nonempty
//! remainder proves a cycle. Because deciding is absorbing, statuses are
//! constant along any cycle and all-done states have no out-edges, so every
//! cycle in the recorded graph is a live (pumpable, undecided) cycle.
//!
//! Fingerprints hash the full run state (memory + automata); collisions are
//! possible in principle but astronomically unlikely at the explored sizes,
//! and a collision could only cause *under*-reporting of violations, never a
//! false alarm.

use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use wfa_kernel::executor::Executor;
use wfa_kernel::value::Pid;
use wfa_obs::metrics::{Counter, HistKind, MetricsHandle};

/// Pass-through hasher for keys that are already fingerprints: run
/// fingerprints come out of a hash function, so feeding them through SipHash
/// again (the `HashMap` default) would only burn cycles on the explorer's
/// hottest path, the visited-set probe.
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("FpHasher only hashes u64 fingerprints");
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
}

type FpSet = std::collections::HashSet<u64, BuildHasherDefault<FpHasher>>;
type FpMap<V> = std::collections::HashMap<u64, V, BuildHasherDefault<FpHasher>>;

/// A state predicate: returns a violation description, or `None`.
///
/// `Sync` so the parallel sweep can evaluate it from worker threads.
pub type SafetyCheck<'a> = dyn Fn(&Executor) -> Option<String> + Sync + 'a;

/// What the exploration found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: u64,
    /// First safety violation (description + schedule that reaches it).
    pub violation: Option<(String, Vec<Pid>)>,
    /// A schedule reaching a cycle with undecided processes (pumpable
    /// forever: a non-terminating fair-looking schedule).
    pub undecided_cycle: Option<Vec<Pid>>,
    /// `true` iff exploration was truncated by limits.
    pub truncated: bool,
    /// A panic the sweep caught (from the safety check or an automaton
    /// step): the fingerprint of the state it fired at (the *parent* state
    /// for step panics) plus the stringified payload. Aborted states are
    /// terminal, so the rest of the space is still swept and the report
    /// carries partial results instead of the process dying. When several
    /// states panic, the `(fingerprint, payload)`-smallest is reported, so
    /// the field is thread-count invariant.
    pub aborted: Option<(u64, String)>,
}

impl ExploreReport {
    /// `true` iff neither a violation nor an undecided cycle was found, no
    /// panic cut a subtree short, and the exploration was exhaustive.
    pub fn fully_verified(&self) -> bool {
        self.violation.is_none()
            && self.undecided_cycle.is_none()
            && !self.truncated
            && self.aborted.is_none()
    }
}

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum distinct states to visit.
    pub max_states: u64,
    /// Maximum schedule depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_states: 2_000_000, max_depth: 10_000 }
    }
}

/// Schedule restriction: `true` iff `pid` may take the next step in this
/// state. Used to explore *constrained* interleaving families — e.g. all
/// k-concurrent schedules (§2.2): a process may step only if it already
/// participates or fewer than k participants are undecided.
///
/// `Sync` so the parallel sweep can evaluate it from worker threads.
pub type EnabledFilter<'a> = dyn Fn(&Executor, Pid) -> bool + Sync + 'a;

/// The k-concurrency filter of §2.2 over the given C-processes.
pub fn k_concurrent_filter(watched: Vec<Pid>, k: usize) -> impl Fn(&Executor, Pid) -> bool {
    move |ex: &Executor, pid: Pid| {
        if !watched.contains(&pid) {
            return true; // auxiliary processes are unconstrained
        }
        if ex.participating(pid) {
            return true; // already admitted
        }
        let undecided = watched
            .iter()
            .filter(|p| ex.participating(**p) && ex.status(**p).is_running())
            .count();
        undecided < k
    }
}

/// Exhaustive exploration of the interleavings of `pids` from the state of
/// `ex`, parallelized over a work-stealing thread pool.
pub struct Explorer<'a> {
    pids: Vec<Pid>,
    check: &'a SafetyCheck<'a>,
    limits: Limits,
    enabled: Option<&'a EnabledFilter<'a>>,
    threads: usize,
    metrics: MetricsHandle,
}

impl<'a> Explorer<'a> {
    /// Explores interleavings of `pids`, checking `check` at every state.
    ///
    /// Uses all available cores by default; see [`Explorer::threads`].
    pub fn new(pids: Vec<Pid>, check: &'a SafetyCheck<'a>, limits: Limits) -> Explorer<'a> {
        Explorer {
            pids,
            check,
            limits,
            enabled: None,
            threads: 0,
            metrics: MetricsHandle::disabled(),
        }
    }

    /// Publishes exploration counters into `metrics`: states visited, dedupe
    /// hits (both deterministic on non-truncated sweeps), steals and the
    /// shard-depth histogram (scheduling-dependent — excluded from canonical
    /// snapshots).
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Explorer<'a> {
        self.metrics = metrics;
        self
    }

    /// Restricts exploration to schedules allowed by `filter` (e.g.
    /// [`k_concurrent_filter`]): exhaustive over the constrained family.
    pub fn with_filter(mut self, filter: &'a EnabledFilter<'a>) -> Explorer<'a> {
        self.enabled = Some(filter);
        self
    }

    /// Sets the worker-thread count. `0` (the default) means one worker per
    /// available core. The report is identical for every thread count.
    pub fn threads(mut self, n: usize) -> Explorer<'a> {
        self.threads = n;
        self
    }

    /// Runs the exploration from `initial` and returns the report.
    ///
    /// The parallel sweep establishes the state count and *whether* a
    /// violation or an undecided cycle exists; witness schedules are then
    /// reconstructed by sequential index-order searches that stop at their
    /// first hit, so the same report is produced for every thread count.
    pub fn run(self, initial: &Executor) -> ExploreReport {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        let sweep = self.sweep(initial, threads);
        let mut report = ExploreReport {
            states: sweep.states,
            truncated: sweep.truncated,
            violation: None,
            undecided_cycle: None,
            aborted: sweep.aborted,
        };
        if let Some(reason) = sweep.violation {
            report.violation = Some(
                self.seek(initial, Seek::Violation)
                    .found_violation
                    // Truncated sweeps can observe a violation the bounded
                    // witness search no longer reaches; fall back to the
                    // sweep's reason without a schedule.
                    .unwrap_or((reason, Vec::new())),
            );
        }
        if sweep.cycle_exists {
            report.undecided_cycle = self.seek(initial, Seek::Cycle).found_cycle;
        }
        report
    }

    fn all_done(&self, ex: &Executor) -> bool {
        self.pids.iter().all(|p| !ex.status(*p).is_running())
    }

    fn enabled(&self, ex: &Executor, pid: Pid) -> bool {
        ex.status(pid).is_running() && self.enabled.is_none_or(|f| f(ex, pid))
    }

    // ---- phase 1: parallel work-stealing sweep ----------------------------

    fn sweep(&self, initial: &Executor, threads: usize) -> SweepOutcome {
        let shared = Shared {
            explorer: self,
            shards: (0..VISITED_SHARDS).map(|_| Mutex::new(FpSet::default())).collect(),
            states: AtomicU64::new(0),
            dedupe: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
            violation: Mutex::new(None),
            aborted: Mutex::new(None),
            frontier: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            pending: AtomicUsize::new(0),
        };
        let root_fp = initial.fingerprint();
        shared.insert(root_fp);
        shared.states.store(1, Ordering::Relaxed);
        shared.pending.store(1, Ordering::Release);
        shared
            .frontier
            .lock()
            .unwrap()
            .push_back(Job { ex: initial.clone(), fp: root_fp, depth: 0 });

        let mut edge_sets: Vec<Vec<(u64, u64)>> = Vec::new();
        if threads <= 1 {
            edge_sets.push(worker(&shared));
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..threads).map(|_| scope.spawn(|| worker(&shared))).collect();
                for h in handles {
                    match h.join() {
                        Ok(edges) => edge_sets.push(edges),
                        // Per-state panics are caught inside `expand`; a
                        // worker dying anyway (e.g. an allocation failure)
                        // still must not take the exploration down. Its
                        // pending jobs are lost, so the sweep is partial.
                        Err(payload) => {
                            record_abort(&shared.aborted, 0, payload_string(payload.as_ref()));
                            shared.truncated.store(true, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        let edges: Vec<(u64, u64)> = edge_sets.into_iter().flatten().collect();
        let states = shared.states.load(Ordering::Relaxed).min(self.limits.max_states);
        self.metrics.add(Counter::ExplorerStates, states);
        self.metrics.add(Counter::ExplorerDedupeHits, shared.dedupe.load(Ordering::Relaxed));
        self.metrics.add(Counter::ExplorerSteals, shared.steals.load(Ordering::Relaxed));
        SweepOutcome {
            states,
            truncated: shared.truncated.load(Ordering::Relaxed),
            violation: shared.violation.into_inner().unwrap(),
            aborted: shared.aborted.into_inner().unwrap(),
            cycle_exists: has_cycle(&edges),
        }
    }

    // ---- phase 2: sequential witness searches -----------------------------

    /// Depth-first index-order search for the first witness of `goal`,
    /// mirroring the sweep's terminality rules. Only invoked after the sweep
    /// proved the witness exists, so it stops early in practice.
    fn seek(&self, initial: &Executor, goal: Seek) -> Seeker<'_, 'a> {
        let mut s = Seeker {
            explorer: self,
            goal,
            seen: FpSet::default(),
            path: Vec::new(),
            schedule: Vec::new(),
            visited: 0,
            found_violation: None,
            found_cycle: None,
        };
        s.dfs(initial);
        s
    }
}

/// Convenience: explore all interleavings of every process of `ex`.
pub fn explore_all(ex: &Executor, check: &SafetyCheck<'_>, limits: Limits) -> ExploreReport {
    Explorer::new(ex.pids().collect(), check, limits).run(ex)
}

/// Stripe count of the shared visited set. A power of two well above any
/// realistic worker count, so stripe contention is negligible.
const VISITED_SHARDS: usize = 64;

/// When a worker's private stack grows past this and the global frontier has
/// run dry, the worker donates its oldest (shallowest) half for stealing.
const DONATE_THRESHOLD: usize = 4;

struct Job {
    ex: Executor,
    fp: u64,
    depth: usize,
}

struct SweepOutcome {
    states: u64,
    truncated: bool,
    violation: Option<String>,
    aborted: Option<(u64, String)>,
    cycle_exists: bool,
}

/// Stringifies a `catch_unwind` payload (panics carry `&str` or `String`).
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Records a caught panic, keeping the `(fingerprint, payload)`-smallest so
/// the reported abort is independent of which worker hit it first.
fn record_abort(slot: &Mutex<Option<(u64, String)>>, fp: u64, payload: String) {
    let mut a = slot.lock().unwrap();
    if a.as_ref().is_none_or(|(afp, ap)| (fp, &payload) < (*afp, ap)) {
        *a = Some((fp, payload));
    }
}

/// State shared by the sweep workers.
struct Shared<'e, 'a> {
    explorer: &'e Explorer<'a>,
    /// Lock-striped visited set, keyed by fingerprint.
    shards: Vec<Mutex<FpSet>>,
    states: AtomicU64,
    /// Visited-set probes that found the fingerprint already present. Each
    /// reachable edge probes exactly once, so on non-truncated sweeps this
    /// equals `edges - (states - 1)` regardless of thread count.
    dedupe: AtomicU64,
    /// Successful pops from the global frontier — scheduling-dependent.
    steals: AtomicU64,
    truncated: AtomicBool,
    /// Some violation reason observed during the sweep (used only as a
    /// fallback when the witness search is cut off by limits).
    violation: Mutex<Option<String>>,
    /// The `(fingerprint, payload)`-smallest caught panic, if any.
    aborted: Mutex<Option<(u64, String)>>,
    /// Global frontier that idle workers steal from (FIFO: shallow states
    /// first, which fan out fastest).
    frontier: Mutex<VecDeque<Job>>,
    work: Condvar,
    /// Number of enqueued-but-unfinished jobs; 0 terminates the sweep.
    pending: AtomicUsize,
}

impl Shared<'_, '_> {
    /// Inserts into the striped visited set; `true` iff `fp` is new.
    fn insert(&self, fp: u64) -> bool {
        self.shards[(fp as usize) % VISITED_SHARDS].lock().unwrap().insert(fp)
    }
}

/// Worker loop: drain the private stack, steal from the global frontier when
/// empty, exit when no job is pending anywhere. Returns the live edges this
/// worker observed (merged by the caller for cycle analysis).
fn worker(shared: &Shared<'_, '_>) -> Vec<(u64, u64)> {
    let mut local: Vec<Job> = Vec::new();
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut scratch: Vec<Pid> = Vec::new();
    loop {
        let job = match local.pop() {
            Some(job) => job,
            None => match steal(shared) {
                Some(job) => job,
                None => break,
            },
        };
        // Isolate the whole expansion: `expand` catches check/step panics
        // itself with precise attribution, but whatever else unwinds must
        // not skip the pending-count decrement below — a silently dead
        // worker would leave the others waiting on the condvar forever.
        let fp = job.fp;
        if let Err(payload) =
            catch_unwind(AssertUnwindSafe(|| expand(shared, job, &mut local, &mut edges, &mut scratch)))
        {
            record_abort(&shared.aborted, fp, payload_string(payload.as_ref()));
        }
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Pass through the frontier lock first: a stealer that read
            // `pending` before the decrement still holds it until it is
            // parked on the condvar, so the wake-up cannot fall in between.
            drop(shared.frontier.lock().unwrap());
            shared.work.notify_all();
        }
        donate(shared, &mut local);
    }
    edges
}

fn steal(shared: &Shared<'_, '_>) -> Option<Job> {
    let mut frontier = shared.frontier.lock().unwrap();
    loop {
        if let Some(job) = frontier.pop_front() {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        if shared.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        frontier = shared.work.wait(frontier).unwrap();
    }
}

/// Moves the oldest half of an oversized private stack to the global
/// frontier if it has run dry, waking idle workers.
fn donate(shared: &Shared<'_, '_>, local: &mut Vec<Job>) {
    if local.len() < DONATE_THRESHOLD {
        return;
    }
    if let Ok(mut frontier) = shared.frontier.try_lock() {
        if frontier.is_empty() {
            frontier.extend(local.drain(..local.len() / 2));
            drop(frontier);
            shared.work.notify_all();
        }
    }
}

/// Expands one state: terminality checks, then one child per enabled process
/// (in index order), deduplicated through the striped visited set.
fn expand(
    shared: &Shared<'_, '_>,
    job: Job,
    local: &mut Vec<Job>,
    edges: &mut Vec<(u64, u64)>,
    scratch: &mut Vec<Pid>,
) {
    let explorer = shared.explorer;
    let Job { ex, fp, depth } = job;
    explorer.metrics.observe(HistKind::ShardDepth, depth as u64);
    let verdict = match catch_unwind(AssertUnwindSafe(|| (explorer.check)(&ex))) {
        Ok(v) => v,
        Err(payload) => {
            record_abort(&shared.aborted, fp, payload_string(payload.as_ref()));
            return; // aborted states are terminal: the sweep continues around them
        }
    };
    if let Some(reason) = verdict {
        let mut v = shared.violation.lock().unwrap();
        if v.is_none() {
            *v = Some(reason);
        }
        return; // violating states are terminal
    }
    if explorer.all_done(&ex) {
        return;
    }
    if depth >= explorer.limits.max_depth {
        shared.truncated.store(true, Ordering::Relaxed);
        return;
    }
    scratch.clear();
    scratch.extend(explorer.pids.iter().copied().filter(|&p| explorer.enabled(&ex, p)));
    // The last child takes ownership of the parent instead of cloning it.
    let mut parent = Some(ex);
    let last = scratch.len().saturating_sub(1);
    for (i, &pid) in scratch.iter().enumerate() {
        let mut child = if i == last {
            parent.take().expect("parent consumed only by the last child")
        } else {
            parent.as_ref().expect("parent alive until the last child").clone()
        };
        // A panicking automaton step (a torn process, a buggy driver) is
        // attributed to the parent state and only prunes this child.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            child.step(pid, None);
        })) {
            record_abort(&shared.aborted, fp, payload_string(payload.as_ref()));
            continue;
        }
        let child_fp = child.fingerprint();
        if !explorer.all_done(&child) {
            edges.push((fp, child_fp));
        }
        if shared.insert(child_fp) {
            let counted = shared.states.fetch_add(1, Ordering::Relaxed) + 1;
            if counted >= explorer.limits.max_states {
                shared.truncated.store(true, Ordering::Relaxed);
                continue; // counted, but the state cap stops expansion
            }
            shared.pending.fetch_add(1, Ordering::AcqRel);
            local.push(Job { ex: child, fp: child_fp, depth: depth + 1 });
        } else {
            shared.dedupe.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// `true` iff the recorded live-edge graph contains a cycle: trim nodes of
/// out-degree zero to a fixpoint; any remainder is (or feeds) a cycle.
fn has_cycle(edges: &[(u64, u64)]) -> bool {
    if edges.is_empty() {
        return false;
    }
    let mut out_degree = FpMap::<usize>::default();
    let mut parents = FpMap::<Vec<u64>>::default();
    out_degree.reserve(edges.len());
    parents.reserve(edges.len());
    for &(u, v) in edges {
        *out_degree.entry(u).or_insert(0) += 1;
        out_degree.entry(v).or_insert(0);
        parents.entry(v).or_default().push(u);
    }
    let mut trimmed: Vec<u64> =
        out_degree.iter().filter(|(_, d)| **d == 0).map(|(n, _)| *n).collect();
    let mut remaining = out_degree.len();
    while let Some(v) = trimmed.pop() {
        remaining -= 1;
        if let Some(ps) = parents.get(&v) {
            for &p in ps {
                let d = out_degree.get_mut(&p).expect("edge source has an out-degree entry");
                *d -= 1;
                if *d == 0 {
                    trimmed.push(p);
                }
            }
        }
    }
    remaining > 0
}

/// Which witness the sequential post-pass is after.
#[derive(Clone, Copy, PartialEq)]
enum Seek {
    Violation,
    Cycle,
}

/// Sequential index-order DFS that reconstructs a deterministic witness
/// schedule (phase 2). Uses the classic on-path back-edge test for cycles —
/// sound here because this traversal is single-threaded.
struct Seeker<'e, 'a> {
    explorer: &'e Explorer<'a>,
    goal: Seek,
    seen: FpSet,
    path: Vec<u64>,
    schedule: Vec<Pid>,
    visited: u64,
    found_violation: Option<(String, Vec<Pid>)>,
    found_cycle: Option<Vec<Pid>>,
}

impl Seeker<'_, '_> {
    fn done(&self) -> bool {
        match self.goal {
            Seek::Violation => self.found_violation.is_some(),
            Seek::Cycle => self.found_cycle.is_some(),
        }
    }

    fn dfs(&mut self, ex: &Executor) {
        if self.done() {
            return;
        }
        let explorer = self.explorer;
        // A panicking check marks this state aborted-terminal, exactly as in
        // the sweep (which already recorded the abort); the witness search
        // just treats it as a dead end.
        let verdict = match catch_unwind(AssertUnwindSafe(|| (explorer.check)(ex))) {
            Ok(v) => v,
            Err(_) => return,
        };
        if let Some(reason) = verdict {
            if self.goal == Seek::Violation {
                self.found_violation = Some((reason, self.schedule.clone()));
            }
            return; // violating states are terminal, as in the sweep
        }
        let fp = ex.fingerprint();
        if self.goal == Seek::Cycle && self.path.contains(&fp) {
            if !explorer.all_done(ex) {
                self.found_cycle = Some(self.schedule.clone());
            }
            return;
        }
        if !self.seen.insert(fp) {
            return; // visited via another schedule
        }
        self.visited += 1;
        if self.visited >= explorer.limits.max_states
            || self.schedule.len() >= explorer.limits.max_depth
            || explorer.all_done(ex)
        {
            return;
        }
        self.path.push(fp);
        for i in 0..explorer.pids.len() {
            let pid = explorer.pids[i];
            if !explorer.enabled(ex, pid) {
                continue;
            }
            let mut child = ex.clone();
            if catch_unwind(AssertUnwindSafe(|| {
                child.step(pid, None);
            })).is_err() {
                continue; // pruned in the sweep too (abort already recorded)
            }
            self.schedule.push(pid);
            self.dfs(&child);
            self.schedule.pop();
            if self.done() {
                break;
            }
        }
        self.path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_kernel::memory::RegKey;
    use wfa_kernel::process::{Process, Status, StepCtx};
    use wfa_kernel::value::Value;

    /// Increments a shared counter `n` times, then decides its final read.
    #[derive(Clone, Hash)]
    struct RacyCounter {
        left: u32,
        val: i64,
        reading: bool,
    }

    impl Process for RacyCounter {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            let k = RegKey::new(1);
            if self.reading {
                self.val = ctx.read(k).as_int().unwrap_or(0);
                self.reading = false;
                if self.left == 0 {
                    return Status::Decided(Value::Int(self.val));
                }
            } else {
                ctx.write(k, Value::Int(self.val + 1));
                self.left -= 1;
                self.reading = true;
            }
            Status::Running
        }
    }

    fn two_counters(n: u32) -> Executor {
        let mut ex = Executor::new();
        for _ in 0..2 {
            ex.add_process(Box::new(RacyCounter { left: n, val: 0, reading: true }));
        }
        ex
    }

    #[test]
    fn explores_all_interleavings() {
        let ex = two_counters(2);
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        assert!(report.fully_verified());
        // Non-trivial state count: more than one path.
        assert!(report.states > 10, "{report:?}");
    }

    #[test]
    fn finds_violating_interleaving() {
        // "Lost update": with both counters doing 1 increment, some
        // interleaving lets a process decide 1 even though 2 increments
        // happened — search for a state where someone decided 1.
        let ex = two_counters(1);
        let check = |ex: &Executor| {
            let both_done = ex.pids().all(|p| !ex.status(p).is_running());
            let lost = ex
                .pids()
                .filter_map(|p| ex.status(p).decision())
                .all(|v| *v == Value::Int(1));
            (both_done && lost).then(|| "lost update".to_string())
        };
        let report = explore_all(&ex, &check, Limits::default());
        let (reason, sched) = report.violation.expect("lost update must be reachable");
        assert_eq!(reason, "lost update");
        assert!(!sched.is_empty());
    }

    /// Spins forever flipping a register.
    #[derive(Clone, Hash)]
    struct Spinner;

    impl Process for Spinner {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            let k = RegKey::new(2);
            let v = ctx.read(k).as_int().unwrap_or(0);
            let _ = v;
            Status::Running
        }
    }

    #[test]
    fn detects_undecided_cycles() {
        let mut ex = Executor::new();
        ex.add_process(Box::new(Spinner));
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        assert!(report.undecided_cycle.is_some(), "{report:?}");
    }

    #[test]
    fn limits_truncate() {
        let ex = two_counters(8);
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits { max_states: 50, max_depth: 10_000 });
        assert!(report.truncated);
        assert!(report.states <= 50);
    }

    #[test]
    fn replaying_the_violation_schedule_reproduces_it() {
        let ex = two_counters(1);
        let check = |ex: &Executor| {
            let both_done = ex.pids().all(|p| !ex.status(p).is_running());
            let lost = ex
                .pids()
                .filter_map(|p| ex.status(p).decision())
                .all(|v| *v == Value::Int(1));
            (both_done && lost).then(|| "lost update".to_string())
        };
        let report = explore_all(&ex, &check, Limits::default());
        let (_, sched) = report.violation.unwrap();
        let mut replay = ex.clone();
        for pid in &sched {
            replay.step(*pid, None);
        }
        assert!(check(&replay).is_some(), "schedule replay did not reproduce the violation");
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let ex = two_counters(2);
        let check = |ex: &Executor| {
            let both_done = ex.pids().all(|p| !ex.status(p).is_running());
            let lost = ex
                .pids()
                .filter_map(|p| ex.status(p).decision())
                .all(|v| *v == Value::Int(1));
            (both_done && lost).then(|| "lost update".to_string())
        };
        let base = Explorer::new(ex.pids().collect(), &check, Limits::default())
            .threads(1)
            .run(&ex);
        for threads in [2, 4, 8] {
            let r = Explorer::new(ex.pids().collect(), &check, Limits::default())
                .threads(threads)
                .run(&ex);
            assert_eq!(r.states, base.states, "threads={threads}");
            assert_eq!(r.violation, base.violation, "threads={threads}");
            assert_eq!(r.undecided_cycle, base.undecided_cycle, "threads={threads}");
            assert_eq!(r.truncated, base.truncated, "threads={threads}");
        }
    }

    #[test]
    fn cycle_analysis_has_no_false_positive_on_dags() {
        // two_counters terminates on every schedule: the state graph is a
        // DAG, so no undecided cycle may be reported.
        let ex = two_counters(2);
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        assert!(report.undecided_cycle.is_none(), "{report:?}");
    }

    /// A safety check that panics when any process has decided — every
    /// complete interleaving eventually trips it.
    fn panicky_check(ex: &Executor) -> Option<String> {
        if ex.pids().any(|p| ex.status(p).decision().is_some()) {
            panic!("safety check exploded");
        }
        None
    }

    #[test]
    fn panicking_check_aborts_partially_instead_of_crashing() {
        let ex = two_counters(1);
        let report = explore_all(&ex, &panicky_check, Limits::default());
        let (fp, payload) = report.aborted.clone().expect("panic must be captured");
        assert!(payload.contains("safety check exploded"), "{payload}");
        assert!(fp != 0);
        // Partial results survive: the non-decided part of the space was
        // still swept.
        assert!(report.states > 5, "{report:?}");
        assert!(!report.fully_verified());
    }

    #[test]
    fn aborted_is_thread_count_invariant() {
        let ex = two_counters(2);
        let base = Explorer::new(ex.pids().collect(), &panicky_check, Limits::default())
            .threads(1)
            .run(&ex);
        assert!(base.aborted.is_some());
        for threads in [2, 8] {
            let r = Explorer::new(ex.pids().collect(), &panicky_check, Limits::default())
                .threads(threads)
                .run(&ex);
            assert_eq!(r.aborted, base.aborted, "threads={threads}");
            assert_eq!(r.states, base.states, "threads={threads}");
        }
    }

    /// Steps fine `fuse` times, then panics: a torn automaton.
    #[derive(Clone, Hash)]
    struct Grenade {
        fuse: u32,
    }

    impl Process for Grenade {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Status {
            if self.fuse == 0 {
                panic!("automaton tore");
            }
            self.fuse -= 1;
            Status::Running
        }
    }

    #[test]
    fn panicking_step_is_attributed_to_the_parent_state() {
        let mut ex = Executor::new();
        ex.add_process(Box::new(RacyCounter { left: 1, val: 0, reading: true }));
        ex.add_process(Box::new(Grenade { fuse: 2 }));
        let check = |_: &Executor| None;
        let report = explore_all(&ex, &check, Limits::default());
        let (fp, payload) = report.aborted.clone().expect("step panic must be captured");
        assert!(payload.contains("automaton tore"), "{payload}");
        assert!(fp != 0);
        // The counter's own interleavings were still explored.
        assert!(report.states > 3, "{report:?}");
    }

    #[test]
    fn canonical_metrics_are_thread_count_invariant() {
        let ex = two_counters(2);
        let check = |_: &Executor| None;
        let mut snaps = Vec::new();
        for threads in [1usize, 4] {
            let m = MetricsHandle::counters();
            Explorer::new(ex.pids().collect(), &check, Limits::default())
                .threads(threads)
                .with_metrics(m.clone())
                .run(&ex);
            snaps.push(m.snapshot().expect("enabled handle snapshots"));
        }
        // The canonical snapshot strips steals and shard depths, so it must
        // not depend on the worker count.
        assert_eq!(snaps[0].to_json().to_string(), snaps[1].to_json().to_string());
        assert!(snaps[0].counter("explorer_states").unwrap_or(0) > 10, "{:?}", snaps[0]);
        assert!(snaps[0].counter("explorer_dedupe_hits").unwrap_or(0) > 0, "{:?}", snaps[0]);
    }

    #[test]
    fn trimming_finds_cycles() {
        assert!(!has_cycle(&[]));
        assert!(!has_cycle(&[(1, 2), (2, 3), (1, 3)]));
        assert!(has_cycle(&[(1, 2), (2, 1)]));
        assert!(has_cycle(&[(1, 1)]));
        // Cycle with a tail feeding it and a branch leaving it.
        assert!(has_cycle(&[(0, 1), (1, 2), (2, 3), (3, 1), (2, 9)]));
    }
}
