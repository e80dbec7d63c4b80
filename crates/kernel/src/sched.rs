//! Schedules and schedule generators.
//!
//! A schedule `Sch` is an infinite sequence of process ids (§2.1). A
//! [`Scheduler`] generates it lazily, observing the evolving run (so it can
//! express *k-concurrent* runs, adversarial starvation, and fairness). The
//! free function [`run_schedule`] drives an [`Executor`] under a scheduler
//! and a [`StepEnv`] (which supplies failure-detector values and crash
//! information) until a stop condition.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wfa_obs::metrics::Counter;
use wfa_obs::span::{seq, EventKind, ObsEvent};

use crate::executor::Executor;
use crate::value::{Pid, Value};

/// Lazily generates the schedule of a run.
pub trait Scheduler {
    /// Picks the process to take the next step, or `None` to end the run
    /// (e.g. all interesting processes decided).
    fn next(&mut self, ex: &Executor) -> Option<Pid>;
}

/// Fixed rotation over a set of processes, skipping non-running ones.
///
/// Generates fair schedules: every running process appears infinitely often.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    order: Vec<Pid>,
    pos: usize,
}

impl RoundRobin {
    /// Rotates over `order` (a process may appear multiple times to get a
    /// larger share of steps).
    pub fn new<I: IntoIterator<Item = Pid>>(order: I) -> RoundRobin {
        RoundRobin { order: order.into_iter().collect(), pos: 0 }
    }

    /// Rotates over all processes of `ex`.
    pub fn over_all(ex: &Executor) -> RoundRobin {
        RoundRobin::new(ex.pids())
    }
}

impl Scheduler for RoundRobin {
    fn next(&mut self, ex: &Executor) -> Option<Pid> {
        for _ in 0..self.order.len() {
            let p = self.order[self.pos];
            self.pos = (self.pos + 1) % self.order.len();
            if ex.status(p).is_running() {
                return Some(p);
            }
        }
        None
    }
}

/// Uniformly random fair scheduler (seeded, deterministic).
///
/// Over long runs every running process is scheduled infinitely often with
/// probability 1, so bounded prefixes of its schedules approximate fair runs.
#[derive(Clone, Debug)]
pub struct RandomSched {
    pids: Vec<Pid>,
    rng: SmallRng,
}

impl RandomSched {
    /// Random schedules over `pids`, driven by `seed`.
    pub fn new<I: IntoIterator<Item = Pid>>(pids: I, seed: u64) -> RandomSched {
        RandomSched { pids: pids.into_iter().collect(), rng: SmallRng::seed_from_u64(seed) }
    }

    /// Random schedules over all processes of `ex`.
    pub fn over_all(ex: &Executor, seed: u64) -> RandomSched {
        RandomSched::new(ex.pids(), seed)
    }
}

impl Scheduler for RandomSched {
    fn next(&mut self, ex: &Executor) -> Option<Pid> {
        let running: Vec<Pid> = self.pids.iter().copied().filter(|p| ex.status(*p).is_running()).collect();
        if running.is_empty() {
            return None;
        }
        Some(running[self.rng.gen_range(0..running.len())])
    }
}

/// Generates *k-concurrent* runs (§2.2): at every moment at most `k`
/// participating-but-undecided C-processes take steps.
///
/// C-processes are admitted in `arrival` order; a new process is admitted
/// only while fewer than `k` admitted processes are undecided. Auxiliary
/// processes (S-processes or helpers) in `aux` are interleaved fairly and do
/// not count towards the concurrency bound — only C-processes do (the bound
/// in the paper is on participating undecided *C-processes*).
#[derive(Clone, Debug)]
pub struct KConcurrent {
    arrival: Vec<Pid>,
    aux: Vec<Pid>,
    k: usize,
    admitted: usize,
    rr: usize,
    rng: Option<SmallRng>,
}

impl KConcurrent {
    /// Schedules `arrival` with concurrency bound `k`, interleaving `aux`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new<I, J>(arrival: I, aux: J, k: usize) -> KConcurrent
    where
        I: IntoIterator<Item = Pid>,
        J: IntoIterator<Item = Pid>,
    {
        assert!(k > 0, "concurrency level must be at least 1");
        KConcurrent {
            arrival: arrival.into_iter().collect(),
            aux: aux.into_iter().collect(),
            k,
            admitted: 0,
            rr: 0,
            rng: None,
        }
    }

    /// Like [`KConcurrent::new`], but interleaves the admitted processes
    /// uniformly at random (seeded) instead of round-robin — much richer
    /// schedule coverage for violation hunting, still k-concurrent.
    pub fn with_seed<I, J>(arrival: I, aux: J, k: usize, seed: u64) -> KConcurrent
    where
        I: IntoIterator<Item = Pid>,
        J: IntoIterator<Item = Pid>,
    {
        let mut s = KConcurrent::new(arrival, aux, k);
        s.rng = Some(SmallRng::seed_from_u64(seed));
        s
    }

    fn active(&mut self, ex: &Executor) -> Vec<Pid> {
        // Admit more arrivals while fewer than k admitted are undecided.
        loop {
            let undecided = self.arrival[..self.admitted]
                .iter()
                .filter(|p| ex.status(**p).is_running())
                .count();
            if undecided < self.k && self.admitted < self.arrival.len() {
                self.admitted += 1;
            } else {
                break;
            }
        }
        self.arrival[..self.admitted]
            .iter()
            .copied()
            .filter(|p| ex.status(*p).is_running())
            .collect()
    }
}

impl Scheduler for KConcurrent {
    fn next(&mut self, ex: &Executor) -> Option<Pid> {
        let active = self.active(ex);
        let live_aux: Vec<Pid> = self.aux.iter().copied().filter(|p| ex.status(*p).is_running()).collect();
        let pool: Vec<Pid> = active.iter().chain(live_aux.iter()).copied().collect();
        if pool.is_empty() {
            return None;
        }
        match &mut self.rng {
            Some(rng) => Some(pool[rng.gen_range(0..pool.len())]),
            None => {
                self.rr = (self.rr + 1) % pool.len();
                Some(pool[self.rr])
            }
        }
    }
}

/// Replays a fixed, finite schedule (e.g. a counterexample from the model
/// checker), then ends the run.
#[derive(Clone, Debug)]
pub struct Replay {
    sched: Vec<Pid>,
    pos: usize,
}

impl Replay {
    /// Replays `sched` verbatim.
    pub fn new(sched: Vec<Pid>) -> Replay {
        Replay { sched, pos: 0 }
    }
}

impl Scheduler for Replay {
    fn next(&mut self, _ex: &Executor) -> Option<Pid> {
        let p = self.sched.get(self.pos).copied();
        self.pos += 1;
        p
    }
}

/// Transparent wrapper recording every pid the inner scheduler emits.
///
/// The recorded log is a *replayable* schedule: feeding it to [`Replay`]
/// against an identically seeded environment reproduces the run step for
/// step. The fault-injection layer uses this to attach concrete
/// counterexample schedules to violation reports.
#[derive(Clone, Debug)]
pub struct Record<S> {
    inner: S,
    log: Vec<Pid>,
}

impl<S: Scheduler> Record<S> {
    /// Wraps `inner`, recording each emitted pid.
    pub fn new(inner: S) -> Record<S> {
        Record { inner, log: Vec::new() }
    }

    /// The schedule emitted so far.
    pub fn log(&self) -> &[Pid] {
        &self.log
    }

    /// Consumes the recorder, returning the schedule.
    pub fn into_log(self) -> Vec<Pid> {
        self.log
    }
}

impl<S: Scheduler> Scheduler for Record<S> {
    fn next(&mut self, ex: &Executor) -> Option<Pid> {
        let p = self.inner.next(ex);
        if let Some(p) = p {
            self.log.push(p);
        }
        p
    }
}

/// Adversarial wrapper: suppresses steps of chosen processes after chosen
/// times (used to check wait-freedom — other C-processes stop, the rest must
/// still decide).
///
/// With [`Starve::settle`] it also ends the run as soon as the outputs of a
/// watched set of processes are final: every watched process is either no
/// longer running (decided or halted) or starved. Neither kind steps again,
/// so the watched decisions and step counts equal those of the same run
/// driven to any longer budget.
#[derive(Clone, Debug)]
pub struct Starve<S> {
    inner: S,
    stops: Vec<(Pid, u64)>,
    /// Watched processes with their earliest stop time (`u64::MAX` if never
    /// stopped); `None` runs until the inner scheduler or the budget ends.
    settle: Option<Vec<(Pid, u64)>>,
}

impl<S: Scheduler> Starve<S> {
    /// Wraps `inner`; process `p` takes no steps at or after time `t` for
    /// every `(p, t)` in `stops`.
    pub fn new(inner: S, stops: Vec<(Pid, u64)>) -> Starve<S> {
        Starve { inner, stops, settle: None }
    }

    /// Ends the run (`next` returns `None`) at the first slot where every
    /// process in `watch` is not running or starved. A stopped process whose
    /// stop time has not come yet can still decide, so the run waits for it.
    pub fn settle<I: IntoIterator<Item = Pid>>(mut self, watch: I) -> Starve<S> {
        let stop_of = |p: Pid| {
            self.stops.iter().filter(|(q, _)| *q == p).map(|(_, t)| *t).min().unwrap_or(u64::MAX)
        };
        self.settle = Some(watch.into_iter().map(|p| (p, stop_of(p))).collect());
        self
    }

    fn starved(&self, p: Pid, now: u64) -> bool {
        self.stops.iter().any(|(q, t)| *q == p && now >= *t)
    }

    fn settled(&self, ex: &Executor) -> bool {
        let now = ex.clock();
        self.settle
            .as_ref()
            .is_some_and(|watch| watch.iter().all(|(p, t)| now >= *t || !ex.status(*p).is_running()))
    }
}

impl<S: Scheduler> Scheduler for Starve<S> {
    fn next(&mut self, ex: &Executor) -> Option<Pid> {
        if self.settled(ex) {
            return None;
        }
        // Bounded retry: if the inner scheduler keeps proposing starved
        // processes, give up (schedules where only starved processes remain
        // runnable end the run).
        for _ in 0..64 {
            let p = self.inner.next(ex)?;
            if !self.starved(p, ex.clock()) {
                return Some(p);
            }
        }
        None
    }
}

/// Environment callbacks for a run: failure-detector values and liveness of
/// S-processes. The default is the *restricted* setting (§2.2): no failure
/// detector, nobody crashes.
pub trait StepEnv {
    /// Failure-detector output shown to `pid` at time `now` (`None` for
    /// processes without a failure-detector module).
    fn fd_output(&mut self, pid: Pid, now: u64) -> Option<Value> {
        let _ = (pid, now);
        None
    }

    /// `false` iff `pid` has crashed by time `now` (crashed processes take no
    /// steps; §2.1).
    fn is_alive(&mut self, pid: Pid, now: u64) -> bool {
        let _ = (pid, now);
        true
    }
}

/// The restricted environment: no failure detector, no crashes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullEnv;

impl StepEnv for NullEnv {}

/// Why [`run_schedule`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The scheduler returned `None` (typically: everyone decided).
    ScheduleEnded,
    /// The step budget was exhausted while processes were still running.
    BudgetExhausted,
}

/// Drives `ex` under `sched`/`env` for at most `budget` schedule slots.
///
/// Steps of crashed processes are skipped (they consume a schedule slot, as
/// the failure pattern removes them from the schedule's effective suffix).
pub fn run_schedule(
    ex: &mut Executor,
    sched: &mut dyn Scheduler,
    env: &mut dyn StepEnv,
    budget: u64,
) -> StopReason {
    let obs = ex.metrics().clone();
    for _ in 0..budget {
        let Some(pid) = sched.next(ex) else {
            return StopReason::ScheduleEnded;
        };
        obs.bump(Counter::ScheduleSlots);
        let now = ex.clock();
        if !env.is_alive(pid, now) {
            obs.bump(Counter::CrashSkips);
            obs.record(ObsEvent {
                time: now,
                pid: pid.0 as u32,
                seq: seq::STEP,
                kind: EventKind::CrashSkip,
            });
            continue;
        }
        let fd = env.fd_output(pid, now);
        ex.step(pid, fd.as_ref());
    }
    StopReason::BudgetExhausted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::RegKey;
    use crate::process::{Process, Status, StepCtx};

    /// Decides after `n` of its own steps, regardless of anything else.
    #[derive(Clone, Hash)]
    struct DecideAfter {
        left: u32,
    }

    impl Process for DecideAfter {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            ctx.write(RegKey::new(0), Value::Int(self.left as i64));
            if self.left == 0 {
                return Status::Decided(Value::Int(0));
            }
            self.left -= 1;
            Status::Running
        }
    }

    fn exec(n: usize, steps: u32) -> Executor {
        let mut ex = Executor::new();
        for _ in 0..n {
            ex.add_process(Box::new(DecideAfter { left: steps }));
        }
        ex
    }

    #[test]
    fn round_robin_is_fair_and_terminates() {
        let mut ex = exec(3, 4);
        let mut s = RoundRobin::over_all(&ex);
        let r = run_schedule(&mut ex, &mut s, &mut NullEnv, 1000);
        assert_eq!(r, StopReason::ScheduleEnded);
        assert!(ex.quiescent());
        // fairness: step counts within 1 of each other
        let counts: Vec<u64> = ex.pids().map(|p| ex.steps(p)).collect();
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn random_sched_is_deterministic_per_seed() {
        let trace = |seed: u64| {
            let mut ex = exec(4, 10);
            let mut s = RandomSched::over_all(&ex, seed);
            run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000);
            ex.fingerprint()
        };
        assert_eq!(trace(7), trace(7));
    }

    #[test]
    fn random_sched_completes() {
        let mut ex = exec(4, 10);
        let mut s = RandomSched::over_all(&ex, 3);
        let r = run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000);
        assert_eq!(r, StopReason::ScheduleEnded);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut ex = exec(1, 1000);
        let mut s = RoundRobin::over_all(&ex);
        let r = run_schedule(&mut ex, &mut s, &mut NullEnv, 5);
        assert_eq!(r, StopReason::BudgetExhausted);
    }

    /// Counts the maximum number of simultaneously participating-undecided
    /// processes seen across a run under a scheduler.
    fn max_concurrency(mut ex: Executor, sched: &mut dyn Scheduler, watched: &[Pid]) -> usize {
        let mut max_c = 0;
        for _ in 0..100_000 {
            let Some(p) = sched.next(&ex) else { break };
            ex.step(p, None);
            let c = watched
                .iter()
                .filter(|q| ex.participating(**q) && ex.status(**q).is_running())
                .count();
            max_c = max_c.max(c);
        }
        assert!(ex.quiescent(), "run did not finish");
        max_c
    }

    #[test]
    fn k_concurrent_respects_bound() {
        for k in 1..=4usize {
            let ex = exec(6, 5);
            let watched: Vec<Pid> = ex.pids().collect();
            let mut s = KConcurrent::new(watched.clone(), [], k);
            let got = max_concurrency(ex, &mut s, &watched);
            assert!(got <= k, "k={k} but saw concurrency {got}");
            assert!(got >= k.min(6) || k == 1, "k={k}: concurrency {got} unexpectedly low");
        }
    }

    #[test]
    fn k_concurrent_all_decide() {
        let mut ex = exec(5, 7);
        let arrival: Vec<Pid> = ex.pids().collect();
        let mut s = KConcurrent::new(arrival.clone(), [], 2);
        let r = run_schedule(&mut ex, &mut s, &mut NullEnv, 100_000);
        assert_eq!(r, StopReason::ScheduleEnded);
        assert!(ex.all_decided(arrival));
    }

    #[test]
    fn starvation_suppresses_process() {
        let mut ex = exec(2, 50);
        let rr = RoundRobin::over_all(&ex);
        let mut s = Starve::new(rr, vec![(Pid(1), 10)]);
        run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000);
        // P0 decided; P1 was frozen early.
        assert!(matches!(ex.status(Pid(0)), Status::Decided(_)));
        assert!(ex.status(Pid(1)).is_running());
        assert!(ex.steps(Pid(1)) <= 10);
    }

    #[test]
    fn starve_at_step_zero_freezes_process_completely() {
        let mut ex = exec(2, 50);
        let rr = RoundRobin::over_all(&ex);
        let mut s = Starve::new(rr, vec![(Pid(1), 0)]);
        run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000);
        assert_eq!(ex.steps(Pid(1)), 0, "a pid stopped at time 0 must never step");
        assert!(matches!(ex.status(Pid(0)), Status::Decided(_)));
    }

    #[test]
    fn starving_an_already_stopped_pid_is_idempotent() {
        // Duplicate stop entries (the second "stops" an already-stopped pid):
        // the earliest time wins and nothing misbehaves.
        let mut ex = exec(2, 50);
        let rr = RoundRobin::over_all(&ex);
        let mut s = Starve::new(rr, vec![(Pid(1), 5), (Pid(1), 200)]);
        run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000);
        assert!(ex.steps(Pid(1)) <= 5);
        assert!(matches!(ex.status(Pid(0)), Status::Decided(_)));
    }

    #[test]
    fn stop_time_beyond_horizon_never_fires() {
        // The run ends (everyone decides) long before the stop time: the
        // Starve wrapper must be a no-op.
        let mut ex = exec(2, 3);
        let rr = RoundRobin::over_all(&ex);
        let mut s = Starve::new(rr, vec![(Pid(0), u64::MAX), (Pid(1), 1_000_000)]);
        let r = run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000);
        assert_eq!(r, StopReason::ScheduleEnded);
        assert!(ex.quiescent());
        assert!(ex.all_decided([Pid(0), Pid(1)]));
    }

    #[test]
    fn starving_everyone_ends_the_run() {
        // Only starved processes remain runnable: Starve's bounded retry
        // gives up and the schedule ends instead of spinning.
        let mut ex = exec(2, 50);
        let rr = RoundRobin::over_all(&ex);
        let mut s = Starve::new(rr, vec![(Pid(0), 0), (Pid(1), 0)]);
        let r = run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000);
        assert_eq!(r, StopReason::ScheduleEnded);
        assert_eq!(ex.steps(Pid(0)) + ex.steps(Pid(1)), 0);
    }

    /// Never decides.
    #[derive(Clone, Hash)]
    struct Spin;

    impl Process for Spin {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
            ctx.write(RegKey::new(1), Value::Int(0));
            Status::Running
        }
    }

    /// P0 decides after 5 own steps, P1 after 40, P2 spins forever.
    fn exec_with_spinner() -> Executor {
        let mut ex = Executor::new();
        ex.add_process(Box::new(DecideAfter { left: 5 }));
        ex.add_process(Box::new(DecideAfter { left: 40 }));
        ex.add_process(Box::new(Spin));
        ex
    }

    #[test]
    fn settle_ends_the_run_once_watched_outputs_are_final() {
        let watch = [Pid(0), Pid(1)];
        let stops = vec![(Pid(1), 1_000)];
        let mut full = exec_with_spinner();
        let mut s = Starve::new(RandomSched::over_all(&full, 5), stops.clone());
        assert_eq!(run_schedule(&mut full, &mut s, &mut NullEnv, 10_000), StopReason::BudgetExhausted);
        let mut cut = exec_with_spinner();
        let mut s = Starve::new(RandomSched::over_all(&cut, 5), stops).settle(watch);
        assert_eq!(run_schedule(&mut cut, &mut s, &mut NullEnv, 10_000), StopReason::ScheduleEnded);
        // P1's stop time lies beyond its decision: the run waits for it.
        assert!(cut.all_decided(watch));
        assert!(cut.clock() < 1_000);
        for p in watch {
            assert_eq!(cut.status(p), full.status(p));
            assert_eq!(cut.steps(p), full.steps(p));
        }
    }

    #[test]
    fn settle_counts_a_starved_process_as_final() {
        let mut ex = exec_with_spinner();
        let mut s = Starve::new(RoundRobin::over_all(&ex), vec![(Pid(1), 12)]).settle([Pid(0), Pid(1)]);
        assert_eq!(run_schedule(&mut ex, &mut s, &mut NullEnv, 10_000), StopReason::ScheduleEnded);
        assert!(ex.status(Pid(1)).is_running());
        // Slots 0..12 rotate P0, P1, P2; from 12 on P1 is skipped, and P0
        // decides on its 6th step, in slot 14.
        assert_eq!(ex.clock(), 15);
    }

    #[test]
    fn settle_on_nothing_ends_at_once_and_plain_starve_never_settles() {
        let mut ex = exec_with_spinner();
        let mut s = Starve::new(RoundRobin::over_all(&ex), vec![]).settle([]);
        assert_eq!(run_schedule(&mut ex, &mut s, &mut NullEnv, 100), StopReason::ScheduleEnded);
        assert_eq!(ex.clock(), 0);
        let mut s = Starve::new(RoundRobin::over_all(&ex), vec![]);
        assert_eq!(run_schedule(&mut ex, &mut s, &mut NullEnv, 100), StopReason::BudgetExhausted);
    }

    #[test]
    fn record_log_replays_to_the_same_state() {
        let mut ex = exec(3, 7);
        let mut rec = Record::new(RandomSched::over_all(&ex, 11));
        run_schedule(&mut ex, &mut rec, &mut NullEnv, 10_000);
        let log = rec.into_log();
        assert!(!log.is_empty());
        let mut replayed = exec(3, 7);
        let mut replay = Replay::new(log);
        run_schedule(&mut replayed, &mut replay, &mut NullEnv, u64::MAX);
        assert_eq!(replayed.fingerprint(), ex.fingerprint());
    }

    #[test]
    fn crash_env_skips_steps() {
        struct CrashAt(Pid, u64);
        impl StepEnv for CrashAt {
            fn is_alive(&mut self, pid: Pid, now: u64) -> bool {
                !(pid == self.0 && now >= self.1)
            }
        }
        let mut ex = exec(2, 50);
        let mut s = RoundRobin::over_all(&ex);
        let mut env = CrashAt(Pid(0), 0);
        run_schedule(&mut ex, &mut s, &mut env, 10_000);
        assert_eq!(ex.steps(Pid(0)), 0);
        assert!(matches!(ex.status(Pid(1)), Status::Decided(_)));
    }
}
