//! Determinism suite: the parallel explorer's report is a pure function of
//! the instance, independent of worker-thread count.
//!
//! The explorer's contract (see `explorer.rs` module docs) is that `states`,
//! `violation`, `undecided_cycle` and `truncated` are identical for every
//! thread count on non-truncated explorations. This suite pins that contract
//! on the instances the project actually checks: the Lemma 11 derived
//! consensus protocols and the racy-counter fixtures.

use wfa_kernel::executor::Executor;
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa_kernel::value::Value;
use wfa_modelcheck::explorer::{ExploreReport, Explorer, Limits};
use wfa_modelcheck::lemma11::{
    refute_strong_2_renaming, solo_collision, BoxedAuto, ConsensusViaRenaming,
};

use wfa_algorithms::renaming::RenamingFig4;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs the explorer at every thread count (plus auto) and asserts all
/// reports equal the single-threaded one, which is returned.
fn assert_thread_invariant(
    label: &str,
    ex: &Executor,
    check: &(dyn Fn(&Executor) -> Option<String> + Sync),
    limits: Limits,
) -> ExploreReport {
    let base = Explorer::new(ex.pids().collect(), check, limits).threads(1).run(ex);
    for threads in THREAD_COUNTS {
        let r = Explorer::new(ex.pids().collect(), check, limits).threads(threads).run(ex);
        assert_eq!(r, base, "{label}: report differs at {threads} threads");
    }
    let auto = Explorer::new(ex.pids().collect(), check, limits).threads(0).run(ex);
    assert_eq!(auto, base, "{label}: report differs with auto thread count");
    base
}

// --- the two_counters fixture (mirrors the explorer's unit tests) ---------

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

fn lost_update_check(ex: &Executor) -> Option<String> {
    let both_done = ex.pids().all(|p| !ex.status(p).is_running());
    let lost = ex
        .pids()
        .filter_map(|p| ex.status(p).decision())
        .all(|v| *v == Value::Int(1));
    (both_done && lost).then(|| "lost update".to_string())
}

#[test]
fn two_counters_clean_sweep_is_thread_invariant() {
    let ex = two_counters(2);
    let report = assert_thread_invariant("two_counters(2)", &ex, &|_| None, Limits::default());
    assert!(report.fully_verified(), "{report:?}");
    assert!(report.states > 10);
}

#[test]
fn two_counters_violation_is_thread_invariant() {
    let ex = two_counters(1);
    let report =
        assert_thread_invariant("two_counters(1)", &ex, &lost_update_check, Limits::default());
    let (reason, sched) = report.violation.expect("lost update must be found");
    assert_eq!(reason, "lost update");
    // The witness schedule must actually reproduce the violation.
    let mut replay = ex.clone();
    for pid in &sched {
        replay.step(*pid, None);
    }
    assert!(lost_update_check(&replay).is_some());
}

#[test]
fn three_counters_stress_is_thread_invariant() {
    // A larger instance: three racy counters give a wider, deeper graph so
    // the work-stealing pool genuinely interleaves.
    let mut ex = Executor::new();
    for _ in 0..3 {
        ex.add_process(Box::new(RacyCounter { left: 2, val: 0, reading: true }));
    }
    let report = assert_thread_invariant("three_counters", &ex, &|_| None, Limits::default());
    assert!(report.fully_verified(), "{report:?}");
    assert!(report.states > 1000, "graph too small to stress stealing: {}", report.states);
}

/// Many short two-worker sweeps must all end. A small instance finishes
/// while the second worker is still starting, the moment a lost wake-up
/// between its `pending` check and its condvar wait would park it for good.
/// A watchdog turns such a hang into a failure.
#[test]
fn short_sweeps_always_terminate() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let ex = two_counters(1);
        for _ in 0..20_000 {
            let r = Explorer::new(ex.pids().collect(), &|_| None, Limits::default()).threads(2).run(&ex);
            assert!(r.fully_verified());
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("a two-worker sweep never terminated (or a sweep panicked)");
}

// --- undecided cycles ------------------------------------------------------

/// Spins forever reading a register (its state graph is a self-loop).
#[derive(Clone, Hash)]
struct Spinner;

impl Process for Spinner {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let _ = ctx.read(RegKey::new(2));
        Status::Running
    }
}

/// Flips a register between 0 and 1 forever (a 2-cycle, plus a decided
/// bystander so the cycle analysis sees mixed statuses).
#[derive(Clone, Hash)]
struct Flipper {
    next: i64,
}

impl Process for Flipper {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        ctx.write(RegKey::new(3), Value::Int(self.next));
        self.next = 1 - self.next;
        Status::Running
    }
}

#[test]
fn undecided_cycle_is_thread_invariant() {
    let mut ex = Executor::new();
    ex.add_process(Box::new(Spinner));
    let report = assert_thread_invariant("spinner", &ex, &|_| None, Limits::default());
    assert!(report.undecided_cycle.is_some(), "{report:?}");
}

#[test]
fn multi_state_cycle_is_thread_invariant() {
    let mut ex = Executor::new();
    ex.add_process(Box::new(Flipper { next: 0 }));
    ex.add_process(Box::new(RacyCounter { left: 1, val: 0, reading: true }));
    let report = assert_thread_invariant("flipper+counter", &ex, &|_| None, Limits::default());
    assert!(report.undecided_cycle.is_some(), "{report:?}");
    assert!(!report.truncated);
}

// --- Lemma 11 instances ----------------------------------------------------

/// The derived 2-process consensus instance the Lemma 11 refutation
/// explores, built from the Figure 4 automaton misused as (2,2)-renaming.
fn derived_consensus(m: usize) -> Executor {
    let cand = |i: usize| Box::new(RenamingFig4::new(i, m)) as Box<dyn DynProcess>;
    let (a, b) = solo_collision(&cand, &[0, 1, 2]).expect("pigeonhole collision");
    let mut ex = Executor::new();
    ex.add_process(Box::new(ConsensusViaRenaming::new(a, b, Value::Int(0), BoxedAuto(cand(a)))));
    ex.add_process(Box::new(ConsensusViaRenaming::new(b, a, Value::Int(1), BoxedAuto(cand(b)))));
    ex
}

fn consensus_check(ex: &Executor) -> Option<String> {
    let decided: Vec<&Value> = ex.pids().filter_map(|p| ex.status(p).decision()).collect();
    if decided.len() == 2 && decided[0] != decided[1] {
        return Some(format!("disagreement: {} vs {}", decided[0], decided[1]));
    }
    for v in decided {
        if *v != Value::Int(0) && *v != Value::Int(1) {
            return Some(format!("invalid decision {v}"));
        }
    }
    None
}

#[test]
fn lemma11_derived_consensus_is_thread_invariant() {
    let ex = derived_consensus(4);
    let report =
        assert_thread_invariant("lemma11/fig4", &ex, &consensus_check, Limits::default());
    // Lemma 11: the derived protocol must fail consensus somehow.
    assert!(
        report.violation.is_some() || report.undecided_cycle.is_some(),
        "derived consensus protocol unexpectedly verified: {report:?}"
    );
    assert!(!report.truncated);
}

#[test]
fn lemma11_full_refutation_pipeline_is_reproducible() {
    // The public pipeline (auto thread count) must be bit-for-bit
    // reproducible run-over-run — this is what the paper-facing experiments
    // and benches rely on.
    let cand = |i: usize| Box::new(RenamingFig4::new(i, 4)) as Box<dyn DynProcess>;
    let a = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
    let b = refute_strong_2_renaming(&cand, &[0, 1, 2], Limits::default());
    assert!(a.refuted());
    assert_eq!(a.colliding, b.colliding);
    assert_eq!(a.report, b.report);
}
