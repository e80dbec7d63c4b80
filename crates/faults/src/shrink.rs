//! Greedy violation shrinking.
//!
//! Safety violations shrink their *schedule*: decisions are final, so "the
//! output vector leaves Δ" is monotone in the schedule prefix — once a
//! prefix produces a violating set of decisions, every extension of it does
//! too. That makes an exact binary search for the minimal violating prefix
//! sound; a greedy chunk-removal pass (a light ddmin) then deletes interior
//! slots the violation never needed. Each candidate is certified by a full
//! deterministic replay, so a shrunk artifact is *still a real run*, never
//! an approximation.
//!
//! Wait-freedom violations shrink their *plan* instead: any truncated
//! schedule trivially "starves" every process, so schedule shrinking is
//! vacuous there. Dropping plan components one at a time and re-running
//! keeps only the faults the starvation actually depends on.
//!
//! Quorum-loss violations (the net backend's typed degradation) likewise
//! shrink their plan: each candidate re-runs and is kept only if it still
//! degrades some quorum op; the recorded `(op, tick)` and schedule are
//! refreshed from the final minimal plan so the artifact replays against
//! what it stores.
//!
//! Panic violations (a torn automaton) also shrink their plan: each candidate
//! re-runs under `catch_unwind` and is kept only if it still panics — the
//! same criterion [`crate::run::replay`] certifies, so a shrunk panic
//! artifact still reproduces.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wfa_kernel::value::Pid;

use crate::plan::FaultPlan;
use crate::run::{payload_string, replay_report, run_plan};
use crate::scenario::Scenario;
use crate::violation::{Violation, ViolationKind};

/// Replay budget for one shrink (schedule candidates tried).
const MAX_REPLAYS: usize = 200;

/// Shrinks `v` in place as far as the replay budget allows; returns the
/// number of replays spent.
pub fn shrink(v: &mut Violation) -> usize {
    let Some(sc) = Scenario::by_name(&v.scenario) else {
        return 0;
    };
    match v.kind.clone() {
        ViolationKind::Safety { reason } => shrink_schedule(&sc, v, &reason),
        ViolationKind::WaitFreedom { process, .. } => shrink_plan(&sc, v, process),
        ViolationKind::Panic { .. } => shrink_panic(&sc, v),
        ViolationKind::QuorumLost { .. } => shrink_degradation(&sc, v, false),
        ViolationKind::AdviceStale { .. } => shrink_degradation(&sc, v, true),
    }
}

/// `true` iff replaying `schedule` still yields a safety violation with the
/// same reason.
fn still_violates(sc: &Scenario, v: &Violation, reason: &str, schedule: &[Pid]) -> bool {
    replay_report(sc, &v.plan, v.seed, schedule)
        .validate()
        .err()
        .is_some_and(|e| e.violation.reason == reason)
}

fn shrink_schedule(sc: &Scenario, v: &mut Violation, reason: &str) -> usize {
    let mut replays = 0;
    let full = v.schedule_pids();
    // Phase 1: binary-search the minimal violating prefix (sound because
    // the violation is monotone in the prefix — decisions are final).
    let (mut lo, mut hi) = (0usize, full.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        replays += 1;
        if still_violates(sc, v, reason, &full[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut best: Vec<Pid> = full[..hi].to_vec();
    // Phase 2: greedy interior chunk removal, halving the chunk size.
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && replays < MAX_REPLAYS {
        let mut start = 0;
        while start < best.len() && replays < MAX_REPLAYS {
            let end = (start + chunk).min(best.len());
            let candidate: Vec<Pid> =
                best[..start].iter().chain(&best[end..]).copied().collect();
            replays += 1;
            if still_violates(sc, v, reason, &candidate) {
                best = candidate; // keep `start`: the next chunk shifted in
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    v.schedule = best.iter().map(|p| p.0).collect();
    replays
}

/// Drops plan components one at a time, keeping each drop that still
/// starves `process`.
fn shrink_plan(sc: &Scenario, v: &mut Violation, process: usize) -> usize {
    let mut replays = 0;
    let seed = v.seed;
    // Dropping a component can flip the run into a *panic* (e.g. removing
    // the heal that kept a partition majority-safe): that candidate is a
    // different violation, not a smaller starvation — reject it.
    let still_starves = |plan: &FaultPlan, replays: &mut usize| {
        *replays += 1;
        catch_unwind(AssertUnwindSafe(|| run_plan(sc, plan, seed))).is_ok_and(|outcome| {
            outcome.violations.iter().any(|w| {
                matches!(&w.kind, ViolationKind::WaitFreedom { process: p, .. } if *p == process)
            })
        })
    };
    loop {
        let mut improved = false;
        for idx in 0..v.plan.crashes.len() {
            let mut candidate = v.plan.clone();
            candidate.crashes.remove(idx);
            if still_starves(&candidate, &mut replays) {
                v.plan = candidate;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for idx in 0..v.plan.stops.len() {
            let mut candidate = v.plan.clone();
            candidate.stops.remove(idx);
            if still_starves(&candidate, &mut replays) {
                v.plan = candidate;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for idx in 0..v.plan.fd_faults.len() {
            let mut candidate = v.plan.clone();
            candidate.fd_faults.remove(idx);
            if candidate.preserves_liveness() && still_starves(&candidate, &mut replays) {
                v.plan = candidate;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for idx in 0..v.plan.net_faults.len() {
            let mut candidate = v.plan.clone();
            candidate.net_faults.remove(idx);
            if still_starves(&candidate, &mut replays) {
                v.plan = candidate;
                improved = true;
                break;
            }
        }
        if !improved || replays >= MAX_REPLAYS {
            // Re-record the (possibly changed) violating schedule for the
            // final plan so the artifact replays against what it stores.
            let outcome = run_plan(sc, &v.plan, v.seed);
            v.schedule = outcome.schedule.iter().map(|p| p.0).collect();
            return replays;
        }
    }
}

/// Drops plan components one at a time, keeping each drop after which the
/// run still panics (the [`crate::run::replay`] criterion for panic
/// artifacts). The payload is re-recorded from the final minimal plan so the
/// artifact documents the panic it actually replays.
fn shrink_panic(sc: &Scenario, v: &mut Violation) -> usize {
    let mut replays = 0;
    let seed = v.seed;
    let still_panics = |plan: &FaultPlan, replays: &mut usize| -> Option<String> {
        *replays += 1;
        catch_unwind(AssertUnwindSafe(|| run_plan(sc, plan, seed)))
            .err()
            .map(|payload| payload_string(payload.as_ref()))
    };
    let mut payload_now = match &v.kind {
        ViolationKind::Panic { payload } => payload.clone(),
        _ => unreachable!("shrink_panic only sees panic violations"),
    };
    loop {
        let mut improved = false;
        macro_rules! try_drop {
            ($field:ident) => {
                if !improved {
                    for idx in 0..v.plan.$field.len() {
                        let mut candidate = v.plan.clone();
                        candidate.$field.remove(idx);
                        if let Some(p) = still_panics(&candidate, &mut replays) {
                            v.plan = candidate;
                            payload_now = p;
                            improved = true;
                            break;
                        }
                    }
                }
            };
        }
        try_drop!(net_faults);
        try_drop!(crashes);
        try_drop!(stops);
        try_drop!(fd_faults);
        if !improved || replays >= MAX_REPLAYS {
            v.kind = ViolationKind::Panic { payload: payload_now };
            return replays;
        }
    }
}

/// Drops plan components one at a time, keeping each drop after which the
/// run still degrades — a stranded quorum op (`stale = false`) or a
/// stale-advice report (`stale = true`). The recorded kind and schedule are
/// refreshed from the final minimal plan (dropping an unrelated fault can
/// shift the tick the horizon expires at).
fn shrink_degradation(sc: &Scenario, v: &mut Violation, stale: bool) -> usize {
    let mut replays = 0;
    let seed = v.seed;
    let first_loss = |plan: &FaultPlan, replays: &mut usize| -> Option<(ViolationKind, Vec<usize>)> {
        *replays += 1;
        let outcome = run_plan(sc, plan, seed);
        outcome
            .violations
            .iter()
            .find(|w| match w.kind {
                ViolationKind::QuorumLost { .. } => !stale,
                ViolationKind::AdviceStale { .. } => stale,
                _ => false,
            })
            .map(|w| (w.kind.clone(), outcome.schedule.iter().map(|p| p.0).collect()))
    };
    let mut recorded: Option<(ViolationKind, Vec<usize>)> = None;
    loop {
        let mut improved = false;
        macro_rules! try_drop {
            ($field:ident) => {
                if !improved {
                    for idx in 0..v.plan.$field.len() {
                        let mut candidate = v.plan.clone();
                        candidate.$field.remove(idx);
                        if let Some(hit) = first_loss(&candidate, &mut replays) {
                            v.plan = candidate;
                            recorded = Some(hit);
                            improved = true;
                            break;
                        }
                    }
                }
            };
        }
        try_drop!(net_faults);
        try_drop!(crashes);
        try_drop!(stops);
        try_drop!(fd_faults);
        if !improved || replays >= MAX_REPLAYS {
            if let Some((kind, schedule)) = recorded {
                v.kind = kind;
                v.schedule = schedule;
            }
            return replays;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::replay;

    fn first_fragile_violation() -> Violation {
        let sc = Scenario::fragile_commit();
        for seed in 0..60 {
            let outcome = run_plan(&sc, &FaultPlan::clean(), seed);
            if let Some(v) = outcome.violations.into_iter().next() {
                return v;
            }
        }
        panic!("no violating seed in 0..60");
    }

    #[test]
    fn shrunk_safety_schedule_is_shorter_and_still_replays() {
        let mut v = first_fragile_violation();
        let before = v.schedule.len();
        let replays = shrink(&mut v);
        assert!(replays > 0);
        assert!(v.schedule.len() < before, "{} -> {}", before, v.schedule.len());
        assert_eq!(v.original_len, before);
        let verdict = replay(&v).unwrap();
        assert!(verdict.reproduced, "{}", verdict.detail);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let (mut a, mut b) = (first_fragile_violation(), first_fragile_violation());
        shrink(&mut a);
        shrink(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn minimal_prefix_is_exact() {
        // One slot fewer than the shrunk prefix must not violate (the
        // binary search certifies minimality before chunk removal; after
        // chunk removal, dropping the *last* slot must break it).
        let mut v = first_fragile_violation();
        let reason = match &v.kind {
            ViolationKind::Safety { reason } => reason.clone(),
            other => panic!("expected safety violation, got {other}"),
        };
        shrink(&mut v);
        let sc = Scenario::by_name(&v.scenario).unwrap();
        let pids = v.schedule_pids();
        assert!(still_violates(&sc, &v, &reason, &pids));
        assert!(!still_violates(&sc, &v, &reason, &pids[..pids.len() - 1]));
    }

    #[test]
    fn quorum_lost_shrink_drops_irrelevant_faults() {
        // A majority-breaking partition degrades quorum ops; the crash and
        // the sample loss riding along have nothing to do with it and must
        // be shrunk away. The partition itself must survive.
        let sc = Scenario::ksa_net();
        let plan = FaultPlan::clean().partition(vec![0, 1], 0).crash_s(2, 5).lose(0, 2);
        let outcome = run_plan(&sc, &plan, 3);
        let mut v = outcome
            .violations
            .into_iter()
            .find(|w| matches!(w.kind, ViolationKind::QuorumLost { .. }))
            .expect("majority-breaking partition must degrade a quorum op");
        let replays = shrink(&mut v);
        assert!(replays > 0);
        assert!(v.plan.crashes.is_empty(), "irrelevant crash survived: {}", v.plan.describe());
        assert!(v.plan.fd_faults.is_empty(), "irrelevant loss survived: {}", v.plan.describe());
        assert_eq!(v.plan.net_faults.len(), 1, "{}", v.plan.describe());
        assert!(
            matches!(v.kind, ViolationKind::QuorumLost { .. }),
            "shrink changed the kind: {}",
            v.kind
        );
        let verdict = replay(&v).unwrap();
        assert!(verdict.reproduced, "{}", verdict.detail);
    }

    #[test]
    fn wait_freedom_shrink_drops_irrelevant_faults() {
        // Stop C0 forever — under wait-for-all the *other* parties starve —
        // and also crash an S-process that has nothing to do with it: the
        // crash must be shrunk away, the load-bearing stop must survive.
        let sc = Scenario::wait_for_all();
        let plan = FaultPlan::clean().stop_c(0, 0).crash_s(2, 5);
        let outcome = run_plan(&sc, &plan, 7);
        let mut v = outcome
            .violations
            .into_iter()
            .find(|v| matches!(&v.kind, ViolationKind::WaitFreedom { .. }))
            .expect("stopping C0 must starve the wait-for-all parties");
        shrink(&mut v);
        assert!(v.plan.crashes.is_empty(), "irrelevant crash survived: {}", v.plan.describe());
        assert_eq!(v.plan.stops, vec![(0, 0)]);
    }
}
