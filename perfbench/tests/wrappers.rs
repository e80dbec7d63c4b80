//! The timing wrappers pass every call through unchanged: the same seed gives
//! the same output vector, own steps, slots to decide and message count with
//! and without them.

use wfa_obs::metrics::{Counter, MetricsHandle};
use wfa_perfbench::churn::Churn;
use wfa_perfbench::ksa::{Ksa, Substrate, BUDGET};
use wfa_perfbench::measure::Workload;
use wfa_perfbench::{same_outcome, Mode};

/// Runs ksa item `i` without wrappers, with the executor's event trace on,
/// and returns (outputs, own steps, slots run, logical time of the last
/// decision + 1, messages sent).
fn unwrapped(w: &Ksa, i: u64) -> (Vec<wfa_kernel::value::Value>, Vec<u64>, u64, u64, u64) {
    let obs = MetricsHandle::counters();
    let (_, mut run, mut sched) = w.assemble(i, obs.clone());
    run.executor.enable_trace(1 << 20);
    let slots = run.run_until_decided(&mut sched, BUDGET).expect("decides");
    let trace = run.executor.trace().expect("trace enabled");
    assert_eq!(trace.dropped(), 0);
    let last = trace
        .events()
        .iter()
        .filter(|e| e.decided && e.pid.0 < 4)
        .map(|e| e.time + 1)
        .max();
    let steps = run
        .roles
        .c_pids()
        .iter()
        .map(|p| run.executor.steps(*p))
        .collect();
    (
        run.output_vector(),
        steps,
        slots,
        last.expect("someone decided"),
        obs.get(Counter::NetMsgsSent),
    )
}

#[test]
fn ksa_runs_agree_with_and_without_wrappers() {
    for substrate in [Substrate::Abd, Substrate::Gossip] {
        let w = Ksa::setup(7, substrate).expect("set-up");
        for i in 0..6 {
            let (out, steps, slots, decided, msgs) = unwrapped(&w, i);
            let traced = w
                .run(i, Mode::Traced)
                .expect("traced run passes its checks");
            assert_eq!(traced.outputs, out, "{substrate:?} item {i}");
            assert_eq!(traced.own_steps, steps, "{substrate:?} item {i}");
            assert_eq!(traced.slots, slots, "{substrate:?} item {i}");
            assert_eq!(
                traced.counts.last_decision.map(|d| d + 1),
                Some(decided),
                "{substrate:?} item {i}"
            );
            assert_eq!(traced.msgs, Some(msgs), "{substrate:?} item {i}");
            assert_eq!(
                traced.counts.op_msgs, msgs,
                "every message is sent inside a backend op"
            );
            let plain = w.run(i, Mode::Plain).expect("plain run passes its checks");
            same_outcome(&plain, &traced).expect("plain and traced agree");
        }
    }
}

#[test]
fn ensemble_and_churn_items_agree_across_modes() {
    for name in ["ensemble", "abd_churn"] {
        let w = Workload::setup(name, 3).expect("set-up");
        for i in 0..2 {
            let plain = w.run(i, Mode::Plain).expect("plain");
            let obs = w.run(i, Mode::Obs).expect("obs");
            let traced = w.run(i, Mode::Traced).expect("traced");
            same_outcome(&plain, &traced).expect("plain and traced agree");
            same_outcome(&obs, &traced).expect("obs and traced agree");
            assert!(traced.span.is_some());
        }
    }
}

#[test]
fn churn_traced_counts_match_the_obs_counters() {
    let w = Churn::setup(5).expect("set-up");
    let obs = w.run(0, Mode::Obs).expect("obs");
    let traced = w.run(0, Mode::Traced).expect("traced");
    assert_eq!(traced.op_ticks, obs.op_ticks);
    assert_eq!(traced.counts.op_ticks, traced.op_ticks);
    assert_eq!(traced.mttr, obs.mttr);
    assert_eq!(
        (traced.ops_failed, traced.first_round),
        (obs.ops_failed, obs.first_round)
    );
    assert_eq!(traced.obs, obs.obs);
    assert_eq!(traced.msgs, obs.msgs);
}
