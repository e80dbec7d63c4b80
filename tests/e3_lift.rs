//! Experiment E3 — Theorem 7: `(U, k)`-set agreement lifts to `(Π, k)`-set
//! agreement.
//!
//! Full wait-freedom ensembles over the Theorem-7 construction: the
//! `(U, k)` black box for `U = {p_0, …, p_k}` is touched only through its
//! decision registers; every C-process (inside or outside `U`) must decide,
//! with at most `k` distinct values, under random failure patterns and
//! adversarial C-stops.

use std::sync::Arc;

use wfa::core::harness::{wait_freedom_ensemble, EnsembleConfig, SystemFactory};
use wfa::core::lift::theorem7_system;
use wfa::fd::detectors::FdGen;
use wfa::kernel::value::Value;
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::task::Task;

#[test]
fn e3_lift_ensembles() {
    for (n, k) in [(3usize, 1usize), (4, 1), (4, 2)] {
        let task: Arc<dyn Task> = Arc::new(SetAgreement::new(n, k));
        let f = move |input: &[Value], _fd: FdGen| theorem7_system(n, k, input);
        let sf: &SystemFactory<'_> = &f;
        let cfg = EnsembleConfig { n, budget: 9_000_000, stab: 120, runs: 30 };
        wait_freedom_ensemble(
            task,
            &cfg,
            n - 1,
            &|p, stab, seed| FdGen::vector_omega_k(p, k, stab, seed),
            sf,
            (n * 100 + k) as u64,
        )
        .unwrap_or_else(|v| panic!("lift ensemble (n={n}, k={k}) violated: {v:?}"));
    }
}

/// The generalization the classical model could not reach: the same detector
/// serves k-set agreement among *any* superset of participants once it
/// serves the fixed U — here checked by comparing the distinct-decision
/// counts of the black box alone vs. the lifted system.
#[test]
fn e3_decisions_flow_through_the_black_box() {
    use wfa::core::harness::EfdRun;
    use wfa::fd::pattern::FailurePattern;
    use wfa::tasks::vector::distinct_values;
    for seed in 0..3 {
        let n = 4;
        let k = 2;
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let (c, s) = theorem7_system(n, k, &inputs);
        let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), k, 100, seed);
        let mut run = EfdRun::new(c, s, fd);
        let mut sched = run.settling_sched(seed ^ 0x3, vec![]);
        run.run(&mut sched, 9_000_000);
        let out = run.output_vector();
        assert!(out.iter().all(|v| !v.is_unit()), "undecided: {out:?}");
        let distinct = distinct_values(&out);
        assert!(
            distinct.len() <= k,
            "lift produced {} distinct values (k = {k}): {out:?}",
            distinct.len()
        );
        // Validity: every decision is some process's input.
        for v in &distinct {
            assert!(inputs.contains(v), "decision {v} never proposed");
        }
    }
}
