//! Theorem 7: lifting `(U, k)`-set agreement to `(Π, k)`-set agreement.
//!
//! The paper's statement: if a failure detector `D` solves k-set agreement
//! among one fixed set `U` of `k+1` C-processes, then `D` solves k-set
//! agreement among **all** `n` C-processes — the generalization (to every
//! `k`) of Delporte-Gallet et al.'s two-process consensus result \[12\], which
//! resisted proof in the classical model.
//!
//! The executable construction follows the proof's final (binding) induction
//! step `x = k+1` end-to-end, with the earlier steps collapsing through the
//! detector reductions of `wfa-fd` (`→Ωk` is trivially a valid source of
//! `→Ωx` advice for `x ≥ k`, since only one stable position is ever needed —
//! the paper's full chain replays the same construction at each `x`; see
//! DESIGN.md):
//!
//! * the **black box** is the EFD `(U, k)`-set agreement algorithm of
//!   Appendix C.1 (instances `0..k` of leader consensus driven by `→Ωk`),
//!   touched only through its published decision registers;
//! * the `n` C-processes run the Figure-2 engine over `k+1` simulated codes
//!   — the C-part automata of the black box for the members of `U` — with
//!   *colorless input injection* ("each simulating process proposes its
//!   input value as an input value … for each simulated process", §3) and
//!   the black box's decision registers mirrored into every agreed view;
//! * each S-process interleaves its two roles: the black box's leader duties
//!   and the engine's leader duties ([`LiftS`]);
//! * every simulator returns the first value some simulated code decides
//!   (colorless adoption).
//!
//! Every decided value traverses the black box, so at most `k` distinct
//! values are returned by all `n` processes: `(Π, k)`-set agreement, with
//! the C-side still wait-free.

use wfa_algorithms::boards;
use wfa_algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa_kernel::value::Value;

use crate::code::{CodeBuilder, RegisterSimCode};
use crate::harness::{CsProcs, Inert};
use crate::sim::{KcsSimC, KcsSimS};

/// Builder for the simulated codes: member `i` of `U` runs the black box's
/// C-part (publish input, poll the `k` mirrored decision registers).
#[derive(Clone, Copy, Hash, Debug)]
pub struct BlackBoxCBuilder {
    /// The agreement bound of the black box.
    pub k: u32,
}

impl CodeBuilder for BlackBoxCBuilder {
    type Code = RegisterSimCode<SetAgreementC>;

    fn build(&self, idx: usize, input: &Value) -> Self::Code {
        RegisterSimCode::new(idx, SetAgreementC::new(idx, self.k, input.clone()))
    }
}

/// S-process of the lifting construction: interleaves the black box's leader
/// duties (real `(U, k)`-set agreement) with the engine's leader duties.
#[derive(Clone, Hash, Debug)]
pub struct LiftS {
    black_box: SetAgreementS,
    engine: KcsSimS<BlackBoxCBuilder>,
    flip: bool,
}

impl LiftS {
    /// S-process `sidx` of `n` serving the lift at agreement bound `k`.
    pub fn new(sidx: usize, n: usize, k: usize) -> LiftS {
        LiftS {
            black_box: SetAgreementS::new(sidx as u32, n as u32, n, k as u32),
            engine: KcsSimS::new(sidx, n, n, k + 1, k + 1, BlackBoxCBuilder { k: k as u32 })
                .with_env_keys(mirror_keys(k))
                .colorless(),
            flip: false,
        }
    }
}

impl Process for LiftS {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        self.flip = !self.flip;
        if self.flip {
            Process::step(&mut self.black_box, ctx)
        } else {
            Process::step(&mut self.engine, ctx)
        }
    }

    fn label(&self) -> String {
        "lift-S".to_string()
    }
}

/// The black-box decision registers mirrored into the simulation.
fn mirror_keys(k: usize) -> Vec<RegKey> {
    (0..k as u32).map(boards::decision_key).collect()
}

/// Assembles the Theorem-7 system: `n` C-processes solving `(Π, k)`-set
/// agreement given a detector that (by assumption) solves `(U, k)`-set
/// agreement for `U = {p_0, …, p_k}`.
///
/// Run under the harness with a `→Ωk` detector.
///
/// # Panics
///
/// Panics unless `1 ≤ k < n` and `inputs.len() == n`.
pub fn theorem7_system(
    n: usize,
    k: usize,
    inputs: &[Value],
) -> CsProcs {
    assert!(k >= 1 && k < n, "need 1 ≤ k < n");
    assert_eq!(inputs.len(), n);
    let builder = BlackBoxCBuilder { k: k as u32 };
    let c: Vec<Box<dyn DynProcess>> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if v.is_unit() {
                Box::new(Inert) as Box<dyn DynProcess>
            } else {
                Box::new(
                    KcsSimC::new(i, n, n, k + 1, k + 1, v.clone(), builder)
                        .with_env_keys(mirror_keys(k))
                        .colorless()
                        .adopt_any(),
                ) as Box<dyn DynProcess>
            }
        })
        .collect();
    let s: Vec<Box<dyn DynProcess>> =
        (0..n).map(|q| Box::new(LiftS::new(q, n, k)) as Box<dyn DynProcess>).collect();
    (c, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::EfdRun;
    use wfa_fd::detectors::FdGen;
    use wfa_fd::pattern::FailurePattern;
    use wfa_kernel::value::Pid;
    use wfa_tasks::agreement::SetAgreement;
    use wfa_tasks::task::Task;

    fn run_lift(
        n: usize,
        k: usize,
        pattern: FailurePattern,
        seed: u64,
        stops: Vec<(Pid, u64)>,
    ) -> Vec<Value> {
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let (c, s) = theorem7_system(n, k, &inputs);
        let fd = FdGen::vector_omega_k(pattern, k, 150, seed);
        let mut run = EfdRun::new(c, s, fd);
        let mut sched = run.settling_sched(seed ^ 0xf00d, stops);
        run.run(&mut sched, 8_000_000);
        let out = run.output_vector();
        let task = SetAgreement::new(n, k);
        task.validate(&inputs, &out).unwrap_or_else(|e| panic!("n={n} k={k} seed={seed}: {e}"));
        out
    }

    #[test]
    fn consensus_among_two_lifts_to_all() {
        // k = 1, U = {p0, p1}: consensus among a fixed pair lifts to
        // consensus among all n = 4 (the \[12\] special case).
        for seed in 0..2 {
            let out = run_lift(4, 1, FailurePattern::failure_free(4), seed, vec![]);
            assert!(out.iter().all(|v| !v.is_unit()), "undecided: {out:?}");
        }
    }

    #[test]
    fn k2_lifts_among_five() {
        for seed in 0..2 {
            let out = run_lift(5, 2, FailurePattern::with_crashes(5, &[(4, 70)]), seed, vec![]);
            assert!(out.iter().all(|v| !v.is_unit()), "undecided: {out:?}");
        }
    }

    #[test]
    fn lift_is_wait_free() {
        // Processes outside U (and one inside) stop; the rest still decide.
        for seed in 0..2 {
            let out = run_lift(
                4,
                1,
                FailurePattern::failure_free(4),
                seed,
                vec![(Pid(1), 30), (Pid(3), 30)],
            );
            assert!(!out[0].is_unit() && !out[2].is_unit(), "undecided: {out:?}");
        }
    }
}
