//! Experiment E5 — Theorem 9: every k-concurrently solvable task is solvable
//! with `¬Ωk` in EFD, wait-free.
//!
//! Full wait-freedom ensembles through the harness: random failure patterns
//! in E_{n−1}, adversarial C-process stops at random times, random fair
//! schedules — every surviving C-process must decide and every output vector
//! must satisfy Δ. Instantiated for the agreement family (universal adopting
//! codes) and renaming (Figure-4 codes, Theorem 16).

use std::sync::Arc;

use wfa::core::harness::{wait_freedom_ensemble, EnsembleConfig, SystemFactory};
use wfa::core::solver::{theorem9_system, AdoptingTaskBuilder, RenamingBuilder};
use wfa::fd::detectors::FdGen;
use wfa::kernel::value::Value;
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::renaming::Renaming;
use wfa::tasks::task::Task;

#[test]
fn e5_k_set_agreement_ensembles() {
    for (n, k) in [(3usize, 1usize), (3, 2), (4, 2)] {
        let task: Arc<dyn Task> = Arc::new(SetAgreement::new(n, k));
        let builder = AdoptingTaskBuilder::new(task.clone());
        let f = move |input: &[Value], _fd: FdGen| theorem9_system(n, k, input, builder.clone());
        let sf: &SystemFactory<'_> = &f;
        let cfg = EnsembleConfig { n, budget: 8_000_000, stab: 120, runs: 30 };
        wait_freedom_ensemble(
            task,
            &cfg,
            n - 1,
            &|p, stab, seed| FdGen::vector_omega_k(p, k, stab, seed),
            sf,
            (n * 1000 + k) as u64,
        )
        .unwrap_or_else(|v| panic!("k-set ensemble (n={n}, k={k}) violated: {v:?}"));
    }
}

#[test]
fn e5_renaming_ensembles() {
    // (j, j+k−1)-renaming with ¬Ωk (Theorem 16): j = n−1 participants.
    for (n, k) in [(3usize, 1usize), (4, 2)] {
        let j = n - 1;
        let task: Arc<dyn Task> = Arc::new(Renaming::new(n, j, j + k - 1));
        let f = move |input: &[Value], _fd: FdGen| {
            theorem9_system(n, k, input, RenamingBuilder { m: n })
        };
        let sf: &SystemFactory<'_> = &f;
        let cfg = EnsembleConfig { n, budget: 10_000_000, stab: 120, runs: 30 };
        wait_freedom_ensemble(
            task,
            &cfg,
            n - 1,
            &|p, stab, seed| FdGen::vector_omega_k(p, k, stab, seed),
            sf,
            (n * 7000 + k) as u64,
        )
        .unwrap_or_else(|v| panic!("renaming ensemble (n={n}, k={k}) violated: {v:?}"));
    }
}
