//! The E3 and E5 wait-freedom ensembles as benchmark cases, and the
//! `emit_bench_core` regenerator, which writes `BENCH_core.json`.
//!
//! Each case is one ensemble configuration of `tests/e3_lift.rs` or
//! `tests/e5_solver.rs`: the same system, task, budget, stabilization time
//! and base seed. Runs end by the harness's settle rule, so a row reports
//! when the output vector became final (`clock`), the own steps the deciding
//! C-processes took, and the wall time per run. Before the settle rule every
//! run spent its whole budget.

use std::sync::Arc;

use wfa::core::harness::{
    wait_freedom_ensemble, EnsembleConfig, EnsembleReport, EnsembleViolation, SystemFactory,
};
use wfa::core::lift::theorem7_system;
use wfa::core::solver::{theorem9_system, AdoptingTaskBuilder, RenamingBuilder};
use wfa::fd::detectors::FdGen;
use wfa::kernel::value::Value;
use wfa::tasks::agreement::SetAgreement;
use wfa::tasks::renaming::Renaming;
use wfa::tasks::task::Task;

/// Which experiment's system a case builds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    /// E3: the Theorem-7 lift of `(U, k)`-set agreement.
    Lift,
    /// E5: Theorem-9 k-set agreement with universal adopting codes.
    KSet,
    /// E5: Theorem-16 `(n−1, n+k−2)`-renaming with Figure-4 codes.
    Renaming,
}

/// One ensemble configuration of E3 or E5.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// The system under test.
    pub system: System,
    /// C-processes (= S-processes).
    pub n: usize,
    /// Agreement bound / advice level.
    pub k: usize,
    /// Slot budget per run: the wait-freedom bound.
    pub budget: u64,
    /// The ensemble's base seed.
    pub base_seed: u64,
}

impl Case {
    /// A stable row id, e.g. `e5/kset_n4_k2`.
    pub fn id(&self) -> String {
        let (exp, name) = match self.system {
            System::Lift => ("e3", "lift"),
            System::KSet => ("e5", "kset"),
            System::Renaming => ("e5", "renaming"),
        };
        format!("{exp}/{name}_n{}_k{}", self.n, self.k)
    }

    /// Runs the ensemble with `runs` seeded adversaries (stab = 120, up to
    /// n − 1 S-process crashes, as in the experiments).
    ///
    /// # Errors
    ///
    /// Every violation the ensemble finds.
    pub fn run(&self, runs: u64) -> Result<EnsembleReport, Vec<EnsembleViolation>> {
        let Case { system, n, k, budget, base_seed } = *self;
        let task: Arc<dyn Task> = match system {
            System::Lift | System::KSet => Arc::new(SetAgreement::new(n, k)),
            System::Renaming => Arc::new(Renaming::new(n, n - 1, n + k - 2)),
        };
        let builder = AdoptingTaskBuilder::new(task.clone());
        let f = move |input: &[Value], _fd: FdGen| match system {
            System::Lift => theorem7_system(n, k, input),
            System::KSet => theorem9_system(n, k, input, builder.clone()),
            System::Renaming => theorem9_system(n, k, input, RenamingBuilder { m: n }),
        };
        let factory: &SystemFactory<'_> = &f;
        let cfg = EnsembleConfig { n, budget, stab: 120, runs };
        wait_freedom_ensemble(
            task,
            &cfg,
            n - 1,
            &|p, stab, seed| FdGen::vector_omega_k(p, k, stab, seed),
            factory,
            base_seed,
        )
    }
}

/// The configurations of `tests/e3_lift.rs` and `tests/e5_solver.rs`.
pub fn cases() -> Vec<Case> {
    let lift = [(3, 1), (4, 1), (4, 2)]
        .map(|(n, k)| Case { system: System::Lift, n, k, budget: 9_000_000, base_seed: (n * 100 + k) as u64 });
    let kset = [(3, 1), (3, 2), (4, 2)]
        .map(|(n, k)| Case { system: System::KSet, n, k, budget: 8_000_000, base_seed: (n * 1000 + k) as u64 });
    let renaming = [(3, 1), (4, 2)].map(|(n, k)| Case {
        system: System::Renaming,
        n,
        k,
        budget: 10_000_000,
        base_seed: (n * 7000 + k) as u64,
    });
    lift.into_iter().chain(kset).chain(renaming).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Seeded adversaries per case, as in the experiments.
    const RUNS: u64 = 30;

    fn median(mut xs: Vec<u64>) -> u64 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    /// `cargo test -q` wall time of the test phase before and after
    /// executor fingerprints became lazy, in seconds: the mean of two runs
    /// at each commit, run alternately (see the host note in the JSON).
    const TIER1_BEFORE_S: f64 = 19.6;
    const TIER1_AFTER_S: f64 = 12.8;

    /// Median ns of the executor benches before and after fingerprints
    /// became lazy: `CRITERION_JSON=out.json cargo bench -p wfa-bench
    /// --bench kernel -- kernel/executor`, the median of three such runs
    /// at each commit, run alternately.
    const KERNEL_NS: [(&str, f64, f64); 2] = [
        ("kernel/executor/step_dispatch", 476.8, 441.2),
        ("kernel/executor/step_then_fingerprint", 539.4, 478.9),
    ];

    /// Regenerates `BENCH_core.json` at the repository root:
    /// `cargo test -p wfa-bench --release emit_bench_core -- --ignored --nocapture`
    #[test]
    #[ignore = "writes BENCH_core.json; run explicitly to regenerate it"]
    fn emit_bench_core() {
        const SAMPLES: usize = 3;
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let rows: Vec<String> = cases()
            .iter()
            .map(|case| {
                let mut wall_us = Vec::new();
                let mut report = EnsembleReport::default();
                for _ in 0..SAMPLES {
                    let t = Instant::now();
                    report = case.run(RUNS).unwrap_or_else(|v| panic!("{}: {v:?}", case.id()));
                    wall_us.push(t.elapsed().as_micros() as u64 / RUNS);
                }
                let clocks: Vec<u64> = report.runs.iter().map(|r| r.clock).collect();
                assert!(clocks.iter().all(|c| *c < case.budget), "{}: a run never settled", case.id());
                let to_decide: Vec<u64> = report.runs.iter().map(|r| r.slots_to_decide).collect();
                let own: Vec<u64> = report
                    .runs
                    .iter()
                    .flat_map(|r| r.output.iter().zip(&r.c_steps).filter(|(o, _)| !o.is_unit()))
                    .map(|(_, s)| *s)
                    .collect();
                format!(
                    "      {{\"id\": \"{id}\", \"runs\": {RUNS}, \"budget\": {budget}, \
                     \"clock_p50\": {clock}, \"clock_max\": {clock_max}, \
                     \"slots_to_decide_p50\": {decide}, \"slots_to_decide_max\": {decide_max}, \
                     \"own_steps_p50\": {own50}, \"own_steps_max\": {own_max}, \
                     \"wall_ms_per_run_p50\": {wall:.3}}}",
                    id = case.id(),
                    budget = case.budget,
                    clock = median(clocks.clone()),
                    clock_max = clocks.iter().max().unwrap(),
                    decide = median(to_decide.clone()),
                    decide_max = to_decide.iter().max().unwrap(),
                    own50 = median(own.clone()),
                    own_max = own.iter().max().unwrap(),
                    wall = median(wall_us) as f64 / 1000.0,
                )
            })
            .collect();
        let text = format!(
            "{{\n  \"description\": \"E3 and E5 wait-freedom ensembles (the configurations \
             of tests/e3_lift.rs and tests/e5_solver.rs, {RUNS} seeded adversaries each) \
             under the harness settle rule: a run ends once every C-process has decided, \
             halted or been starved, so the output vector is final. clock_*: logical time \
             at which a run settled (before the rule every run ran its whole budget). \
             slots_to_decide_*: RunReport::slots_to_decide, the slots run up to and \
             including the last C-process decision; clock can be later, because a settled \
             run also waits out the stop times of C-processes that never decide. \
             own_steps_*: own steps of every C-process that decided, over all runs. \
             wall_ms_per_run_p50: median over {SAMPLES} repetitions of the ensemble's wall \
             time divided by its runs. kernel_ns: median ns per iteration of the executor \
             benches (CRITERION_JSON=out.json cargo bench -p wfa-bench --bench kernel -- \
             kernel/executor; median of three runs at each commit, run alternately) before \
             and after executor fingerprints became lazy; step_then_fingerprint is the \
             explorer's per-child pattern over four processes. Regenerate: cargo test -p \
             wfa-bench --release emit_bench_core -- --ignored --nocapture (the kernel_ns \
             and tier1_test_s figures are constants in crates/bench/src/ensembles.rs). \
             Methodology: EXPERIMENTS.md E3, E5.\",\n  \
             \"date\": \"2026-10-18\",\n  \
             \"host\": {{\n    \"cores\": {cores},\n    \"note\": \"Shared container \
             host; wall times drift with the host, the clock, slots_to_decide and own-step \
             columns are deterministic and identical on every host. tier1_test_s: wall \
             time of the test phase of cargo test -q (built first with cargo test -q \
             --no-run), before and after executor fingerprints became lazy, measured on \
             the same host.\"\n  }},\n  \
             \"results\": [\n{rows}\n  ],\n  \
             \"kernel_ns\": [\n{kernel}\n  ],\n  \
             \"tier1_test_s\": {{\"before\": {TIER1_BEFORE_S:.1}, \"after\": \
             {TIER1_AFTER_S:.1}}}\n}}\n",
            rows = rows.join(",\n"),
            kernel = KERNEL_NS
                .map(|(id, before, after)| {
                    format!("      {{\"id\": \"{id}\", \"before\": {before:.1}, \"after\": {after:.1}}}")
                })
                .join(",\n"),
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
        std::fs::write(path, &text).expect("write BENCH_core.json");
        print!("{text}");
    }
}
