//! `ensemble`: Theorem-9 k-set agreement wait-freedom ensembles on shared
//! memory.
//!
//! Each item is one `wait_freedom_ensemble` call with `runs: 1` (E5's
//! configuration: n = 4, k = 2, stab = 120, up to n − 1 S-process crashes,
//! adversarial C-process stops) over a fixed slot budget. Live C-processes
//! decide within a few thousand slots; the S-processes then spin to the end
//! of the budget, so harness, kernel step and automaton cost dominate.

use std::sync::Arc;

use wfa_core::harness::{
    wait_freedom_ensemble, CsProcs, EfdRun, EnsembleConfig, EnsembleReport, EnsembleViolation,
};
use wfa_core::solver::{theorem9_system, AdoptingTaskBuilder};
use wfa_fd::detectors::FdGen;
use wfa_fd::pattern::FailurePattern;
use wfa_kernel::process::DynProcess;
use wfa_kernel::value::Value;
use wfa_obs::metrics::MetricsHandle;
use wfa_tasks::agreement::SetAgreement;
use wfa_tasks::task::Task;

use crate::trace::{self, TimedProc};
use crate::{item_seed, Mode, Sample};

/// C-processes (= S-processes).
pub const N: usize = 4;
/// Agreement bound and concurrency level.
pub const K: usize = 2;
/// Detector stabilization time.
pub const STAB: u64 = 120;
/// Schedule slots per adversarial run. The latest decision seen over 1,200
/// seeded runs came at logical time 7,111, so live C-processes decide well
/// inside it; it is small enough for a few hundred runs per 25-second
/// window on a 2-core host, enough for a steady median of runs that differ
/// up to fourfold in cost.
pub const BUDGET: u64 = 20_000;
/// Slots of the short run that warms the caches during set-up and measures
/// the observability overhead.
pub const PROBE_SLOTS: u64 = 20_000;

/// A factory of EFD systems, as `wait_freedom_ensemble` takes it.
pub type Factory = dyn Fn(&[Value], FdGen) -> CsProcs;

/// The workload's fixed inputs.
pub struct Ensemble {
    seed: u64,
    task: Arc<dyn Task>,
    factory: Box<Factory>,
}

impl Ensemble {
    /// Builds the Theorem-9 system factory for k-set agreement and warms it
    /// with one short run.
    pub fn setup(seed: u64) -> Ensemble {
        let task: Arc<dyn Task> = Arc::new(SetAgreement::new(N, K));
        let builder = AdoptingTaskBuilder::new(task.clone());
        let w = Ensemble::with_factory(
            seed,
            task,
            Box::new(move |input: &[Value], _fd: FdGen| {
                theorem9_system(N, K, input, builder.clone())
            }),
        );
        w.probe(0, MetricsHandle::disabled());
        w
    }

    /// The workload over an arbitrary system factory (tests plant broken
    /// systems through it).
    pub fn with_factory(seed: u64, task: Arc<dyn Task>, factory: Box<Factory>) -> Ensemble {
        Ensemble {
            seed,
            task,
            factory,
        }
    }

    /// Runs item `i`: one adversarial run through `wait_freedom_ensemble`.
    ///
    /// # Errors
    ///
    /// Every safety or wait-freedom violation the ensemble reports.
    pub fn run(&self, i: u64, mode: Mode) -> Result<Sample, String> {
        let cfg = EnsembleConfig {
            n: N,
            budget: BUDGET,
            stab: STAB,
            runs: 1,
        };
        let mk_fd = |p, stab, seed| FdGen::vector_omega_k(p, K, stab, seed);
        let traced = mode == Mode::Traced;
        let wrapped = |input: &[Value], fd: FdGen| -> CsProcs {
            let (c, s) = (self.factory)(input, fd);
            if !traced {
                return (c, s);
            }
            let wrap = |ps: Vec<Box<dyn DynProcess>>, is_c| {
                ps.into_iter().map(|p| TimedProc::wrap(p, is_c)).collect()
            };
            (wrap(c, true), wrap(s, false))
        };
        if traced {
            trace::begin_run();
        }
        let t = std::time::Instant::now();
        let result = wait_freedom_ensemble(
            self.task.clone(),
            &cfg,
            N - 1,
            &mk_fd,
            &wrapped,
            item_seed(self.seed, i),
        );
        let wall_ns = t.elapsed().as_nanos() as u64;
        let report = check(result)?;
        let run = &report.runs[0];
        let mut sample = Sample {
            wall_ns,
            slots: BUDGET,
            outputs: run.output.clone(),
            own_steps: run
                .output
                .iter()
                .zip(&run.c_steps)
                .filter(|(o, _)| !o.is_unit())
                .map(|(_, s)| *s)
                .collect(),
            ..Sample::default()
        };
        if traced {
            let (span, counts) = trace::end_run(i, wall_ns);
            sample.span = Some(span);
            sample.counts = counts;
        }
        Ok(sample)
    }

    /// A `PROBE_SLOTS`-slot failure-free run of the same system recording
    /// into `obs`; returns its wall time in ns. Set-up uses it to warm the
    /// caches, and the traced run compares `obs` enabled and disabled on it
    /// (`wait_freedom_ensemble` takes no observability handle).
    pub fn probe(&self, i: u64, obs: MetricsHandle) -> u64 {
        let seed = item_seed(self.seed ^ 0x0b5, i);
        let input: Vec<Value> = (0..N as i64).map(Value::Int).collect();
        let fd = FdGen::vector_omega_k(FailurePattern::failure_free(N), K, STAB, seed);
        let (c, s) = (self.factory)(&input, fd.clone());
        let mut run = EfdRun::new(c, s, fd).with_metrics(obs);
        let mut sched = run.fair_sched(seed);
        let t = std::time::Instant::now();
        run.run(&mut sched, PROBE_SLOTS);
        t.elapsed().as_nanos() as u64
    }
}

/// The ensemble's own verdict: `Ok` with one report per run, or every
/// violation found.
///
/// # Errors
///
/// The violations, joined into one message.
pub fn check(
    result: Result<EnsembleReport, Vec<EnsembleViolation>>,
) -> Result<EnsembleReport, String> {
    result.map_err(|vs| {
        let lines: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
        format!("ensemble violated: {}", lines.join("; "))
    })
}
