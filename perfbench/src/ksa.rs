//! `ksa_abd` and `ksa_gossip`: closed-loop EFD k-set agreement.
//!
//! One synchronous caller runs fresh failure-free EFD k-set agreement runs
//! (n = 4, k = 2, stab = 50) back to back, each to decision through
//! `EfdRun::run_until_decided`, over a fresh register backend: a 5-replica
//! unbatched `AbdBackend` or a 4-replica eager (`interval` 1)
//! `GossipBackend`.

use std::time::Instant;

use wfa_algorithms::set_agreement::{SetAgreementC, SetAgreementS};
use wfa_core::harness::{CsProcs, EfdRun};
use wfa_fd::detectors::{FdGen, FdSource};
use wfa_fd::pattern::FailurePattern;
use wfa_gossip::backend::GossipBackend;
use wfa_gossip::config::GossipConfig;
use wfa_kernel::backend::MemoryBackend;
use wfa_kernel::process::DynProcess;
use wfa_kernel::sched::{RandomSched, Scheduler};
use wfa_kernel::value::Value;
use wfa_net::abd::AbdBackend;
use wfa_net::config::NetConfig;
use wfa_obs::metrics::{Counter, MetricsHandle};
use wfa_tasks::agreement::SetAgreement;
use wfa_tasks::task::Task;

use crate::trace::{self, TimedBackend, TimedFd, TimedProc, TimedSched};
use crate::{item_seed, mix, obs_of, read_obs, Mode, Sample};

/// C-processes (= S-processes).
pub const N: usize = 4;
/// Agreement bound.
pub const K: usize = 2;
/// Detector stabilization time.
pub const STAB: u64 = 50;
/// Slot budget per run (a run that exhausts it fails the benchmark).
pub const BUDGET: u64 = 5_000_000;
/// Runs that warm the caches during set-up.
pub const WARMUP: u64 = 64;
/// ABD replicas.
pub const ABD_NODES: usize = 5;
/// Gossip replicas.
pub const GOSSIP_NODES: usize = 4;

/// The register substrate a run's operations go through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Substrate {
    /// Unbatched ABD quorum replication.
    Abd,
    /// Eager delta-CRDT anti-entropy gossip.
    Gossip,
}

/// The workload's fixed inputs.
pub struct Ksa {
    seed: u64,
    substrate: Substrate,
    task: SetAgreement,
}

/// The seeded input vector of one run: small integers, so runs often share
/// values and agreement has something to reconcile.
pub fn inputs(seed: u64) -> Vec<Value> {
    (0..N as u64)
        .map(|i| Value::Int((mix(seed ^ i) % 16) as i64))
        .collect()
}

/// The EFD k-set agreement system for `input`.
pub fn system(input: &[Value]) -> CsProcs {
    let c = input
        .iter()
        .enumerate()
        .map(|(i, v)| Box::new(SetAgreementC::new(i, K as u32, v.clone())) as Box<dyn DynProcess>)
        .collect();
    let s = (0..N)
        .map(|q| {
            Box::new(SetAgreementS::new(q as u32, N as u32, N, K as u32)) as Box<dyn DynProcess>
        })
        .collect();
    (c, s)
}

impl Ksa {
    /// Fixes the substrate and warms the caches with [`WARMUP`] runs.
    ///
    /// # Errors
    ///
    /// The warm-up run's check failure.
    pub fn setup(seed: u64, substrate: Substrate) -> Result<Ksa, String> {
        let w = Ksa {
            seed,
            substrate,
            task: SetAgreement::new(N, K),
        };
        for j in 0..WARMUP {
            w.run(u64::MAX - j, Mode::Plain)?;
        }
        Ok(w)
    }

    /// The register substrate.
    pub fn substrate(&self) -> Substrate {
        self.substrate
    }

    /// A fresh backend for the run seeded `seed`, wrapped for timing when
    /// `timed`.
    fn backend(&self, seed: u64, timed: bool) -> Box<dyn MemoryBackend> {
        let seed = seed ^ 0x7e7;
        match (self.substrate, timed) {
            (Substrate::Abd, false) => Box::new(AbdBackend::new(NetConfig::new(ABD_NODES, seed))),
            (Substrate::Abd, true) => Box::new(TimedBackend(AbdBackend::new(NetConfig::new(
                ABD_NODES, seed,
            )))),
            (Substrate::Gossip, t) => {
                let b = GossipBackend::new(GossipConfig::new(GOSSIP_NODES, seed).with_interval(1));
                if t {
                    Box::new(TimedBackend(b))
                } else {
                    Box::new(b)
                }
            }
        }
    }

    /// Item `i`'s seed, input vector, automata and detector.
    fn parts(&self, i: u64) -> (u64, Vec<Value>, CsProcs, FdGen) {
        let seed = item_seed(self.seed, i);
        let input = inputs(seed);
        let procs = system(&input);
        let fd = FdGen::vector_omega_k(FailurePattern::failure_free(N), K, STAB, seed);
        (seed, input, procs, fd)
    }

    /// Item `i`'s run, unwrapped, recording into `obs`: its input vector, the
    /// assembled run over a fresh backend, and the run's fair scheduler.
    pub fn assemble(&self, i: u64, obs: MetricsHandle) -> (Vec<Value>, EfdRun, RandomSched) {
        let (seed, input, (c, s), fd) = self.parts(i);
        let run = EfdRun::new(c, s, fd)
            .with_metrics(obs)
            .with_backend(self.backend(seed, false));
        let sched = run.fair_sched(seed ^ 0xb5);
        (input, run, sched)
    }

    /// Runs item `i`: one k-set agreement run to decision.
    ///
    /// # Errors
    ///
    /// An undecided C-process or an output vector outside `SetAgreement(4, 2)`'s Δ.
    pub fn run(&self, i: u64, mode: Mode) -> Result<Sample, String> {
        if mode != Mode::Traced {
            let start = Instant::now();
            let (input, mut run, mut sched) = self.assemble(i, mode.handle());
            return self.finish(&mut run, &mut sched, &input, mode, (i, start));
        }
        trace::begin_run();
        let start = Instant::now();
        let (seed, input, (c, s), fd) = self.parts(i);
        let wrap = |ps: Vec<Box<dyn DynProcess>>, is_c| {
            ps.into_iter().map(|p| TimedProc::wrap(p, is_c)).collect()
        };
        let mut run = EfdRun::new(wrap(c, true), wrap(s, false), TimedFd(fd))
            .with_metrics(mode.handle())
            .with_backend(self.backend(seed, true));
        let mut sched = TimedSched(run.fair_sched(seed ^ 0xb5));
        self.finish(&mut run, &mut sched, &input, mode, (i, start))
    }

    fn finish<F: FdSource>(
        &self,
        run: &mut EfdRun<F>,
        sched: &mut dyn Scheduler,
        input: &[Value],
        mode: Mode,
        (i, start): (u64, Instant),
    ) -> Result<Sample, String> {
        let slots = run.run_until_decided(sched, BUDGET);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let output = run.output_vector();
        check(&self.task, input, &output, slots)?;
        let c_pids = run.roles.c_pids();
        let obs = read_obs(run.metrics());
        let mut sample = Sample {
            wall_ns,
            slots: slots.unwrap_or(BUDGET),
            own_steps: c_pids.iter().map(|p| run.executor.steps(*p)).collect(),
            outputs: output,
            msgs: (mode != Mode::Plain).then(|| obs_of(&obs, Counter::NetMsgsSent)),
            degradations: run.executor.degradations().len() as u64,
            resolutions: run.executor.resolutions().len() as u64,
            obs,
            ..Sample::default()
        };
        if mode == Mode::Traced {
            let (span, counts) = trace::end_run(i, wall_ns);
            sample.span = Some(span);
            sample.counts = counts;
        }
        Ok(sample)
    }
}

/// The run's output check: every C-process decided (`slots` is `Some`) and
/// the output vector satisfies the task's Δ.
///
/// # Errors
///
/// Names the undecided processes or the Δ-violation.
pub fn check(
    task: &SetAgreement,
    input: &[Value],
    output: &[Value],
    slots: Option<u64>,
) -> Result<(), String> {
    let undecided: Vec<usize> = output
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_unit())
        .map(|(i, _)| i)
        .collect();
    if slots.is_none() || !undecided.is_empty() {
        return Err(format!(
            "k-set agreement run left C-processes {undecided:?} undecided"
        ));
    }
    task.validate(input, output).map_err(|v| {
        format!("k-set agreement output violates Δ: {v}; I = {input:?}, O = {output:?}")
    })
}
