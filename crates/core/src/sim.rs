//! The Figure-2 simulation engine: consensus-driven, advice-led, k-concurrent
//! (Appendix C.1/C.2).
//!
//! This engine is the operational heart of Theorem 9. A set of *codes*
//! (deterministic [`SnapshotCode`]s, at most `window` of which are active at
//! a time) is advanced in agreed rounds: each round of each code is one
//! leader-based consensus instance (`cons_{j,ℓ}`, [`BallotAgent`]) whose
//! decided value is the snapshot the code consumes. Proposals are assembled
//! from a real shared *state board* (single-writer slots, per-code maximum
//! round — monotone), plus the task *input board*; application is a pure
//! function of the agreed value, so every process's replica stays identical.
//!
//! Leadership follows the paper's two rules:
//! * while `|pars| ≤ k`, the w-th smallest participating C-simulator leads
//!   the w-th active code (the fast path of Figure 2);
//! * S-processes lead according to their `→Ωk` module: the S-process named
//!   at vector position `w` leads the w-th active code (positions beyond the
//!   active count wrap around, so the eventually-stable position always
//!   drives *some* undecided code — this wrap is our addition to Figure 2;
//!   it is what lets a single stable position shepherd every code to a
//!   decision one after another, giving wait-freedom for all C-processes).
//!
//! Instantiations:
//! * `n` codes with `window = k` and codes = [`crate::code::RegisterSimCode`] of an
//!   algorithm `A` that solves a task k-concurrently — this **is** the
//!   Theorem-9 solver (see [`crate::solver`]): the simulated run of `A` is
//!   k-concurrent, and the agreed sequence is driven by S-processes alone,
//!   so every C-process decides in finitely many of its own steps.
//!   (The paper reaches the same object through a two-level construction —
//!   Figure 2 over k driver codes running extended BG over n codes; we
//!   flatten the two levels into one engine with an active-window rule,
//!   which produces the same k-concurrent agreed runs. Recorded in
//!   DESIGN.md.)
//! * `k` codes with `window = k` — literal Figure 2 (Theorem 14): at most
//!   `min(ℓ, k)` codes take steps when `ℓ` simulators participate, and at
//!   least one code takes infinitely many steps.

use wfa_algorithms::boards;
use wfa_algorithms::consensus::{BallotAgent, BallotOutcome};
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{Process, Status, StepCtx};
use wfa_kernel::value::Value;
use wfa_objects::driver::{Driver, Step};
use wfa_obs::local as obs_local;
use wfa_obs::metrics::Counter;

use crate::code::{encode_write, CodeBuilder, SnapshotCode};

/// Namespace of the engine's state board.
const NS_KCS_BOARD: u16 = 95;
/// Base of the engine's consensus-instance ids (disjoint from the k-set
/// agreement instances `0..k`).
const KCS_BASE: u32 = 1 << 25;

/// Consensus instance for round `round` of code `code`.
fn kcs_inst(code: usize, round: u32) -> u32 {
    assert!(round < (1 << 16), "simulated run too long for instance encoding");
    KCS_BASE + ((code as u32) << 16) + round
}

/// State-board slot of engine party `party` for code `code`.
fn kcs_board_key(party: u32, code: u32) -> RegKey {
    RegKey::idx(NS_KCS_BOARD, party, code, 0, 0)
}

fn board_val(round: u32, state: &Value) -> Value {
    Value::tuple([Value::Int(round as i64 + 1), state.clone()])
}

fn board_fields(v: &Value) -> Option<(u32, Value)> {
    Some(((v.get(0)?.as_int()? - 1) as u32, v.get(1)?.clone()))
}

/// The replicated, deterministic part of the engine (identical at every
/// party that replays the agreed sequence).
#[derive(Clone, Hash, Debug)]
struct Replica<B: CodeBuilder> {
    n_codes: usize,
    builder: B,
    codes: Vec<Option<B::Code>>,
    states: Vec<Value>,
    rounds: Vec<u32>,
    /// Inputs as fixed by the first agreed view that mentioned them.
    inputs: Vec<Value>,
}

impl<B: CodeBuilder> Replica<B> {
    fn new(n_codes: usize, builder: B) -> Replica<B> {
        Replica {
            n_codes,
            builder,
            codes: (0..n_codes).map(|_| None).collect(),
            states: vec![Value::Unit; n_codes],
            rounds: vec![0; n_codes],
            inputs: vec![Value::Unit; n_codes],
        }
    }

    fn decision(&self, code: usize) -> Option<Value> {
        self.codes[code].as_ref().and_then(SnapshotCode::decision)
    }

    /// Applies the agreed view for `code`'s next round. A pure function of
    /// the agreed value: the view fixes both the snapshot and the inputs.
    fn apply(&mut self, code: usize, agreed: &Value) {
        obs_local::bump(Counter::SimulatedSteps);
        let mut states = agreed.get(0).and_then(Value::as_tuple).expect("view states").to_vec();
        let inputs = agreed.get(1).and_then(Value::as_tuple).expect("view inputs").to_vec();
        if let Some(env) = agreed.get(2) {
            states.push(env.clone()); // pseudo-state slot carrying env writes
        }
        for (mine, seen) in self.inputs.iter_mut().zip(&inputs).take(self.n_codes) {
            if mine.is_unit() && !seen.is_unit() {
                *mine = seen.clone();
            }
        }
        if self.codes[code].is_none() {
            if self.inputs[code].is_unit() {
                // The proposer raced a non-participant: agreed no-op round.
                self.rounds[code] += 1;
                return;
            }
            self.codes[code] = Some(self.builder.build(code, &self.inputs[code]));
        }
        let new_state = self.codes[code].as_mut().expect("built above").on_snapshot(&states);
        self.states[code] = new_state;
        self.rounds[code] += 1;
    }

    /// The codes this replica believes are participating and undecided, in
    /// id order, capped at `window` — the active set.
    fn active(&self, window: usize, seen_inputs: &[Value]) -> Vec<usize> {
        (0..self.n_codes)
            .filter(|i| {
                (!self.inputs[*i].is_unit() || !seen_inputs[*i].is_unit())
                    && self.decision(*i).is_none()
            })
            .take(window)
            .collect()
    }
}

/// Which code a leader slot `w` currently drives.
fn slot_target(active: &[usize], w: usize) -> Option<usize> {
    if active.is_empty() {
        None
    } else {
        Some(active[w % active.len()])
    }
}

#[derive(Clone, Hash, Debug)]
enum Activity {
    /// Assemble a proposal (board + input snapshot) and start a ballot.
    Ballot { code: usize, round: u32, agent: BallotAgent },
    /// Publish the replica's new state for `code` on the board.
    WriteBoard { code: usize },
}

/// Shared engine mechanics for both C- and S-parties.
#[derive(Clone, Hash, Debug)]
struct EngineCore<B: CodeBuilder> {
    /// This party's slot on the state board.
    party: u32,
    /// Total board parties (n C-simulators + n S-processes).
    n_parties: u32,
    /// Number of C-simulators (board input slots).
    n_sims: usize,
    window: usize,
    replica: Replica<B>,
    /// Real registers mirrored into the simulation (their values enter every
    /// agreed view as high-timestamp pseudo-writes — see `crate::lift`).
    env_keys: Vec<RegKey>,
    /// Inject the first published input as every code's input (colorless
    /// tasks, Theorem 7).
    colorless: bool,
    /// Latest raw input-board observation (for participation guesses).
    seen_inputs: Vec<Value>,
    rotation: u32,
    ballot_rounds: Vec<u32>,
    activity: Option<Activity>,
}

impl<B: CodeBuilder> EngineCore<B> {
    fn new(
        party: u32,
        n_parties: u32,
        n_sims: usize,
        n_codes: usize,
        window: usize,
        builder: B,
    ) -> EngineCore<B> {
        EngineCore {
            party,
            n_parties,
            n_sims,
            window,
            replica: Replica::new(n_codes, builder),
            env_keys: Vec::new(),
            colorless: false,
            seen_inputs: vec![Value::Unit; n_sims],
            rotation: 0,
            ballot_rounds: vec![0; n_codes],
            activity: None,
        }
    }

    fn board_and_input_keys(&self) -> Vec<RegKey> {
        let n_codes = self.replica.n_codes as u32;
        (0..self.n_parties)
            .flat_map(move |p| (0..n_codes).map(move |c| kcs_board_key(p, c)))
            .chain((0..self.n_sims).map(boards::input_key))
            .chain(self.env_keys.iter().copied())
            .collect()
    }

    /// Assembles the proposal view from a raw snapshot of board + inputs.
    fn assemble_view(&mut self, raw: &[Value]) -> Value {
        let n_codes = self.replica.n_codes;
        let board_len = (self.n_parties as usize) * n_codes;
        let mut best: Vec<(i64, Value)> = (0..n_codes)
            .map(|c| {
                if self.replica.rounds[c] > 0 {
                    (self.replica.rounds[c] as i64 - 1, self.replica.states[c].clone())
                } else {
                    (-1, Value::Unit)
                }
            })
            .collect();
        for (i, v) in raw[..board_len].iter().enumerate() {
            let c = i % n_codes;
            if let Some((round, state)) = board_fields(v) {
                if (round as i64) > best[c].0 {
                    best[c] = (round as i64, state);
                }
            }
        }
        let raw_inputs = &raw[board_len..board_len + self.n_sims];
        let mut inputs = vec![Value::Unit; n_codes];
        for (i, v) in raw_inputs.iter().enumerate() {
            if i < n_codes {
                inputs[i] = v.clone();
            }
            if i < self.seen_inputs.len() && !v.is_unit() {
                self.seen_inputs[i] = v.clone();
            }
        }
        // Replica may already have fixed inputs the raw read missed.
        for (i, inp) in inputs.iter_mut().enumerate() {
            if inp.is_unit() && !self.replica.inputs[i].is_unit() {
                *inp = self.replica.inputs[i].clone();
            }
        }
        if self.colorless {
            // Theorem-7 injection: every code gets the first published input.
            let first = inputs.iter().find(|v| !v.is_unit()).cloned();
            if let Some(first) = first {
                for inp in &mut inputs {
                    *inp = first.clone();
                }
            }
        }
        // Mirrored environment registers enter the view as pseudo-writes with
        // a dominant timestamp (real registers here are write-once boards).
        let env = Value::tuple(
            self.env_keys
                .iter()
                .zip(&raw[board_len + self.n_sims..])
                .filter(|(_, v)| !v.is_unit())
                .map(|(k, v)| encode_write(k, u64::MAX / 2, v)),
        );
        Value::tuple([
            Value::tuple(best.into_iter().map(|(_, s)| s)),
            Value::tuple(inputs),
            env,
        ])
    }

    fn active(&self) -> Vec<usize> {
        self.replica.active(self.window, &self.seen_inputs)
    }

    /// One engine step: either continue the current activity or start a new
    /// one. `leads` gives the codes this party currently leads.
    fn step(&mut self, ctx: &mut StepCtx<'_>, leads: &[usize]) {
        match self.activity.take() {
            None => {
                // Priority: lead a code we own; otherwise replay decisions.
                self.rotation = self.rotation.wrapping_add(1);
                let owned: Vec<usize> = leads
                    .iter()
                    .copied()
                    .filter(|c| self.replica.decision(*c).is_none())
                    .collect();
                if !owned.is_empty() && self.rotation.is_multiple_of(2) {
                    let code = owned[(self.rotation / 2) as usize % owned.len()];
                    let round = self.replica.rounds[code];
                    // Assemble a proposal (one snapshot op) and start ballots.
                    let raw = self.board_and_input_keys();
                    let snap = ctx.snapshot(&raw);
                    let view = self.assemble_view(&snap);
                    let agent = BallotAgent::new(
                        kcs_inst(code, round),
                        self.n_parties,
                        self.party,
                        self.ballot_rounds[code],
                        view,
                    );
                    self.activity = Some(Activity::Ballot { code, round, agent });
                } else if self.rotation % 4 == 1 {
                    // Participation scan: learn who has published an input
                    // (leadership and the active set both depend on it, and a
                    // party that never leads would otherwise never find out).
                    let i = (self.rotation as usize / 4) % self.n_sims;
                    let v = ctx.read(boards::input_key(i));
                    if !v.is_unit() {
                        self.seen_inputs[i] = v;
                    }
                } else {
                    // Replay: poll the next round of some undecided code.
                    let undecided: Vec<usize> = (0..self.replica.n_codes)
                        .filter(|c| self.replica.decision(*c).is_none())
                        .collect();
                    if undecided.is_empty() {
                        let _ = ctx.read(boards::input_key(0));
                        return;
                    }
                    let idx = undecided[self.rotation as usize % undecided.len()];
                    let raw =
                        ctx.read(boards::decision_key(kcs_inst(idx, self.replica.rounds[idx])));
                    if let Some(agreed) = boards::read_decision(&raw) {
                        self.replica.apply(idx, &agreed);
                        self.activity = Some(Activity::WriteBoard { code: idx });
                    }
                }
            }
            Some(Activity::Ballot { code, round, mut agent }) => {
                // Abandon the ballot if the round was already replayed or we
                // no longer lead the code.
                if self.replica.rounds[code] != round || !leads.contains(&code) {
                    let _ = ctx.read(boards::decision_key(kcs_inst(code, round)));
                    return;
                }
                match agent.poll(ctx) {
                    Step::Done(BallotOutcome::Decided(agreed)) => {
                        obs_local::bump(Counter::ConsensusRounds);
                        self.replica.apply(code, &agreed);
                        self.activity = Some(Activity::WriteBoard { code });
                    }
                    Step::Done(BallotOutcome::Aborted { higher }) => {
                        obs_local::bump(Counter::ConsensusAborts);
                        self.ballot_rounds[code] =
                            BallotAgent::round_above(self.n_parties, self.party, higher);
                    }
                    Step::Pending => self.activity = Some(Activity::Ballot { code, round, agent }),
                }
            }
            Some(Activity::WriteBoard { code }) => {
                let round = self.replica.rounds[code] - 1;
                ctx.write(
                    kcs_board_key(self.party, code as u32),
                    board_val(round, &self.replica.states[code]),
                );
            }
        }
    }
}

/// C-simulator side of the engine: publishes its input, co-drives the
/// simulation, and decides when its own code decides.
#[derive(Clone, Hash, Debug)]
pub struct KcsSimC<B: CodeBuilder> {
    sim_idx: usize,
    k: usize,
    input: Value,
    published: bool,
    /// Decide on the first decided code instead of one's own code (used by
    /// colorless constructions such as Theorem 7's lifting).
    adopt_any: bool,
    core: EngineCore<B>,
}

impl<B: CodeBuilder> KcsSimC<B> {
    /// C-simulator `sim_idx` of `n_sims`, with `n_s` S-processes, driving
    /// `n_codes` codes at concurrency `window = k`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions or a `⊥` input.
    pub fn new(
        sim_idx: usize,
        n_sims: usize,
        n_s: usize,
        n_codes: usize,
        k: usize,
        input: Value,
        builder: B,
    ) -> KcsSimC<B> {
        assert!(sim_idx < n_sims && k >= 1);
        assert!(!input.is_unit(), "input must be non-⊥");
        KcsSimC {
            sim_idx,
            k,
            input,
            published: false,
            adopt_any: false,
            core: EngineCore::new(
                sim_idx as u32,
                (n_sims + n_s) as u32,
                n_sims,
                n_codes,
                k,
                builder,
            ),
        }
    }

    /// Mirrors real registers into every agreed view (see module docs).
    pub fn with_env_keys(mut self, keys: Vec<RegKey>) -> Self {
        self.core.env_keys = keys;
        self
    }

    /// Enables colorless input injection (Theorem 7).
    pub fn colorless(mut self) -> Self {
        self.core.colorless = true;
        self
    }

    /// Decide on the first decided code (smallest index) instead of the own
    /// code — colorless adoption (Theorem 7).
    pub fn adopt_any(mut self) -> Self {
        self.adopt_any = true;
        self
    }

    /// The decision this simulator would return right now, per its mode.
    fn my_decision(&self) -> Option<Value> {
        if self.adopt_any {
            (0..self.core.replica.n_codes).find_map(|c| self.core.replica.decision(c))
        } else if self.sim_idx < self.core.replica.n_codes {
            self.core.replica.decision(self.sim_idx)
        } else {
            None
        }
    }

    /// Codes this simulator leads under the `|pars| ≤ k` fast path.
    fn my_leads(&self) -> Vec<usize> {
        let pars: Vec<usize> = (0..self.core.n_sims)
            .filter(|i| !self.core.seen_inputs[*i].is_unit() || *i == self.sim_idx)
            .collect();
        if pars.len() > self.k {
            return Vec::new();
        }
        let active = self.core.active();
        let mut leads = Vec::new();
        if let Some(w) = pars.iter().position(|p| *p == self.sim_idx) {
            if let Some(c) = slot_target(&active, w) {
                leads.push(c);
            }
        }
        leads
    }
}

impl<B: CodeBuilder + Clone + std::hash::Hash + 'static> Process for KcsSimC<B> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        if !self.published {
            ctx.write(boards::input_key(self.sim_idx), self.input.clone());
            self.core.seen_inputs[self.sim_idx] = self.input.clone();
            self.published = true;
            return Status::Running;
        }
        if let Some(v) = self.my_decision() {
            return Status::Decided(v);
        }
        let leads = self.my_leads();
        self.core.step(ctx, &leads);
        match self.my_decision() {
            Some(v) => Status::Decided(v),
            None => Status::Running,
        }
    }

    fn label(&self) -> String {
        format!("kcs-C{}", self.sim_idx)
    }
}

/// S-process side of the engine: replays the agreed sequence and leads codes
/// according to its `→Ωk` module.
#[derive(Clone, Hash, Debug)]
pub struct KcsSimS<B: CodeBuilder> {
    sidx: usize,
    k: usize,
    core: EngineCore<B>,
}

impl<B: CodeBuilder> KcsSimS<B> {
    /// S-process `sidx` of `n_s`, serving `n_sims` C-simulators.
    pub fn new(
        sidx: usize,
        n_s: usize,
        n_sims: usize,
        n_codes: usize,
        k: usize,
        builder: B,
    ) -> KcsSimS<B> {
        assert!(sidx < n_s && k >= 1);
        KcsSimS {
            sidx,
            k,
            core: EngineCore::new(
                (n_sims + sidx) as u32,
                (n_sims + n_s) as u32,
                n_sims,
                n_codes,
                k,
                builder,
            ),
        }
    }

    /// Mirrors real registers into every agreed view (see module docs).
    pub fn with_env_keys(mut self, keys: Vec<RegKey>) -> Self {
        self.core.env_keys = keys;
        self
    }

    /// Enables colorless input injection (Theorem 7).
    pub fn colorless(mut self) -> Self {
        self.core.colorless = true;
        self
    }

    /// Codes this S-process leads per its current advice vector.
    fn my_leads(&self, fd: Option<&Value>) -> Vec<usize> {
        let Some(vec) = fd.and_then(Value::as_tuple) else { return Vec::new() };
        let active = self.core.active();
        let mut leads = Vec::new();
        for (w, v) in vec.iter().take(self.k).enumerate() {
            if v.as_int() == Some(self.sidx as i64) {
                if let Some(c) = slot_target(&active, w) {
                    if !leads.contains(&c) {
                        leads.push(c);
                    }
                }
            }
        }
        leads
    }
}

impl<B: CodeBuilder + Clone + std::hash::Hash + 'static> Process for KcsSimS<B> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let leads = self.my_leads(ctx.fd());
        self.core.step(ctx, &leads);
        Status::Running
    }

    fn label(&self) -> String {
        format!("kcs-S{}", self.sidx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{FnBuilder, RegisterSimCode};
    use crate::harness::EfdRun;
    use wfa_algorithms::renaming::RenamingFig4;
    use wfa_fd::detectors::FdGen;
    use wfa_fd::pattern::FailurePattern;
    use wfa_kernel::process::DynProcess;
    use wfa_kernel::value::Pid;

    type RenCode = RegisterSimCode<RenamingFig4>;

    /// Builder: code i runs Figure-4 renaming (input is its identity; the
    /// name-space board is sized by a fixed upper bound on m).
    fn ren_builder(n: usize) -> FnBuilder<RenCode> {
        fn f(i: usize, _input: &Value) -> RenCode {
            RegisterSimCode::new(i, RenamingFig4::new(i, 8))
        }
        assert!(n <= 8);
        FnBuilder(f)
    }

    fn build_run(
        n: usize,
        k: usize,
        pattern: FailurePattern,
        stab: u64,
        seed: u64,
    ) -> EfdRun {
        let builder = ren_builder(n);
        let c: Vec<Box<dyn DynProcess>> = (0..n)
            .map(|i| {
                Box::new(KcsSimC::new(i, n, n, n, k, Value::Int(1000 + i as i64), builder.clone()))
                    as Box<dyn DynProcess>
            })
            .collect();
        let s: Vec<Box<dyn DynProcess>> = (0..n)
            .map(|q| Box::new(KcsSimS::new(q, n, n, n, k, builder.clone())) as Box<dyn DynProcess>)
            .collect();
        let fd = FdGen::vector_omega_k(pattern, k, stab, seed);
        EfdRun::new(c, s, fd)
    }

    fn check_names(out: &[Value], decided_needed: &[usize], bound: i64) {
        let mut names = Vec::new();
        for (i, v) in out.iter().enumerate() {
            if decided_needed.contains(&i) {
                assert!(!v.is_unit(), "C{i} undecided: {out:?}");
            }
            if let Some(x) = v.as_int() {
                assert!(x >= 1 && x <= bound, "name {x} out of bound {bound}: {out:?}");
                names.push(x);
            }
        }
        let mut s = names.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), names.len(), "duplicate names {names:?}");
    }

    #[test]
    fn solves_renaming_with_advice_failure_free() {
        for seed in 0..3 {
            let n = 3;
            let k = 2;
            let mut run = build_run(n, k, FailurePattern::failure_free(n), 150, seed);
            let mut sched = run.settling_sched(seed, vec![]);
            run.run(&mut sched, 3_000_000);
            // All C-processes decide; simulated run is k-concurrent, j = n
            // participants: names ≤ j + k − 1.
            let out = run.output_vector();
            check_names(&out, &[0, 1, 2], (n + k - 1) as i64);
        }
    }

    #[test]
    fn tolerates_s_crashes() {
        for seed in 0..3 {
            let n = 3;
            let k = 2;
            let pattern = FailurePattern::with_crashes(n, &[(0, 40), (2, 90)]);
            let mut run = build_run(n, k, pattern, 150, seed);
            let mut sched = run.settling_sched(seed ^ 7, vec![]);
            run.run(&mut sched, 4_000_000);
            let out = run.output_vector();
            check_names(&out, &[0, 1, 2], (n + k - 1) as i64);
        }
    }

    #[test]
    fn wait_free_when_other_c_processes_stop() {
        // C1, C2 stop after few steps; C0 must still decide (the agreed
        // sequence is driven by S-leaders).
        for seed in 0..3 {
            let n = 3;
            let k = 2;
            let mut run = build_run(n, k, FailurePattern::failure_free(n), 120, seed);
            let mut sched = run.settling_sched(seed ^ 3, vec![(Pid(1), 30), (Pid(2), 30)]);
            run.run(&mut sched, 4_000_000);
            let out = run.output_vector();
            check_names(&out, &[0], (n + k - 1) as i64);
        }
    }

    #[test]
    fn k1_advice_serializes_the_run() {
        // k = 1: simulated run is 1-concurrent ⇒ strong renaming (names ≤ j).
        for seed in 0..2 {
            let n = 3;
            let mut run = build_run(n, 1, FailurePattern::failure_free(n), 100, seed);
            let mut sched = run.settling_sched(seed ^ 11, vec![]);
            run.run(&mut sched, 4_000_000);
            let out = run.output_vector();
            check_names(&out, &[0, 1, 2], n as i64);
        }
    }

    /// Env mirroring: a real register's value enters the agreed views and is
    /// readable by simulated codes (a decision register the codes poll).
    #[test]
    fn env_keys_mirror_real_registers_into_codes() {
        use crate::code::FnBuilder;
        use wfa_algorithms::set_agreement::SetAgreementC;
        type PollCode = RegisterSimCode<SetAgreementC>;
        fn f(i: usize, input: &Value) -> PollCode {
            RegisterSimCode::new(i, SetAgreementC::new(i, 1, input.clone()))
        }
        let n = 2;
        let env = vec![wfa_algorithms::boards::decision_key(0)];
        let c: Vec<Box<dyn DynProcess>> = (0..n)
            .map(|i| {
                Box::new(
                    KcsSimC::new(i, n, n, n, 1, Value::Int(7 + i as i64), FnBuilder(f))
                        .with_env_keys(env.clone()),
                ) as Box<dyn DynProcess>
            })
            .collect();
        let s: Vec<Box<dyn DynProcess>> = (0..n)
            .map(|q| {
                Box::new(KcsSimS::new(q, n, n, n, 1, FnBuilder(f)).with_env_keys(env.clone()))
                    as Box<dyn DynProcess>
            })
            .collect();
        let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), 1, 50, 3);
        let mut run = EfdRun::new(c, s, fd);
        // Write the mirrored register directly: the codes poll decision
        // register 0 inside the simulation; once mirrored, they decide.
        // (Simulate an external black box by pre-writing the decision.)
        // The harness can't write memory; use a helper process instead.
        #[derive(Clone, Hash)]
        struct Oracle;
        impl wfa_kernel::process::Process for Oracle {
            fn step(&mut self, ctx: &mut wfa_kernel::process::StepCtx<'_>) -> wfa_kernel::process::Status {
                ctx.write(
                    wfa_algorithms::boards::decision_key(0),
                    wfa_algorithms::boards::wrap_decision(&Value::Int(99)),
                );
                wfa_kernel::process::Status::Halted
            }
        }
        let oracle = run.executor.add_process(Box::new(Oracle));
        run.executor.step(oracle, None);
        let mut sched = run.settling_sched(5, vec![]);
        run.run(&mut sched, 2_000_000);
        let out = run.output_vector();
        assert!(
            out.iter().all(|v| *v == Value::Int(99)),
            "codes must see the mirrored decision: {out:?}"
        );
    }

    /// Colorless injection: with one participant, every code is built with
    /// the first published input.
    #[test]
    fn colorless_injection_feeds_all_codes() {
        let n = 3;
        let k = 2;
        let builder = ren_builder(n);
        let mut c: Vec<Box<dyn DynProcess>> = vec![Box::new(
            KcsSimC::new(0, n, n, n, k, Value::Int(41), builder.clone()).colorless().adopt_any(),
        )];
        for _ in 1..n {
            c.push(Box::new(crate::harness::Inert));
        }
        let s: Vec<Box<dyn DynProcess>> = (0..n)
            .map(|q| {
                Box::new(KcsSimS::new(q, n, n, n, k, builder.clone()).colorless()) as Box<dyn DynProcess>
            })
            .collect();
        let fd = FdGen::vector_omega_k(FailurePattern::failure_free(n), k, 80, 9);
        let mut run = EfdRun::new(c, s, fd);
        let mut sched = run.settling_sched(11, vec![]);
        run.run(&mut sched, 3_000_000);
        let out = run.output_vector();
        // The sole participant decides (renaming codes decide names).
        assert!(!out[0].is_unit(), "solo participant undecided: {out:?}");
    }

    #[test]
    fn replicas_stay_consistent() {
        // Determinism probe: two different fair schedules with the same
        // detector history class produce valid (possibly different) outputs;
        // within a run, names never clash (checked above) and the run is
        // reproducible for a fixed seed.
        let fp = |seed: u64| {
            let n = 3;
            let mut run = build_run(n, 2, FailurePattern::failure_free(n), 100, seed);
            let mut sched = run.fair_sched(seed);
            run.run(&mut sched, 1_000_000);
            run.executor.fingerprint()
        };
        assert_eq!(fp(5), fp(5));
    }
}
