//! The splitter [Moir-Anderson 95, after Lamport's fast mutex].
//!
//! A one-shot register object with the defining property: of the `p`
//! processes that enter, at most one returns [`SplitterOutcome::Stop`], at
//! most `p−1` return `Right`, and at most `p−1` return `Down`. A solo
//! entrant always stops. Splitter grids are the classic wait-free renaming
//! construction used as a second baseline for the paper's Figure-4
//! algorithm (see `wfa-algorithms::moir_anderson`).
//!
//! Protocol (registers `X`, `Y`):
//! `X := id; if Y then Right; Y := true; if X = id then Stop else Down`.

use wfa_kernel::memory::RegKey;
use wfa_kernel::process::StepCtx;
use wfa_kernel::value::Value;

use crate::driver::{Driver, Step};

/// Where the splitter sent the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SplitterOutcome {
    /// This process owns the splitter (at most one per splitter).
    Stop,
    /// Deflected right.
    Right,
    /// Deflected down.
    Down,
}

fn x_key(ns: u16, inst: u32) -> RegKey {
    RegKey::idx(ns, inst, 0, 0, 0)
}

fn y_key(ns: u16, inst: u32) -> RegKey {
    RegKey::idx(ns, inst, 1, 0, 0)
}

#[derive(Clone, Hash, Debug)]
enum Pc {
    WriteX,
    ReadY,
    WriteY,
    ReadX,
    Done,
}

/// One process's pass through a splitter.
#[derive(Clone, Hash, Debug)]
pub struct Splitter {
    ns: u16,
    inst: u32,
    me: i64,
    pc: Pc,
}

impl Splitter {
    /// Process identity `me` enters splitter `(ns, inst)`.
    pub fn new(ns: u16, inst: u32, me: i64) -> Splitter {
        Splitter { ns, inst, me, pc: Pc::WriteX }
    }
}

impl Driver for Splitter {
    type Output = SplitterOutcome;

    fn poll(&mut self, ctx: &mut StepCtx<'_>) -> Step<SplitterOutcome> {
        match self.pc {
            Pc::WriteX => {
                ctx.write(x_key(self.ns, self.inst), Value::Int(self.me));
                self.pc = Pc::ReadY;
                Step::Pending
            }
            Pc::ReadY => {
                if ctx.read(y_key(self.ns, self.inst)).as_bool() == Some(true) {
                    self.pc = Pc::Done;
                    return Step::Done(SplitterOutcome::Right);
                }
                self.pc = Pc::WriteY;
                Step::Pending
            }
            Pc::WriteY => {
                ctx.write(y_key(self.ns, self.inst), Value::Bool(true));
                self.pc = Pc::ReadX;
                Step::Pending
            }
            Pc::ReadX => {
                self.pc = Pc::Done;
                if ctx.read(x_key(self.ns, self.inst)).as_int() == Some(self.me) {
                    Step::Done(SplitterOutcome::Stop)
                } else {
                    Step::Done(SplitterOutcome::Down)
                }
            }
            Pc::Done => panic!("splitter polled after completion"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use wfa_kernel::memory::SharedMemory;
    use wfa_kernel::value::Pid;

    fn run_interleaved(n: usize, seed: u64) -> Vec<SplitterOutcome> {
        let mut mem = SharedMemory::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut drivers: Vec<Splitter> = (0..n).map(|i| Splitter::new(30, 0, i as i64)).collect();
        let mut out: Vec<Option<SplitterOutcome>> = vec![None; n];
        let mut clock = 0;
        while out.iter().any(Option::is_none) {
            let i = rng.gen_range(0..n);
            if out[i].is_some() {
                continue;
            }
            let mut ctx = StepCtx::new(&mut mem, None, clock, Pid(i), 1);
            clock += 1;
            if let Step::Done(o) = drivers[i].poll(&mut ctx) {
                out[i] = Some(o);
            }
        }
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn solo_process_stops() {
        let out = run_interleaved(1, 0);
        assert_eq!(out, vec![SplitterOutcome::Stop]);
    }

    #[test]
    fn splitter_property_under_random_interleavings() {
        for n in 2..=5usize {
            for seed in 0..300 {
                let out = run_interleaved(n, seed);
                let stops = out.iter().filter(|o| **o == SplitterOutcome::Stop).count();
                let rights = out.iter().filter(|o| **o == SplitterOutcome::Right).count();
                let downs = out.iter().filter(|o| **o == SplitterOutcome::Down).count();
                assert!(stops <= 1, "n={n} seed={seed}: {stops} stops");
                assert!(rights < n, "n={n} seed={seed}: all went right");
                assert!(downs < n, "n={n} seed={seed}: all went down");
            }
        }
    }

    #[test]
    fn distinct_instances_are_independent() {
        let mut mem = SharedMemory::new();
        let mut clock = 0;
        let mut drive = |inst: u32, me: i64, mem: &mut SharedMemory| {
            let mut s = Splitter::new(30, inst, me);
            loop {
                let mut ctx = StepCtx::new(mem, None, clock, Pid(0), 1);
                clock += 1;
                if let Step::Done(o) = s.poll(&mut ctx) {
                    return o;
                }
            }
        };
        assert_eq!(drive(1, 7, &mut mem), SplitterOutcome::Stop);
        assert_eq!(drive(2, 8, &mut mem), SplitterOutcome::Stop);
        // Same instance, later entrant: deflected.
        assert_ne!(drive(1, 9, &mut mem), SplitterOutcome::Stop);
    }
}
