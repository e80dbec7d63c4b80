//! The clock the end-to-end time metrics read: thread CPU time in units of a
//! fixed reference computation.
//!
//! On a shared host the speed of one core drifts by half or more within a
//! minute as neighbours come and go, and wall time adds the time the thread
//! waits for a core. So each item is timed in thread CPU time, and the run
//! samples a fixed reference computation ([`reference`], about 1 ms of CPU
//! on a 2.1 GHz Xeon core) between items. A time is reported in *reference
//! milliseconds*: its CPU time divided by the median of the latest
//! [`WINDOW`] reference samples. The reference lives in the benchmark, not
//! in the program, so a change to the program moves the numerator only.

use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::fmt::Write;

use crate::mix;
use crate::stats::{floats, median};

/// Rounds of the reference computation in one sample.
pub const REF_ROUNDS: u64 = 1_000;
/// Reference samples the current scale is the median of.
pub const WINDOW: usize = 9;
/// CPU time of measured work between two reference samples, in ns.
pub const SAMPLE_EVERY_NS: u64 = 20_000_000;
/// Fresh reference samples taken on each side of a [`RefClock::bracket`]ed
/// call.
pub const BRACKET: usize = 3;

/// CPU time this thread has run, in ns. Unlike wall time it leaves out the
/// time the thread waits for a core.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const THREAD_CPUTIME: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// The reference computation: `rounds` rounds of the everyday work of
/// Rust code — a binary heap, string formatting and parsing, a queue of
/// owned strings, a hash set, an ordered map of small vectors that is
/// sorted and pruned, and boxed closures. A broad mix tracked the
/// workloads' speed on a shared host better than a tight loop did, because
/// a neighbour slows the core's caches and predictors as much as its
/// arithmetic. Returns a digest, so the work cannot be optimised away.
pub fn reference(rounds: u64) -> u64 {
    let mut acc = 0u64;
    let mut heap = BinaryHeap::new();
    let mut queue: VecDeque<(u64, String)> = VecDeque::new();
    let mut set: HashSet<u64> = HashSet::new();
    let mut map: BTreeMap<(u32, u64), Vec<u8>> = BTreeMap::new();
    let mut text = String::new();
    for r in 0..rounds {
        let x = mix(r);
        heap.push(x % 1000);
        if heap.len() > 64 {
            acc ^= heap.pop().unwrap_or_default();
        }
        text.clear();
        write!(text, "{r}:{x:x}").expect("writing to a String cannot fail");
        acc = acc.wrapping_add(text.len() as u64);
        if let Some(p) = text.find(':') {
            acc ^= text[..p].parse::<u64>().unwrap_or_default();
        }
        queue.push_back((x, text.clone()));
        if queue.len() > 16 {
            if let Some((y, t)) = queue.pop_front() {
                acc ^= y ^ t.len() as u64;
            }
        }
        if !set.insert(x % 509) {
            set.remove(&(x % 509));
        }
        map.insert(((x % 7) as u32, x % 97), vec![x as u8; (x % 16) as usize]);
        if r % 16 == 0 {
            let mut keys: Vec<_> = map.keys().copied().collect();
            keys.sort_by_key(|k| std::cmp::Reverse(k.1));
            acc ^= keys.len() as u64;
            map.retain(|k, _| k.1 % 2 == r % 2);
        }
        let f: Option<Box<dyn Fn(u64) -> u64>> = if x.is_multiple_of(3) {
            Some(Box::new(move |z| z ^ x))
        } else {
            None
        };
        acc = f.map_or(acc, |f| f(acc));
    }
    acc ^ set.len() as u64
}

/// Converts CPU time to reference milliseconds, re-sampling the reference
/// as measured work accrues.
pub struct RefClock {
    recent: VecDeque<u64>,
    all: Vec<u64>,
    since: u64,
}

impl RefClock {
    /// A clock primed with [`WINDOW`] reference samples.
    pub fn new() -> RefClock {
        let mut c = RefClock {
            recent: VecDeque::with_capacity(WINDOW),
            all: Vec::new(),
            since: 0,
        };
        for _ in 0..WINDOW {
            c.sample();
        }
        c
    }

    fn sample(&mut self) -> u64 {
        let t = cpu_ns();
        std::hint::black_box(reference(std::hint::black_box(REF_ROUNDS)));
        let ns = cpu_ns() - t;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ns);
        self.all.push(ns);
        ns
    }

    /// Runs `f` between [`BRACKET`] fresh reference samples on each side and
    /// returns its result and its CPU time in reference milliseconds at the
    /// scale of those samples. For one-off work such as set-up, which the
    /// rolling scale of [`RefClock::ms`] may lag behind.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let mut scale: Vec<u64> = (0..BRACKET).map(|_| self.sample()).collect();
        let t = cpu_ns();
        let r = f();
        let cpu = cpu_ns() - t;
        scale.extend((0..BRACKET).map(|_| self.sample()));
        (r, cpu as f64 / median(&floats(&scale)))
    }

    /// Records `cpu` ns of measured work, sampling the reference once
    /// [`SAMPLE_EVERY_NS`] of work has accrued since the last sample.
    pub fn charge(&mut self, cpu: u64) {
        self.since += cpu;
        if self.since >= SAMPLE_EVERY_NS {
            self.since = 0;
            self.sample();
        }
    }

    /// `cpu` ns of CPU time in reference milliseconds at the current scale.
    pub fn ms(&self, cpu: u64) -> f64 {
        let scale: Vec<u64> = self.recent.iter().copied().collect();
        cpu as f64 / median(&floats(&scale))
    }

    /// The median reference sample over the whole run, in CPU ns.
    pub fn median_ns(&self) -> f64 {
        median(&floats(&self.all))
    }
}

impl Default for RefClock {
    fn default() -> RefClock {
        RefClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        assert_eq!(reference(REF_ROUNDS), reference(REF_ROUNDS));
        assert_ne!(reference(REF_ROUNDS), reference(REF_ROUNDS + 1));
    }

    #[test]
    fn times_scale_by_the_reference() {
        let mut c = RefClock::new();
        assert_eq!(c.recent.len(), WINDOW);
        let scale = median(&floats(&c.recent.iter().copied().collect::<Vec<_>>()));
        assert!((c.ms(scale as u64) - 1.0).abs() < 1e-6);
        // Work that is itself one reference sample reads about 1 ms.
        let (_, ms) = c.bracket(|| reference(REF_ROUNDS));
        assert!(ms > 0.2 && ms < 5.0, "{ms}");
        assert_eq!(c.all.len(), WINDOW + 2 * BRACKET);
        c.charge(SAMPLE_EVERY_NS);
        assert_eq!(c.all.len(), WINDOW + 2 * BRACKET + 1);
        assert_eq!(c.recent.len(), WINDOW);
    }
}
