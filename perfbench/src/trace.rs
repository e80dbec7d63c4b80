//! Pass-through wrappers that time calls into each layer from outside.
//!
//! Each wrapper forwards every call unchanged to the value it wraps and adds
//! the call's wall time (and, for backends, its network ticks and messages)
//! to a thread-local recorder. Nothing inside the program's crates
//! changes: the wrappers sit on the public seams the kernel already exposes
//! (`Scheduler`, `FdSource`, `DynProcess`, `MemoryBackend`).
//!
//! Spans are kept in memory as one [`RunSpan`] per run (or per churn
//! episode): the run's wall time plus, per layer, how many calls it made and
//! the self time they took. [`write_spans`] writes them out when the
//! benchmark ends.

use std::cell::RefCell;
use std::hash::Hasher;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use wfa_fd::detectors::FdSource;
use wfa_fd::pattern::{FailurePattern, SIdx};
use wfa_gossip::backend::GossipBackend;
use wfa_kernel::backend::{Degradation, MemoryBackend, Resolution};
use wfa_kernel::executor::Executor;
use wfa_kernel::memory::{RegKey, SharedMemory};
use wfa_kernel::process::{DynProcess, Status, StepCtx};
use wfa_kernel::sched::Scheduler;
use wfa_kernel::trace::OpKind;
use wfa_kernel::value::{Pid, Value};
use wfa_net::abd::AbdBackend;

/// A layer boundary the wrappers time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Scheduler::next`.
    Sched,
    /// `FdSource::output`.
    Fd,
    /// A C-process automaton step, minus the backend op inside it.
    CStep,
    /// An S-process automaton step, minus the backend op inside it.
    SStep,
    /// `MemoryBackend::read`.
    Read,
    /// `MemoryBackend::write`.
    Write,
}

impl Layer {
    /// Every layer, in span-record order.
    pub const ALL: [Layer; 6] = [
        Layer::Sched,
        Layer::Fd,
        Layer::CStep,
        Layer::SStep,
        Layer::Read,
        Layer::Write,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Sched => "sched.next",
            Layer::Fd => "fd.output",
            Layer::CStep => "automaton.c_step",
            Layer::SStep => "automaton.s_step",
            Layer::Read => "backend.read",
            Layer::Write => "backend.write",
        }
    }
}

/// Calls into one layer and the self time they took.
#[derive(Clone, Copy, Default, Debug)]
pub struct Acc {
    /// Calls made.
    pub calls: u64,
    /// Self time, in ns.
    pub ns: u64,
}

/// Counts the wrappers record besides time. All of them are logical, so a
/// traced run and an untraced run of the same seed agree on them.
#[derive(Clone, Default, Debug)]
pub struct Counts {
    /// Register reads through the step context (a snapshot counts per key).
    pub reads: u64,
    /// Register writes through the step context.
    pub writes: u64,
    /// Steps whose op was a single read.
    pub ops_read: u64,
    /// Steps whose op was a write.
    pub ops_write: u64,
    /// Steps whose op was a snapshot.
    pub ops_snapshot: u64,
    /// Logical time of the latest C-process decision (`None`: none yet).
    pub last_decision: Option<u64>,
    /// Highest logical time any wrapped process stepped at.
    pub max_now: u64,
    /// Network ticks each backend op took.
    pub op_ticks: Vec<u64>,
    /// Messages sent during backend ops.
    pub op_msgs: u64,
}

/// One span per run: the run's wall time and its per-layer children.
#[derive(Clone, Debug)]
pub struct RunSpan {
    /// Workload-local run (or episode) index.
    pub id: u64,
    /// Wall time of the whole run, in ns.
    pub wall_ns: u64,
    /// Per-layer calls and self time, indexed like [`Layer::ALL`].
    pub layers: [Acc; 6],
}

/// The thread-local sink every wrapper records into.
#[derive(Default)]
struct Recorder {
    acc: [Acc; 6],
    counts: Counts,
    spans: Vec<RunSpan>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn add(layer: Layer, ns: u64) {
    REC.with(|r| {
        let a = &mut r.borrow_mut().acc[layer as usize];
        a.calls += 1;
        a.ns += ns;
    });
}

fn backend_ns() -> u64 {
    REC.with(|r| {
        let r = r.borrow();
        r.acc[Layer::Read as usize].ns + r.acc[Layer::Write as usize].ns
    })
}

fn count(f: impl FnOnce(&mut Counts)) {
    REC.with(|r| f(&mut r.borrow_mut().counts));
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Clears the per-run accumulators and counts (call before each run).
pub fn begin_run() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.acc = [Acc::default(); 6];
        r.counts = Counts::default();
    });
}

/// Closes the current run: stores its span and returns it with the run's
/// counts.
pub fn end_run(id: u64, wall_ns: u64) -> (RunSpan, Counts) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let span = RunSpan {
            id,
            wall_ns,
            layers: r.acc,
        };
        r.spans.push(span.clone());
        (span, std::mem::take(&mut r.counts))
    })
}

/// Drops every stored span and count.
pub fn reset() {
    REC.with(|r| *r.borrow_mut() = Recorder::default());
}

/// Writes the stored spans as JSON lines to `path`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> std::io::Result<()> {
        for s in &r.borrow().spans {
            write!(out, "{{\"run\": {}, \"wall_ns\": {}", s.id, s.wall_ns)?;
            for l in Layer::ALL {
                let a = s.layers[l as usize];
                write!(
                    out,
                    ", \"{}\": {{\"calls\": {}, \"ns\": {}}}",
                    l.name(),
                    a.calls,
                    a.ns
                )?;
            }
            writeln!(out, "}}")?;
        }
        Ok(())
    })?;
    out.flush()
}

/// Times `Scheduler::next`.
pub struct TimedSched<S>(pub S);

impl<S: Scheduler> Scheduler for TimedSched<S> {
    fn next(&mut self, ex: &Executor) -> Option<Pid> {
        let t = Instant::now();
        let pick = self.0.next(ex);
        add(Layer::Sched, elapsed_ns(t));
        pick
    }
}

/// Times `FdSource::output`.
pub struct TimedFd<F>(pub F);

impl<F: FdSource> FdSource for TimedFd<F> {
    fn output(&mut self, q: SIdx, t: u64) -> Value {
        let start = Instant::now();
        let v = self.0.output(q, t);
        add(Layer::Fd, elapsed_ns(start));
        v
    }

    fn pattern(&self) -> &FailurePattern {
        self.0.pattern()
    }

    fn stabilization(&self) -> u64 {
        self.0.stabilization()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// Times a process automaton's steps and records what each step did.
pub struct TimedProc {
    inner: Box<dyn DynProcess>,
    c: bool,
}

impl TimedProc {
    /// Wraps a C-process (`c`) or an S-process automaton.
    pub fn wrap(inner: Box<dyn DynProcess>, c: bool) -> Box<dyn DynProcess> {
        Box::new(TimedProc { inner, c })
    }
}

impl DynProcess for TimedProc {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let below = backend_ns();
        let t = Instant::now();
        let status = self.inner.step(ctx);
        let ns = elapsed_ns(t).saturating_sub(backend_ns() - below);
        add(if self.c { Layer::CStep } else { Layer::SStep }, ns);
        let (now, c) = (ctx.now(), self.c);
        let op = ctx.last_op();
        let decided = matches!(status, Status::Decided(_));
        count(|k| {
            k.max_now = k.max_now.max(now);
            if c && decided {
                k.last_decision = Some(now);
            }
            match op {
                OpKind::None => {}
                OpKind::Read(_) => {
                    k.ops_read += 1;
                    k.reads += 1;
                }
                OpKind::Write(_) => {
                    k.ops_write += 1;
                    k.writes += 1;
                }
                OpKind::Snapshot(m) => {
                    k.ops_snapshot += 1;
                    k.reads += u64::from(m);
                }
            }
        });
        status
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn clone_box(&self) -> Box<dyn DynProcess> {
        Box::new(TimedProc {
            inner: self.inner.clone_box(),
            c: self.c,
        })
    }

    fn clone_arc(&self) -> Arc<dyn DynProcess> {
        Arc::new(TimedProc {
            inner: self.inner.clone_box(),
            c: self.c,
        })
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        self.inner.fingerprint(h);
    }
}

/// A backend whose network clock and message count can be read around each
/// call.
pub trait NetProbe: MemoryBackend + Clone + 'static {
    /// The backend's network tick.
    fn ticks(&self) -> u64;
    /// Messages the backend has sent.
    fn msgs(&self) -> u64;
    /// Whether the backend is serving from its degraded path right now.
    fn degraded(&self) -> bool;
}

impl NetProbe for AbdBackend {
    fn ticks(&self) -> u64 {
        self.runtime().now()
    }

    fn msgs(&self) -> u64 {
        self.runtime().messages_sent()
    }

    fn degraded(&self) -> bool {
        self.is_degraded()
    }
}

impl NetProbe for GossipBackend {
    fn ticks(&self) -> u64 {
        self.runtime().now()
    }

    fn msgs(&self) -> u64 {
        self.messages_sent()
    }

    fn degraded(&self) -> bool {
        false
    }
}

/// Times `MemoryBackend::read`/`write` and records the network ticks and
/// messages each op took.
#[derive(Clone)]
pub struct TimedBackend<B>(pub B);

impl<B: NetProbe> NetProbe for TimedBackend<B> {
    fn ticks(&self) -> u64 {
        self.0.ticks()
    }

    fn msgs(&self) -> u64 {
        self.0.msgs()
    }

    fn degraded(&self) -> bool {
        self.0.degraded()
    }
}

impl<B: NetProbe> TimedBackend<B> {
    fn timed<T>(&mut self, layer: Layer, op: impl FnOnce(&mut B) -> T) -> T {
        let (ticks, msgs) = (self.0.ticks(), self.0.msgs());
        let t = Instant::now();
        let out = op(&mut self.0);
        add(layer, elapsed_ns(t));
        let (dt, dm) = (self.0.ticks() - ticks, self.0.msgs() - msgs);
        count(|k| {
            k.op_ticks.push(dt);
            k.op_msgs += dm;
        });
        out
    }
}

impl<B: NetProbe> MemoryBackend for TimedBackend<B> {
    fn read(&mut self, me: Pid, now: u64, key: RegKey) -> Value {
        self.timed(Layer::Read, |b| b.read(me, now, key))
    }

    fn write(&mut self, me: Pid, now: u64, key: RegKey, val: Value) {
        self.timed(Layer::Write, |b| b.write(me, now, key, val))
    }

    fn view(&self) -> &SharedMemory {
        self.0.view()
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        self.0.fingerprint(h)
    }

    fn clone_backend(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn drain_degradations(&mut self) -> Vec<Degradation> {
        self.0.drain_degradations()
    }

    fn drain_resolutions(&mut self) -> Vec<Resolution> {
        self.0.drain_resolutions()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.0.as_any_mut()
    }
}
