//! The measurement loop and the metrics it reports.
//!
//! An untraced run (`--trace 0`) sets the workload up, runs items in
//! [`Mode::Plain`] until the window closes, sets the workload up again at
//! even points of the window ([`SETUP_REPS`] set-ups in all), and reports
//! the end-to-end metrics. Its times are CPU time in reference milliseconds
//! (see [`crate::clock`]). A traced run (`--trace 1`) runs every item in all
//! three modes, in an order that rotates with the item index, checks that
//! the modes agree, and reports the per-layer metrics.
//!
//! Count metrics cover the first `prefix` items only, a number fixed per
//! workload, so every traced run of a seed counts the same work whatever the
//! host's speed. The end-to-end time metrics cover every item of the
//! window.

use std::time::{Duration, Instant};

use wfa_obs::metrics::{Counter, MetricsHandle};

use crate::churn::Churn;
use crate::clock::{cpu_ns, RefClock};
use crate::ensemble::Ensemble;
use crate::ksa::{Ksa, Substrate, GOSSIP_NODES};
use crate::stats::{floats, median, quantile, ratio, tail};
use crate::trace::{self, Layer};
use crate::{obs_of, same_outcome, Mode, Sample};

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["ensemble", "ksa_abd", "ksa_gossip", "abd_churn"];

/// How often an untraced run sets the workload up; it reports the median.
pub const SETUP_REPS: usize = 9;

/// The percentile `run_ms_tail` reports once a run has enough items. Item
/// times above p90 follow the host's hiccups more than the program's
/// slowest items: over ten runs of one build, p99's spread reached 0.19
/// while p50's stayed at 0.01.
pub const RUN_TAIL: f64 = 0.90;

/// The percentile `op_ticks_tail` reports. Ticks are logical, so the host
/// cannot move them.
pub const TICKS_TAIL: f64 = 0.99;

/// Items a run can time without growing its sample buffer; more only cost
/// a reallocation.
const SAMPLE_CAPACITY: usize = 1 << 20;

/// End-to-end metrics, with their units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, with their units, in report order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("harness.slots", "count"),
    ("harness.slots_to_decide", "count"),
    ("harness.useful_slot_ratio", "ratio"),
    ("executor.self_ns", "ns"),
    ("memory.reads", "count"),
    ("memory.writes", "count"),
    ("automaton.c_step_ns", "ns"),
    ("automaton.s_step_ns", "ns"),
    ("automaton.steps_c", "count"),
    ("automaton.steps_s", "count"),
    ("automaton.ops_read", "count"),
    ("automaton.ops_write", "count"),
    ("automaton.ops_snapshot", "count"),
    ("sched.next_ns", "ns"),
    ("sched.calls", "count"),
    ("fd.output_ns", "ns"),
    ("fd.calls", "count"),
    ("backend.read_ns", "ns"),
    ("backend.write_ns", "ns"),
    ("backend.ops", "count"),
    ("backend.ops_failed", "count"),
    ("net.msgs_sent", "count"),
    ("net.msgs_dropped", "count"),
    ("net.retransmits", "count"),
    ("net.delivered_ratio", "ratio"),
    ("retry.degradations", "count"),
    ("retry.resolutions", "count"),
    ("retry.first_round_ratio", "ratio"),
    ("retry.resync_msgs", "count"),
    ("gossip.rounds", "count"),
    ("gossip.deltas_sent", "count"),
    ("gossip.digest_hit_ratio", "ratio"),
    ("gossip.stale_reads", "count"),
    ("own_steps_p50", "steps"),
    ("own_steps_max", "steps"),
    ("op_ticks_p50", "ticks"),
    ("op_ticks_tail", "ticks"),
    ("msgs_per_op", "msgs"),
    ("failed_op_ratio", "ratio"),
    ("mttr_ticks_p50", "ticks"),
    ("obs.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("runs.timed", "count"),
];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Items (runs or churn ops) attempted.
    pub attempted: u64,
    /// Items whose output check failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// The first check failure, if any.
    pub error: Option<String>,
}

/// A set-up workload.
pub enum Workload {
    /// See [`crate::ensemble`].
    Ensemble(Ensemble),
    /// See [`crate::ksa`].
    Ksa(Ksa),
    /// See [`crate::churn`].
    Churn(Churn),
}

impl Workload {
    /// Sets up workload `name` for `seed`: fixed inputs plus a warm-up.
    ///
    /// # Errors
    ///
    /// An unknown name, or a warm-up item that fails its check.
    pub fn setup(name: &str, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "ensemble" => Workload::Ensemble(Ensemble::setup(seed)),
            "ksa_abd" => Workload::Ksa(Ksa::setup(seed, Substrate::Abd)?),
            "ksa_gossip" => Workload::Ksa(Ksa::setup(seed, Substrate::Gossip)?),
            "abd_churn" => Workload::Churn(Churn::setup(seed)?),
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {WORKLOADS:?}"
                ))
            }
        })
    }

    /// Runs item `i` in `mode`.
    ///
    /// # Errors
    ///
    /// The item's failed output check.
    pub fn run(&self, i: u64, mode: Mode) -> Result<Sample, String> {
        match self {
            Workload::Ensemble(w) => w.run(i, mode),
            Workload::Ksa(w) => w.run(i, mode),
            Workload::Churn(w) => w.run(i, mode),
        }
    }

    /// Items the count metrics cover.
    pub fn prefix(&self) -> u64 {
        match self {
            Workload::Ensemble(_) => 12,
            Workload::Ksa(_) => 100,
            Workload::Churn(_) => 20,
        }
    }

    /// Items after which an untraced run reads `peak_rss_mb`: a fixed
    /// amount of work, about a third of a 25-second window, so the figure
    /// does not depend on how fast the host ran. Freed and reused heap grows
    /// slowly with the number of items a run gets through.
    pub fn rss_items(&self) -> u64 {
        match self {
            Workload::Ensemble(_) => 200,
            Workload::Ksa(k) if k.substrate() == Substrate::Abd => 10_000,
            Workload::Ksa(_) => 4_000,
            Workload::Churn(_) => 1_000,
        }
    }

    /// Consecutive items one `run_ms` sample averages. Ensemble runs fall
    /// into clusters by crash pattern and stop set, with a gap near the
    /// middle, so the median of single runs landed in one of two clusters
    /// about 20% apart, depending on the seed; the mean of four fills the
    /// gap.
    pub fn group(&self) -> u64 {
        match self {
            Workload::Ensemble(_) => 4,
            _ => 1,
        }
    }

    /// Operations one item attempts: one run, or a churn episode's ops.
    fn attempted_per_item(&self) -> u64 {
        match self {
            Workload::Churn(_) => crate::churn::OPS,
            _ => 1,
        }
    }
}

/// Peak resident set size of this process, in MB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn failed(error: String, attempted: u64) -> Outcome {
    Outcome {
        correct: false,
        attempted: attempted.max(1),
        failed: 1,
        metrics: Vec::new(),
        error: Some(error),
    }
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut clock = RefClock::new();
    // One set-up builds the workload; the others repeat it at even points of
    // the window, so their median samples the host as the items do.
    let set_up = |clock: &mut RefClock| match clock.bracket(|| Workload::setup(name, seed)) {
        (Ok(w), ms) => Ok((w, ms / 1e3)),
        (Err(e), _) => Err(e),
    };
    let (w, first) = match set_up(&mut clock) {
        Ok(x) => x,
        Err(e) => return failed(e, 1),
    };
    let mut setup_s = vec![first];
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // A buffer sized up front keeps `peak_rss_mb` off the doublings of a
    // growing one; only the pages the samples touch become resident.
    let (mut ms, mut units) = (Vec::with_capacity(SAMPLE_CAPACITY), 0u64);
    let (mut total_ms, mut group_ms) = (0.0, 0.0);
    let mut rss_mb = None;
    let mut i = 0;
    while start.elapsed() < window || setup_s.len() < SETUP_REPS || rss_mb.is_none() {
        if setup_s.len() < SETUP_REPS
            && start.elapsed() >= window.mul_f64(setup_s.len() as f64 / SETUP_REPS as f64)
        {
            match set_up(&mut clock) {
                Ok((_, s)) => setup_s.push(s),
                Err(e) => return failed(e, 1),
            }
        }
        let t = cpu_ns();
        let s = match w.run(i, Mode::Plain) {
            Ok(s) => s,
            Err(e) => return failed(e, (i + 1) * w.attempted_per_item()),
        };
        let cpu = cpu_ns() - t;
        let run_ms = clock.ms(cpu);
        clock.charge(cpu);
        total_ms += run_ms;
        group_ms += run_ms;
        // EFD items run slots and issue no direct ops; churn episodes are
        // the reverse.
        units += s.slots + s.ops;
        i += 1;
        if i % w.group() == 0 {
            ms.push(group_ms / w.group() as f64);
            group_ms = 0.0;
        }
        if i == w.rss_items() {
            rss_mb = Some(peak_rss_mb());
        }
    }
    let values = [
        median(&setup_s),
        median(&ms),
        tail(&ms, RUN_TAIL).0,
        units as f64 / (total_ms / 1e3),
        rss_mb.unwrap_or_default(),
    ];
    let (_, pct, n) = tail(&ms, RUN_TAIL);
    eprintln!(
        "{name}: {i} runs timed in {n} samples; run_ms_tail is p{pct:.2} of {n}; \
         one reference ms took {:.4} ms of CPU (median)",
        clock.median_ns() / 1e6
    );
    Outcome {
        correct: true,
        attempted: i * w.attempted_per_item(),
        failed: 0,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| Metric { name, value, unit })
            .collect(),
        error: None,
    }
}

/// Sums of the traced samples the per-layer metrics derive from.
#[derive(Default)]
struct Tally {
    /// Wall time per mode: plain, obs, traced.
    mode_ns: [u64; 3],
    /// Set-up-free wall of the obs probe with counters on and off.
    probe_ns: [u64; 2],
    timed: u64,
    wall_ns: u64,
    layer: [trace::Acc; 6],
    slots_all: u64,
    counted: Vec<Sample>,
}

/// The traced run: per-layer metrics.
pub fn traced(name: &str, seed: u64, seconds: f64) -> Outcome {
    trace::reset();
    let w = match Workload::setup(name, seed) {
        Ok(w) => w,
        Err(e) => return failed(e, 1),
    };
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut t = Tally::default();
    let mut i = 0;
    while i < w.prefix() || start.elapsed() < window {
        if let Err(e) = traced_item(&w, i, &mut t) {
            return failed(e, (i + 1) * w.attempted_per_item());
        }
        i += 1;
    }
    let path = std::path::Path::new(".perfbench").join(format!("spans-{name}-{seed}.jsonl"));
    if let Err(e) = trace::write_spans(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    Outcome {
        correct: true,
        attempted: i * w.attempted_per_item(),
        failed: 0,
        metrics: layer_metrics(&w, &t),
        error: None,
    }
}

fn traced_item(w: &Workload, i: u64, t: &mut Tally) -> Result<(), String> {
    // `wait_freedom_ensemble` takes no observability handle, so its obs
    // variant is the plain one and the obs cost is measured on a probe run.
    let ensemble = match w {
        Workload::Ensemble(e) => Some(e),
        _ => None,
    };
    let modes = if ensemble.is_some() {
        vec![Mode::Plain, Mode::Traced]
    } else {
        vec![Mode::Plain, Mode::Obs, Mode::Traced]
    };
    let mut samples: Vec<Option<Sample>> = vec![None, None, None];
    for k in 0..modes.len() {
        let mode = modes[(k + i as usize) % modes.len()];
        let s = w.run(i, mode)?;
        t.mode_ns[mode as usize] += s.wall_ns;
        samples[mode as usize] = Some(s);
    }
    if let Some(e) = ensemble {
        let order = [MetricsHandle::disabled(), MetricsHandle::counters()];
        for k in 0..2 {
            let h = (k + i as usize) % 2;
            t.probe_ns[h] += e.probe(i, order[h].clone());
        }
    }
    let traced = samples[Mode::Traced as usize]
        .take()
        .expect("traced mode ran");
    for other in samples.iter().flatten() {
        same_outcome(other, &traced)?;
    }
    t.timed += 1;
    t.wall_ns += traced.wall_ns;
    t.slots_all += traced.slots;
    if let Some(span) = &traced.span {
        for (acc, s) in t.layer.iter_mut().zip(span.layers) {
            acc.calls += s.calls;
            acc.ns += s.ns;
        }
    }
    if i < w.prefix() {
        t.counted.push(traced);
    }
    Ok(())
}

fn layer_metrics(w: &Workload, t: &Tally) -> Vec<Metric> {
    let c = &t.counted;
    let n = c.len().max(1) as f64;
    let per_run = |f: &dyn Fn(&Sample) -> u64| c.iter().map(f).sum::<u64>() as f64 / n;
    let sum = |f: &dyn Fn(&Sample) -> u64| c.iter().map(f).sum::<u64>() as f64;
    let calls =
        |l: Layer| move |s: &Sample| s.span.as_ref().map_or(0, |sp| sp.layers[l as usize].calls);
    let acc = |l: Layer| t.layer[l as usize];
    let per_call = |l: Layer| ratio(acc(l).ns as f64, acc(l).calls as f64);
    let obs = |k: Counter| move |s: &Sample| obs_of(&s.obs, k);
    let efd = !matches!(w, Workload::Churn(_));
    let decided_at = |s: &Sample| s.counts.last_decision.map_or(0, |d| d + 1);
    let layered_ns: u64 = t.layer.iter().map(|a| a.ns).sum();
    let backend_ops = |s: &Sample| match w {
        Workload::Churn(_) => s.ops,
        _ => s.counts.op_ticks.len() as u64,
    };
    let msgs = |s: &Sample| s.msgs.unwrap_or(0);
    let own: Vec<f64> = c.iter().flat_map(|s| floats(&s.own_steps)).collect();
    let ticks: Vec<f64> = c
        .iter()
        .flat_map(|s| {
            floats(if s.op_ticks.is_empty() {
                &s.counts.op_ticks
            } else {
                &s.op_ticks
            })
        })
        .collect();
    let mttr: Vec<f64> = c.iter().flat_map(|s| floats(&s.mttr)).collect();
    let (base, traced_ns) = match w {
        Workload::Ensemble(_) => (
            t.mode_ns[Mode::Plain as usize],
            t.mode_ns[Mode::Traced as usize],
        ),
        _ => (
            t.mode_ns[Mode::Obs as usize],
            t.mode_ns[Mode::Traced as usize],
        ),
    };
    let obs_ratio = match w {
        Workload::Ensemble(_) => ratio(t.probe_ns[1] as f64, t.probe_ns[0] as f64),
        _ => ratio(
            t.mode_ns[Mode::Obs as usize] as f64,
            t.mode_ns[Mode::Plain as usize] as f64,
        ),
    };
    let gossip_nodes = if matches!(w, Workload::Ksa(_)) {
        GOSSIP_NODES as f64
    } else {
        0.0
    };
    let values: [f64; 44] = [
        if efd { per_run(&|s| s.slots) } else { 0.0 },
        per_run(&decided_at),
        ratio(
            sum(&decided_at),
            sum(&|s| if efd { s.counts.max_now + 1 } else { 0 }),
        ),
        if efd {
            ratio(
                t.wall_ns.saturating_sub(layered_ns) as f64,
                t.slots_all as f64,
            )
        } else {
            0.0
        },
        per_run(&|s| s.counts.reads),
        per_run(&|s| s.counts.writes),
        per_call(Layer::CStep),
        per_call(Layer::SStep),
        per_run(&calls(Layer::CStep)),
        per_run(&calls(Layer::SStep)),
        per_run(&|s| s.counts.ops_read),
        per_run(&|s| s.counts.ops_write),
        per_run(&|s| s.counts.ops_snapshot),
        per_call(Layer::Sched),
        per_run(&calls(Layer::Sched)),
        per_call(Layer::Fd),
        per_run(&calls(Layer::Fd)),
        per_call(Layer::Read),
        per_call(Layer::Write),
        per_run(&backend_ops),
        per_run(&|s| s.ops_failed),
        per_run(&msgs),
        per_run(&obs(Counter::NetMsgsDropped)),
        per_run(&obs(Counter::NetRetransmits)),
        ratio(
            sum(&obs(Counter::NetMsgsDelivered)),
            sum(&obs(Counter::NetMsgsSent)),
        ),
        per_run(&|s| s.degradations),
        per_run(&|s| s.resolutions),
        ratio(
            sum(&|s| s.first_round),
            sum(&|s| if s.op_ticks.is_empty() { 0 } else { s.ops }),
        ),
        per_run(&obs(Counter::NetResyncMsgs)),
        per_run(&obs(Counter::NetGossipRounds)),
        per_run(&obs(Counter::NetGossipDeltasSent)),
        ratio(
            sum(&obs(Counter::NetGossipDigestHits)),
            sum(&obs(Counter::NetGossipRounds)) * gossip_nodes,
        ),
        per_run(&obs(Counter::NetGossipStaleReads)),
        quantile(&own, 0.5),
        quantile(&own, 1.0),
        quantile(&ticks, 0.5),
        tail(&ticks, TICKS_TAIL).0,
        ratio(sum(&msgs), sum(&backend_ops)),
        ratio(sum(&|s| s.ops_failed), sum(&|s| s.ops)),
        quantile(&mttr, 0.5),
        obs_ratio,
        ratio(traced_ns as f64, base as f64),
        ratio(layered_ns as f64, t.wall_ns as f64),
        t.timed as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric { name, value, unit })
        .collect()
}
