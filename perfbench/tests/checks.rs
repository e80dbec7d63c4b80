//! Every output check the benchmark makes can fail.

use std::sync::Arc;

use wfa_core::harness::CsProcs;
use wfa_fd::detectors::FdGen;
use wfa_kernel::memory::RegKey;
use wfa_kernel::process::{DynProcess, Process, Status, StepCtx};
use wfa_kernel::value::Value;
use wfa_net::config::NetFault;
use wfa_perfbench::churn::{self, check_episode, Churn, Mirror};
use wfa_perfbench::ensemble::{Ensemble, N};
use wfa_perfbench::ksa;
use wfa_perfbench::{same_outcome, Mode, Sample};
use wfa_tasks::agreement::SetAgreement;
use wfa_tasks::task::Task;

/// Never decides.
#[derive(Clone, Hash)]
struct Spin;

impl Process for Spin {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Status {
        let _ = ctx.read(RegKey::new(0));
        Status::Running
    }
}

/// Decides a value no process proposed, distinct per process.
#[derive(Clone, Hash)]
struct Junk(i64);

impl Process for Junk {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Status {
        Status::Decided(Value::Int(1000 + self.0))
    }
}

fn planted(c: fn(usize) -> Box<dyn DynProcess>) -> Ensemble {
    let task: Arc<dyn Task> = Arc::new(SetAgreement::new(N, 2));
    Ensemble::with_factory(
        1,
        task,
        Box::new(move |_input: &[Value], _fd: FdGen| -> CsProcs {
            (
                (0..N).map(c).collect(),
                (0..N)
                    .map(|_| Box::new(Spin) as Box<dyn DynProcess>)
                    .collect(),
            )
        }),
    )
}

#[test]
fn ensemble_check_fails_on_a_starving_system() {
    let err = planted(|_| Box::new(Spin))
        .run(0, Mode::Plain)
        .expect_err("nobody decides");
    assert!(err.contains("wait-freedom violated"), "{err}");
}

#[test]
fn ensemble_check_fails_on_an_unsafe_system() {
    let err = planted(|i| Box::new(Junk(i as i64)))
        .run(0, Mode::Plain)
        .expect_err("outputs are junk");
    assert!(err.contains("safety violated"), "{err}");
}

#[test]
fn ensemble_check_passes_on_theorem9() {
    let w = Ensemble::setup(1);
    let s = w.run(0, Mode::Plain).expect("Theorem 9 is wait-free");
    assert!(!s.own_steps.is_empty());
}

#[test]
fn ksa_check_fails_on_undecided_or_disagreeing_outputs() {
    let task = SetAgreement::new(4, 2);
    let input: Vec<Value> = [3, 5, 7, 9].into_iter().map(Value::Int).collect();
    let ok: Vec<Value> = [3, 3, 5, 5].into_iter().map(Value::Int).collect();
    assert!(ksa::check(&task, &input, &ok, Some(10)).is_ok());
    // A live C-process left undecided.
    let mut undecided = ok.clone();
    undecided[2] = Value::Unit;
    assert!(ksa::check(&task, &input, &undecided, Some(10)).is_err());
    // The run ran out of budget.
    assert!(ksa::check(&task, &input, &ok, None).is_err());
    // Three distinct decisions for k = 2.
    let three: Vec<Value> = [3, 5, 7, 7].into_iter().map(Value::Int).collect();
    assert!(ksa::check(&task, &input, &three, Some(10)).is_err());
    // A value nobody proposed.
    let invalid: Vec<Value> = [3, 3, 4, 4].into_iter().map(Value::Int).collect();
    assert!(ksa::check(&task, &input, &invalid, Some(10)).is_err());
}

#[test]
fn churn_read_check_fails_on_a_stale_quorum_read() {
    let key = RegKey::new(9).at(0, 1);
    let mut m = Mirror::default();
    m.wrote(key, Value::Int(4));
    assert!(m.read(key, &Value::Int(4), true).is_ok());
    assert!(m.read(key, &Value::Int(3), true).is_err());
    assert!(m.read(key, &Value::Unit, true).is_err());
    // Reads not served by a quorum are counted as failed ops, not checked.
    assert!(m.read(key, &Value::Int(3), false).is_ok());
}

#[test]
fn churn_episode_check_fails_without_a_quorum_loss_or_with_mostly_failed_ops() {
    let ok = Sample {
        ops: 100,
        ops_failed: 10,
        degradations: 10,
        resolutions: 1,
        ..Sample::default()
    };
    assert!(check_episode(&ok).is_ok());
    assert!(check_episode(&Sample {
        degradations: 0,
        ..ok.clone()
    })
    .is_err());
    assert!(check_episode(&Sample {
        resolutions: 0,
        ..ok.clone()
    })
    .is_err());
    assert!(check_episode(&Sample {
        ops_failed: 50,
        ..ok
    })
    .is_err());
}

#[test]
fn churn_episodes_raise_and_resolve_quorum_losses() {
    let w = Churn::setup(9).expect("set-up");
    for i in 0..4 {
        let s = w.run(i, Mode::Plain).expect("episode passes its checks");
        assert!(s.degradations >= 1 && s.resolutions >= 1);
        assert!(2 * s.ops_failed < s.ops);
    }
}

#[test]
fn churn_timeline_is_seeded_and_fixed_in_density() {
    let a = churn::timeline(1);
    assert_eq!(a, churn::timeline(1));
    assert_ne!(a, churn::timeline(2));
    let majorities = |t: &[NetFault]| {
        t.iter()
            .filter(|f| matches!(f, NetFault::Partition { nodes, .. } if nodes.len() == 3))
            .count()
    };
    let crashes = |t: &[NetFault]| {
        t.iter()
            .filter(|f| matches!(f, NetFault::CrashReplica { .. }))
            .count()
    };
    for seed in 0..50 {
        let t = churn::timeline(seed);
        assert_eq!(
            t.len(),
            2 * (churn::CRASHES + churn::MINORITY + churn::MAJORITY)
        );
        assert_eq!(majorities(&t), churn::MAJORITY);
        assert_eq!(crashes(&t), churn::CRASHES);
        assert!(t.iter().all(|f| match f {
            NetFault::Heal { at } | NetFault::RecoverReplica { at, .. } => *at < churn::SPAN,
            _ => true,
        }));
    }
}

#[test]
fn cross_mode_check_fails_when_modes_disagree() {
    let a = Sample {
        outputs: vec![Value::Int(1)],
        own_steps: vec![3],
        slots: 10,
        msgs: Some(40),
        ..Sample::default()
    };
    assert!(same_outcome(&a, &a.clone()).is_ok());
    // Plain runs cannot see messages; the other counts still compare.
    assert!(same_outcome(
        &a,
        &Sample {
            msgs: None,
            ..a.clone()
        }
    )
    .is_ok());
    assert!(same_outcome(
        &a,
        &Sample {
            msgs: Some(41),
            ..a.clone()
        }
    )
    .is_err());
    assert!(same_outcome(
        &a,
        &Sample {
            slots: 11,
            ..a.clone()
        }
    )
    .is_err());
    assert!(same_outcome(
        &a,
        &Sample {
            own_steps: vec![4],
            ..a.clone()
        }
    )
    .is_err());
    assert!(same_outcome(
        &a,
        &Sample {
            outputs: vec![Value::Int(2)],
            ..a.clone()
        }
    )
    .is_err());
}

/// Known defect: with volatile replica stores, the re-sync after a crash
/// pulls from `quorum − 1` peers, so a write held by a bare majority that
/// included the wiped replica can vanish from every read quorum. This test
/// fails until that is fixed; the `abd_churn` workload uses durable stores
/// meanwhile. Run it with `cargo test -- --ignored`.
#[test]
#[ignore = "fails: volatile ABD replicas lose writes across re-sync"]
fn volatile_replicas_keep_every_completed_write() {
    use wfa_kernel::backend::MemoryBackend;
    use wfa_kernel::memory::SharedMemory;
    use wfa_kernel::value::Pid;
    use wfa_net::abd::AbdBackend;
    use wfa_net::config::{Durability, NetConfig};
    use wfa_perfbench::item_seed;

    // Episode 276 of workload seed 22: node 4 holds key 9's write from a
    // {0, 1} partition, crashes, is wiped and re-syncs from nodes 0 and 1.
    let seed = item_seed(22, 276);
    let cfg: NetConfig = Churn::config(seed, Durability::Volatile);
    let mut b = AbdBackend::new(cfg);
    let mut mirror = SharedMemory::new();
    let keys: Vec<RegKey> = (0..churn::REGISTERS)
        .map(|i| RegKey::new(9).at(0, i))
        .collect();
    for op in 0..churn::OPS {
        let r = wfa_perfbench::mix(seed.wrapping_add(op));
        let key = keys[((r >> 8) % keys.len() as u64) as usize];
        if (r >> 32) % 100 < churn::WRITE_PCT {
            b.write(
                Pid((r % churn::CLIENTS) as usize),
                op,
                key,
                Value::Int(op as i64 + 1),
            );
            mirror.write(key, Value::Int(op as i64 + 1));
        } else {
            let got = b.read(Pid((r % churn::CLIENTS) as usize), op, key);
            let served = b.drain_degradations().is_empty() && !b.is_degraded();
            assert!(
                !served || got == mirror.peek(key),
                "op {op}: quorum read of {key:?} returned {got:?}, last write {:?}",
                mirror.peek(key)
            );
        }
        b.drain_degradations();
        b.drain_resolutions();
    }
}
