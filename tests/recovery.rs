//! End-to-end recovery guarantees: kill-at-step-k resume is bit-exact,
//! retryable faults are survived transparently, degraded mode keeps
//! training when a replica dies, and corrupted checkpoints are always
//! rejected.

use dapple::engine::checkpoint;
use dapple::engine::{
    DataStream, EngineConfig, FaultKind, FaultPlan, MlpModel, Optimizer, RecoveryEventKind,
    RetryPolicy, RunRecorder, Supervisor, TrainLoop,
};
use dapple_core::{DappleError, DeviceId, Plan, StagePlan};
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];
const BATCH: usize = 24;
const TOTAL_STEPS: u64 = 8;

/// Isolates the one timing-sensitive test of this suite: it compares
/// traced per-stage busy time, which concurrently running tests inflate
/// unevenly on a small host. It holds this lock exclusively; every other
/// test holds it shared. A failed test's poison is ignored.
static TIMING: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    TIMING.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    TIMING.write().unwrap_or_else(PoisonError::into_inner)
}

fn cfg() -> EngineConfig {
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
    cfg.recv_timeout = Duration::from_millis(200);
    cfg
}

fn mk_optimizer(idx: usize, model: &MlpModel) -> Optimizer {
    match idx {
        0 => Optimizer::sgd(0.1),
        1 => Optimizer::momentum(0.1, 0.9, model),
        _ => Optimizer::adam(0.01, model),
    }
}

fn mk_loop(opt_idx: usize) -> TrainLoop {
    let model = MlpModel::new(&DIMS, 77);
    let optimizer = mk_optimizer(opt_idx, &model);
    TrainLoop::new(model, cfg(), optimizer, DataStream::new(9, BATCH, 5, 3)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill at step k, resume from the v2 checkpoint: the remaining loss
    /// trajectory and the final model + optimizer state are bit-identical
    /// to an uninterrupted run — for every optimizer and for k in the
    /// pipeline's warmup, steady and tail phases of the run.
    #[test]
    fn kill_at_step_k_resume_is_bit_identical(
        opt_idx in 0usize..3,
        k in 1u64..TOTAL_STEPS,
    ) {
        let _timing = shared();
        // Uninterrupted reference run.
        let mut uninterrupted = mk_loop(opt_idx);
        let ref_losses = uninterrupted.run(TOTAL_STEPS).unwrap();

        // Run to k, "kill" (serialize + drop), resume, finish.
        let mut first = mk_loop(opt_idx);
        let mut losses = first.run(k).unwrap();
        let bytes = first.save_bytes();
        drop(first);
        let mut resumed = TrainLoop::resume_bytes(&bytes, cfg()).unwrap();
        prop_assert_eq!(resumed.step(), k);
        losses.extend(resumed.run(TOTAL_STEPS - k).unwrap());

        prop_assert_eq!(losses.len(), ref_losses.len());
        for (i, (a, b)) in losses.iter().zip(&ref_losses).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "loss diverged at step {} (kill at {}): {} vs {}", i, k, a, b
            );
        }
        prop_assert_eq!(resumed.model(), uninterrupted.model());
        prop_assert_eq!(resumed.optimizer(), uninterrupted.optimizer());
        prop_assert_eq!(resumed.data().cursor(), uninterrupted.data().cursor());
    }

    /// Any single-byte corruption of a valid v2 checkpoint — any offset,
    /// any non-identity XOR mask — is rejected with `InvalidConfig`:
    /// never a panic, never a silently-wrong model.
    #[test]
    fn corrupted_v2_checkpoint_is_always_rejected(
        opt_idx in 0usize..3,
        pos_seed in 0u64..1_000_000_007,
        mask in 1u8..=255,
    ) {
        let _timing = shared();
        let mut lp = mk_loop(opt_idx);
        lp.run(2).unwrap();
        let mut bytes = lp.save_bytes();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= mask;
        match checkpoint::state_from_bytes(&bytes) {
            Err(DappleError::InvalidConfig(_)) => {}
            Err(other) => prop_assert!(
                false, "byte {} ^ {:#04x}: wrong error kind {:?}", pos, mask, other
            ),
            Ok(_) => prop_assert!(
                false, "byte {} ^ {:#04x}: corruption accepted", pos, mask
            ),
        }
        // And the model-only loader rejects it too.
        prop_assert!(checkpoint::from_bytes(&bytes).is_err());
    }
}

/// Kill-and-resume through actual files, exercising `save(path)` and
/// `resume(path)` (the checkpoint surface CI smoke-tests).
#[test]
fn kill_and_resume_via_file_round_trip() {
    let _timing = shared();
    let dir = std::env::temp_dir().join(format!("dapple-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for opt_idx in 0..3 {
        let path = dir.join(format!("ckpt-{opt_idx}.dapl"));
        let mut reference = mk_loop(opt_idx);
        let ref_losses = reference.run(6).unwrap();

        let mut first = mk_loop(opt_idx);
        let mut losses = first.run(3).unwrap();
        first.save(&path).unwrap();
        drop(first);
        let mut resumed = TrainLoop::resume(&path, cfg()).unwrap();
        losses.extend(resumed.run(3).unwrap());

        assert_eq!(losses.len(), ref_losses.len());
        for (a, b) in losses.iter().zip(&ref_losses) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(resumed.model(), reference.model());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A retryable injected fault is survived transparently: the supervised
/// run's losses and final weights are bit-equal to a fault-free run, and
/// the step's `StepMetrics` record the retry and rollback cost.
#[test]
fn retryable_fault_is_survived_transparently() {
    let _timing = shared();
    let mk_sup = || {
        let model = MlpModel::new(&DIMS, 77);
        let optimizer = Optimizer::adam(0.01, &model);
        let mut config = cfg();
        config.tracing = true;
        let lp = TrainLoop::new(model, config, optimizer, DataStream::new(9, BATCH, 5, 3)).unwrap();
        Supervisor::new(lp, RetryPolicy::default())
    };

    let mut clean = mk_sup();
    let mut faulted = mk_sup();
    let mut clean_losses = Vec::new();
    let mut fault_losses = Vec::new();
    for step in 0..5u64 {
        clean_losses.push(clean.step_with(&mut |_, _| FaultPlan::new()).unwrap().loss);
        let mut faults = |s: u64, attempt: usize| {
            if s == 2 && attempt == 0 {
                FaultPlan::new().with_fault(1, 0, 3, FaultKind::Panic)
            } else {
                FaultPlan::new()
            }
        };
        fault_losses.push(faulted.step_with(&mut faults).unwrap().loss);
        let metrics = faulted.last_step_metrics().expect("tracing is on");
        if step == 2 {
            assert_eq!(metrics.recovery.retries, 1, "retry must be recorded");
            assert!(metrics.recovery.rollback_ns > 0, "rollback cost recorded");
        } else {
            assert_eq!(metrics.recovery.retries, 0);
        }
    }

    for (a, b) in fault_losses.iter().zip(&clean_losses) {
        assert_eq!(a.to_bits(), b.to_bits(), "trajectory must be unchanged");
    }
    assert_eq!(faulted.train().model(), clean.train().model());
    assert_eq!(faulted.train().optimizer(), clean.train().optimizer());

    let m = faulted.metrics();
    assert_eq!(m.retries, 1);
    assert_eq!(m.rollbacks, 1);
    assert_eq!(m.recoveries, 1);
    assert!(m.mttr_virtual_us > 0.0);
    assert_eq!(clean.metrics().retries, 0);
}

/// A persistently-failing replica is dropped and training continues in
/// degraded mode: the reconfiguration is recorded, the surviving replica
/// re-shards the rows, and the loss trajectory matches an unreplicated
/// run to within floating-point reassociation.
/// Every weight and bias of `model`, as bits.
fn weight_bits(model: &MlpModel) -> Vec<u32> {
    model
        .layers
        .iter()
        .flat_map(|l| l.w.data.iter().chain(&l.b))
        .map(|v| v.to_bits())
        .collect()
}

/// A replicated loop retries injected panics bit-exactly with no
/// model/optimizer snapshot: a failed attempt leaves weights and Adam
/// state untouched (and the replicas' gradient slots half-filled and
/// poisoned), rollback restores only step and cursor, and every retry
/// lands exactly on the never-faulted trajectory — replica reduction
/// included.
#[test]
fn replicated_retry_is_bit_exact_without_state_snapshot() {
    let _timing = shared();
    let mk = || {
        let model = MlpModel::new(&DIMS, 77);
        let optimizer = Optimizer::adam(0.01, &model);
        let mut config = EngineConfig::straight(vec![0..3, 3..6], 4, 0.1);
        config.replication = vec![3, 2];
        config.recv_timeout = Duration::from_millis(200);
        TrainLoop::new(model, config, optimizer, DataStream::new(9, BATCH, 5, 3)).unwrap()
    };
    let mut clean = mk();
    let mut faulted = mk();
    for step in 0..6u64 {
        let want = clean.try_step(&FaultPlan::new()).unwrap().loss;
        if step % 2 == 1 {
            let (weights, optimizer) = (weight_bits(faulted.model()), faulted.optimizer().clone());
            let cursor = faulted.data().cursor();
            // Stage 0 replica 1 dies at script step 5 (its fourth
            // forward), after two backwards filled its accumulator.
            let plan = FaultPlan::new().with_fault(0, 1, 5, FaultKind::Panic);
            let err = faulted.try_step(&plan).unwrap_err();
            assert!(matches!(err, DappleError::WorkerPanicked { .. }), "{err:?}");
            assert_eq!(
                weight_bits(faulted.model()),
                weights,
                "failed step moved weights"
            );
            assert_eq!(
                faulted.optimizer(),
                &optimizer,
                "failed step moved Adam state"
            );
            assert_eq!((faulted.step(), faulted.data().cursor()), (step, cursor));
        }
        let got = faulted.try_step(&FaultPlan::new()).unwrap().loss;
        assert_eq!(got.to_bits(), want.to_bits(), "step {step} loss");
    }
    assert_eq!(weight_bits(faulted.model()), weight_bits(clean.model()));
    assert_eq!(faulted.optimizer(), clean.optimizer());
}

#[test]
fn degraded_mode_drops_replica_and_continues() {
    let _timing = shared();
    let model = MlpModel::new(&DIMS, 77);
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![2, 1];
    let lp = TrainLoop::new(
        model.clone(),
        config,
        Optimizer::sgd(0.1),
        DataStream::new(9, BATCH, 5, 3),
    )
    .unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
        allow_degraded: true,
    };
    let mut sup = Supervisor::new(lp, policy);

    // Replica 1 of stage 0 fails persistently (a machine died for good).
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);
    let losses = sup
        .run(4, &mut faults)
        .expect("degraded mode must carry on");
    assert_eq!(losses.len(), 4);
    assert!(losses.iter().all(|l| l.is_finite()));

    // The reconfiguration happened and was recorded.
    assert_eq!(sup.train().config().replication, vec![1, 1]);
    let drop_events: Vec<_> = sup
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            RecoveryEventKind::ReplicaDropped {
                stage,
                replica,
                survivors,
            } => Some((e.step, stage, replica, survivors)),
            _ => None,
        })
        .collect();
    assert_eq!(drop_events, vec![(0, 0, 1, 1)]);
    assert_eq!(sup.metrics().replica_drops, 1);

    // Degraded training is still synchronous training: the trajectory
    // matches an unreplicated pipeline up to gradient reassociation.
    let mut unreplicated_cfg = cfg();
    unreplicated_cfg.stage_bounds = vec![0..3, 3..6];
    unreplicated_cfg.replication = vec![1, 1];
    let mut reference = TrainLoop::new(
        model,
        unreplicated_cfg,
        Optimizer::sgd(0.1),
        DataStream::new(9, BATCH, 5, 3),
    )
    .unwrap();
    let ref_losses = reference.run(4).unwrap();
    for (a, b) in losses.iter().zip(&ref_losses) {
        assert!(
            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
            "degraded trajectory diverged: {a} vs {b}"
        );
    }
}

/// With degraded mode disabled the same persistent replica failure is a
/// structured `RetriesExhausted` carrying the sick worker's coordinates.
#[test]
fn degraded_mode_can_be_disabled() {
    let _timing = shared();
    let model = MlpModel::new(&DIMS, 77);
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![2, 1];
    let lp = TrainLoop::new(
        model,
        config,
        Optimizer::sgd(0.1),
        DataStream::new(9, BATCH, 5, 3),
    )
    .unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
        allow_degraded: false,
    };
    let mut sup = Supervisor::new(lp, policy);
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);
    match sup.run(4, &mut faults) {
        Err(DappleError::RetriesExhausted {
            stage,
            replica,
            step,
            attempts,
            ..
        }) => {
            assert_eq!((stage, replica, step), (0, 1, 0));
            assert_eq!(attempts, 2);
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(sup.metrics().replica_drops, 0);
}

/// Checkpoint-every + restore round-trips through the supervisor: after
/// restoring, replaying the same steps reproduces the same losses.
#[test]
fn supervisor_checkpoint_restore_replays_identically() {
    let _timing = shared();
    let lp = mk_loop(2);
    let mut sup = Supervisor::new(lp, RetryPolicy::default()).with_checkpoint_every(2);
    let losses = sup.run(4, |_, _| FaultPlan::new()).unwrap();
    assert_eq!(sup.train().step(), 4);
    // Last checkpoint was taken at step 4.
    sup.restore_last_checkpoint().unwrap();
    assert_eq!(sup.train().step(), 4);
    // Roll further: restore the same position by replaying the v3 chain
    // (the step-2 full save plus the step-4 delta).
    let chain = sup.checkpoint_chain().to_vec();
    assert_eq!(chain.len(), 2, "expected a full save plus one delta");
    let mut replay = TrainLoop::resume_chain(&chain, cfg()).unwrap();
    assert_eq!(replay.step(), 4);
    let more = replay.run(2).unwrap();
    let mut continued = sup.into_train();
    let direct = continued.run(2).unwrap();
    assert_eq!(more.len(), direct.len());
    for (a, b) in more.iter().zip(&direct) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(losses.iter().all(|l| l.is_finite()));
}

/// Builds a straight plan: one device per stage.
fn straight_plan(bounds: &[std::ops::Range<usize>], devices: &[u32]) -> Plan {
    Plan::new(
        bounds
            .iter()
            .zip(devices)
            .map(|(layers, &d)| StagePlan {
                layers: layers.clone(),
                devices: vec![DeviceId(d)],
            })
            .collect(),
    )
}

/// The tentpole guarantee: a stage with no replica to drop exhausts its
/// retries, the supervisor re-plans over the survivors, migrates through
/// a v3 checkpoint — and the whole trajectory (losses AND final weights)
/// is bit-equal to a run that never faulted. A straight-pipeline
/// repartition only moves stage boundaries; per-layer compute and the
/// micro-batch accumulation order are untouched, so bit-exactness is the
/// hard, testable bar.
#[test]
fn elastic_migration_after_exhausted_stage_is_bit_exact() {
    let _timing = shared();
    // Unfaulted reference: the original 3-stage pipeline, start to end.
    let mut reference = mk_loop(2);
    let ref_losses = reference.run(TOTAL_STEPS).unwrap();

    let lp = mk_loop(2);
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
        allow_degraded: true,
    };
    let plan = straight_plan(&[0..2, 2..4, 4..6], &[0, 1, 2]);
    // Scripted planner: device 1 died, so the survivors must be 0 and 2;
    // re-balance the six layers across them as a 2-stage pipeline.
    let replanner = |survivors: &[DeviceId]| {
        assert_eq!(survivors, &[DeviceId(0), DeviceId(2)]);
        Some(straight_plan(&[0..3, 3..6], &[0, 2]))
    };
    let mut sup = Supervisor::new(lp, policy)
        .with_elastic(plan, 0, replanner)
        .unwrap();

    // The device behind stage 1 dies at step 2 and stays dead until the
    // supervisor routes around it (two failed attempts = exhaustion).
    let mut fails = 0u32;
    let mut faults = move |step: u64, _attempt: usize| {
        if step == 2 && fails < 2 {
            fails += 1;
            FaultPlan::new().with_fault(1, 0, 0, FaultKind::Panic)
        } else {
            FaultPlan::new()
        }
    };
    let losses = sup
        .run(TOTAL_STEPS, &mut faults)
        .expect("migration carries on");

    // The pipeline was rebuilt in the re-planned 2-stage shape.
    assert_eq!(sup.train().config().stage_bounds, vec![0..3, 3..6]);
    assert_eq!(sup.train().config().replication, vec![1, 1]);
    assert_eq!(
        sup.current_plan().unwrap(),
        &straight_plan(&[0..3, 3..6], &[0, 2])
    );
    let m = sup.metrics();
    assert_eq!(m.repartitions, 1);
    assert!(m.migration_us > 0, "migration cost must be recorded");
    let migration_events: Vec<_> = sup
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            RecoveryEventKind::Repartitioned {
                old_plan,
                new_plan,
                migration_us,
            } => Some((e.step, old_plan.clone(), new_plan.clone(), *migration_us)),
            _ => None,
        })
        .collect();
    assert_eq!(migration_events.len(), 1);
    let (at_step, old_plan, new_plan, _) = &migration_events[0];
    assert_eq!(*at_step, 2);
    assert_eq!(old_plan, &straight_plan(&[0..2, 2..4, 4..6], &[0, 1, 2]));
    assert_eq!(new_plan, &straight_plan(&[0..3, 3..6], &[0, 2]));
    let json = sup.events_json();
    assert!(json.contains("\"kind\": \"repartitioned\""));

    // Bit-exact: same losses, same weights, same optimizer moments.
    assert_eq!(losses.len(), ref_losses.len());
    for (i, (a, b)) in losses.iter().zip(&ref_losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "loss diverged at step {i}: {a} vs {b}"
        );
    }
    let migrated = sup.into_train();
    assert_eq!(migrated.model(), reference.model());
    assert_eq!(migrated.optimizer(), reference.optimizer());
    assert_eq!(migrated.data().cursor(), reference.data().cursor());
}

/// A `Write` sink the test can read back after the recorder is dropped.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The escalation ladder pays off: after a replica of the heavy stage
/// dies, degraded mode survives but staggers; the post-migration
/// re-balanced pipeline has a measurably cheaper critical stage. Step
/// time is compared via the traced per-stage busy time (its max across
/// stages is what bounds the steady-state pipelined step on real
/// hardware) rather than wall clock, so the test is meaningful on
/// single-core CI runners where thread overlap buys nothing.
#[test]
fn migrated_pipeline_beats_degraded_throughput() {
    let _timing = exclusive();
    const WIDE: [usize; 7] = [32, 192, 192, 192, 192, 192, 16];
    const OBSERVE: u64 = 5;
    let model = MlpModel::new(&WIDE, 21);
    let optimizer = Optimizer::sgd(0.05);
    let mut config = EngineConfig::straight(vec![0..5, 5..6], 2, 0.05);
    config.replication = vec![2, 1];
    config.recv_timeout = Duration::from_secs(5);
    config.tracing = true;
    let lp = TrainLoop::new(model, config, optimizer, DataStream::new(3, 64, 32, 16)).unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
        allow_degraded: true,
    };
    // Stage 0 spans devices 0 and 1; stage 1 runs on device 2.
    let plan = Plan::new(vec![
        StagePlan {
            layers: 0..5,
            devices: vec![DeviceId(0), DeviceId(1)],
        },
        StagePlan {
            layers: 5..6,
            devices: vec![DeviceId(2)],
        },
    ]);
    // The planner re-balances the survivors into an even 2-stage split.
    let replanner = |survivors: &[DeviceId]| {
        assert_eq!(survivors, &[DeviceId(0), DeviceId(2)]);
        Some(straight_plan(&[0..3, 3..6], &[0, 2]))
    };
    let sink = SharedSink::default();
    let mut lp = lp;
    lp.attach_recorder(RunRecorder::new(Box::new(sink.clone())));
    let mut sup = Supervisor::new(lp, policy)
        .with_elastic(plan, OBSERVE, replanner)
        .unwrap();

    // Replica 1 of stage 0 dies for good at step 0; injection points on
    // the dead replica are pruned once the shape changes.
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);

    // The critical-stage compute of the last step: the per-stage busy
    // time (summed over a stage's worker spans) whose max across stages
    // bounds the pipelined step time.
    let critical_ns = |sup: &Supervisor| -> u64 {
        let m = sup.last_step_metrics().expect("tracing is on");
        m.stages.iter().map(|s| s.busy_ns).max().unwrap_or(0)
    };

    // Step 0 absorbs the failure + drop. Then OBSERVE degraded steps run
    // (measured), the migration lands on the last of them, and the
    // re-planned steps are measured.
    sup.step_with(&mut faults).expect("degrades and carries on");
    assert_eq!(sup.train().config().replication, vec![1, 1]);
    assert_eq!(sup.train().config().stage_bounds, vec![0..5, 5..6]);
    let mut degraded_ns = Vec::new();
    for i in 0..OBSERVE {
        sup.step_with(&mut faults).unwrap();
        // The final observed step tears the trainer down mid-step to
        // migrate, so its trace is gone; measure the clean ones.
        if i + 1 < OBSERVE {
            degraded_ns.push(critical_ns(&sup));
        }
    }
    // The scheduled migration landed on the last observed step.
    assert_eq!(sup.metrics().repartitions, 1);
    assert_eq!(sup.train().config().stage_bounds, vec![0..3, 3..6]);
    let mut migrated_ns = Vec::new();
    for _ in 0..OBSERVE {
        sup.step_with(&mut faults).unwrap();
        migrated_ns.push(critical_ns(&sup));
    }
    degraded_ns.sort_unstable();
    migrated_ns.sort_unstable();
    let degraded_median = degraded_ns[degraded_ns.len() / 2];
    let migrated_median = migrated_ns[migrated_ns.len() / 2];
    assert!(
        migrated_median < degraded_median,
        "re-planned pipeline must beat the degraded one: \
         critical stage {migrated_median}ns vs {degraded_median}ns"
    );

    // The run log carries the migration cost on the step it landed.
    drop(sup);
    let log = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let migration_lines: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"migration_ns\":") && !l.contains("\"migration_ns\":0"))
        .collect();
    assert_eq!(
        migration_lines.len(),
        1,
        "exactly one step should be charged migration time:\n{log}"
    );
}

/// Regression: a prime micro-batch row count used to collapse a
/// replicated stage straight to one replica on the first failure
/// (nothing below r divides 7 evenly). Survivors now re-shard unevenly:
/// 3 replicas degrade to 2, splitting 7 rows 4 + 3.
#[test]
fn prime_micro_batch_rows_drop_one_replica_not_all() {
    let _timing = shared();
    const PRIME_BATCH: usize = 28; // 4 micro-batches of 7 rows
    let model = MlpModel::new(&DIMS, 77);
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![3, 1];
    let lp = TrainLoop::new(
        model.clone(),
        config,
        Optimizer::sgd(0.1),
        DataStream::new(9, PRIME_BATCH, 5, 3),
    )
    .unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
        allow_degraded: true,
    };
    let mut sup = Supervisor::new(lp, policy);
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 2, 0, FaultKind::Panic);
    let losses = sup.run(4, &mut faults).expect("keeps both survivors");
    assert!(losses.iter().all(|l| l.is_finite()));
    assert_eq!(
        sup.train().config().replication,
        vec![2, 1],
        "must drop exactly one replica, not collapse to 1"
    );
    let drops: Vec<_> = sup
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            RecoveryEventKind::ReplicaDropped { survivors, .. } => Some(survivors),
            _ => None,
        })
        .collect();
    assert_eq!(drops, vec![2]);

    // Uneven re-sharding is still synchronous training: the trajectory
    // matches an unreplicated run up to gradient reassociation.
    let mut unreplicated_cfg = cfg();
    unreplicated_cfg.stage_bounds = vec![0..3, 3..6];
    unreplicated_cfg.replication = vec![1, 1];
    let mut reference = TrainLoop::new(
        model,
        unreplicated_cfg,
        Optimizer::sgd(0.1),
        DataStream::new(9, PRIME_BATCH, 5, 3),
    )
    .unwrap();
    let ref_losses = reference.run(4).unwrap();
    for (a, b) in losses.iter().zip(&ref_losses) {
        assert!(
            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
            "uneven-shard trajectory diverged: {a} vs {b}"
        );
    }
}

/// A checkpoint taken while degraded must resume degraded: the v3 file
/// persists the active partition, and both the chain resume and the
/// single-file resume restore the post-drop replication — continuing
/// bit-identically to the supervisor that never stopped.
#[test]
fn checkpoint_taken_degraded_resumes_degraded() {
    let _timing = shared();
    let model = MlpModel::new(&DIMS, 77);
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![2, 1];
    let lp = TrainLoop::new(
        model,
        config.clone(),
        Optimizer::adam(0.01, &MlpModel::new(&DIMS, 77)),
        DataStream::new(9, BATCH, 5, 3),
    )
    .unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
        allow_degraded: true,
    };
    let mut sup = Supervisor::new(lp, policy).with_checkpoint_every(1);
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);
    sup.run(3, &mut faults).unwrap();
    assert_eq!(sup.train().config().replication, vec![1, 1]);

    // Resume the chain against the ORIGINAL (pre-degrade) config: the
    // checkpointed partition must win.
    let chain = sup.checkpoint_chain().to_vec();
    assert!(!chain.is_empty());
    let resumed = TrainLoop::resume_chain(&chain, config.clone()).unwrap();
    assert_eq!(resumed.config().replication, vec![1, 1]);
    assert_eq!(resumed.config().stage_bounds, vec![0..3, 3..6]);
    // The single full save restores the degraded shape too.
    let single = TrainLoop::resume_bytes(&chain[0], config).unwrap();
    assert_eq!(single.config().replication, vec![1, 1]);

    // And the resumed loop continues exactly like the supervisor's own.
    let mut resumed = resumed;
    let mut continued = sup.into_train();
    assert_eq!(resumed.step(), continued.step());
    let a = resumed.run(2).unwrap();
    let b = continued.run(2).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(resumed.model(), continued.model());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte corruption anywhere in a v3 base + two-delta
    /// chain — any file, any offset, any non-identity XOR mask — is
    /// rejected with a structured error: payload damage names the bad
    /// shard (`ShardCorrupt`), header damage is `InvalidConfig`; never a
    /// panic, never a silently-wrong resume.
    #[test]
    fn corrupted_v3_delta_chain_is_always_rejected(
        opt_idx in 0usize..3,
        file_seed in 0u64..1_000_000_007,
        pos_seed in 0u64..1_000_000_007,
        mask in 1u8..=255,
    ) {
        let _timing = shared();
        // Build base + 2 deltas through the supervisor (checkpoint every
        // step; the first save is full, the next two are deltas).
        let lp = mk_loop(opt_idx);
        let mut sup = Supervisor::new(lp, RetryPolicy::default()).with_checkpoint_every(1);
        sup.run(3, |_, _| FaultPlan::new()).unwrap();
        let chain = sup.checkpoint_chain().to_vec();
        prop_assert_eq!(chain.len(), 3);
        prop_assert!(checkpoint::v3_chain_to_state(&chain).is_ok());

        let file = (file_seed % chain.len() as u64) as usize;
        let pos = (pos_seed % chain[file].len() as u64) as usize;
        let mut bad = chain.clone();
        bad[file][pos] ^= mask;
        match checkpoint::v3_chain_to_state(&bad) {
            Err(DappleError::ShardCorrupt { shard, layer, .. }) => {
                // Structured shard attribution stays in range.
                prop_assert!(layer < DIMS.len() - 1, "shard {} layer {}", shard, layer);
            }
            Err(DappleError::InvalidConfig(_)) => {}
            Err(other) => prop_assert!(
                false, "file {} byte {} ^ {:#04x}: wrong error kind {:?}", file, pos, mask, other
            ),
            Ok(_) => prop_assert!(
                false, "file {} byte {} ^ {:#04x}: corruption accepted", file, pos, mask
            ),
        }
    }
}
