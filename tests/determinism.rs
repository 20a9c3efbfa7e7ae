//! Property: with an empty fault plan the pipeline runtime is bit-exact
//! deterministic. For random stage splits, replication factors,
//! micro-batch counts, schedules and in-flight caps, repeated steps on
//! the same trainer produce bit-identical losses and gradients, and so
//! does a trainer whose recycled buffers hold another batch's values,
//! stepped through the fault-injection entry point with an empty plan.
//!
//! This rests on the kernels' canonical accumulation order (see
//! `crates/engine/src/tensor.rs` docs and `tests/kernel_reference.rs`):
//! every matmul variant accumulates one ascending fused chain per output
//! element regardless of tiling, SIMD width or thread count, so the
//! pipeline's numerics cannot drift with `RAYON_NUM_THREADS` — CI runs
//! this suite under both 1 thread and the default pool to pin that.

use dapple::engine::{
    data, EngineConfig, FaultPlan, LossKind, MlpModel, NanPolicy, PipelineTrainer,
};
use dapple::sim::{KPolicy, Schedule};
use proptest::prelude::*;
use std::time::Duration;

const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];
const BATCH: usize = 24;

/// Stage splits of the 6-layer model, from trivial to one-layer head.
#[allow(clippy::single_range_in_vec_init)] // a one-stage split really is vec![0..6]
fn splits(idx: usize) -> Vec<std::ops::Range<usize>> {
    match idx {
        0 => vec![0..6],
        1 => vec![0..2, 2..6],
        2 => vec![0..3, 3..6],
        3 => vec![0..2, 2..4, 4..6],
        _ => vec![0..1, 1..4, 4..6],
    }
}

/// Builds the randomized engine config shared by the properties below.
fn build_cfg(
    split_idx: usize,
    micro_idx: usize,
    rep_bits: u64,
    sched_idx: usize,
    recompute_bit: usize,
    flight_idx: usize,
) -> EngineConfig {
    let stage_bounds = splits(split_idx);
    let micro_batches = [1usize, 2, 3, 4, 6, 8][micro_idx];
    let rows_per_micro = BATCH / micro_batches;
    // Replicate a stage 2-ways only when the micro-batch splits evenly.
    let replication: Vec<usize> = (0..stage_bounds.len())
        .map(|i| {
            if rows_per_micro.is_multiple_of(2) && rep_bits & (1 << i) != 0 {
                2
            } else {
                1
            }
        })
        .collect();
    let schedule = [
        Schedule::GPipe,
        Schedule::Dapple(KPolicy::PA),
        Schedule::Dapple(KPolicy::PB),
    ][sched_idx];
    EngineConfig {
        stage_bounds,
        replication,
        schedule,
        micro_batches,
        recompute: recompute_bit == 1,
        lr: 0.1,
        max_in_flight: [1, 2, usize::MAX][flight_idx],
        loss: LossKind::Mse,
        recv_timeout: Duration::from_secs(5),
        nan_policy: NanPolicy::AbortStep,
        tracing: false,
    }
}

/// Tracing observes the same determinism the numerics do: two identical
/// traced runs record the same spans in the same per-worker order —
/// timestamps differ (wall clock), the event *structure* must not.
#[test]
fn traced_runs_have_identical_event_order() {
    let event_orders = || {
        let mut cfg = build_cfg(3, 3, 0b10, 1, 0, 2);
        cfg.tracing = true;
        let trainer = PipelineTrainer::new(MlpModel::new(&DIMS, 77), cfg).unwrap();
        let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
        let (out, trace) = trainer.step_with_trace(&x, &t, &FaultPlan::new());
        out.unwrap();
        let trace = trace.expect("tracing on");
        trace
            .workers
            .iter()
            .map(|w| {
                (
                    w.stage,
                    w.replica,
                    w.spans
                        .iter()
                        .map(|s| (s.kind, s.micro, s.bytes))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let a = event_orders();
    let b = event_orders();
    assert!(!a.is_empty() && a.iter().all(|(_, _, spans)| !spans.is_empty()));
    assert_eq!(a, b, "event order must not depend on thread timing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Repeated steps, and a step through the fault-plan entry point on
    /// a trainer whose pools and recycled gradient storage still hold
    /// another batch's values, all match a fresh trainer's first step bit
    /// for bit — i.e. every recycled buffer is fully overwritten before
    /// use.
    #[test]
    fn no_fault_steps_are_bit_identical(
        split_idx in 0usize..5,
        micro_idx in 0usize..6,
        rep_bits in 0u64..64,
        sched_idx in 0usize..3,
        recompute_bit in 0usize..2,
        flight_idx in 0usize..3,
    ) {
        let cfg = build_cfg(split_idx, micro_idx, rep_bits, sched_idx, recompute_bit, flight_idx);
        let out_dim = *DIMS.last().unwrap();
        let (x, t) = data::regression_batch(BATCH, DIMS[0], out_dim, 9);

        let trainer = PipelineTrainer::new(MlpModel::new(&DIMS, 77), cfg.clone()).unwrap();
        let (loss_a, grads_a) = trainer.step_grads(&x, &t).unwrap();
        let (loss_b, grads_b) = trainer.step_grads(&x, &t).unwrap();

        let dirty = PipelineTrainer::new(MlpModel::new(&DIMS, 77), cfg).unwrap();
        let (x_other, t_other) = data::regression_batch(BATCH, DIMS[0], out_dim, 10);
        let (_, spent) = dirty.step_grads(&x_other, &t_other).unwrap();
        dirty.recycle_grads(spent);
        let empty = dirty.step_with_trace(&x, &t, &FaultPlan::new()).0.unwrap();

        prop_assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        prop_assert_eq!(loss_a.to_bits(), empty.loss.to_bits());
        prop_assert_eq!(empty.skipped_micro_batches, 0);
        prop_assert_eq!(empty.zeroed_values, 0);
        prop_assert_eq!(grads_a.len(), grads_b.len());
        prop_assert_eq!(grads_a.len(), empty.grads.len());
        for ((a, b), c) in grads_a.iter().zip(&grads_b).zip(&empty.grads) {
            let fa = a.to_flat();
            let fb = b.to_flat();
            let fc = c.to_flat();
            prop_assert_eq!(fa.len(), fb.len());
            prop_assert_eq!(fa.len(), fc.len());
            for i in 0..fa.len() {
                prop_assert_eq!(fa[i].to_bits(), fb[i].to_bits());
                prop_assert_eq!(fa[i].to_bits(), fc[i].to_bits());
            }
        }
    }
}
