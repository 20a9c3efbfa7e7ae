//! The multi-threaded pipeline trainer.
//!
//! One OS thread per stage replica, connected by crossbeam channels.
//! Each worker executes exactly the deterministic step order that the
//! simulator models ([`dapple_sim::schedule::stage_order`]): warmup
//! forwards, strict 1F1B interleaving (or GPipe's all-forwards-first),
//! then the backward drain. Activations and activation-gradients flow as
//! real tensors; replicated stages split/concat micro-batches by rows
//! (Fig. 8a / Fig. 9); per-stage gradients accumulate across micro-batches
//! and are synchronized once per step before a single optimizer apply
//! (Fig. 10) — synchronous semantics, bit-compatible with full-batch
//! training up to float reassociation.
//!
//! # The gradient path
//!
//! Each stage replica accumulates into a gradient slot the trainer owns
//! (next to its buffer pool), zeroed in place at step start, so steps
//! allocate no parameter-sized storage once warm. Replica sync is a
//! shared-memory fold of the replicas' accumulators straight into the
//! step's output gradients: chunk `c` of the stage's concatenated
//! per-layer `(dW, db)` vector, over the ring's
//! [`dapple_collectives::chunk_bounds`], is the left fold
//! `x_c + x_(c+1) + ... + x_(c+r-1)` — the exact per-chunk order of
//! [`dapple_collectives::allreduce_sum`], so the result is the ring's bit
//! for bit, without its threads, channels or flat copies. An unreplicated
//! stage's accumulator is handed out by swap, with no copy at all. What
//! the caller gives back through [`PipelineTrainer::recycle_grads`]
//! becomes the next step's storage: the unreplicated stages'
//! accumulators and the replicated stages' reduction targets.
//!
//! # Failure semantics
//!
//! Workers return `Result` instead of unwinding into the coordinator:
//! every channel wait is bounded by [`EngineConfig::recv_timeout`] (a
//! deadlock surfaces as [`DappleError::Stalled`], never a hang), worker
//! panics are caught and reported as [`DappleError::WorkerPanicked`],
//! and non-finite gradient contributions are detected per micro-batch
//! before the AllReduce and handled per [`NanPolicy`]. On shutdown each
//! worker first drops its senders, then drains its receivers, so
//! duplicated or trailing messages are caught deterministically as
//! [`DappleError::ChannelProtocol`]. When several workers fail (one root
//! cause typically cascades), the coordinator reports the most causally
//! specific error: panic over non-finite over protocol violation over
//! stall over closed channel. The model is untouched on any failure, so
//! the trainer stays usable for the next step.

use crate::fault::{FaultKind, FaultPlan, NanPolicy};
use crate::layer::{Dense, DenseGrads};
use crate::loss::{loss_grad_into, LossKind};
use crate::model::{MlpModel, StepStats};
use crate::tensor::Tensor;
use crate::trace::{SpanKind, SpanRing, SpanWriter, StepTrace, WorkerTrace};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dapple_core::{DappleError, Plan, Result};
use dapple_sim::schedule::{stage_order, Step};
use dapple_sim::Schedule;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a pipeline training run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Contiguous layer ranges, one per stage, covering the whole model.
    pub stage_bounds: Vec<Range<usize>>,
    /// Replicas per stage (data parallelism within a stage).
    pub replication: Vec<usize>,
    /// Pipeline schedule (GPipe or DAPPLE with PA/PB warmup).
    pub schedule: Schedule,
    /// Micro-batches per global batch.
    pub micro_batches: usize,
    /// Re-compute activations during backward instead of storing them.
    pub recompute: bool,
    /// SGD learning rate.
    pub lr: f32,
    /// Memory bound `D` on in-flight micro-batches per stage.
    pub max_in_flight: usize,
    /// Loss optimized by the last stage.
    pub loss: LossKind,
    /// Upper bound on every boundary-channel wait. A worker blocked
    /// longer reports [`DappleError::Stalled`] instead of hanging.
    pub recv_timeout: Duration,
    /// What to do when a micro-batch's gradient contribution contains
    /// NaN/Inf values.
    pub nan_policy: NanPolicy,
    /// Recycle boundary-message buffers through a per-worker free list
    /// (zero steady-state allocations on sends). `false` restores the
    /// seed allocation-per-message semantics; results are bit-identical
    /// either way (see tests/determinism.rs).
    pub buffer_reuse: bool,
    /// Record per-worker span traces ([`StepTrace`]) during the step.
    /// Off by default: with tracing off the hot path takes no timestamps
    /// and performs no extra allocations (asserted in
    /// tests/alloc_counts.rs); with it on, recording is lock-free into
    /// pre-allocated ring buffers.
    pub tracing: bool,
}

impl EngineConfig {
    /// A straight pipeline (no replication) with DAPPLE-PA scheduling.
    pub fn straight(stage_bounds: Vec<Range<usize>>, micro_batches: usize, lr: f32) -> Self {
        let n = stage_bounds.len();
        EngineConfig {
            stage_bounds,
            replication: vec![1; n],
            schedule: Schedule::Dapple(dapple_sim::KPolicy::PA),
            micro_batches,
            recompute: false,
            lr,
            max_in_flight: usize::MAX,
            loss: LossKind::Mse,
            recv_timeout: Duration::from_secs(5),
            nan_policy: NanPolicy::AbortStep,
            buffer_reuse: true,
            tracing: false,
        }
    }

    /// An engine config executing a planner [`Plan`]: stage bounds are
    /// the plan's layer ranges, replication its per-stage device counts.
    /// Everything else takes the [`EngineConfig::straight`] defaults.
    pub fn from_plan(plan: &Plan, micro_batches: usize, lr: f32) -> Self {
        EngineConfig::straight(Vec::new(), micro_batches, lr).apply_plan(plan)
    }

    /// This config re-shaped to `plan`: stage bounds and replication are
    /// replaced, every other knob (schedule, micro-batches, timeouts,
    /// NaN policy, ...) is preserved. This is the migration primitive of
    /// elastic recovery — the supervisor re-plans, then rebuilds the
    /// trainer with `cfg.apply_plan(&new_plan)`.
    pub fn apply_plan(&self, plan: &Plan) -> Self {
        let mut cfg = self.clone();
        cfg.stage_bounds = plan.stages.iter().map(|s| s.layers.clone()).collect();
        cfg.replication = plan.stages.iter().map(|s| s.devices.len()).collect();
        cfg
    }
}

/// A message crossing a stage boundary: rows `row0..row0 + data.rows` of
/// micro-batch `micro` (row indices are micro-batch local).
struct Msg {
    micro: usize,
    row0: usize,
    data: Tensor,
}

/// Per-worker output (its gradients stay in its [`WorkerSlot`]).
struct WorkerOut {
    loss: f32,
    /// Micro-batches dropped under [`NanPolicy::SkipMicroBatch`].
    skipped: usize,
    /// Values replaced under [`NanPolicy::ZeroAndWarn`].
    zeroed: usize,
    /// Buffer-pool hits (boundary buffers served from the free list).
    pool_hits: usize,
    /// Buffer-pool misses (fresh allocations).
    pool_misses: usize,
}

/// The result of one pipelined gradient computation, including what the
/// NaN policy did along the way.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Total loss over the global batch (minus any skipped micro-batches).
    pub loss: f32,
    /// Per-layer gradients, directly comparable with
    /// [`MlpModel::reference_grads`]. A caller that hands every step's
    /// gradients back through [`PipelineTrainer::recycle_grads`] makes
    /// steps that allocate nothing parameter-sized; otherwise the next
    /// step allocates fresh storage.
    pub grads: Vec<DenseGrads>,
    /// Micro-batch contributions dropped by [`NanPolicy::SkipMicroBatch`],
    /// summed over stage replicas (each replica that detects the poison
    /// counts it once).
    pub skipped_micro_batches: usize,
    /// Non-finite values replaced by [`NanPolicy::ZeroAndWarn`], summed
    /// over stage replicas.
    pub zeroed_values: usize,
    /// Boundary buffers served from the per-worker free lists, summed
    /// over all workers. Zero when [`EngineConfig::buffer_reuse`] is off.
    pub pool_hits: usize,
    /// Boundary buffers that had to be freshly allocated, summed over
    /// all workers. With reuse on, steady-state 1F1B misses only during
    /// pipeline warmup — the count is independent of the number of
    /// micro-batches (asserted in tests/alloc_counts.rs).
    pub pool_misses: usize,
    /// The measured span timeline of this step when
    /// [`EngineConfig::tracing`] is on; `None` otherwise.
    pub trace: Option<StepTrace>,
}

/// The pipeline trainer: a model plus its parallelization config.
pub struct PipelineTrainer {
    /// The master copy of the model (updated after every step).
    pub model: MlpModel,
    cfg: EngineConfig,
    /// Per-worker state, one slot per stage replica in spawn order
    /// (stage-major, replica-minor): buffer pool, gradient accumulator,
    /// contribution scratch, transpose scratch. Owned here — not by the
    /// per-step worker threads — so all of it survives across steps:
    /// after the first step every boundary take is a hit and no worker
    /// allocates gradient or kernel scratch.
    slots: Vec<Mutex<WorkerSlot>>,
    /// Storage for the next step's output gradients of the replicated
    /// stages, given back by the caller through
    /// [`PipelineTrainer::recycle_grads`].
    spare: Mutex<Vec<DenseGrads>>,
}

impl PipelineTrainer {
    /// Validates the configuration against the model.
    pub fn new(model: MlpModel, cfg: EngineConfig) -> Result<Self> {
        if cfg.stage_bounds.is_empty() || cfg.stage_bounds.len() != cfg.replication.len() {
            return Err(DappleError::InvalidConfig(
                "stage bounds and replication must align and be non-empty".into(),
            ));
        }
        let mut next = 0usize;
        for (i, r) in cfg.stage_bounds.iter().enumerate() {
            if r.start != next || r.is_empty() {
                return Err(DappleError::InvalidConfig(format!(
                    "stage {i} range {r:?} not contiguous from {next}"
                )));
            }
            if cfg.replication[i] == 0 {
                return Err(DappleError::InvalidConfig(format!(
                    "stage {i} has 0 replicas"
                )));
            }
            next = r.end;
        }
        if next != model.num_layers() {
            return Err(DappleError::InvalidConfig(format!(
                "stages cover {next} layers, model has {}",
                model.num_layers()
            )));
        }
        if cfg.micro_batches == 0 {
            return Err(DappleError::InvalidConfig(
                "need at least one micro-batch".into(),
            ));
        }
        if cfg.recv_timeout.is_zero() {
            return Err(DappleError::InvalidConfig(
                "recv_timeout must be positive".into(),
            ));
        }
        let workers: usize = cfg.replication.iter().sum();
        let slots = (0..workers)
            .map(|_| Mutex::new(WorkerSlot::new(cfg.buffer_reuse)))
            .collect();
        Ok(PipelineTrainer {
            model,
            cfg,
            slots,
            spare: Mutex::new(Vec::new()),
        })
    }

    /// Config accessor.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Hands spent output gradients (a previous [`StepOutcome::grads`])
    /// back to the trainer as storage for the next step. An unreplicated
    /// stage's layers go straight back to its worker as the accumulator
    /// it zeroes in place (the step handed that accumulator out by swap,
    /// so the stage keeps one gradient set, not two); a replicated
    /// stage's layers are what its replicas are next reduced into.
    /// Entries of the wrong shape are replaced when used, so any set is
    /// safe to give back.
    pub fn recycle_grads(&self, mut grads: Vec<DenseGrads>) {
        if grads.len() == self.model.num_layers() {
            let mut first = 0usize; // slot index of the stage's replica 0
            for (bounds, &r) in self.cfg.stage_bounds.iter().zip(&self.cfg.replication) {
                if r == 1 {
                    let acc = &mut lock(&self.slots[first]).acc;
                    acc.resize_with(bounds.len(), empty_grads);
                    acc.swap_with_slice(&mut grads[bounds.clone()]);
                }
                first += r;
            }
        }
        *lock(&self.spare) = grads;
    }

    /// Computes full-batch gradients via the pipeline, without updating
    /// weights. Returns `(loss, per-layer grads)` — directly comparable
    /// with [`MlpModel::reference_grads`].
    pub fn step_grads(&self, x: &Tensor, target: &Tensor) -> Result<(f32, Vec<DenseGrads>)> {
        let out = self.step_grads_with_faults(x, target, &FaultPlan::new())?;
        Ok((out.loss, out.grads))
    }

    /// [`Self::step_grads`] under a fault-injection plan. With an empty
    /// plan this is bit-identical to the plain path; with faults it
    /// returns the structured error of the root cause (or, under a
    /// lenient [`NanPolicy`], a [`StepOutcome`] describing what was
    /// skipped or zeroed). The model is never modified here, so the
    /// trainer remains usable after a failed step.
    pub fn step_grads_with_faults(
        &self,
        x: &Tensor,
        target: &Tensor,
        faults: &FaultPlan,
    ) -> Result<StepOutcome> {
        let (result, trace) = self.step_with_trace(x, target, faults);
        result.map(|mut out| {
            out.trace = trace;
            out
        })
    }

    /// [`Self::step_grads_with_faults`] with the measured trace surfaced
    /// separately, so a *failed* step still yields its partial timeline:
    /// spans recorded before the failure survive in the per-worker rings
    /// and are drained here regardless of the step's outcome. With
    /// [`EngineConfig::tracing`] off the trace is always `None`.
    pub fn step_with_trace(
        &self,
        x: &Tensor,
        target: &Tensor,
        faults: &FaultPlan,
    ) -> (Result<StepOutcome>, Option<StepTrace>) {
        let n = x.rows;
        let m = self.cfg.micro_batches;
        if !n.is_multiple_of(m) {
            return (
                Err(DappleError::InvalidConfig(format!(
                    "batch {n} not divisible by {m} micro-batches"
                ))),
                None,
            );
        }
        let mb = n / m;
        for (i, &r) in self.cfg.replication.iter().enumerate() {
            if r > mb {
                return (
                    Err(DappleError::InvalidConfig(format!(
                        "stage {i} replication {r} exceeds micro-batch size {mb}"
                    ))),
                    None,
                );
            }
        }
        if let Err(e) = faults.validate(&self.cfg) {
            return (Err(e), None);
        }
        let s = self.cfg.stage_bounds.len();

        // Row ranges (micro-batch local) per stage replica. Splits need
        // not be even: the first `mb % r` replicas take one extra row, so
        // any replication `r <= mb` is valid (elastic re-planning after a
        // failure can leave prime micro-batch sizes on odd replica counts).
        let rows_of = |stage: usize, rep: usize| -> Range<usize> {
            let r = self.cfg.replication[stage];
            let (w, rem) = (mb / r, mb % r);
            let start = rep * w + rep.min(rem);
            start..start + w + usize::from(rep < rem)
        };

        // Wire the boundary channels.
        // fwd_rx[i][p]: what stage i replica p receives from stage i-1.
        let mut fwd_tx: Vec<Vec<Sender<Msg>>> = Vec::new(); // index: boundary -> next replica
        let mut fwd_rx: Vec<Vec<Option<Receiver<Msg>>>> = (0..s)
            .map(|i| (0..self.cfg.replication[i]).map(|_| None).collect())
            .collect();
        let mut bwd_tx: Vec<Vec<Sender<Msg>>> = Vec::new(); // index: boundary -> prev replica
        let mut bwd_rx: Vec<Vec<Option<Receiver<Msg>>>> = (0..s)
            .map(|i| (0..self.cfg.replication[i]).map(|_| None).collect())
            .collect();
        for b in 0..s.saturating_sub(1) {
            let mut txs = Vec::new();
            for slot in fwd_rx[b + 1].iter_mut() {
                let (tx, rx) = unbounded();
                txs.push(tx);
                *slot = Some(rx);
            }
            fwd_tx.push(txs);
            let mut txs = Vec::new();
            for slot in bwd_rx[b].iter_mut() {
                let (tx, rx) = unbounded();
                txs.push(tx);
                *slot = Some(rx);
            }
            bwd_tx.push(txs);
        }

        // Per-worker trace rings, pre-sized from the script length so
        // recording never allocates (≤ 4 spans per scheduled step).
        let epoch = Instant::now();
        let mut rings: Vec<Arc<SpanRing>> = Vec::new();
        let mut results: Vec<Result<WorkerOut>> = Vec::with_capacity(s * 2);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in 0..s {
                for p in 0..self.cfg.replication[i] {
                    let layers = &self.model.layers[self.cfg.stage_bounds[i].clone()];
                    let my_rows = rows_of(i, p);
                    let script = stage_order(self.cfg.schedule, i, s, m, self.cfg.max_in_flight);
                    let tracer = self.cfg.tracing.then(|| {
                        let ring = Arc::new(SpanRing::new(4 * script.len() + 8));
                        rings.push(Arc::clone(&ring));
                        SpanWriter::new(ring, epoch)
                    });
                    let rx_f = fwd_rx[i][p].take();
                    let rx_b = bwd_rx[i][p].take();
                    let tx_f: Option<Vec<Sender<Msg>>> = (i + 1 < s).then(|| fwd_tx[i].clone());
                    let tx_b: Option<Vec<Sender<Msg>>> = (i > 0).then(|| bwd_tx[i - 1].clone());
                    let next_rows: Option<Vec<Range<usize>>> = (i + 1 < s).then(|| {
                        (0..self.cfg.replication[i + 1])
                            .map(|q| rows_of(i + 1, q))
                            .collect()
                    });
                    let prev_rows: Option<Vec<Range<usize>>> = (i > 0).then(|| {
                        (0..self.cfg.replication[i - 1])
                            .map(|q| rows_of(i - 1, q))
                            .collect()
                    });
                    let worker = Worker {
                        stage: i,
                        replica: p,
                        loss: self.cfg.loss,
                        layers,
                        script,
                        my_rows,
                        mb,
                        total_samples: n,
                        recompute: self.cfg.recompute,
                        is_first: i == 0,
                        is_last: i + 1 == s,
                        x,
                        target,
                        rx_f,
                        rx_b,
                        tx_f,
                        tx_b,
                        next_rows,
                        prev_rows,
                        faults: faults.for_worker(i, p),
                        nan_policy: self.cfg.nan_policy,
                        recv_timeout: self.cfg.recv_timeout,
                        slot: &self.slots[handles.len()],
                        tracer,
                    };
                    handles.push(scope.spawn(move || {
                        // A panicking worker (genuine bug or injected
                        // fault) unwinds here, dropping its channel
                        // endpoints so peers observe the failure instead
                        // of deadlocking; the payload is preserved as a
                        // structured error.
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run()))
                            .unwrap_or_else(|payload| {
                                Err(DappleError::WorkerPanicked {
                                    stage: i,
                                    replica: p,
                                    message: panic_message(payload.as_ref()),
                                })
                            })
                    }));
                }
            }
            // Drop the original sender handles: workers hold clones, and
            // keeping these alive would turn a worker failure into a
            // full-timeout stall on every peer instead of a prompt
            // disconnect.
            drop(fwd_tx);
            drop(bwd_tx);
            for h in handles {
                // Every wait inside a worker is bounded, so the join is
                // bounded too.
                results.push(h.join().expect("worker result already caught"));
            }
        });

        // Drain the rings into the trace before inspecting errors: the
        // joins above give the happens-before edge, and spans written
        // before a worker failed (or panicked) are still in its ring.
        let mut trace = self
            .cfg
            .tracing
            .then(|| StepTrace::new(self.cfg.replication.clone(), epoch));
        if let Some(tr) = trace.as_mut() {
            let mut k = 0usize;
            for i in 0..s {
                for p in 0..self.cfg.replication[i] {
                    let ring = &rings[k];
                    k += 1;
                    tr.workers.push(WorkerTrace {
                        stage: i,
                        replica: p,
                        spans: ring.snapshot(),
                        dropped: ring.dropped(),
                    });
                }
            }
        }

        if let Some(err) = most_severe_error(&results) {
            return (Err(err), trace);
        }
        let outs: Vec<WorkerOut> = results
            .into_iter()
            .map(|r| r.expect("no errors after aggregation"))
            .collect();

        // Gradient sync (Fig. 10): each stage's replica accumulators are
        // folded into the output in the ring's per-chunk order, or, for
        // an unreplicated stage, swapped out whole.
        let skipped_micro_batches = outs.iter().map(|o| o.skipped).sum();
        let zeroed_values = outs.iter().map(|o| o.zeroed).sum();
        let pool_hits = outs.iter().map(|o| o.pool_hits).sum();
        let pool_misses = outs.iter().map(|o| o.pool_misses).sum();
        let mut grads = std::mem::take(&mut *lock(&self.spare));
        grads.resize_with(self.model.num_layers(), empty_grads);
        let mut loss = 0.0f32;
        let mut first = 0usize; // slot index of the stage's replica 0
        for i in 0..s {
            let r = self.cfg.replication[i];
            let bounds = self.cfg.stage_bounds[i].clone();
            loss += outs[first..first + r].iter().map(|o| o.loss).sum::<f32>();
            let out = &mut grads[bounds.clone()];
            if r == 1 {
                out.swap_with_slice(&mut lock(&self.slots[first]).acc);
            } else {
                for (g, layer) in out.iter_mut().zip(&self.model.layers[bounds]) {
                    fit_grads(g, layer, false);
                }
                // Timed only where replicas are actually synchronized —
                // mirrors the simulator, which emits an AllReduce task
                // only for replicated stages.
                let t0 = trace.is_some().then(Instant::now);
                let slots: Vec<_> = self.slots[first..first + r].iter().map(lock).collect();
                let accs: Vec<&[DenseGrads]> = slots.iter().map(|g| &g.acc[..]).collect();
                let len = reduce_replicas_into(&accs, out);
                if let (Some(t0), Some(tr)) = (t0, trace.as_mut()) {
                    let bytes = (len * std::mem::size_of::<f32>()) as u64;
                    tr.record_coord(Some(i), SpanKind::AllReduce, bytes, t0, Instant::now());
                }
            }
            first += r;
        }
        (
            Ok(StepOutcome {
                loss,
                grads,
                skipped_micro_batches,
                zeroed_values,
                pool_hits,
                pool_misses,
                trace: None,
            }),
            trace,
        )
    }

    /// One synchronous training step: pipeline gradients + SGD apply.
    pub fn train_step(&mut self, x: &Tensor, target: &Tensor) -> Result<StepStats> {
        let (loss, grads) = self.step_grads(x, target)?;
        self.model.apply(&grads, self.cfg.lr);
        self.recycle_grads(grads);
        Ok(StepStats {
            loss,
            samples: x.rows,
        })
    }

    /// [`Self::train_step`] returning the step's measured trace, with the
    /// optimizer apply recorded as an `OptimStep` span on the same clock.
    /// The trace is `None` unless [`EngineConfig::tracing`] is on.
    pub fn train_step_traced(
        &mut self,
        x: &Tensor,
        target: &Tensor,
    ) -> Result<(StepStats, Option<StepTrace>)> {
        let (result, mut trace) = self.step_with_trace(x, target, &FaultPlan::new());
        let out = result?;
        let t0 = Instant::now();
        self.model.apply(&out.grads, self.cfg.lr);
        if let Some(tr) = trace.as_mut() {
            tr.record_coord(None, SpanKind::OptimStep, 0, t0, Instant::now());
        }
        self.recycle_grads(out.grads);
        Ok((
            StepStats {
                loss: out.loss,
                samples: x.rows,
            },
            trace,
        ))
    }

    /// One synchronous training step under an explicit optimizer
    /// (momentum, Adam, ...) instead of the config's plain-SGD rate.
    pub fn train_step_with(
        &mut self,
        x: &Tensor,
        target: &Tensor,
        optimizer: &mut crate::optim::Optimizer,
    ) -> Result<StepStats> {
        let (loss, grads) = self.step_grads(x, target)?;
        optimizer.step(&mut self.model, &grads);
        self.recycle_grads(grads);
        Ok(StepStats {
            loss,
            samples: x.rows,
        })
    }
}

/// Cascade-failure ranking: when one worker's fault makes its peers fail
/// too (a panic starves the neighbors, which then stall), report the
/// error closest to the root cause.
fn error_severity(e: &DappleError) -> u8 {
    match e {
        DappleError::WorkerPanicked { .. } => 5,
        DappleError::NonFinite { .. } => 4,
        DappleError::ChannelProtocol { .. } => 3,
        DappleError::Stalled { .. } => 2,
        DappleError::ChannelClosed { .. } => 1,
        _ => 0,
    }
}

/// The most severe error across worker results, ties broken by spawn
/// order (stage, then replica) for determinism.
fn most_severe_error(results: &[Result<WorkerOut>]) -> Option<DappleError> {
    let mut worst: Option<&DappleError> = None;
    for r in results {
        if let Err(e) = r {
            if worst.is_none_or(|w| error_severity(e) > error_severity(w)) {
                worst = Some(e);
            }
        }
    }
    worst.cloned()
}

/// Stringifies a worker panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One stage-replica worker.
struct Worker<'a> {
    stage: usize,
    replica: usize,
    loss: LossKind,
    layers: &'a [Dense],
    script: Vec<Step>,
    /// Micro-batch-local rows this replica owns.
    my_rows: Range<usize>,
    mb: usize,
    total_samples: usize,
    recompute: bool,
    is_first: bool,
    is_last: bool,
    x: &'a Tensor,
    target: &'a Tensor,
    rx_f: Option<Receiver<Msg>>,
    rx_b: Option<Receiver<Msg>>,
    tx_f: Option<Vec<Sender<Msg>>>,
    tx_b: Option<Vec<Sender<Msg>>>,
    next_rows: Option<Vec<Range<usize>>>,
    prev_rows: Option<Vec<Range<usize>>>,
    /// Faults this worker must inject, keyed by step index.
    faults: HashMap<usize, FaultKind>,
    nan_policy: NanPolicy,
    recv_timeout: Duration,
    /// This worker's persistent slot (owned by the trainer so pool,
    /// gradients and scratch survive across steps). Each worker locks
    /// only its own slot for the duration of the step — uncontended by
    /// construction.
    slot: &'a Mutex<WorkerSlot>,
    /// Span recorder; `None` keeps the hot path timestamp-free.
    tracer: Option<SpanWriter>,
}

/// Stored state per in-flight micro-batch.
enum Flight {
    /// Stage input plus the per-layer output chain (normal mode) — all
    /// the state the backward pass needs, with no extra copies.
    Cached { input: Tensor, ys: Vec<Tensor> },
    /// Stage input only (re-computation mode).
    InputOnly(Tensor),
}

/// Cap on free-list depth per shape: bounds pool growth on workers that
/// recycle more buffers than they take (e.g. the last stage, whose loss
/// gradients are produced fresh but retired into the pool).
const POOL_CAP_PER_SHAPE: usize = 16;

/// A free list of tensor buffers keyed by shape.
///
/// `take` hands out a recycled buffer when one is available (a *hit*)
/// and falls back to a fresh allocation otherwise (a *miss*); `put`
/// retires a spent tensor for reuse. Recycled contents are arbitrary:
/// every take site must fully overwrite the buffer. With `enabled ==
/// false`, every take allocates and every put drops — exactly the seed
/// allocation-per-message semantics, kept selectable so the determinism
/// suite can assert the two paths are bit-identical.
///
/// The pool covers both the boundary messages and the compute path: the
/// per-layer forward chain and the backward input-gradients draw from the
/// same free lists (see [`forward_stage`]/[`backward_stage`]), and each
/// backward retires its whole chain. In steady-state 1F1B the traffic is
/// shape-symmetric micro-batch to micro-batch, so misses happen only
/// during pipeline warmup — and because pools live on the
/// [`PipelineTrainer`] (not the per-step workers), warmup is paid once
/// per trainer, not once per step.
///
/// A worker sees only a handful of distinct shapes, so buckets live in
/// a flat `Vec` scanned linearly — cheaper than hashing the shape key
/// on every message, and lookups allocate nothing.
struct TensorPool {
    enabled: bool,
    free: Vec<((usize, usize), Vec<Tensor>)>,
    hits: usize,
    misses: usize,
}

impl TensorPool {
    fn new(enabled: bool) -> Self {
        TensorPool {
            enabled,
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Resets the per-step hit/miss counters (the free lists persist).
    fn begin_step(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Whether recycling is on. Callers that have a cheaper non-pooled
    /// path (e.g. an allocating kernel that skips the zero-fill a recycled
    /// buffer needs) branch on this instead of paying `take`'s miss.
    fn reuses(&self) -> bool {
        self.enabled
    }

    /// A buffer of exactly `rows x cols`; contents are arbitrary.
    fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let bucket = self
            .free
            .iter_mut()
            .find(|(shape, _)| *shape == (rows, cols));
        if let Some(t) = bucket.and_then(|(_, list)| list.pop()) {
            self.hits += 1;
            t
        } else {
            self.misses += 1;
            Tensor::zeros(rows, cols)
        }
    }

    /// Retires a spent tensor into the free list.
    fn put(&mut self, t: Tensor) {
        if !self.enabled {
            return;
        }
        let shape = (t.rows, t.cols);
        let slot = match self.free.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, list)) => list,
            None => {
                self.free.push((shape, Vec::new()));
                &mut self.free.last_mut().expect("just pushed").1
            }
        };
        if slot.len() < POOL_CAP_PER_SHAPE {
            slot.push(t);
        }
    }
}

/// What a send may do with its tensor.
enum Payload<'t> {
    /// The caller still needs the tensor (e.g. a cached activation):
    /// overlaps are copied into pooled buffers.
    Keep(&'t Tensor),
    /// The tensor is dead after the send: moved into the message when a
    /// single peer takes all of it, recycled otherwise.
    Give(Tensor),
}

impl Payload<'_> {
    fn tensor(&self) -> &Tensor {
        match self {
            Payload::Keep(t) => t,
            Payload::Give(t) => t,
        }
    }
}

/// Payload size of a boundary tensor, bytes.
#[inline]
fn tensor_bytes(t: &Tensor) -> u64 {
    (t.rows * t.cols * std::mem::size_of::<f32>()) as u64
}

/// Copies rows `src_rows` of `src` into `dst` (exactly the overlap shape).
fn copy_rows_into(src: &Tensor, src_rows: Range<usize>, dst: &mut Tensor) {
    debug_assert_eq!(dst.rows, src_rows.len());
    debug_assert_eq!(dst.cols, src.cols);
    let c = src.cols;
    dst.data
        .copy_from_slice(&src.data[src_rows.start * c..src_rows.end * c]);
}

impl Worker<'_> {
    /// Epoch-relative timestamp; 0 (and never read) with tracing off.
    #[inline]
    fn now_ns(&self) -> u64 {
        self.tracer.as_ref().map_or(0, SpanWriter::now_ns)
    }

    /// Records a span when tracing is on (lock-free, allocation-free).
    #[inline]
    fn rec(&self, kind: SpanKind, micro: usize, bytes: u64, start_ns: u64, end_ns: u64) {
        if let Some(tr) = &self.tracer {
            tr.record(kind, micro as u32, bytes, start_ns, end_ns);
        }
    }

    fn run(mut self) -> Result<WorkerOut> {
        // Free lists are always valid and the gradients are re-shaped and
        // zeroed right here, so a slot poisoned by a worker that panicked
        // last step is safe to reuse.
        let mut slot = lock(self.slot);
        let WorkerSlot {
            pool,
            acc,
            contrib,
            pack,
        } = &mut *slot;
        pool.begin_step();
        // The step's accumulator starts from zero, in place. `contrib`
        // is one micro-batch's gradient, overwritten by every backward
        // and kept apart so a poisoned one can be inspected — and
        // skipped or repaired — before it contaminates the accumulator.
        shape_grads(acc, self.layers, true);
        shape_grads(contrib, self.layers, false);
        // Spare spines for the per-layer forward chains: each backward
        // drains its chain's tensors into the pool and parks the empty
        // Vec here for the next forward.
        let mut chain_spares: Vec<Vec<Tensor>> = Vec::new();
        let mut loss = 0.0f32;
        let mut skipped = 0usize;
        let mut zeroed = 0usize;
        // At most one flight per in-progress micro-batch; sizing the map
        // up front keeps rehashing out of the step loop.
        let mut flights: HashMap<usize, Flight> = HashMap::with_capacity(self.script.len() / 2 + 1);
        let mut buf_f: HashMap<usize, Vec<Msg>> = HashMap::new();
        let mut buf_b: HashMap<usize, Vec<Msg>> = HashMap::new();
        // Micro-batches poisoned by an injected NaN at their forward:
        // their loss gradient is poisoned at this worker's own backward
        // too, so the fault is detected locally even when the downstream
        // copy is handled by a lenient policy or recomputation.
        let mut poisoned: HashSet<usize> = HashSet::new();

        for idx in 0..self.script.len() {
            let step = self.script[idx];
            let fault = self.faults.get(&idx).copied();
            match fault {
                Some(FaultKind::Stall(delay)) => std::thread::sleep(delay),
                Some(FaultKind::Panic) => {
                    // resume_unwind skips the panic hook: injected panics
                    // are expected and should not spam stderr. The
                    // coordinator still maps the payload to
                    // WorkerPanicked.
                    std::panic::resume_unwind(Box::new(format!(
                        "injected panic at stage {} replica {} step {idx}",
                        self.stage, self.replica
                    )));
                }
                _ => {}
            }
            match step {
                Step::Fw(u) => {
                    let t0 = self.now_ns();
                    let input = if self.is_first {
                        let lo = u * self.mb + self.my_rows.start;
                        let hi = u * self.mb + self.my_rows.end;
                        let mut t = pool.take(hi - lo, self.x.cols);
                        copy_rows_into(self.x, lo..hi, &mut t);
                        t
                    } else {
                        self.recv_rows(RxSide::Forward, &mut buf_f, u, idx, pool)?
                    };
                    let t1 = self.now_ns();
                    if !self.is_first {
                        self.rec(SpanKind::CommRecvWait, u, tensor_bytes(&input), t0, t1);
                    }
                    let mut ys = chain_spares.pop().unwrap_or_default();
                    forward_stage(self.layers, &input, &mut ys, pool);
                    // The first stage folds its input-slice copy into the
                    // forward span; downstream stages start at receipt.
                    self.rec(
                        SpanKind::Fw,
                        u,
                        0,
                        if self.is_first { t0 } else { t1 },
                        self.now_ns(),
                    );
                    if fault == Some(FaultKind::NanGradient) {
                        poisoned.insert(u);
                    }
                    if let (Some(txs), Some(next_rows)) = (&self.tx_f, &self.next_rows) {
                        let out_bytes = tensor_bytes(ys.last().expect("non-empty stage"));
                        let ts = self.now_ns();
                        if fault == Some(FaultKind::NanGradient) {
                            // Poison only the outgoing copy; the cached
                            // chain stays clean (the local backward is
                            // poisoned via `poisoned`, as before).
                            let mut bad = ys.last().expect("non-empty stage").clone();
                            bad.data.fill(f32::NAN);
                            self.send_with_fault(
                                fault,
                                txs,
                                next_rows,
                                u,
                                Payload::Give(bad),
                                idx,
                                pool,
                            )?;
                        } else if self.recompute {
                            // The chain is rebuilt at Bw, so the output
                            // can move straight into the message.
                            let out = ys.pop().expect("non-empty stage");
                            self.send_with_fault(
                                fault,
                                txs,
                                next_rows,
                                u,
                                Payload::Give(out),
                                idx,
                                pool,
                            )?;
                        } else {
                            let out = ys.last().expect("non-empty stage");
                            self.send_with_fault(
                                fault,
                                txs,
                                next_rows,
                                u,
                                Payload::Keep(out),
                                idx,
                                pool,
                            )?;
                        }
                        self.rec(SpanKind::CommSend, u, out_bytes, ts, self.now_ns());
                    }
                    flights.insert(
                        u,
                        if self.recompute {
                            // Whatever the send left in the chain is
                            // spent (everything, on the poisoned-copy
                            // fault path); the spine is parked for the
                            // next forward.
                            for y in ys.drain(..) {
                                pool.put(y);
                            }
                            chain_spares.push(ys);
                            Flight::InputOnly(input)
                        } else {
                            Flight::Cached { input, ys }
                        },
                    );
                }
                Step::Bw(u) => {
                    let t0 = self.now_ns();
                    let (input, mut ys, recomputed) =
                        match flights.remove(&u).expect("forward before backward") {
                            Flight::Cached { input, ys } => (input, ys, false),
                            Flight::InputOnly(input) => {
                                let mut ys = chain_spares.pop().unwrap_or_default();
                                forward_stage(self.layers, &input, &mut ys, pool);
                                (input, ys, true)
                            }
                        };
                    let ta = self.now_ns();
                    if recomputed {
                        self.rec(SpanKind::Recompute, u, 0, t0, ta);
                    }
                    let mut micro_loss = 0.0f32;
                    let mut dy = if self.is_last {
                        let pred = ys.last().expect("non-empty stage");
                        let lo = u * self.mb + self.my_rows.start;
                        let hi = u * self.mb + self.my_rows.end;
                        // Pooled target slice and loss gradient: the
                        // last stage's loss path allocates nothing in
                        // steady state either.
                        let mut t = pool.take(hi - lo, self.target.cols);
                        copy_rows_into(self.target, lo..hi, &mut t);
                        let mut dy = pool.take(pred.rows, pred.cols);
                        micro_loss =
                            loss_grad_into(self.loss, pred, &t, self.total_samples, &mut dy);
                        pool.put(t);
                        dy
                    } else {
                        self.recv_rows(RxSide::Backward, &mut buf_b, u, idx, pool)?
                    };
                    let tb = self.now_ns();
                    if !self.is_last {
                        self.rec(SpanKind::CommRecvWait, u, tensor_bytes(&dy), ta, tb);
                    }
                    if fault == Some(FaultKind::NanGradient) || poisoned.contains(&u) {
                        dy.data.fill(f32::NAN);
                    }
                    let (dx, spent_gy) =
                        backward_stage(self.layers, &input, &ys, dy, contrib, pack, pool);
                    // The last stage folds its loss computation into the
                    // backward span; upstream stages start at receipt.
                    self.rec(
                        SpanKind::Bw,
                        u,
                        0,
                        if self.is_last { ta } else { tb },
                        self.now_ns(),
                    );
                    // The boundary buffers this micro-batch arrived in are
                    // spent now, as is the whole forward chain; recycling
                    // them is what stocks the pool for the sends and
                    // forwards of later micro-batches (misses happen only
                    // during warmup).
                    pool.put(spent_gy);
                    pool.put(input);
                    for y in ys.drain(..) {
                        pool.put(y);
                    }
                    chain_spares.push(ys);
                    let bad = count_non_finite(contrib) + usize::from(!micro_loss.is_finite());
                    if bad == 0 {
                        merge_contribution(acc, contrib);
                        loss += micro_loss;
                    } else {
                        match self.nan_policy {
                            NanPolicy::AbortStep => {
                                return Err(DappleError::NonFinite {
                                    stage: self.stage,
                                    replica: self.replica,
                                    micro: u,
                                });
                            }
                            NanPolicy::SkipMicroBatch => skipped += 1,
                            NanPolicy::ZeroAndWarn => {
                                zeroed += zero_non_finite(contrib);
                                merge_contribution(acc, contrib);
                                if micro_loss.is_finite() {
                                    loss += micro_loss;
                                } else {
                                    zeroed += 1;
                                }
                            }
                        }
                    }
                    // The upstream stage still needs dx to make progress;
                    // under a lenient policy it will detect and handle
                    // the poison in its own contribution.
                    if let (Some(txs), Some(prev_rows)) = (&self.tx_b, &self.prev_rows) {
                        let dx_bytes = tensor_bytes(&dx);
                        let ts = self.now_ns();
                        self.send_with_fault(
                            fault,
                            txs,
                            prev_rows,
                            u,
                            Payload::Give(dx),
                            idx,
                            pool,
                        )?;
                        self.rec(SpanKind::CommSend, u, dx_bytes, ts, self.now_ns());
                    } else {
                        // First stage: dx is unused, but its shape equals
                        // the first stage's input slices — recycle it.
                        pool.put(dx);
                    }
                }
            }
        }
        self.shutdown(&buf_f, &buf_b)?;
        Ok(WorkerOut {
            loss,
            skipped,
            zeroed,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
        })
    }

    /// Structured shutdown: drop this worker's senders *first* (so peers
    /// draining their own receivers see a prompt disconnect rather than a
    /// timeout), then verify nothing unexpected is left — a buffered or
    /// trailing message at this point means a peer sent more than the
    /// schedule allows (e.g. an injected duplicate).
    fn shutdown(
        &mut self,
        buf_f: &HashMap<usize, Vec<Msg>>,
        buf_b: &HashMap<usize, Vec<Msg>>,
    ) -> Result<()> {
        self.tx_f = None;
        self.tx_b = None;
        for (side, buf) in [("forward", buf_f), ("backward", buf_b)] {
            if let Some((micro, parts)) = buf.iter().find(|(_, parts)| !parts.is_empty()) {
                return Err(DappleError::ChannelProtocol {
                    stage: self.stage,
                    replica: self.replica,
                    detail: format!(
                        "{} rows of micro-batch {micro} left over on the {side} channel \
                         after the schedule completed",
                        parts.iter().map(|p| p.data.rows).sum::<usize>()
                    ),
                });
            }
        }
        for (side, rx) in [("forward", &self.rx_f), ("backward", &self.rx_b)] {
            let Some(rx) = rx else { continue };
            match rx.recv_timeout(self.recv_timeout) {
                Ok(msg) => {
                    return Err(DappleError::ChannelProtocol {
                        stage: self.stage,
                        replica: self.replica,
                        detail: format!(
                            "trailing message (micro-batch {}, {} rows) on the {side} \
                             channel after the schedule completed",
                            msg.micro, msg.data.rows
                        ),
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {}
                Err(RecvTimeoutError::Timeout) => {
                    // A peer still holds a sender long past schedule
                    // completion: it is stuck.
                    return Err(DappleError::Stalled {
                        stage: self.stage,
                        replica: self.replica,
                        step: self.script.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Sends the row overlaps of a step's output, applying an injected
    /// drop (swallow) or duplicate (send twice) fault.
    #[allow(clippy::too_many_arguments)] // the full routing context of one send
    fn send_with_fault(
        &self,
        fault: Option<FaultKind>,
        txs: &[Sender<Msg>],
        peer_rows: &[Range<usize>],
        micro: usize,
        payload: Payload<'_>,
        idx: usize,
        pool: &mut TensorPool,
    ) -> Result<()> {
        match fault {
            Some(FaultKind::DropMessage) => {
                if let Payload::Give(t) = payload {
                    pool.put(t);
                }
                Ok(())
            }
            Some(FaultKind::DuplicateMessage) => {
                self.send_overlaps(
                    txs,
                    peer_rows,
                    micro,
                    Payload::Keep(payload.tensor()),
                    idx,
                    pool,
                )?;
                self.send_overlaps(txs, peer_rows, micro, payload, idx, pool)
            }
            _ => self.send_overlaps(txs, peer_rows, micro, payload, idx, pool),
        }
    }

    /// Sends the row overlap between `my_rows` and each peer's rows.
    ///
    /// A [`Payload::Give`] tensor whose single overlap covers all of its
    /// rows (equal replication on both sides of the boundary) is moved
    /// into the message — no split copy at all. Otherwise each overlap
    /// is copied into a pooled buffer; in steady-state 1F1B every such
    /// buffer is a recycled one, so the send path performs zero heap
    /// allocations.
    fn send_overlaps(
        &self,
        txs: &[Sender<Msg>],
        peer_rows: &[Range<usize>],
        micro: usize,
        payload: Payload<'_>,
        idx: usize,
        pool: &mut TensorPool,
    ) -> Result<()> {
        match payload {
            Payload::Give(t) => {
                if let Some((q, row0)) = self.single_full_peer(peer_rows, t.rows) {
                    return txs[q]
                        .send(Msg {
                            micro,
                            row0,
                            data: t,
                        })
                        .map_err(|_| DappleError::ChannelClosed {
                            stage: self.stage,
                            replica: self.replica,
                            step: idx,
                        });
                }
                self.copy_send(txs, peer_rows, micro, &t, idx, pool)?;
                pool.put(t);
                Ok(())
            }
            Payload::Keep(t) => self.copy_send(txs, peer_rows, micro, t, idx, pool),
        }
    }

    /// The peer index and absolute start row when exactly one peer
    /// overlaps `my_rows` and that overlap covers all `rows` of the
    /// outgoing tensor.
    fn single_full_peer(&self, peer_rows: &[Range<usize>], rows: usize) -> Option<(usize, usize)> {
        let mut found: Option<(usize, usize, usize)> = None;
        for (q, peer) in peer_rows.iter().enumerate() {
            let lo = self.my_rows.start.max(peer.start);
            let hi = self.my_rows.end.min(peer.end);
            if lo < hi {
                if found.is_some() {
                    return None;
                }
                found = Some((q, lo, hi));
            }
        }
        match found {
            Some((q, lo, hi)) if hi - lo == rows => Some((q, lo)),
            _ => None,
        }
    }

    /// Copies each peer's overlap into a pooled buffer and sends it.
    fn copy_send(
        &self,
        txs: &[Sender<Msg>],
        peer_rows: &[Range<usize>],
        micro: usize,
        data: &Tensor,
        idx: usize,
        pool: &mut TensorPool,
    ) -> Result<()> {
        for (tx, peer) in txs.iter().zip(peer_rows) {
            let lo = self.my_rows.start.max(peer.start);
            let hi = self.my_rows.end.min(peer.end);
            if lo >= hi {
                continue;
            }
            // Convert to local row indices within `data`.
            let local = (lo - self.my_rows.start)..(hi - self.my_rows.start);
            let mut part = pool.take(local.len(), data.cols);
            copy_rows_into(data, local, &mut part);
            tx.send(Msg {
                micro,
                row0: lo,
                data: part,
            })
            .map_err(|_| DappleError::ChannelClosed {
                stage: self.stage,
                replica: self.replica,
                step: idx,
            })?;
        }
        Ok(())
    }

    /// Receives parts until rows `my_rows` of micro-batch `micro` are
    /// covered, then assembles them in row order. Every wait is bounded
    /// by the shared deadline `recv_timeout` from entry.
    fn recv_rows(
        &self,
        side: RxSide,
        buf: &mut HashMap<usize, Vec<Msg>>,
        micro: usize,
        idx: usize,
        pool: &mut TensorPool,
    ) -> Result<Tensor> {
        let rx = match side {
            RxSide::Forward => self.rx_f.as_ref().expect("fwd channel"),
            RxSide::Backward => self.rx_b.as_ref().expect("bwd channel"),
        };
        let want = self.my_rows.len();
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let have: usize = buf
                .get(&micro)
                .map(|parts| parts.iter().map(|p| p.data.rows).sum())
                .unwrap_or(0);
            if have == want {
                let mut parts = buf.remove(&micro).expect("parts present");
                if parts.len() == 1 {
                    // One part covering everything (equal replication):
                    // take it as-is, no concat copy.
                    return Ok(parts.pop().expect("one part").data);
                }
                parts.sort_by_key(|p| p.row0);
                let cols = parts[0].data.cols;
                let mut out = pool.take(want, cols);
                let mut r0 = 0usize;
                for p in parts {
                    debug_assert_eq!(p.data.cols, cols, "part width mismatch");
                    out.data[r0 * cols..(r0 + p.data.rows) * cols].copy_from_slice(&p.data.data);
                    r0 += p.data.rows;
                    // Spent parts restock the pool: the reverse direction
                    // crosses this boundary with the same part shapes.
                    pool.put(p.data);
                }
                return Ok(out);
            }
            if have > want {
                return Err(DappleError::ChannelProtocol {
                    stage: self.stage,
                    replica: self.replica,
                    detail: format!("micro-batch {micro} received {have} rows, expected {want}"),
                });
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(msg) => buf.entry(msg.micro).or_default().push(msg),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(DappleError::Stalled {
                        stage: self.stage,
                        replica: self.replica,
                        step: idx,
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DappleError::ChannelClosed {
                        stage: self.stage,
                        replica: self.replica,
                        step: idx,
                    });
                }
            }
        }
    }
}

/// Which boundary channel a receive targets.
#[derive(Clone, Copy)]
enum RxSide {
    Forward,
    Backward,
}

/// Forward through a stage's layers; fills `ys` (an empty, possibly
/// recycled Vec — even the chain's spine allocates only during warmup)
/// with the per-layer output chain.
fn forward_stage(layers: &[Dense], input: &Tensor, ys: &mut Vec<Tensor>, pool: &mut TensorPool) {
    debug_assert!(ys.is_empty(), "recycled chain must be drained");
    ys.reserve(layers.len());
    for (i, layer) in layers.iter().enumerate() {
        let x = if i == 0 { input } else { &ys[i - 1] };
        // With reuse on, the per-layer outputs come from the pool (the
        // backward pass retires the whole chain, so steady-state forwards
        // allocate nothing); with reuse off this is exactly the seed
        // allocate-per-tensor path.
        let y = if pool.reuses() {
            let mut y = pool.take(x.rows, layer.out_dim());
            layer.forward_into(x, &mut y);
            y
        } else {
            layer.forward(x)
        };
        ys.push(y);
    }
}

/// Backward through a stage's layers.
///
/// Per-layer parameter gradients are written into `contrib` (slot
/// scratch, fully overwritten — dW/db allocate nothing per call), and
/// `pack` is the `dx` kernels' transpose scratch. Returns
/// `(dx, spent_gy)`, where `spent_gy` is the (destroyed) buffer `gy`
/// arrived in, handed back so the caller can recycle it — it has
/// exactly the shape of this worker's outgoing boundary messages.
fn backward_stage(
    layers: &[Dense],
    input: &Tensor,
    ys: &[Tensor],
    gy: Tensor,
    contrib: &mut [DenseGrads],
    pack: &mut Vec<f32>,
    pool: &mut TensorPool,
) -> (Tensor, Tensor) {
    assert_eq!(ys.len(), layers.len(), "output chain length");
    assert_eq!(contrib.len(), layers.len(), "grad scratch length");
    let mut spent: Option<Tensor> = None;
    let mut cur = gy;
    for i in (0..layers.len()).rev() {
        let x = if i == 0 { input } else { &ys[i - 1] };
        // With reuse on, `dx` comes from the pool without zeroing (the
        // kernel overwrites every element); with reuse off it is a fresh
        // allocation, as in the seed path.
        let mut dx = if pool.reuses() {
            pool.take(cur.rows, layers[i].in_dim())
        } else {
            Tensor::zeros(cur.rows, layers[i].in_dim())
        };
        layers[i].backward_grads_into(x, &ys[i], &mut cur, &mut dx, &mut contrib[i], pack);
        let used = std::mem::replace(&mut cur, dx);
        if spent.is_none() {
            // The buffer `gy` arrived in: handed back to the caller, whose
            // boundary sends have exactly this shape.
            spent = Some(used);
        } else {
            // Intermediate upstream gradients are spent scratch.
            pool.put(used);
        }
    }
    (cur, spent.expect("non-empty stage"))
}

/// Everything one stage-replica worker keeps across steps; see
/// [`PipelineTrainer`]'s `slots`.
struct WorkerSlot {
    /// Boundary and compute buffer free lists.
    pool: TensorPool,
    /// The step's gradient accumulator over micro-batches, shaped like
    /// the stage's layers and zeroed in place at step start.
    acc: Vec<DenseGrads>,
    /// One micro-batch's gradient contribution (overwritten per backward).
    contrib: Vec<DenseGrads>,
    /// Transpose scratch of the backward `dx = dz W^T` kernels.
    pack: Vec<f32>,
}

impl WorkerSlot {
    /// An empty slot; the first step shapes its gradient buffers.
    fn new(buffer_reuse: bool) -> Self {
        WorkerSlot {
            pool: TensorPool::new(buffer_reuse),
            acc: Vec::new(),
            contrib: Vec::new(),
            pack: Vec::new(),
        }
    }
}

/// Locks a trainer-owned mutex, clearing poison: a worker that panics
/// (an injected fault) poisons its slot, and the next step repairs the
/// slot before using it; the spare gradients are only ever replaced
/// whole.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A placeholder gradient entry: no storage, shaped like no layer.
fn empty_grads() -> DenseGrads {
    DenseGrads {
        dw: Tensor::zeros(0, 0),
        db: Vec::new(),
    }
}

/// Makes `g` gradients shaped like `layer`: reused when it already has
/// that shape (zeroed in place when `zero` is set), allocated otherwise —
/// on the first step, or for storage handed out and not given back.
fn fit_grads(g: &mut DenseGrads, layer: &Dense, zero: bool) {
    if (g.dw.rows, g.dw.cols, g.db.len()) != (layer.w.rows, layer.w.cols, layer.b.len()) {
        *g = DenseGrads::zeros_like(layer);
    } else if zero {
        g.dw.data.fill(0.0);
        g.db.fill(0.0);
    }
}

/// [`fit_grads`] over a whole stage.
fn shape_grads(grads: &mut Vec<DenseGrads>, layers: &[Dense], zero: bool) {
    grads.resize_with(layers.len(), empty_grads);
    for (g, layer) in grads.iter_mut().zip(layers) {
        fit_grads(g, layer, zero);
    }
}

/// Sums the replicas' accumulators `accs[q]` (each shaped like `out`)
/// into `out`, bit-identical to [`dapple_collectives::allreduce_sum`] over
/// their flattened copies; returns the flattened length.
///
/// The flat vector is the layers' `dW` then `db`, layer after layer (the
/// layout of [`DenseGrads::to_flat`], concatenated). Every element of
/// ring chunk `c` is the ring's left fold `x_c + x_(c+1) + ... +
/// x_(c+r-1)` (replicas mod `r`), each addition spelled `x_q + partial`
/// exactly as the ring's receiving rank computes it. Chunks may straddle
/// segment edges and be empty (fewer elements than replicas).
fn reduce_replicas_into(accs: &[&[DenseGrads]], out: &mut [DenseGrads]) -> usize {
    let r = accs.len();
    let len: usize = out.iter().map(|g| g.dw.data.len() + g.db.len()).sum();
    let chunks = dapple_collectives::chunk_bounds(len, r);
    let mut offset = 0usize;
    for (l, g) in out.iter_mut().enumerate() {
        for (is_bias, dst) in [(false, &mut g.dw.data[..]), (true, &mut g.db[..])] {
            let seg = offset..offset + dst.len();
            for (c, chunk) in chunks.iter().enumerate() {
                let (lo, hi) = (chunk.start.max(seg.start), chunk.end.min(seg.end));
                if lo >= hi {
                    continue;
                }
                let part = lo - offset..hi - offset;
                let src = |q: usize| {
                    let g = &accs[(c + q) % r][l];
                    if is_bias {
                        &g.db[part.clone()]
                    } else {
                        &g.dw.data[part.clone()]
                    }
                };
                let d = &mut dst[part.clone()];
                d.copy_from_slice(src(0));
                for q in 1..r {
                    for (d, x) in d.iter_mut().zip(src(q)) {
                        // The ring's operand order: NaN payloads propagate
                        // from the first operand.
                        #[allow(clippy::assign_op_pattern)]
                        {
                            *d = *x + *d;
                        }
                    }
                }
            }
            offset = seg.end;
        }
    }
    len
}

/// Adds a micro-batch's contribution into the running accumulator.
fn merge_contribution(grads: &mut [DenseGrads], contrib: &[DenseGrads]) {
    for (g, c) in grads.iter_mut().zip(contrib) {
        g.accumulate(c);
    }
}

/// Number of NaN/Inf values across a gradient contribution.
fn count_non_finite(contrib: &[DenseGrads]) -> usize {
    contrib
        .iter()
        .map(|g| {
            g.dw.data.iter().filter(|v| !v.is_finite()).count()
                + g.db.iter().filter(|v| !v.is_finite()).count()
        })
        .sum()
}

/// Replaces NaN/Inf values with zero, returning how many were replaced.
fn zero_non_finite(contrib: &mut [DenseGrads]) -> usize {
    let mut zeroed = 0usize;
    for g in contrib {
        for v in g.dw.data.iter_mut().chain(g.db.iter_mut()) {
            if !v.is_finite() {
                *v = 0.0;
                zeroed += 1;
            }
        }
    }
    zeroed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use dapple_sim::{KPolicy, Schedule};

    fn grads_close(a: &[DenseGrads], b: &[DenseGrads], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for (p, q) in x.dw.data.iter().zip(&y.dw.data) {
                assert!(
                    (p - q).abs() <= tol * p.abs().max(1e-3),
                    "layer {i} dw: {p} vs {q}"
                );
            }
            for (p, q) in x.db.iter().zip(&y.db) {
                assert!(
                    (p - q).abs() <= tol * p.abs().max(1e-3),
                    "layer {i} db: {p} vs {q}"
                );
            }
        }
    }

    fn model6() -> MlpModel {
        MlpModel::new(&[5, 12, 10, 8, 8, 4, 3], 77)
    }

    /// Pipelined gradients equal sequential full-batch gradients — the
    /// paper's synchronous-equivalence claim — for every schedule and
    /// re-computation setting on a straight 3-stage pipeline.
    #[test]
    fn straight_pipeline_matches_reference() {
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let (ref_loss, ref_grads) = model.reference_grads(&x, &t, 4);
        for schedule in [
            Schedule::GPipe,
            Schedule::Dapple(KPolicy::PA),
            Schedule::Dapple(KPolicy::PB),
        ] {
            for recompute in [false, true] {
                let cfg = EngineConfig {
                    stage_bounds: vec![0..2, 2..4, 4..6],
                    replication: vec![1, 1, 1],
                    schedule,
                    micro_batches: 4,
                    recompute,
                    lr: 0.1,
                    max_in_flight: usize::MAX,
                    loss: LossKind::Mse,
                    recv_timeout: Duration::from_secs(5),
                    nan_policy: NanPolicy::AbortStep,
                    buffer_reuse: true,
                    tracing: false,
                };
                let trainer = PipelineTrainer::new(model.clone(), cfg).unwrap();
                let (loss, grads) = trainer.step_grads(&x, &t).unwrap();
                assert!(
                    (loss - ref_loss).abs() < 1e-5 * ref_loss.max(1e-3),
                    "{schedule} rc={recompute}: loss {loss} vs {ref_loss}"
                );
                grads_close(&grads, &ref_grads, 1e-4);
            }
        }
    }

    /// Replicated stages (hybrid plan) still produce reference gradients:
    /// the micro-batch is split by rows, gradients ring-allreduced.
    #[test]
    fn replicated_stages_match_reference() {
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 10);
        let (_, ref_grads) = model.reference_grads(&x, &t, 3);
        let cfg = EngineConfig {
            stage_bounds: vec![0..3, 3..6],
            replication: vec![4, 2],
            schedule: Schedule::Dapple(KPolicy::PA),
            micro_batches: 3,
            recompute: false,
            lr: 0.1,
            max_in_flight: usize::MAX,
            loss: LossKind::Mse,
            recv_timeout: Duration::from_secs(5),
            nan_policy: NanPolicy::AbortStep,
            buffer_reuse: true,
            tracing: false,
        };
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (_, grads) = trainer.step_grads(&x, &t).unwrap();
        grads_close(&grads, &ref_grads, 2e-4);
    }

    /// Uneven replication across adjacent stages exercises many-to-many
    /// split/concat (Fig. 9d).
    #[test]
    fn many_to_many_split_concat() {
        let model = model6();
        let (x, t) = data::regression_batch(36, 5, 3, 11);
        let (_, ref_grads) = model.reference_grads(&x, &t, 3);
        for (r1, r2) in [(3usize, 2usize), (2, 3), (1, 4), (6, 1)] {
            let cfg = EngineConfig {
                stage_bounds: vec![0..3, 3..6],
                replication: vec![r1, r2],
                schedule: Schedule::Dapple(KPolicy::PB),
                micro_batches: 3,
                recompute: true,
                lr: 0.1,
                max_in_flight: usize::MAX,
                loss: LossKind::Mse,
                recv_timeout: Duration::from_secs(5),
                nan_policy: NanPolicy::AbortStep,
                buffer_reuse: true,
                tracing: false,
            };
            let trainer = PipelineTrainer::new(model.clone(), cfg).unwrap();
            let (_, grads) = trainer.step_grads(&x, &t).unwrap();
            grads_close(&grads, &ref_grads, 2e-4);
        }
    }

    /// Pipelined training converges identically to sequential training.
    #[test]
    fn training_trajectory_matches_sequential() {
        let (x, t) = data::regression_batch(32, 5, 3, 12);
        let mut seq = model6();
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.2);
        let mut pipe = PipelineTrainer::new(model6(), cfg).unwrap();
        let mut first = None;
        let mut last = (0.0, 0.0);
        for _ in 0..100 {
            let sl = seq.reference_step(&x, &t, 4, 0.2).loss;
            let pl = pipe.train_step(&x, &t).unwrap().loss;
            first.get_or_insert((sl, pl));
            last = (sl, pl);
            assert!(
                (sl - pl).abs() < 1e-3 * sl.max(1e-3),
                "diverged: seq {sl} vs pipe {pl}"
            );
        }
        let (f, _) = first.unwrap();
        assert!(
            last.0 < f * 0.6,
            "training must reduce loss: {f} -> {}",
            last.0
        );
    }

    /// A bounded in-flight budget (small D) still yields correct results.
    #[test]
    fn memory_bounded_schedule_is_correct() {
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 13);
        let (_, ref_grads) = model.reference_grads(&x, &t, 8);
        let cfg = EngineConfig {
            stage_bounds: vec![0..3, 3..6],
            replication: vec![1, 1],
            schedule: Schedule::Dapple(KPolicy::PB),
            micro_batches: 8,
            recompute: false,
            lr: 0.1,
            max_in_flight: 1,
            loss: LossKind::Mse,
            recv_timeout: Duration::from_secs(5),
            nan_policy: NanPolicy::AbortStep,
            buffer_reuse: true,
            tracing: false,
        };
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (_, grads) = trainer.step_grads(&x, &t).unwrap();
        grads_close(&grads, &ref_grads, 1e-4);
    }

    #[test]
    fn config_validation() {
        let model = model6();
        // Gap in stage bounds.
        let bad = EngineConfig::straight(vec![0..2, 3..6], 2, 0.1);
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Incomplete cover.
        let bad = EngineConfig::straight(vec![0..2, 2..5], 2, 0.1);
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Zero replicas.
        #[allow(clippy::single_range_in_vec_init)] // one stage covering 0..6
        let mut bad = EngineConfig::straight(vec![0..6], 2, 0.1);
        bad.replication = vec![0];
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Zero receive timeout would make every wait fail immediately.
        let mut bad = EngineConfig::straight(vec![0..2, 2..4, 4..6], 2, 0.1);
        bad.recv_timeout = Duration::ZERO;
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Batch not divisible by micro-batches.
        #[allow(clippy::single_range_in_vec_init)] // one stage covering 0..6
        let cfg = EngineConfig::straight(vec![0..6], 5, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 1);
        assert!(trainer.step_grads(&x, &t).is_err());
    }

    /// Softmax cross-entropy through the pipeline matches the sequential
    /// reference, and pipelined classification training reduces the loss.
    #[test]
    fn softmax_pipeline_matches_reference_and_trains() {
        use crate::loss::LossKind;
        let dims = [6usize, 16, 16, 12, 8, 6, 4];
        let model = MlpModel::new(&dims, 21);
        // One-hot classification targets from a deterministic rule.
        let (x, _) = data::regression_batch(24, 6, 4, 31);
        let mut t = crate::tensor::Tensor::zeros(24, 4);
        for r in 0..24 {
            let c = (x.row(r)[0].abs() * 37.0) as usize % 4;
            t.data[r * 4 + c] = 1.0;
        }
        let (ref_loss, ref_grads) = model.reference_grads_loss(&x, &t, 4, LossKind::SoftmaxXent);
        let cfg = EngineConfig {
            stage_bounds: vec![0..2, 2..4, 4..6],
            replication: vec![2, 1, 1],
            schedule: Schedule::Dapple(KPolicy::PB),
            micro_batches: 4,
            recompute: false,
            lr: 0.5,
            max_in_flight: usize::MAX,
            loss: LossKind::SoftmaxXent,
            recv_timeout: Duration::from_secs(5),
            nan_policy: NanPolicy::AbortStep,
            buffer_reuse: true,
            tracing: false,
        };
        let mut trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (loss, grads) = trainer.step_grads(&x, &t).unwrap();
        assert!((loss - ref_loss).abs() < 1e-4 * ref_loss.max(1e-3));
        grads_close(&grads, &ref_grads, 2e-4);
        // And training actually learns the labels.
        let first = trainer.train_step(&x, &t).unwrap().loss;
        let mut last = first;
        for _ in 0..300 {
            last = trainer.train_step(&x, &t).unwrap().loss;
        }
        assert!(last < 0.6 * first, "{first} -> {last}");
    }

    /// Adam through the pipeline: train_step_with drives the optimizer on
    /// pipeline gradients and converges faster than plain SGD here.
    #[test]
    fn pipeline_with_adam_optimizer() {
        use crate::optim::Optimizer;
        let dims = [5usize, 16, 16, 3];
        let (x, t) = data::regression_batch(32, 5, 3, 17);
        let cfg = EngineConfig::straight(vec![0..1, 1..3], 4, 0.05);
        let mut sgd_pipe = PipelineTrainer::new(MlpModel::new(&dims, 5), cfg.clone()).unwrap();
        let mut adam_pipe = PipelineTrainer::new(MlpModel::new(&dims, 5), cfg).unwrap();
        let mut adam = Optimizer::adam(0.02, &adam_pipe.model);
        let mut sgd_last = 0.0;
        let mut adam_last = 0.0;
        for _ in 0..60 {
            sgd_last = sgd_pipe.train_step(&x, &t).unwrap().loss;
            adam_last = adam_pipe.train_step_with(&x, &t, &mut adam).unwrap().loss;
        }
        assert!(adam_last < sgd_last, "adam {adam_last} vs sgd {sgd_last}");
    }

    /// A genuine worker bug (here: a shape fault in the loss computation)
    /// must surface as a structured `WorkerPanicked` error — not a panic
    /// in the coordinator, and never a hang.
    #[test]
    fn worker_fault_is_reported_not_propagated() {
        // Last stage's layer output width (3) will not match the target
        // width (2), so its loss computation asserts during Bw(0) while
        // other workers are mid-schedule.
        let model = model6();
        let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        cfg.recv_timeout = Duration::from_millis(500);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, _) = data::regression_batch(24, 5, 3, 9);
        let bad_t = crate::tensor::Tensor::zeros(24, 2);
        match trainer.step_grads(&x, &bad_t) {
            Err(DappleError::WorkerPanicked { stage, .. }) => assert_eq!(stage, 2),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    /// An injected panic is reported with its payload and coordinates,
    /// and the trainer remains usable for a clean step afterwards.
    #[test]
    fn injected_panic_is_structured_and_recoverable() {
        let model = model6();
        let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        cfg.recv_timeout = Duration::from_millis(500);
        let mut trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let plan = FaultPlan::new().with_fault(1, 0, 2, FaultKind::Panic);
        match trainer.step_grads_with_faults(&x, &t, &plan) {
            Err(DappleError::WorkerPanicked {
                stage,
                replica,
                message,
            }) => {
                assert_eq!((stage, replica), (1, 0));
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The model was not touched; a clean step still works.
        trainer.train_step(&x, &t).unwrap();
    }

    /// An empty fault plan goes through the identical code path and
    /// produces bit-identical results to the plain entry point.
    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let model = model6();
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let (loss_a, grads_a) = trainer.step_grads(&x, &t).unwrap();
        let out = trainer
            .step_grads_with_faults(&x, &t, &FaultPlan::new())
            .unwrap();
        assert_eq!(loss_a.to_bits(), out.loss.to_bits());
        assert_eq!(out.skipped_micro_batches, 0);
        assert_eq!(out.zeroed_values, 0);
        for (a, b) in grads_a.iter().zip(&out.grads) {
            let (fa, fb) = (a.to_flat(), b.to_flat());
            assert!(fa.iter().zip(&fb).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    /// Regression for the matmul zero-skip bug: NaN weights combined
    /// with all-zero activations used to produce finite (silently wrong)
    /// gradients, because `0 * NaN` was skipped instead of evaluated.
    /// The poison must propagate through the pipeline and trip the
    /// per-micro-batch gradient check as a structured NonFinite error.
    #[test]
    fn nan_weights_reach_gradient_check_through_zero_activations() {
        let mut model = model6();
        // Poison one weight in stage 1. With an all-zero input batch,
        // every activation entering stage 1 is exactly 0.0, so the only
        // way the poison can surface is through 0 * NaN = NaN.
        model.layers[2].w.data[0] = f32::NAN;
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let x = Tensor::zeros(24, 5);
        let t = Tensor::zeros(24, 3);
        match trainer.step_grads(&x, &t) {
            Err(DappleError::NonFinite { stage, .. }) => {
                assert!(stage >= 1, "poison detected upstream of injection: {stage}")
            }
            other => panic!("NaN must reach the gradient check, got {other:?}"),
        }
    }

    /// Micro-batch slice not divisible by a stage's replication.
    #[test]
    fn uneven_replica_splits_match_reference() {
        // mb = 6 rows over r = 5 replicas: rows split 2,1,1,1,1. The
        // gradients must still equal the sequential reference (every row
        // processed exactly once; accumulation order is row-major).
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 2);
        let (_, ref_grads) = model.reference_grads(&x, &t, 4);
        let cfg = EngineConfig {
            stage_bounds: vec![0..3, 3..6],
            replication: vec![5, 1],
            schedule: Schedule::GPipe,
            micro_batches: 4,
            recompute: false,
            lr: 0.1,
            max_in_flight: usize::MAX,
            loss: LossKind::Mse,
            recv_timeout: Duration::from_secs(5),
            nan_policy: NanPolicy::AbortStep,
            buffer_reuse: true,
            tracing: false,
        };
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (_, grads) = trainer.step_grads(&x, &t).unwrap();
        grads_close(&grads, &ref_grads, 2e-4);
    }

    /// The replica fold equals the reference ring AllReduce over the
    /// flattened accumulators bit for bit, for 2..=5 replicas: with fewer
    /// elements than replicas (empty chunks), and with chunk bounds
    /// falling inside weight and bias segments and on their edges.
    #[test]
    fn replica_fold_matches_ring_allreduce_bit_for_bit() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mixed magnitudes, so a changed summation order shows.
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * (1 << (state % 13)) as f32
        };
        // Layer (in, out) shapes: each contributes in*out weights then
        // out biases to the flat vector.
        let layouts: [&[(usize, usize)]; 5] = [
            &[(1, 1)],                 // 2 elements: below r for r > 2
            &[(1, 2), (1, 1)],         // 5 elements
            &[(3, 4), (4, 1), (1, 3)], // 27 elements, many segment edges
            &[(7, 5), (5, 5)],
            &[(16, 9), (9, 3)],
        ];
        for r in 2..=5usize {
            for layout in layouts {
                let grads = |next: &mut dyn FnMut() -> f32| -> Vec<DenseGrads> {
                    layout
                        .iter()
                        .map(|&(i, o)| DenseGrads {
                            dw: Tensor::from_vec(i, o, (0..i * o).map(|_| next()).collect()),
                            db: (0..o).map(|_| next()).collect(),
                        })
                        .collect()
                };
                let accs: Vec<Vec<DenseGrads>> = (0..r).map(|_| grads(&mut next)).collect();
                let mut flats: Vec<Vec<f32>> = accs
                    .iter()
                    .map(|a| a.iter().flat_map(DenseGrads::to_flat).collect())
                    .collect();
                dapple_collectives::allreduce_sum(&mut flats);
                // Start from garbage: the fold must overwrite every value.
                let mut out = grads(&mut next);
                let views: Vec<&[DenseGrads]> = accs.iter().map(|a| &a[..]).collect();
                let len = reduce_replicas_into(&views, &mut out);
                let got: Vec<u32> = out
                    .iter()
                    .flat_map(DenseGrads::to_flat)
                    .map(f32::to_bits)
                    .collect();
                let want: Vec<u32> = flats[0].iter().map(|v| v.to_bits()).collect();
                assert_eq!(len, want.len());
                assert_eq!(got, want, "r={r} layout={layout:?}");
            }
        }
    }

    /// Output storage handed back through `recycle_grads` changes no
    /// bits: swapped (unreplicated) and folded (replicated) stages give
    /// the same gradients step after step as on a fresh first step.
    #[test]
    fn recycled_steps_are_bit_identical() {
        let (x, t) = data::regression_batch(24, 5, 3, 4);
        for replication in [vec![3, 2], vec![1, 3], vec![2, 1]] {
            let cfg = EngineConfig {
                stage_bounds: vec![0..3, 3..6],
                replication,
                ..EngineConfig::straight(vec![], 2, 0.1)
            };
            let trainer = PipelineTrainer::new(model6(), cfg).unwrap();
            let (_, first) = trainer.step_grads(&x, &t).unwrap();
            let bits = |g: &[DenseGrads]| -> Vec<u32> {
                g.iter()
                    .flat_map(DenseGrads::to_flat)
                    .map(f32::to_bits)
                    .collect()
            };
            for _ in 0..3 {
                let (_, grads) = trainer.step_grads(&x, &t).unwrap();
                assert_eq!(bits(&grads), bits(&first));
                trainer.recycle_grads(grads);
            }
        }
    }

    #[test]
    fn replication_beyond_micro_batch_rows_is_rejected() {
        // A replica with zero rows would contribute nothing and receive
        // nothing: r > mb stays a configuration error.
        let model = model6();
        let cfg = EngineConfig {
            stage_bounds: vec![0..3, 3..6],
            replication: vec![7, 1],
            schedule: Schedule::GPipe,
            micro_batches: 4,
            recompute: false,
            lr: 0.1,
            max_in_flight: usize::MAX,
            loss: LossKind::Mse,
            recv_timeout: Duration::from_secs(5),
            nan_policy: NanPolicy::AbortStep,
            buffer_reuse: true,
            tracing: false,
        };
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 2); // mb = 6 < r = 7
        assert!(trainer.step_grads(&x, &t).is_err());
    }
}
