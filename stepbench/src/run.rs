//! The measured runs: an uninstrumented supervised run for the
//! end-to-end metrics, and a traced run that times every public call a
//! training step is made of.

use crate::alloc::Counts;
use crate::workload::{FaultSchedule, Workload};
use dapple::core::chrome::{chrome_trace_json, ChromeArg, ChromeEvent};
use dapple::engine::{
    DataStream, FaultPlan, MlpModel, Optimizer, PipelineTrainer, RecoveryEventKind, SpanKind,
    StepMetrics, Supervisor,
};
use std::time::{Duration, Instant};

/// When a run stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first operation boundary after this much wall time.
    After(Duration),
    /// After exactly this many operations.
    Ops(u64),
}

impl Stop {
    fn reached(self, ops: u64, elapsed: Duration) -> bool {
        match self {
            Stop::After(d) => elapsed >= d,
            Stop::Ops(n) => ops >= n,
        }
    }
}

/// Operations per throughput round of a workload without restores; a
/// workload with restores uses its restore period, so every round holds
/// the same pattern of work.
const ROUND_OPS: u64 = 10;

/// One supervised step (`Supervisor::step_with`), as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall time of the call, ns.
    pub wall_ns: u64,
    /// Whether its first attempt was made to fail.
    pub faulted: bool,
    /// Training step index the call completed (0-based).
    pub step: u64,
    /// Loss it returned (NaN if it failed).
    pub loss: f32,
}

/// Runs supervised operations in the workload's pattern: the seeded
/// first-attempt faults, and a checkpoint restore every
/// `restore_every` operations standing in for a hard crash.
struct Runner {
    schedule: FaultSchedule,
    restore_every: Option<u64>,
    ops: u64,
    injected: u64,
    errors: Vec<String>,
}

impl Runner {
    fn new(w: &Workload, seed: u64) -> Self {
        Runner {
            schedule: w.fault_schedule(seed),
            restore_every: w.restore_every,
            ops: 0,
            injected: 0,
            errors: Vec::new(),
        }
    }

    fn step(&mut self, sup: &mut Supervisor) -> Op {
        let faults = self.schedule.first_attempt(self.ops);
        let mut injected = false;
        let step = sup.train().step();
        let t0 = Instant::now();
        let result = sup.step_with(&mut |_, attempt| match (&faults, attempt) {
            (Some(plan), 0) => {
                injected = true;
                plan.clone()
            }
            _ => FaultPlan::new(),
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.ops += 1;
        self.injected += u64::from(injected);
        let loss = match result {
            Ok(stats) => stats.loss,
            Err(e) => {
                self.errors.push(format!("operation {}: {e}", self.ops - 1));
                f32::NAN
            }
        };
        Op {
            wall_ns,
            faulted: injected,
            step,
            loss,
        }
    }

    fn restore_due(&self) -> bool {
        self.restore_every
            .is_some_and(|r| self.ops.is_multiple_of(r))
    }
}

/// What an uninstrumented run measured.
pub struct Untraced {
    /// Every operation, in order.
    pub ops: Vec<Op>,
    /// Checkpoint restores.
    pub restores: u64,
    /// Wall time of the whole run, ns.
    pub wall_ns: u64,
    /// Training steps that stuck (re-done steps count once).
    pub committed_steps: u64,
    /// Faults injected.
    pub injected: u64,
    /// Retries the supervisor reported.
    pub retries: u64,
    /// Committed samples per second of each round of operations.
    pub round_rates: Vec<f64>,
    /// Error messages of failed operations and restores.
    pub errors: Vec<String>,
}

/// Runs supervised operations without any instrumentation beyond one
/// clock read around each call.
pub fn untraced(w: &Workload, seed: u64, sup: &mut Supervisor, stop: Stop) -> Untraced {
    let mut d = Runner::new(w, seed);
    let start_step = sup.train().step();
    let retries0 = sup.metrics().retries;
    let mut ops = Vec::new();
    let mut restores = 0;
    let mut round_rates = Vec::new();
    let round_ops = w.restore_every.unwrap_or(ROUND_OPS);
    let t0 = Instant::now();
    let mut round = (t0, start_step);
    while !stop.reached(d.ops, t0.elapsed()) {
        ops.push(d.step(sup));
        if d.restore_due() {
            if let Err(e) = sup.restore_last_checkpoint() {
                d.errors
                    .push(format!("restore after operation {}: {e}", d.ops));
            }
            restores += 1;
        }
        if d.ops.is_multiple_of(round_ops) {
            let now = (Instant::now(), sup.train().step());
            let secs = now.0.duration_since(round.0).as_secs_f64();
            round_rates.push((now.1 - round.1) as f64 * w.batch as f64 / secs);
            round = now;
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Untraced {
        ops,
        restores,
        wall_ns,
        committed_steps: sup.train().step() - start_step,
        injected: d.injected,
        retries: (sup.metrics().retries - retries0) as u64,
        round_rates,
        errors: d.errors,
    }
}

/// The fault-free twin of the supervised loop, built from the public
/// parts `TrainLoop::try_step` is made of, so each part can be timed
/// from outside: `DataStream::next_batch`, then
/// `PipelineTrainer::step_with_trace`, then `Optimizer::step`.
struct Twin {
    trainer: PipelineTrainer,
    optimizer: Optimizer,
    data: DataStream,
    step: u64,
    /// State at the supervisor's most recent checkpoint.
    saved: Option<(MlpModel, Optimizer, DataStream, u64)>,
}

/// One twin step, timed call by call.
struct TwinStep {
    t0: Instant,
    t_batch: Instant,
    t_call: Instant,
    t_end: Instant,
    loss: f32,
    metrics: StepMetrics,
    allreduce_bytes: u64,
    allreduce_calls: u64,
    pool_hits: usize,
    pool_misses: usize,
}

impl TwinStep {
    fn ns(a: Instant, b: Instant) -> f64 {
        b.duration_since(a).as_nanos() as f64
    }
}

impl Twin {
    fn new(w: &Workload, seed: u64) -> Result<Self, String> {
        let model = w.model(seed);
        let optimizer = w.optimizer(&model);
        let trainer = PipelineTrainer::new(model, w.engine_config(true))
            .map_err(|e| format!("building the twin: {e}"))?;
        Ok(Twin {
            trainer,
            optimizer,
            data: w.data(seed),
            step: 0,
            saved: None,
        })
    }

    fn step(&mut self) -> Result<TwinStep, String> {
        let t0 = Instant::now();
        let (x, t) = self.data.next_batch();
        let t_batch = Instant::now();
        let (result, trace) = self.trainer.step_with_trace(&x, &t, &FaultPlan::new());
        let t_call = Instant::now();
        let out = result.map_err(|e| format!("twin step {}: {e}", self.step))?;
        self.optimizer.step(&mut self.trainer.model, &out.grads);
        let t_end = Instant::now();
        self.step += 1;
        let trace = trace.ok_or("tracing on but the twin step returned no trace")?;
        let allreduce = trace
            .coord
            .iter()
            .filter(|c| c.span.kind == SpanKind::AllReduce);
        let (allreduce_bytes, allreduce_calls) =
            allreduce.fold((0, 0), |(b, n), c| (b + c.span.bytes, n + 1));
        Ok(TwinStep {
            t0,
            t_batch,
            t_call,
            t_end,
            loss: out.loss,
            metrics: trace.metrics(),
            allreduce_bytes,
            allreduce_calls,
            pool_hits: out.pool_hits,
            pool_misses: out.pool_misses,
        })
    }

    fn save(&mut self) {
        self.saved = Some((
            self.trainer.model.clone(),
            self.optimizer.clone(),
            self.data.clone(),
            self.step,
        ));
    }

    fn restore(&mut self) -> Result<(), String> {
        let (model, optimizer, data, step) =
            self.saved.as_ref().ok_or("restore before any checkpoint")?;
        self.trainer.model.clone_from(model);
        self.optimizer.clone_from(optimizer);
        self.data.clone_from(data);
        self.step = *step;
        Ok(())
    }
}

/// Per-operation samples of the traced run.
#[derive(Default)]
pub struct TracedSamples {
    /// Supervised step wall, ns.
    pub sup_ns: Vec<f64>,
    /// Fault-free twin step wall (first to last call), ns.
    pub twin_ns: Vec<f64>,
    /// `DataStream::next_batch`, ns.
    pub batch_ns: Vec<f64>,
    /// `PipelineTrainer::step_with_trace`, ns.
    pub call_ns: Vec<f64>,
    /// `Optimizer::step`, ns.
    pub optim_ns: Vec<f64>,
    /// Trace makespan, ns.
    pub makespan_ns: Vec<f64>,
    /// Worker compute (forward, backward, recompute), summed, ns.
    pub compute_ns: Vec<f64>,
    /// Worker channel wait, summed, ns.
    pub wait_ns: Vec<f64>,
    /// Worker send time, summed, ns.
    pub send_ns: Vec<f64>,
    /// AllReduce time, summed over stages, ns.
    pub allreduce_ns: Vec<f64>,
    /// AllReduce payload bytes per step.
    pub allreduce_bytes: Vec<f64>,
    /// AllReduce calls per step.
    pub allreduce_calls: Vec<f64>,
    /// Aggregate bubble ratio.
    pub bubble: Vec<f64>,
    /// Busy fraction of stages 0 and 1.
    pub stage_busy: [Vec<f64>; 2],
    /// Buffer-pool hits per step.
    pub pool_hits: Vec<f64>,
    /// Buffer-pool misses per step.
    pub pool_misses: Vec<f64>,
    /// Allocations made by the supervised step.
    pub allocs: Vec<f64>,
    /// Bytes allocated by the supervised step.
    pub alloc_bytes: Vec<f64>,
}

/// Checkpoint saves of one kind, from the supervisor's events.
#[derive(Default)]
pub struct Saves {
    /// Serialization wall time of each save, ns.
    pub ns: Vec<f64>,
    /// Size of each save, bytes.
    pub bytes: Vec<f64>,
}

/// What the traced run measured.
pub struct Traced {
    /// Every supervised operation, in order.
    pub ops: Vec<Op>,
    /// Samples of fault-free operations.
    pub clean: TracedSamples,
    /// Failed-attempt estimates of faulted operations, ns.
    pub failed_attempt_ns: Vec<f64>,
    /// Duration of each rollback, from the supervisor's events, ns.
    pub rollback_ns: Vec<f64>,
    /// Checkpoint restore wall, ns.
    pub restore_ns: Vec<f64>,
    /// Full checkpoint saves.
    pub full_saves: Saves,
    /// Delta checkpoint saves.
    pub delta_saves: Saves,
    /// Faults injected.
    pub injected: u64,
    /// Retries the supervisor reported.
    pub retries: u64,
    /// Chrome trace JSON of every timed public call.
    pub chrome_json: String,
    /// Everything that went wrong, including output-check failures.
    pub errors: Vec<String>,
}

/// Spans of the public calls, for the Chrome trace.
struct Spans {
    epoch: Instant,
    events: Vec<ChromeEvent>,
}

/// Chrome trace rows: the supervised loop and its twin.
const SUP_ROW: usize = 0;
const TWIN_ROW: usize = 1;

impl Spans {
    fn push(&mut self, name: &str, row: usize, a: Instant, b: Instant, parent: &str, step: u64) {
        let us = |t: Instant| t.duration_since(self.epoch).as_nanos() as f64 / 1e3;
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: if row == SUP_ROW { "supervised" } else { "twin" },
            ts_us: us(a),
            dur_us: us(b) - us(a),
            pid: 0,
            tid: row,
            args: vec![
                ("parent", ChromeArg::Str(parent.to_string())),
                ("step", ChromeArg::Int(step)),
            ],
        });
    }
}

/// Runs the supervised loop with tracing on, alongside its fault-free
/// twin, with allocation counting on. `sup` and the twin must both be
/// `workload::WARMUP_STEPS` in, from the same seed; `warmup_losses` are
/// the supervised warm-up losses the twin's must equal.
pub fn traced(
    w: &Workload,
    seed: u64,
    sup: &mut Supervisor,
    warmup_losses: &[f32],
    stop: Stop,
) -> Result<Traced, String> {
    let mut errors = Vec::new();
    let mut twin = Twin::new(w, seed)?;
    // Supervisor events already mirrored onto the twin.
    let mut seen = 0;
    for (i, &loss) in warmup_losses.iter().enumerate() {
        let s = twin.step()?;
        if s.loss.to_bits() != loss.to_bits() {
            errors.push(format!(
                "warm-up step {i}: twin loss {} != supervised {loss}",
                s.loss
            ));
        }
        follow_checkpoints(sup, &mut seen, &mut twin, |_| {}, &mut errors);
    }

    let mut d = Runner::new(w, seed);
    let retries0 = sup.metrics().retries;
    let mut out = Traced {
        ops: Vec::new(),
        clean: TracedSamples::default(),
        failed_attempt_ns: Vec::new(),
        rollback_ns: Vec::new(),
        restore_ns: Vec::new(),
        full_saves: Saves::default(),
        delta_saves: Saves::default(),
        injected: 0,
        retries: 0,
        chrome_json: String::new(),
        errors: Vec::new(),
    };
    let t_run = Instant::now();
    let mut spans = Spans {
        epoch: t_run,
        events: Vec::new(),
    };
    while !stop.reached(d.ops, t_run.elapsed()) {
        let counts0 = Counts::now();
        let t_sup = Instant::now();
        let op = d.step(sup);
        let t_sup_end = Instant::now();
        let allocs = Counts::since(counts0);
        spans.push(
            "Supervisor::step_with",
            SUP_ROW,
            t_sup,
            t_sup_end,
            "run",
            op.step,
        );
        out.ops.push(op);

        // The twin takes the same step; checkpoints the supervisor took
        // at the end of it are mirrored right after.
        let ts = twin.step()?;
        check_twin_step(&op, &twin, &ts, &mut errors);
        let mut op_rollback_ns = 0.0;
        follow_checkpoints(
            sup,
            &mut seen,
            &mut twin,
            |kind| match kind {
                RecoveryEventKind::CheckpointSaved { bytes, ns, delta } => {
                    let saves = if *delta {
                        &mut out.delta_saves
                    } else {
                        &mut out.full_saves
                    };
                    saves.ns.push(*ns as f64);
                    saves.bytes.push(*bytes as f64);
                }
                RecoveryEventKind::Rollback { ns } => {
                    out.rollback_ns.push(*ns as f64);
                    op_rollback_ns += *ns as f64;
                }
                _ => {}
            },
            &mut errors,
        );
        spans.push("twin step", TWIN_ROW, ts.t0, ts.t_end, "run", op.step);
        spans.push(
            "DataStream::next_batch",
            TWIN_ROW,
            ts.t0,
            ts.t_batch,
            "twin step",
            op.step,
        );
        spans.push(
            "PipelineTrainer::step_with_trace",
            TWIN_ROW,
            ts.t_batch,
            ts.t_call,
            "twin step",
            op.step,
        );
        spans.push(
            "Optimizer::step",
            TWIN_ROW,
            ts.t_call,
            ts.t_end,
            "twin step",
            op.step,
        );

        let twin_ns = TwinStep::ns(ts.t0, ts.t_end);
        if op.faulted {
            out.failed_attempt_ns
                .push(op.wall_ns as f64 - twin_ns - op_rollback_ns);
        } else {
            record_clean(&mut out.clean, &op, &ts, allocs);
        }

        if d.restore_due() {
            let t = Instant::now();
            let restored = sup.restore_last_checkpoint();
            let t_end = Instant::now();
            spans.push(
                "Supervisor::restore_last_checkpoint",
                SUP_ROW,
                t,
                t_end,
                "run",
                sup.train().step(),
            );
            out.restore_ns.push(TwinStep::ns(t, t_end));
            match restored {
                Ok(()) => {
                    twin.restore()?;
                    if twin.step != sup.train().step() {
                        errors.push(format!(
                            "restore rewound the supervisor to step {} but the twin to {}",
                            sup.train().step(),
                            twin.step
                        ));
                    }
                }
                Err(e) => errors.push(format!("restore after operation {}: {e}", d.ops)),
            }
            follow_checkpoints(sup, &mut seen, &mut twin, |_| {}, &mut errors);
        }
    }
    out.injected = d.injected;
    out.retries = (sup.metrics().retries - retries0) as u64;
    out.chrome_json = chrome_trace_json(spans.events);
    errors.extend(d.errors);
    out.errors = errors;
    Ok(out)
}

/// Walks the supervisor's events from `seen` on, handing each to
/// `visit`, and snapshots the twin at every checkpoint the supervisor
/// took at the twin's current step.
fn follow_checkpoints(
    sup: &Supervisor,
    seen: &mut usize,
    twin: &mut Twin,
    mut visit: impl FnMut(&RecoveryEventKind),
    errors: &mut Vec<String>,
) {
    for e in &sup.events()[*seen..] {
        if matches!(e.kind, RecoveryEventKind::CheckpointSaved { .. }) {
            if e.step > twin.step {
                // Taken at a step the twin has not reached yet; mirrored
                // on a later call.
                return;
            }
            if e.step == twin.step {
                twin.save();
            } else {
                errors.push(format!(
                    "checkpoint at step {} passed the twin (at step {})",
                    e.step, twin.step
                ));
            }
        }
        visit(&e.kind);
        *seen += 1;
    }
}

/// The twin's loss must equal the supervised loss bit for bit, at the
/// same training step.
fn check_twin_step(op: &Op, twin: &Twin, ts: &TwinStep, errors: &mut Vec<String>) {
    if twin.step != op.step + 1 {
        errors.push(format!(
            "twin at step {} after supervised step {}",
            twin.step, op.step
        ));
    } else if ts.loss.to_bits() != op.loss.to_bits() {
        errors.push(format!(
            "step {}: twin loss {} != supervised loss {}",
            op.step, ts.loss, op.loss
        ));
    }
}

fn record_clean(c: &mut TracedSamples, op: &Op, ts: &TwinStep, allocs: Counts) {
    let m = &ts.metrics;
    c.sup_ns.push(op.wall_ns as f64);
    c.twin_ns.push(TwinStep::ns(ts.t0, ts.t_end));
    c.batch_ns.push(TwinStep::ns(ts.t0, ts.t_batch));
    c.call_ns.push(TwinStep::ns(ts.t_batch, ts.t_call));
    c.optim_ns.push(TwinStep::ns(ts.t_call, ts.t_end));
    c.makespan_ns.push(m.makespan_ns as f64);
    c.compute_ns.push(m.busy_ns() as f64);
    c.wait_ns.push(m.channel_wait_ns() as f64);
    c.send_ns
        .push(m.stages.iter().map(|s| s.send_ns as f64).sum());
    c.allreduce_ns
        .push(m.stages.iter().map(|s| s.allreduce_ns as f64).sum());
    c.allreduce_bytes.push(ts.allreduce_bytes as f64);
    c.allreduce_calls.push(ts.allreduce_calls as f64);
    c.bubble.push(m.bubble_ratio);
    for (i, busy) in c.stage_busy.iter_mut().enumerate() {
        busy.push(m.stages.get(i).map_or(0.0, |s| s.busy_fraction));
    }
    c.pool_hits.push(ts.pool_hits as f64);
    c.pool_misses.push(ts.pool_misses as f64);
    c.allocs.push(allocs.allocs as f64);
    c.alloc_bytes.push(allocs.bytes as f64);
}

/// Checks the first step's pipelined gradients against the
/// single-worker reference (`MlpModel::reference_grads`): bit for bit
/// when no stage is replicated; with replicas, whose AllReduce sums in
/// another order, within the tolerance the repository's own
/// plan-to-engine test uses.
pub fn check_reference_grads(w: &Workload, seed: u64) -> Result<(), String> {
    let model = w.model(seed);
    let (x, t) = w.data(seed).next_batch();
    let (ref_loss, ref_grads) = model.reference_grads(&x, &t, w.micro_batches);
    let trainer = PipelineTrainer::new(model, w.engine_config(false))
        .map_err(|e| format!("building the reference check trainer: {e}"))?;
    let (loss, grads) = trainer
        .step_grads(&x, &t)
        .map_err(|e| format!("pipelined first step: {e}"))?;
    let exact = w.replication.iter().all(|&r| r == 1);
    let agree = |a: f32, b: f32, rel: f32| {
        if exact {
            a.to_bits() == b.to_bits()
        } else {
            (a - b).abs() < rel * a.abs().max(1e-3)
        }
    };
    if !agree(loss, ref_loss, 1e-4) {
        return Err(format!(
            "first-step loss {loss} != single-worker reference {ref_loss}"
        ));
    }
    for (i, (g, r)) in grads.iter().zip(&ref_grads).enumerate() {
        let same = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(&p, &q)| agree(p, q, 2e-4))
        };
        if !same(&g.dw.data, &r.dw.data) || !same(&g.db, &r.db) {
            return Err(format!(
                "first-step gradient of layer {i} differs from the single-worker reference"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    /// One seed, one run: the same faults land on the same operations,
    /// and the loss trajectory repeats bit for bit.
    #[test]
    fn supervised_run_repeats_under_one_seed() {
        let w = workload::by_name("fault_ckpt").expect("fault_ckpt exists");
        let seed = (0..64)
            .find(|&s| (0..12).any(|op| w.fault_schedule(s).first_attempt(op).is_some()))
            .expect("some seed faults within 12 operations");
        let once = || {
            let (mut sup, _) = workload::warmed_up(&w, seed, false).expect("builds");
            let u = untraced(&w, seed, &mut sup, Stop::Ops(12));
            assert!(u.errors.is_empty(), "{:?}", u.errors);
            assert_eq!(u.retries, u.injected);
            let trail: Vec<(u64, bool, u32)> = u
                .ops
                .iter()
                .map(|o| (o.step, o.faulted, o.loss.to_bits()))
                .collect();
            (trail, u.injected)
        };
        let (a, injected) = once();
        assert!(injected > 0);
        assert_eq!(a, once().0);
    }
}
