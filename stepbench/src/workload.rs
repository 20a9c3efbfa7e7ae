//! The three workloads: what each trains, how it is set up, and the
//! seeded fault schedule that drives `fault_ckpt`.

use dapple::cluster::Cluster;
use dapple::engine::{
    DataStream, EngineConfig, FaultKind, FaultPlan, MlpModel, Optimizer, RetryPolicy, Supervisor,
    TrainLoop,
};
use dapple::model::{zoo, ModelSpec};
use dapple::planner::{DapplePlanner, PlannedStrategy, PlannerConfig};
use dapple::profiler::{MemoryModel, ModelProfile};
use std::ops::Range;
use std::time::Instant;

/// Adam learning rate of every workload.
const LR: f32 = 1e-3;
/// Fault-free supervised steps at the end of set-up, before timing.
pub const WARMUP_STEPS: u64 = 3;

/// The paper configuration a workload's set-up plans.
#[derive(Debug, Clone, Copy)]
pub enum PaperConfig {
    /// GNMT-16 on two config-A servers (the paper's `8 : 8` plan).
    Gnmt16OnA2,
    /// ResNet-50 on two config-A servers (data parallel over 16).
    Resnet50OnA2,
    /// BERT-48 on eight config-B servers.
    Bert48OnB8,
}

impl PaperConfig {
    fn spec_and_cluster(self) -> (ModelSpec, Cluster) {
        match self {
            PaperConfig::Gnmt16OnA2 => (zoo::gnmt16(), Cluster::config_a(2)),
            PaperConfig::Resnet50OnA2 => (zoo::resnet50(), Cluster::config_a(2)),
            PaperConfig::Bert48OnB8 => (zoo::bert48(), Cluster::config_b(8)),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// MLP layer widths, input first.
    pub dims: Vec<usize>,
    /// Layer range of each pipeline stage.
    pub stages: Vec<Range<usize>>,
    /// Replicas of each stage.
    pub replication: Vec<usize>,
    /// Micro-batches per step.
    pub micro_batches: usize,
    /// Samples per step.
    pub batch: usize,
    /// Supervisor checkpoint period in steps.
    pub checkpoint_every: Option<u64>,
    /// One step in this many has its first attempt fail.
    pub fault_one_in: Option<u64>,
    /// Operations between simulated hard crashes (checkpoint restores).
    pub restore_every: Option<u64>,
    /// Planned during set-up.
    pub paper: PaperConfig,
}

/// Every workload, in the order `--workload all` runs them.
// `vec![0..4]` is one stage covering layers 0..4, not a range of indices.
#[allow(clippy::single_range_in_vec_init)]
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "pipeline_1f1b",
            dims: mlp(128, 512, 7, 128),
            stages: vec![0..4, 4..8],
            replication: vec![1, 1],
            micro_batches: 8,
            batch: 128,
            checkpoint_every: None,
            fault_one_in: None,
            restore_every: None,
            paper: PaperConfig::Gnmt16OnA2,
        },
        Workload {
            name: "dp_sync",
            dims: mlp(256, 1024, 3, 256),
            stages: vec![0..4],
            replication: vec![2],
            micro_batches: 2,
            batch: 16,
            checkpoint_every: None,
            fault_one_in: None,
            restore_every: None,
            paper: PaperConfig::Resnet50OnA2,
        },
        Workload {
            name: "fault_ckpt",
            dims: mlp(64, 256, 15, 32),
            stages: vec![0..8, 8..16],
            replication: vec![1, 1],
            micro_batches: 4,
            batch: 64,
            checkpoint_every: Some(4),
            fault_one_in: Some(10),
            restore_every: Some(25),
            paper: PaperConfig::Bert48OnB8,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// `input -> hidden x width -> output` layer widths.
fn mlp(input: usize, width: usize, hidden: usize, output: usize) -> Vec<usize> {
    let mut dims = vec![input];
    dims.extend(std::iter::repeat_n(width, hidden));
    dims.push(output);
    dims
}

impl Workload {
    /// The engine configuration executing the fixed MLP partition.
    pub fn engine_config(&self, tracing: bool) -> EngineConfig {
        let mut cfg = EngineConfig::straight(self.stages.clone(), self.micro_batches, LR);
        cfg.replication = self.replication.clone();
        cfg.tracing = tracing;
        cfg
    }

    /// A fresh model; the seed fixes the initial weights.
    pub fn model(&self, seed: u64) -> MlpModel {
        MlpModel::new(&self.dims, seed)
    }

    /// A fresh optimizer for `model`.
    pub fn optimizer(&self, model: &MlpModel) -> Optimizer {
        Optimizer::adam(LR, model)
    }

    /// The training batches; the seed fixes every sample.
    pub fn data(&self, seed: u64) -> DataStream {
        let data_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDA77_1E00;
        let out = *self.dims.last().expect("non-empty dims");
        DataStream::new(data_seed, self.batch, self.dims[0], out)
    }

    /// Forward plus backward FLOPs of one step: the forward and the two
    /// backward products (input and weight gradients) each take two
    /// FLOPs per multiply-add of every layer's weight matrix.
    pub fn step_flops(&self) -> f64 {
        let macs: usize = self.dims.windows(2).map(|d| d[0] * d[1]).sum();
        6.0 * macs as f64 * self.batch as f64
    }

    /// The seeded fault schedule (empty for fault-free workloads).
    pub fn fault_schedule(&self, seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            one_in: self.fault_one_in.unwrap_or(0),
            stages: self.stages.len(),
            micro_batches: self.micro_batches,
        }
    }

    /// Plans the paper configuration with the DAPPLE planner.
    pub fn plan_paper(&self) -> Result<PlannedStrategy, String> {
        let (spec, cluster) = self.paper.spec_and_cluster();
        let profile = ModelProfile::profile(&spec.graph, &cluster.device);
        let memory = MemoryModel::new(spec.optimizer);
        let planned = DapplePlanner::new(
            &profile,
            &cluster,
            memory,
            PlannerConfig::new(spec.global_batch),
        )
        .plan()
        .map_err(|e| format!("planning {:?}: {e}", self.paper))?;
        planned
            .plan
            .validate(spec.graph.num_layers(), cluster.num_devices())
            .map_err(|e| format!("planner returned an invalid plan: {e}"))?;
        Ok(planned)
    }

    /// A supervised loop at step 0.
    pub fn supervisor(&self, seed: u64, tracing: bool) -> Result<Supervisor, String> {
        let model = self.model(seed);
        let optimizer = self.optimizer(&model);
        let train = TrainLoop::new(
            model,
            self.engine_config(tracing),
            optimizer,
            self.data(seed),
        )
        .map_err(|e| format!("building the training loop: {e}"))?;
        let sup = Supervisor::new(train, RetryPolicy::default());
        Ok(match self.checkpoint_every {
            Some(every) => sup.with_checkpoint_every(every),
            None => sup,
        })
    }
}

/// A finished set-up: the planned paper strategy and a warmed-up loop.
pub struct Setup {
    /// The supervised loop, [`WARMUP_STEPS`] steps in.
    pub sup: Supervisor,
    /// The paper configuration's plan.
    pub planned: PlannedStrategy,
    /// Whole set-up wall time, ns.
    pub setup_ns: u64,
}

/// Plans, builds and warms up a workload: everything between workload
/// start and the first timed step.
pub fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let planned = w.plan_paper()?;
    let (sup, _) = warmed_up(w, seed, false)?;
    Ok(Setup {
        sup,
        planned,
        setup_ns: t0.elapsed().as_nanos() as u64,
    })
}

/// A supervised loop after its fault-free warm-up steps, and their
/// losses.
pub fn warmed_up(w: &Workload, seed: u64, tracing: bool) -> Result<(Supervisor, Vec<f32>), String> {
    let mut sup = w.supervisor(seed, tracing)?;
    let losses = sup
        .run(WARMUP_STEPS, |_, _| FaultPlan::new())
        .map_err(|e| format!("warm-up step failed: {e}"))?;
    Ok((sup, losses))
}

/// Which supervised operations have their first attempt fail, and how.
///
/// Operation `op` (the `op`-th call of `Supervisor::step_with` in a run)
/// is faulted when a hash of `(seed, op)` falls in a `1/one_in` share.
/// The fault is a worker panic at a seeded stage and position in that
/// stage's 1F1B order. Keyed by operation rather than training step, a
/// step re-done after a restore draws afresh.
#[derive(Debug, Clone, Copy)]
pub struct FaultSchedule {
    seed: u64,
    one_in: u64,
    stages: usize,
    micro_batches: usize,
}

impl FaultSchedule {
    /// The fault plan for the first attempt of operation `op`, if any.
    pub fn first_attempt(&self, op: u64) -> Option<FaultPlan> {
        if self.one_in == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ splitmix64(op));
        if !h.is_multiple_of(self.one_in) {
            return None;
        }
        let h2 = splitmix64(h);
        let stage = (h2 % self.stages as u64) as usize;
        let position = ((h2 >> 32) % (2 * self.micro_batches) as u64) as usize;
        Some(FaultPlan::new().with_fault(stage, 0, position, FaultKind::Panic))
    }
}

/// SplitMix64 finalizer: a fixed bijective mix of 64 bits.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault_ckpt() -> Workload {
        by_name("fault_ckpt").expect("fault_ckpt exists")
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let w = fault_ckpt();
        let a = w.fault_schedule(42);
        let b = w.fault_schedule(42);
        for op in 0..2_000 {
            assert_eq!(a.first_attempt(op), b.first_attempt(op), "op {op}");
        }
    }

    #[test]
    fn other_seed_other_fault_schedule() {
        let w = fault_ckpt();
        let faulted = |seed| -> Vec<u64> {
            let s = w.fault_schedule(seed);
            (0..2_000)
                .filter(|&op| s.first_attempt(op).is_some())
                .collect()
        };
        assert_ne!(faulted(1), faulted(2));
    }

    #[test]
    fn fault_rate_is_about_one_in_ten_and_every_plan_is_valid() {
        let w = fault_ckpt();
        let cfg = w.engine_config(false);
        for seed in 0..8 {
            let s = w.fault_schedule(seed);
            let plans: Vec<FaultPlan> = (0..4_000).filter_map(|op| s.first_attempt(op)).collect();
            assert!(
                (300..=500).contains(&plans.len()),
                "seed {seed}: {}",
                plans.len()
            );
            for p in &plans {
                assert_eq!(p.len(), 1);
                p.validate(&cfg)
                    .expect("schedule emits valid injection points");
            }
        }
    }

    #[test]
    fn fault_free_workloads_have_empty_schedules() {
        for w in all().iter().filter(|w| w.fault_one_in.is_none()) {
            let s = w.fault_schedule(7);
            assert!(
                (0..1_000).all(|op| s.first_attempt(op).is_none()),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn workload_shapes_are_consistent() {
        for w in all() {
            assert_eq!(
                w.stages.last().map(|r| r.end),
                Some(w.dims.len() - 1),
                "{}",
                w.name
            );
            assert_eq!(w.stages.len(), w.replication.len(), "{}", w.name);
            assert_eq!(w.batch % w.micro_batches, 0, "{}", w.name);
            w.supervisor(1, false).expect("workload builds");
        }
    }
}
