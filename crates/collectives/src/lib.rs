//! # dapple-collectives
//!
//! Communication: analytic cost models used by the planner/simulator, and a
//! real multi-threaded ring all-reduce — the bit-exact reference for the
//! CPU training engine's in-place replica reduction.
//!
//! The cost model covers the three patterns DAPPLE needs:
//!
//! * **AllReduce** — gradient synchronization across a replicated stage
//!   (ring within a machine, hierarchical when the replica set spans
//!   machines), the `AR(P_s, g_s)` term of the paper's ending-phase formula;
//! * **peer-to-peer** — activations crossing a stage boundary;
//! * **split/concat** — the one-to-many / many-to-one / many-to-many
//!   boundary traffic between stages with different replication (§V-B2,
//!   Fig. 9).

pub mod cost;
pub mod ring;

pub use cost::{
    allreduce_us, cross_stage_us, fit_affine, p2p_us, CommCalibration, SPLIT_CONCAT_OVERHEAD_US,
};
pub use ring::{allreduce_mean, allreduce_sum, chunk_bounds};
