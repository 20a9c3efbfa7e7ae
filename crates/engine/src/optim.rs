//! Optimizers: SGD, SGD with momentum, and Adam.
//!
//! The paper trains its benchmarks with Adam (GNMT/BERT/XLNet), SGD
//! (VGG) and RMSProp (AmoebaNet) — and its memory model charges 16 bytes
//! per parameter for Adam state (Table VIII). These optimizers make the
//! engine exercise the same state footprint for real.

use crate::layer::DenseGrads;
use crate::model::MlpModel;

/// Optimizer state and update rule, applied model-wide.
#[derive(Debug, Clone, PartialEq)]
pub enum Optimizer {
    /// Plain SGD: `w -= lr * g`.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Heavy-ball momentum: `v = beta v + g; w -= lr * v`.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        beta: f32,
        /// Per-layer velocity buffers (flat: weights then biases).
        velocity: Vec<Vec<f32>>,
    },
    /// Adam with bias correction.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical floor.
        eps: f32,
        /// Step counter.
        t: u64,
        /// Per-layer first moments.
        m: Vec<Vec<f32>>,
        /// Per-layer second moments.
        v: Vec<Vec<f32>>,
    },
}

impl Optimizer {
    /// Plain SGD.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// SGD with momentum, buffers sized to `model`.
    pub fn momentum(lr: f32, beta: f32, model: &MlpModel) -> Self {
        Optimizer::Momentum {
            lr,
            beta,
            velocity: zeros_like(model),
        }
    }

    /// Adam with the canonical hyper-parameters (0.9 / 0.999 / 1e-8).
    pub fn adam(lr: f32, model: &MlpModel) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: zeros_like(model),
            v: zeros_like(model),
        }
    }

    /// Persistent state bytes per fp32 parameter (weights included) —
    /// matches [`dapple_model::OptimizerKind::bytes_per_param`]'s account.
    pub fn bytes_per_param(&self) -> u64 {
        match self {
            Optimizer::Sgd { .. } => 8,       // weight + grad
            Optimizer::Momentum { .. } => 12, // + velocity
            Optimizer::Adam { .. } => 16,     // + two moments
        }
    }

    /// Applies one update step to `model` from accumulated `grads`.
    pub fn step(&mut self, model: &mut MlpModel, grads: &[DenseGrads]) {
        assert_eq!(grads.len(), model.layers.len(), "grad/layer mismatch");
        match self {
            Optimizer::Sgd { lr } => {
                let lr = *lr;
                model.apply(grads, lr);
            }
            Optimizer::Momentum { lr, beta, velocity } => {
                let (lr, beta) = (*lr, *beta);
                for ((layer, g), vel) in model.layers.iter_mut().zip(grads).zip(velocity) {
                    let (vw, vb) = vel.split_at_mut(layer.w.data.len());
                    momentum_update(&mut layer.w.data, &g.dw.data, vw, lr, beta);
                    momentum_update(&mut layer.b, &g.db, vb, lr, beta);
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                *t += 1;
                let h = AdamStep {
                    lr: *lr,
                    beta1: *beta1,
                    beta2: *beta2,
                    eps: *eps,
                    bc1: 1.0 - beta1.powi(*t as i32),
                    bc2: 1.0 - beta2.powi(*t as i32),
                };
                for (((layer, g), mi), vi) in model.layers.iter_mut().zip(grads).zip(m).zip(v) {
                    let nw = layer.w.data.len();
                    let (mw, mb) = mi.split_at_mut(nw);
                    let (vw, vb) = vi.split_at_mut(nw);
                    adam_update(&mut layer.w.data, &g.dw.data, mw, vw, &h);
                    adam_update(&mut layer.b, &g.db, mb, vb, &h);
                }
            }
        }
    }
}

/// Flat zero buffers shaped like each layer's `(weights, bias)`.
fn zeros_like(model: &MlpModel) -> Vec<Vec<f32>> {
    model
        .layers
        .iter()
        .map(|l| vec![0.0f32; l.num_params()])
        .collect()
}

/// Heavy-ball update of one parameter segment, fused in place: per
/// element `v = beta v + g; p -= lr v`. The state buffers keep their
/// flat layout (weights then bias); callers pass the matching halves.
fn momentum_update(p: &mut [f32], g: &[f32], vel: &mut [f32], lr: f32, beta: f32) {
    for ((p, g), v) in p.iter_mut().zip(g).zip(vel) {
        *v = beta * *v + *g;
        *p -= lr * *v;
    }
}

/// One Adam step's scalars, bias corrections included.
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
}

/// Adam update of one parameter segment, fused in place: the moments
/// and the parameter advance element by element in one pass, with
/// exactly the per-element expression of the textbook two-pass form
/// (moments into an update vector, then `p -= lr u`), so the bits are
/// the same and nothing is allocated.
fn adam_update(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], h: &AdamStep) {
    for (((p, g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
        *m = h.beta1 * *m + (1.0 - h.beta1) * g;
        *v = h.beta2 * *v + (1.0 - h.beta2) * g * g;
        let mhat = *m / h.bc1;
        let vhat = *v / h.bc2;
        *p -= h.lr * (mhat / (vhat.sqrt() + h.eps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn train(optimizer: &mut Optimizer, steps: usize, seed: u64) -> (f32, f32) {
        let mut model = MlpModel::new(&[4, 16, 2], seed);
        let (x, t) = data::regression_batch(32, 4, 2, seed);
        let (first, _) = model.reference_grads(&x, &t, 1);
        let mut last = first;
        for _ in 0..steps {
            let (loss, grads) = model.reference_grads(&x, &t, 1);
            last = loss;
            optimizer.step(&mut model, &grads);
        }
        (first, last)
    }

    #[test]
    fn all_optimizers_reduce_loss() {
        let model = MlpModel::new(&[4, 16, 2], 1);
        for mut opt in [
            Optimizer::sgd(0.5),
            Optimizer::momentum(0.2, 0.9, &model),
            Optimizer::adam(0.02, &model),
        ] {
            let (first, last) = train(&mut opt, 60, 1);
            assert!(
                last < first * 0.8,
                "{:?}: {first} -> {last}",
                opt.bytes_per_param()
            );
        }
    }

    /// Adam's first step is a unit-scaled move: |update| ~ lr regardless
    /// of gradient magnitude (bias correction).
    #[test]
    fn adam_first_step_is_lr_scaled() {
        let mut model = MlpModel::new(&[2, 1], 3);
        let before = model.layers[0].w.data.clone();
        let grads = vec![DenseGrads {
            dw: crate::tensor::Tensor::from_vec(2, 1, vec![1000.0, -0.001]),
            db: vec![5.0],
        }];
        let mut adam = Optimizer::adam(0.01, &model);
        adam.step(&mut model, &grads);
        for (w0, w1) in before.iter().zip(&model.layers[0].w.data) {
            let step = (w0 - w1).abs();
            assert!((step - 0.01).abs() < 1e-3, "step {step}");
        }
    }

    /// Momentum accumulates: two identical gradients move further than
    /// twice a single plain-SGD step.
    #[test]
    fn momentum_accumulates_velocity() {
        let mk = || MlpModel::new(&[1, 1], 9);
        let grads = vec![DenseGrads {
            dw: crate::tensor::Tensor::from_vec(1, 1, vec![1.0]),
            db: vec![0.0],
        }];
        let mut plain = mk();
        let mut sgd = Optimizer::sgd(0.1);
        sgd.step(&mut plain, &grads);
        sgd.step(&mut plain, &grads);

        let mut heavy = mk();
        let mut mom = Optimizer::momentum(0.1, 0.9, &heavy);
        mom.step(&mut heavy, &grads);
        mom.step(&mut heavy, &grads);
        assert!(heavy.layers[0].w.data[0] < plain.layers[0].w.data[0]);
    }

    /// The textbook two-pass form the fused updates replaced: flatten the
    /// layer's gradient, compute the whole update vector, then apply
    /// `p -= lr u` over weights and bias.
    fn two_pass_step(opt: &mut Optimizer, model: &mut MlpModel, grads: &[DenseGrads]) {
        let apply = |layer: &mut crate::layer::Dense, u: &[f32], lr: f32| {
            let nw = layer.w.data.len();
            for (w, u) in layer.w.data.iter_mut().zip(&u[..nw]) {
                *w -= lr * u;
            }
            for (b, u) in layer.b.iter_mut().zip(&u[nw..]) {
                *b -= lr * u;
            }
        };
        match opt {
            Optimizer::Momentum { lr, beta, velocity } => {
                for (i, layer) in model.layers.iter_mut().enumerate() {
                    let flat = grads[i].to_flat();
                    for (v, g) in velocity[i].iter_mut().zip(&flat) {
                        *v = *beta * *v + *g;
                    }
                    apply(layer, &velocity[i], *lr);
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                *t += 1;
                let bc1 = 1.0 - beta1.powi(*t as i32);
                let bc2 = 1.0 - beta2.powi(*t as i32);
                for (i, layer) in model.layers.iter_mut().enumerate() {
                    let flat = grads[i].to_flat();
                    let update: Vec<f32> = m[i]
                        .iter_mut()
                        .zip(v[i].iter_mut())
                        .zip(&flat)
                        .map(|((mi, vi), g)| {
                            *mi = *beta1 * *mi + (1.0 - *beta1) * g;
                            *vi = *beta2 * *vi + (1.0 - *beta2) * g * g;
                            let mhat = *mi / bc1;
                            let vhat = *vi / bc2;
                            mhat / (vhat.sqrt() + *eps)
                        })
                        .collect();
                    apply(layer, &update, *lr);
                }
            }
            Optimizer::Sgd { .. } => unreachable!("SGD has no two-pass form"),
        }
    }

    /// Fused in-place momentum and Adam equal the two-pass formula bit
    /// for bit, weights and optimizer state, over several steps of real
    /// gradients.
    #[test]
    fn fused_updates_match_two_pass_bit_for_bit() {
        let (x, t) = data::regression_batch(16, 4, 3, 5);
        let base = MlpModel::new(&[4, 9, 7, 3], 2);
        for mk in [
            (|m: &MlpModel| Optimizer::momentum(0.05, 0.9, m)) as fn(&MlpModel) -> Optimizer,
            |m: &MlpModel| Optimizer::adam(0.01, m),
        ] {
            let (mut fused_model, mut ref_model) = (base.clone(), base.clone());
            let (mut fused, mut reference) = (mk(&base), mk(&base));
            for _ in 0..6 {
                let (_, grads) = fused_model.reference_grads(&x, &t, 2);
                fused.step(&mut fused_model, &grads);
                two_pass_step(&mut reference, &mut ref_model, &grads);
                let bits = |m: &MlpModel| -> Vec<u32> {
                    m.layers
                        .iter()
                        .flat_map(|l| l.w.data.iter().chain(&l.b))
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&fused_model), bits(&ref_model));
                assert_eq!(fused, reference, "optimizer state diverged");
            }
        }
    }

    #[test]
    fn state_bytes_match_profiler_accounting() {
        let model = MlpModel::new(&[2, 2], 0);
        assert_eq!(Optimizer::sgd(0.1).bytes_per_param(), 8);
        assert_eq!(Optimizer::momentum(0.1, 0.9, &model).bytes_per_param(), 12);
        assert_eq!(Optimizer::adam(0.1, &model).bytes_per_param(), 16);
    }
}
