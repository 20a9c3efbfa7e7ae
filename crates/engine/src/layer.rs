//! Dense layers with exact backward passes.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Element-wise activation following the affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation (linear layer).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, z: f32) -> f32 {
        match self {
            Activation::Identity => z,
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
        }
    }

    /// Derivative expressed through the activation *output* `y`.
    #[inline]
    fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// A dense layer: `y = act(x W + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weights, `in_dim x out_dim`.
    pub w: Tensor,
    /// Bias, `out_dim`.
    pub b: Vec<f32>,
    /// Activation.
    pub act: Activation,
}

/// Parameter gradients of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrads {
    /// `dL/dW`.
    pub dw: Tensor,
    /// `dL/db`.
    pub db: Vec<f32>,
}

impl DenseGrads {
    /// Zero gradients shaped like `layer`.
    pub fn zeros_like(layer: &Dense) -> Self {
        DenseGrads {
            dw: Tensor::zeros(layer.w.rows, layer.w.cols),
            db: vec![0.0; layer.b.len()],
        }
    }

    /// Accumulates `other` into `self`.
    pub fn accumulate(&mut self, other: &DenseGrads) {
        self.dw.add_assign(&other.dw);
        for (a, b) in self.db.iter_mut().zip(&other.db) {
            *a += *b;
        }
    }

    /// Flattens into a single vector, weights then bias: the layout
    /// that optimizer state and the replica reduction's chunks index.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut v = self.dw.data.clone();
        v.extend_from_slice(&self.db);
        v
    }
}

impl Dense {
    /// Xavier-style deterministic initialization.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / (in_dim + out_dim) as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            w: Tensor::from_vec(in_dim, out_dim, data),
            b: vec![0.0; out_dim],
            act,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols
    }

    /// Forward pass: `y = act(x W + b)`.
    ///
    /// The backward pass takes `x` and `y` explicitly, so nothing is
    /// cloned into a cache here — the caller keeps both tensors alive
    /// (the hot 1F1B path stores the per-layer `y` chain once, instead
    /// of the old `DenseCache` which duplicated every activation).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w);
        self.finish_forward(&mut y);
        y
    }

    /// [`Dense::forward`] into a caller-provided buffer (recycled contents
    /// allowed). Bit-identical to `forward`, without the allocation.
    pub fn forward_into(&self, x: &Tensor, y: &mut Tensor) {
        x.matmul_into(&self.w, y);
        self.finish_forward(y);
    }

    /// Bias + activation, in place.
    fn finish_forward(&self, y: &mut Tensor) {
        y.add_bias(&self.b);
        for v in &mut y.data {
            *v = self.act.apply(*v);
        }
    }

    /// Backward pass: input gradient and parameter gradients.
    ///
    /// `x` and `y` are the forward input/output of this layer. `dy` is
    /// used as in-place scratch: on return it holds `dz = dy * act'(y)`,
    /// its original contents are destroyed — but the caller keeps the
    /// buffer, so the boundary-message storage it arrived in can be
    /// recycled. The matmuls run transpose-free (`matmul_tn`/`matmul_nt`),
    /// eliminating the two explicit `transpose()` copies per call.
    pub fn backward(&self, x: &Tensor, y: &Tensor, dy: &mut Tensor) -> (Tensor, DenseGrads) {
        let g = self.backward_params(x, y, dy);
        let dx = dy.matmul_nt(&self.w);
        (dx, g)
    }

    /// Fully buffered backward: input gradient *and* parameter gradients
    /// land in caller-provided storage (`g` shaped by
    /// [`DenseGrads::zeros_like`]; recycled contents allowed — every
    /// kernel stores, never accumulates), and the `dx` kernel's transpose
    /// scratch is the caller's `pack`. Bit-identical to `backward`; with
    /// warmed buffers it allocates nothing, which is what keeps the
    /// pipeline's per-micro-batch backward allocation-free.
    pub fn backward_grads_into(
        &self,
        x: &Tensor,
        y: &Tensor,
        dy: &mut Tensor,
        dx: &mut Tensor,
        g: &mut DenseGrads,
        pack: &mut Vec<f32>,
    ) {
        self.backward_params_into(x, y, dy, g);
        dy.matmul_nt_into_with(&self.w, dx, pack);
    }

    /// Shared head of the backward pass: turns `dy` into `dz` in place and
    /// produces the parameter gradients.
    fn backward_params(&self, x: &Tensor, y: &Tensor, dy: &mut Tensor) -> DenseGrads {
        let mut g = DenseGrads::zeros_like(self);
        self.backward_params_into(x, y, dy, &mut g);
        g
    }

    /// [`Dense::backward_params`] into caller-provided gradients.
    fn backward_params_into(&self, x: &Tensor, y: &Tensor, dy: &mut Tensor, g: &mut DenseGrads) {
        assert_eq!(dy.rows, y.rows, "grad batch mismatch");
        assert_eq!(dy.cols, y.cols, "grad width mismatch");
        assert_eq!(x.rows, y.rows, "cache batch mismatch");
        // dz = dy * act'(y), in place.
        for (d, yv) in dy.data.iter_mut().zip(&y.data) {
            *d *= self.act.grad_from_output(*yv);
        }
        x.matmul_tn_into(dy, &mut g.dw);
        dy.col_sums_into(&mut g.db);
    }

    /// SGD update: `p -= lr * g`.
    pub fn apply_sgd(&mut self, grads: &DenseGrads, lr: f32) {
        for (w, g) in self.w.data.iter_mut().zip(&grads.dw.data) {
            *w -= lr * g;
        }
        for (b, g) in self.b.iter_mut().zip(&grads.db) {
            *b -= lr * g;
        }
    }

    /// Parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.w.data.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the dense backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        for act in [Activation::Identity, Activation::Tanh] {
            let layer = Dense::new(3, 2, act, 42);
            let x = Tensor::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.1]);
            let loss = |l: &Dense, x: &Tensor| -> f32 {
                let y = l.forward(x);
                y.data.iter().map(|v| v * v).sum::<f32>() * 0.5
            };
            let y = layer.forward(&x);
            let mut dy = y.clone(); // dL/dy for L = 0.5 sum y^2
            let (dx, grads) = layer.backward(&x, &y, &mut dy);

            let eps = 1e-3f32;
            // Check dW numerically at a few coordinates.
            for &(r, c) in &[(0usize, 0usize), (2, 1), (1, 0)] {
                let mut lp = layer.clone();
                lp.w.data[r * 2 + c] += eps;
                let mut lm = layer.clone();
                lm.w.data[r * 2 + c] -= eps;
                let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
                let ana = grads.dw.at(r, c);
                assert!(
                    (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                    "{act:?} dW[{r},{c}]: {num} vs {ana}"
                );
            }
            // Check dx numerically.
            for i in 0..3 {
                let mut xp = x.clone();
                xp.data[i] += eps;
                let mut xm = x.clone();
                xm.data[i] -= eps;
                let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                let ana = dx.data[i];
                assert!(
                    (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                    "{act:?} dx[{i}]: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn relu_masks_gradients() {
        let mut layer = Dense::new(1, 2, Activation::Relu, 7);
        layer.w = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        layer.b = vec![0.0, 0.0];
        let x = Tensor::from_vec(1, 1, vec![2.0]); // y = [2, 0(-2 clipped)]
        let y = layer.forward(&x);
        assert_eq!(y.data, vec![2.0, 0.0]);
        let mut dy = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, grads) = layer.backward(&x, &y, &mut dy);
        // The clipped unit contributes no gradient.
        assert_eq!(grads.dw.data, vec![2.0, 0.0]);
        assert_eq!(grads.db, vec![1.0, 0.0]);
    }

    #[test]
    fn grads_flat_layout_is_weights_then_bias() {
        let layer = Dense::new(3, 4, Activation::Identity, 1);
        let x = Tensor::from_vec(2, 3, vec![1.0; 6]);
        let y = layer.forward(&x);
        let mut dy = y.clone();
        let (_, grads) = layer.backward(&x, &y, &mut dy);
        let flat = grads.to_flat();
        assert_eq!(flat.len(), layer.num_params());
        let (w, b) = flat.split_at(grads.dw.data.len());
        assert_eq!((w, b), (&grads.dw.data[..], &grads.db[..]));
    }

    #[test]
    fn accumulate_sums_gradients() {
        let layer = Dense::new(2, 2, Activation::Identity, 3);
        let x = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let y = layer.forward(&x);
        let mut dy = y.clone();
        let (_, g1) = layer.backward(&x, &y, &mut dy);
        let mut acc = DenseGrads::zeros_like(&layer);
        acc.accumulate(&g1);
        acc.accumulate(&g1);
        for (a, b) in acc.dw.data.iter().zip(&g1.dw.data) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut layer = Dense::new(1, 1, Activation::Identity, 9);
        let w0 = layer.w.data[0];
        let grads = DenseGrads {
            dw: Tensor::from_vec(1, 1, vec![2.0]),
            db: vec![1.0],
        };
        layer.apply_sgd(&grads, 0.1);
        assert!((layer.w.data[0] - (w0 - 0.2)).abs() < 1e-7);
        assert!((layer.b[0] + 0.1).abs() < 1e-7);
    }

    #[test]
    fn deterministic_init() {
        let a = Dense::new(4, 3, Activation::Tanh, 123);
        let b = Dense::new(4, 3, Activation::Tanh, 123);
        assert_eq!(a, b);
        let c = Dense::new(4, 3, Activation::Tanh, 124);
        assert_ne!(a, c);
    }
}
