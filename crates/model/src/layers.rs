//! Primitive layers: Linear, LayerNorm, GeLU, Dropout.

use crate::{Layer, ParamRef};
use opt_tensor::{xavier_uniform, Matrix, SeedStream};
use std::collections::VecDeque;

/// Fully-connected layer `y = x W + b`.
///
/// `W` is `in_dim x out_dim`; inputs are `(batch*seq) x in_dim`.
#[derive(Debug)]
pub struct Linear {
    w: Matrix,
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    cache: VecDeque<Matrix>,
    /// Weight-gradient GEMM scratch (fully overwritten each backward).
    scratch_gw: Matrix,
}

impl Linear {
    /// Creates a Xavier-initialized linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeedStream) -> Self {
        Self {
            w: xavier_uniform(rng, in_dim, out_dim),
            b: Matrix::zeros(1, out_dim),
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
            cache: VecDeque::new(),
            scratch_gw: Matrix::default(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Immutable access to the weight matrix (tests, probes).
    pub fn weight(&self) -> &Matrix {
        &self.w
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast_assign(&self.b);
        self.cache.push_back(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cache
            .pop_front()
            .expect("Linear::backward without forward");
        x.t_matmul_into(grad_out, &mut self.scratch_gw);
        self.grad_w.add_assign(&self.scratch_gw);
        self.grad_b.add_assign(&grad_out.col_sums());
        grad_out.matmul_t(&self.w)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "linear.w",
                value: &mut self.w,
                grad: &mut self.grad_w,
            },
            ParamRef {
                name: "linear.b",
                value: &mut self.b,
                grad: &mut self.grad_b,
            },
        ]
    }

    fn pending_activations(&self) -> usize {
        self.cache.len()
    }

    fn clear_caches(&mut self) {
        self.cache.clear();
    }
}

/// Layer normalization over the feature (column) dimension with learned
/// gain/bias, as used before attention and MLP in Megatron's block (Fig. 2).
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Matrix,
    beta: Matrix,
    grad_gamma: Matrix,
    grad_beta: Matrix,
    eps: f32,
    /// Cached (normalized input, 1/std per row).
    cache: VecDeque<(Matrix, Vec<f32>)>,
}

impl LayerNorm {
    /// Creates a layer norm over `dim` features (gamma=1, beta=0).
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Matrix::full(1, dim, 1.0),
            beta: Matrix::zeros(1, dim),
            grad_gamma: Matrix::zeros(1, dim),
            grad_beta: Matrix::zeros(1, dim),
            eps: 1e-5,
            cache: VecDeque::new(),
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let (rows, cols) = x.shape();
        let gamma = self.gamma.row(0);
        let beta = self.beta.row(0);
        let mut xhat = Matrix::zeros(rows, cols);
        let mut y = Matrix::zeros(rows, cols);
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            let out = xhat.row_mut(r).iter_mut().zip(y.row_mut(r));
            for (((h, o), &v), (&g, &b)) in out.zip(row).zip(gamma.iter().zip(beta)) {
                *h = (v - mean) * inv_std;
                *o = *h * g + b;
            }
            inv_stds.push(inv_std);
        }
        self.cache.push_back((xhat, inv_stds));
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (xhat, inv_stds) = self
            .cache
            .pop_front()
            .expect("LayerNorm::backward without forward");
        let (rows, cols) = grad_out.shape();
        let n = cols as f32;
        let gamma = self.gamma.row(0);
        let grad_gamma = self.grad_gamma.row_mut(0);
        let grad_beta = self.grad_beta.row_mut(0);
        let mut dx = Matrix::zeros(rows, cols);
        let mut dxhat = vec![0.0f32; cols];
        // Rows in ascending order, so each parameter-gradient element
        // accumulates its per-row terms in row order.
        for r in 0..rows {
            let g_row = grad_out.row(r);
            let h_row = xhat.row(r);
            for ((d, &g), &gm) in dxhat.iter_mut().zip(g_row).zip(gamma) {
                *d = g * gm;
            }
            for ((acc, &g), &h) in grad_gamma.iter_mut().zip(g_row).zip(h_row) {
                *acc += g * h;
            }
            for (acc, &g) in grad_beta.iter_mut().zip(g_row) {
                *acc += g;
            }
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(h_row).map(|(&d, &h)| d * h).sum();
            let inv_std = inv_stds[r];
            for ((o, &d), &h) in dx.row_mut(r).iter_mut().zip(&dxhat).zip(h_row) {
                *o = inv_std / n * (n * d - sum_dxhat - h * sum_dxhat_xhat);
            }
        }
        dx
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "ln.gamma",
                value: &mut self.gamma,
                grad: &mut self.grad_gamma,
            },
            ParamRef {
                name: "ln.beta",
                value: &mut self.beta,
                grad: &mut self.grad_beta,
            },
        ]
    }

    fn pending_activations(&self) -> usize {
        self.cache.len()
    }

    fn clear_caches(&mut self) {
        self.cache.clear();
    }
}

/// GeLU activation (tanh approximation, as in GPT-2/Megatron).
///
/// Forward computes `gelu(x)` and `gelu'(x)` from one `tanh` per element
/// and caches the derivative `dgelu(x)` (not `x`), so backward is a single
/// Hadamard product.
#[derive(Debug, Default)]
pub struct Gelu {
    cache: VecDeque<Matrix>,
}

impl Gelu {
    /// Creates a GeLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(gelu(x), dgelu(x))`, sharing the one `tanh`.
    #[inline]
    fn gelu_and_grad(x: f32) -> (f32, f32) {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        let t = (C * (x + 0.044715 * x * x * x)).tanh();
        let sech2 = 1.0 - t * t;
        (
            0.5 * x * (1.0 + t),
            0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x),
        )
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let (y, d): (Vec<f32>, Vec<f32>) =
            x.as_slice().iter().map(|&v| Self::gelu_and_grad(v)).unzip();
        self.cache
            .push_back(Matrix::from_vec(x.rows(), x.cols(), d));
        Matrix::from_vec(x.rows(), x.cols(), y)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let d = self
            .cache
            .pop_front()
            .expect("Gelu::backward without forward");
        grad_out.hadamard(&d)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    fn pending_activations(&self) -> usize {
        self.cache.len()
    }

    fn clear_caches(&mut self) {
        self.cache.clear();
    }
}

/// Inverted dropout with a deterministic seeded mask.
///
/// With `p = 0.0` (the default for reproduction experiments) it is exactly
/// the identity; the layer exists so the block structure matches the
/// paper's Fig. 2.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: SeedStream,
    train: bool,
    cache: VecDeque<Matrix>, // masks
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Self {
            p,
            rng: SeedStream::new(seed),
            train: true,
            cache: VecDeque::new(),
        }
    }

    /// Switches between training (masking) and evaluation (identity).
    pub fn set_train(&mut self, train: bool) {
        self.train = train;
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        if !self.train || self.p == 0.0 {
            self.cache.push_back(Matrix::full(x.rows(), x.cols(), 1.0));
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
            if self.rng.unit() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let y = x.hadamard(&mask);
        self.cache.push_back(mask);
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self
            .cache
            .pop_front()
            .expect("Dropout::backward without forward");
        grad_out.hadamard(&mask)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    fn pending_activations(&self) -> usize {
        self.cache.len()
    }

    fn clear_caches(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::check_input_gradient;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = SeedStream::new(0);
        let mut l = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights.
        *l.params()[0].value = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        *l.params()[1].value = Matrix::from_rows(&[&[0.5, -0.5]]);
        let y = l.forward(&Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn linear_input_gradient_matches_finite_difference() {
        check_input_gradient(|| Linear::new(4, 3, &mut SeedStream::new(5)), 2, 4, 1e-2);
    }

    #[test]
    fn linear_weight_gradient_matches_finite_difference() {
        let mut rng = SeedStream::new(7);
        let x = rng.uniform_matrix(3, 4, 0.5);
        let probe = rng.uniform_matrix(3, 2, 1.0);
        let make = || Linear::new(4, 2, &mut SeedStream::new(21));
        let mut layer = make();
        layer.forward(&x);
        layer.backward(&probe);
        let analytic = layer.params()[0].grad.clone();

        let eps = 1e-3;
        for idx in [0usize, 3, 7] {
            let perturb = |delta: f32| {
                let mut l = make();
                l.params()[0].value.as_mut_slice()[idx] += delta;
                l.forward(&x).dot(&probe)
            };
            let numeric = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 1e-2,
                "w grad {idx}: {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn linear_fifo_cache_handles_two_in_flight() {
        let mut rng = SeedStream::new(1);
        let mut l = Linear::new(3, 3, &mut rng);
        let x1 = rng.uniform_matrix(2, 3, 1.0);
        let x2 = rng.uniform_matrix(2, 3, 1.0);
        l.forward(&x1);
        l.forward(&x2);
        assert_eq!(l.pending_activations(), 2);
        let g = Matrix::full(2, 3, 1.0);
        // First backward must use x1's cache: grad_w contribution x1^T g.
        let before = l.params()[0].grad.clone();
        l.backward(&g);
        let after = l.params()[0].grad.clone();
        let expect = x1.t_matmul(&g);
        assert!(after.sub(&before).sub(&expect).max_abs() < 1e-6);
        assert_eq!(l.pending_activations(), 1);
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut ln = LayerNorm::new(8);
        let mut rng = SeedStream::new(2);
        let x = rng.uniform_matrix(4, 8, 5.0);
        let y = ln.forward(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_input_gradient_matches_finite_difference() {
        check_input_gradient(|| LayerNorm::new(6), 3, 6, 2e-2);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // gelu(0) = 0, gelu(large) ~ large, gelu(-large) ~ 0.
        let gelu = |x| Gelu::gelu_and_grad(x).0;
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(5.0) - 5.0).abs() < 1e-3);
        assert!(gelu(-5.0).abs() < 1e-3);
        // Known value: gelu(1.0) ~ 0.8412
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_input_gradient_matches_finite_difference() {
        check_input_gradient(Gelu::new, 2, 5, 1e-2);
    }

    // Reference implementations: index-based GeLU (value and derivative
    // each with their own `tanh`) and LayerNorm, written element by
    // element. The layers must match them bit for bit.

    fn ref_gelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
    }

    fn ref_dgelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let x3 = 0.044715 * x * x * x;
        let t = (C * (x + x3)).tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
    }

    /// Returns `(y, xhat, inv_stds)`.
    fn ref_ln_forward(
        x: &Matrix,
        gamma: &Matrix,
        beta: &Matrix,
        eps: f32,
    ) -> (Matrix, Matrix, Vec<f32>) {
        let (rows, cols) = x.shape();
        let mut xhat = Matrix::zeros(rows, cols);
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            for (c, &v) in row.iter().enumerate() {
                xhat[(r, c)] = (v - mean) * inv_std;
            }
            inv_stds.push(inv_std);
        }
        let mut y = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                y[(r, c)] = xhat[(r, c)] * gamma[(0, c)] + beta[(0, c)];
            }
        }
        (y, xhat, inv_stds)
    }

    fn ref_ln_backward(
        grad_out: &Matrix,
        (xhat, inv_stds): &(Matrix, Vec<f32>),
        gamma: &Matrix,
        grad_gamma: &mut Matrix,
        grad_beta: &mut Matrix,
    ) -> Matrix {
        let (rows, cols) = grad_out.shape();
        let n = cols as f32;
        let mut dx = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut dxhat = vec![0.0f32; cols];
            for c in 0..cols {
                let g = grad_out[(r, c)];
                dxhat[c] = g * gamma[(0, c)];
                grad_gamma[(0, c)] += g * xhat[(r, c)];
                grad_beta[(0, c)] += g;
            }
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(xhat.row(r)).map(|(&d, &h)| d * h).sum();
            let inv_std = inv_stds[r];
            for c in 0..cols {
                dx[(r, c)] =
                    inv_std / n * (n * dxhat[c] - sum_dxhat - xhat[(r, c)] * sum_dxhat_xhat);
            }
        }
        dx
    }

    fn assert_same_bits(label: &str, got: &Matrix, want: &Matrix) {
        assert_eq!(got.shape(), want.shape(), "{label}: shape");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}[{i}]: {g} vs {w}");
        }
    }

    const ORACLE_SHAPES: [(usize, usize); 4] = [(16, 16), (16, 64), (64, 32), (64, 128)];

    /// Random values with `0.0`, `-0.0` and ±10 (tanh saturates) planted
    /// at spread-out positions, plus one all-zero row when there are
    /// several rows (LayerNorm's zero-variance case).
    fn oracle_input(rng: &mut SeedStream, rows: usize, cols: usize) -> Matrix {
        let mut x = rng.uniform_matrix(rows, cols, 3.0);
        let specials = [0.0, -0.0, 10.0, -10.0];
        let len = x.len();
        for (k, i) in (0..len).step_by(7).enumerate() {
            x.as_mut_slice()[i] = specials[k % specials.len()];
        }
        if rows > 1 {
            x.row_mut(rows - 1).fill(-0.0);
        }
        x
    }

    /// Forward (`true`) / backward (`false`) on micro-batch `i`: two in
    /// flight drained FIFO, then a third, so parameter gradients
    /// accumulate over three backward calls.
    const ORACLE_SCHEDULE: [(bool, usize); 6] = [
        (true, 0),
        (true, 1),
        (false, 0),
        (false, 1),
        (true, 2),
        (false, 2),
    ];

    #[test]
    fn gelu_matches_index_based_oracle_bit_for_bit() {
        let mut rng = SeedStream::new(13);
        for (rows, cols) in ORACLE_SHAPES {
            let mut layer = Gelu::new();
            let xs: Vec<Matrix> = (0..3).map(|_| oracle_input(&mut rng, rows, cols)).collect();
            let gs: Vec<Matrix> = (0..3).map(|_| oracle_input(&mut rng, rows, cols)).collect();
            for (fwd, i) in ORACLE_SCHEDULE {
                let label = format!("{rows}x{cols} {}{i}", if fwd { "y" } else { "dx" });
                if fwd {
                    assert_same_bits(&label, &layer.forward(&xs[i]), &xs[i].map(ref_gelu));
                } else {
                    let want = gs[i].hadamard(&xs[i].map(ref_dgelu));
                    assert_same_bits(&label, &layer.backward(&gs[i]), &want);
                }
            }
            assert_eq!(layer.pending_activations(), 0);
        }
    }

    #[test]
    fn layernorm_matches_index_based_oracle_bit_for_bit() {
        let mut rng = SeedStream::new(17);
        for (rows, cols) in ORACLE_SHAPES {
            let mut layer = LayerNorm::new(cols);
            let gamma = rng.uniform_matrix(1, cols, 2.0);
            let beta = rng.uniform_matrix(1, cols, 1.0);
            *layer.params()[0].value = gamma.clone();
            *layer.params()[1].value = beta.clone();
            let mut grad_gamma = Matrix::zeros(1, cols);
            let mut grad_beta = Matrix::zeros(1, cols);
            let mut caches = VecDeque::new();
            let xs: Vec<Matrix> = (0..3).map(|_| oracle_input(&mut rng, rows, cols)).collect();
            let gs: Vec<Matrix> = (0..3).map(|_| oracle_input(&mut rng, rows, cols)).collect();
            for (fwd, i) in ORACLE_SCHEDULE {
                let label = |what: &str| format!("{rows}x{cols} {what}{i}");
                if fwd {
                    let (y, xhat, inv_stds) = ref_ln_forward(&xs[i], &gamma, &beta, 1e-5);
                    assert_same_bits(&label("y"), &layer.forward(&xs[i]), &y);
                    caches.push_back((xhat, inv_stds));
                } else {
                    let cache = caches.pop_front().unwrap();
                    let want =
                        ref_ln_backward(&gs[i], &cache, &gamma, &mut grad_gamma, &mut grad_beta);
                    assert_same_bits(&label("dx"), &layer.backward(&gs[i]), &want);
                    let params = layer.params();
                    assert_same_bits(&label("grad_gamma"), params[0].grad, &grad_gamma);
                    assert_same_bits(&label("grad_beta"), params[1].grad, &grad_beta);
                }
            }
            assert_eq!(layer.pending_activations(), 0);
        }
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        d.set_train(false);
        let mut rng = SeedStream::new(3);
        let x = rng.uniform_matrix(3, 3, 1.0);
        assert_eq!(d.forward(&x), x);
    }

    #[test]
    fn dropout_train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Matrix::full(200, 50, 1.0);
        let y = d.forward(&x);
        // E[y] == 1 with inverted dropout.
        assert!((y.mean_all() - 1.0).abs() < 0.02, "mean {}", y.mean_all());
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 11);
        let x = Matrix::full(4, 4, 1.0);
        let y = d.forward(&x);
        let g = d.backward(&Matrix::full(4, 4, 1.0));
        // Where forward dropped, backward must drop too.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut g = Gelu::new();
        g.backward(&Matrix::zeros(1, 1));
    }
}
