//! The Megatron-LM transformer block (paper Fig. 2).

use crate::{Dropout, Gelu, Layer, LayerNorm, Linear, MultiHeadAttention, ParamRef};
use opt_tensor::{Matrix, SeedStream};
use std::collections::VecDeque;

/// One transformer layer with pre-norm residual structure, matching the
/// paper's Fig. 2:
///
/// ```text
/// x ── LN ── Attention ── Dropout ──(+)── LN ── MLP(H→4H→H, GeLU) ── Dropout ──(+)── y
/// └──────────────────────────────────┘ └──────────────────────────────────────────┘
/// ```
#[derive(Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    drop1: Dropout,
    ln2: LayerNorm,
    fc1: Linear,
    gelu: Gelu,
    fc2: Linear,
    drop2: Dropout,
    /// Number of in-flight micro-batches (for the pipelining contract).
    in_flight: VecDeque<()>,
}

impl std::fmt::Debug for TransformerBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TransformerBlock(hidden={})", self.fc1.in_dim())
    }
}

impl TransformerBlock {
    /// Creates a block with `hidden` features, `heads` attention heads and
    /// sequences of length `seq_len`. `dropout_p` is 0 in reproduction
    /// experiments (determinism); the layers exist to match the structure.
    pub fn new(
        hidden: usize,
        heads: usize,
        seq_len: usize,
        dropout_p: f32,
        rng: &mut SeedStream,
    ) -> Self {
        Self {
            ln1: LayerNorm::new(hidden),
            attn: MultiHeadAttention::new(hidden, heads, seq_len, rng),
            drop1: Dropout::new(dropout_p, rng.fork(1).uniform(1.0).to_bits() as u64),
            ln2: LayerNorm::new(hidden),
            fc1: Linear::new(hidden, 4 * hidden, rng),
            gelu: Gelu::new(),
            fc2: Linear::new(4 * hidden, hidden, rng),
            drop2: Dropout::new(dropout_p, rng.fork(2).uniform(1.0).to_bits() as u64),
            in_flight: VecDeque::new(),
        }
    }

    /// Switches dropout between train and eval behaviour.
    pub fn set_train(&mut self, train: bool) {
        self.drop1.set_train(train);
        self.drop2.set_train(train);
    }
}

impl Layer for TransformerBlock {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        // Attention sub-block with residual.
        let h = self.ln1.forward(x);
        let h = self.attn.forward(&h);
        let h = self.drop1.forward(&h);
        let x2 = x.add(&h);
        // MLP sub-block with residual.
        let m = self.ln2.forward(&x2);
        let m = self.fc1.forward(&m);
        let m = self.gelu.forward(&m);
        let m = self.fc2.forward(&m);
        let m = self.drop2.forward(&m);
        let y = x2.add(&m);
        self.in_flight.push_back(());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.in_flight
            .pop_front()
            .expect("TransformerBlock::backward without forward");
        // y = x2 + drop2(fc2(gelu(fc1(ln2(x2)))))
        let dm = self.drop2.backward(grad_out);
        let dm = self.fc2.backward(&dm);
        let dm = self.gelu.backward(&dm);
        let dm = self.fc1.backward(&dm);
        let dm = self.ln2.backward(&dm);
        let dx2 = grad_out.add(&dm);
        // x2 = x + drop1(attn(ln1(x)))
        let dh = self.drop1.backward(&dx2);
        let dh = self.attn.backward(&dh);
        let dh = self.ln1.backward(&dh);
        dx2.add(&dh)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        let mut out = Vec::new();
        out.extend(self.ln1.params());
        out.extend(self.attn.params());
        out.extend(self.ln2.params());
        out.extend(self.fc1.params());
        out.extend(self.fc2.params());
        out
    }

    fn pending_activations(&self) -> usize {
        self.in_flight.len()
    }

    fn clear_caches(&mut self) {
        self.in_flight.clear();
        self.ln1.clear_caches();
        self.attn.clear_caches();
        self.drop1.clear_caches();
        self.ln2.clear_caches();
        self.fc1.clear_caches();
        self.gelu.clear_caches();
        self.fc2.clear_caches();
        self.drop2.clear_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::check_input_gradient;

    fn block(seed: u64) -> TransformerBlock {
        TransformerBlock::new(4, 2, 3, 0.0, &mut SeedStream::new(seed))
    }

    #[test]
    fn forward_preserves_shape() {
        let mut b = block(1);
        let mut rng = SeedStream::new(2);
        let x = rng.uniform_matrix(6, 4, 0.5); // two sequences of length 3
        assert_eq!(b.forward(&x).shape(), (6, 4));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        check_input_gradient(|| block(77), 3, 4, 5e-2);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut b = block(1);
        // 2 LN (2*2*h) + attention (4 h^2) + fc1 (h*4h + 4h) + fc2 (4h*h + h)
        let h = 4;
        let expect = 2 * 2 * h + 4 * h * h + (h * 4 * h + 4 * h) + (4 * h * h + h);
        assert_eq!(b.param_count(), expect);
    }

    #[test]
    fn residual_path_dominates_at_init() {
        // With Xavier init and LayerNorm, output stays in the same
        // magnitude range as input (no explosion), a sanity check for
        // trainability.
        let mut b = block(3);
        let mut rng = SeedStream::new(4);
        let x = rng.uniform_matrix(6, 4, 1.0);
        let y = b.forward(&x);
        assert!(y.norm() < 10.0 * x.norm());
        assert!(y.norm() > 0.1 * x.norm());
    }

    #[test]
    fn two_microbatches_backprop_in_fifo_order() {
        let mut b1 = block(9);
        let mut b2 = block(9);
        let mut rng = SeedStream::new(5);
        let xa = rng.uniform_matrix(3, 4, 0.5);
        let xb = rng.uniform_matrix(3, 4, 0.5);
        let g = Matrix::full(3, 4, 1.0);
        // b1: interleaved (forward a, forward b, backward a, backward b)
        b1.forward(&xa);
        b1.forward(&xb);
        let da1 = b1.backward(&g);
        let db1 = b1.backward(&g);
        // b2: sequential
        b2.forward(&xa);
        let da2 = b2.backward(&g);
        b2.forward(&xb);
        let db2 = b2.backward(&g);
        assert!(da1.sub(&da2).max_abs() < 1e-5);
        assert!(db1.sub(&db2).max_abs() < 1e-5);
    }

    #[test]
    fn zero_grad_resets_all_params() {
        let mut b = block(11);
        let mut rng = SeedStream::new(6);
        let x = rng.uniform_matrix(3, 4, 0.5);
        b.forward(&x);
        b.backward(&Matrix::full(3, 4, 1.0));
        assert!(b.params().iter().any(|p| p.grad.norm() > 0.0));
        b.zero_grad();
        assert!(b.params().iter().all(|p| p.grad.norm() == 0.0));
    }
}
