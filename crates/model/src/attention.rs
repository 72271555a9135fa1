//! Causal multi-head self-attention with hand-written backward pass.

use crate::{Layer, ParamRef};
use opt_tensor::{xavier_uniform, Matrix, SeedStream};
use std::collections::VecDeque;

/// Reused scratch buffers for the per-head GEMMs; every matrix is fully
/// overwritten before use, so nothing here is model state (checkpoints
/// ignore it). Eliminates the per-step allocations the seed code made for
/// head slices, score matrices, and gradient temporaries.
#[derive(Default, Clone)]
struct AttnScratch {
    qh: Matrix,
    kh: Matrix,
    vh: Matrix,
    scores: Matrix,
    ctx_h: Matrix,
    d_context: Matrix,
    d_ctx_h: Matrix,
    d_a: Matrix,
    d_s: Matrix,
    d_qh: Matrix,
    d_kh: Matrix,
    d_vh: Matrix,
    /// `hidden x hidden` accumulation scratch for weight-gradient and
    /// input-gradient GEMMs.
    acc: Matrix,
}

/// Per-forward cached tensors needed by the backward pass.
#[derive(Clone)]
struct AttnCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Softmax outputs per (sequence, head): attn[s * heads + h] is L x L.
    attn: Vec<Matrix>,
    /// Concatenated per-head context (pre output-projection).
    context: Matrix,
}

/// Causal multi-head self-attention: `y = softmax(QK^T / sqrt(dk)) V W_o`.
///
/// Input is `(batch * seq_len) x hidden`, rows grouped by sequence: rows
/// `[s*L, (s+1)*L)` form sequence `s` — the same folding Megatron-LM uses
/// before its attention GEMMs. A causal mask forbids attending to future
/// positions.
#[derive(Clone)]
pub struct MultiHeadAttention {
    hidden: usize,
    heads: usize,
    seq_len: usize,
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    grad_wq: Matrix,
    grad_wk: Matrix,
    grad_wv: Matrix,
    grad_wo: Matrix,
    cache: VecDeque<AttnCache>,
    scratch: AttnScratch,
}

impl std::fmt::Debug for MultiHeadAttention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MultiHeadAttention(hidden={}, heads={}, seq_len={})",
            self.hidden, self.heads, self.seq_len
        )
    }
}

impl MultiHeadAttention {
    /// Creates an attention layer.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn new(hidden: usize, heads: usize, seq_len: usize, rng: &mut SeedStream) -> Self {
        assert!(
            hidden.is_multiple_of(heads),
            "hidden must be divisible by heads"
        );
        Self {
            hidden,
            heads,
            seq_len,
            wq: xavier_uniform(rng, hidden, hidden),
            wk: xavier_uniform(rng, hidden, hidden),
            wv: xavier_uniform(rng, hidden, hidden),
            wo: xavier_uniform(rng, hidden, hidden),
            grad_wq: Matrix::zeros(hidden, hidden),
            grad_wk: Matrix::zeros(hidden, hidden),
            grad_wv: Matrix::zeros(hidden, hidden),
            grad_wo: Matrix::zeros(hidden, hidden),
            cache: VecDeque::new(),
            scratch: AttnScratch::default(),
        }
    }

    /// Head dimensionality `hidden / heads`.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    fn n_sequences(&self, rows: usize) -> usize {
        assert!(
            rows.is_multiple_of(self.seq_len),
            "input rows {rows} not a multiple of seq_len {}",
            self.seq_len
        );
        rows / self.seq_len
    }

    /// Row-wise softmax with causal masking applied to an `L x L` score
    /// matrix: position `i` attends to positions `0..=i`.
    fn causal_softmax(scores: &Matrix) -> Matrix {
        let l = scores.rows();
        let mut out = Matrix::zeros(l, l);
        for i in 0..l {
            let row = scores.row(i);
            let visible = &row[..=i];
            let max = visible.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut denom = 0.0;
            for (j, &s) in visible.iter().enumerate() {
                let e = (s - max).exp();
                out[(i, j)] = e;
                denom += e;
            }
            for j in 0..=i {
                out[(i, j)] /= denom;
            }
        }
        out
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let n_seq = self.n_sequences(x.rows());
        let l = self.seq_len;
        let dk = self.head_dim();
        let scale = 1.0 / (dk as f32).sqrt();

        let q = x.matmul(&self.wq);
        let k = x.matmul(&self.wk);
        let v = x.matmul(&self.wv);

        let mut context = Matrix::zeros(x.rows(), self.hidden);
        let mut attn = Vec::with_capacity(n_seq * self.heads);
        let sc = &mut self.scratch;
        for s in 0..n_seq {
            for h in 0..self.heads {
                let (r0, r1) = (s * l, (s + 1) * l);
                let (c0, c1) = (h * dk, (h + 1) * dk);
                q.slice_block_into(r0, r1, c0, c1, &mut sc.qh);
                k.slice_block_into(r0, r1, c0, c1, &mut sc.kh);
                v.slice_block_into(r0, r1, c0, c1, &mut sc.vh);
                sc.qh.matmul_t_into(&sc.kh, &mut sc.scores);
                sc.scores.scale_assign(scale);
                // The softmax output is cached for backward, so it is the
                // one per-head tensor that still allocates.
                let a = Self::causal_softmax(&sc.scores);
                // ctx_h is L x dk; paste it into the context block for
                // this sequence.
                a.matmul_into(&sc.vh, &mut sc.ctx_h);
                for (i, row) in (r0..r1).enumerate() {
                    let dst = context.row_mut(row);
                    dst[c0..c1].copy_from_slice(sc.ctx_h.row(i));
                }
                attn.push(a);
            }
        }
        let y = context.matmul(&self.wo);
        self.cache.push_back(AttnCache {
            x: x.clone(),
            q,
            k,
            v,
            attn,
            context,
        });
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let c = self
            .cache
            .pop_front()
            .expect("Attention::backward without forward");
        let n_seq = self.n_sequences(grad_out.rows());
        let l = self.seq_len;
        let dk = self.head_dim();
        let scale = 1.0 / (dk as f32).sqrt();

        // y = context * Wo
        let sc = &mut self.scratch;
        c.context.t_matmul_into(grad_out, &mut sc.acc);
        self.grad_wo.add_assign(&sc.acc);
        grad_out.matmul_t_into(&self.wo, &mut sc.d_context);

        let mut dq = Matrix::zeros(grad_out.rows(), self.hidden);
        let mut dk_mat = Matrix::zeros(grad_out.rows(), self.hidden);
        let mut dv = Matrix::zeros(grad_out.rows(), self.hidden);

        for s in 0..n_seq {
            for h in 0..self.heads {
                let a = &c.attn[s * self.heads + h]; // L x L
                let (r0, r1) = (s * l, (s + 1) * l);
                let (c0, c1) = (h * dk, (h + 1) * dk);
                c.q.slice_block_into(r0, r1, c0, c1, &mut sc.qh);
                c.k.slice_block_into(r0, r1, c0, c1, &mut sc.kh);
                c.v.slice_block_into(r0, r1, c0, c1, &mut sc.vh);
                sc.d_context
                    .slice_block_into(r0, r1, c0, c1, &mut sc.d_ctx_h);

                // ctx_h = A vh
                sc.d_ctx_h.matmul_t_into(&sc.vh, &mut sc.d_a); // L x L
                a.t_matmul_into(&sc.d_ctx_h, &mut sc.d_vh); // L x dk

                // Softmax backward per row: dS = A ⊙ (dA - rowsum(dA ⊙ A)).
                if sc.d_s.shape() == (l, l) {
                    sc.d_s.fill_zero();
                } else {
                    sc.d_s = Matrix::zeros(l, l);
                }
                for i in 0..l {
                    let mut dot = 0.0;
                    for j in 0..=i {
                        dot += sc.d_a[(i, j)] * a[(i, j)];
                    }
                    for j in 0..=i {
                        sc.d_s[(i, j)] = a[(i, j)] * (sc.d_a[(i, j)] - dot);
                    }
                }
                // scores = qh kh^T * scale
                sc.d_s.matmul_into(&sc.kh, &mut sc.d_qh);
                sc.d_qh.scale_assign(scale);
                sc.d_s.t_matmul_into(&sc.qh, &mut sc.d_kh);
                sc.d_kh.scale_assign(scale);

                // Scatter head gradients back into full-width matrices.
                for (i, row) in (r0..r1).enumerate() {
                    dq.row_mut(row)[c0..c1].copy_from_slice(sc.d_qh.row(i));
                    dk_mat.row_mut(row)[c0..c1].copy_from_slice(sc.d_kh.row(i));
                    dv.row_mut(row)[c0..c1].copy_from_slice(sc.d_vh.row(i));
                }
            }
        }

        // q = x Wq etc.
        c.x.t_matmul_into(&dq, &mut sc.acc);
        self.grad_wq.add_assign(&sc.acc);
        c.x.t_matmul_into(&dk_mat, &mut sc.acc);
        self.grad_wk.add_assign(&sc.acc);
        c.x.t_matmul_into(&dv, &mut sc.acc);
        self.grad_wv.add_assign(&sc.acc);
        let mut dx = dq.matmul_t(&self.wq);
        dk_mat.matmul_t_into(&self.wk, &mut sc.acc);
        dx.add_assign(&sc.acc);
        dv.matmul_t_into(&self.wv, &mut sc.acc);
        dx.add_assign(&sc.acc);
        dx
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "attn.wq",
                value: &mut self.wq,
                grad: &mut self.grad_wq,
            },
            ParamRef {
                name: "attn.wk",
                value: &mut self.wk,
                grad: &mut self.grad_wk,
            },
            ParamRef {
                name: "attn.wv",
                value: &mut self.wv,
                grad: &mut self.grad_wv,
            },
            ParamRef {
                name: "attn.wo",
                value: &mut self.wo,
                grad: &mut self.grad_wo,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::check_input_gradient;

    #[test]
    #[should_panic(expected = "divisible by heads")]
    fn indivisible_heads_panics() {
        let _ = MultiHeadAttention::new(6, 4, 4, &mut SeedStream::new(0));
    }

    #[test]
    fn causal_softmax_rows_sum_to_one_and_mask_future() {
        let scores = Matrix::from_fn(4, 4, |r, c| (r + c) as f32 * 0.1);
        let a = MultiHeadAttention::causal_softmax(&scores);
        for i in 0..4 {
            let row_sum: f32 = a.row(i).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
            for j in (i + 1)..4 {
                assert_eq!(a[(i, j)], 0.0, "future position ({i},{j}) not masked");
            }
        }
    }

    #[test]
    fn forward_shape_preserved() {
        let mut rng = SeedStream::new(1);
        let mut attn = MultiHeadAttention::new(8, 2, 4, &mut rng);
        let x = rng.uniform_matrix(8, 8, 0.5); // 2 sequences of length 4
        let y = attn.forward(&x);
        assert_eq!(y.shape(), (8, 8));
    }

    #[test]
    fn first_position_attends_only_to_itself() {
        // With causal masking, output at position 0 is v[0] * Wo regardless
        // of other positions.
        let mut rng = SeedStream::new(2);
        let mut attn = MultiHeadAttention::new(4, 1, 3, &mut rng);
        let x1 = rng.uniform_matrix(3, 4, 0.5);
        let mut x2 = x1.clone();
        // Perturb positions 1, 2: output row 0 must not change.
        for c in 0..4 {
            x2[(1, c)] += 1.0;
            x2[(2, c)] -= 1.0;
        }
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        for c in 0..4 {
            assert!((y1[(0, c)] - y2[(0, c)]).abs() < 1e-6);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        check_input_gradient(
            || MultiHeadAttention::new(4, 2, 3, &mut SeedStream::new(33)),
            3,
            4,
            3e-2,
        );
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let mut rng = SeedStream::new(8);
        let x = rng.uniform_matrix(4, 4, 0.5); // one sequence of length 4
        let probe = rng.uniform_matrix(4, 4, 1.0);
        let make = || MultiHeadAttention::new(4, 2, 4, &mut SeedStream::new(55));
        let mut layer = make();
        layer.forward(&x);
        layer.backward(&probe);
        // Check a few entries of each weight gradient.
        for (pi, name) in ["attn.wq", "attn.wk", "attn.wv", "attn.wo"]
            .iter()
            .enumerate()
        {
            let analytic = layer.params()[pi].grad.clone();
            for idx in [0usize, 7, 15] {
                let perturb = |delta: f32| {
                    let mut l = make();
                    l.params()[pi].value.as_mut_slice()[idx] += delta;
                    l.forward(&x).dot(&probe)
                };
                let eps = 1e-3;
                let numeric = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                let got = analytic.as_slice()[idx];
                assert!(
                    (numeric - got).abs() < 3e-2 * (1.0 + numeric.abs()),
                    "{name}[{idx}]: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn fifo_cache_supports_pipelined_microbatches() {
        let mut rng = SeedStream::new(3);
        let mut attn = MultiHeadAttention::new(4, 1, 2, &mut rng);
        let x1 = rng.uniform_matrix(2, 4, 0.5);
        let x2 = rng.uniform_matrix(2, 4, 0.5);
        let y1 = attn.forward(&x1);
        let _y2 = attn.forward(&x2);
        assert_eq!(attn.pending_activations(), 2);
        // Backward for x1 first: compare against a fresh layer doing only x1.
        let mut fresh = MultiHeadAttention::new(4, 1, 2, &mut SeedStream::new(3));
        // Copy weights so both layers are identical.
        for (dst, src) in fresh.params().into_iter().zip(attn.params()) {
            *dst.value = src.value.clone();
        }
        let y1_fresh = fresh.forward(&x1);
        assert!(y1.sub(&y1_fresh).max_abs() < 1e-6);
        let g = Matrix::full(2, 4, 1.0);
        let dx = attn.backward(&g);
        let dx_fresh = fresh.backward(&g);
        assert!(dx.sub(&dx_fresh).max_abs() < 1e-6);
    }
}
