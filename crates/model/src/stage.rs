//! Pipeline stages: consecutive slices of a GPT model.

use crate::{Embedding, GptConfig, Layer, LayerNorm, ParamRef, TransformerBlock};
use opt_tensor::{Matrix, SeedStream};

/// One pipeline stage of a GPT model.
///
/// * The **first** stage owns the input [`Embedding`] (token + position).
/// * The **last** stage owns the final [`LayerNorm`] and a *replica* of the
///   embedding table used for the tied output projection. The two replicas
///   start identical and their gradients must be synchronized every
///   iteration — the traffic the paper's fused embedding synchronization
///   (§6) optimizes.
/// * A single-stage pipeline uses one table for both roles (no sync
///   needed), exactly like single-GPU training.
///
/// # Example
///
/// ```
/// use opt_model::{GptConfig, Stage};
/// let mut stages = Stage::build_pipeline(&GptConfig::tiny(), 2, 0);
/// let tokens = vec![1usize, 2, 3, 4, 5, 6, 7, 8];
/// let h0 = stages[0].forward_tokens(&tokens);
/// let logits = stages[1].forward_hidden(&h0);
/// assert_eq!(logits.cols(), 32); // vocab
/// ```
#[derive(Clone)]
pub struct Stage {
    index: usize,
    n_stages: usize,
    embedding: Option<Embedding>,
    blocks: Vec<TransformerBlock>,
    final_ln: Option<LayerNorm>,
    head: Option<Embedding>,
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Stage({}/{}, blocks={}, embedding={}, head={})",
            self.index,
            self.n_stages,
            self.blocks.len(),
            self.embedding.is_some(),
            self.has_head()
        )
    }
}

impl Stage {
    /// Builds all `pp` stages of a pipeline for `cfg`, deterministically
    /// seeded. The first and last stages' embedding tables start identical
    /// (replicated initialization, as Megatron broadcasts them).
    ///
    /// # Panics
    ///
    /// Panics if `pp == 0` or `pp > cfg.n_layers`.
    pub fn build_pipeline(cfg: &GptConfig, pp: usize, seed: u64) -> Vec<Stage> {
        assert!(pp > 0, "pipeline must have at least one stage");
        assert!(pp <= cfg.n_layers, "more stages than layers");
        let mut rng = SeedStream::new(seed);
        let mut emb_rng = rng.fork(0xE0B);
        let input_embedding = Embedding::new(cfg.vocab, cfg.hidden, cfg.seq_len, &mut emb_rng);

        let mut stages = Vec::with_capacity(pp);
        let mut global_layer = 0usize;
        for s in 0..pp {
            let n_blocks = cfg.layers_on_stage(s, pp);
            let mut blocks = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                // Seed by *global* layer index so any pipeline split of the
                // same seed yields bit-identical weights.
                let mut brng = rng.fork(global_layer as u64);
                global_layer += 1;
                blocks.push(TransformerBlock::new(
                    cfg.hidden,
                    cfg.heads,
                    cfg.seq_len,
                    0.0,
                    &mut brng,
                ));
            }
            let is_first = s == 0;
            let is_last = s == pp - 1;
            let embedding = if is_first {
                // The real replica is moved into the first stage below.
                None
            } else {
                None
            };
            let head = if is_last && pp > 1 {
                // Replica with identical table (synchronized init).
                let mut replica =
                    Embedding::new(cfg.vocab, cfg.hidden, cfg.seq_len, &mut emb_rng.fork(1));
                *replica.table_mut() = input_embedding.table().clone();
                Some(replica)
            } else {
                None
            };
            stages.push(Stage {
                index: s,
                n_stages: pp,
                embedding,
                blocks,
                final_ln: is_last.then(|| LayerNorm::new(cfg.hidden)),
                head,
            });
        }
        stages[0].embedding = Some(input_embedding);
        stages
    }

    /// Stage index within the pipeline.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of stages in the pipeline this stage belongs to.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Whether this stage holds the input embedding (first stage).
    pub fn has_embedding(&self) -> bool {
        self.embedding.is_some()
    }

    /// Whether this stage computes logits (last stage).
    pub fn has_head(&self) -> bool {
        self.final_ln.is_some()
    }

    /// Number of transformer blocks on this stage.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Forward pass for the **first** stage: embeds tokens and runs the
    /// stage's blocks. For a single-stage pipeline this also applies the
    /// final norm and tied projection, returning logits.
    ///
    /// # Panics
    ///
    /// Panics if this is not the first stage.
    pub fn forward_tokens(&mut self, tokens: &[usize]) -> Matrix {
        assert!(self.index == 0, "forward_tokens on non-first stage");
        let mut h = self
            .embedding
            .as_mut()
            .expect("first stage has embedding")
            .lookup(tokens);
        for b in &mut self.blocks {
            h = b.forward(&h);
        }
        if self.has_head() {
            h = self.final_ln.as_mut().unwrap().forward(&h);
            h = self.embedding.as_mut().unwrap().project(&h);
        }
        h
    }

    /// Forward pass for middle/last stages on a received hidden matrix.
    /// The last stage returns vocabulary logits.
    ///
    /// # Panics
    ///
    /// Panics if called on the first stage (use
    /// [`Stage::forward_tokens`]).
    pub fn forward_hidden(&mut self, x: &Matrix) -> Matrix {
        assert!(self.index > 0, "use forward_tokens on the first stage");
        // The first block consumes `x` by reference, so the received
        // activation is never copied.
        let mut blocks = self.blocks.iter_mut();
        let mut h = match blocks.next() {
            Some(b) => b.forward(x),
            None => x.clone(),
        };
        for b in blocks {
            h = b.forward(&h);
        }
        if self.has_head() {
            h = self.final_ln.as_mut().unwrap().forward(&h);
            h = self
                .head
                .as_mut()
                .expect("last stage has head replica")
                .project(&h);
        }
        h
    }

    /// Backward pass. For the last stage `grad` is the logits gradient;
    /// for others it is the incoming activation gradient from the next
    /// stage. Returns the gradient to send to the previous stage, or
    /// `None` on the first stage.
    pub fn backward(&mut self, grad: &Matrix) -> Option<Matrix> {
        // Feed `grad` by reference to the first consumer instead of
        // cloning it up front.
        let mut g;
        if self.has_head() {
            g = if self.n_stages == 1 {
                self.embedding.as_mut().unwrap().backward_project(grad)
            } else {
                self.head.as_mut().unwrap().backward_project(grad)
            };
            g = self.final_ln.as_mut().unwrap().backward(&g);
            for b in self.blocks.iter_mut().rev() {
                g = b.backward(&g);
            }
        } else {
            let mut blocks = self.blocks.iter_mut().rev();
            g = match blocks.next() {
                Some(b) => b.backward(grad),
                None => grad.clone(),
            };
            for b in blocks {
                g = b.backward(&g);
            }
        }
        if let Some(emb) = &mut self.embedding {
            emb.backward_lookup(&g);
            None
        } else {
            Some(g)
        }
    }

    /// All trainable parameters of this stage (for the optimizer),
    /// including the embedding replica if present.
    pub fn params(&mut self) -> Vec<ParamRef<'_>> {
        let mut out = Vec::new();
        if let Some(emb) = &mut self.embedding {
            let [(t, g), (p, gp)] = emb.both_params();
            out.push(ParamRef {
                name: "embedding.table",
                value: t,
                grad: g,
            });
            out.push(ParamRef {
                name: "embedding.pos",
                value: p,
                grad: gp,
            });
        }
        for b in &mut self.blocks {
            out.extend(b.params());
        }
        if let Some(ln) = &mut self.final_ln {
            out.extend(ln.params());
        }
        if let Some(h) = &mut self.head {
            let (t, g) = h.table_param();
            out.push(ParamRef {
                name: "head.table",
                value: t,
                grad: g,
            });
        }
        out
    }

    /// Parameters excluding the embedding/head tables — the tensors whose
    /// gradients go through the *per-stage* data-parallel all-reduce (the
    /// tables follow the embedding-synchronization path instead).
    pub fn non_embedding_params(&mut self) -> Vec<ParamRef<'_>> {
        self.params()
            .into_iter()
            .filter(|p| p.name != "embedding.table" && p.name != "head.table")
            .collect()
    }

    /// The embedding-table gradient replica on this stage, if any: the
    /// input table on the first stage, the tied head table on the last.
    pub fn embedding_grad(&self) -> Option<&Matrix> {
        if let Some(e) = &self.embedding {
            Some(e.grad())
        } else {
            self.head.as_ref().map(|h| h.grad())
        }
    }

    /// Replaces the embedding-table gradient after synchronization.
    ///
    /// # Panics
    ///
    /// Panics if this stage holds no embedding replica or shapes mismatch.
    pub fn set_embedding_grad(&mut self, grad: Matrix) {
        if let Some(e) = &mut self.embedding {
            e.set_grad(grad);
        } else if let Some(h) = &mut self.head {
            h.set_grad(grad);
        } else {
            panic!("stage {} holds no embedding replica", self.index);
        }
    }

    /// Zeroes every gradient accumulator on the stage.
    pub fn zero_grad(&mut self) {
        if let Some(e) = &mut self.embedding {
            e.zero_grad();
        }
        for b in &mut self.blocks {
            b.zero_grad();
        }
        if let Some(ln) = &mut self.final_ln {
            ln.zero_grad();
        }
        if let Some(h) = &mut self.head {
            h.zero_grad();
        }
    }

    /// Total scalar parameter count of this stage.
    pub fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Clones every parameter tensor in [`Stage::params`] order — the
    /// stage's contribution to a training checkpoint. Gradients are not
    /// exported: snapshots are taken at iteration boundaries, where every
    /// gradient accumulator is zero.
    pub fn export_state(&mut self) -> Vec<Matrix> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }

    /// Overwrites every parameter tensor from a [`Stage::export_state`]
    /// vector and zeroes the gradient accumulators, restoring the stage to
    /// an iteration boundary.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match this stage's parameter list in
    /// length or shapes (checkpoint/config mismatch — callers validate
    /// snapshot integrity and config fingerprints before getting here).
    pub fn import_state(&mut self, values: &[Matrix]) {
        let mut params = self.params();
        assert_eq!(
            params.len(),
            values.len(),
            "checkpoint has {} parameter tensors, stage expects {}",
            values.len(),
            params.len()
        );
        for (p, v) in params.iter_mut().zip(values) {
            assert_eq!(
                p.value.shape(),
                v.shape(),
                "checkpoint shape mismatch on {}",
                p.name
            );
            *p.value = v.clone();
        }
        drop(params);
        self.zero_grad();
    }

    /// Drops every cached activation on this stage. Call after an
    /// evaluation-only forward pass (validation / zero-shot probes) so the
    /// FIFO caches stay aligned for training.
    pub fn clear_caches(&mut self) {
        if let Some(e) = &mut self.embedding {
            e.clear_caches();
        }
        for b in &mut self.blocks {
            b.clear_caches();
        }
        if let Some(ln) = &mut self.final_ln {
            ln.clear_caches();
        }
        if let Some(h) = &mut self.head {
            h.clear_caches();
        }
    }

    /// Outstanding cached activations across all layers (0 at iteration
    /// boundaries in a correct schedule).
    pub fn pending_activations(&self) -> usize {
        let mut n = 0;
        if let Some(e) = &self.embedding {
            n += e.pending_activations();
        }
        n += self
            .blocks
            .iter()
            .map(|b| b.pending_activations())
            .sum::<usize>();
        if let Some(h) = &self.head {
            n += h.pending_activations();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross_entropy;

    fn tokens_for(cfg: &GptConfig, n_seq: usize) -> Vec<usize> {
        (0..n_seq * cfg.seq_len).map(|i| i % cfg.vocab).collect()
    }

    #[test]
    fn pipeline_structure_first_and_last() {
        let stages = Stage::build_pipeline(&GptConfig::tiny(), 4, 0);
        assert_eq!(stages.len(), 4);
        assert!(stages[0].has_embedding() && !stages[0].has_head());
        assert!(!stages[1].has_embedding() && !stages[1].has_head());
        assert!(stages[3].has_head() && !stages[3].has_embedding());
        let total_blocks: usize = stages.iter().map(Stage::n_blocks).sum();
        assert_eq!(total_blocks, 4);
    }

    #[test]
    fn single_stage_pipeline_ties_embedding() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 1, 0);
        let tokens = tokens_for(&cfg, 1);
        let logits = stages[0].forward_tokens(&tokens);
        assert_eq!(logits.shape(), (cfg.seq_len, cfg.vocab));
        // Backward consumes all caches.
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let out = cross_entropy(&logits, &targets);
        assert!(stages[0].backward(&out.grad_logits).is_none());
        assert_eq!(stages[0].pending_activations(), 0);
    }

    #[test]
    fn replicated_tables_start_identical() {
        let cfg = GptConfig::tiny();
        let stages = Stage::build_pipeline(&cfg, 4, 7);
        let first = stages[0].embedding.as_ref().unwrap().table().clone();
        let last = stages[3].head.as_ref().unwrap().table().clone();
        assert_eq!(first, last);
    }

    #[test]
    fn multi_stage_forward_backward_roundtrip() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 1);
        let tokens = tokens_for(&cfg, 2);
        let h0 = stages[0].forward_tokens(&tokens);
        let logits = {
            let (_, rest) = stages.split_at_mut(1);
            rest[0].forward_hidden(&h0)
        };
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let out = cross_entropy(&logits, &targets);
        let g1 = stages[1]
            .backward(&out.grad_logits)
            .expect("grad to stage 0");
        assert_eq!(g1.shape(), h0.shape());
        assert!(stages[0].backward(&g1).is_none());
        for s in &stages {
            assert_eq!(s.pending_activations(), 0);
        }
    }

    #[test]
    fn pipeline_split_matches_monolithic_model() {
        // A 2-stage pipeline must compute exactly the same function as the
        // 1-stage model with identical seeds.
        let cfg = GptConfig::tiny();
        let mut mono = Stage::build_pipeline(&cfg, 1, 42);
        let mut split = Stage::build_pipeline(&cfg, 2, 42);
        let tokens = tokens_for(&cfg, 1);
        let logits_mono = mono[0].forward_tokens(&tokens);
        let h = split[0].forward_tokens(&tokens);
        let logits_split = split[1].forward_hidden(&h);
        assert!(
            logits_mono.sub(&logits_split).max_abs() < 1e-5,
            "split pipeline diverges from monolithic model"
        );
    }

    #[test]
    fn embedding_grads_appear_on_both_end_stages() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 3);
        let tokens = tokens_for(&cfg, 1);
        let h0 = stages[0].forward_tokens(&tokens);
        let logits = stages[1].forward_hidden(&h0);
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let out = cross_entropy(&logits, &targets);
        let g = stages[1].backward(&out.grad_logits).unwrap();
        stages[0].backward(&g);
        let g_first = stages[0].embedding_grad().unwrap();
        let g_last = stages[1].embedding_grad().unwrap();
        assert!(g_first.norm() > 0.0, "input-side embedding grad empty");
        assert!(g_last.norm() > 0.0, "head-side embedding grad empty");
        // The two replicas see *different* gradients — that is why the
        // paper needs embedding synchronization at all.
        assert!(g_first.sub(g_last).norm() > 1e-6);
    }

    #[test]
    fn non_embedding_params_exclude_tables() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 0);
        for s in &mut stages {
            for p in s.non_embedding_params() {
                assert!(p.name != "embedding.table" && p.name != "head.table");
            }
        }
    }

    #[test]
    fn param_counts_are_consistent_across_splits() {
        let cfg = GptConfig::tiny();
        let count = |pp: usize| -> usize {
            Stage::build_pipeline(&cfg, pp, 0)
                .iter_mut()
                .map(Stage::param_count)
                .sum()
        };
        // pp=2..4 hold one extra vocab*hidden table (the head replica)
        // compared to pp=1 where the table is shared.
        let single = count(1);
        let replica = cfg.vocab * cfg.hidden;
        for pp in [2usize, 4] {
            assert_eq!(count(pp), single + replica, "pp={pp}");
        }
    }

    #[test]
    fn set_embedding_grad_roundtrip() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 0);
        let g = Matrix::full(cfg.vocab, cfg.hidden, 0.5);
        stages[0].set_embedding_grad(g.clone());
        assert_eq!(stages[0].embedding_grad().unwrap(), &g);
    }

    #[test]
    fn export_import_state_roundtrip() {
        let cfg = GptConfig::tiny();
        let mut a = Stage::build_pipeline(&cfg, 2, 0);
        let mut b = Stage::build_pipeline(&cfg, 2, 99); // different weights
        let tokens = tokens_for(&cfg, 1);
        let la = {
            let h = a[0].forward_tokens(&tokens);
            let l = a[1].forward_hidden(&h);
            a.iter_mut().for_each(Stage::clear_caches);
            l
        };
        for (src, dst) in a.iter_mut().zip(b.iter_mut()) {
            dst.import_state(&src.export_state());
        }
        let lb = {
            let h = b[0].forward_tokens(&tokens);
            let l = b[1].forward_hidden(&h);
            b.iter_mut().for_each(Stage::clear_caches);
            l
        };
        assert_eq!(la, lb, "imported stage computes a different function");
    }

    #[test]
    #[should_panic(expected = "checkpoint shape mismatch")]
    fn import_state_rejects_wrong_shapes() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 1, 0);
        let mut state = stages[0].export_state();
        state[0] = Matrix::zeros(1, 1);
        stages[0].import_state(&state);
    }

    #[test]
    #[should_panic(expected = "more stages than layers")]
    fn too_many_stages_panics() {
        let _ = Stage::build_pipeline(&GptConfig::tiny(), 5, 0);
    }
}
