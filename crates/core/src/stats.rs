//! Metrics collected during a training run.

use opt_net::TrafficBreakdown;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One validation measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValPoint {
    /// Iteration at which validation ran.
    pub iter: u64,
    /// Mean validation loss (nats/token).
    pub loss: f32,
}

impl ValPoint {
    /// Validation perplexity `exp(loss)` — the paper's metric.
    pub fn perplexity(&self) -> f32 {
        self.loss.exp()
    }
}

/// One Fig. 11 sample from an inter-stage link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStatPoint {
    /// Iteration the sample was taken in.
    pub iter: u64,
    /// Pipeline stage holding the lazy-error buffer (the sender).
    pub stage: usize,
    /// Mean of the preserved error elements (`Avg(eps)`, ~0 per Eq. 14).
    pub error_mean: f32,
    /// Mean of the activation difference `Y(i) - Y(i+n)` (~0 per Eq. 14).
    pub act_diff_mean: f32,
    /// Cosine similarity between error and activation difference (~0:
    /// independence, the paper's empirical validation of Eq. 14).
    pub cosine: f32,
}

impl opt_tensor::Persist for ErrorStatPoint {
    fn persist(&self, w: &mut opt_tensor::Writer) {
        w.u64(self.iter);
        w.usize(self.stage);
        w.f32(self.error_mean);
        w.f32(self.act_diff_mean);
        w.f32(self.cosine);
    }

    fn restore(r: &mut opt_tensor::Reader<'_>) -> Result<Self, opt_tensor::PersistError> {
        Ok(Self {
            iter: r.u64()?,
            stage: r.usize()?,
            error_mean: r.f32()?,
            act_diff_mean: r.f32()?,
            cosine: r.f32()?,
        })
    }
}

/// Final report of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean training loss per iteration (averaged over micro-batches and
    /// data-parallel ranks).
    pub train_loss: Vec<f32>,
    /// Validation curve.
    pub val_points: Vec<ValPoint>,
    /// Fig. 11 error statistics (empty unless enabled).
    pub error_stats: Vec<ErrorStatPoint>,
    /// Wire traffic of the whole run: per-class totals plus the
    /// per-(src, dst, channel) breakdown behind them.
    pub traffic: TrafficBreakdown,
}

impl TrainReport {
    /// The last validation perplexity (NaN if validation never ran).
    pub fn final_val_ppl(&self) -> f32 {
        self.val_points
            .last()
            .map_or(f32::NAN, ValPoint::perplexity)
    }

    /// The last validation loss (NaN if validation never ran).
    pub fn final_val_loss(&self) -> f32 {
        self.val_points.last().map_or(f32::NAN, |p| p.loss)
    }
}

/// Shared collector the worker threads append into.
#[derive(Debug, Clone, Default)]
pub(crate) struct Collector {
    inner: Arc<Mutex<CollectorInner>>,
}

#[derive(Debug, Default)]
struct CollectorInner {
    /// Training losses from last-stage workers (one per micro-batch),
    /// grouped by iteration in arrival order. A map rather than a `Vec`
    /// indexed by iteration, because merged remote samples carry
    /// arbitrary iteration numbers.
    train_samples: BTreeMap<u64, Vec<f32>>,
    /// (iter, loss) validation samples (dp rank 0's pipeline).
    val_samples: Vec<(u64, f32)>,
    error_stats: Vec<ErrorStatPoint>,
}

/// The raw samples of one worker's collector, in wire-friendly form —
/// what a remote worker ships to the coordinator at report time. Merge
/// order across workers does not matter: [`Collector::into_report`] sorts
/// each iteration's samples before the floating-point reduction, so a
/// merged multi-process report is bit-identical to the single shared
/// collector of an in-process run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawSamples {
    /// (iter, loss) training samples, one per micro-batch.
    pub train: Vec<(u64, f32)>,
    /// (iter, loss) validation samples.
    pub val: Vec<(u64, f32)>,
    /// Fig. 11 samples.
    pub error_stats: Vec<ErrorStatPoint>,
}

impl Collector {
    pub fn record_train(&self, iter: u64, loss: f32) {
        self.inner
            .lock()
            .train_samples
            .entry(iter)
            .or_default()
            .push(loss);
    }

    /// Snapshots the raw samples recorded so far (quiesce first: callers
    /// barrier the workers before reading).
    pub fn raw_samples(&self) -> RawSamples {
        let inner = self.inner.lock();
        RawSamples {
            train: inner
                .train_samples
                .iter()
                .flat_map(|(&i, ls)| ls.iter().map(move |&l| (i, l)))
                .collect(),
            val: inner.val_samples.clone(),
            error_stats: inner.error_stats.clone(),
        }
    }

    /// Folds another worker's raw samples into this collector.
    pub fn absorb(&self, raw: &RawSamples) {
        let mut inner = self.inner.lock();
        for &(i, l) in &raw.train {
            inner.train_samples.entry(i).or_default().push(l);
        }
        inner.val_samples.extend_from_slice(&raw.val);
        inner.error_stats.extend_from_slice(&raw.error_stats);
    }

    pub fn record_val(&self, iter: u64, loss: f32) {
        self.inner.lock().val_samples.push((iter, loss));
    }

    /// Discards every sample recorded at or after `iter`. A survivor
    /// rolled back to a checkpoint calls this so the iterations it is
    /// about to replay are not recorded twice — the report after a
    /// rejoin stays bit-identical to an uninterrupted run. Idempotent.
    pub fn truncate_from(&self, iter: u64) {
        let mut inner = self.inner.lock();
        inner.train_samples.split_off(&iter);
        inner.val_samples.retain(|&(i, _)| i < iter);
        inner.error_stats.retain(|p| p.iter < iter);
    }

    pub fn record_error_stat(&self, p: ErrorStatPoint) {
        self.inner.lock().error_stats.push(p);
    }

    /// Aggregates the raw samples into a [`TrainReport`].
    pub fn into_report(self, iters: u64, traffic: TrafficBreakdown) -> TrainReport {
        // Read (and sort) the samples in place: a copy of them would double
        // the collector's footprint, which grows with every iteration trained.
        let mut inner = self.inner.lock();
        // Samples arrive in thread-scheduling order; sort before summing
        // so the floating-point reduction is identical across runs. This
        // is what lets the checkpoint tests assert *bit-equal* losses
        // between a straight run and a kill/restore run.
        let mean_sorted = |ls: &mut [f32]| -> f32 {
            ls.sort_unstable_by(f32::total_cmp);
            ls.iter().sum::<f32>() / ls.len() as f32
        };
        let mut train_loss = vec![f32::NAN; iters as usize];
        for (&it, ls) in inner.train_samples.range_mut(..iters) {
            train_loss[it as usize] = mean_sorted(ls);
        }
        // Error stats arrive in thread-scheduling (or, multi-process,
        // rank-merge) order; each (iter, stage) subsequence comes from a
        // single worker in micro order, so a stable key sort makes the
        // final vector identical however the worlds interleaved.
        let mut error_stats = inner.error_stats.clone();
        error_stats.sort_by_key(|p| (p.iter, p.stage));
        let mut val_iters: Vec<u64> = inner.val_samples.iter().map(|(i, _)| *i).collect();
        val_iters.sort_unstable();
        val_iters.dedup();
        let val_points = val_iters
            .into_iter()
            .map(|it| {
                let mut ls: Vec<f32> = inner
                    .val_samples
                    .iter()
                    .filter(|(i, _)| *i == it)
                    .map(|(_, l)| *l)
                    .collect();
                ValPoint {
                    iter: it,
                    loss: mean_sorted(&mut ls),
                }
            })
            .collect();
        TrainReport {
            train_loss,
            val_points,
            error_stats,
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_per_iteration() {
        let c = Collector::default();
        c.record_train(0, 2.0);
        c.record_train(0, 4.0);
        c.record_train(1, 1.0);
        c.record_val(1, 0.5);
        let report = c.into_report(2, TrafficBreakdown::default());
        assert_eq!(report.train_loss, vec![3.0, 1.0]);
        assert_eq!(report.val_points.len(), 1);
        assert!((report.final_val_ppl() - 0.5f32.exp()).abs() < 1e-6);
    }

    #[test]
    fn shuffled_cross_iteration_arrivals_give_the_same_report_bits() {
        // Iterations 0, 1, 3 and 5 (5 is past the report); 2 and 4 have
        // no samples. Magnitudes differ so the sum's bits depend on order.
        let mut samples = Vec::new();
        for it in [0u64, 1, 3, 5] {
            for k in 0..7u64 {
                let l = (1.0 + k as f32 * 0.37).powi(k as i32 % 4 * 5) * (it + 1) as f32;
                samples.push((it, if k % 3 == 0 { -l } else { l }));
            }
        }
        let want: Vec<u32> = (0..5u64)
            .map(|it| {
                let mut ls: Vec<f32> = samples
                    .iter()
                    .filter(|&&(i, _)| i == it)
                    .map(|&(_, l)| l)
                    .collect();
                ls.sort_unstable_by(f32::total_cmp);
                if ls.is_empty() {
                    f32::NAN.to_bits()
                } else {
                    (ls.iter().sum::<f32>() / ls.len() as f32).to_bits()
                }
            })
            .collect();
        // Fisher-Yates with a fixed LCG: a cross-iteration arrival order.
        let mut shuffled = samples.clone();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        assert_ne!(shuffled, samples);
        // Half recorded directly, half merged from another worker.
        let c = Collector::default();
        let (local, remote) = shuffled.split_at(shuffled.len() / 2);
        for &(i, l) in local {
            c.record_train(i, l);
        }
        c.absorb(&RawSamples {
            train: remote.to_vec(),
            ..RawSamples::default()
        });
        let report = c.into_report(5, TrafficBreakdown::default());
        let got: Vec<u32> = report.train_loss.iter().map(|l| l.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_report_is_nan() {
        let c = Collector::default();
        let report = c.into_report(1, TrafficBreakdown::default());
        assert!(report.train_loss[0].is_nan());
        assert!(report.final_val_ppl().is_nan());
    }

    #[test]
    fn truncate_from_drops_replayed_iterations() {
        let c = Collector::default();
        c.record_train(0, 2.0);
        c.record_train(1, 4.0);
        c.record_train(2, 8.0);
        c.record_val(2, 0.5);
        // Rolled back to the iteration-2 checkpoint: iterations >= 2 will
        // be replayed and re-recorded.
        c.truncate_from(2);
        c.truncate_from(2); // idempotent
        let raw = c.raw_samples();
        assert_eq!(raw.train, vec![(0, 2.0), (1, 4.0)]);
        assert!(raw.val.is_empty());
        c.record_train(2, 8.0);
        c.record_val(2, 0.5);
        let report = c.into_report(3, TrafficBreakdown::default());
        assert_eq!(report.train_loss, vec![2.0, 4.0, 8.0]);
        assert_eq!(report.val_points.len(), 1);
    }
}
