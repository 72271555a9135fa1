//! Layer probes: timed calls into each crate's public functions at a
//! workload's shapes. Each probe reports the median of many samples.

use crate::metrics::Outcome;
use crate::stats::median;
use crate::workload::Workload;
use opt_compress::{Compressed, LazyErrorPropagator, PowerSgd};
use opt_model::{cross_entropy, Adam, Optimizer, Stage};
use opt_net::{channel_id, CollectiveWorld, P2pMesh, TcpTransport, TrafficLedger, Transport};
use opt_tensor::{orthonormalize_columns, relative_error, Matrix, SeedStream};
use optimus_cc::{DistPowerSgd, QualityConfig, TrainerConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe samples for.
const BUDGET: Duration = Duration::from_millis(150);
/// A sample batches calls until it lasts at least this long, so timer
/// overhead stays small against sub-microsecond calls.
const MIN_SAMPLE: Duration = Duration::from_micros(20);
/// Round trips of the two-party probes (all-reduce, TCP ping-pong).
const ROUNDS: usize = 300;

/// Median microseconds per call of `f`, sampled for [`BUDGET`].
fn time_us(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().max(Duration::from_nanos(1));
    let batch = (MIN_SAMPLE.as_nanos() / one.as_nanos()).clamp(1, 10_000) as usize;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&samples)
}

/// Median microseconds of `f`, with `prepare` run untimed before each
/// sample (for calls that consume or mutate their input).
fn time_prepared_us<T>(mut prepare: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < BUDGET {
        let input = prepare();
        let t = Instant::now();
        f(input);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Runs every probe at `w`'s shapes and records its metric.
pub fn run(w: &Workload, out: &mut Outcome) -> Result<(), String> {
    tensor(out);
    let cfg = &w.cfg;
    let rows = cfg.micro_batch * cfg.model.seq_len;
    let hidden = cfg.model.hidden;
    model(cfg, out);
    compress(cfg, out);
    net(rows, hidden, out)?;
    let corpus = cfg.corpus();
    let mut key = 0u64;
    out.set(
        "data.batch_us",
        time_us(|| {
            key += 1;
            black_box(corpus.train_batch(cfg.micro_batch, key));
        }),
    );
    Ok(())
}

/// GEMM, PowerSGD Q-side GEMM and Gram–Schmidt. Shapes are pinned to the
/// workloads that stress them, whichever workload runs: the small GEMM is
/// `pipe_cb`'s per-micro attention projection (16x16 by 16x16, 8 KiFLOP,
/// below the kernel layer's small-shape cutoff); the rest are `dp_psgd`'s
/// MLP up-projection (64x32 by 32x128) and its rank-4 PowerSGD factors.
fn tensor(out: &mut Outcome) {
    let pipe = Workload::named("pipe_cb", 0).expect("pipe_cb exists").cfg;
    let dp = Workload::named("dp_psgd", 0).expect("dp_psgd exists").cfg;
    let mut rng = SeedStream::new(11);

    let (r, h) = (pipe.micro_batch * pipe.model.seq_len, pipe.model.hidden);
    let (a, b) = (rng.uniform_matrix(r, h, 1.0), rng.uniform_matrix(h, h, 1.0));
    let mut c = Matrix::zeros(r, h);
    out.set(
        "tensor.gemm_small_us",
        time_us(|| black_box(&a).matmul_into(black_box(&b), &mut c)),
    );

    let (r, h) = (dp.micro_batch * dp.model.seq_len, dp.model.hidden);
    let (a, b) = (
        rng.uniform_matrix(r, h, 1.0),
        rng.uniform_matrix(h, 4 * h, 1.0),
    );
    let mut c = Matrix::zeros(r, 4 * h);
    let us = time_us(|| black_box(&a).matmul_into(black_box(&b), &mut c));
    out.set("tensor.gemm_us", us);
    out.set(
        "tensor.gemm_gflops",
        2.0 * (r * h * 4 * h) as f64 / us / 1e3,
    );

    // PowerSGD on the (h x 4h) weight gradient: Q = G^T P.
    let rank = QualityConfig::SMALL_DP_RANK;
    let g = rng.uniform_matrix(h, 4 * h, 1.0);
    let mut p = rng.uniform_matrix(h, rank, 1.0);
    let mut q = Matrix::zeros(4 * h, rank);
    out.set(
        "tensor.t_matmul_us",
        time_us(|| black_box(&g).t_matmul_into(black_box(&p), &mut q)),
    );
    out.set(
        "tensor.orthonormalize_us",
        time_us(|| orthonormalize_columns(black_box(&mut p))),
    );
}

/// Forward and backward of one micro-batch through each stage, and the
/// Adam step, averaged over stages.
fn model(cfg: &TrainerConfig, out: &mut Outcome) {
    let mut stages = Stage::build_pipeline(&cfg.model, cfg.pp, cfg.seed);
    let corpus = cfg.corpus();
    let pp = stages.len();
    let (mut fwd, mut bwd) = (vec![Vec::new(); pp], vec![Vec::new(); pp]);
    let start = Instant::now();
    let mut key = 0u64;
    while fwd[0].len() < 5 || start.elapsed() < BUDGET * 2 {
        key += 1;
        let batch = corpus.train_batch(cfg.micro_batch, key);
        let mut x = None;
        for (s, stage) in stages.iter_mut().enumerate() {
            let t = Instant::now();
            let y = match &x {
                None => stage.forward_tokens(&batch.tokens),
                Some(h) => stage.forward_hidden(h),
            };
            fwd[s].push(t.elapsed().as_secs_f64() * 1e6);
            x = Some(y);
        }
        let logits = x.expect("at least one stage");
        let mut grad = Some(cross_entropy(&logits, &batch.targets).grad_logits);
        for s in (0..pp).rev() {
            let g = grad.take().expect("upstream gradient");
            let t = Instant::now();
            grad = stages[s].backward(&g);
            bwd[s].push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mean_of_medians = |v: &[Vec<f64>]| v.iter().map(|s| median(s)).sum::<f64>() / pp as f64;
    out.set("model.fwd_us", mean_of_medians(&fwd));
    out.set("model.bwd_us", mean_of_medians(&bwd));

    let mut opt_us = 0.0;
    for stage in &mut stages {
        let mut adam = Adam::new(cfg.lr);
        opt_us += time_us(|| adam.step(&mut stage.params()));
    }
    out.set("model.optimizer_us", opt_us / pp as f64);
}

/// The inter-stage gradient of one micro-batch at `cfg`'s model: the
/// model is split in two stages for the probe, so pipeline-free
/// workloads get the gradient their shapes would put on the wire.
fn interstage_grad(cfg: &TrainerConfig) -> Matrix {
    let mut stages = Stage::build_pipeline(&cfg.model, 2, cfg.seed);
    let batch = cfg.corpus().train_batch(cfg.micro_batch, 1);
    let h = stages[0].forward_tokens(&batch.tokens);
    let logits = stages[1].forward_hidden(&h);
    let g = cross_entropy(&logits, &batch.targets).grad_logits;
    stages[1]
        .backward(&g)
        .expect("second stage has an upstream")
}

/// Compressed backpropagation (lazy-error PowerSGD on the inter-stage
/// gradient) and selective-stage DP compression (`DistPowerSgd` on the
/// first stage's gradients).
fn compress(cfg: &TrainerConfig, out: &mut Outcome) {
    let grad = interstage_grad(cfg);
    let fresh =
        || LazyErrorPropagator::new(PowerSgd::new(QualityConfig::SMALL_CB_RANK, cfg.seed), true);
    let (payload, _) = fresh().process(&grad, true);
    out.set("compress.ratio", payload.ratio());
    out.set(
        "compress.rel_error",
        relative_error(&grad, &payload.decompress()) as f64,
    );
    let mut link = fresh();
    out.set(
        "compress.cb_encode_us",
        time_us(|| {
            black_box(link.process(black_box(&grad), true));
        }),
    );
    out.set(
        "compress.cb_decode_us",
        time_us(|| {
            black_box(black_box(&payload).decompress());
        }),
    );

    // The first stage's DP gradients after one micro-batch.
    let mut stage = Stage::build_pipeline(&cfg.model, cfg.pp, cfg.seed).remove(0);
    let batch = cfg.corpus().train_batch(cfg.micro_batch, 1);
    let h = stage.forward_tokens(&batch.tokens);
    let g = if stage.has_head() {
        cross_entropy(&h, &batch.targets).grad_logits
    } else {
        SeedStream::new(cfg.seed).uniform_matrix(h.rows(), h.cols(), 1e-2)
    };
    stage.backward(&g);
    let grads: Vec<Matrix> = stage
        .non_embedding_params()
        .iter()
        .map(|p| p.grad.clone())
        .collect();
    let rank = QualityConfig::SMALL_DP_RANK;
    let group = CollectiveWorld::new(1).group(&[0]);
    let ledger = TrafficLedger::new();
    let mut dp = DistPowerSgd::new(rank, grads.len(), cfg.seed);
    // With a single member the all-reduces are identities, so this times
    // the factorization (P and Q GEMMs, Gram–Schmidt) plus the P Q^T
    // reconstruction the exchange ends with.
    out.set(
        "compress.dp_encode_us",
        time_prepared_us(
            || grads.clone(),
            |mut gs| {
                for (slot, g) in gs.iter_mut().enumerate() {
                    dp.all_reduce(&group, 0, slot, g, &ledger);
                }
                black_box(gs);
            },
        ),
    );
    let mut rng = SeedStream::new(cfg.seed);
    let factors: Vec<Compressed> = grads
        .iter()
        .filter(|g| g.rows() > 1 && g.cols() > 1)
        .map(|g| {
            let r = rank.min(g.rows()).min(g.cols());
            Compressed::LowRank {
                p: rng.uniform_matrix(g.rows(), r, 1.0),
                q: rng.uniform_matrix(g.cols(), r, 1.0),
            }
        })
        .collect();
    out.set(
        "compress.dp_decode_us",
        time_us(|| {
            for f in &factors {
                black_box(f.decompress());
            }
        }),
    );
}

/// One in-process p2p hop, one 2-rank all-reduce of a DP-sized gradient,
/// and one loopback TCP hop, all carrying `rows x hidden` activations
/// except the all-reduce.
fn net(rows: usize, hidden: usize, out: &mut Outcome) -> Result<(), String> {
    let mut rng = SeedStream::new(5);
    let act = rng.uniform_matrix(rows, hidden, 1.0);

    let mesh: P2pMesh<Matrix> = P2pMesh::new(2);
    out.set(
        "net.p2p_hop_us",
        time_us(|| {
            mesh.send(0, 1, act.clone());
            black_box(mesh.recv(0, 1).expect("local hop"));
        }),
    );

    let world = CollectiveWorld::new(2);
    let group = world.group(&[0, 1]);
    let grad = rng.uniform_matrix(hidden, 4 * hidden, 1.0);
    let allreduce = std::thread::scope(|sc| {
        let peer = sc.spawn(|| {
            for _ in 0..ROUNDS {
                group.all_reduce_mean(1, grad.clone())?;
            }
            Ok::<_, opt_net::RecvError>(())
        });
        let mut samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            black_box(group.all_reduce_mean(0, grad.clone())?);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        peer.join().expect("all-reduce peer panicked")?;
        Ok::<_, opt_net::RecvError>(median(&samples))
    })
    .map_err(|e| format!("all-reduce probe: {e}"))?;
    out.set("net.allreduce_us", allreduce);

    out.set("net.tcp_hop_us", tcp_hop_us(&act)?);
    Ok(())
}

/// Half the median round trip of `act` between two TCP endpoints of one
/// process over loopback, each side on its own thread.
fn tcp_hop_us(act: &Matrix) -> Result<f64, String> {
    let e = |e: opt_net::TransportError| format!("tcp probe: {e}");
    let timeout = Duration::from_secs(30);
    let b0 = TcpTransport::bind(2, 0, "127.0.0.1:0").map_err(e)?;
    let b1 = TcpTransport::bind(2, 1, "127.0.0.1:0").map_err(e)?;
    let endpoints = [b0.addr(), b1.addr()];
    let ch = channel_id(4, 0);
    std::thread::scope(|sc| {
        let peer = sc.spawn(move || {
            let t1 = b1.establish(&endpoints, timeout)?;
            for _ in 0..ROUNDS {
                let m: Matrix = t1.recv_value(0, 1, ch, timeout)?;
                t1.send_value(1, 0, ch, m)?;
            }
            Ok(())
        });
        let t0 = b0.establish(&endpoints, timeout).map_err(e)?;
        let mut samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            t0.send_value(0, 1, ch, act.clone()).map_err(e)?;
            let back: Matrix = t0.recv_value(1, 0, ch, timeout).map_err(e)?;
            black_box(back);
            samples.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
        }
        peer.join().expect("tcp peer panicked").map_err(e)?;
        Ok(median(&samples))
    })
}
