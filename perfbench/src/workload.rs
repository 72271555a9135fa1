//! The benchmark's workloads. Every world has `pp x dp = 2` worker
//! threads or processes, and the kernel pool is one thread wide, so a
//! run fits a 2-core host; a 4-rank 3D world would oversubscribe it.

use optimus_cc::{QualityConfig, TrainerConfig};

/// Which fabric carries the world's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Worker threads over the in-process `LocalTransport`.
    Local,
    /// One `opt-worker` process per rank over loopback TCP, checkpoint
    /// shards served by a `ShardStoreServer`.
    Tcp,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// The trainer configuration (seeded from `--seed`).
    pub cfg: TrainerConfig,
    /// The fabric the world runs on.
    pub fabric: Fabric,
    /// Save a sharded checkpoint every this many iterations, inside the
    /// timed window.
    pub ckpt_every: Option<u64>,
    /// Length of the fixed run `loss_final` and the byte counts are read
    /// from: a pure function of the seed, however fast the host is.
    pub fixed_iters: u64,
}

/// Names of every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["pipe_cb", "dp_psgd", "tcp_ckpt"];

/// `pipe_cb`: GPT-tiny, pp2 x dp1, 16 micro-batches of 2 sequences. Many
/// small micro-batches make small-shape GEMMs, per-micro p2p hops with
/// bubble waits, and the compressed-backpropagation epilogue a large
/// share of each step; there is no data-parallel exchange.
fn pipe_cb_config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        pp: 2,
        dp: 1,
        micro_batch: 2,
        n_micro: 16,
        seed,
        ..TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 0)
    }
}

/// `dp_psgd`: GPT-small, pp1 x dp2, 8 micro-batches of 4 sequences.
/// Large GEMMs and the once-per-iteration PowerSGD data-parallel
/// exchange dominate; no p2p traffic and no bubble.
fn dp_psgd_config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        pp: 1,
        dp: 2,
        micro_batch: 4,
        n_micro: 8,
        seed,
        validate_every: 0,
        ..TrainerConfig::small_test(QualityConfig::cb_fe_sc(), 0)
    }
}

impl Workload {
    /// The workload called `name` at `seed`, or `None` for an unknown name.
    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        let w = match name {
            "pipe_cb" => Workload {
                name: "pipe_cb",
                cfg: pipe_cb_config(seed),
                fabric: Fabric::Local,
                ckpt_every: None,
                fixed_iters: 200,
            },
            "dp_psgd" => Workload {
                name: "dp_psgd",
                cfg: dp_psgd_config(seed),
                fabric: Fabric::Local,
                ckpt_every: None,
                fixed_iters: 100,
            },
            // The pipe_cb world as real processes over TCP: every message
            // is encoded at a socket and checkpoint writes run beside
            // training. Its losses and byte counts equal pipe_cb's.
            "tcp_ckpt" => Workload {
                name: "tcp_ckpt",
                fabric: Fabric::Tcp,
                ckpt_every: Some(25),
                ..Workload::named("pipe_cb", seed)?
            },
            _ => return None,
        };
        Some(w)
    }

    /// The same workload at another seed.
    pub fn reseeded(&self, seed: u64) -> Workload {
        let mut w = self.clone();
        w.cfg.seed = seed;
        w
    }

    /// Tokens trained per iteration, over all data-parallel replicas.
    pub fn tokens_per_iter(&self) -> u64 {
        let c = &self.cfg;
        (c.micro_batch * c.n_micro * c.model.seq_len * c.dp) as u64
    }
}
