//! One training world behind a single interface: worker threads through
//! `Trainer`, or worker processes through `ProcTrainer`.

use crate::workload::{Fabric, Workload};
use opt_ckpt::ShardManifest;
use opt_net::{MemShardStore, ShardStore, ShardStoreServer};
use optimus_cc::{ProcOptions, ProcTrainer, Trace, TraceMode, TrainReport, Trainer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A running world. Errors are carried as display strings: the benchmark
/// only counts and reports them. A world dropped without
/// [`World::shutdown`] (an error or panic mid-run) kills and reaps its
/// worker processes, so no run leaves a process behind.
pub struct World {
    inner: Option<Inner>,
}

enum Inner {
    /// Worker threads over the in-process transport; checkpoints go to an
    /// in-memory store.
    Local {
        trainer: Trainer,
        store: Arc<dyn ShardStore>,
    },
    /// Worker processes over loopback TCP; checkpoints go over TCP to a
    /// store server owned by this world.
    Tcp {
        trainer: ProcTrainer,
        server: ShardStoreServer,
    },
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl From<Inner> for World {
    fn from(inner: Inner) -> World {
        World { inner: Some(inner) }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(Inner::Tcp { trainer, .. }) = self.inner.take() {
            for (rank, e) in trainer.abort() {
                eprintln!("perfbench: reaping worker rank {rank} failed: {e}");
            }
        }
    }
}

impl World {
    fn inner(&self) -> &Inner {
        self.inner.as_ref().expect("world is running")
    }

    fn inner_mut(&mut self) -> &mut Inner {
        self.inner.as_mut().expect("world is running")
    }

    /// Launches `w`'s world with tracing `trace`. A TCP world re-executes
    /// this program as its workers and meshes under `scratch`.
    pub fn launch(w: &Workload, trace: TraceMode, scratch: &Path) -> Result<World, String> {
        match w.fabric {
            Fabric::Local => Ok(World::from(Inner::Local {
                trainer: Trainer::launch_with_trace(w.cfg.clone(), trace),
                store: Arc::new(MemShardStore::new()),
            })),
            Fabric::Tcp => {
                let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
                let server = ShardStoreServer::spawn(store, "127.0.0.1:0").map_err(err)?;
                let opts = ProcOptions {
                    worker_bin: std::env::current_exe().map_err(err)?,
                    store_addr: server.addr(),
                    scratch_dir: PathBuf::from(scratch),
                };
                let trainer =
                    Trainer::launch_processes_traced(w.cfg.clone(), opts, trace).map_err(err)?;
                Ok(World::from(Inner::Tcp { trainer, server }))
            }
        }
    }

    /// Trains `n` more iterations and waits until every rank has finished
    /// them (`n = 0` is a bare barrier).
    pub fn train(&mut self, n: u64) -> Result<(), String> {
        match self.inner_mut() {
            Inner::Local { trainer, .. } => {
                trainer.train_more(n);
                Ok(())
            }
            Inner::Tcp { trainer, .. } => trainer.train_more(n).map_err(err),
        }
    }

    /// Iterations trained so far.
    pub fn trained(&self) -> u64 {
        match self.inner() {
            Inner::Local { trainer, .. } => trainer.trained_iters(),
            Inner::Tcp { trainer, .. } => trainer.trained_iters(),
        }
    }

    /// Losses and traffic of every iteration trained so far.
    pub fn report(&mut self) -> Result<TrainReport, String> {
        match self.inner_mut() {
            Inner::Local { trainer, .. } => Ok(trainer.report()),
            Inner::Tcp { trainer, .. } => trainer.report().map_err(err),
        }
    }

    /// Saves a sharded checkpoint of the current iteration.
    pub fn save(&mut self) -> Result<ShardManifest, String> {
        match self.inner_mut() {
            Inner::Local { trainer, store } => trainer.save_sharded(store).map_err(err),
            Inner::Tcp { trainer, .. } => trainer.save_sharded().map_err(err),
        }
    }

    /// Drains the spans recorded so far (`None` when tracing is off).
    pub fn take_trace(&mut self) -> Result<Option<Trace>, String> {
        match self.inner_mut() {
            Inner::Local { trainer, .. } => Ok(trainer.take_trace()),
            Inner::Tcp { trainer, .. } => trainer.take_trace().map_err(err),
        }
    }

    /// Process ids of the worker processes (none for a thread world).
    pub fn worker_pids(&self) -> Vec<u32> {
        match self.inner() {
            Inner::Local { .. } => Vec::new(),
            Inner::Tcp { trainer, .. } => trainer.worker_pids(),
        }
    }

    /// Stops the world and waits for every worker thread or process.
    pub fn shutdown(mut self) -> Result<(), String> {
        match self.inner.take().expect("world is running") {
            Inner::Local { trainer, .. } => {
                trainer.shutdown();
                Ok(())
            }
            Inner::Tcp { trainer, server } => {
                let stopped = trainer.shutdown().map_err(err);
                drop(server);
                stopped
            }
        }
    }
}
