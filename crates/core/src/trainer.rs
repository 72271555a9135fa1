//! The trainer: spawns workers, drives the run, gathers results.

use crate::config::TrainerConfig;
use crate::stats::{Collector, TrainReport};
use crate::worker::{
    decode_cb_link, decode_dp_state, run_worker, Cmd, WorkerAck, WorkerCtx, CH_BWD, CH_FWD,
};
use crate::MemoryReport;
use crossbeam::channel::{unbounded, Receiver, Sender};
use opt_ckpt::{
    CkptError, RankSection, ShardEntry, ShardManifest, Snapshot, SnapshotMeta, MANIFEST_FILE,
};
use opt_data::{TaskScore, ZeroShotTask};
use opt_model::{Adam, Stage};
use opt_net::{
    CollectiveWorld, LocalTransport, P2pMesh, ShardStore, TrafficBreakdown, TrafficLedger,
    Transport,
};
use opt_tensor::Persist;
use opt_trace::{Trace, TraceBuffer, TraceMode};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Assembles and commits a sharded-checkpoint manifest from fully
/// published per-rank entries (ordered by `dp * pp + stage`), then
/// garbage-collects shards the new manifest no longer references.
///
/// Shared by the in-process trainer and the multi-process coordinator —
/// one implementation is what keeps the checkpoint format and commit
/// order (shards first, manifest last, GC only after the commit)
/// identical across both worlds.
pub(crate) fn commit_manifest(
    cfg: &TrainerConfig,
    iter: u64,
    entries: Vec<Option<ShardEntry>>,
    store: &dyn ShardStore,
) -> Result<ShardManifest, CkptError> {
    let manifest = ShardManifest {
        meta: SnapshotMeta {
            pp: cfg.pp,
            dp: cfg.dp,
            seed: cfg.seed,
            iter,
            config_fingerprint: cfg.fingerprint(),
        },
        shards: entries.into_iter().map(|e| e.expect("filled")).collect(),
    };
    store
        .put(MANIFEST_FILE, &manifest.encode())
        .map_err(|e| CkptError::Store {
            what: e.to_string(),
        })?;
    // The new manifest is committed; stale shards from earlier
    // checkpoints can go. Best effort only — failures here cannot
    // invalidate the checkpoint that was just published.
    let live: std::collections::HashSet<&str> =
        manifest.shards.iter().map(|e| e.name.as_str()).collect();
    if let Ok(names) = store.list() {
        for name in names {
            if name.ends_with(".shard") && !live.contains(name.as_str()) {
                let _ = store.delete(&name);
            }
        }
    }
    Ok(manifest)
}

/// A running 3D-parallel training job: `pp x dp` worker threads, each
/// owning one model slice.
///
/// Workers are driven by broadcast commands; [`Trainer::train`] runs the
/// configured number of iterations with periodic validation,
/// [`Trainer::predict`] and [`Trainer::zero_shot`] evaluate the frozen
/// model, and [`Trainer::shutdown`] joins all threads.
pub struct Trainer {
    cfg: TrainerConfig,
    /// Command channel per worker, indexed by global rank `d * pp + s`.
    cmd_txs: Vec<Sender<Cmd>>,
    ack_rx: Receiver<WorkerAck>,
    snap_rx: Receiver<(u64, RankSection)>,
    shard_rx: Receiver<(u64, Result<ShardEntry, CkptError>)>,
    restore_rx: Receiver<(u64, usize, usize, Result<u64, CkptError>)>,
    predict_rx: Receiver<(u64, Vec<usize>)>,
    trace_rx: Receiver<(u64, TraceBuffer)>,
    handles: Vec<JoinHandle<()>>,
    collector: Collector,
    ledger: TrafficLedger,
    /// The shared transport carrying meshes and collectives — kept so
    /// reports can read its per-channel traffic stats.
    transport: Arc<LocalTransport>,
    trace: TraceMode,
    next_id: u64,
    trained_iters: u64,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Trainer(pp={}, dp={}, workers={})",
            self.cfg.pp,
            self.cfg.dp,
            self.handles.len()
        )
    }
}

impl Trainer {
    /// Builds all model slices and spawns the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `pp` or `dp` is zero, or `pp > model.n_layers`.
    pub fn launch(cfg: TrainerConfig) -> Trainer {
        Self::launch_with_trace(cfg, TraceMode::from_env())
    }

    /// [`Trainer::launch`] with an explicit trace mode instead of the
    /// `OPT_TRACE` environment variable. With [`TraceMode::Spans`] (or
    /// `Full`) every worker thread records a span tree that
    /// [`Trainer::take_trace`] later drains; with [`TraceMode::Off`] the
    /// run is byte-identical to an uninstrumented one.
    pub fn launch_with_trace(cfg: TrainerConfig, trace: TraceMode) -> Trainer {
        assert!(cfg.pp > 0 && cfg.dp > 0, "pp and dp must be positive");
        let pp = cfg.pp;
        let dp = cfg.dp;
        let world_size = pp * dp;
        // One shared transport for both meshes and all collectives, on the
        // same channel ids the multi-process world uses — so per-channel
        // traffic stats agree between the two worlds.
        let transport = Arc::new(LocalTransport::new(world_size));
        let fwd_mesh: P2pMesh<opt_tensor::Matrix, _> =
            P2pMesh::over(Arc::clone(&transport), CH_FWD);
        let bwd_mesh: P2pMesh<opt_compress::Compressed, _> =
            P2pMesh::over(Arc::clone(&transport), CH_BWD);
        let world = CollectiveWorld::over(Arc::clone(&transport));
        let collector = Collector::default();
        let ledger = TrafficLedger::new();
        let (ack_tx, ack_rx) = unbounded();
        let (snap_tx, snap_rx) = unbounded();
        let (shard_tx, shard_rx) = unbounded();
        let (restore_tx, restore_rx) = unbounded();
        let (predict_tx, predict_rx) = unbounded();
        let (trace_tx, trace_rx) = unbounded();

        // Shared groups: one DP group per stage, one 2-way embedding pair
        // per dp rank, one fused group over all end-stage ranks — built by
        // the same order-fixing helper the multi-process workers use.
        let crate::worker::WorldGroups {
            stage_groups,
            emb_pair_groups,
            fused_group,
        } = crate::worker::build_groups(&world, pp, dp);

        let corpus = cfg.corpus();
        let mut handles = Vec::with_capacity(world_size);
        let mut cmd_txs = Vec::with_capacity(world_size);
        // Every dp rank holds the identical pipeline (same seed): build it
        // once and clone it for the other replicas. A fresh pipeline has
        // empty caches, so a clone is identical to a rebuild.
        let replicas = vec![Stage::build_pipeline(&cfg.model, pp, cfg.seed); dp];
        for (d, stages) in replicas.into_iter().enumerate() {
            for (s, stage) in stages.into_iter().enumerate() {
                let (cmd_tx, cmd_rx) = unbounded();
                let ctx = WorkerCtx {
                    cfg: cfg.clone(),
                    stage_idx: s,
                    dp_idx: d,
                    stage,
                    corpus: corpus.clone(),
                    fwd_mesh: fwd_mesh.clone(),
                    bwd_mesh: bwd_mesh.clone(),
                    stage_group: stage_groups[s].clone(),
                    emb_pair_group: if s == 0 || s == pp - 1 {
                        emb_pair_groups[d].clone()
                    } else {
                        None
                    },
                    fused_group: if s == 0 || s == pp - 1 {
                        fused_group.clone()
                    } else {
                        None
                    },
                    cmds: cmd_rx,
                    acks: ack_tx.clone(),
                    snap_out: snap_tx.clone(),
                    shard_out: shard_tx.clone(),
                    restore_out: restore_tx.clone(),
                    predict_out: predict_tx.clone(),
                    collector: collector.clone(),
                    ledger: ledger.clone(),
                    trace,
                    trace_out: trace_tx.clone(),
                };
                let name = format!("worker-s{s}-d{d}");
                handles.push(
                    std::thread::Builder::new()
                        .name(name)
                        .spawn(move || run_worker(ctx))
                        .expect("spawn worker"),
                );
                cmd_txs.push(cmd_tx);
            }
        }
        // cmd_txs[d * pp + s] drives worker (stage s, dp rank d) — the
        // targeted Cmd::Restore sends rely on this indexing.
        Trainer {
            cfg,
            cmd_txs,
            ack_rx,
            snap_rx,
            shard_rx,
            restore_rx,
            predict_rx,
            trace_rx,
            handles,
            collector,
            ledger,
            transport,
            trace,
            next_id: 0,
            trained_iters: 0,
        }
    }

    /// The configuration of this run.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// The multi-process launch mode: instead of worker *threads* over
    /// the in-process transport, spawns one real `opt-worker` OS process
    /// per `(stage, dp)` rank, meshed over loopback TCP, with checkpoint
    /// shards served through a TCP shard store. The returned
    /// [`crate::ProcTrainer`] drives the same command protocol this
    /// trainer drives over channels — and produces bit-identical losses
    /// and traffic, by the member-order determinism contract of the
    /// transport layer.
    ///
    /// Unlike this in-process trainer — where one dead worker thread
    /// tears the world down — the process world is *elastic*: every
    /// worker heartbeats to the coordinator, a `SIGKILL`ed rank is
    /// detected by [`crate::ProcTrainer::await_failure`], and
    /// [`crate::ProcTrainer::rejoin_rank`] splices a replacement into the
    /// surviving mesh and rolls the world back to the last committed
    /// sharded checkpoint without re-execing any survivor.
    pub fn launch_processes(
        cfg: TrainerConfig,
        opts: crate::ProcOptions,
    ) -> Result<crate::ProcTrainer, crate::ProcError> {
        crate::proc::ProcTrainer::launch(cfg, opts)
    }

    /// [`Trainer::launch_processes`] with an explicit trace mode: the
    /// coordinator propagates it to every worker process, whose span
    /// buffers [`crate::ProcTrainer::take_trace`] later ships back over
    /// the control plane.
    pub fn launch_processes_traced(
        cfg: TrainerConfig,
        opts: crate::ProcOptions,
        trace: TraceMode,
    ) -> Result<crate::ProcTrainer, crate::ProcError> {
        crate::proc::ProcTrainer::launch_traced(cfg, opts, trace)
    }

    fn broadcast(&self, cmd: Cmd) {
        for tx in &self.cmd_txs {
            tx.send(cmd.clone()).expect("worker channel closed");
        }
    }

    fn barrier(&mut self) -> Vec<WorkerAck> {
        self.next_id += 1;
        let id = self.next_id;
        self.broadcast(Cmd::Barrier { id });
        let mut acks = Vec::with_capacity(self.cmd_txs.len());
        while acks.len() < self.cmd_txs.len() {
            let ack = self.ack_rx.recv().expect("worker dropped ack channel");
            if ack.id == id {
                acks.push(ack);
            }
        }
        acks
    }

    /// Runs training up to the configured iteration count with periodic
    /// validation, returning the aggregated report. A freshly launched
    /// trainer starts at iteration 0; a [`Trainer::restore`]d one resumes
    /// where its snapshot left off.
    pub fn train(&mut self) -> TrainReport {
        let iters = self.cfg.iters;
        for iter in self.trained_iters..iters {
            self.broadcast(Cmd::TrainIter { iter });
            let validate_now =
                self.cfg.validate_every > 0 && (iter + 1) % self.cfg.validate_every == 0;
            if validate_now {
                self.broadcast(Cmd::Validate {
                    iter,
                    index: iter,
                    n_seq: self.cfg.val_sequences,
                });
            }
        }
        // Final validation at the last iteration tag.
        self.broadcast(Cmd::Validate {
            iter: iters.saturating_sub(1),
            index: iters,
            n_seq: self.cfg.val_sequences,
        });
        self.barrier();
        self.trained_iters = iters.max(self.trained_iters);
        self.collector
            .clone()
            .into_report(self.trained_iters, self.traffic_breakdown())
    }

    /// Runs extra training iterations beyond `cfg.iters` (used by
    /// long-horizon experiments that checkpoint metrics between phases).
    pub fn train_more(&mut self, extra: u64) {
        for iter in self.trained_iters..self.trained_iters + extra {
            self.broadcast(Cmd::TrainIter { iter });
        }
        self.trained_iters += extra;
        self.barrier();
    }

    /// Iterations completed so far (includes iterations inherited from a
    /// restored snapshot).
    pub fn trained_iters(&self) -> u64 {
        self.trained_iters
    }

    /// Quiesces the workers and returns the traffic counters so far:
    /// per-class totals plus the per-(src, dst, channel) breakdown read
    /// off the shared transport.
    pub fn traffic(&mut self) -> TrafficBreakdown {
        self.barrier();
        self.traffic_breakdown()
    }

    fn traffic_breakdown(&self) -> TrafficBreakdown {
        TrafficBreakdown::new(self.ledger.snapshot(), self.transport.channel_stats())
    }

    /// Quiesces the workers and aggregates the metrics recorded so far
    /// into a report (iterations executed before a restore belong to the
    /// killed trainer and appear as `NaN` entries here).
    pub fn report(&mut self) -> TrainReport {
        self.barrier();
        self.collector
            .clone()
            .into_report(self.trained_iters, self.traffic_breakdown())
    }

    /// Drains every worker's trace buffer into one merged [`Trace`]
    /// (buffers ordered by rank, spans by sequence number). Returns `None`
    /// when the trainer was launched with tracing off. Repeated calls
    /// return disjoint traces: each drain covers the spans recorded since
    /// the previous one.
    pub fn take_trace(&mut self) -> Option<Trace> {
        if !self.trace.enabled() {
            return None;
        }
        self.barrier();
        self.next_id += 1;
        let id = self.next_id;
        self.broadcast(Cmd::FetchTrace { id });
        let world = self.cmd_txs.len();
        let mut buffers = Vec::with_capacity(world);
        while buffers.len() < world {
            let (got, buf) = self.trace_rx.recv().expect("worker dropped trace channel");
            if got == id {
                buffers.push(buf);
            }
        }
        Some(Trace::merge(buffers))
    }

    /// Captures a complete training snapshot: every worker serializes its
    /// parameters, optimizer moments, and compression state behind barrier
    /// semantics (commands are ordered per worker, and the collection
    /// blocks until all `pp * dp` sections arrive).
    pub fn snapshot(&mut self) -> Snapshot {
        self.next_id += 1;
        let id = self.next_id;
        self.broadcast(Cmd::Snapshot { id });
        let world = self.cmd_txs.len();
        let pp = self.cfg.pp;
        let mut sections: Vec<Option<RankSection>> = vec![None; world];
        let mut got = 0;
        while got < world {
            let (sid, section) = self
                .snap_rx
                .recv()
                .expect("worker dropped snapshot channel");
            if sid != id {
                continue; // stale section from an abandoned snapshot
            }
            let idx = section.dp * pp + section.stage;
            assert!(sections[idx].is_none(), "duplicate snapshot section");
            sections[idx] = Some(section);
            got += 1;
        }
        Snapshot {
            meta: SnapshotMeta {
                pp,
                dp: self.cfg.dp,
                seed: self.cfg.seed,
                iter: self.trained_iters,
                config_fingerprint: self.cfg.fingerprint(),
            },
            ranks: sections.into_iter().map(|s| s.expect("filled")).collect(),
        }
    }

    /// Takes a snapshot and writes it to `path`.
    pub fn save_snapshot(&mut self, path: impl AsRef<Path>) -> Result<(), CkptError> {
        self.snapshot().save(path)
    }

    /// Relaunches a training job from a snapshot: fresh workers are
    /// spawned under `cfg`, then every worker's state is overwritten from
    /// its snapshot section. The resumed trainer continues at the
    /// snapshot's iteration and — by the bit-exact-resume guarantee —
    /// reproduces exactly the losses and wire traffic the uninterrupted
    /// run would have produced from that point.
    ///
    /// Fails without spawning anything if the snapshot's world shape or
    /// config fingerprint does not match `cfg`, or if any section fails to
    /// decode.
    pub fn restore(cfg: TrainerConfig, snapshot: &Snapshot) -> Result<Trainer, CkptError> {
        let meta = &snapshot.meta;
        if (meta.pp, meta.dp) != (cfg.pp, cfg.dp) {
            return Err(CkptError::WorldMismatch {
                snapshot: (meta.pp, meta.dp),
                config: (cfg.pp, cfg.dp),
            });
        }
        let fingerprint = cfg.fingerprint();
        if meta.config_fingerprint != fingerprint {
            return Err(CkptError::ConfigMismatch {
                snapshot: meta.config_fingerprint,
                config: fingerprint,
            });
        }
        snapshot.validate_complete()?;
        // Pre-validate every section — opaque blobs and parameter shapes —
        // so workers never see state they cannot apply (a worker panic
        // during Cmd::Restore would hang the ack loop and poison the job).
        let mut reference = Stage::build_pipeline(&cfg.model, cfg.pp, cfg.seed);
        let expected_shapes: Vec<Vec<(usize, usize)>> = reference
            .iter_mut()
            .map(|st| st.params().iter().map(|p| p.value.shape()).collect())
            .collect();
        for section in &snapshot.ranks {
            let expected = &expected_shapes[section.stage];
            let shapes_match = section.params.len() == expected.len()
                && section
                    .params
                    .iter()
                    .zip(expected)
                    .all(|(m, &s)| m.shape() == s);
            if !shapes_match {
                return Err(CkptError::Decode(opt_tensor::PersistError::Invalid {
                    what: "rank section parameter shapes do not match the config",
                }));
            }
            Adam::from_bytes(&section.optimizer)?;
            decode_cb_link(&section.cb_link)?;
            decode_dp_state(&section.dp_state)?;
        }

        let mut trainer = Trainer::launch(cfg);
        trainer.next_id += 1;
        let id = trainer.next_id;
        let pp = trainer.cfg.pp;
        for section in &snapshot.ranks {
            let idx = section.dp * pp + section.stage;
            trainer.cmd_txs[idx]
                .send(Cmd::Restore {
                    id,
                    section: Box::new(section.clone()),
                })
                .expect("worker channel closed");
        }
        let mut acked = 0;
        while acked < trainer.cmd_txs.len() {
            let ack = trainer.ack_rx.recv().expect("worker dropped ack channel");
            if ack.id == id {
                acked += 1;
            }
        }
        trainer.trained_iters = meta.iter;
        Ok(trainer)
    }

    /// [`Trainer::restore`] from a snapshot file.
    pub fn restore_from_file(
        cfg: TrainerConfig,
        path: impl AsRef<Path>,
    ) -> Result<Trainer, CkptError> {
        let snapshot = Snapshot::load(path)?;
        Self::restore(cfg, &snapshot)
    }

    /// Captures a sharded checkpoint directly into a [`ShardStore`]: every
    /// worker serializes its own state into a per-rank shard and publishes
    /// it under its well-known name (behind the same barrier semantics as
    /// [`Trainer::snapshot`]), then the trainer writes the manifest last —
    /// so a manifest in the store always names shards that are fully
    /// published.
    ///
    /// Shard names carry the checkpoint iteration, so repeated saves into
    /// the same store never overwrite the previous checkpoint's blobs: a
    /// crash or failed publish mid-save leaves the old manifest and every
    /// shard it names intact and restorable. Once the new manifest
    /// commits, shards it no longer references are garbage-collected
    /// (best effort — a leftover blob is harmless, the manifest is
    /// authoritative).
    ///
    /// The coordinator never holds the world's state: it only collects the
    /// per-rank digests (name, size, checksum) it needs to assemble the
    /// manifest.
    pub fn save_sharded(
        &mut self,
        store: &Arc<dyn ShardStore>,
    ) -> Result<ShardManifest, CkptError> {
        self.next_id += 1;
        let id = self.next_id;
        let iter = self.trained_iters;
        for tx in &self.cmd_txs {
            tx.send(Cmd::PublishShard {
                id,
                iter,
                store: Arc::clone(store),
            })
            .expect("worker channel closed");
        }
        let world = self.cmd_txs.len();
        let pp = self.cfg.pp;
        let mut entries: Vec<Option<ShardEntry>> = vec![None; world];
        let mut first_err = None;
        let mut got = 0;
        while got < world {
            let (sid, result) = self.shard_rx.recv().expect("worker dropped shard channel");
            if sid != id {
                continue; // stale result from an abandoned save
            }
            got += 1;
            match result {
                Ok(entry) => {
                    let idx = entry.dp * pp + entry.stage;
                    assert!(entries[idx].is_none(), "duplicate shard entry");
                    entries[idx] = Some(entry);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        commit_manifest(&self.cfg, iter, entries, store.as_ref())
    }

    /// Resolves and validates the store's manifest against `cfg` — the
    /// only checkpoint state the coordinator ever reads on the sharded
    /// restore path.
    fn resolve_manifest(
        cfg: &TrainerConfig,
        store: &Arc<dyn ShardStore>,
    ) -> Result<ShardManifest, CkptError> {
        let bytes = store.get(MANIFEST_FILE).map_err(|e| CkptError::Store {
            what: e.to_string(),
        })?;
        let manifest = ShardManifest::decode(&bytes)?;
        let meta = &manifest.meta;
        if (meta.pp, meta.dp) != (cfg.pp, cfg.dp) {
            return Err(CkptError::WorldMismatch {
                snapshot: (meta.pp, meta.dp),
                config: (cfg.pp, cfg.dp),
            });
        }
        let fingerprint = cfg.fingerprint();
        if meta.config_fingerprint != fingerprint {
            return Err(CkptError::ConfigMismatch {
                snapshot: meta.config_fingerprint,
                config: fingerprint,
            });
        }
        // World completeness was already enforced by ShardManifest::decode.
        Ok(manifest)
    }

    /// Relaunches a training job from a sharded checkpoint — the
    /// cross-host elastic-restore path. Fresh workers are spawned under
    /// `cfg`, then **every worker independently** rendezvouses on the
    /// store's manifest, fetches only its own shard, validates it
    /// (checksum, config fingerprint, rank identity, iteration), and
    /// applies it. The coordinator reads only the manifest; at no point
    /// does any single process hold the whole world's state.
    ///
    /// By the bit-exact-resume guarantee the resumed run reproduces
    /// exactly the losses and wire traffic the uninterrupted run would
    /// have produced — even if the restored incarnation runs with a
    /// different kernel thread count.
    pub fn restore_sharded(
        cfg: TrainerConfig,
        store: &Arc<dyn ShardStore>,
    ) -> Result<Trainer, CkptError> {
        let manifest = Self::resolve_manifest(&cfg, store)?;
        let mut trainer = Trainer::launch(cfg);
        trainer.next_id += 1;
        let id = trainer.next_id;
        for tx in &trainer.cmd_txs {
            tx.send(Cmd::SelfRestore {
                id,
                store: Arc::clone(store),
            })
            .expect("worker channel closed");
        }
        let world = trainer.cmd_txs.len();
        trainer.collect_self_restores(id, world, manifest.meta.iter)?;
        trainer.trained_iters = manifest.meta.iter;
        Ok(trainer)
    }

    /// Elastically restores a **single** rank's state from the shard
    /// store: the targeted worker rendezvouses on the manifest, fetches
    /// only its own shard, validates, and applies it — exactly what a
    /// replacement worker on a different host does when it rejoins a run.
    /// No coordinator-held state is involved; the trainer reads only the
    /// manifest (to validate it against the config and learn the
    /// checkpoint iteration, which is returned).
    ///
    /// The caller is responsible for world consistency: every other rank
    /// must already hold state from the same checkpoint iteration (e.g.
    /// restore each rank of a freshly launched world in turn).
    ///
    /// # Panics
    ///
    /// Panics if `(stage, dp)` lies outside the trainer's world.
    pub fn restore_rank(
        &mut self,
        stage: usize,
        dp: usize,
        store: &Arc<dyn ShardStore>,
    ) -> Result<u64, CkptError> {
        assert!(
            stage < self.cfg.pp && dp < self.cfg.dp,
            "rank (stage {stage}, dp {dp}) outside the {}x{} world",
            self.cfg.pp,
            self.cfg.dp
        );
        let manifest = Self::resolve_manifest(&self.cfg, store)?;
        self.next_id += 1;
        let id = self.next_id;
        self.cmd_txs[dp * self.cfg.pp + stage]
            .send(Cmd::SelfRestore {
                id,
                store: Arc::clone(store),
            })
            .expect("worker channel closed");
        self.collect_self_restores(id, 1, manifest.meta.iter)?;
        self.trained_iters = manifest.meta.iter;
        Ok(manifest.meta.iter)
    }

    /// Collects `expect` self-restore outcomes for request `id`, requiring
    /// every applied shard to come from iteration `want_iter`.
    fn collect_self_restores(
        &mut self,
        id: u64,
        expect: usize,
        want_iter: u64,
    ) -> Result<(), CkptError> {
        let mut first_err = None;
        let mut got = 0;
        while got < expect {
            let (sid, stage, dp, result) = self
                .restore_rx
                .recv()
                .expect("worker dropped restore channel");
            if sid != id {
                continue; // stale outcome from an abandoned restore
            }
            got += 1;
            match result {
                Ok(iter) if iter == want_iter => {}
                Ok(_) => {
                    // The store changed between the coordinator's manifest
                    // read and the worker's — a racing writer.
                    first_err = first_err.or(Some(CkptError::ShardMismatch {
                        stage,
                        dp,
                        what: "restored shard is from a different checkpoint than the manifest",
                    }));
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Tears the job down the way a worker failure does: no `Stop`
    /// handshake — command channels are dropped and every worker exits on
    /// the closed channel, exactly as when a real rank disappears and the
    /// collective world cannot make progress. Call at an iteration
    /// boundary (all `train*` methods leave the job quiesced).
    pub fn kill(mut self) {
        self.barrier(); // drain in-flight commands so joins cannot hang
        self.cmd_txs.clear();
        for h in self.handles.drain(..) {
            h.join().expect("worker panicked");
        }
    }

    /// Predicts the next token at the final position of each sequence in
    /// `tokens` (grouped in `seq_len` chunks), using dp rank 0's pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len()` is not a multiple of the sequence length.
    pub fn predict(&mut self, tokens: &[usize]) -> Vec<usize> {
        assert!(
            tokens.len().is_multiple_of(self.cfg.model.seq_len),
            "token count must be a multiple of seq_len"
        );
        self.next_id += 1;
        let id = self.next_id;
        self.broadcast(Cmd::Predict {
            id,
            tokens: tokens.to_vec(),
        });
        loop {
            let (got, answers) = self.predict_rx.recv().expect("predict channel closed");
            if got == id {
                return answers;
            }
        }
    }

    /// Evaluates a zero-shot probe on the frozen model (Table 3 protocol):
    /// `n` generated examples, accuracy of last-position argmax.
    pub fn zero_shot(&mut self, task: ZeroShotTask, n: usize, seed: u64) -> TaskScore {
        let corpus = self.cfg.corpus();
        let examples = task.generate(&corpus, n, seed);
        let mut correct = 0;
        // Batch examples to amortize pipeline latency.
        let batch = 16usize;
        for chunk in examples.chunks(batch) {
            let mut tokens = Vec::with_capacity(chunk.len() * self.cfg.model.seq_len);
            for ex in chunk {
                tokens.extend_from_slice(&ex.context);
            }
            let preds = self.predict(&tokens);
            for (p, ex) in preds.iter().zip(chunk) {
                if *p == ex.answer {
                    correct += 1;
                }
            }
        }
        TaskScore { correct, total: n }
    }

    /// Evaluates all five zero-shot probes (Table 3 row order).
    pub fn zero_shot_suite(&mut self, n: usize, seed: u64) -> Vec<(ZeroShotTask, TaskScore)> {
        ZeroShotTask::ALL
            .into_iter()
            .map(|t| (t, self.zero_shot(t, n, seed)))
            .collect()
    }

    /// Memory accounting across workers (Fig. 12).
    pub fn memory_report(&mut self) -> MemoryReport {
        let acks = self.barrier();
        crate::memory::memory_report(&self.cfg, &acks)
    }

    /// Stops and joins every worker thread.
    pub fn shutdown(mut self) {
        self.broadcast(Cmd::Stop);
        for h in self.handles.drain(..) {
            h.join().expect("worker panicked");
        }
    }
}
