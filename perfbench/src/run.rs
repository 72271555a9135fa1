//! The two kinds of run: the untraced end-to-end run (`--trace 0`) and
//! the per-layer run (`--trace 1`: untraced reference, traced twin, layer
//! probes).

use crate::host::{cpu_ms_total, peak_rss_mb_total};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::{median, range_pct, samples_for_tail, tail_percentile};
use crate::traced::{breakdown, iteration_bubbles};
use crate::workload::{Fabric, Workload};
use crate::world::World;
use opt_net::{TrafficBreakdown, TrafficClass};
use opt_trace::{analyze, Trace};
use optimus_cc::{TraceMode, TrainReport};
use std::path::Path;
use std::time::Instant;

/// Untimed iterations before the window opens, so lazy allocations and
/// PowerSGD warm starts are in place.
const WARMUP_ITERS: u64 = 3;
/// Iterations `loss_final` averages over, at the end of the fixed run.
const LOSS_TAIL: usize = 10;
/// Seeds after `--seed` whose fixed runs `loss_final` also averages.
const EXTRA_SEEDS: u64 = 2;
/// Checkpoint saves the per-layer run times for `ckpt.save_ms`.
const SAVE_REPS: usize = 5;
/// Percentile of `wall.iter_ms_p90`, and the samples it needs beyond it.
const TAIL_Q: f64 = 0.9;
const TAIL_BEYOND: usize = 10;
/// Largest accepted distance, in percent of the traced wall-clock
/// iteration time, between it and the traced span-tree iteration time
/// (`core.reconcile_gap_pct`). The gap is the coordinator's command
/// dispatch and barrier, which sit outside every worker span.
pub const RECONCILE_TOL_PCT: f64 = 10.0;

/// Launches per run for `setup_s`, which reports their median: many of
/// the sub-millisecond thread worlds, fewer of the process worlds.
fn setup_reps(fabric: Fabric) -> usize {
    match fabric {
        Fabric::Local => 15,
        Fabric::Tcp => 7,
    }
}

/// Training time of a stretch of iterations, as the caller saw it.
#[derive(Debug)]
struct Drive {
    start: Instant,
    /// Wall time of each awaited single iteration, ms.
    iter_ms: Vec<f64>,
    /// Seconds from `start` to the end of the last iteration, everything
    /// between iterations (checkpoint saves, reports) included.
    end_s: f64,
    /// Checkpoint saves made between iterations.
    saves: usize,
}

/// Wall-clock view of a drive.
struct Wall {
    tokens_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

impl Drive {
    fn new() -> Drive {
        Drive {
            start: Instant::now(),
            iter_ms: Vec::new(),
            end_s: 0.0,
            saves: 0,
        }
    }

    /// Trains one iteration, first saving a checkpoint when the workload
    /// is due one.
    fn step(&mut self, world: &mut World, w: &Workload) -> Result<(), String> {
        let done = world.trained();
        if w.ckpt_every
            .is_some_and(|every| done > 0 && done.is_multiple_of(every))
        {
            world.save()?;
            self.saves += 1;
        }
        let t = Instant::now();
        world.train(1)?;
        self.iter_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.end_s = self.start.elapsed().as_secs_f64();
        Ok(())
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Tokens per wall second over the whole drive (stalls included) and
    /// the median and tail of its iteration times.
    fn wall(&self, tokens_per_iter: u64) -> Wall {
        Wall {
            tokens_per_s: (self.iter_ms.len() as u64 * tokens_per_iter) as f64 / self.end_s,
            p50_ms: median(&self.iter_ms),
            p90_ms: tail_percentile(&self.iter_ms, TAIL_Q, TAIL_BEYOND)
                .expect("drive holds the tail samples"),
        }
    }
}

/// Mean train loss over the last [`LOSS_TAIL`] iterations of `losses`.
fn loss_final(losses: &[f32]) -> f64 {
    let tail = &losses[losses.len().saturating_sub(LOSS_TAIL)..];
    tail.iter().map(|&l| l as f64).sum::<f64>() / tail.len() as f64
}

/// Launches `w`'s world and waits for its first barrier; returns the world
/// and the seconds that took.
fn launch_timed(w: &Workload, trace: TraceMode, scratch: &Path) -> Result<(World, f64), String> {
    let t = Instant::now();
    let mut world = World::launch(w, trace, scratch)?;
    world.train(0)?;
    Ok((world, t.elapsed().as_secs_f64()))
}

/// Trains `w.fixed_iters` iterations in a fresh world; returns the drive,
/// the report, and the still-running world.
fn fixed_run(
    w: &Workload,
    trace: TraceMode,
    scratch: &Path,
) -> Result<(Drive, TrainReport, World), String> {
    let (mut world, _) = launch_timed(w, trace, scratch)?;
    let mut drive = Drive::new();
    while world.trained() < w.fixed_iters {
        drive.step(&mut world, w)?;
    }
    let report = world.report()?;
    Ok((drive, report, world))
}

/// Counts non-finite losses, each a failed iteration.
fn check_finite(out: &mut Outcome, losses: &[f32], what: &str) {
    let bad = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    out.check(bad == 0, bad, format!("{what}: {bad} non-finite losses"));
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_classes(a: &TrafficBreakdown, b: &TrafficBreakdown) -> bool {
    TrafficClass::ALL
        .iter()
        .all(|&c| a.bytes(c) == b.bytes(c) && a.messages(c) == b.messages(c))
}

/// The untraced end-to-end run: set-up, a timed window of at least
/// `seconds`, the fixed-length runs' loss and traffic, and (for
/// `tcp_ckpt`) the equality check against `pipe_cb`'s in-process world.
pub fn end_to_end(w: &Workload, seconds: f64, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new(END_TO_END);
    let mut setup = Vec::new();
    let mut world: Option<World> = None;
    for _ in 0..setup_reps(w.fabric) {
        if let Some(old) = world.take() {
            old.shutdown()?;
        }
        let (launched, s) = launch_timed(w, TraceMode::Off, scratch)?;
        setup.push(s);
        world = Some(launched);
    }
    let mut world = world.expect("at least one launch");
    out.set("setup_s", median(&setup));

    let mut warmup = Drive::new();
    while world.trained() < WARMUP_ITERS {
        warmup.step(&mut world, w)?;
    }
    let pids = world.worker_pids();
    let cpu0 = cpu_ms_total(&pids).map_err(|e| e.to_string())?;
    let mut fixed = None;
    let min_samples = samples_for_tail(TAIL_Q, TAIL_BEYOND);
    let mut drive = Drive::new();
    while drive.elapsed_s() < seconds || drive.iter_ms.len() < min_samples {
        drive.step(&mut world, w)?;
        if world.trained() == w.fixed_iters {
            fixed = Some(world.report()?);
        }
    }
    let cpu_ms = cpu_ms_total(&pids).map_err(|e| e.to_string())? - cpu0;
    while world.trained() < w.fixed_iters {
        Drive::new().step(&mut world, w)?;
    }
    let fixed = match fixed {
        Some(r) => r,
        None => world.report()?,
    };
    let all = world.report()?;
    let rss = peak_rss_mb_total(&pids).map_err(|e| e.to_string())?;
    world.shutdown()?;

    out.attempted = all.train_loss.len() as u64;
    check_finite(&mut out, &all.train_loss, "training");
    let timed = drive.iter_ms.len();
    out.set("cpu_ms_per_iter", cpu_ms / timed as f64);
    out.set(
        "wire_bytes_per_token",
        fixed.traffic.total_bytes() as f64 / (w.fixed_iters * w.tokens_per_iter()) as f64,
    );
    out.set("peak_rss_mb", rss);
    let wall = drive.wall(w.tokens_per_iter());
    println!(
        "window: {timed} iterations in {:.3} s, {} checkpoint saves; wall tokens_per_s {:.1}, \
         iter_ms p50 {:.3} p90 {:.3}",
        drive.end_s, drive.saves, wall.tokens_per_s, wall.p50_ms, wall.p90_ms
    );

    // loss_final is the mean over seeds s, s+1 and s+2 of the fixed run's
    // loss: one seed's corpus and initialisation move it by several
    // percent, three of them by much less.
    let mut losses = vec![loss_final(&fixed.train_loss)];
    let mut speeds = vec![wall.tokens_per_s];
    for extra in 1..=EXTRA_SEEDS {
        let other = w.reseeded(w.cfg.seed.wrapping_add(extra));
        let (drive, rep, world) = fixed_run(&other, TraceMode::Off, scratch)?;
        world.shutdown()?;
        out.attempted += rep.train_loss.len() as u64;
        check_finite(&mut out, &rep.train_loss, "extra-seed run");
        losses.push(loss_final(&rep.train_loss));
        speeds.push(drive.wall(w.tokens_per_iter()).tokens_per_s);
    }
    out.set(
        "loss_final",
        losses.iter().sum::<f64>() / losses.len() as f64,
    );
    println!(
        "seeds: loss_final {losses:?} (spread {:.2} %), tokens_per_s {speeds:?} (spread {:.2} %)",
        range_pct(&losses),
        range_pct(&speeds)
    );

    if w.fabric == Fabric::Tcp {
        // tcp_ckpt is pipe_cb's world over TCP: at the same seed it must
        // train bit-identically and move the same bytes per class.
        let local = Workload::named("pipe_cb", w.cfg.seed).expect("pipe_cb exists");
        let (_, reference, world) = fixed_run(&local, TraceMode::Off, scratch)?;
        world.shutdown()?;
        out.check(
            same_bits(&fixed.train_loss, &reference.train_loss),
            w.fixed_iters,
            "TCP losses differ from the in-process world's",
        );
        out.check(
            same_classes(&fixed.traffic, &reference.traffic),
            w.fixed_iters,
            "TCP per-class bytes differ from the in-process world's",
        );
    }
    Ok(out)
}

/// The per-layer run: an untraced reference and a traced twin of the
/// fixed-length run, and the layer probes.
pub fn per_layer(w: &Workload, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new(PER_LAYER);
    let n = w.fixed_iters;

    let (plain, plain_rep, mut world) = fixed_run(w, TraceMode::Off, scratch)?;
    let mut save_ms = Vec::with_capacity(SAVE_REPS);
    let mut shard_bytes = 0;
    for _ in 0..SAVE_REPS {
        let t = Instant::now();
        let manifest = world.save()?;
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        shard_bytes = manifest.shards.iter().map(|s| s.bytes).sum::<u64>();
    }
    world.shutdown()?;
    out.set("ckpt.save_ms", median(&save_ms));
    out.set("ckpt.shard_bytes", shard_bytes as f64);

    let (traced, traced_rep, mut world) = fixed_run(w, TraceMode::Spans, scratch)?;
    let trace = world
        .take_trace()?
        .ok_or("traced world returned no trace")?;
    world.shutdown()?;

    out.attempted = (plain_rep.train_loss.len() + traced_rep.train_loss.len()) as u64;
    check_finite(&mut out, &plain_rep.train_loss, "untraced run");
    check_finite(&mut out, &traced_rep.train_loss, "traced run");
    out.check(
        same_bits(&plain_rep.train_loss, &traced_rep.train_loss),
        n,
        "traced losses differ from the untraced run's",
    );

    let traffic = &plain_rep.traffic;
    let per_iter = |b: u64| b as f64 / n as f64;
    out.set(
        "net.interstage_bytes_per_iter",
        per_iter(traffic.bytes(TrafficClass::InterStage)),
    );
    out.set(
        "net.dp_bytes_per_iter",
        per_iter(traffic.bytes(TrafficClass::DataParallel)),
    );
    out.set(
        "net.emb_bytes_per_iter",
        per_iter(traffic.bytes(TrafficClass::Embedding)),
    );
    out.set(
        "net.msgs_per_iter",
        per_iter(TrafficClass::ALL.iter().map(|&c| traffic.messages(c)).sum()),
    );
    // Any transport error ends the run with an error instead of a result,
    // so a printed result has seen none.
    out.set("net.errors", 0.0);
    let wall = plain.wall(w.tokens_per_iter());
    out.set("wall.tokens_per_s", wall.tokens_per_s);
    out.set("wall.iter_ms_p50", wall.p50_ms);
    out.set("wall.iter_ms_p90", wall.p90_ms);
    out.set(
        "trace.overhead_pct",
        (median(&traced.iter_ms) / wall.p50_ms - 1.0) * 100.0,
    );
    trace_metrics(w, &trace, &traced, &mut out)?;
    crate::probes::run(w, &mut out)?;
    Ok(out)
}

/// The schedule and `core.*` metrics of the traced run, with the bubble
/// and reconciliation checks.
fn trace_metrics(
    w: &Workload,
    trace: &Trace,
    traced: &Drive,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = w.fixed_iters;
    let analysis = analyze(trace, 0);
    let bubble = analysis
        .ranks
        .iter()
        .map(|r| r.bubble_fraction)
        .fold(0.0, f64::max);
    out.set("schedule.bubble_frac", bubble);
    let overlap = analysis.ranks.iter().map(|r| r.overlap_ratio).sum::<f64>()
        / analysis.ranks.len().max(1) as f64;
    out.set("schedule.comm_overlap", overlap);
    // `analyze` averages the bubble over iterations, which rounds; each
    // iteration's own replay must equal the closed form bit for bit.
    let closed_form = opt_schedule::bubble_fraction(w.cfg.pp, w.cfg.n_micro);
    let per_iter = iteration_bubbles(trace);
    let off = per_iter.iter().filter(|&&b| b != closed_form).count() as u64;
    out.check(
        per_iter.len() as u64 == n && off == 0,
        off,
        format!(
            "{off} of {} traced iterations have a bubble fraction other than \
             (S-1)/(M+S-1) = {closed_form}",
            per_iter.len()
        ),
    );

    let split = breakdown(trace).ok_or("trace holds no iteration span")?;
    let attributed: f64 = split.self_ms.values().sum();
    for (&name, &v) in &split.self_ms {
        out.set(name, v);
    }
    out.set("core.iteration_ms", split.iteration_ms);
    out.set("core.cb_encodes_per_iter", split.encodes_per_iter);
    out.check(
        (attributed - split.iteration_ms).abs() <= 1e-6 * split.iteration_ms,
        n,
        format!(
            "self times sum to {attributed} ms, not the {} ms of the iteration spans",
            split.iteration_ms
        ),
    );
    let wall_ms = traced.iter_ms.iter().sum::<f64>() / traced.iter_ms.len() as f64;
    let gap_pct = (wall_ms - attributed) / wall_ms * 100.0;
    out.set("core.reconcile_gap_pct", gap_pct);
    out.check(
        gap_pct.abs() <= RECONCILE_TOL_PCT,
        n,
        format!("reconciliation gap {gap_pct:.2} % exceeds {RECONCILE_TOL_PCT} %"),
    );
    println!(
        "reconcile: rank {} self times {attributed:.3} ms + gap {gap_pct:.2} % = {wall_ms:.3} ms \
         wall per traced iteration (tolerance {RECONCILE_TOL_PCT} %)",
        split.rank
    );
    Ok(())
}
