//! The declared metric set, name rules, and the one-line JSON result.

/// A declared metric: name, unit, and what it measures.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Metrics of a `--trace 0` run: what a user of the trainer sees, limited
/// to what CPU steal on a shared host leaves steady. Wall-clock speed is a
/// per-layer metric (`wall.*`) for that reason.
pub const END_TO_END: &[Spec] = &[
    spec("cpu_ms_per_iter", "ms"),
    spec("loss_final", "nats"),
    spec("wire_bytes_per_token", "B/token"),
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MiB"),
];

/// Metrics of a `--trace 1` run: one layer (crate) each, from the traced
/// run, the untraced reference run, and the layer probes.
pub const PER_LAYER: &[Spec] = &[
    spec("wall.tokens_per_s", "tokens/s"),
    spec("wall.iter_ms_p50", "ms"),
    spec("wall.iter_ms_p90", "ms"),
    spec("tensor.gemm_small_us", "us"),
    spec("tensor.gemm_us", "us"),
    spec("tensor.gemm_gflops", "GFLOP/s"),
    spec("tensor.t_matmul_us", "us"),
    spec("tensor.orthonormalize_us", "us"),
    spec("model.fwd_us", "us"),
    spec("model.bwd_us", "us"),
    spec("model.optimizer_us", "us"),
    spec("compress.cb_encode_us", "us"),
    spec("compress.cb_decode_us", "us"),
    spec("compress.dp_encode_us", "us"),
    spec("compress.dp_decode_us", "us"),
    spec("compress.ratio", "x"),
    spec("compress.rel_error", "ratio"),
    spec("net.p2p_hop_us", "us"),
    spec("net.allreduce_us", "us"),
    spec("net.tcp_hop_us", "us"),
    spec("net.interstage_bytes_per_iter", "B"),
    spec("net.dp_bytes_per_iter", "B"),
    spec("net.emb_bytes_per_iter", "B"),
    spec("net.msgs_per_iter", "count"),
    spec("net.errors", "count"),
    spec("data.batch_us", "us"),
    spec("schedule.bubble_frac", "ratio"),
    spec("schedule.comm_overlap", "ratio"),
    spec("ckpt.save_ms", "ms"),
    spec("ckpt.shard_bytes", "B"),
    spec("core.forward_ms", "ms"),
    spec("core.backward_ms", "ms"),
    spec("core.optimizer_ms", "ms"),
    spec("core.encode_ms", "ms"),
    spec("core.decode_ms", "ms"),
    spec("core.dp_exchange_ms", "ms"),
    spec("core.embedding_sync_ms", "ms"),
    spec("core.send_ms", "ms"),
    spec("core.recv_wait_ms", "ms"),
    spec("core.overlap_join_ms", "ms"),
    spec("core.unattributed_ms", "ms"),
    spec("core.iteration_ms", "ms"),
    spec("core.reconcile_gap_pct", "%"),
    spec("core.cb_encodes_per_iter", "count"),
    spec("trace.overhead_pct", "%"),
    spec("host.steal_pct", "%"),
];

/// A metric name: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    specs: &'static [Spec],
    values: Vec<Option<f64>>,
    /// Iterations attempted (at least 1 in a printed result).
    pub attempted: u64,
    /// Iterations that failed: an error, a non-finite loss, or a failed
    /// output check covering them.
    pub failed: u64,
    /// Failed output checks, by description.
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// An empty outcome that must be filled with every metric of `specs`.
    pub fn new(specs: &'static [Spec]) -> Outcome {
        Outcome {
            specs,
            values: vec![None; specs.len()],
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
        }
    }

    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or was already set — both are
    /// bugs in the benchmark, not in the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    /// Records an output check; a failure marks `covered` iterations as
    /// failed.
    pub fn check(&mut self, ok: bool, covered: u64, what: impl Into<String>) {
        if !ok {
            self.failed += covered.max(1);
            self.check_failures.push(what.into());
        }
    }

    /// Whether every check passed, every metric is set and finite, and
    /// no iteration failed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
            && self.failed == 0
            && self.values.iter().all(|v| v.is_some_and(f64::is_finite))
    }

    /// Declared metrics that were never set or are not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.specs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|(s, _)| s.name)
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// each metric with its value (all digits) and unit. Metrics that are
    /// missing or not finite are left out, which the `correct` flag
    /// already reports.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .specs
            .iter()
            .zip(&self.values)
            .filter_map(|(s, v)| {
                let v = v.filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    s.name, s.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
