//! `trace_report` — analyzes a Chrome-trace JSON exported by
//! `Trace::to_chrome_json` (the file the multiproc CI job uploads, or
//! whatever `examples/trace_profile.rs` wrote) without needing the run
//! that produced it.
//!
//! The exporter repeats every structural span field under each event's
//! `args`, so this tool can reconstruct the per-rank [`TraceBuffer`]s,
//! re-merge them, and run the same [`opt_trace::analyze`] pass the
//! trainer-side consumers use: per-rank pipeline-bubble fraction,
//! comm/compute overlap, and the top-k slowest spans.
//!
//! ```text
//! trace_report <trace.json> [--top K] [--require-compute]
//! ```
//!
//! * `--top K` — how many slowest spans to list (default 5);
//! * `--require-compute` — exit non-zero unless the trace holds at least
//!   one compute span (the CI assertion that tracing actually recorded
//!   the run, not an empty shell).

use opt_bench::json::Json;
use opt_trace::{analyze, render, SpanKind, SpanRecord, Trace, TraceBuffer, NO_MICRO};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_report: {msg}");
    ExitCode::FAILURE
}

/// Reads one `args` integer, tolerating the `-1` the exporter uses for
/// absent microbatches.
fn arg_i64(args: &Json, key: &str) -> Result<i64, String> {
    args.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as i64)
        .ok_or_else(|| format!("event missing numeric args.{key}"))
}

fn arg_u64(args: &Json, key: &str) -> Result<u64, String> {
    args.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("event missing numeric args.{key}"))
}

/// Collects the `kernel_paths` metadata event the exporter emits: the
/// `{arch}/{packed|skinny|swapped|sparse}` loop nests (with invocation
/// counts) the exporting process actually executed. Absent in traces written before
/// the event existed, so an empty result is not an error.
fn kernel_paths(doc: &Json) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Some(events) = doc.get("traceEvents").and_then(Json::as_array) else {
        return out;
    };
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("M")
            || ev.get("name").and_then(Json::as_str) != Some("kernel_paths")
        {
            continue;
        }
        if let Some(args) = ev.get("args").and_then(Json::as_object) {
            for (path, count) in args {
                out.push((path.clone(), count.as_u64().unwrap_or(0)));
            }
        }
    }
    out.sort();
    out
}

/// Rebuilds the per-rank buffers from the exported complete (`"X"`)
/// events; other metadata (`"M"`) events are skipped.
fn reconstruct(doc: &Json) -> Result<Trace, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing \"traceEvents\" array — not a Chrome-trace document")?;
    let mut buffers: BTreeMap<u64, TraceBuffer> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |e: String| format!("event {i}: {e}");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing ph".to_string()))?;
        if ph != "X" {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing name".to_string()))?;
        let kind =
            SpanKind::from_name(name).ok_or_else(|| at(format!("unknown span kind \"{name}\"")))?;
        let args = ev
            .get("args")
            .ok_or_else(|| at("missing args".to_string()))?;
        let ts_us = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("missing ts".to_string()))?;
        let dur_us = ev
            .get("dur")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("missing dur".to_string()))?;
        let rank = arg_u64(args, "rank").map_err(&at)?;
        let micro = arg_i64(args, "micro").map_err(&at)?;
        let span = SpanRecord {
            seq: arg_u64(args, "seq").map_err(&at)?,
            parent: arg_u64(args, "parent").map_err(&at)?,
            kind,
            iter: arg_u64(args, "iter").map_err(&at)?,
            micro: if micro < 0 { NO_MICRO } else { micro as u32 },
            bytes: arg_u64(args, "bytes").map_err(&at)?,
            flags: arg_u64(args, "flags").map_err(&at)? as u8,
            start_ns: (ts_us * 1_000.0).round() as u64,
            dur_ns: (dur_us * 1_000.0).round() as u64,
        };
        let buf = buffers.entry(rank).or_insert_with(|| TraceBuffer {
            rank: rank as u32,
            stage: arg_u64(args, "stage").unwrap_or(0) as u32,
            dp: arg_u64(args, "dp").unwrap_or(0) as u32,
            spans: Vec::new(),
        });
        buf.spans.push(span);
    }
    Ok(Trace::merge(buffers.into_values().collect()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_compute = args.iter().any(|a| a == "--require-compute");
    let top_k: usize = args
        .iter()
        .position(|a| a == "--top")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    // The first positional argument is the input path; the value of
    // `--top` is not positional.
    let mut path = None;
    let mut skip_next = false;
    for a in &args {
        if std::mem::take(&mut skip_next) {
            continue;
        }
        if a == "--top" {
            skip_next = true;
        } else if !a.starts_with("--") {
            path = Some(a);
            break;
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_report <trace.json> [--top K] [--require-compute]");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {path}: {e}")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("parsing {path}: {e}")),
    };
    let trace = match reconstruct(&doc) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{path}: {e}")),
    };

    println!(
        "{path}: {} ranks, {} spans ({} compute), structural digest {:016x}",
        trace.buffers.len(),
        trace.span_count(),
        trace.compute_span_count(),
        trace.structural_digest()
    );
    let paths = kernel_paths(&doc);
    if !paths.is_empty() {
        let rendered: Vec<String> = paths.iter().map(|(p, n)| format!("{p} x{n}")).collect();
        println!(
            "kernel paths exercised (exporting process): {}",
            rendered.join(", ")
        );
    }
    print!("{}", render(&analyze(&trace, top_k)));

    if require_compute && trace.compute_span_count() == 0 {
        return fail("--require-compute: the trace holds no compute spans");
    }
    ExitCode::SUCCESS
}
