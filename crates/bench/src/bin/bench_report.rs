//! `bench_report` — renders the committed benchmark reports and enforces
//! the CI regression gate (observability tooling, not a paper figure).
//!
//! Render mode (default) is a pure function of the committed
//! `BENCH_<dimension>.json` records: it rewrites `reports/summary.md`,
//! `reports/trajectory.md`, and the headline block between the
//! `BENCH_HEADLINE` markers in `README.md`. Running it twice against the
//! same JSONs produces byte-identical output — the generated files are
//! never hand-edited, and CI diffs them to prove it.
//!
//! Gate mode (`--gate <dir>`) compares a fresh `bench_matrix` run in
//! `<dir>` against the committed baselines, failing (exit 1) when a
//! dimension's median slowdown exceeds the threshold — see
//! `opt_bench::matrix::gate` for the exact policy and
//! `reports/bench_allowlist.txt` for the escape hatch.
//!
//! Re-baseline gate mode (`--gate-committed <dir>`) applies the same rule
//! to the baselines themselves: the committed `BENCH_*.json` are the
//! current side and the records in `<dir>` (the parent commit's) are the
//! baseline, so a change that commits slower baselines fails unless the
//! rows or dimensions are named in its own allowlist.
//!
//! Knobs:
//!
//! * `--repo-root <dir>` — where the committed baselines, `reports/`,
//!   and `README.md` live (default `.`);
//! * `--gate <dir>` — gate the `BENCH_*.json` files in `<dir>` against
//!   the committed baselines instead of rendering;
//! * `--gate-committed <dir>` — gate the committed baselines against the
//!   older records in `<dir>` instead of rendering;
//! * `--threshold-pct <p>` — regression threshold for either gate
//!   (default 15, i.e. median slowdown > 1.15× fails);
//! * `--check` — render mode only: exit 1 if any output file would
//!   change (used by CI to prove the committed reports are current).

use opt_bench::matrix::{gate, load_bench_dir, Allowlist, Trajectory, DEFAULT_THRESHOLD_PCT};
use opt_bench::report::{render_gate, render_summary, render_trajectory, splice_readme};
use std::path::{Path, PathBuf};

const ALLOWLIST_FILE: &str = "reports/bench_allowlist.txt";

/// Writes `content` to `path` unless it is already byte-identical.
/// Returns `true` when the file changed (or would change, in check mode).
fn put(path: &Path, content: &str, check: bool) -> bool {
    let existing = std::fs::read_to_string(path).ok();
    if existing.as_deref() == Some(content) {
        println!("unchanged {}", path.display());
        return false;
    }
    if check {
        eprintln!(
            "STALE {} (re-run `cargo run --bin bench_report`)",
            path.display()
        );
    } else {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("creating reports dir");
        }
        std::fs::write(path, content).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        println!("wrote {}", path.display());
    }
    true
}

fn run_render(root: &Path, check: bool) -> i32 {
    let files = match load_bench_dir(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "error loading benchmark records from {}: {e}",
                root.display()
            );
            return 1;
        }
    };
    if files.is_empty() {
        eprintln!(
            "no BENCH_*.json records in {} — run `cargo run --release --bin bench_matrix` first",
            root.display()
        );
        return 1;
    }
    let mut changed = false;
    changed |= put(
        &root.join("reports/summary.md"),
        &render_summary(&files),
        check,
    );
    let trajectory_path = root.join(opt_bench::matrix::TRAJECTORY_FILE);
    match Trajectory::load(&trajectory_path) {
        Ok(t) if !t.entries.is_empty() => {
            changed |= put(
                &root.join("reports/trajectory.md"),
                &render_trajectory(&t),
                check,
            );
        }
        Ok(_) => println!("no trajectory entries yet; skipping reports/trajectory.md"),
        Err(e) => {
            eprintln!("error parsing {}: {e}", trajectory_path.display());
            return 1;
        }
    }
    let readme_path = root.join("README.md");
    match std::fs::read_to_string(&readme_path) {
        Ok(readme) => match splice_readme(&readme, &files) {
            Some(updated) => changed |= put(&readme_path, &updated, check),
            None => println!("README.md has no BENCH_HEADLINE markers; leaving it untouched"),
        },
        Err(_) => println!("no README.md at {}; skipping splice", root.display()),
    }
    if check && changed {
        eprintln!("generated docs are stale");
        return 1;
    }
    0
}

/// Gates the records in `current_dir` against those in `baseline_dir`,
/// waiving what `root`'s allowlist names.
fn run_gate(root: &Path, baseline_dir: &Path, current_dir: &Path, threshold_pct: f64) -> i32 {
    let load = |side: &str, dir: &Path| {
        load_bench_dir(dir).map_err(|e| {
            eprintln!("error loading {side} from {}: {e}", dir.display());
        })
    };
    let (Ok(baselines), Ok(currents)) = (
        load("baselines", baseline_dir),
        load("current run", current_dir),
    ) else {
        return 1;
    };
    if baselines.is_empty() {
        eprintln!(
            "no baselines in {} — nothing to gate against",
            baseline_dir.display()
        );
        return 1;
    }
    let allow = Allowlist::load(&root.join(ALLOWLIST_FILE));
    if !allow.is_empty() {
        println!("allowlist: {} entr(ies) from {ALLOWLIST_FILE}", allow.len());
    }
    let threshold_ratio = 1.0 + threshold_pct / 100.0;
    let (verdicts, pass) = gate(&baselines, &currents, threshold_ratio, &allow);
    print!("{}", render_gate(&verdicts, threshold_ratio));
    if pass {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let root = PathBuf::from(value("--repo-root").unwrap_or_else(|| ".".to_string()));
    let check = args.iter().any(|a| a == "--check");
    let threshold_pct = value("--threshold-pct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD_PCT);
    let code = match (value("--gate"), value("--gate-committed")) {
        (Some(current), _) => run_gate(&root, &root, &PathBuf::from(current), threshold_pct),
        (None, Some(parent)) => run_gate(&root, &PathBuf::from(parent), &root, threshold_pct),
        (None, None) => run_render(&root, check),
    };
    std::process::exit(code);
}
