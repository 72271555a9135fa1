//! Golden-file tests for the benchmark-report generator, plus end-to-end
//! regression-gate behaviour on committed fixtures.
//!
//! The fixed inputs live in `tests/fixtures/{base,regressed}/`; the
//! expected markdown lives next to them as `golden_*.md`. The renderer
//! must be a *byte-identical* function of the JSON records — any
//! formatting drift fails here before it can dirty the committed
//! `reports/`. To re-bless after an intentional format change:
//!
//! ```text
//! BLESS=1 cargo test -p opt-bench --test report_golden
//! ```

use opt_bench::matrix::{gate, load_bench_dir, Allowlist, Trajectory};
use opt_bench::report::{
    render_gate, render_summary, render_trajectory, splice_readme, README_BEGIN, README_END,
};
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Compares `actual` against the committed golden file, or rewrites the
/// golden when `BLESS=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = fixtures().join(name);
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).expect("blessing golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); run with BLESS=1 to create"));
    assert_eq!(
        actual, expected,
        "{name} drifted from the golden; if intentional, re-bless with BLESS=1"
    );
}

#[test]
fn summary_matches_golden_byte_for_byte() {
    let files = load_bench_dir(&fixtures().join("base")).expect("fixtures parse");
    assert_eq!(files.len(), 2, "alpha + beta");
    assert_golden("golden_summary.md", &render_summary(&files));
}

#[test]
fn trajectory_matches_golden_byte_for_byte() {
    let t = Trajectory::load(&fixtures().join("base/BENCH_trajectory.json")).expect("parses");
    assert_golden("golden_trajectory.md", &render_trajectory(&t));
}

#[test]
fn readme_splice_is_idempotent_and_matches_golden() {
    let files = load_bench_dir(&fixtures().join("base")).expect("fixtures parse");
    let readme = format!("# Repo\n\nIntro.\n\n{README_BEGIN}\nstale\n{README_END}\n\nOutro.\n");
    let once = splice_readme(&readme, &files).expect("markers present");
    let twice = splice_readme(&once, &files).expect("markers survive");
    assert_eq!(once, twice, "splice must be idempotent");
    assert!(once.starts_with("# Repo\n\nIntro.\n\n"));
    assert!(once.ends_with("\n\nOutro.\n"));
    assert_golden("golden_readme.md", &once);
}

#[test]
fn rendering_same_inputs_twice_is_byte_identical() {
    let files = load_bench_dir(&fixtures().join("base")).expect("fixtures parse");
    assert_eq!(render_summary(&files), render_summary(&files));
    // And the codec round-trips the fixtures canonically: parse -> emit
    // -> parse yields the same in-memory value.
    for f in &files {
        let reparsed = opt_bench::matrix::BenchFile::parse(&f.to_json()).expect("round trip");
        assert_eq!(&reparsed, f);
    }
}

#[test]
fn gate_passes_on_identical_run() {
    let base = load_bench_dir(&fixtures().join("base")).expect("base");
    let (verdicts, pass) = gate(&base, &base, 1.15, &Allowlist::parse(""));
    assert!(pass, "identical run must pass: {verdicts:?}");
    assert_eq!(verdicts.len(), 2);
}

#[test]
fn gate_trips_on_regressed_fixture() {
    let base = load_bench_dir(&fixtures().join("base")).expect("base");
    let cur = load_bench_dir(&fixtures().join("regressed")).expect("regressed");
    let (verdicts, pass) = gate(&base, &cur, 1.15, &Allowlist::parse(""));
    assert!(!pass, "alpha is 50% slower; the gate must trip");
    let alpha = verdicts.iter().find(|v| v.dimension == "alpha").unwrap();
    assert!(!alpha.pass);
    let ratio = alpha.median_ratio.expect("comparable rows");
    assert!((ratio - 1.5).abs() < 1e-9, "median ratio 1.5, got {ratio}");
    // beta moved ~1%, well under the threshold.
    assert!(
        verdicts
            .iter()
            .find(|v| v.dimension == "beta")
            .unwrap()
            .pass
    );
    // The human-readable verdict names the tripped dimension.
    let text = render_gate(&verdicts, 1.15);
    assert!(text.contains("[FAIL] alpha"), "{text}");
    assert!(text.contains("overall: FAIL"), "{text}");
}

#[test]
fn allowlisted_regression_passes() {
    let base = load_bench_dir(&fixtures().join("base")).expect("base");
    let cur = load_bench_dir(&fixtures().join("regressed")).expect("regressed");
    let allow = Allowlist::parse("# temporary: alpha kernels reworked in #42\nalpha\n");
    let (verdicts, pass) = gate(&base, &cur, 1.15, &allow);
    assert!(
        pass,
        "dimension-level allowlist must override: {verdicts:?}"
    );
    assert!(
        verdicts
            .iter()
            .find(|v| v.dimension == "alpha")
            .unwrap()
            .allowlisted
    );
}

#[test]
fn row_level_allowlist_covers_only_that_row() {
    let base = load_bench_dir(&fixtures().join("base")).expect("base");
    let cur = load_bench_dir(&fixtures().join("regressed")).expect("regressed");
    // Allowlisting two of four alpha rows leaves the other two regressed
    // rows in the median, which still trips.
    let allow = Allowlist::parse("alpha/gemm/64x64/naive\nalpha/gemm/64x64/blocked\n");
    let (_, pass) = gate(&base, &cur, 1.15, &allow);
    assert!(!pass);
    // Allowlisting all four passes the dimension.
    let allow_all = Allowlist::parse(
        "alpha/gemm/64x64/naive\nalpha/gemm/64x64/blocked\n\
         alpha/ortho/64x8/naive\nalpha/ortho/64x8/blocked\n",
    );
    let (verdicts, pass) = gate(&base, &cur, 1.15, &allow_all);
    assert!(pass, "{verdicts:?}");
}

#[test]
fn committed_repo_baselines_parse_and_render() {
    // The real committed records at the repo root must always be
    // readable by the current schema and renderable without panicking.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = load_bench_dir(&root).expect("committed BENCH_*.json parse");
    if files.is_empty() {
        return; // fresh checkout before the first matrix run
    }
    let md = render_summary(&files);
    assert!(md.contains("Generated file"), "banner present");
    let t = Trajectory::load(&root.join(opt_bench::matrix::TRAJECTORY_FILE)).expect("trajectory");
    if !t.entries.is_empty() {
        render_trajectory(&t);
    }
}

/// Runs `bench_report --repo-root <root> --gate-committed <parent>` and
/// returns whether it passed.
fn gate_committed(root: &Path, parent: &Path) -> bool {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .arg("--repo-root")
        .arg(root)
        .arg("--gate-committed")
        .arg(parent)
        .output()
        .expect("running bench_report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("overall:"), "verdict printed: {stdout}");
    out.status.success()
}

#[test]
fn rebaseline_gate_trips_on_slower_committed_baselines() {
    // Committed records equal to the parent's pass; committing the
    // regressed fixture over the base one fails on alpha.
    assert!(gate_committed(
        &fixtures().join("base"),
        &fixtures().join("base")
    ));
    assert!(!gate_committed(
        &fixtures().join("regressed"),
        &fixtures().join("base")
    ));
    // Faster than the parent passes: the rule only looks one way.
    assert!(gate_committed(
        &fixtures().join("base"),
        &fixtures().join("regressed")
    ));
}

#[test]
fn rebaseline_gate_honours_the_committed_allowlist() {
    // A change that re-baselines alpha slower passes once its own
    // allowlist names the dimension.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rebaseline-allowlisted");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("reports")).expect("temp repo root");
    for entry in std::fs::read_dir(fixtures().join("regressed")).expect("fixtures") {
        let path = entry.expect("fixture entry").path();
        std::fs::copy(&path, root.join(path.file_name().expect("file name"))).expect("copy");
    }
    assert!(!gate_committed(&root, &fixtures().join("base")));
    std::fs::write(
        root.join("reports/bench_allowlist.txt"),
        "# alpha re-baselined slower on purpose\nalpha\n",
    )
    .expect("allowlist");
    assert!(gate_committed(&root, &fixtures().join("base")));
}
