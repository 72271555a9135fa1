use perfbench::metrics::{valid_name, valid_unit, Outcome, END_TO_END, PER_LAYER};
use perfbench::workload::NAMES;
use std::collections::BTreeSet;

#[test]
fn name_and_unit_rules() {
    for ok in ["tokens_per_s", "net.p2p_hop_us", "9lives", "a-b"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", "_x", ".x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["ms", "s", "1/s", "%", "B/token", "GFLOP/s"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "m s", "µs", &"x".repeat(17)] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

#[test]
fn declared_metrics_are_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(spec.name), "{}", spec.name);
        assert!(valid_unit(spec.unit), "{}", spec.unit);
        assert!(seen.insert(spec.name), "{} declared twice", spec.name);
    }
    for name in NAMES {
        assert!(valid_name(name) && seen.insert(name), "{name}");
    }
    assert!(END_TO_END
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the
/// benchmark emits, each metric with the unit it is emitted with.
#[test]
fn benchmark_json_matches_the_declared_set() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closed string")])
        .collect();
    let expected: Vec<&str> = NAMES
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|s| s.name))
        .collect();
    assert_eq!(names, expected);
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", spec.name, spec.unit);
        assert!(json.contains(&entry), "{entry}");
    }
}

#[test]
fn outcome_line_has_the_four_keys_and_every_digit() {
    let mut out = Outcome::new(END_TO_END);
    for (i, spec) in END_TO_END.iter().enumerate() {
        out.set(spec.name, 0.1 + i as f64 / 3.0);
    }
    out.attempted = 7;
    assert!(out.correct());
    let line = out.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"loss_final\": {\"value\": 0.43333333333333335, \"unit\": \"nats\"}"));
    assert!(line.ends_with("}}"));
}

#[test]
fn missing_metric_or_failed_check_makes_the_run_incorrect() {
    let mut out = Outcome::new(END_TO_END);
    out.set("setup_s", 1.0);
    assert!(!out.correct());
    assert!(out.missing().contains(&"loss_final"));

    let mut out = Outcome::new(END_TO_END);
    for spec in END_TO_END {
        out.set(spec.name, 1.0);
    }
    out.check(false, 5, "losses differ");
    assert!(!out.correct());
    assert_eq!(out.failed, 5);
}

#[test]
#[should_panic(expected = "set twice")]
fn a_metric_is_set_once() {
    let mut out = Outcome::new(END_TO_END);
    out.set("setup_s", 1.0);
    out.set("setup_s", 2.0);
}
