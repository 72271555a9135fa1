use perfbench::args::parse;

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn parses_the_driver_command_line() {
    let a = parse(args("--workload dp_psgd --seed 42 --seconds 10 --trace 1")).unwrap();
    assert_eq!(a.workload.name, "dp_psgd");
    assert_eq!(a.workload.cfg.seed, 42);
    assert_eq!(a.seconds, 10.0);
    assert!(a.trace);
}

#[test]
fn rejects_bad_command_lines() {
    for bad in [
        "",
        "--workload pipe_cb --seed 1 --seconds 10",
        "--workload nope --seed 1 --seconds 10 --trace 0",
        "--workload pipe_cb --seed -1 --seconds 10 --trace 0",
        "--workload pipe_cb --seed 1 --seconds 0 --trace 0",
        "--workload pipe_cb --seed 1 --seconds 10 --trace 2",
        "--workload pipe_cb --seed 1 --seed 2 --seconds 10 --trace 0",
        "--workload pipe_cb --seed 1 --seconds 10 --trace 0 --extra 1",
        "--workload pipe_cb --seed 1 --seconds 10 --trace",
    ] {
        assert!(parse(args(bad)).is_err(), "{bad}");
    }
}
