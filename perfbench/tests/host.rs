use perfbench::host::{
    cores, cpu_ms, parse_cpu_ms, parse_steal, parse_vm_hwm_mb, peak_rss_mb, StealClock,
};

#[test]
fn cpu_reader_counts_fields_after_the_command_name() {
    // A command name with spaces and parentheses must not shift fields.
    let stat = "4242 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0 100";
    assert_eq!(parse_cpu_ms(stat), Some(2000.0));
    assert_eq!(parse_cpu_ms("4242 (x) S 1 2"), None);
    assert_eq!(parse_cpu_ms("no parenthesis"), None);
}

#[test]
fn rss_reader_takes_vm_hwm() {
    let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
    assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
    assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1024 kB\n"), None);
}

#[test]
fn steal_reader_sums_the_first_eight_fields() {
    let stat = "cpu  10 1 5 80 2 0 1 1 7 0\ncpu0 5 0 2 40 1 0 0 1 0 0\n";
    assert_eq!(parse_steal(stat), Some((1, 100)));
    assert_eq!(parse_steal("cpu0 1 2 3\n"), None);
}

#[test]
fn live_readers_see_this_process() {
    let before = cpu_ms(None).expect("own stat");
    let start = std::time::Instant::now();
    let mut x = 0u64;
    while start.elapsed().as_millis() < 100 {
        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
    }
    assert!(cpu_ms(None).expect("own stat") > before);
    assert!(peak_rss_mb(None).expect("own status") > 0.0);
    let clock = StealClock::now().expect("/proc/stat");
    let pct = clock.pct_until(&StealClock::now().expect("/proc/stat"));
    assert!((0.0..=100.0).contains(&pct));
    assert!(cores() >= 1);
}
