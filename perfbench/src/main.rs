//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! record the host conditions and the output checks. Exits 0 only when
//! every output check passed.
//!
//! The same executable is the worker of the `tcp_ckpt` process world:
//! started with the worker environment protocol (`OPT_WORKER_RANK`, ...)
//! it runs one rank and nothing else.

use perfbench::host::{cores, StealClock};
use perfbench::metrics::Outcome;
use perfbench::{args, run};
use std::path::PathBuf;
use std::process::ExitCode;

/// Kernel pool width of every world: each of the two ranks gets one core.
const KERNEL_THREADS: usize = 1;

fn main() -> ExitCode {
    if std::env::var_os(optimus_cc::ENV_RANK).is_some() {
        opt_tensor::set_kernel_threads(KERNEL_THREADS);
        return match optimus_cc::worker_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    opt_tensor::set_kernel_threads(KERNEL_THREADS);

    // Rendezvous files of process worlds live in the working directory
    // (the checkout), one directory per run.
    let scratch = PathBuf::from(".perfbench-run").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let steal0 = StealClock::now();
    let w = &args.workload;
    let result = if args.trace {
        run::per_layer(w, &scratch)
    } else {
        run::end_to_end(w, args.seconds, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-run");
    let steal_pct = match (steal0, StealClock::now()) {
        (Ok(a), Ok(b)) => a.pct_until(&b),
        _ => f64::NAN,
    };

    let mut out: Outcome = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        out.set("host.steal_pct", steal_pct);
    }
    println!(
        "host: cores={} kernel_arch={} kernel_threads={} steal_pct={steal_pct:.2}",
        cores(),
        opt_tensor::kernel_arch_name(),
        opt_tensor::kernel_threads(),
    );
    for failure in &out.check_failures {
        println!("check failed: {failure}");
    }
    let missing = out.missing();
    if !missing.is_empty() {
        println!("metrics missing or not finite: {}", missing.join(", "));
    }
    println!(
        "workload={} seed={} trace={}",
        w.name,
        w.cfg.seed,
        u8::from(args.trace)
    );
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
