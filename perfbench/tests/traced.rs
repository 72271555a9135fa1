use optimus_cc::{TraceMode, Trainer};
use perfbench::traced::{breakdown, iteration_bubbles, metric_names};
use perfbench::workload::{Workload, NAMES};

/// Every workload's world trains as its `pp x dp = 2` configuration says,
/// and its traced iterations split into self times that add up.
#[test]
fn traced_iterations_reconcile_and_replay_the_closed_form_bubble() {
    for name in ["pipe_cb", "dp_psgd"] {
        let w = Workload::named(name, 3).unwrap();
        assert_eq!(w.cfg.pp * w.cfg.dp, 2);
        let mut trainer = Trainer::launch_with_trace(w.cfg.clone(), TraceMode::Spans);
        trainer.train_more(3);
        let trace = trainer.take_trace().expect("traced world");
        trainer.shutdown();

        let split = breakdown(&trace).expect("iteration spans");
        assert_eq!(split.iterations, 3);
        assert_eq!(split.self_ms.len(), metric_names().count());
        let sum: f64 = split.self_ms.values().sum();
        assert!((sum - split.iteration_ms).abs() <= 1e-9 * split.iteration_ms);
        assert!(split.self_ms.values().all(|&v| v >= 0.0));

        let closed = opt_schedule::bubble_fraction(w.cfg.pp, w.cfg.n_micro);
        assert_eq!(iteration_bubbles(&trace), vec![closed; 3], "{name}");
    }
}

#[test]
fn workload_names_resolve() {
    for name in NAMES {
        let w = Workload::named(name, 1).unwrap();
        assert_eq!(w.name, name);
        assert!(w.fixed_iters > 10);
    }
    assert!(Workload::named("nope", 1).is_none());
    let tcp = Workload::named("tcp_ckpt", 9).unwrap();
    let pipe = Workload::named("pipe_cb", 9).unwrap();
    assert_eq!(tcp.cfg.fingerprint(), pipe.cfg.fingerprint());
    assert_eq!(tcp.fixed_iters, pipe.fixed_iters);
}
