//! The timing wrapper is observation-only: a run through it reports
//! exactly what the plain run reports, for every config of every
//! benchmark workload, on the default seed and on a held-out seed.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use hostbench::timed::{Sink, TimedPolicy};
use hostbench::workload::{Bench, SWEEP_JOBS};
use kloc_sim::engine;
use kloc_sim::runner::{Job, Runner};
use kloc_workloads::Scale;

const HELD_OUT_SEED: u64 = 0x5EED_0002;

fn assert_wrapper_inert(seed: u64) {
    for bench in Bench::ALL {
        for (i, cfg) in bench.configs(seed).iter().enumerate() {
            let sink = Sink::default();
            let plain = engine::run(cfg).expect("plain run");
            let policy = TimedPolicy::new(cfg.policy.build(), i, true, sink.clone());
            let wrapped = engine::run_with(cfg, Box::new(policy)).expect("wrapped run");
            assert_eq!(plain, wrapped, "{} run {i}, seed {seed}", bench.name());
            let traces = sink.lock().expect("sink");
            assert_eq!(traces.len(), 1, "one trace per dropped wrapper");
            let t = &traces[0];
            assert_eq!(t.job, i);
            assert_eq!(t.tick_ns.len() as u64, t.tick.calls);
            assert!(t.place.calls > 0, "{} run {i} placed no page", bench.name());
        }
    }
}

#[test]
fn wrapper_is_report_inert_on_default_seed() {
    assert_wrapper_inert(Scale::huge().seed);
}

#[test]
fn wrapper_is_report_inert_on_held_out_seed() {
    assert_wrapper_inert(HELD_OUT_SEED);
}

#[test]
fn wrapped_parallel_sweep_matches_plain_serial() {
    let configs = Bench::Sweep.configs(HELD_OUT_SEED);
    let serial = Runner::serial()
        .run_all(configs.clone())
        .expect("serial sweep");
    let sink = Sink::default();
    let jobs = configs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Job::with_policy(
                c.clone(),
                TimedPolicy::factory(c.policy, i, false, sink.clone()),
            )
        })
        .collect();
    let parallel = Runner::new(SWEEP_JOBS)
        .run_jobs(jobs)
        .expect("parallel sweep");
    assert_eq!(serial, parallel);
    let traces = sink.lock().expect("sink");
    let mut jobs: Vec<usize> = traces.iter().map(|t| t.job).collect();
    jobs.sort_unstable();
    assert_eq!(
        jobs,
        (0..configs.len()).collect::<Vec<_>>(),
        "one stamp per job"
    );
    assert!(traces.iter().all(|t| t.calls() == 0 && t.end >= t.start));
}
