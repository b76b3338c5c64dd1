//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` of host time and prints its
//! metrics, one per line, then a final JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` gives the end-to-end
//! metrics; `--trace 1` gives the per-layer ones. Every run is compared
//! with the reference report of its config for this seed; any error or
//! mismatch makes the exit code 1.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use hostbench::probes;
use hostbench::stats::{clock_cost_ns, median, peak_rss_mb, quantile, CLOCK_BATCHES};
use hostbench::timed::{PolicyTrace, Sink, TimedPolicy};
use hostbench::workload::{setup_only, Bench, SWEEP_JOBS};
use kloc_kernel::KernelError;
use kloc_sim::engine::{self, RunConfig, RunReport};
use kloc_sim::runner::{Job, Runner};

/// Fewest timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Longest `--seconds` accepted.
const MAX_SECONDS: f64 = 3600.0;

const USAGE: &str =
    "usage: hostbench --workload <filebench-kloc|cassandra-kloc|rocksdb-nimble|sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => bench = Some(Bench::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= MAX_SECONDS);
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs attempted and failed, over every run this process makes.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Records a batch of runs, failing each that errored or whose
    /// report differs from its reference.
    fn check(&mut self, what: &str, got: Result<Vec<RunReport>, KernelError>, want: &[RunReport]) {
        self.attempted += want.len() as u64;
        match got {
            Err(e) => {
                eprintln!("[hostbench] {what}: run failed: {e}");
                self.failed += want.len() as u64;
            }
            Ok(reports) => {
                for (i, w) in want.iter().enumerate() {
                    if reports.get(i) != Some(w) {
                        eprintln!("[hostbench] {what}: run {i} differs from its reference report");
                        self.failed += 1;
                    }
                }
            }
        }
    }

    /// Fails each reference whose measured-phase op count is not the
    /// target or whose virtual time did not advance.
    fn validate(&mut self, configs: &[RunConfig], reports: &[RunReport]) {
        for (i, (c, r)) in configs.iter().zip(reports).enumerate() {
            if r.ops != c.scale.ops || r.setup_time.as_nanos() == 0 {
                eprintln!(
                    "[hostbench] run {i}: {} ops of {} target, setup {:?}",
                    r.ops, c.scale.ops, r.setup_time
                );
                self.failed += 1;
            }
        }
    }
}

/// Metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str, usize)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push((name, value, unit, samples));
    }
}

/// Runs `configs` one after another on this thread (`engine::run`).
fn serial(configs: &[RunConfig]) -> Result<Vec<RunReport>, KernelError> {
    configs.iter().map(engine::run).collect()
}

/// One untraced execution of the workload: serial for a single run, the
/// parallel runner for the sweep.
fn execute(bench: Bench, configs: &[RunConfig]) -> Result<Vec<RunReport>, KernelError> {
    if bench.is_sweep() {
        Runner::new(SWEEP_JOBS).run_all(configs.to_vec())
    } else {
        serial(configs)
    }
}

/// Host seconds `f` took, with its result.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Whether another repetition is due.
fn more(reps: usize, deadline: Instant) -> bool {
    reps < MIN_REPS || Instant::now() < deadline
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (sum / f64::from(n.max(1))).exp()
}

/// The end-to-end pass: setup-only and full executions alternate until
/// the deadline, every one checked against its reference.
fn end_to_end(
    bench: Bench,
    configs: &[RunConfig],
    reference: &[RunReport],
    seconds: f64,
    ledger: &mut Ledger,
    out: &mut Metrics,
) -> Result<(), KernelError> {
    let setup_configs: Vec<RunConfig> = configs.iter().map(setup_only).collect();
    let setup_reference = serial(&setup_configs)?;
    ledger.attempted += setup_reference.len() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setup_s, mut run_s) = (Vec::new(), Vec::new());
    while more(run_s.len(), deadline) {
        let (r, s) = time(|| execute(bench, &setup_configs));
        ledger.check("setup", r, &setup_reference);
        setup_s.push(s);
        let (r, s) = time(|| execute(bench, configs));
        ledger.check("run", r, reference);
        run_s.push(s);
    }
    let same_setup = setup_reference
        .iter()
        .zip(reference)
        .filter(|(s, r)| s.setup_time == r.setup_time)
        .count();
    println!(
        "[hostbench] virtual setup time of the setup-only run equals the full run's on {same_setup} of {} runs",
        reference.len()
    );
    for (what, xs) in [("setup", &setup_s), ("run", &run_s)] {
        let ms: Vec<String> = xs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        println!("[hostbench] {what} ms, in rep order: {}", ms.join(" "));
    }
    // Throughputs are taken over the whole window (total work ÷ total
    // time). Host speed on a shared machine switches between regimes
    // within a run; a median jumps to whichever regime held most reps,
    // while the window throughput moves smoothly with their mix.
    let n = run_s.len();
    let window_s: f64 = run_s.iter().sum();
    let ops: u64 = reference.iter().map(|r| r.ops).sum();
    let per_s = |work: f64| work * n as f64 / window_s;
    out.push("sim_ops_per_s", per_s(ops as f64), "1/s", n);
    out.push("setup_s", median(&setup_s), "s", setup_s.len());
    let virt = geomean(reference.iter().map(RunReport::throughput));
    out.push("virt_ops_per_s", virt, "1/s", reference.len());
    out.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB", 1);
    out.push("sweep_runs_per_s", per_s(configs.len() as f64), "1/s", n);
    Ok(())
}

/// One execution with every policy wrapped: its host wall seconds and
/// the wrappers' traces in job order. `workers` is ignored for a single
/// run, which goes straight through `engine::run_with`.
fn wrapped_leg(
    bench: Bench,
    configs: &[RunConfig],
    reference: &[RunReport],
    workers: usize,
    time_calls: bool,
    ledger: &mut Ledger,
) -> (f64, Vec<PolicyTrace>) {
    let sink = Sink::default();
    let wrap =
        |i: usize, c: &RunConfig| TimedPolicy::factory(c.policy, i, time_calls, sink.clone());
    let (result, wall) = time(|| {
        if bench.is_sweep() {
            let jobs = configs.iter().enumerate();
            let jobs = jobs
                .map(|(i, c)| Job::with_policy(c.clone(), wrap(i, c)))
                .collect();
            Runner::new(workers).run_jobs(jobs)
        } else {
            let runs = configs.iter().enumerate();
            runs.map(|(i, c)| engine::run_with(c, wrap(i, c)()))
                .collect()
        }
    });
    ledger.check("wrapped run", result, reference);
    let mut traces = std::mem::take(&mut *sink.lock().expect("no wrapper panicked"));
    traces.sort_by_key(|t| t.job);
    (wall, traces)
}

/// Per-run wall nanoseconds from wrapper lifetimes, in job order.
fn run_ns(traces: &[PolicyTrace]) -> Vec<f64> {
    traces.iter().map(|t| t.wall_ns() as f64).collect()
}

/// Host time of one call-timed leg, split by the calibrated clock cost.
struct Split {
    raw_ms: f64,
    run_ms: f64,
    tick_ms: f64,
    access_ms: f64,
    lifecycle_ms: f64,
    place_ms: f64,
}

impl Split {
    fn of(wall_s: f64, traces: &[PolicyTrace], clock_ns: f64) -> Split {
        let calls = traces.iter().map(PolicyTrace::calls).sum::<u64>() as f64;
        let raw_ms = wall_s * 1e3;
        Split {
            raw_ms,
            // Each timed call reads the clock twice: one read lands inside
            // its interval, the other in the rest of the run.
            run_ms: raw_ms - 2.0 * calls * clock_ns / 1e6,
            tick_ms: traces.iter().map(|t| t.tick.net_ms(clock_ns)).sum(),
            access_ms: traces.iter().map(|t| t.access.net_ms(clock_ns)).sum(),
            lifecycle_ms: traces.iter().map(|t| t.lifecycle.net_ms(clock_ns)).sum(),
            place_ms: traces.iter().map(|t| t.place.net_ms(clock_ns)).sum(),
        }
    }

    fn rest_ms(&self) -> f64 {
        self.run_ms - self.tick_ms - self.access_ms - self.lifecycle_ms - self.place_ms
    }
}

/// Runner timings of one serial and one parallel stamp-only leg.
struct RunnerLeg {
    busy_frac: f64,
    idle_ms: f64,
    run_ms_p50: f64,
    run_ms_max: f64,
    run_inflation: f64,
    makespan_over_ideal: f64,
    speedup_vs_serial: f64,
}

impl RunnerLeg {
    fn of(serial_s: f64, serial: &[PolicyTrace], par_s: f64, par: &[PolicyTrace]) -> RunnerLeg {
        let (ser_ns, par_ns) = (run_ns(serial), run_ns(par));
        let busy_ns: f64 = par_ns.iter().sum();
        let capacity_ns = par_s * 1e9 * SWEEP_JOBS as f64;
        let inflation: Vec<f64> = par_ns.iter().zip(&ser_ns).map(|(p, s)| p / s).collect();
        RunnerLeg {
            busy_frac: busy_ns / capacity_ns,
            idle_ms: (capacity_ns - busy_ns) / 1e6,
            run_ms_p50: median(&par_ns) / 1e6,
            run_ms_max: quantile(&par_ns, 1.0) / 1e6,
            run_inflation: median(&inflation),
            makespan_over_ideal: par_s * 1e9 / (busy_ns / SWEEP_JOBS as f64),
            speedup_vs_serial: serial_s / par_s,
        }
    }
}

/// The traced pass: untraced and call-timed executions alternate until
/// the deadline (the sweep adds stamp-only serial and parallel legs),
/// then the exact counts and the unit-cost probes.
fn layers(
    bench: Bench,
    configs: &[RunConfig],
    reference: &[RunReport],
    seconds: f64,
    ledger: &mut Ledger,
    out: &mut Metrics,
) -> Result<(), KernelError> {
    let clock_ns = clock_cost_ns();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut untraced_ms, mut splits, mut legs) = (Vec::new(), Vec::new(), Vec::new());
    let mut tick_us = Vec::new();
    let mut calls = None;
    while more(splits.len(), deadline) {
        let (wall, traces) = wrapped_leg(bench, configs, reference, 1, true, ledger);
        splits.push(Split::of(wall, &traces, clock_ns));
        for t in &traces {
            tick_us.extend(t.tick_ns.iter().map(|&ns| (ns as f64 - clock_ns) / 1e3));
        }
        calls.get_or_insert_with(|| {
            let sum = |f: fn(&PolicyTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
            [
                sum(|t| t.tick.calls),
                sum(|t| t.access.calls),
                sum(|t| t.lifecycle.calls),
                sum(|t| t.place.calls),
            ]
        });
        if bench.is_sweep() {
            let (ser_s, ser) = wrapped_leg(bench, configs, reference, 1, false, ledger);
            let (par_s, par) = wrapped_leg(bench, configs, reference, SWEEP_JOBS, false, ledger);
            let threads: std::collections::HashSet<_> = par.iter().map(|t| t.thread).collect();
            println!(
                "[hostbench] parallel leg ran on {} worker threads",
                threads.len()
            );
            untraced_ms.push(ser_s * 1e3);
            legs.push(RunnerLeg::of(ser_s, &ser, par_s, &par));
        } else {
            let (r, s) = time(|| serial(configs));
            ledger.check("untraced run", r, reference);
            untraced_ms.push(s * 1e3);
        }
    }
    let [tick_calls, access_calls, lifecycle_calls, place_calls] = calls.unwrap_or_default();
    let n = splits.len();
    let med = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let untraced = median(&untraced_ms);
    let accesses: u64 = reference.iter().map(|r| r.mem.total_accesses).sum();

    out.push("policy.tick_ms", med(|s| s.tick_ms), "ms", n);
    out.push("policy.tick_calls", tick_calls, "count", n);
    out.push(
        "policy.tick_us_p50",
        quantile(&tick_us, 0.5),
        "us",
        tick_us.len(),
    );
    out.push(
        "policy.tick_us_p99",
        quantile(&tick_us, 0.99),
        "us",
        tick_us.len(),
    );
    out.push("policy.access_hook_ms", med(|s| s.access_ms), "ms", n);
    out.push("policy.access_hook_calls", access_calls, "count", n);
    out.push("policy.lifecycle_hook_ms", med(|s| s.lifecycle_ms), "ms", n);
    out.push("policy.lifecycle_hook_calls", lifecycle_calls, "count", n);
    out.push("policy.place_page_ms", med(|s| s.place_ms), "ms", n);
    out.push("policy.place_page_calls", place_calls, "count", n);
    let run_ms = med(|s| s.run_ms);
    out.push("engine.run_ms", run_ms, "ms", n);
    out.push("engine.rest_ms", med(Split::rest_ms), "ms", n);
    let per_access = untraced * 1e6 / accesses.max(1) as f64;
    out.push(
        "engine.host_ns_per_access",
        per_access,
        "ns",
        untraced_ms.len(),
    );
    let overhead = (med(|s| s.raw_ms) - untraced) / untraced * 100.0;
    out.push("engine.trace_overhead_pct", overhead, "%", n);
    out.push("engine.clock_cost_ns", clock_ns, "ns", CLOCK_BATCHES);
    println!(
        "[hostbench] policy.tick_ms is {:.1}% of engine.run_ms",
        100.0 * med(|s| s.tick_ms) / run_ms
    );

    let runner = |f: fn(&RunnerLeg) -> f64| {
        let v: Vec<f64> = legs.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let m = legs.len();
    out.push("runner.busy_frac", runner(|l| l.busy_frac), "ratio", m);
    out.push("runner.idle_ms", runner(|l| l.idle_ms), "ms", m);
    out.push("runner.run_ms_p50", runner(|l| l.run_ms_p50), "ms", m);
    out.push("runner.run_ms_max", runner(|l| l.run_ms_max), "ms", m);
    out.push(
        "runner.run_inflation",
        runner(|l| l.run_inflation),
        "ratio",
        m,
    );
    out.push(
        "runner.makespan_over_ideal",
        runner(|l| l.makespan_over_ideal),
        "ratio",
        m,
    );
    out.push(
        "runner.speedup_vs_serial",
        runner(|l| l.speedup_vs_serial),
        "ratio",
        m,
    );

    counts(reference, out);

    match probes::run_all() {
        Ok(costs) => {
            for (name, ns) in costs {
                out.push(name, ns, "ns", probes::BATCHES);
            }
        }
        Err(e) => {
            eprintln!("[hostbench] unit-cost probe failed: {e}");
            ledger.attempted += 1;
            ledger.failed += 1;
        }
    }
    Ok(())
}

/// `part / whole` in percent, 0 when `whole` is 0.
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Exact per-layer counts, summed over the reference reports.
fn counts(reports: &[RunReport], out: &mut Metrics) {
    let n = reports.len();
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    let total = sum(&|r| r.mem.total_accesses);
    let measured = sum(&|r| r.measured_tier_accesses.iter().sum());
    let fast = sum(&|r| r.measured_tier_accesses.first().copied().unwrap_or(0));
    out.push("mem.accesses", total as f64, "count", n);
    out.push(
        "mem.kernel_access_pct",
        pct(sum(&|r| r.mem.kernel_accesses), total),
        "%",
        n,
    );
    out.push("mem.fast_access_pct", pct(fast, measured), "%", n);
    out.push(
        "mem.migrations",
        sum(&|r| r.migrations.total()) as f64,
        "count",
        n,
    );
    out.push(
        "mem.migrate_failed",
        sum(&|r| r.migrations.failed) as f64,
        "count",
        n,
    );

    let k = |f: fn(&kloc_kernel::KernelStats) -> u64| sum(&|r| f(&r.kernel));
    let syscalls = k(|s| s.syscalls.values().sum());
    let hits = k(|s| s.cache_hits);
    let dentry_hits = k(|s| s.dentry_hits);
    out.push("kernel.syscalls", syscalls as f64, "count", n);
    out.push(
        "kernel.cache_hit_pct",
        pct(hits, hits + k(|s| s.cache_misses)),
        "%",
        n,
    );
    let dentry = pct(dentry_hits, dentry_hits + k(|s| s.dentry_misses));
    out.push("kernel.dentry_hit_pct", dentry, "%", n);
    out.push(
        "kernel.writeback_pages",
        k(|s| s.writeback_pages) as f64,
        "count",
        n,
    );
    out.push(
        "kernel.reclaimed_pages",
        k(|s| s.reclaimed_pages) as f64,
        "count",
        n,
    );
    let useful = pct(sum(&|r| r.readahead_useful), sum(&|r| r.readahead_issued));
    out.push("kernel.readahead_useful_pct", useful, "%", n);

    let c = |f: fn(&kloc_core::KlocStats) -> u64| sum(&|r| r.kloc.as_ref().map_or(0, f)) as f64;
    out.push("core.knodes_created", c(|s| s.knodes_created), "count", n);
    out.push("core.objects_tracked", c(|s| s.objects_tracked), "count", n);
    out.push("core.pages_demoted", c(|s| s.pages_demoted), "count", n);
    out.push("core.pages_promoted", c(|s| s.pages_promoted), "count", n);
    let tree = sum(&|r| r.kmap_tree_accesses.unwrap_or(0));
    out.push("core.kmap_tree_accesses", tree as f64, "count", n);
    let ratios: Vec<f64> = reports.iter().filter_map(|r| r.percpu_hit_ratio).collect();
    let percpu = if ratios.is_empty() {
        0.0
    } else {
        100.0 * ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    out.push("core.percpu_hit_pct", percpu, "%", ratios.len());
    out.push("workloads.ops", sum(&|r| r.ops) as f64, "count", n);
}

/// Prints the metrics and the final JSON line; true when it is correct.
fn report(ledger: &Ledger, metrics: &Metrics, ok: bool) -> bool {
    let mut fields = Vec::new();
    let mut finite = true;
    for &(name, value, unit, samples) in &metrics.0 {
        println!("{name} = {value} {unit} (n={samples})");
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !finite {
        eprintln!("[hostbench] a metric could not be measured");
    }
    let correct = ok && finite && ledger.failed == 0;
    println!(
        "failed_frac = {} ({} of {} runs)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        fields.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let configs = args.bench.configs(args.seed);
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    let result = serial(&configs).and_then(|reference| {
        ledger.attempted += reference.len() as u64;
        ledger.validate(&configs, &reference);
        let pass = if args.trace { layers } else { end_to_end };
        pass(
            args.bench,
            &configs,
            &reference,
            args.seconds,
            &mut ledger,
            &mut metrics,
        )
    });
    if let Err(e) = &result {
        eprintln!("[hostbench] reference run failed: {e}");
        ledger.attempted += 1;
        ledger.failed += 1;
    }
    if report(&ledger, &metrics, result.is_ok()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload sweep --seed 7 --seconds 25 --trace 1").expect("valid");
        assert_eq!(a.bench, Bench::Sweep);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25.0, true));
    }

    #[test]
    fn rejects_bad_input() {
        for line in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep --seed -1 --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 0 --trace 0",
            "--workload sweep --seed 1 --seconds NaN --trace 0",
            "--workload sweep --seed 1 --seconds 1e300 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace 2",
            "--workload sweep --seed 1 --seconds 1",
            "--workload sweep --seed 1 --seconds 1 --trace",
            "--workload sweep --seed 1 --seconds 1 --trace 0 --jobs 2",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn ledger_counts_errors_and_mismatches() {
        let mut small = Bench::RocksdbNimble.configs(1).remove(0);
        small.scale = kloc_workloads::Scale::tiny().with_seed(1);
        let want = serial(std::slice::from_ref(&small)).expect("tiny run");
        let mut ledger = Ledger::default();
        ledger.check("same", Ok(want.clone()), &want);
        let mut other = want.clone();
        other[0].ops += 1;
        ledger.check("differs", Ok(other), &want);
        ledger.check("missing", Ok(Vec::new()), &want);
        assert_eq!((ledger.attempted, ledger.failed), (3, 2));
    }
}
