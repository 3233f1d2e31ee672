//! End-to-end and per-layer benchmark of the SafeMem reproduction.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <harsh|fleet|table3|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload's closed batch runs repeatedly through the
//! public entry points for `--seconds` seconds and the end-to-end metrics
//! are reported, host times scaled to a reference host speed. With
//! `--trace 1` each iteration runs the batch untraced on one worker, traced
//! on one thread, and, where the runner has a worker pool, untraced on two
//! workers; the per-layer metrics are reported. The last line of standard
//! output is one JSON object; the lines before it are the same numbers for
//! a reader. See `perfbench/README.md`.

mod common;
mod fleet;
mod harsh;
mod panel;
mod table3;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{available_parallelism, peak_rss_mib, quartiles, Calibration, Host};
use trace::{Counters, Tracer};

/// One correctness condition and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    what: String,
    ok: bool,
}

impl Check {
    /// A named condition.
    pub fn new(what: impl Into<String>, ok: bool) -> Self {
        Check {
            what: what.into(),
            ok,
        }
    }
}

/// Simulated totals of one batch. Deterministic for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sim {
    /// SafeMem CPU cycles.
    pub tool_cycles: u64,
    /// Uninstrumented CPU cycles over the same inputs.
    pub base_cycles: u64,
    /// SafeMem heap bytes wasted.
    pub waste: u64,
    /// SafeMem heap payload bytes.
    pub payload: u64,
    /// Bugs planted.
    pub planted: u64,
    /// Planted bugs SafeMem reported.
    pub detected: u64,
    /// SafeMem false reports of every kind.
    pub false_positives: u64,
}

/// What one untraced batch measured.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Cells attempted.
    pub cells: u64,
    /// Cells that errored or failed the workload's check.
    pub failed: u64,
    /// Host time of the batch's set-up.
    pub setup: Duration,
    /// Host time of the public calls that ran the cells.
    pub wall: Duration,
    /// `1 - sum(worker busy) / (threads * wall)` of the campaign runner.
    pub idle_frac: Option<f64>,
    /// Digest of the scorecard and simulated counters.
    pub digest: u64,
    /// Simulated totals.
    pub sim: Sim,
    /// Correctness conditions.
    pub checks: Vec<Check>,
}

/// What one traced batch measured.
#[derive(Debug)]
pub struct Traced {
    /// The recorded spans.
    pub tracer: Tracer,
    /// Per-layer metrics derived from spans and counters.
    pub layers: BTreeMap<&'static str, f64>,
    /// Cells traced.
    pub cells: u64,
    /// Cells that failed a check or the fidelity cross-check.
    pub failed: u64,
    /// Correctness and fidelity conditions.
    pub checks: Vec<Check>,
}

/// A benchmark workload: a closed batch of cells.
pub trait Workload {
    /// The batch's shape, for the report header.
    fn describe(&self) -> String;
    /// Runs one batch through the public entry points, giving the
    /// campaign runners `workers` worker threads and fleet shards (table3's
    /// `run_app` loop has no pool and ignores it).
    ///
    /// # Errors
    ///
    /// Returns a message if a public call fails.
    fn batch(&mut self, workers: usize) -> Result<Batch, String>;
    /// Runs the batch traced on one thread, cross-checked against the last
    /// untraced batch.
    ///
    /// # Errors
    ///
    /// Returns a message if a public call fails.
    fn traced(&self) -> Result<Traced, String>;
    /// Workload-specific lines about the last batch.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// End-to-end metrics: name, unit, and whether the final JSON line reports
/// it (`BENCHMARK.json` lists those). `false_positives` and `failed_frac`
/// read 0 at this commit, so they are printed and enforced as correctness
/// conditions instead. The `.host` rows are the host times before scaling
/// to the reference host speed, and `calibration_ms` the probe's time.
const END_TO_END: &[(&str, &str, bool)] = &[
    ("cells_per_s", "cells/s", true),
    ("setup_s", "s", true),
    ("peak_rss_mb", "MiB", true),
    ("safemem_cpu_overhead_pct", "%", true),
    ("safemem_mem_overhead_pct", "%", true),
    ("detected_frac", "ratio", true),
    ("false_positives", "count", false),
    ("failed_frac", "ratio", false),
    ("cells_per_s.host", "cells/s", false),
    ("setup_s.host", "s", false),
    ("calibration_ms", "ms", false),
];

/// Per-layer metrics and their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("faultinject.record_ms", "ms"),
    ("faultinject.cells_per_trace", "count"),
    ("faultinject.injections", "count"),
    ("faultinject.injections_skipped", "count"),
    ("faultinject.worker_idle_frac", "ratio"),
    ("workloads.replay_none_ms", "ms"),
    ("workloads.replay_ns_per_op", "ns"),
    ("workloads.trace_ops", "count"),
    ("workloads.live_baseline_ms", "ms"),
    ("core.replay_safemem_ms", "ms"),
    ("core.live_ml_ms", "ms"),
    ("core.live_mc_ms", "ms"),
    ("core.live_full_ms", "ms"),
    ("core.sampled_frac", "ratio"),
    ("core.leak_checks", "count"),
    ("core.suspects_flagged", "count"),
    ("core.suspects_pruned", "count"),
    ("core.pads_watched", "count"),
    ("core.freed_watched", "count"),
    ("baselines.replay_purify_ms", "ms"),
    ("baselines.replay_memcheck_ms", "ms"),
    ("baselines.replay_pageguard_ms", "ms"),
    ("baselines.live_purify_ms", "ms"),
    ("baselines.live_pageguard_ms", "ms"),
    ("halloc.allocs", "count"),
    ("halloc.frees", "count"),
    ("os.build_ms", "ms"),
    ("os.watch_calls", "count"),
    ("os.disable_calls", "count"),
    ("os.ecc_faults_delivered", "count"),
    ("os.scrub_cycles", "count"),
    ("os.page_faults", "count"),
    ("os.swap_outs", "count"),
    ("machine.sim_cycles", "cycles"),
    ("machine.cpu_cycles", "cycles"),
    ("cache.l1_hits", "count"),
    ("cache.l1_misses", "count"),
    ("cache.l2_hits", "count"),
    ("cache.l2_misses", "count"),
    ("cache.l1_hit_ratio", "ratio"),
    ("ecc.groups_verified", "count"),
    ("ecc.groups_encoded", "count"),
    ("ecc.scrubbed_groups", "count"),
    ("ecc.corrected_single_bit", "count"),
    ("ecc.uncorrectable", "count"),
    ("fleet.boot_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.turns", "count"),
    ("fleet.ns_per_turn", "ns"),
    ("fleet.replay_safemem_ms", "ms"),
    ("fleet.ecc_verified", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.uncovered_frac", "ratio"),
];

/// Counters every workload reports the same way: summed over every tool
/// run of the traced batch, with machine cycles as a mean per tool run.
#[must_use]
pub fn common_layers(c: &Counters) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    let runs = c.get("tool.runs").unwrap_or(1).max(1) as f64;
    for (key, value) in c.iter() {
        let v = value as f64;
        match key {
            "machine.sim_cycles" | "machine.cpu_cycles" => {
                layers.insert(key, v / runs);
            }
            k if PER_LAYER.iter().any(|(name, _)| *name == k) => {
                layers.insert(key, v);
            }
            _ => {}
        }
    }
    let (hits, misses) = (c.get("cache.l1_hits"), c.get("cache.l1_misses"));
    if let (Some(h), Some(m)) = (hits, misses) {
        layers.insert("cache.l1_hit_ratio", h as f64 / (h + m).max(1) as f64);
    }
    if let (Some(s), Some(t)) = (c.get("core.sampled_allocs"), c.get("core.total_allocs")) {
        layers.insert("core.sampled_frac", s as f64 / t.max(1) as f64);
    }
    layers
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Formats one metric row: name, unit, median, quartiles, sample count.
fn row(name: &str, unit: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("  {name:<32} {unit:<8} {:>14}", "n/a");
    }
    let (q1, med, q3) = quartiles(values);
    format!(
        "  {name:<32} {unit:<8} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>4}",
        values.len()
    )
}

fn header() -> String {
    format!(
        "  {:<32} {:<8} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "n"
    )
}

/// Prints each distinct check once and returns whether all held.
fn print_checks(checks: &[Check]) -> bool {
    let mut seen = std::collections::HashSet::new();
    for c in checks.iter().filter(|c| seen.insert((&c.what, c.ok))) {
        println!("  [{}] {}", if c.ok { "ok" } else { "FAIL" }, c.what);
    }
    checks.iter().all(|c| c.ok)
}

/// The final machine-readable line.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Checks that every batch produced the first batch's digest.
fn digest_check(digests: &[u64]) -> Check {
    let first = digests.first().copied().unwrap_or(0);
    let same = digests.iter().filter(|&&d| d == first).count();
    Check::new(
        format!(
            "digest {first:016x} identical across {same}/{} batches",
            digests.len()
        ),
        same == digests.len(),
    )
}

/// `--trace 0`: the end-to-end metrics.
fn timed(w: &mut dyn Workload, args: &Args) -> Result<bool, String> {
    let mut calibration = Calibration::new();
    let start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    let mut probes: Vec<f64> = Vec::new();
    while batches.len() < 3 || start.elapsed() < Duration::from_secs(args.seconds) {
        probes.push(calibration.time().as_secs_f64());
        batches.push(w.batch(1)?);
    }
    let rss = peak_rss_mib().ok_or("peak RSS is unavailable on this host")?;
    // The run's host speed relative to the reference: the median of the
    // probes taken before each batch. Scaling by the run's median rather
    // than batch by batch keeps the probe's own jitter out of the batches.
    let speed = Calibration::REFERENCE.as_secs_f64() / quartiles(&probes).1;

    let per_batch = |f: &dyn Fn(&Batch) -> f64| batches.iter().map(f).collect::<Vec<f64>>();
    let throughput = per_batch(&|b| b.cells as f64 / b.wall.as_secs_f64());
    let setup = per_batch(&|b| b.setup.as_secs_f64());
    let samples: Vec<Vec<f64>> = vec![
        throughput.iter().map(|v| v / speed).collect(),
        setup.iter().map(|v| v * speed).collect(),
        vec![rss],
        per_batch(&|b| (b.sim.tool_cycles as f64 / b.sim.base_cycles as f64 - 1.0) * 100.0),
        per_batch(&|b| b.sim.waste as f64 / b.sim.payload as f64 * 100.0),
        per_batch(&|b| b.sim.detected as f64 / b.sim.planted as f64),
        per_batch(&|b| b.sim.false_positives as f64),
        per_batch(&|b| b.failed as f64 / b.cells as f64),
        throughput,
        setup,
        probes.iter().map(|p| p * 1e3).collect(),
    ];
    println!(
        "end-to-end metrics over {} batches (host times scaled to the reference host speed, {} ms per calibration pass):",
        batches.len(),
        Calibration::REFERENCE.as_millis()
    );
    println!("{}", header());
    for ((name, unit, _), values) in END_TO_END.iter().zip(&samples) {
        println!("{}", row(name, unit, values));
    }

    let digests: Vec<u64> = batches.iter().map(|b| b.digest).collect();
    // Every check of the first batch, and whatever failed later.
    let mut checks: Vec<Check> = batches
        .iter()
        .enumerate()
        .flat_map(|(i, b)| b.checks.iter().filter(move |c| i == 0 || !c.ok))
        .cloned()
        .collect();
    checks.push(digest_check(&digests));
    checks.push(Check::new(
        "simulated totals identical across batches",
        batches.iter().all(|b| b.sim == batches[0].sim),
    ));
    println!("checks:");
    let correct = print_checks(&checks);
    for note in w.notes() {
        println!("  {note}");
    }

    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(&samples)
        .filter(|((_, _, in_json), _)| *in_json)
        .map(|((name, unit, _), values)| (*name, *unit, quartiles(values).1))
        .collect();
    let attempted = batches.iter().map(|b| b.cells).sum();
    let failed = batches.iter().map(|b| b.failed).sum();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Where the traced run's spans are written: under the Cargo target
/// directory, which the repository ignores.
fn span_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target
        .join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// `--trace 1`: the per-layer metrics.
fn traced(w: &mut dyn Workload, args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut checks = Vec::new();
    let mut digests = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last: Option<Traced> = None;
    let mut walls = Vec::new();
    // The campaign runners' pool only idles with two or more workers, so
    // where a runner reports idle time it is measured on a second untraced
    // batch with two workers, when the host has two CPUs.
    let pool_workers = available_parallelism().min(2);
    println!(
        "each iteration: one untraced batch on 1 worker (the reference), one traced batch on 1 thread, and where the runner has a worker pool one untraced batch on {pool_workers} workers for its idle time"
    );
    while last.is_none() || start.elapsed() < Duration::from_secs(args.seconds) {
        let single = w.batch(1)?;
        let t = w.traced()?;
        let mut batch_checks = single.checks;
        digests.push(single.digest);
        if single.idle_frac.is_some() {
            let pool = w.batch(pool_workers)?;
            digests.push(pool.digest);
            batch_checks.extend(pool.checks);
            samples
                .entry("faultinject.worker_idle_frac")
                .or_default()
                .extend(pool.idle_frac);
        }
        for (k, v) in &t.layers {
            samples.entry(k).or_default().push(*v);
        }
        walls.push((single.wall.as_secs_f64(), t.tracer.wall().as_secs_f64()));
        let overhead = t.tracer.wall().as_secs_f64() - single.wall.as_secs_f64();
        samples
            .entry("trace.overhead_ms")
            .or_default()
            .push(overhead * 1e3);
        samples
            .entry("trace.uncovered_frac")
            .or_default()
            .push(t.tracer.uncovered_frac());
        attempted += t.cells;
        failed += t.failed;
        // Every check of the first iteration, and whatever failed later.
        let first = last.is_none();
        checks.extend(
            batch_checks
                .into_iter()
                .chain(t.checks.iter().cloned())
                .filter(|c| first || !c.ok),
        );
        last = Some(t);
    }
    checks.push(digest_check(&digests));
    let last = last.expect("at least one traced iteration");
    let path = span_path(&args.workload, args.seed);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, last.tracer.to_jsonl())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let iterations = samples.get("trace.overhead_ms").map_or(0, Vec::len);
    println!("per-layer metrics over {iterations} traced iterations (n/a: the layer does no work on this workload):");
    println!("{}", header());
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let values = samples.get(name).cloned().unwrap_or_default();
        println!("{}", row(name, unit, &values));
        metrics.push((*name, *unit, quartiles(&values).1));
    }
    let (untraced, traced): (Vec<f64>, Vec<f64>) = walls.into_iter().unzip();
    println!(
        "tracing overhead: traced batch {:.1} ms vs the same batch untraced on one thread {:.1} ms (medians); spans cover all but {:.3}% of the traced wall",
        quartiles(&traced).1 * 1e3,
        quartiles(&untraced).1 * 1e3,
        quartiles(&samples["trace.uncovered_frac"]).1 * 100.0
    );
    println!("spans of the last traced iteration: {}", path.display());
    println!("checks:");
    let correct = print_checks(&checks);
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Runs one workload in this process.
fn run_one(args: &Args) -> Result<bool, String> {
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "harsh" => Box::new(harsh::Harsh::new(args.seed)),
        "fleet" => Box::new(fleet::FleetWorkload::new(args.seed)?),
        "table3" => Box::new(table3::Table3::new(args.seed)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (harsh, fleet, table3, all)"
            ))
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", Host::probe(1).line());
    println!("workload: {}", w.describe());
    if args.trace {
        traced(w.as_mut(), args)
    } else {
        timed(w.as_mut(), args)
    }
}

/// Runs every workload, each in its own child process so that peak memory
/// is per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for workload in ["harsh", "fleet", "table3"] {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        println!(
            "{workload}: {}",
            if status.success() { "ok" } else { "FAILED" }
        );
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit, in_json) in END_TO_END {
            assert_eq!(listed(name, unit), *in_json, "{name}");
        }
        for (name, unit) in PER_LAYER {
            assert!(listed(name, unit), "{name}");
        }
    }
}
