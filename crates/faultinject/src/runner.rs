//! Sharded campaign execution: the one record/replay/fold core every
//! campaign runner shares — a hand-rolled scoped worker pool that fans a
//! campaign matrix across N threads **without giving up byte-identical
//! scorecards**.
//!
//! # The determinism-under-parallelism invariant
//!
//! Every campaign cell is a *pure function of its spec*:
//! [`run_campaign`](crate::oracle::run_campaign)
//! builds a private machine, OS, controller, and injector per cell, and the
//! injector derives its decision stream from the cell's campaign seed alone
//! (see [`SmRng::keyed`](crate::rng::SmRng::keyed)). Workers therefore share
//! **no** mutable simulation state — the shared objects are atomic cursors
//! handing out work indices, *immutable* recorded traces behind `Arc`, and
//! the caller's fold sink, whose folds are order-independent sums or are
//! re-sorted by cell index. Scheduling decides *when* a cell runs, never
//! *what* it computes, and a failing run reports its lowest-indexed error.
//! The aggregate scorecard is byte-identical for any thread count and any
//! interleaving; `tests/parallel_determinism.rs` pins this for 1, 2, and 8
//! threads.
//!
//! # Record once, replay many
//!
//! A recorded trace is a pure function of the spec fields that feed the
//! recording run ([`TraceKey`]: workload, workload seed, request count, and
//! the OS/controller shape). Within a preset sweep every seed shares those
//! fields, so a harsh 32 × 5 matrix has only 5 distinct traces. The core
//! exploits this in two phases: phase one shards the *unique* trace keys
//! across the workers and records each exactly once (or loads it from a
//! [`TraceCorpus`]); after a barrier, phase two shards the cells, each
//! replaying against the shared `Arc<RecordedTrace>` and folding its result
//! into the caller's sink. [`TraceMode::FreshRecord`] disables the sharing
//! and records per cell — the CI determinism gate diffs the two modes'
//! scorecards.
//!
//! [`run_matrix_with`], [`run_matrix_streamed_corpus`], the fleet
//! campaign's phase B and the fleet sweep are each this core with a
//! different replay closure and fold sink.
//!
//! Per-worker timing and injection counters ([`WorkerReport`]) are the one
//! deliberately schedule-dependent output: they describe the execution, not
//! the experiment, and are rendered separately from the scorecard.
//!
//! [`run_matrix_streamed_corpus`]: crate::stream::run_matrix_streamed_corpus

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use safemem_ecc::EccMode;
use safemem_os::SwapPolicy;
use safemem_workloads::{workload_by_name, ColumnarReplayer};

use crate::corpus::{obtain_campaign_trace, TraceCorpus};
use crate::inject::InjectionLog;
use crate::oracle::{
    replay_panel_columnar_with, CampaignError, CampaignResult, GroundTruth, RecordedTrace,
    ToolScore,
};
use crate::spec::CampaignSpec;

/// The worker count used when the caller does not pin one: the host's
/// available parallelism (1 if it cannot be determined).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The most campaign cells one matrix may expand to: seeds × workloads,
/// times the sampling rates of a frontier ladder. Far above any real sweep
/// (the acceptance gate is 160 cells), it keeps a mistyped count from
/// asking for an allocation the host cannot make.
pub const MAX_CAMPAIGN_CELLS: u64 = 100_000;

/// The cell count of a `seeds` × `workloads` × `rates` matrix, or `None` if
/// it exceeds [`MAX_CAMPAIGN_CELLS`].
#[must_use]
pub fn campaign_cells(seeds: u64, workloads: usize, rates: usize) -> Option<u64> {
    seeds
        .checked_mul(workloads as u64)?
        .checked_mul(rates as u64)
        .filter(|&cells| cells <= MAX_CAMPAIGN_CELLS)
}

/// Expands a seeds × workloads matrix into campaign specs, in the canonical
/// cell order: seed-major, workload-minor (`cell = row * workloads + col`).
/// This is the single place the cell order is defined; the runner and every
/// scorecard consumer inherit it.
///
/// # Errors
///
/// Returns [`CampaignError`] for an unknown preset or workload name — the
/// whole matrix is validated up front so a sweep never dies mid-flight on a
/// typo — or for a matrix above [`MAX_CAMPAIGN_CELLS`].
pub fn expand_matrix(
    preset: &str,
    workloads: &[String],
    seeds: u64,
    seed0: u64,
    requests: Option<u64>,
) -> Result<Vec<CampaignSpec>, CampaignError> {
    if seeds == 0 {
        return Err(CampaignError("matrix needs at least one seed".into()));
    }
    if workloads.is_empty() {
        return Err(CampaignError("matrix needs at least one workload".into()));
    }
    for name in workloads {
        if workload_by_name(name).is_none() {
            return Err(CampaignError(format!("unknown workload {name:?}")));
        }
    }
    let cells = campaign_cells(seeds, workloads.len(), 1).ok_or_else(|| {
        CampaignError(format!(
            "{seeds} seeds x {} workloads exceeds the limit of {MAX_CAMPAIGN_CELLS} campaign cells",
            workloads.len()
        ))
    })?;
    let mut specs = Vec::with_capacity(usize::try_from(cells).expect("bounded cell count"));
    for i in 0..seeds {
        let seed = seed0.wrapping_add(i);
        for workload in workloads {
            let mut spec = CampaignSpec::preset(preset, workload, seed).ok_or_else(|| {
                CampaignError(format!(
                    "unknown preset {preset:?} (valid presets: {})",
                    CampaignSpec::PRESETS.join("/")
                ))
            })?;
            if requests.is_some() {
                spec.requests = requests;
            }
            specs.push(spec);
        }
    }
    Ok(specs)
}

/// Whether a matrix run shares recorded traces between cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record each distinct [`TraceKey`] once and replay it for every cell
    /// that shares it (the default — same results, less work).
    #[default]
    Memoized,
    /// Record a private trace per cell, exactly as `run_campaign` does. The
    /// reference mode the memoized path is diffed against.
    FreshRecord,
}

/// The spec fields that determine a recorded trace. Two cells with equal
/// keys replay byte-identical op streams, so the runner records the trace
/// once per key. The campaign seed and fault mix are deliberately absent:
/// recording runs uninstrumented and uninjected.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload name.
    pub workload: String,
    /// Workload input seed.
    pub workload_seed: u64,
    /// Request count forwarded to the workload.
    pub requests: Option<u64>,
    /// Physical memory size of the recording OS.
    pub phys_bytes: u64,
    /// Swap policy of the recording OS.
    pub swap_policy: SwapPolicy,
    /// Periodic scrub interval of the recording OS.
    pub scrub_interval_cycles: Option<u64>,
    /// Controller mode of the recording machine.
    pub ecc_mode: EccMode,
}

impl TraceKey {
    /// Extracts the trace-determining fields of a spec.
    #[must_use]
    pub fn of(spec: &CampaignSpec) -> TraceKey {
        TraceKey {
            workload: spec.workload.clone(),
            workload_seed: spec.workload_seed,
            requests: spec.requests,
            phys_bytes: spec.phys_bytes,
            swap_policy: spec.swap_policy,
            scrub_interval_cycles: spec.scrub_interval_cycles,
            ecc_mode: spec.ecc_mode,
        }
    }
}

/// What one worker did during a matrix run. Which cells land on which worker
/// depends on scheduling, so these numbers are *not* part of the
/// deterministic scorecard — they exist to show shard balance and measured
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub worker: usize,
    /// Campaign cells this worker executed.
    pub campaigns: usize,
    /// Traces this worker recorded (unique keys in the memoized phase, one
    /// per cell under [`TraceMode::FreshRecord`]).
    pub traces_recorded: usize,
    /// Wall time this worker spent recording and replaying campaigns.
    pub busy: Duration,
    /// Total injection events across this worker's cells (bit flips, bursts,
    /// forced scrubs, DMA transfers and DMA faults, summed over the panel).
    pub injection_events: u64,
}

/// A completed matrix run: deterministic results in cell order plus the
/// schedule-dependent execution telemetry.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Campaign results in canonical cell order — identical for every thread
    /// count.
    pub results: Vec<CampaignResult>,
    /// Per-worker execution telemetry, sorted by worker index.
    pub workers: Vec<WorkerReport>,
    /// Worker threads actually spawned (the requested count, capped at the
    /// cell count).
    pub threads: usize,
    /// Wall time for the whole matrix.
    pub wall: Duration,
}

/// Injection events of every kind in one replay: bit flips, bursts, forced
/// scrubs, DMA transfers and DMA faults.
fn events(log: &InjectionLog) -> u64 {
    log.data_bit_flips
        + log.code_bit_flips
        + log.multi_bit_bursts
        + log.forced_scrub_cycles
        + log.dma_transfers
        + log.dma_faults
}

/// A replayed cell's result, as the core's per-worker accounting sees it.
pub(crate) trait CellOutcome {
    /// Injection events the cell's replay caused, summed over its tools.
    fn injection_events(&self) -> u64;
}

impl CellOutcome for CampaignResult {
    fn injection_events(&self) -> u64 {
        self.tools.iter().map(|t| events(&t.injected)).sum()
    }
}

impl CellOutcome for (GroundTruth, ToolScore) {
    fn injection_events(&self) -> u64 {
        events(&self.1.injected)
    }
}

/// What the core hands back: the caller's fold sink after every cell was
/// folded in, plus the execution telemetry.
pub(crate) struct PoolRun<S> {
    /// The fold sink.
    pub(crate) sink: S,
    /// Per-worker execution telemetry, sorted by worker index.
    pub(crate) workers: Vec<WorkerReport>,
    /// Worker threads actually spawned (the requested count, capped at the
    /// cell count).
    pub(crate) threads: usize,
}

/// The record/replay/fold core. Records each unique [`TraceKey`] of `specs`
/// once (from `corpus` when one is configured) under
/// [`TraceMode::Memoized`], or per cell under [`TraceMode::FreshRecord`];
/// then replays every cell with `replay` on a worker's reusable
/// [`ColumnarReplayer`] and folds the outcome into `sink` with `fold`
/// (under a lock, so folds run one at a time in completion order).
///
/// An atomic cursor hands out cells (dynamic self-scheduling, so an
/// expensive cell does not stall a whole stripe). Determinism is unaffected
/// because the shared traces are immutable and each equals what the cell
/// would have recorded privately (see the module docs).
///
/// # Errors
///
/// Returns the lowest-cell-index [`CampaignError`] from recording,
/// replaying or folding (the remaining cells still run), so the reported
/// error does not depend on scheduling. A failed *recording* fails every
/// cell that shares the key, which includes the lowest-indexed one.
pub(crate) fn run_cells<T: CellOutcome, S: Send>(
    specs: &[CampaignSpec],
    threads: usize,
    mode: TraceMode,
    corpus: Option<&TraceCorpus>,
    replay: impl Fn(&CampaignSpec, &RecordedTrace, &mut ColumnarReplayer) -> Result<T, CampaignError>
        + Sync,
    sink: S,
    fold: impl Fn(&mut S, usize, T) -> Result<(), CampaignError> + Sync,
) -> Result<PoolRun<S>, CampaignError> {
    let threads = threads.max(1).min(specs.len().max(1));

    // Map each cell to its trace slot. Under FreshRecord the table is empty
    // and every cell records privately in phase two.
    let mut key_index: HashMap<TraceKey, usize> = HashMap::new();
    let mut slot_of_cell: Vec<usize> = Vec::new();
    let mut slot_spec: Vec<&CampaignSpec> = Vec::new();
    if mode == TraceMode::Memoized {
        slot_of_cell.reserve(specs.len());
        for spec in specs {
            let next = key_index.len();
            let slot = *key_index.entry(TraceKey::of(spec)).or_insert(next);
            if slot == next {
                slot_spec.push(spec);
            }
            slot_of_cell.push(slot);
        }
    }
    let slots: Vec<OnceLock<Result<Arc<RecordedTrace>, CampaignError>>> =
        (0..slot_spec.len()).map(|_| OnceLock::new()).collect();

    let record_cursor = AtomicUsize::new(0);
    let cell_cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);
    let sink = Mutex::new(sink);
    let first_error: Mutex<Option<(usize, CampaignError)>> = Mutex::new(None);
    let workers: Mutex<Vec<WorkerReport>> = Mutex::new(Vec::with_capacity(threads));

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let record_cursor = &record_cursor;
            let cell_cursor = &cell_cursor;
            let barrier = &barrier;
            let sink = &sink;
            let first_error = &first_error;
            let workers = &workers;
            let slots = &slots;
            let slot_spec = &slot_spec;
            let slot_of_cell = &slot_of_cell;
            let replay = &replay;
            let fold = &fold;
            scope.spawn(move || {
                let mut replayer = ColumnarReplayer::new();
                let mut report = WorkerReport {
                    worker,
                    campaigns: 0,
                    traces_recorded: 0,
                    busy: Duration::ZERO,
                    injection_events: 0,
                };

                // Phase one: record each unique trace exactly once.
                loop {
                    let slot = record_cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = slot_spec.get(slot).copied() else {
                        break;
                    };
                    let t0 = Instant::now();
                    let recorded = obtain_campaign_trace(spec, corpus).map(|(trace, fresh)| {
                        report.traces_recorded += usize::from(fresh);
                        Arc::new(trace)
                    });
                    report.busy += t0.elapsed();
                    slots[slot]
                        .set(recorded)
                        .expect("the cursor hands each slot to one worker");
                }
                barrier.wait();

                // Phase two: replay every cell and fold it into the sink.
                loop {
                    let index = cell_cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(index) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let outcome = match mode {
                        TraceMode::Memoized => {
                            match slots[slot_of_cell[index]]
                                .get()
                                .expect("phase one filled every slot")
                            {
                                Ok(trace) => replay(spec, trace, &mut replayer),
                                Err(e) => Err(e.clone()),
                            }
                        }
                        TraceMode::FreshRecord => {
                            obtain_campaign_trace(spec, corpus).and_then(|(trace, fresh)| {
                                report.traces_recorded += usize::from(fresh);
                                replay(spec, &trace, &mut replayer)
                            })
                        }
                    };
                    report.busy += t0.elapsed();
                    report.campaigns += 1;
                    let folded = outcome.and_then(|outcome| {
                        report.injection_events += outcome.injection_events();
                        fold(
                            &mut sink.lock().expect("no panics hold the sink lock"),
                            index,
                            outcome,
                        )
                    });
                    if let Err(e) = folded {
                        let mut lowest = first_error.lock().expect("no panics hold the error lock");
                        if lowest.as_ref().is_none_or(|(i, _)| index < *i) {
                            *lowest = Some((index, e));
                        }
                    }
                }
                workers
                    .lock()
                    .expect("no panics hold the worker lock")
                    .push(report);
            });
        }
    });

    if let Some((_, e)) = first_error.into_inner().expect("scope joined all workers") {
        return Err(e);
    }
    let mut workers = workers.into_inner().expect("scope joined all workers");
    workers.sort_by_key(|w| w.worker);
    Ok(PoolRun {
        sink: sink.into_inner().expect("scope joined all workers"),
        workers,
        threads,
    })
}

/// Runs every spec in the matrix across `threads` workers and reassembles
/// the results in cell order, sharing recorded traces ([`TraceMode::Memoized`]).
///
/// # Errors
///
/// Returns the lowest-cell-index [`CampaignError`] if any cell fails (the
/// remaining cells still run), so the reported error does not depend on
/// scheduling either.
pub fn run_matrix(specs: &[CampaignSpec], threads: usize) -> Result<MatrixReport, CampaignError> {
    run_matrix_with(specs, threads, TraceMode::default())
}

/// Runs every spec in the matrix across `threads` workers through the whole
/// panel and reassembles the results in cell order.
///
/// # Errors
///
/// Returns the lowest-cell-index [`CampaignError`] if any cell fails (the
/// remaining cells still run), so the reported error does not depend on
/// scheduling either.
pub fn run_matrix_with(
    specs: &[CampaignSpec],
    threads: usize,
    mode: TraceMode,
) -> Result<MatrixReport, CampaignError> {
    let start = Instant::now();
    let run = run_cells(
        specs,
        threads,
        mode,
        None,
        replay_panel_columnar_with,
        Vec::with_capacity(specs.len()),
        |cells: &mut Vec<(usize, CampaignResult)>, index, result| {
            cells.push((index, result));
            Ok(())
        },
    )?;
    let mut cells = run.sink;
    cells.sort_by_key(|(index, _)| *index);
    Ok(MatrixReport {
        results: cells.into_iter().map(|(_, result)| result).collect(),
        workers: run.workers,
        threads: run.threads,
        wall: start.elapsed(),
    })
}

/// One timed matrix run inside a thread-scaling measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchRun {
    /// Worker threads requested.
    pub threads: usize,
    /// Wall time for the whole matrix at this thread count.
    pub wall: Duration,
    /// Campaign cells executed.
    pub campaigns: usize,
    /// Wall time of a sequential boot phase preceding the sharded
    /// record/replay work (the fleet preset's shared-machine phase A).
    /// `None` for single-phase presets. When present, the bench JSON
    /// reports the replay phase's throughput separately, since boot time
    /// does not shrink with threads.
    pub boot: Option<Duration>,
}

/// Renders thread-scaling measurements as the `BENCH_campaign.json` schema:
/// one record per thread count with wall time, throughput, and speedup
/// relative to the first run (conventionally 1 thread). `host_threads`
/// records the machine's available parallelism so a flat curve on a
/// single-core host is self-explaining.
#[must_use]
pub fn render_bench_json(preset: &str, requests: Option<u64>, runs: &[BenchRun]) -> String {
    use std::fmt::Write as _;

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"safemem-campaign\",");
    let _ = writeln!(out, "  \"preset\": \"{preset}\",");
    match requests {
        Some(n) => {
            let _ = writeln!(out, "  \"requests\": {n},");
        }
        None => {
            let _ = writeln!(out, "  \"requests\": null,");
        }
    }
    let _ = writeln!(out, "  \"host_threads\": {},", default_threads());
    let _ = writeln!(out, "  \"runs\": [");
    let base = runs.first().map(|r| r.wall);
    for (i, run) in runs.iter().enumerate() {
        let wall_ms = run.wall.as_secs_f64() * 1e3;
        let per_sec = if run.wall.is_zero() {
            0.0
        } else {
            run.campaigns as f64 / run.wall.as_secs_f64()
        };
        let speedup = match base {
            Some(b) if !run.wall.is_zero() => b.as_secs_f64() / run.wall.as_secs_f64(),
            _ => 1.0,
        };
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let phase_split = run.boot.map_or_else(String::new, |boot| {
            let replay = run.wall.saturating_sub(boot);
            let replay_per_sec = if replay.is_zero() {
                0.0
            } else {
                run.campaigns as f64 / replay.as_secs_f64()
            };
            format!(
                ", \"boot_ms\": {:.1}, \"replay_ms\": {:.1}, \
                 \"replay_campaigns_per_sec\": {replay_per_sec:.2}",
                boot.as_secs_f64() * 1e3,
                replay.as_secs_f64() * 1e3,
            )
        });
        let _ = writeln!(
            out,
            "    {{\"threads\": {}, \"campaigns\": {}, \"wall_ms\": {wall_ms:.1}, \
             \"campaigns_per_sec\": {per_sec:.2}{phase_split}, \
             \"speedup_vs_first\": {speedup:.2}}}{comma}",
            run.threads, run.campaigns
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_specs() -> Vec<CampaignSpec> {
        let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
        expand_matrix("harsh", &workloads, 2, 0, Some(24)).expect("valid matrix")
    }

    #[test]
    fn expand_matrix_is_seed_major_workload_minor() {
        let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
        let specs = expand_matrix("harsh", &workloads, 2, 5, None).expect("valid matrix");
        let cells: Vec<(u64, &str)> = specs
            .iter()
            .map(|s| (s.seed, s.workload.as_str()))
            .collect();
        assert_eq!(
            cells,
            vec![(5, "ypserv2"), (5, "tar"), (6, "ypserv2"), (6, "tar")]
        );
    }

    #[test]
    fn expand_matrix_validates_up_front() {
        let good = vec!["tar".to_string()];
        let bad = vec!["tar".to_string(), "nginx".to_string()];
        assert!(
            expand_matrix("harsh", &good, 0, 0, None).is_err(),
            "0 seeds"
        );
        assert!(
            expand_matrix("harsh", &[], 1, 0, None).is_err(),
            "no workloads"
        );
        assert!(
            expand_matrix("brutal", &good, 1, 0, None).is_err(),
            "bad preset"
        );
        assert!(
            expand_matrix("harsh", &bad, 1, 0, None).is_err(),
            "bad workload"
        );
    }

    #[test]
    fn expand_matrix_rejects_matrices_above_the_cell_limit() {
        let two = vec!["tar".to_string(), "gzip".to_string()];
        let at_limit = expand_matrix("harsh", &two, MAX_CAMPAIGN_CELLS / 2, 0, None)
            .expect("exactly at the limit");
        assert_eq!(at_limit.len() as u64, MAX_CAMPAIGN_CELLS);
        for seeds in [MAX_CAMPAIGN_CELLS / 2 + 1, 9_999_999_999_999, u64::MAX] {
            let err = expand_matrix("harsh", &two, seeds, 0, None).unwrap_err();
            assert!(
                err.0.contains(&MAX_CAMPAIGN_CELLS.to_string()),
                "names the limit: {err:?}"
            );
        }
    }

    #[test]
    fn campaign_cells_multiplies_and_bounds() {
        assert_eq!(campaign_cells(8, 5, 1), Some(40));
        assert_eq!(campaign_cells(4, 9, 6), Some(216));
        assert_eq!(
            campaign_cells(MAX_CAMPAIGN_CELLS, 1, 1),
            Some(MAX_CAMPAIGN_CELLS)
        );
        assert_eq!(campaign_cells(MAX_CAMPAIGN_CELLS, 1, 2), None);
        assert_eq!(
            campaign_cells(u64::MAX, 2, 1),
            None,
            "overflow is over the limit"
        );
        assert_eq!(campaign_cells(1 << 40, 1 << 30, 1 << 30), None);
    }

    #[test]
    fn every_cell_runs_exactly_once_and_in_order() {
        let specs = fast_specs();
        let report = run_matrix(&specs, 3).expect("matrix runs");
        assert_eq!(report.results.len(), specs.len());
        for (result, spec) in report.results.iter().zip(&specs) {
            assert_eq!(&result.spec, spec, "results come back in cell order");
        }
        let total: usize = report.workers.iter().map(|w| w.campaigns).sum();
        assert_eq!(total, specs.len(), "workers account for every cell");
    }

    #[test]
    fn memoized_and_fresh_record_agree_cell_for_cell() {
        let specs = fast_specs();
        let memo = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
        let fresh = run_matrix_with(&specs, 2, TraceMode::FreshRecord).expect("matrix runs");
        assert_eq!(memo.results, fresh.results);
    }

    #[test]
    fn memoized_run_records_one_trace_per_unique_key() {
        let specs = fast_specs(); // 2 seeds × 2 workloads → 2 unique traces
        let memo = run_matrix_with(&specs, 3, TraceMode::Memoized).expect("matrix runs");
        let recorded: usize = memo.workers.iter().map(|w| w.traces_recorded).sum();
        assert_eq!(recorded, 2, "one recording per (workload, os-shape) key");
        let fresh = run_matrix_with(&specs, 3, TraceMode::FreshRecord).expect("matrix runs");
        let recorded: usize = fresh.workers.iter().map(|w| w.traces_recorded).sum();
        assert_eq!(recorded, specs.len(), "fresh mode records per cell");
    }

    #[test]
    fn unknown_workload_fails_the_memoized_matrix_too() {
        let mut specs = fast_specs();
        specs[1].workload = "nginx".into();
        let err = run_matrix_with(&specs, 2, TraceMode::Memoized).expect_err("bad cell");
        assert!(err.0.contains("nginx"), "{err}");
    }

    #[test]
    fn oversubscribed_pool_caps_at_cell_count() {
        let specs = fast_specs();
        let report = run_matrix(&specs, 64).expect("matrix runs");
        assert_eq!(report.threads, specs.len());
        assert_eq!(report.workers.len(), specs.len());
    }

    #[test]
    fn bench_json_is_well_formed() {
        let runs = [
            BenchRun {
                threads: 1,
                wall: Duration::from_millis(400),
                campaigns: 8,
                boot: None,
            },
            BenchRun {
                threads: 4,
                wall: Duration::from_millis(100),
                campaigns: 8,
                boot: None,
            },
        ];
        let json = render_bench_json("harsh", Some(128), &runs);
        assert!(json.contains("\"speedup_vs_first\": 4.00"), "{json}");
        assert!(json.contains("\"campaigns_per_sec\": 20.00"), "{json}");
        assert!(json.contains("\"requests\": 128"), "{json}");
        assert_eq!(json.matches("\"threads\"").count(), 2, "{json}");
    }
}
