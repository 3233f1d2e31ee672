//! The fleet campaign: SafeMem's production story at GWP-ASan scale.
//!
//! One fleet campaign simulates `n` connection-churn server processes, each
//! running SafeMem at the sub-1.0 sampling rate
//! [`FLEET_RATE_PPM`](crate::spec::FLEET_RATE_PPM). Individually, a process
//! catches its planted bug only if the victim allocation happens to draw
//! instrumentation (probability ≈ the rate `r`); collectively, the fleet
//! catches it with probability `1 − (1 − r)^n`. The fleet scorecard
//! quantifies exactly that: per bug class it reports the observed
//! per-process detection fraction `k/n` against the predicted `r` (with a
//! 6σ binomial acceptance band), and the fleet-level detection probability
//! both ways.
//!
//! The campaign runs in two phases:
//!
//! * **Phase A — the live fleet.** The whole fleet runs as one [`Fleet`]
//!   simulation: every process boots a full OS and sampled SafeMem stack
//!   on a machine of its own and serves its requests one scheduler turn
//!   at a time, with a context switch (cache write-back and flush, booked
//!   as background time) after every turn. The processes run on a scoped
//!   worker pool, one process per work item, and the report is the same at
//!   every worker count.
//! * **Phase B — per-process campaign cells.** Every process is replayed as
//!   an isolated campaign cell under the harsh correctable-only fault mix
//!   ([`replay_safemem_columnar_with`] — SafeMem alone, not the five-tool
//!   panel) on the shared record/replay/fold core
//!   ([`runner`](crate::runner)), with the memoized trace store (three
//!   recorded traces serve the whole fleet). Results are folded straight
//!   into a fixed-size [`FleetAgg`]; no per-cell `Vec` survives the run.
//!
//! The phases cross-check each other: a corruption cell detects iff its
//! victim allocation was sampled, and both phases derive the per-process
//! sampling seed identically, so phase-A and isolated-cell detection must
//! agree process-for-process for the uaf/obo classes (leak detection also
//! follows the sampling decision, but its idle-time threshold makes the
//! phase-A timing part of the outcome, so the A/B check binds the
//! corruption classes only).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use safemem_core::PPM;
use safemem_fleet::{Fleet, FleetConfig, FleetReport, ProcessSpec};
use safemem_workloads::apps::ChurnKind;

use crate::corpus::TraceCorpus;
use crate::oracle::{
    replay_safemem_columnar_with, CampaignError, GroundTruth, ToolScore, SAMPLING_STREAM,
};
use crate::rng::SmRng;
use crate::runner::{
    check_requests, render_bench_json, run_cells, BenchRun, TraceMode, WorkerReport,
};
use crate::spec::{CampaignSpec, FLEET_REQUESTS, FLEET_WORKLOADS};

/// Default fleet size: big enough that at the 0.2 sampling rate the
/// fleet-level detection probability is ≈ 1 for every class, and small
/// enough that the whole two-phase campaign finishes in CI.
pub const DEFAULT_FLEET_PROCESSES: u64 = 512;

/// The largest fleet one campaign may boot: 128 times the default fleet.
/// It keeps a mistyped count from asking for an allocation the host cannot
/// make.
pub const MAX_FLEET_PROCESSES: u64 = 65_536;

/// Expands a fleet of `processes` campaign cells: process `pid` runs
/// [`FLEET_WORKLOADS`]`[pid % 3]` with campaign seed `seed0 + pid`, so
/// every process makes independent sampling decisions.
///
/// # Errors
///
/// Returns [`CampaignError`] for an empty fleet, one above
/// [`MAX_FLEET_PROCESSES`], or a request count above
/// [`MAX_CAMPAIGN_REQUESTS`](crate::MAX_CAMPAIGN_REQUESTS).
pub fn expand_fleet(
    processes: u64,
    seed0: u64,
    requests: Option<u64>,
) -> Result<Vec<CampaignSpec>, CampaignError> {
    if processes == 0 {
        return Err(CampaignError("a fleet needs at least one process".into()));
    }
    if processes > MAX_FLEET_PROCESSES {
        return Err(CampaignError(format!(
            "a fleet of {processes} processes exceeds the limit of {MAX_FLEET_PROCESSES}"
        )));
    }
    check_requests(requests)?;
    let mut specs = Vec::with_capacity(usize::try_from(processes).expect("bounded fleet size"));
    for pid in 0..processes {
        let workload = FLEET_WORKLOADS[usize::try_from(pid % 3).expect("mod 3 fits")];
        let mut spec = CampaignSpec::fleet(workload, seed0.wrapping_add(pid));
        if requests.is_some() {
            spec.requests = requests;
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// The churn kind a fleet cell's workload name denotes.
pub(crate) fn kind_of(spec: &CampaignSpec) -> Result<ChurnKind, CampaignError> {
    match spec.workload.as_str() {
        "churn-leak" => Ok(ChurnKind::Leak),
        "churn-uaf" => Ok(ChurnKind::UseAfterFree),
        "churn-obo" => Ok(ChurnKind::Overflow),
        other => Err(CampaignError(format!(
            "fleet cells run the churn family, not {other:?}"
        ))),
    }
}

/// Whether SafeMem caught a churn cell's planted bug: every planted leak
/// group for the leak class, the corruption report for the others.
pub(crate) fn detects(kind: ChurnKind, truth: &GroundTruth, score: &ToolScore) -> bool {
    match kind {
        ChurnKind::Leak => score.leaks_found == truth.leak_groups.len(),
        ChurnKind::UseAfterFree | ChurnKind::Overflow => score.corruption_found,
    }
}

/// Translates fleet campaign cells into the phase-A simulation's process
/// specs. The sampling seed is derived exactly as the campaign
/// cell's replay derives it (campaign seed keyed on the dedicated
/// [`SAMPLING_STREAM`]), so a fleet process and its phase-B cell make
/// identical per-allocation sampling decisions.
///
/// # Errors
///
/// Returns [`CampaignError`] if a cell names a non-churn workload.
pub fn fleet_process_specs(specs: &[CampaignSpec]) -> Result<Vec<ProcessSpec>, CampaignError> {
    specs
        .iter()
        .map(|spec| {
            Ok(ProcessSpec {
                kind: kind_of(spec)?,
                workload_seed: spec.workload_seed,
                sampling_ppm: spec.sampling_ppm,
                sampling_seed: SmRng::keyed(spec.seed, SAMPLING_STREAM).next_u64(),
            })
        })
        .collect()
}

/// One bug class's running sums across the fleet's phase-B cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetClassAgg {
    /// Cells running this class.
    pub cells: u64,
    /// Cells whose planted bug SafeMem reported.
    pub detected: u64,
    /// SafeMem false positives across this class's cells.
    pub false_positives: u64,
    /// Allocations that drew instrumentation, summed.
    pub sampled_allocs: u64,
    /// Allocations issued, summed.
    pub total_allocs: u64,
}

impl FleetClassAgg {
    /// Observed per-process detection probability `k/n`.
    #[must_use]
    pub fn observed(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.detected as f64 / self.cells as f64
        }
    }

    /// Whether the observed detection count sits inside the 6σ binomial
    /// band around the prediction: `|k − n·r| ≤ 6·√(n·r·(1−r))`.
    #[must_use]
    pub fn within_six_sigma(&self, rate: f64) -> bool {
        let n = self.cells as f64;
        let expected = n * rate;
        let sigma = (n * rate * (1.0 - rate)).sqrt();
        (self.detected as f64 - expected).abs() <= 6.0 * sigma
    }

    /// Fleet-level detection probability from the observed per-process
    /// fraction: `1 − (1 − k/n)^n`.
    #[must_use]
    pub fn fleet_observed(&self) -> f64 {
        1.0 - (1.0 - self.observed()).powf(self.cells as f64)
    }

    /// Fleet-level detection probability the sampling rate predicts:
    /// `1 − (1 − r)^n`.
    #[must_use]
    pub fn fleet_predicted(&self, rate: f64) -> f64 {
        1.0 - (1.0 - rate).powf(self.cells as f64)
    }
}

/// The fixed-size fold of every phase-B cell — the fleet analogue of
/// [`StreamAggregate`](crate::stream::StreamAggregate). Its size depends
/// only on the (three-entry) class list, never on the fleet size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAgg {
    /// Cells folded.
    pub cells: u64,
    /// The fleet's sampling rate, parts-per-million.
    pub rate_ppm: u32,
    /// Per-class sums, in [`FLEET_WORKLOADS`] order.
    pub classes: [FleetClassAgg; 3],
    /// SafeMem false positives of any kind across the fleet.
    pub false_positives: u64,
    /// Hardware panics across the fleet (must stay zero under the
    /// correctable-only mix).
    pub hardware_panics: u64,
    /// Injected faults (bit flips + bursts) across the fleet.
    pub injected: u64,
    /// Corruption cells (uaf/obo) compared against the phase-A run.
    pub ab_checked: u64,
    /// Corruption cells whose isolated detection matched the phase-A
    /// detection.
    pub ab_agreed: u64,
}

impl FleetAgg {
    /// An empty aggregate at the given sampling rate.
    #[must_use]
    pub fn new(rate_ppm: u32) -> Self {
        FleetAgg {
            cells: 0,
            rate_ppm,
            classes: [FleetClassAgg::default(); 3],
            false_positives: 0,
            hardware_panics: 0,
            injected: 0,
            ab_checked: 0,
            ab_agreed: 0,
        }
    }

    /// The sampling rate as a fraction.
    #[must_use]
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / f64::from(PPM)
    }

    /// Folds one cell's SafeMem score in. `shared_detected` is the phase-A
    /// detection flag for the same process.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] if the cell names a non-churn workload.
    pub fn fold(
        &mut self,
        spec: &CampaignSpec,
        truth: &GroundTruth,
        score: &ToolScore,
        shared_detected: bool,
    ) -> Result<(), CampaignError> {
        let kind = kind_of(spec)?;
        let class = &mut self.classes[match kind {
            ChurnKind::Leak => 0,
            ChurnKind::UseAfterFree => 1,
            ChurnKind::Overflow => 2,
        }];
        let detected = detects(kind, truth, score);
        self.cells += 1;
        class.cells += 1;
        class.detected += u64::from(detected);
        class.false_positives += score.false_positives();
        if let Some(sampling) = &score.sampling {
            class.sampled_allocs += sampling.sampled_allocs;
            class.total_allocs += sampling.total_allocs;
        }
        self.false_positives += score.false_positives();
        self.hardware_panics += score.hardware_panics;
        self.injected += score.injected.data_bit_flips
            + score.injected.code_bit_flips
            + score.injected.multi_bit_bursts;
        if kind != ChurnKind::Leak {
            self.ab_checked += 1;
            self.ab_agreed += u64::from(detected == shared_detected);
        }
        Ok(())
    }

    /// The fleet acceptance verdict: zero SafeMem false positives, zero
    /// hardware panics, every observed per-class detection count inside the
    /// 6σ band, and phase-A/isolated-cell agreement on every corruption
    /// cell.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.false_positives == 0
            && self.hardware_panics == 0
            && self.ab_agreed == self.ab_checked
            && self
                .classes
                .iter()
                .all(|c| c.cells == 0 || c.within_six_sigma(self.rate()))
    }
}

/// A completed fleet campaign: the phase-A report, the phase-B fold, and
/// the execution telemetry.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Fleet size.
    pub processes: u64,
    /// Requests each process served.
    pub requests: u64,
    /// Phase A: the live fleet simulation's report.
    pub shared: FleetReport,
    /// Phase B: the per-cell campaign fold.
    pub agg: FleetAgg,
    /// Per-worker phase-B telemetry, sorted by worker index.
    pub workers: Vec<WorkerReport>,
    /// Worker threads actually spawned for phase B.
    pub threads: usize,
    /// Worker threads phase A ran its processes on.
    pub shards: usize,
    /// Wall time for both phases.
    pub wall: Duration,
    /// Wall time of phase A alone (running every process of the fleet);
    /// `wall - boot_wall` is the sharded record/replay phase.
    pub boot_wall: Duration,
}

/// Runs the two-phase fleet campaign over `specs` (from [`expand_fleet`])
/// with phase A on one worker thread.
///
/// Phase A runs every process of the fleet live; phase B shards the
/// per-process campaign cells across `threads` workers on the matrix
/// runner's record/replay/fold core, recording each unique trace once under
/// [`TraceMode::Memoized`] (three traces serve any fleet size) and folding
/// every cell into the fixed-size [`FleetAgg`].
///
/// # Errors
///
/// Returns [`CampaignError`] for an empty spec list, cells that disagree on
/// requests or sampling rate, a non-churn workload, or the lowest-indexed
/// cell failure.
pub fn run_fleet(
    specs: &[CampaignSpec],
    threads: usize,
    mode: TraceMode,
) -> Result<FleetOutcome, CampaignError> {
    run_fleet_corpus(specs, threads, 1, mode, None)
}

/// [`run_fleet`] with phase A's processes run on `shards` worker threads
/// ([`Fleet::run_sharded`]). The phase-A report — and therefore the whole
/// scorecard — is byte-identical for every count; only the wall clock
/// moves.
///
/// # Errors
///
/// Everything [`run_fleet`] can return, plus a zero shard count.
pub fn run_fleet_sharded(
    specs: &[CampaignSpec],
    threads: usize,
    shards: usize,
    mode: TraceMode,
) -> Result<FleetOutcome, CampaignError> {
    run_fleet_corpus(specs, threads, shards, mode, None)
}

/// [`run_fleet_sharded`] with an optional [`TraceCorpus`] serving phase B's
/// recorded traces (see
/// [`run_matrix_streamed_corpus`](crate::stream::run_matrix_streamed_corpus)).
/// The fleet scorecard is byte-identical with or without a corpus.
///
/// # Errors
///
/// Everything [`run_fleet_sharded`] can return, plus stringified
/// [`CorpusError`](crate::corpus::CorpusError)s from corpus validation.
pub fn run_fleet_corpus(
    specs: &[CampaignSpec],
    threads: usize,
    shards: usize,
    mode: TraceMode,
    corpus: Option<&TraceCorpus>,
) -> Result<FleetOutcome, CampaignError> {
    if shards == 0 {
        return Err(CampaignError("a fleet needs at least one shard".into()));
    }
    let Some(first) = specs.first() else {
        return Err(CampaignError("a fleet needs at least one process".into()));
    };
    let requests = first.requests.unwrap_or(FLEET_REQUESTS);
    let rate_ppm = first.sampling_ppm;
    if specs
        .iter()
        .any(|s| s.requests.unwrap_or(FLEET_REQUESTS) != requests || s.sampling_ppm != rate_ppm)
    {
        return Err(CampaignError(
            "fleet cells must agree on requests and sampling rate".into(),
        ));
    }
    let start = Instant::now();

    // Phase A: every process on a machine of its own, `shards` processes
    // at a time, folded in pid order (the report is the same at every
    // count).
    let process_specs = fleet_process_specs(specs)?;
    let shared = Fleet::run_sharded(
        &process_specs,
        FleetConfig {
            requests,
            ..FleetConfig::default()
        },
        shards,
    );
    let boot_wall = start.elapsed();

    // Phase B: the cells on the shared core, each replaying SafeMem alone
    // and folding into the fixed-size aggregate.
    let shared_detected = &shared.detected;
    let run = run_cells(
        specs,
        threads,
        mode,
        corpus,
        replay_safemem_columnar_with,
        FleetAgg::new(rate_ppm),
        |agg, index, (truth, score)| {
            agg.fold(&specs[index], &truth, &score, shared_detected[index])
        },
    )?;

    Ok(FleetOutcome {
        processes: specs.len() as u64,
        requests,
        shared,
        agg: run.sink,
        workers: run.workers,
        threads: run.threads,
        shards: shards.min(specs.len()),
        wall: start.elapsed(),
        boot_wall,
    })
}

/// Renders the fleet scorecard: the phase-A summary, the per-class
/// observed-vs-predicted table with 6σ bands, the fleet-level detection
/// probabilities, the A/B cross-check, and the greppable verdict line.
/// Byte-stable: every number is a deterministic integer sum or a
/// fixed-precision function of one.
#[must_use]
pub fn render_fleet(outcome: &FleetOutcome) -> String {
    let agg = &outcome.agg;
    let shared = &outcome.shared;
    let rate = agg.rate();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} processes x {} requests, sampling rate {:.4}",
        outcome.processes, outcome.requests, rate
    );
    // Deliberately worker-count-free: the scorecard must be byte-identical
    // however many threads ran phase A. The "shared-machine" wording
    // predates per-process machines; the goldens and the benchmark digest
    // pin these bytes.
    let _ = writeln!(
        out,
        "  phase A (shared-machine fleet): phys={} B machine_cycles={} process_cycles={} page_faults={} swap_in={} swap_out={} ecc_verified={} detections={} FPs={}",
        shared.shared_phys_bytes,
        shared.machine_cycles,
        shared.process_cycles,
        shared.page_faults,
        shared.swap_ins,
        shared.swap_outs,
        shared.ecc.groups_verified,
        shared.detections(),
        shared.false_positives()
    );
    let _ = writeln!(
        out,
        "  phase B (isolated campaign cells, harsh mix): {} cells, {} injected faults, {} hardware panics",
        agg.cells, agg.injected, agg.hardware_panics
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>6} {:>9} {:>9} {:>10} {:>8} {:>22}",
        "class", "procs", "detected", "observed", "predicted", "6sigma", "sampled-allocs"
    );
    for (name, class) in FLEET_WORKLOADS.iter().zip(&agg.classes) {
        if class.cells == 0 {
            continue;
        }
        let sampled = format!("{}/{}", class.sampled_allocs, class.total_allocs);
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>9} {:>9.4} {:>10.4} {:>8} {:>22}",
            name,
            class.cells,
            class.detected,
            class.observed(),
            rate,
            if class.within_six_sigma(rate) {
                "ok"
            } else {
                "OUT"
            },
            sampled
        );
    }
    let _ = writeln!(
        out,
        "  fleet-level detection probability (any process catches its bug), predicted 1-(1-r)^n vs observed 1-(1-k/n)^n:"
    );
    for (name, class) in FLEET_WORKLOADS.iter().zip(&agg.classes) {
        if class.cells == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "    {:<12} predicted {:.4} observed {:.4}",
            name,
            class.fleet_predicted(rate),
            class.fleet_observed()
        );
    }
    let _ = writeln!(
        out,
        "  A/B cross-check (shared-machine vs isolated-cell detection, corruption classes): {}/{} agree",
        agg.ab_agreed, agg.ab_checked
    );
    if agg.invariants_hold() {
        let _ = writeln!(
            out,
            "fleet invariant (safemem: zero false positives across {} processes): OK",
            outcome.processes
        );
    } else {
        let _ = writeln!(
            out,
            "fleet invariant (safemem: zero false positives across {} processes): VIOLATED ({} FPs, {} panics, A/B {}/{}, 6sigma {})",
            outcome.processes,
            agg.false_positives,
            agg.hardware_panics,
            agg.ab_agreed,
            agg.ab_checked,
            if agg
                .classes
                .iter()
                .all(|c| c.cells == 0 || c.within_six_sigma(rate))
            {
                "ok"
            } else {
                "OUT"
            }
        );
    }
    out
}

/// One fleet run at a given phase-A worker count, for the shard-scaling
/// dimension of `BENCH_campaign.json`.
#[derive(Debug, Clone, Copy)]
pub struct ShardRun {
    /// Worker threads phase A ran its processes on.
    pub shards: usize,
    /// Wall time of the whole two-phase campaign.
    pub wall: Duration,
    /// Wall time of phase A alone.
    pub boot_wall: Duration,
    /// Campaign cells completed (the fleet size).
    pub campaigns: u64,
}

/// Renders the shard-scaling records: wall/boot/replay split,
/// throughput, and speedup relative to the first (reference) entry.
fn write_shard_runs(out: &mut String, shard_runs: &[ShardRun]) {
    let _ = writeln!(out, "    \"shard_runs\": [");
    let first_wall = shard_runs.first().map_or(0.0, |r| r.wall.as_secs_f64());
    for (i, run) in shard_runs.iter().enumerate() {
        let wall = run.wall.as_secs_f64();
        let boot = run.boot_wall.as_secs_f64();
        let per_sec = if wall > 0.0 {
            run.campaigns as f64 / wall
        } else {
            0.0
        };
        let speedup = if wall > 0.0 { first_wall / wall } else { 0.0 };
        let comma = if i + 1 < shard_runs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"shards\": {}, \"wall_ms\": {:.1}, \"boot_ms\": {:.1}, \
             \"replay_ms\": {:.1}, \"campaigns_per_sec\": {per_sec:.2}, \
             \"speedup_vs_first\": {speedup:.2}}}{comma}",
            run.shards,
            wall * 1e3,
            boot * 1e3,
            (wall - boot).max(0.0) * 1e3,
        );
    }
    let _ = writeln!(out, "    ],");
}

/// Renders the `BENCH_campaign.json` schema with a `fleet` section appended
/// to the thread-scaling records: the fleet shape, the phase-A
/// worker-scaling grid, the phase-A stats, and one record per class
/// with the observed/predicted detection probabilities of the scorecard.
#[must_use]
pub fn render_fleet_bench_json(
    preset: &str,
    requests: Option<u64>,
    runs: &[BenchRun],
    shard_runs: &[ShardRun],
    outcome: &FleetOutcome,
) -> String {
    let base = render_bench_json(preset, requests, runs);
    let mut out = base
        .strip_suffix("}\n")
        .expect("render_bench_json ends with its closing brace")
        .to_string();
    while out.ends_with('\n') {
        out.pop();
    }
    let agg = &outcome.agg;
    let rate = agg.rate();
    out.push_str(",\n  \"fleet\": {\n");
    let _ = writeln!(out, "    \"processes\": {},", outcome.processes);
    let _ = writeln!(out, "    \"requests\": {},", outcome.requests);
    let _ = writeln!(out, "    \"rate\": {rate:.4},");
    if !shard_runs.is_empty() {
        write_shard_runs(&mut out, shard_runs);
    }
    let _ = writeln!(
        out,
        "    \"shared_phys_bytes\": {},",
        outcome.shared.shared_phys_bytes
    );
    let _ = writeln!(
        out,
        "    \"machine_cycles\": {},",
        outcome.shared.machine_cycles
    );
    let _ = writeln!(out, "    \"false_positives\": {},", agg.false_positives);
    let _ = writeln!(
        out,
        "    \"ab_agreement\": {{\"agreed\": {}, \"checked\": {}}},",
        agg.ab_agreed, agg.ab_checked
    );
    let _ = writeln!(out, "    \"classes\": [");
    let present: Vec<(&str, &FleetClassAgg)> = FLEET_WORKLOADS
        .iter()
        .zip(&agg.classes)
        .filter(|(_, c)| c.cells > 0)
        .map(|(n, c)| (*n, c))
        .collect();
    for (i, (name, class)) in present.iter().enumerate() {
        let comma = if i + 1 < present.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"class\": \"{name}\", \"processes\": {}, \"detected\": {}, \
             \"observed\": {:.4}, \"predicted\": {rate:.4}, \"fleet_observed\": {:.4}, \
             \"fleet_predicted\": {:.4}}}{comma}",
            class.cells,
            class.detected,
            class.observed(),
            class.fleet_observed(),
            class.fleet_predicted(rate)
        );
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FLEET_RATE_PPM;

    #[test]
    fn expand_fleet_cycles_the_churn_family() {
        let specs = expand_fleet(7, 100, None).expect("valid fleet");
        assert_eq!(specs.len(), 7);
        assert_eq!(specs[0].workload, "churn-leak");
        assert_eq!(specs[1].workload, "churn-uaf");
        assert_eq!(specs[2].workload, "churn-obo");
        assert_eq!(specs[3].workload, "churn-leak");
        assert_eq!(specs[6].seed, 106);
        for spec in &specs {
            assert_eq!(spec.preset, "fleet");
            assert_eq!(spec.sampling_ppm, FLEET_RATE_PPM);
            assert_eq!(spec.requests, Some(FLEET_REQUESTS));
        }
        assert!(expand_fleet(0, 0, None).is_err(), "empty fleet");
    }

    #[test]
    fn expand_fleet_rejects_fleets_above_the_process_limit() {
        let at_limit = expand_fleet(MAX_FLEET_PROCESSES, 0, None).expect("exactly at the limit");
        assert_eq!(at_limit.len() as u64, MAX_FLEET_PROCESSES);
        for processes in [MAX_FLEET_PROCESSES + 1, 99_999_999_999, u64::MAX] {
            let err = expand_fleet(processes, 0, None).unwrap_err();
            assert!(
                err.0.contains(&MAX_FLEET_PROCESSES.to_string()),
                "names the limit: {err:?}"
            );
        }
    }

    #[test]
    fn process_specs_mirror_the_campaign_sampling_derivation() {
        let specs = expand_fleet(3, 9, Some(48)).expect("valid fleet");
        let procs = fleet_process_specs(&specs).expect("churn cells");
        assert_eq!(procs.len(), 3);
        assert_eq!(procs[0].kind, ChurnKind::Leak);
        assert_eq!(procs[1].kind, ChurnKind::UseAfterFree);
        assert_eq!(procs[2].kind, ChurnKind::Overflow);
        for (proc, spec) in procs.iter().zip(&specs) {
            assert_eq!(
                proc.sampling_seed,
                SmRng::keyed(spec.seed, SAMPLING_STREAM).next_u64(),
                "same stream the oracle's build_tool keys"
            );
        }
        let mut alien = specs;
        alien[0].workload = "tar".into();
        assert!(fleet_process_specs(&alien).is_err());
    }

    #[test]
    fn fleet_bench_json_is_well_formed() {
        let runs = [BenchRun {
            threads: 2,
            wall: Duration::from_millis(100),
            campaigns: 6,
            boot: Some(Duration::from_millis(40)),
        }];
        let mut agg = FleetAgg::new(FLEET_RATE_PPM);
        agg.cells = 6;
        agg.classes[0] = FleetClassAgg {
            cells: 2,
            detected: 1,
            false_positives: 0,
            sampled_allocs: 40,
            total_allocs: 200,
        };
        agg.ab_checked = 4;
        agg.ab_agreed = 4;
        let outcome = FleetOutcome {
            processes: 6,
            requests: 48,
            shared: FleetReport {
                processes: 6,
                requests: 48,
                shared_phys_bytes: 6 * 32 * 4096,
                machine_cycles: 1000,
                process_cycles: 900,
                page_faults: 10,
                swap_ins: 0,
                swap_outs: 0,
                ecc: Default::default(),
                tallies: Vec::new(),
                detected: vec![false; 6],
            },
            agg,
            workers: Vec::new(),
            threads: 2,
            shards: 1,
            wall: Duration::from_millis(100),
            boot_wall: Duration::from_millis(40),
        };
        let shard_runs = [
            ShardRun {
                shards: 1,
                wall: Duration::from_millis(200),
                boot_wall: Duration::from_millis(160),
                campaigns: 6,
            },
            ShardRun {
                shards: 8,
                wall: Duration::from_millis(100),
                boot_wall: Duration::from_millis(60),
                campaigns: 6,
            },
        ];
        let json = render_fleet_bench_json("fleet", Some(48), &runs, &shard_runs, &outcome);
        assert!(json.contains("\"fleet\": {"), "{json}");
        assert!(json.contains("\"processes\": 6"), "{json}");
        assert!(json.contains("\"rate\": 0.2000"), "{json}");
        assert!(json.contains("\"observed\": 0.5000"), "{json}");
        assert!(json.contains("\"runs\": ["), "{json}");
        assert!(json.contains("\"shard_runs\": ["), "{json}");
        assert!(
            json.contains("\"shards\": 8") && json.contains("\"speedup_vs_first\": 2.00"),
            "{json}"
        );
        assert!(json.ends_with("  }\n}\n"), "{json}");
    }
}
