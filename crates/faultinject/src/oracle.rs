//! The differential detection oracle.
//!
//! One campaign = one recorded workload trace replayed through SafeMem, the
//! three comparison tools, and the uninstrumented baseline, each under the
//! same deterministic fault injection. The oracle owns the ground truth
//! (which bugs the workload plants, which faults the injector planted) and
//! classifies every [`BugReport`] as a true positive, a false positive, or a
//! miss.

use safemem_alloc::HeapStats;
use safemem_baselines::{Memcheck, PageGuard, Purify};
use safemem_core::{
    BugReport, GroupKey, IncidentClass, MemTool, NullTool, SafeMem, SamplingPlan, SamplingSummary,
    SurvivalSummary,
};
use safemem_ecc::ControllerStats;
use safemem_os::{Os, OsConfig, STATIC_BASE};
use safemem_workloads::{
    workload_by_name, BugClass, ColumnarReplayer, ColumnarTrace, InputMode, Recorder, RunConfig,
    Trace,
};
use std::collections::HashSet;

use crate::inject::{InjectionLog, Injector};
use crate::rng::SmRng;
use crate::spec::CampaignSpec;

/// Dedicated RNG stream for deriving SafeMem's per-allocation sampling seed
/// from the campaign seed — domain-separated from the injector's stream so
/// sampling decisions never correlate with fault placement.
pub const SAMPLING_STREAM: u64 = 0xFA07_1213_5EED_0002;

/// A campaign-level error (bad spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError(pub String);

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for CampaignError {}

/// Ground-truth incident markers a recorded trace carries, counted per
/// class. The synthetic-CVE workloads emit one marker per scheduled
/// corruption; the Table 1 workloads emit none, so these stay zero for
/// every pre-existing preset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarkerCounts {
    /// Planted overflow incidents.
    pub overflows: usize,
    /// Planted use-after-free incidents.
    pub uafs: usize,
    /// Planted double-free incidents.
    pub double_frees: usize,
}

impl MarkerCounts {
    /// Counts the markers in a recorded trace's marker column.
    #[must_use]
    pub fn of(trace: &ColumnarTrace) -> MarkerCounts {
        let mut counts = MarkerCounts::default();
        for kind in trace.markers() {
            match kind {
                IncidentClass::Overflow => counts.overflows += 1,
                IncidentClass::UseAfterFree => counts.uafs += 1,
                IncidentClass::DoubleFree => counts.double_frees += 1,
            }
        }
        counts
    }

    /// Total marked incidents of any class.
    #[must_use]
    pub fn total(&self) -> usize {
        self.overflows + self.uafs + self.double_frees
    }
}

/// What the workload is known to plant — the reference every tool's reports
/// are scored against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// The planted bug class.
    pub bug: BugClass,
    /// Allocation groups that genuinely leak (empty for corruption apps).
    pub leak_groups: Vec<GroupKey>,
    /// Whether a corruption bug (overflow / use-after-free) is planted.
    pub expects_corruption: bool,
    /// Operations in the recorded trace.
    pub trace_ops: usize,
    /// Per-class incident markers in the trace (all zero unless the
    /// workload emits ground-truth markers).
    pub markers: MarkerCounts,
}

/// One tool's scored run within a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolScore {
    /// Tool name ("safemem", "purify", ...).
    pub tool: &'static str,
    /// Simulated CPU cycles consumed.
    pub cpu_cycles: u64,
    /// Distinct planted leak groups the tool reported.
    pub leaks_found: usize,
    /// Planted leak groups the tool did not report.
    pub leaks_missed: usize,
    /// Leak reports naming groups that do not leak.
    pub false_leaks: usize,
    /// Whether the planted corruption (if any) was reported.
    pub corruption_found: bool,
    /// Corruption reports in a run with no planted corruption.
    pub false_corruptions: usize,
    /// `BugReport::HardwareError` count (watched-line signature mismatches).
    pub hardware_reports: u64,
    /// OS-level panics on unwatched uncorrectable errors.
    pub hardware_panics: u64,
    /// Hardware-error observations not explained by an injected
    /// uncorrectable fault. Under a correctable-only mix every observation
    /// counts — the controller corrected behind the scenes, so anything
    /// surfacing as a hardware error was misattributed.
    pub hardware_misattributions: u64,
    /// Final controller counters (the delta for this run: each tool gets a
    /// fresh machine).
    pub controller: ControllerStats,
    /// What the injector did during this run.
    pub injected: InjectionLog,
    /// Mirror of the campaign's `expects_corruption`, carried so the score
    /// is self-contained.
    pub expects_corruption: bool,
    /// Survival-with-integrity score. `Some` only when the trace carries
    /// ground-truth incident markers *and* the tool ran with a recovery
    /// layer (today: SafeMem under the `arena` preset) — every
    /// pre-existing preset and tool yields `None`, keeping their scorecards
    /// byte-identical.
    pub survival: Option<SurvivalScore>,
    /// Final allocator statistics for this run — the memory-overhead side
    /// of the sampling frontier (Table 4's waste metric).
    pub heap_stats: HeapStats,
    /// Sampling accounting, for tools that sample their instrumentation
    /// (`None` for the non-sampling panel tools).
    pub sampling: Option<SamplingSummary>,
}

/// The survival-with-integrity dimension of an arena campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivalScore {
    /// The process completed the run without a hardware panic.
    pub survived: bool,
    /// Post-run heap integrity: the allocator's live map verified
    /// well-formed and no quarantine canary was overwritten.
    pub integrity: bool,
    /// Every ground-truth marker's incident was healed, class for class
    /// (healed counts equal marker counts exactly).
    pub attributed: bool,
    /// Incidents healed, summed over all classes.
    pub healed: u64,
}

impl SurvivalScore {
    /// Whether all three survival dimensions hold.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.survived && self.integrity && self.attributed
    }

    /// Scores a recovery-enabled run against the trace's markers.
    fn of(summary: &SurvivalSummary, markers: &MarkerCounts, hardware_panics: u64) -> Self {
        SurvivalScore {
            survived: hardware_panics == 0,
            integrity: summary.heap_intact && summary.canary_violations == 0,
            attributed: summary.healed_overflows == markers.overflows as u64
                && summary.healed_uafs == markers.uafs as u64
                && summary.healed_double_frees == markers.double_frees as u64,
            healed: summary.healed_overflows + summary.healed_uafs + summary.healed_double_frees,
        }
    }
}

impl ToolScore {
    /// Total false positives of any kind, including misattributed hardware
    /// errors.
    #[must_use]
    pub fn false_positives(&self) -> u64 {
        self.false_leaks as u64 + self.false_corruptions as u64 + self.hardware_misattributions
    }

    /// Whether every planted bug was reported.
    #[must_use]
    pub fn found_all_planted(&self) -> bool {
        self.leaks_missed == 0 && (self.corruption_found || !self.expects_corruption)
    }
}

/// A fully scored campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// The spec that produced this result.
    pub spec: CampaignSpec,
    /// The reference the tools were scored against.
    pub truth: GroundTruth,
    /// Per-tool scores, in the fixed order safemem, purify, memcheck,
    /// pageguard, none.
    pub tools: Vec<ToolScore>,
}

impl CampaignResult {
    /// The score for a given tool name.
    #[must_use]
    pub fn tool(&self, name: &str) -> Option<&ToolScore> {
        self.tools.iter().find(|t| t.tool == name)
    }

    /// The harsh-preset acceptance invariant: under a correctable-only
    /// injection mix SafeMem reports **zero** false positives of any kind
    /// and still catches every planted bug.
    #[must_use]
    pub fn harsh_invariant_holds(&self) -> bool {
        let Some(s) = self.tool("safemem") else {
            return false;
        };
        !self.spec.mix.injects_uncorrectable()
            && s.false_positives() == 0
            && s.hardware_panics == 0
            && s.found_all_planted()
    }

    /// The arena-preset acceptance invariant: SafeMem-with-recovery
    /// detected the planted corruption, survived every scheduled incident,
    /// kept the heap verifiably intact, and healed exactly the incidents
    /// the trace's ground-truth markers attest — on top of the harsh
    /// zero-false-positive bar.
    #[must_use]
    pub fn survival_invariant_holds(&self) -> bool {
        let Some(s) = self.tool("safemem") else {
            return false;
        };
        let Some(survival) = &s.survival else {
            return false;
        };
        self.harsh_invariant_holds() && survival.holds()
    }
}

/// Builds the campaign's OS: memory size, swap policy, scrub interval, and
/// controller mode all come from the spec.
fn build_os(spec: &CampaignSpec) -> Os {
    let mut os = Os::new(OsConfig {
        phys_bytes: spec.phys_bytes,
        swap_policy: spec.swap_policy,
        scrub_interval_cycles: spec.scrub_interval_cycles,
        ..OsConfig::default()
    });
    os.machine_mut().controller_mut().set_mode(spec.ecc_mode);
    os
}

/// Builds one tool of the differential panel. SafeMem alone honours the
/// spec's recovery flag — the comparison tools have no healing layer.
fn build_tool(name: &str, spec: &CampaignSpec, os: &mut Os) -> Box<dyn MemTool> {
    match name {
        "safemem" => {
            let sampling_seed = SmRng::keyed(spec.seed, SAMPLING_STREAM).next_u64();
            Box::new(
                SafeMem::builder()
                    .recovery(spec.recovery)
                    .sampling(SamplingPlan::new(spec.sampling_ppm, sampling_seed))
                    .build(os),
            )
        }
        "purify" => {
            let mut tool = Purify::new();
            tool.add_root_range(STATIC_BASE, 4096);
            Box::new(tool)
        }
        "memcheck" => {
            let mut tool = Memcheck::new();
            tool.add_root_range(STATIC_BASE, 4096);
            Box::new(tool)
        }
        "pageguard" => Box::new(PageGuard::new()),
        "none" => Box::new(NullTool::new()),
        other => unreachable!("unknown panel tool {other}"),
    }
}

/// The differential panel, in scorecard order.
pub const PANEL: &[&str] = &["safemem", "purify", "memcheck", "pageguard", "none"];

/// A recorded campaign trace in its replay layout: the recorder's enum
/// [`Trace`] flattened once to a [`ColumnarTrace`] at record time, so every
/// panel cell sharing the recording replays columns without re-walking the
/// enum stream.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    /// The op stream flattened to columns.
    pub columnar: ColumnarTrace,
}

impl RecordedTrace {
    /// Flattens a recorded trace.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        RecordedTrace {
            columnar: ColumnarTrace::from_trace(trace),
        }
    }
}

/// [`record_trace`] flattened for replay — what the matrix runners memoize
/// per [`TraceKey`](crate::TraceKey).
///
/// # Errors
///
/// Returns [`CampaignError`] if the spec names an unknown workload.
pub fn record_campaign_trace(spec: &CampaignSpec) -> Result<RecordedTrace, CampaignError> {
    record_trace(spec).map(|trace| RecordedTrace::new(&trace))
}

/// Runs one campaign: records the ground-truth trace, replays it through the
/// whole panel under injection, and scores every tool.
///
/// Equivalent to [`record_campaign_trace`] followed by
/// [`replay_panel_columnar_with`]; the matrix runners use the split halves
/// so cells sharing a trace record it once.
///
/// # Errors
///
/// Returns [`CampaignError`] if the spec names an unknown workload.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignResult, CampaignError> {
    let rec = record_campaign_trace(spec)?;
    replay_panel_columnar_with(spec, &rec, &mut ColumnarReplayer::new())
}

/// Replays an already-recorded campaign trace through the whole panel under
/// injection and scores every tool. The trace is only borrowed, so one
/// recording can serve every cell that shares it, and the caller-owned
/// replayer reuses its scratch buffers across all of them.
///
/// # Errors
///
/// Returns [`CampaignError`] if the spec names an unknown workload.
pub fn replay_panel_columnar_with(
    spec: &CampaignSpec,
    rec: &RecordedTrace,
    replayer: &mut ColumnarReplayer,
) -> Result<CampaignResult, CampaignError> {
    let truth = ground_truth(spec, rec)?;
    let tools = PANEL
        .iter()
        .map(|&name| replay_tool(name, spec, &truth, rec, replayer))
        .collect();
    Ok(CampaignResult {
        spec: spec.clone(),
        truth,
        tools,
    })
}

/// Replays an already-recorded trace through **SafeMem alone** under the
/// spec's injection mix — the fleet campaign's per-process cell executor.
/// A fleet sweeps hundreds-to-thousands of cells and only scores SafeMem's
/// detection probability, so running the full differential panel per cell
/// would quintuple the work for numbers the fleet scorecard never reads.
/// The SafeMem run is the panel's own (same per-tool replay), so a fleet
/// cell and the matching panel cell produce the same `safemem` score.
///
/// # Errors
///
/// Returns [`CampaignError`] if the spec names an unknown workload.
pub fn replay_safemem_columnar_with(
    spec: &CampaignSpec,
    rec: &RecordedTrace,
    replayer: &mut ColumnarReplayer,
) -> Result<(GroundTruth, ToolScore), CampaignError> {
    let truth = ground_truth(spec, rec)?;
    let score = replay_tool("safemem", spec, &truth, rec, replayer);
    Ok((truth, score))
}

/// What the spec's workload plants, as recorded in `rec`.
fn ground_truth(spec: &CampaignSpec, rec: &RecordedTrace) -> Result<GroundTruth, CampaignError> {
    let workload = workload_by_name(&spec.workload)
        .ok_or_else(|| CampaignError(format!("unknown workload {:?}", spec.workload)))?;
    Ok(GroundTruth {
        bug: workload.spec().bug,
        leak_groups: workload.true_leak_groups(),
        expects_corruption: !workload.spec().bug.is_leak(),
        trace_ops: rec.columnar.len(),
        markers: MarkerCounts::of(&rec.columnar),
    })
}

/// Replays `rec` through one panel tool on a fresh machine under the spec's
/// injection mix, and classifies the tool's reports against the ground
/// truth.
fn replay_tool(
    tool: &'static str,
    spec: &CampaignSpec,
    truth: &GroundTruth,
    rec: &RecordedTrace,
    replayer: &mut ColumnarReplayer,
) -> ToolScore {
    let mut os = build_os(spec);
    let inner = build_tool(tool, spec, &mut os);
    let mut injector = Injector::new(inner, spec.mix, spec.seed);
    let result = replayer.replay(&rec.columnar, &mut os, &mut injector);
    let injected = injector.log();

    // `leak_groups()` is already deduped, so one pass partitions it into
    // true and false positives.
    let truth_set: HashSet<GroupKey> = truth.leak_groups.iter().copied().collect();
    let mut leaks_found = 0usize;
    let mut false_leaks = 0usize;
    for g in result.leak_groups() {
        if truth_set.contains(&g) {
            leaks_found += 1;
        } else {
            false_leaks += 1;
        }
    }
    let leaks_missed = truth.leak_groups.len() - leaks_found;

    let corruption_found = result.corruption_detected();
    let false_corruptions = if truth.expects_corruption {
        0
    } else {
        result.reports.iter().filter(|r| r.is_corruption()).count()
    };

    let hardware_reports = result
        .reports
        .iter()
        .filter(|r| matches!(r, BugReport::HardwareError { .. }))
        .count() as u64;
    let hardware_panics = os.stats().hardware_panics;
    // Every injected burst is triggered exactly once by the injector itself;
    // observations beyond that budget were misattributed.
    let hardware_misattributions =
        (hardware_reports + hardware_panics).saturating_sub(injected.multi_bit_bursts);

    let survival = match (injector.survival(), truth.markers.total()) {
        (Some(s), n) if n > 0 => Some(SurvivalScore::of(&s, &truth.markers, hardware_panics)),
        _ => None,
    };
    ToolScore {
        tool,
        cpu_cycles: result.cpu_cycles,
        leaks_found,
        leaks_missed,
        false_leaks,
        corruption_found,
        false_corruptions,
        hardware_reports,
        hardware_panics,
        hardware_misattributions,
        controller: os.machine().controller().stats(),
        injected,
        expects_corruption: truth.expects_corruption,
        survival,
        heap_stats: result.heap_stats,
        sampling: injector.sampling(),
    }
}

/// Records the campaign trace only — exposed for tests that need the raw
/// trace alongside [`run_campaign`].
///
/// # Errors
///
/// Returns [`CampaignError`] if the spec names an unknown workload.
pub fn record_trace(spec: &CampaignSpec) -> Result<Trace, CampaignError> {
    let workload = workload_by_name(&spec.workload)
        .ok_or_else(|| CampaignError(format!("unknown workload {:?}", spec.workload)))?;
    let cfg = RunConfig {
        input: InputMode::Buggy,
        requests: spec.requests,
        seed: spec.workload_seed,
    };
    let mut os = build_os(spec);
    let mut null = NullTool::new();
    // Workloads whose planted bugs touch freed memory need the
    // freed-tracking recorder, or the bug evaporates from the trace. The
    // Table 1 workloads keep the plain recorder, byte for byte.
    let mut recorder = if workload.records_freed_accesses() {
        Recorder::with_freed_tracking(&mut null)
    } else {
        Recorder::new(&mut null)
    };
    workload.run(&mut os, &mut recorder, &cfg);
    Ok(recorder.into_trace())
}
