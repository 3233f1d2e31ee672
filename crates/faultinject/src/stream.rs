//! Streaming campaign aggregation: fold each cell's result into a
//! fixed-size aggregate the moment it finishes, instead of collecting a
//! `Vec<CampaignResult>` and aggregating at the end.
//!
//! A fleet-scale sweep runs hundreds-to-thousands of cells; keeping every
//! [`CampaignResult`] alive until rendering makes peak memory linear in the
//! matrix size for numbers the scorecard reads only as sums. Every column
//! of the aggregate table, both verdict lines, and every frontier-row
//! column are commutative integer sums over per-cell values, so the
//! aggregate can be folded in **any order** — including the
//! schedule-dependent order a worker pool finishes cells in — and still
//! render byte-identically to the collected path. [`render_aggregate`] is
//! itself implemented as a fold over a [`StreamAggregate`], so the two
//! paths share one renderer and cannot drift.
//!
//! Streaming and collecting are the same record/replay/fold core
//! ([`runner`](crate::runner)) with different fold sinks: this module's
//! sink is the aggregate, the collected runner's a cell-ordered `Vec`.
//!
//! The one exception is frontier rows, whose *order* is first-appearance
//! (the ladder order). Under streaming, first-appearance would depend on
//! scheduling, so [`StreamAggregate::with_frontier`] pre-registers the rows
//! from the spec list in canonical cell order before any worker runs.
//!
//! [`render_aggregate`]: crate::scorecard::render_aggregate

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::corpus::TraceCorpus;
use crate::frontier::{render_frontier, FrontierRow};
use crate::oracle::{replay_panel_columnar_with, CampaignError, CampaignResult, PANEL};
use crate::runner::{run_cells, TraceMode, WorkerReport};
use crate::scorecard::render_campaign;
use crate::spec::CampaignSpec;

/// One panel tool's running sums across every folded campaign — the inputs
/// of one aggregate-table row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToolSums {
    /// Planted leak groups found.
    pub leaks_found: usize,
    /// False leak reports.
    pub false_leaks: usize,
    /// Planted leak groups missed.
    pub leaks_missed: usize,
    /// Campaigns whose planted corruption was found.
    pub corruption_found: usize,
    /// False corruption reports.
    pub false_corruptions: usize,
    /// Hardware panics.
    pub hardware_panics: u64,
    /// Misattributed hardware errors.
    pub hardware_misattributions: u64,
    /// Injected bit flips and bursts.
    pub injected: u64,
    /// False positives of any kind.
    pub false_positives: u64,
}

/// A fixed-size running aggregate of campaign results. Its memory footprint
/// depends only on the panel size and (when sweeping rates) the ladder
/// length — never on how many campaigns have been folded in, which
/// `tests/fleet.rs` pins.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAggregate {
    campaigns: usize,
    tools: Vec<ToolSums>,
    harsh_seen: usize,
    harsh_ok: usize,
    survival_seen: usize,
    survival_ok: usize,
    full_rate_seen: usize,
    full_rate_ok: usize,
    safemem_false_positives: u64,
    frontier: Option<Vec<FrontierRow>>,
}

impl Default for StreamAggregate {
    fn default() -> Self {
        StreamAggregate::new()
    }
}

impl StreamAggregate {
    /// An empty aggregate (no frontier table).
    #[must_use]
    pub fn new() -> Self {
        StreamAggregate {
            campaigns: 0,
            tools: vec![ToolSums::default(); PANEL.len()],
            harsh_seen: 0,
            harsh_ok: 0,
            survival_seen: 0,
            survival_ok: 0,
            full_rate_seen: 0,
            full_rate_ok: 0,
            safemem_false_positives: 0,
            frontier: None,
        }
    }

    /// An empty aggregate that will also maintain one [`FrontierRow`] per
    /// sampling rate appearing in `specs`. Rows are pre-registered here, in
    /// canonical cell order, so the rendered ladder order never depends on
    /// which worker finishes first.
    #[must_use]
    pub fn with_frontier(specs: &[CampaignSpec]) -> Self {
        let mut rows: Vec<FrontierRow> = Vec::new();
        for spec in specs {
            if !rows.iter().any(|r| r.rate_ppm == spec.sampling_ppm) {
                rows.push(FrontierRow::empty(spec.sampling_ppm));
            }
        }
        StreamAggregate {
            frontier: Some(rows),
            ..StreamAggregate::new()
        }
    }

    /// Folds one campaign result in and drops nothing but sums from it.
    ///
    /// # Panics
    ///
    /// Panics if the aggregate was built [`with_frontier`] and the result's
    /// sampling rate was not in the spec list the rows were registered from.
    ///
    /// [`with_frontier`]: StreamAggregate::with_frontier
    pub fn fold(&mut self, result: &CampaignResult) {
        self.campaigns += 1;
        for (i, sums) in self.tools.iter_mut().enumerate() {
            let Some(s) = result.tools.get(i) else {
                continue;
            };
            debug_assert_eq!(s.tool, PANEL[i]);
            sums.leaks_found += s.leaks_found;
            sums.false_leaks += s.false_leaks;
            sums.leaks_missed += s.leaks_missed;
            sums.corruption_found += usize::from(s.expects_corruption && s.corruption_found);
            sums.false_corruptions += s.false_corruptions;
            sums.hardware_panics += s.hardware_panics;
            sums.hardware_misattributions += s.hardware_misattributions;
            sums.injected +=
                s.injected.data_bit_flips + s.injected.code_bit_flips + s.injected.multi_bit_bursts;
            sums.false_positives += s.false_positives();
        }
        if !result.spec.mix.injects_uncorrectable() {
            self.harsh_seen += 1;
            if result.harsh_invariant_holds() {
                self.harsh_ok += 1;
            }
        }
        if result.truth.markers.total() > 0 {
            self.survival_seen += 1;
            if result.survival_invariant_holds() {
                self.survival_ok += 1;
            }
        }
        if let Some(s) = result.tool("safemem") {
            self.safemem_false_positives += s.false_positives();
        }
        if result.spec.sampling_ppm == safemem_core::PPM {
            self.full_rate_seen += 1;
            if result.harsh_invariant_holds() {
                self.full_rate_ok += 1;
            }
        }
        if let Some(rows) = &mut self.frontier {
            rows.iter_mut()
                .find(|r| r.rate_ppm == result.spec.sampling_ppm)
                .expect("with_frontier pre-registered every rate in the matrix")
                .fold(result);
        }
    }

    /// Campaigns folded so far.
    #[must_use]
    pub fn campaigns(&self) -> usize {
        self.campaigns
    }

    /// The frontier rows, when the aggregate maintains them.
    #[must_use]
    pub fn frontier_rows(&self) -> Option<&[FrontierRow]> {
        self.frontier.as_deref()
    }

    /// The non-frontier acceptance verdicts that failed, named as the
    /// verdict lines of [`render`](Self::render) name them: `harsh` unless
    /// every campaign with a correctable-only mix upheld the harsh
    /// invariant, `survival` unless every campaign with ground-truth
    /// markers upheld the survival invariant. Empty when all hold.
    #[must_use]
    pub fn failed_verdicts(&self) -> Vec<&'static str> {
        let mut failed = Vec::new();
        if self.harsh_ok != self.harsh_seen {
            failed.push("harsh");
        }
        if self.survival_ok != self.survival_seen {
            failed.push("survival");
        }
        failed
    }

    /// The frontier acceptance verdicts that failed: `frontier` unless
    /// SafeMem reported zero false positives at every rate (the frontier
    /// table's verdict line), `harsh (rate 1.0)` unless every always-on
    /// cell upheld the full harsh invariant. Empty when both hold.
    #[must_use]
    pub fn failed_frontier_verdicts(&self) -> Vec<&'static str> {
        let mut failed = Vec::new();
        if self.safemem_false_positives != 0 {
            failed.push("frontier");
        }
        if self.full_rate_ok != self.full_rate_seen {
            failed.push("harsh (rate 1.0)");
        }
        failed
    }

    /// Heap + inline bytes this aggregate occupies. Constant in the number
    /// of campaigns folded — the bounded-memory claim, pinned by test.
    #[must_use]
    pub fn footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tools.capacity() * std::mem::size_of::<ToolSums>()
            + self.frontier.as_ref().map_or(0, |rows| {
                rows.capacity() * std::mem::size_of::<FrontierRow>()
            })
    }

    /// Renders the aggregate table, the verdict lines, and — when the
    /// aggregate maintains frontier rows — the frontier table. Byte-for-byte
    /// what the collected path renders for the same results.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "aggregate over {} campaigns", self.campaigns);
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9} {:>10}",
            "tool",
            "tpL",
            "fpL",
            "missL",
            "corrTP",
            "fpC",
            "hwPanic",
            "misattr",
            "injected",
            "fpAll"
        );
        for (name, s) in PANEL.iter().zip(&self.tools) {
            let _ = writeln!(
                out,
                "  {name:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9} {:>10}",
                s.leaks_found,
                s.false_leaks,
                s.leaks_missed,
                s.corruption_found,
                s.false_corruptions,
                s.hardware_panics,
                s.hardware_misattributions,
                s.injected,
                s.false_positives
            );
        }
        if self.harsh_seen > 0 {
            let _ = writeln!(
                out,
                "  harsh invariant (safemem: zero FPs, all planted bugs found): {}/{} campaigns",
                self.harsh_ok, self.harsh_seen
            );
        }
        if self.survival_seen > 0 {
            let _ = writeln!(
                out,
                "  survival invariant (safemem: survived, heap intact, incidents attributed): {}/{} campaigns",
                self.survival_ok, self.survival_seen
            );
        }
        if let Some(rows) = &self.frontier {
            out.push_str(&render_frontier(rows));
        }
        out
    }
}

/// A completed streamed matrix run: the folded aggregate plus the same
/// execution telemetry a collected run reports. `cards` is the one
/// optionally per-cell part — rendered per-campaign scorecards, collected
/// only when the caller asks for verbose output.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The folded, fixed-size aggregate.
    pub aggregate: StreamAggregate,
    /// Rendered per-campaign cards in cell order; empty unless requested.
    pub cards: Vec<(usize, String)>,
    /// Per-worker execution telemetry, sorted by worker index.
    pub workers: Vec<WorkerReport>,
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Wall time for the whole matrix.
    pub wall: Duration,
}

/// [`run_matrix_with`](crate::runner::run_matrix_with), except each cell's
/// result is folded into `aggregate` the moment it finishes and then
/// dropped — peak memory stays bounded by the aggregate's
/// [`footprint`](StreamAggregate::footprint) no matter how many cells the
/// matrix has.
///
/// With `verbose`, the rendered per-campaign card of every cell is also
/// collected (returned in cell order) — that path is deliberately *not*
/// bounded, and callers opt into it per run.
///
/// # Errors
///
/// Returns the lowest-cell-index [`CampaignError`] if any cell fails (the
/// remaining cells still run), exactly like the collected runner.
pub fn run_matrix_streamed(
    specs: &[CampaignSpec],
    threads: usize,
    mode: TraceMode,
    verbose: bool,
    aggregate: StreamAggregate,
) -> Result<StreamReport, CampaignError> {
    run_matrix_streamed_corpus(specs, threads, mode, verbose, aggregate, None)
}

/// [`run_matrix_streamed`] with an optional [`TraceCorpus`]: recorded traces
/// come from (and, in writable modes, go to) the corpus instead of always
/// being re-recorded. The scorecard is byte-identical with or without a
/// corpus — only the recording phase's work changes.
///
/// # Errors
///
/// Everything [`run_matrix_streamed`] can return, plus stringified
/// [`CorpusError`](crate::corpus::CorpusError)s from corpus validation.
pub fn run_matrix_streamed_corpus(
    specs: &[CampaignSpec],
    threads: usize,
    mode: TraceMode,
    verbose: bool,
    aggregate: StreamAggregate,
    corpus: Option<&TraceCorpus>,
) -> Result<StreamReport, CampaignError> {
    let start = Instant::now();
    let run = run_cells(
        specs,
        threads,
        mode,
        corpus,
        replay_panel_columnar_with,
        (aggregate, Vec::new()),
        |(aggregate, cards): &mut (StreamAggregate, Vec<(usize, String)>), index, result| {
            if verbose {
                cards.push((index, render_campaign(&result)));
            }
            aggregate.fold(&result);
            Ok(())
        },
    )?;
    let (aggregate, mut cards) = run.sink;
    cards.sort_by_key(|(index, _)| *index);
    Ok(StreamReport {
        aggregate,
        cards,
        workers: run.workers,
        threads: run.threads,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{expand_frontier, frontier_rows};
    use crate::runner::{expand_matrix, run_matrix_with};
    use crate::scorecard::render_aggregate;
    use safemem_core::PPM;

    fn fast_specs() -> Vec<CampaignSpec> {
        let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
        expand_matrix("harsh", &workloads, 2, 0, Some(24)).expect("valid matrix")
    }

    #[test]
    fn streamed_scorecard_matches_the_collected_one() {
        let specs = fast_specs();
        let collected = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
        let streamed = run_matrix_streamed(
            &specs,
            3,
            TraceMode::Memoized,
            false,
            StreamAggregate::new(),
        )
        .expect("matrix runs");
        assert_eq!(
            streamed.aggregate.render(),
            render_aggregate(&collected.results)
        );
        assert_eq!(streamed.aggregate.campaigns(), specs.len());
        assert!(streamed.cards.is_empty(), "cards only when verbose");
        let total: usize = streamed.workers.iter().map(|w| w.campaigns).sum();
        assert_eq!(total, specs.len(), "workers account for every cell");
    }

    #[test]
    fn streamed_frontier_matches_the_collected_one() {
        let workloads = vec!["tar".to_string()];
        let specs = expand_frontier("frontier", &[PPM, 100_000], &workloads, 1, 0, Some(24))
            .expect("valid ladder");
        let collected = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("matrix runs");
        let streamed = run_matrix_streamed(
            &specs,
            2,
            TraceMode::Memoized,
            false,
            StreamAggregate::with_frontier(&specs),
        )
        .expect("matrix runs");
        let reference = {
            let mut s = render_aggregate(&collected.results);
            s.push_str(&crate::frontier::render_frontier(&frontier_rows(
                &collected.results,
            )));
            s
        };
        assert_eq!(streamed.aggregate.render(), reference);
        assert!(streamed.aggregate.failed_frontier_verdicts().is_empty());
    }

    #[test]
    fn verbose_cards_come_back_in_cell_order() {
        let specs = fast_specs();
        let streamed =
            run_matrix_streamed(&specs, 3, TraceMode::Memoized, true, StreamAggregate::new())
                .expect("matrix runs");
        let indices: Vec<usize> = streamed.cards.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..specs.len()).collect::<Vec<_>>());
        for ((_, card), spec) in streamed.cards.iter().zip(&specs) {
            assert!(
                card.contains(&format!("workload={}", spec.workload)),
                "{card}"
            );
        }
    }

    #[test]
    fn streamed_errors_match_the_collected_runner() {
        let mut specs = fast_specs();
        specs[1].workload = "nginx".into();
        let collected = run_matrix_with(&specs, 2, TraceMode::Memoized).expect_err("bad cell");
        let streamed = run_matrix_streamed(
            &specs,
            2,
            TraceMode::Memoized,
            false,
            StreamAggregate::new(),
        )
        .expect_err("bad cell");
        assert_eq!(collected, streamed);
        assert!(streamed.0.contains("nginx"), "{streamed}");
    }

    #[test]
    fn aggregate_footprint_is_independent_of_campaigns_folded() {
        let spec = CampaignSpec::harsh("tar", 0);
        let result = {
            let mut s = spec.clone();
            s.requests = Some(24);
            crate::oracle::run_campaign(&s).expect("campaign runs")
        };
        let mut few = StreamAggregate::new();
        let mut many = StreamAggregate::new();
        few.fold(&result);
        for _ in 0..64 {
            many.fold(&result);
        }
        assert_eq!(few.footprint(), many.footprint());
        assert_eq!(many.campaigns(), 64);
    }
}
