//! Deterministic fault-injection campaigns for the SafeMem reproduction.
//!
//! The SafeMem paper's central robustness claim (§2.1, §5) is *differential*:
//! under realistic memory-fault conditions — correctable single-bit errors,
//! background scrubbing, DMA traffic, swap pressure — SafeMem raises **no
//! false alarms** while still catching the planted leaks and corruptions,
//! and genuine uncorrectable errors are *attributed to hardware* rather than
//! misreported as program bugs. This crate turns that claim into a testable
//! harness:
//!
//! * [`spec::CampaignSpec`] — a fully deterministic campaign description:
//!   seed, fault mix and rates, scrub timing, swap pressure, ECC mode;
//! * [`inject::Injector`] — a [`MemTool`](safemem_core::MemTool) wrapper that
//!   interleaves seed-derived injections into a workload's operation stream
//!   through the ECC controller's injection hooks, the OS scrub path, and a
//!   DMA engine;
//! * [`oracle::run_campaign`] — records one ground-truth trace and replays it
//!   through SafeMem, the three comparison baselines, and the uninstrumented
//!   tool, classifying every report as true positive / false positive /
//!   missed (split into [`oracle::record_campaign_trace`] and
//!   [`oracle::replay_panel_columnar_with`] so a shared trace can serve many
//!   cells);
//! * [`runner::run_matrix`] — shards a seeds × workloads campaign matrix
//!   across the scoped record/replay/fold worker pool every runner shares
//!   (the streamed matrix, the fleet's per-process cells and the fleet
//!   sweep too), recording each unique trace once ([`runner::TraceMode`]);
//!   results reassemble in cell order, so the aggregate scorecard is
//!   byte-identical for any thread count;
//! * [`scorecard`] — byte-stable rendering, per campaign and aggregated.
//!
//! Determinism contract: no wall-clock, no global RNG; every injection
//! decision is a pure function of `(campaign seed, operation index)`. The
//! same spec therefore yields a byte-identical scorecard — for any worker
//! count and scheduling order — which the regression tests assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod fleet;
pub mod frontier;
pub mod inject;
pub mod oracle;
pub mod rng;
pub mod runner;
pub mod scorecard;
pub mod spec;
pub mod stream;
pub mod sweep;

pub use corpus::{
    corpus_checksum, obtain_campaign_trace, CorpusError, CorpusMode, TraceCorpus, CORPUS_MAGIC,
};
pub use fleet::{
    expand_fleet, fleet_process_specs, render_fleet, render_fleet_bench_json, run_fleet,
    run_fleet_corpus, run_fleet_sharded, FleetAgg, FleetClassAgg, FleetOutcome, ShardRun,
    DEFAULT_FLEET_PROCESSES, MAX_FLEET_PROCESSES,
};
pub use frontier::{
    expand_frontier, frontier_rows, render_frontier, render_frontier_bench_json, ClassTally,
    FrontierRow, FRONTIER_RATES_PPM,
};
pub use inject::{InjectionLog, Injector};
pub use oracle::{
    record_campaign_trace, record_trace, replay_panel_columnar_with, replay_safemem_columnar_with,
    run_campaign, CampaignError, CampaignResult, GroundTruth, MarkerCounts, RecordedTrace,
    SurvivalScore, ToolScore, PANEL, SAMPLING_STREAM,
};
pub use rng::SmRng;
pub use runner::{
    campaign_cells, default_threads, expand_matrix, render_bench_json, run_matrix, run_matrix_with,
    BenchRun, MatrixReport, TraceKey, TraceMode, WorkerReport, MAX_CAMPAIGN_CELLS,
    MAX_CAMPAIGN_REQUESTS,
};
pub use scorecard::{render_aggregate, render_campaign, render_worker_table, render_workers};
pub use spec::{CampaignSpec, FaultMix};
pub use stream::{
    run_matrix_streamed, run_matrix_streamed_corpus, StreamAggregate, StreamReport, ToolSums,
};
pub use sweep::{
    render_fleet_sweep, run_fleet_sweep, splice_sweep_json, SweepConfig, SweepKnee, SweepOutcome,
    SweepPoint, SWEEP_DETECTION_TARGET, SWEEP_FLEET_SIZES, SWEEP_RATES_PPM,
};
