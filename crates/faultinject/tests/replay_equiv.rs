//! Differential suite for the record-once/replay-many pipeline.
//!
//! Three equivalences are pinned here:
//!
//! 1. **Memoized vs fresh-record campaigns** — sharing one recorded trace
//!    across every cell with the same [`TraceKey`] must produce
//!    byte-identical `CampaignResult`s to re-recording per cell, over the
//!    same 8-seed harsh matrix the golden scorecard freezes.
//! 2. **Incremental vs naive leak checks** — replaying a real recorded
//!    trace through SafeMem with the epoch-batched deadline schedule must
//!    match the full-scan reference detector result-for-result.
//! 3. **Columnar vs naive replay** — the production [`ColumnarReplayer`]
//!    must agree with the self-contained `Trace::replay_naive` oracle on
//!    every golden-matrix recording under every panel tool, and on
//!    arbitrary well-formed synthetic traces.

use proptest::prelude::*;
use safemem_baselines::{Memcheck, PageGuard, Purify};
use safemem_core::{IncidentClass, LeakConfig, MemTool, NullTool, SafeMem, SamplingPlan};
use safemem_faultinject::{
    expand_frontier, expand_matrix, record_campaign_trace, record_trace,
    replay_panel_columnar_with, run_matrix_streamed, run_matrix_streamed_corpus, run_matrix_with,
    CampaignSpec, CorpusMode, Injector, SmRng, StreamAggregate, TraceCorpus, TraceKey, TraceMode,
    PANEL, SAMPLING_STREAM,
};
use safemem_os::{Os, OsConfig, STATIC_BASE};
use safemem_workloads::{ColumnarReplayer, ColumnarTrace, Trace, TraceOp};

fn golden_matrix() -> Vec<CampaignSpec> {
    // Mirror of the golden-scorecard harness: one leak and one corruption
    // workload, 8 seeds, shortened request stream.
    let workloads = vec!["ypserv2".to_string(), "tar".to_string()];
    expand_matrix("harsh", &workloads, 8, 0, Some(48)).expect("golden matrix expands")
}

fn os_for(spec: &CampaignSpec) -> Os {
    let mut os = Os::new(OsConfig {
        phys_bytes: spec.phys_bytes,
        swap_policy: spec.swap_policy,
        scrub_interval_cycles: spec.scrub_interval_cycles,
        ..OsConfig::default()
    });
    os.machine_mut().controller_mut().set_mode(spec.ecc_mode);
    os
}

/// Trace sharing is invisible in the results: the memoized pipeline and the
/// per-cell recording pipeline score every cell identically.
#[test]
fn memoized_and_fresh_record_campaigns_are_byte_identical() {
    let specs = golden_matrix();
    let memo = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("memoized run");
    let fresh = run_matrix_with(&specs, 2, TraceMode::FreshRecord).expect("fresh run");
    assert_eq!(memo.results.len(), fresh.results.len());
    for (m, f) in memo.results.iter().zip(&fresh.results) {
        assert_eq!(
            m, f,
            "cell diverged: {} seed {}",
            m.spec.workload, m.spec.seed
        );
    }
}

/// A frontier ladder memoizes one trace per (workload, os-shape) across
/// *every* sampling rate; scoring each cell from the shared recording must
/// match re-recording per cell.
#[test]
fn memoized_frontier_ladder_matches_fresh_recording() {
    let workloads = vec!["tar".to_string(), "cve-dfree".to_string()];
    let specs = expand_frontier(
        "frontier",
        &[1_000_000, 100_000],
        &workloads,
        2,
        0,
        Some(48),
    )
    .expect("valid ladder");
    let memo = run_matrix_with(&specs, 2, TraceMode::Memoized).expect("memoized run");
    let fresh = run_matrix_with(&specs, 2, TraceMode::FreshRecord).expect("fresh run");
    assert_eq!(memo.results, fresh.results);
}

/// The sampling rate is a replay-side knob: specs differing only in
/// `sampling_ppm` share a trace key and record the identical trace, so a
/// rate ladder adds zero recording work and zero recording perturbation.
#[test]
fn sampling_rate_does_not_perturb_the_recorded_trace() {
    let full = CampaignSpec::frontier("tar", 3);
    let mut sampled = full.clone();
    sampled.sampling_ppm = 10_000;
    assert_eq!(TraceKey::of(&full), TraceKey::of(&sampled));
    let a = record_trace(&full).expect("record");
    let b = record_trace(&sampled).expect("record");
    assert_eq!(a.to_text(), b.to_text());
    assert!(a.malloc_count() > 0, "the trace allocates");
}

/// A panel tool built as the campaign oracle builds it, so a hand-driven
/// replay sees exactly the tool a campaign cell replays.
fn panel_tool(name: &str, spec: &CampaignSpec, os: &mut Os) -> Box<dyn MemTool> {
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
        _ => Box::new(NullTool::new()),
    }
}

/// The epoch-batched deadline schedule (the production leak check) and the
/// naive full-scan reference produce the same run outcome on real recorded
/// workload traces.
#[test]
fn incremental_and_naive_leak_checks_agree_on_recorded_traces() {
    for workload in ["ypserv1", "ypserv2", "proftpd", "gzip", "tar"] {
        let mut spec = CampaignSpec::harsh(workload, 0);
        spec.requests = Some(48);
        let trace = record_trace(&spec).expect("record");

        let replay = |incremental: bool| {
            let mut os = os_for(&spec);
            let cfg = LeakConfig {
                incremental_check: incremental,
                ..LeakConfig::default()
            };
            let mut tool = SafeMem::builder().leak_config(cfg).build(&mut os);
            trace.replay(&mut os, &mut tool)
        };
        let incremental = replay(true);
        let naive = replay(false);
        assert_eq!(incremental, naive, "leak scheduling diverged on {workload}");
    }
}

/// The columnar engine and the naive replay oracle agree on every
/// golden-matrix recording under every panel tool and its fault injection —
/// and the campaign oracle's scores are the columnar runs' own.
#[test]
fn columnar_replay_matches_naive_replay_on_the_golden_matrix() {
    let mut replayer = ColumnarReplayer::new();
    for spec in golden_matrix() {
        let trace = record_trace(&spec).expect("record");
        let rec = record_campaign_trace(&spec).expect("record");
        let campaign = replay_panel_columnar_with(&spec, &rec, &mut replayer).expect("panel");
        for (&name, score) in PANEL.iter().zip(&campaign.tools) {
            let mut run = |columnar: bool| {
                let mut os = os_for(&spec);
                let tool = panel_tool(name, &spec, &mut os);
                let mut injector = Injector::new(tool, spec.mix, spec.seed);
                let result = if columnar {
                    replayer.replay(&rec.columnar, &mut os, &mut injector)
                } else {
                    trace.replay_naive(&mut os, &mut injector)
                };
                (result, injector.log(), os.machine().controller().stats())
            };
            let naive = run(false);
            let columnar = run(true);
            assert_eq!(
                naive, columnar,
                "{name} diverged: {} seed {}",
                spec.workload, spec.seed
            );
            assert_eq!(score.cpu_cycles, columnar.0.cpu_cycles, "{name}");
            assert_eq!(score.controller, columnar.2, "{name}");
        }
    }
}

/// A corpus-backed matrix run (first populating the corpus, then replaying
/// purely from it) renders the exact aggregate scorecard of a corpus-free
/// run.
#[test]
fn corpus_backed_matrix_matches_fresh_recording() {
    let specs = golden_matrix();
    let fresh = run_matrix_streamed(
        &specs,
        2,
        TraceMode::Memoized,
        false,
        StreamAggregate::new(),
    )
    .expect("fresh run");

    let dir = std::env::temp_dir().join("safemem-corpus-matrix-equiv");
    let _ = std::fs::remove_dir_all(&dir);
    let record = TraceCorpus::open(&dir, CorpusMode::Record).expect("open record");
    let populated = run_matrix_streamed_corpus(
        &specs,
        2,
        TraceMode::Memoized,
        false,
        StreamAggregate::new(),
        Some(&record),
    )
    .expect("recording run");
    let replay = TraceCorpus::open(&dir, CorpusMode::ReplayFrom).expect("open replay");
    let replayed = run_matrix_streamed_corpus(
        &specs,
        2,
        TraceMode::Memoized,
        false,
        StreamAggregate::new(),
        Some(&replay),
    )
    .expect("replaying run");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(fresh.aggregate.render(), populated.aggregate.render());
    assert_eq!(fresh.aggregate.render(), replayed.aggregate.render());
    // The replay leg recorded nothing.
    assert_eq!(
        replayed
            .workers
            .iter()
            .map(|w| w.traces_recorded)
            .sum::<usize>(),
        0
    );
}

fn trace_op(live_ids: u32) -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (
            (1u64..2048),
            proptest::collection::vec(1u64..u64::MAX, 1..4)
        )
            .prop_map(|(size, frames)| TraceOp::Malloc { size, frames }),
        (0..live_ids).prop_map(|id| TraceOp::Free { id }),
        ((0..live_ids), (0i64..1024), (1u32..256)).prop_map(|(id, offset, len)| TraceOp::Read {
            id,
            offset,
            len
        }),
        ((0..live_ids), (0i64..1024), (1u32..256), any::<u8>()).prop_map(
            |(id, offset, len, fill)| TraceOp::Write {
                id,
                offset,
                len,
                fill,
            }
        ),
        ((0..live_ids), (0i64..256), (1u32..64))
            .prop_map(|(id, offset, len)| { TraceOp::ReadFreed { id, offset, len } }),
        ((0..live_ids), (0i64..256), (1u32..64), any::<u8>()).prop_map(
            |(id, offset, len, fill)| TraceOp::WriteFreed {
                id,
                offset,
                len,
                fill,
            }
        ),
        (0..live_ids).prop_map(|id| TraceOp::FreeAgain { id }),
        prop_oneof![
            Just(IncidentClass::Overflow),
            Just(IncidentClass::UseAfterFree),
            Just(IncidentClass::DoubleFree),
        ]
        .prop_map(|kind| TraceOp::Marker { kind }),
        ((1u64..500_000), (0u64..50_000)).prop_map(|(cycles, mem_accesses)| TraceOp::Compute {
            cycles,
            mem_accesses
        }),
        (1u64..5_000_000).prop_map(|ns| TraceOp::Io { ns }),
    ]
}

/// Keeps only ops that reference buffers a replay will actually have bound
/// and not yet freed, so both replay paths exercise their happy paths
/// instead of both skipping unknown ids.
fn well_formed(ops: Vec<TraceOp>) -> Trace {
    let mut trace = Trace::new();
    let mut bound: u32 = 0;
    let mut live: Vec<bool> = Vec::new();
    for op in ops {
        match op {
            TraceOp::Malloc { .. } => {
                live.push(true);
                bound += 1;
                trace.push(op);
            }
            TraceOp::Free { id } => {
                if id < bound && live[id as usize] {
                    live[id as usize] = false;
                    trace.push(op);
                }
            }
            TraceOp::Read { id, .. } | TraceOp::Write { id, .. } => {
                if id < bound && live[id as usize] {
                    trace.push(op);
                }
            }
            // Freed-access ops only make sense on buffers that were bound
            // and then freed — exactly what the freed-tracking recorder
            // guarantees.
            TraceOp::ReadFreed { id, .. }
            | TraceOp::WriteFreed { id, .. }
            | TraceOp::FreeAgain { id } => {
                if id < bound && !live[id as usize] {
                    trace.push(op);
                }
            }
            TraceOp::Compute { .. } | TraceOp::Io { .. } | TraceOp::Marker { .. } => trace.push(op),
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The columnar engine agrees with the naive replay oracle on arbitrary
    /// synthetic traces — markers, freed-access ops, and all — including a
    /// second replay on the *same* [`ColumnarReplayer`], which must not leak
    /// slot state across runs.
    #[test]
    fn prop_columnar_replay_matches_naive_replay(
        ops in proptest::collection::vec(trace_op(24), 0..80),
    ) {
        let trace = well_formed(ops);
        let columnar = ColumnarTrace::from_trace(&trace);
        prop_assert_eq!(columnar.len(), trace.len());

        let mut os = Os::with_defaults(1 << 24);
        let mut tool = SafeMem::builder().build(&mut os);
        let naive = trace.replay_naive(&mut os, &mut tool);

        let mut replayer = ColumnarReplayer::new();
        let mut os = Os::with_defaults(1 << 24);
        let mut tool = SafeMem::builder().build(&mut os);
        let via_columnar = replayer.replay(&columnar, &mut os, &mut tool);
        prop_assert_eq!(&naive, &via_columnar);

        let mut os = Os::with_defaults(1 << 24);
        let mut tool = SafeMem::builder().build(&mut os);
        let again = replayer.replay(&columnar, &mut os, &mut tool);
        prop_assert_eq!(&via_columnar, &again);
    }
}
