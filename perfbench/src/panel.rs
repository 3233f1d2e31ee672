//! Hand-built tool stacks for the traced run, and the counter snapshot read
//! after each call.
//!
//! `safemem-faultinject` keeps its OS and tool builders private, so the
//! traced run rebuilds each panel tool here from public items. The traced
//! run then checks that every hand-built run reproduces the public
//! runner's simulated CPU cycles and ECC controller counters exactly.

use std::collections::HashSet;

use safemem_baselines::{Memcheck, PageGuard, Purify};
use safemem_core::{MemTool, NullTool, SafeMem, SamplingPlan, SamplingSummary};
use safemem_faultinject::{
    CampaignSpec, InjectionLog, Injector, RecordedTrace, SmRng, TraceKey, SAMPLING_STREAM,
};
use safemem_os::{Os, OsConfig, STATIC_BASE};
use safemem_workloads::{ColumnarReplayer, RunResult};

use crate::trace::{Counters, Tracer};

/// The campaign OS for `spec`, built as the oracle builds it.
#[must_use]
pub fn build_os(spec: &CampaignSpec) -> Os {
    let mut os = Os::new(OsConfig {
        phys_bytes: spec.phys_bytes,
        swap_policy: spec.swap_policy,
        scrub_interval_cycles: spec.scrub_interval_cycles,
        ..OsConfig::default()
    });
    os.machine_mut().controller_mut().set_mode(spec.ecc_mode);
    os
}

/// Panel tool `name` for `spec`, built as the oracle builds it.
///
/// # Panics
///
/// Panics on a name outside [`safemem_faultinject::PANEL`].
#[must_use]
pub fn build_tool(name: &str, spec: &CampaignSpec, os: &mut Os) -> Box<dyn MemTool> {
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
        other => panic!("unknown panel tool {other}"),
    }
}

/// The span name of an injected trace replay.
pub const REPLAY_SPAN: &str = "workloads.ColumnarReplayer::replay";

/// Replays `rec` through hand-built panel tool `tool` under `spec`'s
/// injection as two spans of cell `id`: `os.build` (the OS and the tool),
/// then the injected replay, which carries the run's counters. Returns the
/// OS and the run's result for the cross-checks.
pub fn traced_replay(
    tr: &mut Tracer,
    counters: &mut Counters,
    replayer: &mut ColumnarReplayer,
    tool: &'static str,
    spec: &CampaignSpec,
    rec: &RecordedTrace,
    id: Option<u64>,
) -> (Os, RunResult) {
    let b = tr.begin("os.build", tool, id);
    let mut os = build_os(spec);
    let inner = build_tool(tool, spec, &mut os);
    tr.end(b);
    let r = tr.begin(REPLAY_SPAN, tool, id);
    let mut injector = Injector::new(inner, spec.mix, spec.seed);
    let result = replayer.replay(&rec.columnar, &mut os, &mut injector);
    tr.end(r);
    let mut snap = snapshot(&os, &result, Some(injector.log()), injector.sampling());
    snap.push(("workloads.trace_ops", rec.columnar.len() as u64));
    counters.add(&snap);
    tr.count(r, snap);
    (os, result)
}

/// The first spec of every distinct trace key, in cell order: the specs
/// whose traces a runner records.
#[must_use]
pub fn unique_keys(specs: &[CampaignSpec]) -> Vec<&CampaignSpec> {
    let mut seen = HashSet::new();
    specs
        .iter()
        .filter(|s| seen.insert(TraceKey::of(s)))
        .collect()
}

/// The per-layer counters one finished run leaves behind: OS, VM, machine,
/// cache, ECC controller and allocator, plus the injector's log and the
/// sampling summary where the run had them.
#[must_use]
pub fn snapshot(
    os: &Os,
    result: &RunResult,
    injected: Option<InjectionLog>,
    sampling: Option<SamplingSummary>,
) -> Vec<(&'static str, u64)> {
    let osx = os.stats();
    let vm = os.vm().stats();
    let ecc = os.machine().controller().stats();
    let levels = os.machine().hierarchy().level_stats();
    let level = |i: usize| levels.get(i).map_or((0, 0), |l| (l.hits, l.misses));
    let (l1_hits, l1_misses) = level(0);
    let (l2_hits, l2_misses) = level(1);
    let mut out = vec![
        ("os.watch_calls", osx.watch_calls),
        ("os.disable_calls", osx.disable_calls),
        ("os.ecc_faults_delivered", osx.ecc_faults_delivered),
        ("os.scrub_cycles", osx.scrub_cycles),
        ("os.page_faults", vm.page_faults),
        ("os.swap_outs", vm.swap_outs),
        ("machine.sim_cycles", os.machine().clock().cycles()),
        ("machine.cpu_cycles", result.cpu_cycles),
        ("cache.l1_hits", l1_hits),
        ("cache.l1_misses", l1_misses),
        ("cache.l2_hits", l2_hits),
        ("cache.l2_misses", l2_misses),
        ("ecc.groups_verified", ecc.groups_verified),
        ("ecc.groups_encoded", ecc.groups_encoded),
        ("ecc.scrubbed_groups", ecc.scrubbed_groups),
        ("ecc.corrected_single_bit", ecc.corrected_single_bit),
        ("ecc.uncorrectable", ecc.uncorrectable),
        ("halloc.allocs", result.heap_stats.allocs),
        ("halloc.frees", result.heap_stats.frees),
        ("tool.runs", 1),
    ];
    if let Some(log) = injected {
        out.push((
            "faultinject.injections",
            log.data_bit_flips
                + log.code_bit_flips
                + log.multi_bit_bursts
                + log.forced_scrub_cycles
                + log.dma_transfers
                + log.dma_faults,
        ));
        out.push(("faultinject.injections_skipped", log.skipped_no_target));
    }
    if let Some(s) = sampling {
        out.push(("core.sampled_allocs", s.sampled_allocs));
        out.push(("core.total_allocs", s.total_allocs));
    }
    out
}
