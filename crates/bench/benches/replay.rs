//! Benchmarks of the single-record/multi-replay campaign pipeline: trace
//! recording vs replay, the columnar struct-of-arrays engine vs the naive
//! HashMap-per-run reference, and the leak detector's check pass as the
//! live group population grows (the incremental schedule vs the full scan).
//!
//! Set `REPLAY_BENCH_JSON=<path>` to also emit the results as a JSON record —
//! CI uploads it alongside the campaign and ECC bench artifacts.

use criterion::{black_box, Criterion};
use safemem_core::{CallStack, LeakConfig, LeakDetector, SafeMem};
use safemem_faultinject::{record_trace, CampaignSpec};
use safemem_os::{Os, OsConfig, HEAP_BASE};
use safemem_workloads::{ColumnarReplayer, ColumnarTrace};

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

fn bench_record_vs_replay(c: &mut Criterion) {
    let mut spec = CampaignSpec::harsh("gzip", 0);
    spec.requests = Some(48);
    let trace = record_trace(&spec).expect("record gzip");

    c.bench_function("replay/record_gzip48", |b| {
        b.iter(|| black_box(record_trace(&spec).expect("record")))
    });

    // Naive reference: fresh HashMap id table every run.
    c.bench_function("replay/naive_gzip48", |b| {
        b.iter(|| {
            let mut os = os_for(&spec);
            let mut tool = SafeMem::builder().build(&mut os);
            black_box(trace.replay_naive(&mut os, &mut tool))
        })
    });

    // Columnar struct-of-arrays engine: the campaign replay hot path, with
    // one scratch-reusing replayer amortised across runs as each campaign
    // worker holds it. The one-time transposition is benched separately
    // from the scan itself.
    c.bench_function("replay/columnar_transpose_gzip48", |b| {
        b.iter(|| black_box(ColumnarTrace::from_trace(&trace)))
    });
    let columnar = ColumnarTrace::from_trace(&trace);
    let mut columnar_replayer = ColumnarReplayer::new();
    c.bench_function("replay/columnar_gzip48", |b| {
        b.iter(|| {
            let mut os = os_for(&spec);
            let mut tool = SafeMem::builder().build(&mut os);
            black_box(columnar_replayer.replay(&columnar, &mut os, &mut tool))
        })
    });
}

/// One check pass over `groups` allocation sites (one live object each),
/// under the incremental deadline schedule or the naive full scan.
fn leak_check_pass(groups: u64, incremental: bool) -> u64 {
    const LINE: u64 = 64;
    let mut os = Os::with_defaults(1 << 24);
    os.register_ecc_fault_handler();
    let cfg = LeakConfig {
        warmup: 0,
        check_period: u64::MAX, // checks only when we ask
        incremental_check: incremental,
        ..LeakConfig::default()
    };
    let mut det = LeakDetector::new(cfg, LINE);
    for i in 0..groups {
        os.compute(200);
        det.on_alloc(
            &mut os,
            HEAP_BASE + i * 128,
            64,
            &CallStack::new(&[0x400_000, i]),
        );
    }
    det.run_check(&mut os);
    det.stats().checks
}

fn bench_leak_check(c: &mut Criterion) {
    for groups in [64u64, 512, 4096] {
        c.bench_function(&format!("leak_check/incremental_{groups}"), |b| {
            b.iter(|| black_box(leak_check_pass(groups, true)))
        });
        c.bench_function(&format!("leak_check/naive_{groups}"), |b| {
            b.iter(|| black_box(leak_check_pass(groups, false)))
        });
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_record_vs_replay(&mut criterion);
    bench_leak_check(&mut criterion);
    if let Ok(path) = std::env::var("REPLAY_BENCH_JSON") {
        criterion
            .write_json("safemem-replay-pipeline", &path)
            .expect("write bench JSON");
        println!("wrote {path}");
    }
}
