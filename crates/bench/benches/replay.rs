//! Benchmarks of the single-record/multi-replay campaign pipeline: trace
//! recording vs replay, the columnar struct-of-arrays engine vs the naive
//! HashMap-per-run reference, and the leak detector's check pass as the
//! live group population grows (the incremental schedule vs the full scan).
//! The `scan/*` cases time the baselines' conservative heap scan in ns per
//! word over a 512 KiB squid1-shaped heap: the per-word `read_u64` loop,
//! the batched `Os::read_words` (also on the harsh preset's scrubbing
//! stack, where page runs stop each time a scrub cycle falls due), and a
//! whole Purify mark-and-sweep.
//!
//! Set `REPLAY_BENCH_JSON=<path>` to also emit the results as a JSON record —
//! CI uploads it alongside the campaign and ECC bench artifacts.

use criterion::{black_box, Criterion};
use safemem_baselines::Purify;
use safemem_core::{CallStack, LeakConfig, LeakDetector, MemTool, SafeMem};
use safemem_faultinject::{record_trace, CampaignSpec};
use safemem_os::{Os, OsConfig, HEAP_BASE, STATIC_BASE};
use safemem_workloads::{ColumnarReplayer, ColumnarTrace};
use std::time::{Duration, Instant};

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

/// Cache objects of the squid1-shaped heap: 128 x 4 KiB = 512 KiB.
const SCAN_OBJECTS: u64 = 128;
const SCAN_OBJECT_BYTES: u64 = 4096;

/// A squid1-shaped heap under Purify on `os`: a root table whose cache
/// slots point at 4 KiB objects half filled with data (one in eight
/// leaked), an idle object and twelve small state objects.
fn squid1_heap_on(mut os: Os) -> (Os, Purify) {
    let mut tool = Purify::new();
    let stack = CallStack::new(&[0x400_000, 2]);
    for i in 0..SCAN_OBJECTS {
        let a = tool.malloc(&mut os, SCAN_OBJECT_BYTES, &stack);
        tool.write(&mut os, a, &[0x88; 2048]);
        if i % 8 != 7 {
            os.write_u64(STATIC_BASE + (100 + i) * 8, a).unwrap();
        }
    }
    let idle = tool.malloc(&mut os, 2048, &CallStack::new(&[0x400_000, 0x60]));
    tool.write(&mut os, idle, &[0x66; 2048]);
    os.write_u64(STATIC_BASE + 13 * 8, idle).unwrap();
    for i in 0..12u64 {
        let state = tool.malloc(&mut os, 384, &CallStack::new(&[0x400_000, 0x90 + i]));
        os.write_u64(STATIC_BASE + (20 + i) * 8, state).unwrap();
    }
    tool.add_root_range(STATIC_BASE, 4096);
    (os, tool)
}

/// [`squid1_heap_on`] a plain 8 MiB stack that never scrubs.
fn squid1_heap() -> (Os, Purify) {
    squid1_heap_on(Os::with_defaults(1 << 23))
}

/// Times `words` word reads over the cache objects, wrapping around them,
/// in `chunk`-word calls of `read`.
fn scan_words(
    os: &mut Os,
    words: u64,
    chunk: usize,
    read: fn(&mut Os, u64, &mut [Option<u64>]),
) -> Duration {
    let span = SCAN_OBJECTS * SCAN_OBJECT_BYTES / 8;
    let mut buf = vec![None; chunk];
    let start = Instant::now();
    let mut done = 0;
    while done < words {
        let n = (words - done).min(chunk as u64) as usize;
        read(os, HEAP_BASE + 8 * (done % span), &mut buf[..n]);
        black_box(&buf);
        done += n as u64;
    }
    start.elapsed()
}

fn bench_scan(c: &mut Criterion) {
    // Chunks of 512 words divide the span, so no chunk straddles the wrap.
    c.bench_function("scan/read_u64_loop", |b| {
        let (mut os, _) = squid1_heap();
        b.iter_custom(|words| {
            scan_words(&mut os, words, 512, |os, addr, out| {
                for (i, word) in out.iter_mut().enumerate() {
                    *word = os.read_u64(addr + 8 * i as u64).ok();
                }
            })
        });
    });
    c.bench_function("scan/read_words", |b| {
        let (mut os, _) = squid1_heap();
        b.iter_custom(|words| scan_words(&mut os, words, 512, Os::read_words));
    });
    // The harsh preset's stack: CorrectAndScrub with a coordinated scrub
    // cycle due every 250k cycles, which the scan reaches every few
    // thousand words.
    c.bench_function("scan/read_words_scrubbing", |b| {
        let (mut os, _) = squid1_heap_on(os_for(&CampaignSpec::harsh("gzip", 0)));
        b.iter_custom(|words| scan_words(&mut os, words, 512, Os::read_words));
    });
    // A whole mark-and-sweep, its time spread over the words it reads (the
    // root table plus every reachable payload).
    c.bench_function("scan/purify_leak_scan", |b| {
        let (mut os, mut tool) = squid1_heap();
        let reachable = SCAN_OBJECTS - SCAN_OBJECTS / 8;
        let per_scan = 4096 / 8 + reachable * SCAN_OBJECT_BYTES / 8 + 2048 / 8 + 12 * 384 / 8;
        b.iter_custom(|words| {
            let scans = words.div_ceil(per_scan);
            let start = Instant::now();
            for _ in 0..scans {
                tool.leak_scan(&mut os);
            }
            start
                .elapsed()
                .mul_f64(words as f64 / (scans * per_scan) as f64)
        });
    });
}

fn main() {
    let mut criterion = Criterion::default();
    bench_record_vs_replay(&mut criterion);
    bench_leak_check(&mut criterion);
    bench_scan(&mut criterion);
    if let Ok(path) = std::env::var("REPLAY_BENCH_JSON") {
        criterion
            .write_json("safemem-replay-pipeline", &path)
            .expect("write bench JSON");
        println!("wrote {path}");
    }
}
