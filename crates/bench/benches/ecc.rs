//! Microbenchmarks of the memory fast path: the table-driven codec, the
//! bulk (frame-at-a-time) controller read/write streams, the cached-plan
//! scrubber, and the cache hierarchy in front of them, timed through
//! `Machine` (an L1 hit, a full miss that writes back a dirty L2 victim, a
//! full miss whose victims are clean, and a fleet turn's working set
//! followed by a full flush), and the
//! `WatchMemory`/`DisableWatchMemory` syscalls and scrub cycle SafeMem runs
//! on nearly every allocation and free. These are the layers every
//! simulated byte funnels through, so regressions here show up directly as
//! campaign throughput (see `BENCH_campaign.json` at the repository root).
//!
//! Set `ECC_BENCH_JSON=<path>` to also emit the results as a JSON record —
//! CI uploads it alongside the campaign bench artifact.

use criterion::{black_box, Criterion};
use safemem_cache::default_two_level;
use safemem_ecc::{Codec, EccController, EccMode, ScrambleScheme};
use safemem_machine::Machine;
use safemem_os::{Os, HEAP_BASE, PAGE_BYTES};
use std::time::{Duration, Instant};

fn bench_codec(c: &mut Criterion) {
    let codec = Codec::new();
    c.bench_function("ecc/encode", |b| {
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        b.iter(|| {
            word = word.wrapping_mul(0xD128_1CD4_9A32_DB1D).rotate_left(17);
            codec.encode(black_box(word))
        })
    });
    let code = codec.encode(0xDEAD_BEEF_0123_4567);
    c.bench_function("ecc/decode_clean", |b| {
        b.iter(|| codec.decode(black_box(0xDEAD_BEEF_0123_4567), black_box(code)))
    });
    c.bench_function("ecc/decode_single_bit", |b| {
        b.iter(|| codec.decode(black_box(0xDEAD_BEEF_0123_4567 ^ 2), black_box(code)))
    });
    let scheme = ScrambleScheme::default();
    c.bench_function("ecc/decode_scrambled", |b| {
        b.iter(|| codec.decode(black_box(scheme.apply(0xDEAD_BEEF)), black_box(code)))
    });
}

fn bench_streaming(c: &mut Criterion) {
    // A 1 MiB working set streamed in 4 KiB spans: the shape workload
    // drivers present to the controller.
    const SPAN: usize = 4096;
    const SET: u64 = 1 << 20;
    let mut ctl = EccController::new(SET);
    let payload = [0x5Au8; SPAN];
    let mut addr = 0u64;
    c.bench_function("ecc/stream_write_4k", |b| {
        b.iter(|| {
            ctl.write(black_box(addr), black_box(&payload));
            addr = (addr + SPAN as u64) % SET;
        })
    });
    let mut buf = [0u8; SPAN];
    c.bench_function("ecc/stream_read_4k", |b| {
        b.iter(|| {
            ctl.read(black_box(addr), &mut buf).expect("clean memory");
            addr = (addr + SPAN as u64) % SET;
        })
    });
    // Unaligned small accesses: the partial-group merge path.
    c.bench_function("ecc/read_unaligned_37b", |b| {
        let mut small = [0u8; 37];
        b.iter(|| {
            ctl.read(black_box(addr + 3), &mut small).expect("clean");
            addr = (addr + 64) % (SET - 64);
        })
    });
    c.bench_function("ecc/write_unaligned_37b", |b| {
        let small = [0xC3u8; 37];
        b.iter(|| {
            ctl.write(black_box(addr + 3), black_box(&small));
            addr = (addr + 64) % (SET - 64);
        })
    });
}

fn bench_scrub(c: &mut Criterion) {
    let mut ctl = EccController::new(1 << 20);
    ctl.set_mode(EccMode::CorrectAndScrub);
    // Touch every frame so the scrub plan covers the whole working set.
    let payload = [1u8; 4096];
    for frame in 0..(1u64 << 20) / 4096 {
        ctl.write(frame * 4096, &payload);
    }
    c.bench_function("ecc/scrub_step_512", |b| {
        b.iter(|| black_box(ctl.scrub_step(black_box(512))))
    });
}

fn bench_cache(c: &mut Criterion) {
    const LINE: u64 = 64;
    let mut word = [0u8; 8];

    let mut m = Machine::with_defaults(1 << 21);
    m.write(0, &word).expect("clean memory");
    c.bench_function("cache/read_l1_hit", |b| {
        b.iter(|| m.read(black_box(8), &mut word).expect("clean memory"))
    });

    // Streaming 8-byte reads over a 512 KiB region, each a full miss. Before
    // every run of `resident` reads (as many as the hierarchy holds), an
    // untimed pass writes a disjoint region that fills every level with
    // dirty lines, so each timed read's L2 victim is written back.
    const REGION: u64 = 512 << 10;
    let resident: u64 = default_two_level()
        .iter()
        .map(|level| u64::from(level.sets * level.ways))
        .sum();
    let mut m = Machine::with_defaults(1 << 21);
    let mut next = 0;
    c.bench_function("cache/read_miss_dirty_victim", |b| {
        b.iter_custom(|iters| {
            let mut elapsed = Duration::ZERO;
            let mut done = 0;
            while done < iters {
                for line in 0..resident {
                    m.write(REGION + line * LINE, &[1; 8])
                        .expect("clean memory");
                }
                let run = resident.min(iters - done);
                let start = Instant::now();
                for _ in 0..run {
                    m.read(black_box(next), &mut word).expect("clean memory");
                    next = (next + LINE) % REGION;
                }
                elapsed += start.elapsed();
                done += run;
            }
            elapsed
        })
    });

    // The conservative scan's common case: the same streaming reads over
    // a region of clean lines that nothing writes, so every read misses
    // both levels, L1's victim moves down to L2 and L2's leaves without a
    // writeback. The region is stored once, uncached, and an untimed pass
    // fills the hierarchy before the stream starts past it.
    let mut m = Machine::with_defaults(1 << 21);
    m.write_uncached(0, &vec![0x5A; REGION as usize]);
    for line in 0..resident {
        m.read(line * LINE, &mut word).expect("clean memory");
    }
    let mut next = resident * LINE;
    c.bench_function("cache/read_miss_clean_victim", |b| {
        b.iter(|| {
            m.read(black_box(next), &mut word).expect("clean memory");
            next = (next + LINE) % REGION;
        })
    });

    // A churn-server turn leaves about four lines in L1, two of them dirty
    // (the connection buffer it fills); the fleet then flushes everything.
    let mut m = Machine::with_defaults(1 << 21);
    c.bench_function("cache/flush_all_fleet_turn", |b| {
        b.iter(|| {
            m.write(black_box(0x1000), &[0xB0; 128])
                .expect("clean memory");
            m.read(0x2000, &mut word).expect("clean memory");
            m.read(0x3040, &mut word).expect("clean memory");
            m.flush_all_caches();
        })
    });
}

fn bench_watch(c: &mut Criterion) {
    let mut os = Os::with_defaults(1 << 22);
    os.register_ecc_fault_handler();
    os.vwrite(HEAP_BASE, &[0x3C; 4 * PAGE_BYTES as usize])
        .expect("unwatched memory");

    // A guard pad: SafeMem watches one line on each side of every buffer.
    let pad = HEAP_BASE + 0x140;
    c.bench_function("watch/pad_watch_disable", |b| {
        b.iter(|| {
            os.watch_memory(black_box(pad), 64).expect("free line");
            os.disable_watch_memory(black_box(pad)).expect("watched");
        })
    });

    // A freed 4 KiB buffer straddling a page boundary, watched until reuse.
    // An untimed store before each run leaves a few of its lines dirty in
    // cache, as the program's last writes to the buffer would.
    let freed = HEAP_BASE + PAGE_BYTES + 0x800;
    c.bench_function("watch/freed_4k_watch_disable", |b| {
        b.iter_custom(|iters| {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                os.vwrite(freed + 0x7c0, &[0xA5; 256])
                    .expect("unwatched memory");
                let start = Instant::now();
                os.watch_memory(black_box(freed), PAGE_BYTES)
                    .expect("free lines");
                os.disable_watch_memory(black_box(freed)).expect("watched");
                elapsed += start.elapsed();
            }
            elapsed
        })
    });

    // A scrub pass coordinated around 16 watched 4-line regions. Every
    // watched line is held, so the cycle charges its disarm and re-arm
    // without rewriting it.
    let mut os = Os::with_defaults(1 << 22);
    os.register_ecc_fault_handler();
    os.machine_mut()
        .controller_mut()
        .set_mode(EccMode::CorrectAndScrub);
    os.vwrite(HEAP_BASE, &[0x3C; 4 * PAGE_BYTES as usize])
        .expect("unwatched memory");
    for region in 0..16 {
        os.watch_memory(HEAP_BASE + region * 1024, 256)
            .expect("free lines");
    }
    c.bench_function("watch/scrub_cycle_64_lines", |b| {
        b.iter(|| os.run_scrub_cycle())
    });

    // The same pass after a data-bit flip in one watched line, injected
    // before every cycle (and timed with it): that line has lost its hold,
    // so the cycle walks the registry and restores, scrubs and re-arms it.
    let watched = os.vm().translate_resident(HEAP_BASE).expect("watched page");
    c.bench_function("watch/scrub_cycle_64_lines_disturbed", |b| {
        b.iter(|| {
            os.machine_mut()
                .controller_mut()
                .inject_data_error(watched, 5);
            os.run_scrub_cycle();
        })
    });
}

fn main() {
    let mut criterion = Criterion::default();
    bench_codec(&mut criterion);
    bench_streaming(&mut criterion);
    bench_scrub(&mut criterion);
    bench_cache(&mut criterion);
    bench_watch(&mut criterion);
    if let Ok(path) = std::env::var("ECC_BENCH_JSON") {
        criterion
            .write_json("safemem-ecc-fastpath", &path)
            .expect("write bench JSON");
        println!("wrote {path}");
    }
}
