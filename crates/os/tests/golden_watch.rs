//! Golden transcript of the watch syscalls.
//!
//! A fixed, seeded script drives `WatchMemory`, `DisableWatchMemory`,
//! faults, scrubs and paging through the public `Os` API and records the
//! whole observable state after every step: both clocks, every counter
//! (OS, VM, ECC controller, cache levels), the watch registry's size, the
//! step's result, a digest of every resident frame's data and check codes,
//! and the kernel log lines the step added. Any change to a cycle charge,
//! a counter, an LRU decision, a stored byte or code, or a log entry of the
//! watch path shows up as a readable diff against the checked-in file.
//!
//! The script covers one-line pads; regions of 2 lines to 3 pages that
//! start and end mid-page; lines dirty and clean in cache and a line with a
//! stale code inside watched regions; disables in a different order than
//! the watches; loads, stores, multi-bit errors on watched lines and
//! hardware errors on unwatched ones; explicit and scheduled scrubs; a
//! pinned-page cap hit in the second page of a region, which rolls back;
//! swap-aware evictions and swap-ins driven through `vread`/`vwrite`; and
//! line sizes other than 64 bytes.
//!
//! A second transcript pins scrub coordination in `CorrectAndScrub` mode
//! under both swap policies: explicit and scheduled scrub cycles with, in
//! between, data-bit, code-bit and multi-bit injections into armed lines
//! and their unwatched neighbours; a line armed over an injected code
//! error; lines armed in `CorrectError` and scrubbed after the switch; DMA
//! transfers and ECC-on controller writes over an armed line and a
//! neighbour; unwatch and re-watch; a pinned-page cap rollback; a
//! swap-aware eviction whose frame is reused by a page that takes an
//! injection and a scrub before the watched page swaps back in; and 32-
//! and 128-byte lines. After every cycle it loads each watched line, so
//! the signature check's outcome is part of the record.
//!
//! Regenerate after an *intentional* change with:
//! `UPDATE_GOLDEN=1 cargo test -p safemem-os --test golden_watch`

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use safemem_cache::CacheConfig;
use safemem_ecc::EccMode;
use safemem_machine::{DmaEngine, DmaTransfer};
use safemem_os::{Os, OsConfig, OsFault, SwapPolicy, HEAP_BASE, PAGE_BYTES};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/watch_transcript.txt"
);
const SCRUB_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scrub_transcript.txt"
);

/// Records the machine's observable state after each step.
struct Transcript {
    out: String,
    step: usize,
    log_lines: usize,
}

impl Transcript {
    fn new() -> Self {
        Transcript {
            out: String::new(),
            step: 0,
            log_lines: 0,
        }
    }

    /// Starts a new script on a fresh `Os`.
    fn phase(&mut self, name: &str) {
        let _ = writeln!(self.out, "######## {name}");
        self.step = 0;
        self.log_lines = 0;
    }

    fn record(&mut self, os: &Os, what: &str, result: &str) {
        self.step += 1;
        let out = &mut self.out;
        let _ = writeln!(out, "== {:03} {what} -> {result}", self.step);
        let _ = writeln!(
            out,
            "cycles total={} cpu={}",
            os.total_cycles(),
            os.cpu_cycles()
        );
        let _ = writeln!(out, "os {:?}", os.stats());
        let _ = writeln!(out, "vm {:?}", os.vm().stats());
        let _ = writeln!(out, "ecc {:?}", os.machine().controller().stats());
        let _ = writeln!(out, "cache {:?}", os.machine().hierarchy().level_stats());
        let _ = writeln!(
            out,
            "watched regions={} lines={}",
            os.watched_region_count(),
            os.watched_line_count()
        );
        let memory = os.machine().controller().memory();
        let frames = memory.resident_frame_addrs();
        let mut digest = Fnv::new();
        for &frame in &frames {
            digest.word(frame);
            for group in (frame..frame + PAGE_BYTES).step_by(8) {
                let (data, code) = memory.read_group(group);
                digest.word(data);
                digest.word(u64::from(code));
            }
        }
        let _ = writeln!(out, "frames {} digest={:016x}", frames.len(), digest.0);
        let log = os.kernel_log();
        assert_eq!(log.dropped(), 0, "the script stays inside the log ring");
        let rendered = log.render();
        for line in rendered.lines().skip(self.log_lines) {
            let _ = writeln!(out, "klog {line}");
        }
        self.log_lines = rendered.lines().count();
    }
}

/// FNV-1a over 64-bit words: a stable digest that needs no dependency.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn show<T: std::fmt::Debug, E: std::fmt::Debug>(r: &Result<T, E>) -> String {
    match r {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => format!("Err({e:?})"),
    }
}

fn fill_pages(os: &mut Os, rng: &mut StdRng, first: u64, pages: u64) -> String {
    let mut buf = vec![0u8; (pages * PAGE_BYTES) as usize];
    rng.fill_bytes(&mut buf);
    show(&os.vwrite(HEAP_BASE + first * PAGE_BYTES, &buf))
}

fn read(os: &mut Os, vaddr: u64, len: usize) -> String {
    let mut buf = vec![0u8; len];
    let r = os.vread(vaddr, &mut buf);
    match r {
        Ok(()) => format!("Ok({:02x?})", &buf[..len.min(8)]),
        Err(e) => format!("Err({e:?})"),
    }
}

fn phys(os: &Os, vaddr: u64) -> u64 {
    os.vm().translate_resident(vaddr).expect("page resident")
}

/// The paper's implemented policy: watched pages are pinned.
fn pinned_script(t: &mut Transcript) {
    t.phase("pinned pages, 64-byte lines");
    let mut os = Os::new(OsConfig {
        phys_bytes: 64 * PAGE_BYTES,
        scrub_interval_cycles: Some(60_000),
        ..OsConfig::default()
    });
    os.register_ecc_fault_handler();
    let mut rng = StdRng::seed_from_u64(0x5afe_0417);
    let page = |n: u64| HEAP_BASE + n * PAGE_BYTES;

    let r = fill_pages(&mut os, &mut rng, 0, 15);
    t.record(&os, "fill pages 0..15", &r);

    // Write everything back, then leave a mix of cached-clean,
    // cached-dirty and uncached lines in the regions about to be watched.
    os.context_switch();
    t.record(&os, "context switch", "Ok");
    for n in [1u64, 2, 3, 5, 6] {
        let r = read(&mut os, page(n) + 0x400, 256);
        t.record(&os, &format!("read page {n} +0x400 (clean in cache)"), &r);
        let r = show(&os.vwrite(page(n) + 0x700, &[n as u8; 200]));
        t.record(&os, &format!("write page {n} +0x700 (dirty in cache)"), &r);
    }
    // A stale code and a single-bit data error in memory under lines that
    // get watched: the arm path must encode instead of trusting the store.
    let p = phys(&os, page(2) + 0x900);
    os.machine_mut().flush_range(p, 64);
    os.machine_mut()
        .controller_mut()
        .inject_code_error(p + 16, 3);
    t.record(&os, "inject code error page 2 +0x910", "Ok");
    let p = phys(&os, page(5) + 0x5c0);
    os.machine_mut().flush_range(p, 64);
    os.machine_mut()
        .controller_mut()
        .inject_data_error(p + 8, 41);
    t.record(&os, "inject data error page 5 +0x5c8", "Ok");

    // One-line pads around a small buffer, and at a page's first and last
    // lines.
    for (what, vaddr) in [
        ("pad", page(0) + 0x100),
        ("pad", page(0) + 0x200),
        ("pad first line", page(12)),
        ("pad last line", page(12) + PAGE_BYTES - 64),
    ] {
        let r = show(&os.watch_memory(vaddr, 64));
        t.record(&os, &format!("watch {what} {vaddr:#x} +64"), &r);
    }
    // Regions from 2 lines to 3 pages, starting and ending mid-page.
    let regions = [
        (page(1) + 0x3c0, 128),
        (page(1) + 0xfc0, 2 * 64),
        (page(2) + 0x8c0, 0x500),
        (page(3) + 0x240, 2 * PAGE_BYTES + 0x680),
        (page(6) + 0x6c0, 3 * PAGE_BYTES),
    ];
    for &(vaddr, size) in &regions {
        let r = show(&os.watch_memory(vaddr, size));
        t.record(&os, &format!("watch {vaddr:#x} +{size:#x}"), &r);
    }
    // Same page as an armed region: the page is pinned already.
    let r = show(&os.watch_memory(page(1) + 0x800, 192));
    t.record(&os, "watch page 1 +0x800 +0xc0 (page already pinned)", &r);
    // Rejections change nothing.
    let r = show(&os.watch_memory(page(3) + 0x1000, 64));
    t.record(&os, "watch inside a region", &r);
    let r = show(&os.watch_memory(page(0) + 0x101, 64));
    t.record(&os, "watch misaligned", &r);
    let r = show(&os.disable_watch_memory(page(3) + 0x280));
    t.record(&os, "unwatch not a region start", &r);

    // Accesses to watched lines fault; the rest of the page is clean.
    for (what, vaddr) in [
        ("load pad", page(0) + 0x108),
        ("load mid-region", page(3) + 0x1234),
        (
            "load last line of 3-page region",
            page(6) + 0x6c0 + 3 * PAGE_BYTES - 8,
        ),
        ("load next to a region", page(1) + 0x3c0 + 128),
    ] {
        let r = read(&mut os, vaddr, 8);
        t.record(&os, &format!("{what} {vaddr:#x}"), &r);
    }
    for (what, vaddr) in [
        ("store pad", page(12) + 8),
        ("store across two watched lines", page(2) + 0x8fc),
        ("store unwatched", page(10) + 0x10),
    ] {
        let r = show(&os.vwrite(vaddr, &[0xee; 8]));
        t.record(&os, &format!("{what} {vaddr:#x}"), &r);
    }
    // A load spanning an unwatched line and a watched one.
    let r = read(&mut os, page(1) + 0x3a0, 64);
    t.record(&os, "load into a region's first line", &r);

    // Hardware errors: two bits on a watched line fail the signature; two
    // bits on an unwatched line panic the kernel.
    let p = phys(&os, page(6) + 0x1000);
    os.machine_mut().controller_mut().inject_multi_bit_error(p);
    t.record(&os, "inject multi-bit page 7 +0x0 (watched)", "Ok");
    let r = read(&mut os, page(6) + 0x1000, 8);
    t.record(&os, "load it", &r);
    let p = phys(&os, page(13) + 0x40);
    os.machine_mut().flush_range(p, 64);
    os.machine_mut().controller_mut().inject_multi_bit_error(p);
    t.record(&os, "inject multi-bit page 13 +0x40 (unwatched)", "Ok");
    let r = read(&mut os, page(13) + 0x40, 8);
    t.record(&os, "load it", &r);

    // Scrubbing: explicit, then scheduled by the interval.
    os.machine_mut()
        .controller_mut()
        .set_mode(EccMode::CorrectAndScrub);
    os.run_scrub_cycle();
    t.record(&os, "explicit scrub cycle", "Ok");
    for i in 0..6u64 {
        os.compute(25_000);
        let vaddr = page(14) + rng.gen_range(0..60u64) * 64;
        let r = show(&os.vwrite(vaddr, &[i as u8; 16]));
        t.record(&os, &format!("compute, write {vaddr:#x}"), &r);
    }
    let r = read(&mut os, page(3) + 0x240, 8);
    t.record(&os, "load first line of 2-page region after scrubs", &r);

    // Disables in a different order than the watches.
    for vaddr in [
        page(3) + 0x240,
        page(0) + 0x200,
        page(6) + 0x6c0,
        page(1) + 0x800,
        page(12),
        page(2) + 0x8c0,
    ] {
        let r = show(&os.disable_watch_memory(vaddr));
        t.record(&os, &format!("unwatch {vaddr:#x}"), &r);
    }
    let r = read(&mut os, page(2) + 0x900, 64);
    t.record(&os, "load unwatched line that had a stale code", &r);

    // The pinned-page cap: room for exactly one more page, and a region
    // whose second page needs another. The first page is pinned and
    // armed, then rolled back.
    let pinned = os.vm().stats().pinned_pages;
    os.vm_set_max_pinned(pinned + 1);
    let r = show(&os.watch_memory(page(10) + 0xe00, 0x400));
    t.record(&os, "watch 2 pages with room for 1 (rolls back)", &r);
    let r = show(&os.watch_memory(page(10) + 0x100, 0x100));
    t.record(&os, "watch inside the one allowed page", &r);
    os.vm_set_max_pinned(64);
    let r = show(&os.watch_memory(page(10) + 0xe00, 0x400));
    t.record(&os, "watch the 2 pages again under a raised cap", &r);
    let r = read(&mut os, page(11) + 0x100, 8);
    t.record(&os, "load its second page", &r);
    os.run_scrub_cycle();
    t.record(&os, "explicit scrub cycle", "Ok");

    // Unwatch the rest, newest first.
    for vaddr in [
        page(10) + 0xe00,
        page(10) + 0x100,
        page(1) + 0xfc0,
        page(1) + 0x3c0,
        page(12) + PAGE_BYTES - 64,
        page(0) + 0x100,
    ] {
        let r = show(&os.disable_watch_memory(vaddr));
        t.record(&os, &format!("unwatch {vaddr:#x}"), &r);
    }
    let r = read(&mut os, page(6) + 0x6c0, 64);
    t.record(&os, "load restored data", &r);
    os.context_switch();
    t.record(&os, "context switch", "Ok");
}

/// The swap-aware extension: watched pages may be evicted and re-armed on
/// swap-in. Every eviction and swap-in here comes from `vread`/`vwrite`.
fn swap_aware_script(t: &mut Transcript) {
    t.phase("swap-aware, 8 frames, 64-byte lines");
    let mut os = Os::new(OsConfig {
        phys_bytes: 8 * PAGE_BYTES,
        swap_policy: SwapPolicy::SwapAware,
        swap_io_ns: 50_000,
        ..OsConfig::default()
    });
    os.register_ecc_fault_handler();
    let mut rng = StdRng::seed_from_u64(0x5afe_5a9e);
    let page = |n: u64| HEAP_BASE + n * PAGE_BYTES;

    let r = fill_pages(&mut os, &mut rng, 0, 4);
    t.record(&os, "fill pages 0..4", &r);
    let r = show(&os.vwrite(page(1) + 0x200, &[0x5c; 300]));
    t.record(&os, "write page 1 +0x200 (dirty in cache)", &r);
    for &(vaddr, size) in &[
        (page(0) + 0x80, 64),
        (page(0) + 0xf00, 0x180),
        (page(1) + 0x1c0, 0x200),
        (page(1) + 0x800, 64),
        (page(2) + 0x40, 0x3c0),
    ] {
        let r = show(&os.watch_memory(vaddr, size));
        t.record(&os, &format!("watch {vaddr:#x} +{size:#x}"), &r);
    }

    // Walk other pages until pages 0..3 are evicted.
    for n in 4..12u64 {
        let vaddr = page(n) + rng.gen_range(0..64u64) * 64;
        let r = show(&os.vwrite(vaddr, &[n as u8; 32]));
        t.record(&os, &format!("write {vaddr:#x}"), &r);
    }
    // A scrub while watched lines are swapped out.
    os.machine_mut()
        .controller_mut()
        .set_mode(EccMode::CorrectAndScrub);
    os.run_scrub_cycle();
    t.record(&os, "explicit scrub cycle", "Ok");

    // Swap-ins through loads and stores re-arm the page's lines.
    let r = read(&mut os, page(1) + 0x900, 8);
    t.record(&os, "load unwatched line of page 1 (swap-in)", &r);
    let r = read(&mut os, page(1) + 0x1c8, 8);
    t.record(&os, "load watched line of page 1", &r);
    let r = show(&os.vwrite(page(0) + 0x88, &[1; 4]));
    t.record(&os, "store watched pad of page 0 (swap-in)", &r);
    let r = read(&mut os, page(1) + 0xf40, 8);
    t.record(&os, "load page 1 part of the straddling region", &r);
    let r = show(&os.disable_watch_memory(page(1) + 0x800));
    t.record(&os, "unwatch page 1 +0x800 (resident)", &r);

    // Evict again, bring everything back by loads, and disarm.
    for n in 12..20u64 {
        let vaddr = page(n) + rng.gen_range(0..64u64) * 64;
        let r = read(&mut os, vaddr, 8);
        t.record(&os, &format!("load {vaddr:#x}"), &r);
    }
    for vaddr in [page(2) + 0x400, page(0), page(1)] {
        let r = read(&mut os, vaddr, 8);
        t.record(&os, &format!("load {vaddr:#x} (swap-in)"), &r);
    }
    for vaddr in [
        page(0) + 0xf00,
        page(2) + 0x40,
        page(0) + 0x80,
        page(1) + 0x1c0,
    ] {
        let r = show(&os.disable_watch_memory(vaddr));
        t.record(&os, &format!("unwatch {vaddr:#x}"), &r);
    }
    let r = read(&mut os, page(0) + 0xf00, 64);
    t.record(&os, "load restored data", &r);
}

/// Lines of 32 and 128 bytes: no precomputed codes, the encode path.
fn other_line_sizes(t: &mut Transcript) {
    for line in [32u32, 128] {
        t.phase(&format!("pinned pages, {line}-byte lines"));
        let mut os = Os::new(OsConfig {
            phys_bytes: 16 * PAGE_BYTES,
            caches: vec![
                CacheConfig {
                    line_size: line,
                    sets: 32,
                    ways: 4,
                },
                CacheConfig {
                    line_size: line,
                    sets: 64,
                    ways: 8,
                },
            ],
            ..OsConfig::default()
        });
        os.register_ecc_fault_handler();
        let mut rng = StdRng::seed_from_u64(u64::from(line));
        let ls = u64::from(line);
        let r = fill_pages(&mut os, &mut rng, 0, 3);
        t.record(&os, "fill pages 0..3", &r);
        let (a, b) = (HEAP_BASE + 3 * ls, HEAP_BASE + PAGE_BYTES - 2 * ls);
        let r = show(&os.watch_memory(a, ls));
        t.record(&os, &format!("watch {a:#x} +{ls}"), &r);
        let r = show(&os.watch_memory(b, 4 * ls));
        t.record(&os, &format!("watch {b:#x} +{}", 4 * ls), &r);
        let r = read(&mut os, b + 3 * ls + 4, 4);
        t.record(&os, "load last line", &r);
        os.machine_mut()
            .controller_mut()
            .set_mode(EccMode::CorrectAndScrub);
        os.run_scrub_cycle();
        t.record(&os, "explicit scrub cycle", "Ok");
        for vaddr in [b, a] {
            let r = show(&os.disable_watch_memory(vaddr));
            t.record(&os, &format!("unwatch {vaddr:#x}"), &r);
        }
        let r = read(&mut os, b, 8);
        t.record(&os, "load restored data", &r);
    }
}

/// Loads the first word of every watched line, in address order, and
/// summarises the outcomes: `S` an access fault whose line matches the
/// scramble signature, `X` a routed fault whose line does not (a hardware
/// error on a watched line), `H` a kernel panic, `V` a segfault and `.` a
/// load that succeeded. The controller's queued faults are drained and
/// counted.
fn load_watched(os: &mut Os) -> String {
    let ls = os.line_size();
    let mut outcomes = String::new();
    for start in os.watch_registry_region_starts() {
        let (_, size) = os.watched_region_containing(start).expect("a region");
        outcomes.push(' ');
        for line in (start..start + size).step_by(ls as usize) {
            outcomes.push(match os.vread(line, &mut [0u8; 8]) {
                Ok(()) => '.',
                Err(OsFault::Ecc(user)) if user.signature_ok => 'S',
                Err(OsFault::Ecc(_)) => 'X',
                Err(OsFault::HardwareError { .. }) => 'H',
                Err(OsFault::Segv { .. }) => 'V',
            });
        }
    }
    let faults = os.machine_mut().take_faults().len();
    format!("[{} ] faults={faults}", outcomes.trim_end())
}

/// One explicit scrub cycle, then a load of every watched line.
fn scrub_and_load(t: &mut Transcript, os: &mut Os, what: &str) {
    os.run_scrub_cycle();
    t.record(os, &format!("explicit scrub cycle ({what})"), "Ok");
    let r = load_watched(os);
    t.record(os, "load every watched line", &r);
}

/// Flushes the line at `vaddr` and flips a bit of its stored copy: `data`
/// (bit 0..64), `code` (check bit 0..8) or `multi` (data bits 0 and 1).
fn inject(t: &mut Transcript, os: &mut Os, kind: &str, vaddr: u64, bit: u8) {
    let p = phys(os, vaddr);
    os.machine_mut().flush_range(p & !63, 64);
    let ctl = os.machine_mut().controller_mut();
    match kind {
        "data" => ctl.inject_data_error(p, bit),
        "code" => ctl.inject_code_error(p, bit),
        _ => ctl.inject_multi_bit_error(p),
    }
    t.record(os, &format!("inject {kind} bit {bit} at {vaddr:#x}"), "Ok");
}

/// Copies `len` bytes between the physical homes of two virtual
/// addresses with a DMA engine, bypassing the caches.
fn dma(t: &mut Transcript, os: &mut Os, src: u64, dst: u64, len: u64) {
    let (src_p, dst_p) = (phys(os, src), phys(os, dst));
    os.machine_mut().flush_range(src_p, len);
    os.machine_mut().flush_range(dst_p, len);
    let mut engine = DmaEngine::new();
    engine.enqueue(DmaTransfer {
        src: src_p,
        dst: dst_p,
        len,
    });
    let step = engine.run(os.machine_mut().controller_mut(), 16);
    t.record(
        os,
        &format!("dma {src:#x} -> {dst:#x} +{len}"),
        &format!("{step:?}"),
    );
}

/// Scrub coordination with pinned watched pages: lines armed in both
/// modes, over a stale code, and disturbed in every way the kernel does not
/// see between cycles.
fn scrub_pinned_script(t: &mut Transcript) {
    t.phase("scrub coordination, pinned pages, 64-byte lines");
    let mut os = Os::new(OsConfig {
        phys_bytes: 32 * PAGE_BYTES,
        scrub_interval_cycles: Some(1_000_000),
        ..OsConfig::default()
    });
    os.register_ecc_fault_handler();
    let mut rng = StdRng::seed_from_u64(0x5c2b_0418);
    let page = |n: u64| HEAP_BASE + n * PAGE_BYTES;

    let r = fill_pages(&mut os, &mut rng, 0, 12);
    t.record(&os, "fill pages 0..12", &r);
    os.context_switch();
    t.record(&os, "context switch", "Ok");

    // Armed in CorrectError: no scrub runs until the mode switches.
    for (vaddr, size) in [(page(0) + 0x100, 64), (page(1) + 0x3c0, 0x100)] {
        let r = show(&os.watch_memory(vaddr, size));
        t.record(
            &os,
            &format!("watch {vaddr:#x} +{size:#x} (CorrectError)"),
            &r,
        );
    }
    os.run_scrub_cycle();
    t.record(&os, "scrub cycle in CorrectError (no-op)", "Ok");
    os.machine_mut()
        .controller_mut()
        .set_mode(EccMode::CorrectAndScrub);
    t.record(&os, "switch to CorrectAndScrub", "Ok");
    // A line armed over an injected code error keeps the stale code until
    // a scrub cycle restores the recorded one.
    inject(t, &mut os, "code", page(2) + 0x218, 5);
    let r = show(&os.watch_memory(page(2) + 0x200, 128));
    t.record(
        &os,
        "watch page 2 +0x200 +0x80 (first line over a stale code)",
        &r,
    );
    let r = load_watched(&mut os);
    t.record(&os, "load every watched line", &r);
    scrub_and_load(t, &mut os, "first in CorrectAndScrub");

    // Armed in CorrectAndScrub.
    for (vaddr, size) in [
        (page(3) + 0x40, 0x200),
        (page(4) + 0xfc0, 0x80),
        (page(6), 64),
        (page(6) + PAGE_BYTES - 64, 64),
    ] {
        let r = show(&os.watch_memory(vaddr, size));
        t.record(&os, &format!("watch {vaddr:#x} +{size:#x}"), &r);
    }
    scrub_and_load(t, &mut os, "every line armed");
    scrub_and_load(t, &mut os, "nothing changed");

    // Injections into armed lines and their unwatched neighbours.
    inject(t, &mut os, "data", page(3) + 0x88, 17);
    inject(t, &mut os, "code", page(3) + 0x100, 2);
    inject(t, &mut os, "multi", page(6) + 0x10, 0);
    inject(t, &mut os, "data", page(3) + 0x248, 40);
    inject(t, &mut os, "code", page(0) + 0xc0, 7);
    inject(t, &mut os, "multi", page(4) + 0xf80, 0);
    let r = load_watched(&mut os);
    t.record(&os, "load every watched line", &r);
    scrub_and_load(t, &mut os, "after injections");
    inject(t, &mut os, "data", page(5) + 0x20, 3);
    inject(t, &mut os, "data", page(2) + 0x240, 63);
    scrub_and_load(t, &mut os, "armed line and neighbour hit again");

    // Scheduled cycles, driven by the program's own accesses.
    for i in 0..5u64 {
        os.compute(250_000);
        let vaddr = page(8) + rng.gen_range(0..64u64) * 64;
        let r = show(&os.vwrite(vaddr, &[i as u8; 24]));
        t.record(&os, &format!("compute, write {vaddr:#x}"), &r);
        if i == 2 {
            inject(t, &mut os, "data", page(1) + 0x400, 30);
        }
    }
    let r = load_watched(&mut os);
    t.record(&os, "load every watched line", &r);

    // An ECC-on controller write over an armed line and over a neighbour
    // makes the stored bytes consistent: loads succeed until a cycle
    // re-arms the line.
    for vaddr in [page(1) + 0x440, page(1) + 0x4c0] {
        let p = phys(&os, vaddr);
        os.machine_mut().flush_range(p, 64);
        os.machine_mut().controller_mut().write(p, &[0x5a; 64]);
        t.record(
            &os,
            &format!("ECC-on controller write {vaddr:#x} +64"),
            "Ok",
        );
    }
    let r = load_watched(&mut os);
    t.record(&os, "load every watched line", &r);
    scrub_and_load(t, &mut os, "after the controller writes");

    // DMA into an armed line and into a neighbour, and out of an armed
    // line (the burst faults).
    dma(t, &mut os, page(9), page(3) + 0xc0, 64);
    dma(t, &mut os, page(9) + 0x40, page(3), 64);
    dma(t, &mut os, page(6), page(9) + 0x100, 64);
    let r = load_watched(&mut os);
    t.record(&os, "load every watched line", &r);
    scrub_and_load(t, &mut os, "after DMA");

    // Unwatch and re-watch, once over new data and once over the old.
    let r = show(&os.disable_watch_memory(page(1) + 0x3c0));
    t.record(&os, "unwatch page 1 +0x3c0", &r);
    let r = show(&os.vwrite(page(1) + 0x3c0, &[0x77; 0x100]));
    t.record(&os, "rewrite it", &r);
    let r = show(&os.watch_memory(page(1) + 0x3c0, 0x100));
    t.record(&os, "re-watch page 1 +0x3c0 +0x100", &r);
    let r = show(&os.disable_watch_memory(page(6)));
    t.record(&os, "unwatch page 6", &r);
    let r = show(&os.watch_memory(page(6), 64));
    t.record(&os, "re-watch page 6 +64", &r);
    scrub_and_load(t, &mut os, "after re-watching");

    // The pinned-page cap: the region's second page cannot be pinned, so
    // the armed first page rolls back.
    let pinned = os.vm().stats().pinned_pages;
    os.vm_set_max_pinned(pinned + 1);
    let r = show(&os.watch_memory(page(10) + 0xf00, 0x200));
    t.record(&os, "watch 2 pages with room for 1 (rolls back)", &r);
    os.vm_set_max_pinned(32);
    scrub_and_load(t, &mut os, "after the rollback");
    let r = show(&os.watch_memory(page(10) + 0xf00, 0x200));
    t.record(&os, "watch the 2 pages under a raised cap", &r);
    inject(t, &mut os, "data", page(11) + 0x40, 11);
    scrub_and_load(t, &mut os, "second page of the new region hit");

    // Unwatch everything and check the restored data scrubs clean.
    for vaddr in os.watch_registry_region_starts().into_iter().rev() {
        let r = show(&os.disable_watch_memory(vaddr));
        t.record(&os, &format!("unwatch {vaddr:#x}"), &r);
    }
    scrub_and_load(t, &mut os, "nothing watched");
    for vaddr in [page(3) + 0x80, page(6), page(1) + 0x440] {
        let r = read(&mut os, vaddr, 64);
        t.record(&os, &format!("load restored {vaddr:#x}"), &r);
    }
}

/// Scrub coordination under the swap-aware extension: cycles with armed
/// lines swapped out, and a frame that held armed lines reused by another
/// page before the watched page comes back.
fn scrub_swap_aware_script(t: &mut Transcript) {
    t.phase("scrub coordination, swap-aware, 8 frames, 64-byte lines");
    let mut os = Os::new(OsConfig {
        phys_bytes: 8 * PAGE_BYTES,
        swap_policy: SwapPolicy::SwapAware,
        swap_io_ns: 50_000,
        scrub_interval_cycles: Some(1_500_000),
        ..OsConfig::default()
    });
    os.register_ecc_fault_handler();
    let mut rng = StdRng::seed_from_u64(0x5c2b_5a9e);
    let page = |n: u64| HEAP_BASE + n * PAGE_BYTES;

    let r = fill_pages(&mut os, &mut rng, 0, 4);
    t.record(&os, "fill pages 0..4", &r);
    let r = show(&os.watch_memory(page(0) + 0x80, 64));
    t.record(&os, "watch page 0 +0x80 +64 (CorrectError)", &r);
    os.machine_mut()
        .controller_mut()
        .set_mode(EccMode::CorrectAndScrub);
    t.record(&os, "switch to CorrectAndScrub", "Ok");
    for (vaddr, size) in [
        (page(0) + 0x400, 0x100),
        (page(1) + 0xfc0, 0x80),
        (page(2) + 0x200, 64),
        (page(3) + 0x100, 0xc0),
    ] {
        let r = show(&os.watch_memory(vaddr, size));
        t.record(&os, &format!("watch {vaddr:#x} +{size:#x}"), &r);
    }
    scrub_and_load(t, &mut os, "every line resident");

    // Walk other pages until page 0 is evicted; the page that faulted in
    // last took its frame.
    let frame0 = phys(&os, page(0));
    let mut n = 4;
    while os.vm().is_resident(page(0)) {
        let vaddr = page(n) + rng.gen_range(0..64u64) * 64;
        let r = show(&os.vwrite(vaddr, &[n as u8; 32]));
        t.record(&os, &format!("write {vaddr:#x}"), &r);
        n += 1;
    }
    let reuser = (0..n)
        .map(page)
        .find(|&v| os.vm().translate_resident(v) == Some(frame0))
        .expect("the evicted frame was reused");
    t.record(&os, &format!("page 0's frame now backs {reuser:#x}"), "Ok");
    // Hit the reused frame where page 0's armed lines were, then scrub.
    inject(t, &mut os, "data", reuser + 0x408, 9);
    inject(t, &mut os, "code", reuser + 0x480, 1);
    scrub_and_load(t, &mut os, "page 0 swapped out, its frame reused");
    let r = read(&mut os, reuser + 0x400, 16);
    t.record(&os, "load the reused frame's repaired lines", &r);

    // Evict the rest, scrub with lines swapped out, then injections into
    // armed lines once they are back.
    for k in n..n + 6 {
        let vaddr = page(k) + rng.gen_range(0..64u64) * 64;
        let r = read(&mut os, vaddr, 8);
        t.record(&os, &format!("load {vaddr:#x}"), &r);
    }
    os.run_scrub_cycle();
    t.record(
        &os,
        "explicit scrub cycle (watched pages swapped out)",
        "Ok",
    );
    let r = load_watched(&mut os);
    t.record(&os, "load every watched line (swap-ins)", &r);
    inject(t, &mut os, "data", page(1) + 0xfc8, 33);
    inject(t, &mut os, "data", page(3) + 0x1c0, 4);
    scrub_and_load(t, &mut os, "after injections");
    for i in 0..4u64 {
        os.compute(400_000);
        let r = show(&os.vwrite(page(2) + 0x800 + i * 64, &[i as u8; 8]));
        t.record(&os, "compute, write page 2 (scheduled scrubs)", &r);
    }
    let r = load_watched(&mut os);
    t.record(&os, "load every watched line", &r);
    for vaddr in os.watch_registry_region_starts() {
        let r = show(&os.disable_watch_memory(vaddr));
        t.record(&os, &format!("unwatch {vaddr:#x}"), &r);
    }
    scrub_and_load(t, &mut os, "nothing watched");
    let r = read(&mut os, page(0) + 0x400, 64);
    t.record(&os, "load restored data", &r);
}

/// Lines of 32 and 128 bytes in CorrectAndScrub: the re-encoding disarm.
fn scrub_other_line_sizes(t: &mut Transcript) {
    for line in [32u32, 128] {
        t.phase(&format!(
            "scrub coordination, pinned pages, {line}-byte lines"
        ));
        let mut os = Os::new(OsConfig {
            phys_bytes: 16 * PAGE_BYTES,
            caches: vec![
                CacheConfig {
                    line_size: line,
                    sets: 32,
                    ways: 4,
                },
                CacheConfig {
                    line_size: line,
                    sets: 64,
                    ways: 8,
                },
            ],
            ..OsConfig::default()
        });
        os.register_ecc_fault_handler();
        os.machine_mut()
            .controller_mut()
            .set_mode(EccMode::CorrectAndScrub);
        let mut rng = StdRng::seed_from_u64(u64::from(line) + 1);
        let ls = u64::from(line);
        let r = fill_pages(&mut os, &mut rng, 0, 3);
        t.record(&os, "fill pages 0..3", &r);
        let (a, b) = (HEAP_BASE + 3 * ls, HEAP_BASE + PAGE_BYTES - 2 * ls);
        let r = show(&os.watch_memory(a, ls));
        t.record(&os, &format!("watch {a:#x} +{ls}"), &r);
        let r = show(&os.watch_memory(b, 4 * ls));
        t.record(&os, &format!("watch {b:#x} +{}", 4 * ls), &r);
        scrub_and_load(t, &mut os, "every line armed");
        inject(t, &mut os, "data", a + 8, 21);
        inject(t, &mut os, "code", b + ls, 6);
        inject(t, &mut os, "data", a + ls, 2);
        scrub_and_load(t, &mut os, "after injections");
        let p = phys(&os, b);
        os.machine_mut()
            .controller_mut()
            .write(p, &vec![0x3c; ls as usize]);
        t.record(&os, "ECC-on controller write over an armed line", "Ok");
        scrub_and_load(t, &mut os, "after the controller write");
        for vaddr in [b, a] {
            let r = show(&os.disable_watch_memory(vaddr));
            t.record(&os, &format!("unwatch {vaddr:#x}"), &r);
        }
        let r = read(&mut os, b, 8);
        t.record(&os, "load restored data", &r);
    }
}

fn scrub_transcript() -> String {
    let mut t = Transcript::new();
    scrub_pinned_script(&mut t);
    scrub_swap_aware_script(&mut t);
    scrub_other_line_sizes(&mut t);
    t.out
}

fn current_transcript() -> String {
    let mut t = Transcript::new();
    pinned_script(&mut t);
    swap_aware_script(&mut t);
    other_line_sizes(&mut t);
    t.out
}

/// Compares `current` with the golden file at `path`, or rewrites the file
/// under `UPDATE_GOLDEN`.
fn check_golden(path: &str, current: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, current).expect("golden transcript is writable");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden transcript exists; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safemem-os --test golden_watch",
    );
    if golden != current {
        let first = golden
            .lines()
            .zip(current.lines())
            .position(|(g, c)| g != c)
            .unwrap_or_else(|| golden.lines().count().min(current.lines().count()));
        let context = |text: &str| {
            text.lines()
                .skip(first.saturating_sub(8))
                .take(12)
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "the transcript drifted from the golden {path} at line {}.\n\
             If the change is intentional, regenerate with\n\
             UPDATE_GOLDEN=1 cargo test -p safemem-os --test golden_watch\n\
             and commit the diff.\n\n--- golden ---\n{}\n--- current ---\n{}",
            first + 1,
            context(&golden),
            context(current)
        );
    }
}

#[test]
fn watch_transcript_matches_the_checked_in_golden() {
    check_golden(GOLDEN_PATH, &current_transcript());
}

#[test]
fn scrub_transcript_matches_the_checked_in_golden() {
    let current = scrub_transcript();
    for needle in [
        "[ S",
        "X",
        "Err(OutOfMemory)",
        "Completed(",
        "Faulted(",
        "→ swap",
        "← swap",
        "scrub cycle",
    ] {
        assert!(
            current.contains(needle),
            "transcript never shows {needle:?}"
        );
    }
    check_golden(SCRUB_GOLDEN_PATH, &current);
}

#[test]
fn the_transcript_exercises_every_path_it_names() {
    let text = current_transcript();
    for needle in [
        "Err(Ecc(UserEccFault",
        "signature_ok: false",
        "signature_ok: true",
        "Err(HardwareError",
        "Err(OutOfMemory)",
        "Err(AlreadyWatched",
        "Err(NotWatched",
        "Err(Misaligned",
        "klog [",
        "scrub cycle",
        "→ swap",
        "← swap",
    ] {
        assert!(text.contains(needle), "transcript never shows {needle:?}");
    }
}
