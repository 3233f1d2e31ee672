//! Conformance suite for the machine/OS boundary: the OS stack must behave
//! identically over a [`Machine`] it owns outright and over a
//! [`SlotBackend`] window onto a shared machine — same bytes, same fault
//! classifications, same counters, same charged CPU time. The one
//! deliberate divergence is the clock: a slot reports a per-process
//! virtual clock that skips time other processes spent on the shared
//! hardware, which the isolation tests pin.

use safemem_machine::{Machine, SlotBackend};
use safemem_os::{AccessKind, Os, OsConfig, OsFault, Prot, HEAP_BASE, PAGE_BYTES};

const PHYS: u64 = 1 << 22;

fn machine_backed() -> Os {
    let mut os = Os::with_defaults(PHYS);
    os.register_ecc_fault_handler();
    os
}

/// An `Os` over a slot with a fresh shared machine installed for the whole
/// run — observably a single-process machine, which is exactly the claim.
fn slot_backed() -> Os {
    let machine = Machine::with_defaults(PHYS);
    let mut slot = SlotBackend::vacant(machine.clock().hz());
    slot.install(machine);
    let mut os = Os::with_backend(
        Box::new(slot),
        OsConfig {
            phys_bytes: PHYS,
            ..OsConfig::default()
        },
    );
    os.register_ecc_fault_handler();
    os
}

/// Drives one OS instance through the shared script and records every
/// observable outcome as text. Conformance = identical transcripts.
fn transcript(os: &mut Os) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    // Plain paged read/write, crossing a page boundary.
    let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
    os.vwrite(HEAP_BASE + PAGE_BYTES - 100, &data).unwrap();
    let mut buf = vec![0u8; data.len()];
    os.vread(HEAP_BASE + PAGE_BYTES - 100, &mut buf).unwrap();
    let _ = writeln!(out, "roundtrip_ok={}", buf == data);

    // Watch → access fault → unwatch → restored data.
    os.vwrite(HEAP_BASE, &[0xAB; 128]).unwrap();
    os.watch_memory(HEAP_BASE, 128).unwrap();
    let fault = os.vread(HEAP_BASE + 70, &mut [0u8; 4]).unwrap_err();
    let _ = writeln!(out, "watch_fault={fault:?}");
    os.disable_watch_memory(HEAP_BASE).unwrap();
    let mut restored = [0u8; 128];
    os.vread(HEAP_BASE, &mut restored).unwrap();
    let _ = writeln!(out, "restored_ok={}", restored == [0xAB; 128]);

    // mprotect enforcement.
    let page = (HEAP_BASE + 4 * PAGE_BYTES) & !(PAGE_BYTES - 1);
    os.vwrite(page, &[7]).unwrap();
    os.mprotect(page, PAGE_BYTES, Prot::READ).unwrap();
    let denied = os.vwrite(page, &[8]).unwrap_err();
    let _ = writeln!(out, "mprotect_denied={denied:?}");
    os.mprotect(page, PAGE_BYTES, Prot::READ_WRITE).unwrap();

    // A corrected single-bit hardware error stays invisible.
    let phys = os.vm().translate_resident(page).unwrap();
    os.machine_mut().flush_range(phys, 64);
    os.machine_mut().controller_mut().inject_data_error(phys, 3);
    let mut b = [0u8; 1];
    os.vread(page, &mut b).unwrap();
    let _ = writeln!(out, "corrected_read={b:?}");

    // Scrub coordination under the scrubbing mode.
    os.machine_mut()
        .controller_mut()
        .set_mode(safemem_ecc::EccMode::CorrectAndScrub);
    os.run_scrub_cycle();

    // CPU accounting: compute charged, I/O wait excluded.
    os.compute(10_000);
    os.io_wait_ns(1_000_000);

    let _ = writeln!(out, "stats={:?}", os.stats());
    let _ = writeln!(out, "vm={:?}", os.vm().stats());
    let _ = writeln!(out, "ecc={:?}", os.machine().controller().stats());
    let _ = writeln!(out, "cpu_cycles={}", os.cpu_cycles());
    let _ = writeln!(out, "total_cycles={}", os.total_cycles());
    out.push_str(&safemem_os::procfs::snapshot(os));
    out
}

#[test]
fn both_backends_produce_identical_transcripts() {
    let mut owned = machine_backed();
    let mut shared = slot_backed();
    let a = transcript(&mut owned);
    let b = transcript(&mut shared);
    assert_eq!(a, b, "the slot backend must be observably a machine");
    assert!(a.contains("roundtrip_ok=true"), "{a}");
    assert!(a.contains("restored_ok=true"), "{a}");
    assert!(a.contains("signature_ok: true"), "{a}");
}

#[test]
fn slot_clock_skips_foreign_machine_time() {
    // Time another process spent on the shared machine before this
    // process's turn must not appear in this process's CPU accounting.
    let mut machine = Machine::with_defaults(PHYS);
    machine.compute(123_456);
    let mut slot = SlotBackend::vacant(machine.clock().hz());
    slot.install(machine);
    let mut os = Os::with_backend(
        Box::new(slot),
        OsConfig {
            phys_bytes: PHYS,
            ..OsConfig::default()
        },
    );
    assert_eq!(os.total_cycles(), 0, "foreign time skipped");
    os.compute(500);
    assert_eq!(os.cpu_cycles(), 500);

    // A scheduler turn for someone else: take the machine out through the
    // downcast hook, advance it, give it back. Still invisible here.
    let backend = os
        .machine_mut()
        .as_any_mut()
        .downcast_mut::<SlotBackend>()
        .expect("slot-backed OS");
    let mut machine = backend.take();
    machine.compute(999_999);
    let backend = os
        .machine_mut()
        .as_any_mut()
        .downcast_mut::<SlotBackend>()
        .expect("slot-backed OS");
    backend.install(machine);
    assert_eq!(os.cpu_cycles(), 500, "other turns never accrue");
    os.compute(250);
    assert_eq!(os.cpu_cycles(), 750);
}

#[test]
fn backends_downcast_to_their_substrate() {
    let owned = machine_backed();
    assert!(owned.machine().as_any().downcast_ref::<Machine>().is_some());
    assert!(owned
        .machine()
        .as_any()
        .downcast_ref::<SlotBackend>()
        .is_none());

    let shared = slot_backed();
    assert!(shared
        .machine()
        .as_any()
        .downcast_ref::<SlotBackend>()
        .is_some());
    assert!(shared
        .machine()
        .as_any()
        .downcast_ref::<Machine>()
        .is_none());
}

/// One scheduler turn with the fleet's discipline: install the shared
/// machine into the process's slot, run the ops, take the machine back and
/// flush the caches. The flush is the determinism barrier — every turn
/// starts from an empty cache, so a process's hit/miss behaviour cannot
/// depend on what its co-residents touched.
fn fleet_turn<R>(machine: &mut Option<Machine>, os: &mut Os, f: impl FnOnce(&mut Os) -> R) -> R {
    let backend = os
        .machine_mut()
        .as_any_mut()
        .downcast_mut::<SlotBackend>()
        .expect("slot-backed OS");
    backend.install(machine.take().expect("machine parked"));
    let result = f(os);
    let backend = os
        .machine_mut()
        .as_any_mut()
        .downcast_mut::<SlotBackend>()
        .expect("slot-backed OS");
    let mut m = backend.take();
    m.flush_all_caches();
    *machine = Some(m);
    result
}

/// Runs a fixed per-turn script for a "subject" process that shares its
/// machine with `neighbors` churning co-residents, and returns the
/// subject's observable transcript. The subject owns the *last* frame
/// window, so with neighbors present its physical base moves too — the
/// transcript must not care.
fn co_resident_transcript(neighbors: u64) -> String {
    use std::fmt::Write as _;
    const WINDOW: u64 = 32 * PAGE_BYTES;
    let shared = Machine::with_defaults(WINDOW * (neighbors + 1));
    let hz = shared.clock().hz();
    let mut machine = Some(shared);
    let boot = |phys_base: u64| {
        let mut os = Os::with_backend(
            Box::new(SlotBackend::vacant(hz)),
            OsConfig {
                phys_bytes: WINDOW,
                phys_base,
                ..OsConfig::default()
            },
        );
        os.register_ecc_fault_handler();
        os
    };
    let mut others: Vec<Os> = (0..neighbors).map(|i| boot(i * WINDOW)).collect();
    let mut subject = boot(neighbors * WINDOW);

    let mut out = String::new();
    for round in 0..6u64 {
        // Co-residents churn their own windows between the subject's turns.
        for (i, os) in others.iter_mut().enumerate() {
            fleet_turn(&mut machine, os, |os| {
                let addr = HEAP_BASE + ((round + i as u64) % 4) * PAGE_BYTES;
                os.vwrite(addr, &[round as u8; 256]).unwrap();
                let mut buf = [0u8; 256];
                os.vread(addr, &mut buf).unwrap();
                os.compute(1_000);
            });
        }
        // The subject's deterministic script, observables recorded.
        fleet_turn(&mut machine, &mut subject, |os| {
            let addr = HEAP_BASE + (round % 3) * PAGE_BYTES;
            os.vwrite(addr, &[0xC5; 192]).unwrap();
            let mut buf = [0u8; 192];
            os.vread(addr, &mut buf).unwrap();
            let _ = writeln!(out, "r{round} roundtrip_ok={}", buf == [0xC5; 192]);
            if round == 2 {
                os.watch_memory(addr, 64).unwrap();
                let fault = os.vread(addr, &mut [0u8; 4]).unwrap_err();
                let _ = writeln!(out, "r{round} watch_fault={fault:?}");
                os.disable_watch_memory(addr).unwrap();
            }
            os.compute(500);
            let _ = writeln!(
                out,
                "r{round} cpu={} vm={:?}",
                os.cpu_cycles(),
                os.vm().stats()
            );
        });
    }
    fleet_turn(&mut machine, &mut subject, |os| {
        let _ = writeln!(out, "final stats={:?}", os.stats());
        let _ = writeln!(out, "final cpu_cycles={}", os.cpu_cycles());
    });
    out
}

#[test]
fn transcript_is_byte_identical_whatever_the_shard_holds() {
    // The shard-composition contract at the backend level: a process's
    // whole observable behaviour — data, faults, counters, charged cycles —
    // is the same whether its shard's machine holds it alone or packs it
    // behind three churning co-residents (at a different physical base, on
    // a machine three windows larger).
    let alone = co_resident_transcript(0);
    let crowded = co_resident_transcript(3);
    assert!(alone.contains("roundtrip_ok=true"), "{alone}");
    assert!(alone.contains("watch_fault="), "{alone}");
    assert_eq!(
        alone, crowded,
        "co-residents leaked into the process's transcript"
    );
}

#[test]
fn watchpoints_fire_identically_through_a_shared_window() {
    // The fleet-critical path: an armed line behind the slot backend
    // faults with a valid signature, and a genuine multi-bit error on the
    // same line fails the signature — hardware attribution survives the
    // backend boundary.
    let mut os = slot_backed();
    os.vwrite(HEAP_BASE, &[5; 64]).unwrap();
    os.watch_memory(HEAP_BASE, 64).unwrap();
    let phys = os.vm().translate_resident(HEAP_BASE).unwrap();
    os.machine_mut()
        .controller_mut()
        .inject_multi_bit_error(phys);
    let fault = os.vread(HEAP_BASE, &mut [0u8; 8]).unwrap_err();
    let OsFault::Ecc(user) = fault else {
        panic!("expected a routed fault, got {fault:?}")
    };
    assert!(!user.signature_ok, "classified as hardware error");
    assert_eq!(user.access, AccessKind::Read);
}

/// An `Os` over a slot holding its own machine, built from `config` the
/// way [`Os::new`] builds an owned one.
fn slot_backed_with(config: OsConfig) -> Os {
    let machine = Machine::new(
        config.phys_bytes,
        config.caches.clone(),
        config.cost.clone(),
    );
    let mut slot = SlotBackend::vacant(machine.clock().hz());
    slot.install(machine);
    Os::with_backend(Box::new(slot), config)
}

/// Scans a heap region word by word — batched through `read_words` or as
/// a `read_u64` loop — on a stack with scrubs landing mid-line, a watched
/// region, prefetching and swap-aware paging, then runs a fixed follow-up
/// script. Returns the values read and every observable, as text.
fn word_scan_transcript(mut os: Os, batched: bool) -> String {
    use std::fmt::Write as _;
    os.register_ecc_fault_handler();
    os.machine_mut()
        .controller_mut()
        .set_mode(safemem_ecc::EccMode::CorrectAndScrub);
    os.machine_mut().set_prefetch(true);
    let contents: Vec<u8> = (0..5 * PAGE_BYTES)
        .map(|i| if i % 24 == 0 { (i / 24) as u8 } else { 0 })
        .collect();
    os.vwrite(HEAP_BASE, &contents).unwrap();
    os.watch_memory(HEAP_BASE + 3 * 64, 2 * 64).unwrap();

    let start = HEAP_BASE + 40;
    let words = 2_000usize;
    let values: Vec<Option<u64>> = if batched {
        let mut out = vec![None; words];
        os.read_words(start, &mut out);
        out
    } else {
        (0..words as u64)
            .map(|i| os.read_u64(start + 8 * i).ok())
            .collect()
    };
    let mut out = String::new();
    let faulted = values.iter().filter(|v| v.is_none()).count();
    // FNV-1a over the words in order, a faulted word hashing as all ones.
    let digest = values.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
        (h ^ v.unwrap_or(u64::MAX)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let _ = writeln!(out, "faulted={faulted} values={digest:#x}");
    for round in 0..3u64 {
        for line in (0..5 * PAGE_BYTES / 64).step_by(7) {
            let _ = os.read_u64(HEAP_BASE + line * 64 + round * 8);
        }
    }
    let _ = writeln!(out, "stats={:?}", os.stats());
    let _ = writeln!(out, "vm={:?}", os.vm().stats());
    let _ = writeln!(out, "levels={:?}", os.machine().hierarchy().level_stats());
    let _ = writeln!(out, "ecc={:?}", os.machine().controller().stats());
    let _ = writeln!(out, "cpu_cycles={}", os.cpu_cycles());
    let _ = writeln!(out, "total_cycles={}", os.total_cycles());
    let _ = writeln!(out, "klog_len={}", os.kernel_log().len());
    out
}

#[test]
fn read_words_through_a_slot_matches_a_read_u64_loop() {
    // The bulk L1-hit step forwards through the slot with the same charges
    // and the same per-process clock as everything else.
    let config = || OsConfig {
        phys_bytes: 4 * PAGE_BYTES,
        swap_policy: safemem_os::SwapPolicy::SwapAware,
        scrub_interval_cycles: Some(700),
        ..OsConfig::default()
    };
    let slot_batched = word_scan_transcript(slot_backed_with(config()), true);
    let slot_oracle = word_scan_transcript(slot_backed_with(config()), false);
    let owned_oracle = word_scan_transcript(Os::new(config()), false);
    assert!(slot_batched.contains("faulted=16 "), "{slot_batched}");
    assert_eq!(slot_batched, slot_oracle);
    assert_eq!(slot_batched, owned_oracle);
}
