//! Integration coverage for the OS crate's support modules — `procfs`
//! rendering, `vm` paging/statistics, and the `watch` registry — driven
//! through the public `Os` API the way the detectors and the fleet
//! scheduler consume them.

use safemem_os::procfs;
use safemem_os::{
    ArmedLine, Os, OsConfig, OsFault, SwapPolicy, UserEccFault, WatchRegistry, HEAP_BASE,
    PAGE_BYTES,
};

fn os_with(phys_bytes: u64) -> Os {
    let mut os = Os::with_defaults(phys_bytes);
    os.register_ecc_fault_handler();
    os
}

#[test]
fn procfs_meminfo_tracks_paging() {
    let mut os = os_with(1 << 22);
    os.vwrite(HEAP_BASE, &[1u8; 3 * PAGE_BYTES as usize])
        .unwrap();
    let info = procfs::meminfo(&os);
    assert!(info.contains("MemTotal:"), "{info}");
    assert!(os.vm().stats().resident_pages >= 3);
    assert!(os.vm().stats().page_faults >= 3);
    // The rendered counters are the VM's counters.
    assert!(
        info.contains(&format!("{}", os.vm().stats().page_faults)),
        "{info}"
    );
}

#[test]
fn procfs_watchlist_is_sorted_by_address() {
    let mut os = os_with(1 << 22);
    // Insert out of address order; the listing must come back sorted.
    os.watch_memory(HEAP_BASE + 4096, 64).unwrap();
    os.watch_memory(HEAP_BASE, 128).unwrap();
    let list = procfs::watchlist(&os);
    assert!(list.contains("2 watched region(s), 3 line(s)"), "{list}");
    let low = list.find(&format!("{HEAP_BASE:#012x} +128")).unwrap();
    let high = list
        .find(&format!("{:#012x} +64", HEAP_BASE + 4096))
        .unwrap();
    assert!(low < high, "regions listed in address order:\n{list}");
}

#[test]
fn procfs_eccinfo_reflects_controller_and_kernel_counters() {
    let mut os = os_with(1 << 22);
    os.vwrite(HEAP_BASE, &[9u8; 64]).unwrap();
    let phys = os.vm().translate_resident(HEAP_BASE).unwrap();
    os.machine_mut().flush_range(phys, 64);
    os.machine_mut().controller_mut().inject_data_error(phys, 4);
    os.vread(HEAP_BASE, &mut [0u8; 64]).unwrap();

    os.watch_memory(HEAP_BASE + PAGE_BYTES, 64).unwrap();
    let _ = os.vread(HEAP_BASE + PAGE_BYTES, &mut [0u8; 1]);

    let info = procfs::eccinfo(&os);
    assert!(info.contains("Mode:              CorrectError"), "{info}");
    assert!(
        os.machine().controller().stats().corrected_single_bit >= 1,
        "{info}"
    );
    assert!(info.contains("WatchCalls:"), "{info}");
    assert_eq!(os.stats().watch_calls, 1);
    assert_eq!(os.stats().ecc_faults_delivered, 1);
    assert_eq!(os.stats().hardware_panics, 0);
}

#[test]
fn procfs_timeinfo_separates_cpu_from_wall() {
    let mut os = os_with(1 << 22);
    os.compute(50_000);
    os.io_wait_ns(2_000_000);
    let info = procfs::timeinfo(&os);
    assert!(info.contains("TotalCycles:"), "{info}");
    assert!(info.contains(&format!("{}", os.cpu_cycles())), "{info}");
    assert!(os.total_cycles() > os.cpu_cycles(), "I/O wait excluded");
    // The full snapshot stitches all four sections together.
    let snap = procfs::snapshot(&os);
    for section in [
        "--- meminfo ---",
        "--- watchpoints ---",
        "--- ecc ---",
        "--- time ---",
    ] {
        assert!(snap.contains(section), "{snap}");
    }
}

#[test]
fn vm_swaps_under_pressure_and_counts_it() {
    // Eight physical pages and a working set far larger: the VM must evict
    // to swap and fault pages back in, and the stats must say so.
    let mut os = Os::new(OsConfig {
        phys_bytes: 8 * PAGE_BYTES,
        swap_policy: SwapPolicy::SwapAware,
        ..OsConfig::default()
    });
    os.register_ecc_fault_handler();
    for i in 0..24u64 {
        os.vwrite(HEAP_BASE + i * PAGE_BYTES, &[i as u8; 64])
            .unwrap();
    }
    assert!(os.vm().stats().swap_outs > 0, "{:?}", os.vm().stats());
    assert!(!os.vm().is_resident(HEAP_BASE), "first page evicted");

    // Faulting the first page back preserves its contents and counts a
    // swap-in; the charged I/O wait stays out of CPU time.
    let cpu_before = os.cpu_cycles();
    let mut buf = [0u8; 64];
    os.vread(HEAP_BASE, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 64]);
    assert!(os.vm().stats().swap_ins > 0);
    assert!(os.vm().is_resident(HEAP_BASE));
    assert!(
        os.total_cycles() - os.cpu_cycles() > 0,
        "swap-in I/O excluded from CPU time (before: {cpu_before})"
    );
}

#[test]
fn vm_translate_resident_never_faults_pages_in() {
    let os = os_with(1 << 22);
    assert_eq!(os.vm().translate_resident(HEAP_BASE), None);
    assert!(!os.vm().is_resident(HEAP_BASE));
}

#[test]
fn watch_registry_bookkeeping() {
    let mut reg = WatchRegistry::new(64);
    let slot = reg.insert_region(HEAP_BASE, 128);
    let (original, records) = reg.push_segment(slot, 0x1000, 2);
    original[..64].fill(0xAA);
    original[64..].fill(0xBB);
    records[1].codes = [7; 8];

    assert_eq!(reg.region_count(), 1);
    assert_eq!(reg.line_count(), 2);
    assert_eq!(reg.region_at(HEAP_BASE), Some(128));
    assert_eq!(
        reg.region_containing(HEAP_BASE + 100),
        Some((HEAP_BASE, 128))
    );
    assert_eq!(reg.overlapping_region(HEAP_BASE + 64, 64), Some(HEAP_BASE));
    assert_eq!(reg.overlapping_region(HEAP_BASE + 128, 64), None);
    // Fault routing: the line at a virtual address, if it sits at the
    // faulting physical line.
    let (start, original) = reg.armed_line(HEAP_BASE + 64, 0x1040).unwrap();
    assert_eq!((start, original), (HEAP_BASE, &[0xBB; 64][..]));
    assert!(reg.armed_line(HEAP_BASE + 64, 0x1000).is_none());

    // Swap-aware retirement: evicting the page clears the physical
    // placement; the lines stay registered by virtual address.
    let vpn = HEAP_BASE / PAGE_BYTES;
    let mut in_page = Vec::new();
    reg.for_each_line_in_page(vpn, |vline, line, _| {
        in_page.push(vline);
        line.phys = None;
    });
    assert_eq!(in_page, [HEAP_BASE, HEAP_BASE + 64]);
    assert!(reg.armed_line(HEAP_BASE, 0x1000).is_none());
    assert_eq!(reg.lines().count(), 2);
    assert!(reg.lines().all(|(line, _)| line.phys.is_none()));

    let region = reg.remove_region(HEAP_BASE).unwrap();
    assert_eq!(region.size(), 128);
    assert_eq!(
        region.lines(),
        [
            ArmedLine {
                phys: None,
                codes: [0; 8]
            },
            ArmedLine {
                phys: None,
                codes: [7; 8]
            }
        ]
    );
    assert_eq!(reg.region_count(), 0);
    assert_eq!(reg.line_count(), 0);
}

#[test]
fn watch_faults_report_the_exact_access_address() {
    // The registry's line lookup feeds fault classification: the reported
    // access address must be the faulting byte's virtual address even deep
    // inside a multi-line region.
    let mut os = os_with(1 << 22);
    os.vwrite(HEAP_BASE, &[1u8; 256]).unwrap();
    os.watch_memory(HEAP_BASE, 256).unwrap();
    let fault = os.vread(HEAP_BASE + 200, &mut [0u8; 1]).unwrap_err();
    let OsFault::Ecc(UserEccFault {
        region_vaddr,
        line_vaddr,
        access_vaddr,
        ..
    }) = fault
    else {
        panic!("expected ECC fault, got {fault:?}")
    };
    assert_eq!(region_vaddr, HEAP_BASE);
    assert_eq!(line_vaddr, HEAP_BASE + 192, "line 3 of 4");
    assert_eq!(access_vaddr, HEAP_BASE + 192, "group holding byte 200");
}

/// An 8-frame swap-aware machine with `0x77` bytes under 64-byte watched
/// lines at `regions`, all in the page at `HEAP_BASE`, whose page has then
/// been forced out to swap.
fn swapped_out_watches(regions: &[u64]) -> Os {
    let mut os = Os::new(OsConfig {
        phys_bytes: 8 * PAGE_BYTES,
        swap_policy: SwapPolicy::SwapAware,
        ..OsConfig::default()
    });
    os.register_ecc_fault_handler();
    os.vwrite(HEAP_BASE, &[0x77; 256]).unwrap();
    for &vaddr in regions {
        os.watch_memory(vaddr, 64).unwrap();
    }
    for i in 0..16u64 {
        os.vwrite(HEAP_BASE + (i + 4) * PAGE_BYTES, &[i as u8; 32])
            .unwrap();
    }
    assert!(!os.vm().is_resident(HEAP_BASE), "watched page evicted");
    os
}

/// The watched line at `HEAP_BASE` still faults as an access, and its data
/// comes back intact once unwatched.
fn assert_still_armed(os: &mut Os) {
    let fault = os.vread(HEAP_BASE, &mut [0u8; 8]).unwrap_err();
    assert!(
        matches!(
            fault,
            OsFault::Ecc(UserEccFault {
                signature_ok: true,
                line_vaddr: HEAP_BASE,
                ..
            })
        ),
        "the neighbour's watch missed the access: {fault:?}"
    );
    os.disable_watch_memory(HEAP_BASE).unwrap();
    let mut buf = [0u8; 64];
    os.vread(HEAP_BASE, &mut buf).unwrap();
    assert_eq!(buf, [0x77; 64]);
}

#[test]
fn watch_memory_swap_in_keeps_neighbours_armed() {
    // Watching a second line of the evicted page swaps it in from inside
    // the syscall; the first line must be re-armed like any swap-in.
    let mut os = swapped_out_watches(&[HEAP_BASE]);
    let swap_ins = os.vm().stats().swap_ins;
    os.watch_memory(HEAP_BASE + 128, 64).unwrap();
    assert_eq!(os.vm().stats().swap_ins, swap_ins + 1, "the syscall paged");
    assert_still_armed(&mut os);
}

#[test]
fn disable_swap_in_keeps_neighbours_armed() {
    // Unwatching a swapped-out region faults its page in to restore it; the
    // page's other watched line must come back armed.
    let mut os = swapped_out_watches(&[HEAP_BASE, HEAP_BASE + 128]);
    os.disable_watch_memory(HEAP_BASE + 128).unwrap();
    assert!(os.vm().is_resident(HEAP_BASE), "the syscall paged");
    assert_still_armed(&mut os);
    let mut buf = [0u8; 64];
    os.vread(HEAP_BASE + 128, &mut buf).unwrap();
    assert_eq!(buf, [0x77; 64], "the unwatched region is restored");
}
