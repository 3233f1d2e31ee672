//! Property tests for the OS layer: watch/unwatch/access sequences against
//! a reference model, paging transparency, and protection enforcement.

use proptest::prelude::*;
use safemem_ecc::EccMode;
use safemem_os::{Os, OsConfig, OsFault, Prot, SwapPolicy, HEAP_BASE, PAGE_BYTES};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Write { slot: u64, fill: u8 },
    Read { slot: u64 },
    Watch { slot: u64 },
    Unwatch { slot: u64 },
}

const SLOTS: u64 = 48;

fn slot_addr(slot: u64) -> u64 {
    HEAP_BASE + slot * 64
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0..SLOTS), any::<u8>()).prop_map(|(slot, fill)| Op::Write { slot, fill }),
        (0..SLOTS).prop_map(|slot| Op::Read { slot }),
        (0..SLOTS).prop_map(|slot| Op::Watch { slot }),
        (0..SLOTS).prop_map(|slot| Op::Unwatch { slot }),
    ]
}

/// Runs a random op sequence under a given OS configuration, maintaining a
/// reference model: contents per slot and the watched set. Invariants:
/// an access to a watched slot faults with the right region and a valid
/// signature; after handling it (unwatch), the retried access sees exactly
/// the reference contents; unwatched slots never fault.
fn check(os: &mut Os, ops: &[Op]) {
    os.register_ecc_fault_handler();
    let mut contents: HashMap<u64, u8> = HashMap::new();
    let mut watched: HashSet<u64> = HashSet::new();

    for op in ops {
        match *op {
            Op::Write { slot, fill } => {
                let addr = slot_addr(slot);
                match os.vwrite(addr, &[fill; 64]) {
                    Ok(()) => {
                        assert!(!watched.contains(&slot), "watched write must fault first");
                        contents.insert(slot, fill);
                    }
                    Err(OsFault::Ecc(user)) => {
                        assert!(watched.contains(&slot));
                        assert!(user.signature_ok);
                        assert_eq!(user.region_vaddr, addr);
                        os.disable_watch_memory(addr).expect("watched");
                        watched.remove(&slot);
                        os.vwrite(addr, &[fill; 64]).expect("retry clean");
                        contents.insert(slot, fill);
                    }
                    Err(other) => panic!("unexpected fault: {other:?}"),
                }
            }
            Op::Read { slot } => {
                let addr = slot_addr(slot);
                let mut buf = [0u8; 64];
                match os.vread(addr, &mut buf) {
                    Ok(()) => {
                        assert!(!watched.contains(&slot), "watched read must fault first");
                        let expected = contents.get(&slot).copied().unwrap_or(0);
                        assert_eq!(buf, [expected; 64], "slot {slot}");
                    }
                    Err(OsFault::Ecc(user)) => {
                        assert!(watched.contains(&slot));
                        assert!(user.signature_ok);
                        os.disable_watch_memory(addr).expect("watched");
                        watched.remove(&slot);
                        os.vread(addr, &mut buf).expect("retry clean");
                        let expected = contents.get(&slot).copied().unwrap_or(0);
                        assert_eq!(buf, [expected; 64], "slot {slot} after unwatch");
                    }
                    Err(other) => panic!("unexpected fault: {other:?}"),
                }
            }
            Op::Watch { slot } => {
                let addr = slot_addr(slot);
                if watched.contains(&slot) {
                    assert!(os.watch_memory(addr, 64).is_err(), "double watch rejected");
                } else if os.watch_memory(addr, 64).is_ok() {
                    watched.insert(slot);
                }
            }
            Op::Unwatch { slot } => {
                let addr = slot_addr(slot);
                if watched.remove(&slot) {
                    os.disable_watch_memory(addr).expect("was watched");
                } else {
                    assert!(os.disable_watch_memory(addr).is_err());
                }
            }
        }
    }

    // Teardown: unwatch everything, verify all contents.
    for slot in watched {
        os.disable_watch_memory(slot_addr(slot)).expect("watched");
    }
    for (slot, fill) in contents {
        let mut buf = [0u8; 64];
        os.vread(slot_addr(slot), &mut buf)
            .expect("clean after teardown");
        assert_eq!(buf, [fill; 64]);
    }
    assert_eq!(os.watched_region_count(), 0);
    assert_eq!(
        os.stats().hardware_panics,
        0,
        "no kernel panics in a clean run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The watchpoint state machine is correct under arbitrary interleaving
    /// of watches, unwatches, reads and writes (pinning policy).
    #[test]
    fn prop_watch_state_machine(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut os = Os::with_defaults(1 << 22);
        check(&mut os, &ops);
    }

    /// Same invariants with the swap-aware policy under real paging
    /// pressure (physical memory smaller than the working set).
    #[test]
    fn prop_watch_state_machine_swap_aware(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut os = Os::new(OsConfig {
            // The slots live on one page; add pressure from elsewhere.
            phys_bytes: 8 * PAGE_BYTES,
            swap_policy: SwapPolicy::SwapAware,
            ..OsConfig::default()
        });
        os.register_ecc_fault_handler();
        // Interleave background traffic to force evictions.
        for i in 0..16u64 {
            os.vwrite(HEAP_BASE + (i + 8) * PAGE_BYTES, &[i as u8; 32]).unwrap();
        }
        check(&mut os, &ops);
    }

    /// mprotect is enforced exactly: reads/writes conform to the protection
    /// of the page they land on, for arbitrary protection layouts.
    #[test]
    fn prop_mprotect_enforced(
        prots in proptest::collection::vec(0u8..3, 8),
        accesses in proptest::collection::vec(((0u64..8), any::<bool>()), 1..40),
    ) {
        let mut os = Os::with_defaults(1 << 22);
        let to_prot = |p: u8| match p {
            0 => Prot::NONE,
            1 => Prot::READ,
            _ => Prot::READ_WRITE,
        };
        for (i, &p) in prots.iter().enumerate() {
            os.mprotect(HEAP_BASE + i as u64 * PAGE_BYTES, PAGE_BYTES, to_prot(p)).unwrap();
        }
        for (page, is_write) in accesses {
            let addr = HEAP_BASE + page * PAGE_BYTES + 128;
            let prot = to_prot(prots[page as usize]);
            let result = if is_write {
                os.vwrite(addr, &[1])
            } else {
                os.vread(addr, &mut [0u8; 1])
            };
            let allowed = if is_write { prot.write } else { prot.read };
            prop_assert_eq!(result.is_ok(), allowed, "page {} write={}", page, is_write);
        }
    }
}

/// How the two `Os` instances of a [`Os::read_words`] check are built.
#[derive(Debug, Clone, Copy)]
struct ScanStack {
    mode: EccMode,
    scrub_interval: Option<u64>,
    prefetch: bool,
    swap_aware: bool,
}

/// Bytes of heap the scans range over: five pages, more than the
/// swap-aware stack's physical memory holds.
const SCAN_REGION: u64 = 5 * PAGE_BYTES;

fn scan_os(
    stack: ScanStack,
    contents: &[u8],
    watched: Option<(u64, u64)>,
    guard_page: Option<u64>,
) -> Os {
    let mut os = Os::new(OsConfig {
        phys_bytes: if stack.swap_aware {
            4 * PAGE_BYTES
        } else {
            1 << 22
        },
        swap_policy: if stack.swap_aware {
            SwapPolicy::SwapAware
        } else {
            SwapPolicy::PinWatchedPages
        },
        scrub_interval_cycles: stack.scrub_interval,
        ..OsConfig::default()
    });
    os.register_ecc_fault_handler();
    os.machine_mut().controller_mut().set_mode(stack.mode);
    os.machine_mut().set_prefetch(stack.prefetch);
    os.vwrite(HEAP_BASE, contents).unwrap();
    if let Some((line, lines)) = watched {
        os.watch_memory(HEAP_BASE + line * 64, lines * 64).unwrap();
    }
    if let Some(page) = guard_page {
        // Its lines may still be cached: every read of it must fault anyway.
        os.mprotect(HEAP_BASE + page * PAGE_BYTES, PAGE_BYTES, Prot::NONE)
            .unwrap();
    }
    os
}

/// Every observable of an `Os`, as text: equal observations mean equal
/// simulated state as far as any caller can tell.
fn observe(os: &mut Os) -> String {
    format!(
        "cpu={} total={}\nos={:?}\nvm={:?}\nlevels={:?}\necc={:?}\nfaults={}\nklog={}",
        os.cpu_cycles(),
        os.total_cycles(),
        os.stats(),
        os.vm().stats(),
        os.machine().hierarchy().level_stats(),
        os.machine().controller().stats(),
        os.machine_mut().take_faults().len(),
        os.kernel_log().render(),
    )
}

/// A fixed access script run after the scan. It evicts cache lines and
/// (on the swap-aware stack) pages, so a scan that left lines or pages in
/// a different LRU order shows up here as different statistics or clocks.
fn follow_up(os: &mut Os) {
    for round in 0..3u64 {
        for line in (0..SCAN_REGION / 64).step_by(5) {
            let _ = os.read_u64(HEAP_BASE + line * 64 + round * 8);
        }
        let _ = os.vwrite(
            HEAP_BASE + SCAN_REGION + round * PAGE_BYTES,
            &[round as u8; 96],
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_words` is exactly a `read_u64` loop: same values and the same
    /// clocks, statistics, cache, VM and kernel-log state, on stacks with
    /// scrubs landing mid-line, a watched region whose words fault, a
    /// protected page, prefetching, and swap-aware paging under memory
    /// pressure, in every ECC mode. Half the scans span three pages or
    /// more, so page runs start and end around the protected page, the
    /// watched lines and the evictions that make room for the next page.
    #[test]
    fn prop_read_words_matches_a_read_u64_loop(
        seed in any::<u64>(),
        start in 0u64..SCAN_REGION,
        aligned in any::<bool>(),
        words in prop_oneof![0usize..700, 1536usize..2600],
        mode in prop_oneof![
            Just(EccMode::CorrectAndScrub),
            Just(EccMode::CorrectError),
            Just(EccMode::CheckOnly),
            Just(EccMode::Disabled),
        ],
        scrub in prop_oneof![Just(None), (150u64..3_000).prop_map(Some)],
        prefetch in any::<bool>(),
        swap_aware in any::<bool>(),
        watched in prop_oneof![
            Just(None),
            ((0u64..SCAN_REGION / 64 - 4), (1u64..4)).prop_map(Some),
        ],
        guard_page in prop_oneof![Just(None), (0u64..SCAN_REGION / PAGE_BYTES).prop_map(Some)],
    ) {
        let mut state = seed | 1;
        let contents: Vec<u8> = (0..SCAN_REGION)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Mostly zero bytes; one in five random.
                if state % 5 == 0 { (state >> 32) as u8 } else { 0 }
            })
            .collect();
        let stack = ScanStack { mode, scrub_interval: scrub, prefetch, swap_aware };
        let start = HEAP_BASE + if aligned { start & !7 } else { start };
        let mut batched = scan_os(stack, &contents, watched, guard_page);
        let mut oracle = scan_os(stack, &contents, watched, guard_page);
        prop_assert_eq!(observe(&mut batched), observe(&mut oracle), "identical set-up");

        let mut got = vec![None; words];
        batched.read_words(start, &mut got);
        let want: Vec<Option<u64>> = (0..words as u64)
            .map(|i| oracle.read_u64(start + 8 * i).ok())
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(observe(&mut batched), observe(&mut oracle), "after the scan");

        follow_up(&mut batched);
        follow_up(&mut oracle);
        prop_assert_eq!(observe(&mut batched), observe(&mut oracle), "after the follow-up");
    }
}

/// A fixed case of the property above, checked on every run: scrubs due
/// every 700 cycles, prefetching, swap-aware paging in four pages, and a
/// two-line watched region whose 16 words fault.
#[test]
fn read_words_matches_a_read_u64_loop_on_a_fixed_stack() {
    let stack = ScanStack {
        mode: EccMode::CorrectAndScrub,
        scrub_interval: Some(700),
        prefetch: true,
        swap_aware: true,
    };
    let contents: Vec<u8> = (0..SCAN_REGION)
        .map(|i| if i % 24 == 0 { (i / 24) as u8 } else { 0 })
        .collect();
    let mut batched = scan_os(stack, &contents, Some((3, 2)), None);
    let mut oracle = scan_os(stack, &contents, Some((3, 2)), None);
    let start = HEAP_BASE + 40;
    let mut got = vec![None; 2_000];
    batched.read_words(start, &mut got);
    let want: Vec<Option<u64>> = (0..2_000u64)
        .map(|i| oracle.read_u64(start + 8 * i).ok())
        .collect();
    assert_eq!(got.iter().filter(|w| w.is_none()).count(), 16);
    assert_eq!(got, want);
    follow_up(&mut batched);
    follow_up(&mut oracle);
    assert_eq!(observe(&mut batched), observe(&mut oracle));
}

/// A fixed three-page scan in a mode that never scrubs: the scheduled
/// interval is inert, every page after the first starts with the ordinary
/// path, and the runs cross a protected page and a watched region whose
/// words fault on every read.
#[test]
fn read_words_matches_a_read_u64_loop_across_pages_without_scrubs() {
    let stack = ScanStack {
        mode: EccMode::CorrectError,
        scrub_interval: Some(700),
        prefetch: false,
        swap_aware: true,
    };
    let contents: Vec<u8> = (0..SCAN_REGION)
        .map(|i| if i % 40 == 0 { (i / 40) as u8 } else { 0 })
        .collect();
    let mut batched = scan_os(stack, &contents, Some((70, 3)), Some(2));
    let mut oracle = scan_os(stack, &contents, Some((70, 3)), Some(2));
    let start = HEAP_BASE + 16;
    let mut got = vec![None; 2_200];
    batched.read_words(start, &mut got);
    let want: Vec<Option<u64>> = (0..2_200u64)
        .map(|i| oracle.read_u64(start + 8 * i).ok())
        .collect();
    assert_eq!(got.iter().filter(|w| w.is_none()).count(), 24 + 512);
    assert_eq!(got, want);
    assert_eq!(observe(&mut batched), observe(&mut oracle));
    assert_eq!(batched.stats().scrub_cycles, 0);
    follow_up(&mut batched);
    follow_up(&mut oracle);
    assert_eq!(observe(&mut batched), observe(&mut oracle));
}
