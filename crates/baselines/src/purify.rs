//! A Purify-class dynamic checker (the paper's comparison tool, §5).
//!
//! Purify maintains two state bits for every byte of memory — allocated or
//! freed, initialised or uninitialised — checks *every* memory access
//! against them, and finds leaks by periodically mark-and-sweeping the heap
//! with conservative pointer tracking. The model reproduces all three
//! mechanisms and their costs:
//!
//! * per-access checking on explicit buffer operations **and** on the rest
//!   of the instruction stream (via [`MemTool::compute`]) — the source of
//!   the 5–50× slowdowns in Table 3;
//! * byte-granular shadow state giving the same detection coverage
//!   (overflow, use-after-free, uninitialised reads, wild frees);
//! * mark-and-sweep leak scans that pause the program for time proportional
//!   to the bytes scanned.

use crate::mark::conservative_mark;
use safemem_alloc::{Heap, LayoutPolicy};
use safemem_core::{BugReport, CallStack, GroupKey, LeakKind, MemTool};
use safemem_os::{AccessKind, Os};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

/// Cost calibration for the Purify model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PurifyConfig {
    /// Cycles of checking added to every memory-access instruction.
    pub check_cycles_per_access: u64,
    /// Cycles per 8-byte word examined during a mark-and-sweep scan.
    pub scan_cycles_per_word: u64,
    /// CPU cycles between leak scans (`None` = scan only at exit).
    pub scan_period: Option<u64>,
}

impl Default for PurifyConfig {
    fn default() -> Self {
        PurifyConfig {
            check_cycles_per_access: 60,
            scan_cycles_per_word: 6,
            scan_period: Some(120_000_000), // 50 ms of CPU time
        }
    }
}

#[derive(Debug)]
struct ShadowInfo {
    group: GroupKey,
    /// One bit per 8-byte word: written at least once.
    init: Vec<u64>,
}

/// The Purify-like tool.
#[derive(Debug)]
pub struct Purify {
    config: PurifyConfig,
    heap: Heap,
    shadow: HashMap<u64, ShadowInfo>,
    /// Freed-but-not-reused placements: payload addr → (size, base), in
    /// address order. Their payloads are disjoint: the heap reuses a base
    /// only for a placement of the same footprint and payload offset, and
    /// the reuse drops the record. So the one payload that can contain an
    /// address is the last one starting at or below it.
    freed: BTreeMap<u64, (u64, u64)>,
    freed_by_base: HashMap<u64, u64>,
    /// Root ranges (in simulated memory) holding potential heap pointers.
    roots: Vec<Range<u64>>,
    reports: Vec<BugReport>,
    reported_groups: HashSet<GroupKey>,
    last_scan: u64,
    scans: u64,
}

impl Purify {
    /// Creates the tool with default calibration.
    #[must_use]
    pub fn new() -> Self {
        Purify::with_config(PurifyConfig::default())
    }

    /// Creates the tool with explicit calibration.
    #[must_use]
    pub fn with_config(config: PurifyConfig) -> Self {
        Purify {
            config,
            heap: Heap::new(LayoutPolicy::Natural),
            shadow: HashMap::new(),
            freed: BTreeMap::new(),
            freed_by_base: HashMap::new(),
            roots: Vec::new(),
            reports: Vec::new(),
            reported_groups: HashSet::new(),
            last_scan: 0,
            scans: 0,
        }
    }

    /// Registers a root location (a word in simulated memory that may hold
    /// a heap pointer) for conservative leak scanning.
    pub fn add_root(&mut self, addr: u64) {
        self.add_root_range(addr, 8);
    }

    /// Registers every word in `[addr, addr + len)` as a root — e.g. a
    /// program's whole static/global segment.
    pub fn add_root_range(&mut self, addr: u64, len: u64) {
        self.roots.push(addr..addr.saturating_add(len));
    }

    /// Number of mark-and-sweep scans performed.
    #[must_use]
    pub fn scan_count(&self) -> u64 {
        self.scans
    }

    fn charge_access(&self, os: &mut Os, bytes: usize) {
        let words = (bytes as u64).div_ceil(8).max(1);
        os.compute(words * self.config.check_cycles_per_access);
    }

    /// Checks one access against the shadow state, recording bugs.
    fn check_access(&mut self, os: &mut Os, addr: u64, len: usize, kind: AccessKind) {
        self.charge_access(os, len);
        let end = addr + len as u64;
        // Within a live allocation?
        if let Some(a) = self.heap.allocation_containing(addr) {
            let a = *a;
            if end > a.addr + a.payload {
                self.reports.push(BugReport::Overflow {
                    buffer_addr: a.addr,
                    buffer_size: a.payload,
                    access_vaddr: a.addr + a.payload,
                    access: kind,
                    side: safemem_core::OverflowSide::After,
                });
            }
            if kind == AccessKind::Read {
                self.check_init(a.addr, addr, len);
            } else {
                self.mark_init(a.addr, addr, len);
            }
            return;
        }
        // Within a freed-but-not-reused placement?
        let hit_freed = self
            .freed
            .range(..=addr)
            .next_back()
            .filter(|(&fa, &(size, _))| addr < fa + size);
        if let Some((&fa, &(size, _))) = hit_freed {
            self.reports.push(BugReport::UseAfterFree {
                buffer_addr: fa,
                buffer_size: size,
                access_vaddr: addr,
                access: kind,
            });
            return;
        }
        // A byte just past a live allocation (classic off-by-one)?
        if let Some(a) = self.heap.allocation_containing(addr.wrapping_sub(1)) {
            self.reports.push(BugReport::Overflow {
                buffer_addr: a.addr,
                buffer_size: a.payload,
                access_vaddr: addr,
                access: kind,
                side: safemem_core::OverflowSide::After,
            });
        }
        // Otherwise: an access to memory Purify has no record of (stack,
        // globals) — unchecked, like real Purify's uninstrumented regions.
    }

    fn mark_init(&mut self, alloc_addr: u64, addr: u64, len: usize) {
        if let Some(info) = self.shadow.get_mut(&alloc_addr) {
            let start = (addr - alloc_addr) / 8;
            let end = (addr - alloc_addr + len as u64).div_ceil(8);
            for w in start..end {
                let (idx, bit) = ((w / 64) as usize, w % 64);
                if idx < info.init.len() {
                    info.init[idx] |= 1 << bit;
                }
            }
        }
    }

    fn check_init(&mut self, alloc_addr: u64, addr: u64, len: usize) {
        let uninit = self.shadow.get(&alloc_addr).is_some_and(|info| {
            let start = (addr - alloc_addr) / 8;
            let end = (addr - alloc_addr + len as u64).div_ceil(8);
            (start..end).any(|w| {
                let (idx, bit) = ((w / 64) as usize, w % 64);
                idx < info.init.len() && info.init[idx] & (1 << bit) == 0
            })
        });
        if uninit {
            self.reports.push(BugReport::UninitRead {
                buffer_addr: alloc_addr,
                access_vaddr: addr,
            });
        }
    }

    /// Mark-and-sweep leak detection with conservative pointer tracking
    /// (paper §5). Pauses the program: the scan cost is charged as CPU time.
    pub fn leak_scan(&mut self, os: &mut Os) {
        self.scans += 1;
        self.last_scan = os.cpu_cycles();
        let mark = conservative_mark(os, &self.heap, &self.roots);
        // Sweep: live but unreachable allocations are leaks.
        let leaked: Vec<(u64, u64, GroupKey)> = self
            .heap
            .live_allocations()
            .filter(|a| !mark.marked.contains(&a.addr))
            .map(|a| {
                let group = self.shadow.get(&a.addr).map_or(
                    GroupKey {
                        size: a.payload,
                        signature: 0,
                    },
                    |s| s.group,
                );
                (a.addr, a.payload, group)
            })
            .collect();
        // The sweep visits every live allocation once.
        let words_scanned = mark.words + self.heap.live_count() as u64;
        let now = os.cpu_cycles();
        for (addr, size, group) in leaked {
            if self.reported_groups.insert(group) {
                self.reports.push(BugReport::Leak {
                    addr,
                    size,
                    group,
                    kind: LeakKind::SLeak,
                    at_cpu_cycles: now,
                });
            }
        }
        os.compute(words_scanned * self.config.scan_cycles_per_word);
    }

    fn maybe_scan(&mut self, os: &mut Os) {
        if let Some(period) = self.config.scan_period {
            if os.cpu_cycles().saturating_sub(self.last_scan) >= period {
                self.leak_scan(os);
            }
        }
    }
}

impl Default for Purify {
    fn default() -> Self {
        Purify::new()
    }
}

impl MemTool for Purify {
    fn name(&self) -> &'static str {
        "purify"
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn malloc(&mut self, os: &mut Os, size: u64, stack: &CallStack) -> u64 {
        let allocation = self.heap.alloc(os, size).expect("heap exhausted");
        if let Some(region) = self.freed_by_base.remove(&allocation.base) {
            self.freed.remove(&region);
        }
        let words = allocation.payload.div_ceil(8).div_ceil(64) as usize;
        self.shadow.insert(
            allocation.addr,
            ShadowInfo {
                group: GroupKey::new(size, stack),
                init: vec![0; words.max(1)],
            },
        );
        // Shadow-state updates for the whole buffer.
        self.charge_access(os, allocation.payload as usize);
        self.maybe_scan(os);
        allocation.addr
    }

    fn free(&mut self, os: &mut Os, addr: u64) {
        match self.heap.free(os, addr) {
            Ok(record) => {
                self.shadow.remove(&addr);
                self.freed.insert(addr, (record.payload, record.base));
                self.freed_by_base.insert(record.base, addr);
                self.charge_access(os, record.payload as usize);
            }
            Err(_) => self.reports.push(BugReport::WildFree { addr }),
        }
        self.maybe_scan(os);
    }

    fn realloc(&mut self, os: &mut Os, addr: u64, new_size: u64, stack: &CallStack) -> u64 {
        let Some(old) = self.heap.allocation_at(addr).copied() else {
            self.reports.push(BugReport::WildFree { addr });
            return self.malloc(os, new_size, stack);
        };
        let new_addr = self.malloc(os, new_size, stack);
        let keep = old.payload.min(new_size.max(1)) as usize;
        let mut data = vec![0u8; keep];
        self.read(os, old.addr, &mut data);
        self.write(os, new_addr, &data);
        self.free(os, addr);
        new_addr
    }

    fn read(&mut self, os: &mut Os, addr: u64, buf: &mut [u8]) {
        self.check_access(os, addr, buf.len(), AccessKind::Read);
        os.vread(addr, buf)
            .expect("purify runs without ECC watchpoints");
    }

    fn write(&mut self, os: &mut Os, addr: u64, data: &[u8]) {
        self.check_access(os, addr, data.len(), AccessKind::Write);
        os.vwrite(addr, data)
            .expect("purify runs without ECC watchpoints");
    }

    fn compute(&mut self, os: &mut Os, cycles: u64, mem_accesses: u64) {
        // Every memory-access instruction in the program is instrumented.
        os.compute(cycles + mem_accesses * self.config.check_cycles_per_access);
    }

    fn finish(&mut self, os: &mut Os) {
        self.leak_scan(os);
    }

    fn reports(&self) -> Vec<BugReport> {
        self.reports.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_os::HEAP_BASE;

    fn setup() -> (Os, Purify, CallStack) {
        (
            Os::with_defaults(1 << 23),
            Purify::new(),
            CallStack::new(&[0x400_000]),
        )
    }

    #[test]
    fn detects_overflow() {
        let (mut os, mut tool, stack) = setup();
        let a = tool.malloc(&mut os, 20, &stack);
        tool.write(&mut os, a, &[1u8; 24]); // 4 bytes past the end
        assert!(tool
            .reports()
            .iter()
            .any(|r| matches!(r, BugReport::Overflow { .. })));
    }

    #[test]
    fn detects_use_after_free() {
        let (mut os, mut tool, stack) = setup();
        let a = tool.malloc(&mut os, 32, &stack);
        tool.write(&mut os, a, &[1u8; 32]);
        tool.free(&mut os, a);
        let mut buf = [0u8; 8];
        tool.read(&mut os, a, &mut buf);
        assert!(tool
            .reports()
            .iter()
            .any(|r| matches!(r, BugReport::UseAfterFree { .. })));
    }

    #[test]
    fn freed_lookup_matches_a_linear_scan_over_hundreds_of_blocks() {
        use rand::{Rng, SeedableRng};
        let (mut os, mut tool, stack) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf3ee);
        let sizes = [1, 8, 24, 40, 100, 256, 1000];
        let mut live = Vec::new();
        // Fill the heap, free most of it, then let new blocks reuse some
        // freed placements (dropping their records) and free a few more.
        for (allocs, frees) in [(1500, 1000), (300, 60)] {
            for _ in 0..allocs {
                let size = sizes[rng.gen_range(0..sizes.len())];
                live.push(tool.malloc(&mut os, size, &stack));
            }
            for _ in 0..frees {
                let addr = live.swap_remove(rng.gen_range(0..live.len()));
                tool.free(&mut os, addr);
            }
        }
        assert!(tool.freed.len() >= 500, "{} freed blocks", tool.freed.len());
        // The lookup this replaces: the first freed payload found holding
        // the address, in whatever order the records come.
        let linear = |tool: &Purify, addr: u64| {
            tool.freed
                .iter()
                .find(|(&fa, &(size, _))| addr >= fa && addr < fa + size)
                .map(|(&fa, &(size, _))| (fa, size))
        };
        let edges: Vec<u64> = tool
            .freed
            .iter()
            .flat_map(|(&fa, &(size, _))| [fa - 1, fa, fa + size - 1, fa + size])
            .collect();
        let span = tool
            .heap
            .live_allocations()
            .map(|a| a.addr + a.payload)
            .max()
            .unwrap();
        let random = (0..4000).map(|_| rng.gen_range(HEAP_BASE - 64..span + 64));
        let mut use_after_free = 0;
        for addr in edges.into_iter().chain(random) {
            let expected = match tool.heap.allocation_containing(addr) {
                Some(_) => None,
                None => {
                    linear(&tool, addr).map(|(buffer_addr, buffer_size)| BugReport::UseAfterFree {
                        buffer_addr,
                        buffer_size,
                        access_vaddr: addr,
                        access: AccessKind::Read,
                    })
                }
            };
            let before = tool.reports.len();
            tool.check_access(&mut os, addr, 1, AccessKind::Read);
            let reported: Vec<BugReport> = tool.reports[before..]
                .iter()
                .copied()
                .filter(|r| matches!(r, BugReport::UseAfterFree { .. }))
                .collect();
            assert_eq!(reported, Vec::from_iter(expected), "access at {addr:#x}");
            use_after_free += reported.len();
        }
        assert!(
            use_after_free > 1000,
            "{use_after_free} use-after-free reports"
        );
    }

    #[test]
    fn detects_uninit_read_but_not_after_write() {
        let (mut os, mut tool, stack) = setup();
        let a = tool.malloc(&mut os, 64, &stack);
        let mut buf = [0u8; 8];
        tool.read(&mut os, a, &mut buf);
        assert!(tool
            .reports()
            .iter()
            .any(|r| matches!(r, BugReport::UninitRead { .. })));
        let b = tool.malloc(&mut os, 64, &stack);
        tool.write(&mut os, b, &[1u8; 64]);
        let n = tool.reports().len();
        tool.read(&mut os, b, &mut buf);
        assert_eq!(tool.reports().len(), n, "initialised read is clean");
    }

    #[test]
    fn mark_sweep_finds_unreachable_only() {
        let (mut os, mut tool, stack) = setup();
        // A root in static memory points at `kept`; `lost` is unreachable.
        let root = safemem_os::STATIC_BASE;
        let kept = tool.malloc(&mut os, 64, &stack);
        let lost = tool.malloc(&mut os, 64, &CallStack::new(&[0x500_000]));
        tool.write(&mut os, kept, &[0u8; 64]);
        tool.write(&mut os, lost, &[0u8; 64]);
        os.write_u64(root, kept).unwrap();
        tool.add_root(root);
        tool.leak_scan(&mut os);
        let reports = tool.reports();
        let leaks: Vec<_> = reports.iter().filter(|r| r.is_leak()).collect();
        assert_eq!(leaks.len(), 1);
        assert!(matches!(leaks[0], BugReport::Leak { addr, .. } if *addr == lost));
    }

    #[test]
    fn mark_sweep_follows_pointer_chains() {
        let (mut os, mut tool, stack) = setup();
        let root = safemem_os::STATIC_BASE;
        let a = tool.malloc(&mut os, 16, &stack);
        let b = tool.malloc(&mut os, 16, &stack);
        tool.write(&mut os, a, &b.to_le_bytes()); // a → b
        tool.write(&mut os, b, &[0u8; 16]);
        os.write_u64(root, a).unwrap();
        tool.add_root(root);
        tool.leak_scan(&mut os);
        assert!(
            !tool.reports().iter().any(BugReport::is_leak),
            "transitively reachable objects are not leaks: {:?}",
            tool.reports()
        );
    }

    #[test]
    fn per_access_instrumentation_slows_compute() {
        let (mut os, mut tool, _) = setup();
        let t0 = os.cpu_cycles();
        tool.compute(&mut os, 1_000, 300);
        let spent = os.cpu_cycles() - t0;
        assert_eq!(
            spent,
            1_000 + 300 * PurifyConfig::default().check_cycles_per_access
        );
    }

    #[test]
    fn scan_cost_scales_with_reachable_heap_size() {
        let (mut os, mut tool, stack) = setup();
        // 20 reachable 4 KiB buffers: each gets a root pointing at it.
        for i in 0..20u64 {
            let a = tool.malloc(&mut os, 4096, &stack);
            tool.write(&mut os, a, &vec![0u8; 4096]);
            let root = safemem_os::STATIC_BASE + i * 8;
            os.write_u64(root, a).unwrap();
            tool.add_root(root);
        }
        let t0 = os.cpu_cycles();
        tool.leak_scan(&mut os);
        let big_heap_cost = os.cpu_cycles() - t0;
        // Marking 80 KiB of reachable heap costs at least 10k words × 6.
        assert!(big_heap_cost >= 10_000 * 6, "scan cost {big_heap_cost}");
    }

    #[test]
    fn wild_free_detected() {
        let (mut os, mut tool, _) = setup();
        tool.free(&mut os, 0x1234_5678);
        assert!(matches!(tool.reports()[0], BugReport::WildFree { .. }));
    }
}
