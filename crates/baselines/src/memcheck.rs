//! A Valgrind/Memcheck-class checker (the paper's §7.1 mentions Valgrind as
//! the other widely-used dynamic tool).
//!
//! Memcheck differs from Purify in mechanism and cost profile:
//!
//! * the program runs under **dynamic binary interpretation** — *every*
//!   instruction pays a translation/dispatch multiple, not just memory
//!   accesses;
//! * freed blocks go into a **quarantine** instead of being reused at once,
//!   so use-after-free is caught long after the free (at the price of
//!   higher memory pressure);
//! * small **redzones** around each buffer catch adjacent overflows at byte
//!   granularity.
//!
//! Like Purify it reports leaks with a mark-and-sweep pass at exit.

use crate::mark::conservative_mark;
use safemem_alloc::{Heap, LayoutPolicy};
use safemem_core::{BugReport, CallStack, GroupKey, LeakKind, MemTool, OverflowSide};
use safemem_os::{AccessKind, Os};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;

/// Cost calibration for the Memcheck model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemcheckConfig {
    /// Multiplier applied to every computed cycle (binary interpretation;
    /// Valgrind's own documentation cites 20–30× for memcheck).
    pub interpretation_factor: u64,
    /// Extra cycles per memory-access instruction (validity-bit updates).
    pub check_cycles_per_access: u64,
    /// Redzone bytes on each side of every buffer.
    pub redzone_bytes: u64,
    /// Freed blocks held in quarantine before becoming reusable.
    pub quarantine_blocks: usize,
    /// Cycles per word in the exit leak scan.
    pub scan_cycles_per_word: u64,
}

impl Default for MemcheckConfig {
    fn default() -> Self {
        MemcheckConfig {
            interpretation_factor: 15,
            check_cycles_per_access: 30,
            redzone_bytes: 16,
            quarantine_blocks: 64,
            scan_cycles_per_word: 8,
        }
    }
}

/// The Memcheck-like tool.
#[derive(Debug)]
pub struct Memcheck {
    config: MemcheckConfig,
    heap: Heap,
    /// Live payloads → group (for leak attribution).
    groups: HashMap<u64, GroupKey>,
    /// Quarantined freed blocks, FIFO: (payload addr, size).
    quarantine: VecDeque<(u64, u64)>,
    /// Root ranges for the exit leak scan.
    roots: Vec<Range<u64>>,
    reports: Vec<BugReport>,
    reported_groups: HashSet<GroupKey>,
}

impl Memcheck {
    /// Creates the tool with default calibration.
    #[must_use]
    pub fn new() -> Self {
        Memcheck::with_config(MemcheckConfig::default())
    }

    /// Creates the tool with explicit calibration.
    #[must_use]
    pub fn with_config(config: MemcheckConfig) -> Self {
        Memcheck {
            config,
            heap: Heap::new(LayoutPolicy::LineAligned),
            groups: HashMap::new(),
            quarantine: VecDeque::new(),
            roots: Vec::new(),
            reports: Vec::new(),
            reported_groups: HashSet::new(),
        }
    }

    /// Registers a root word for the exit leak scan.
    pub fn add_root(&mut self, addr: u64) {
        self.add_root_range(addr, 8);
    }

    /// Registers every word in `[addr, addr + len)` as a root.
    pub fn add_root_range(&mut self, addr: u64, len: u64) {
        self.roots.push(addr..addr.saturating_add(len));
    }

    fn charge_access(&self, os: &mut Os, bytes: usize) {
        let words = (bytes as u64).div_ceil(8).max(1);
        os.compute(words * self.config.check_cycles_per_access);
    }

    fn in_quarantine(&self, addr: u64) -> Option<(u64, u64)> {
        self.quarantine
            .iter()
            .copied()
            .find(|&(qa, qs)| addr >= qa && addr < qa + qs)
    }

    fn check_access(&mut self, os: &mut Os, addr: u64, len: usize, kind: AccessKind) {
        self.charge_access(os, len);
        let end = addr + len as u64;
        if let Some((qa, qs)) = self.in_quarantine(addr) {
            self.reports.push(BugReport::UseAfterFree {
                buffer_addr: qa,
                buffer_size: qs,
                access_vaddr: addr,
                access: kind,
            });
            return;
        }
        if let Some(a) = self.heap.allocation_containing(addr) {
            if end > a.addr + a.payload {
                self.reports.push(BugReport::Overflow {
                    buffer_addr: a.addr,
                    buffer_size: a.payload,
                    access_vaddr: a.addr + a.payload,
                    access: kind,
                    side: OverflowSide::After,
                });
            }
            return;
        }
        // Within a redzone just past some buffer?
        if let Some(a) = self
            .heap
            .allocation_containing(addr.wrapping_sub(self.config.redzone_bytes))
        {
            let a = *a;
            self.reports.push(BugReport::Overflow {
                buffer_addr: a.addr,
                buffer_size: a.payload,
                access_vaddr: addr,
                access: kind,
                side: OverflowSide::After,
            });
        }
    }

    /// Exit-time mark-and-sweep leak scan.
    pub fn leak_scan(&mut self, os: &mut Os) {
        let mark = conservative_mark(os, &self.heap, &self.roots);
        let quarantined: HashSet<u64> = self.quarantine.iter().map(|&(a, _)| a).collect();
        let leaked: Vec<(u64, u64, GroupKey)> = self
            .heap
            .live_allocations()
            .filter(|a| !mark.marked.contains(&a.addr) && !quarantined.contains(&a.addr))
            .map(|a| {
                let group = self.groups.get(&a.addr).copied().unwrap_or(GroupKey {
                    size: a.payload,
                    signature: 0,
                });
                (a.addr, a.payload, group)
            })
            .collect();
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
        os.compute(mark.words * self.config.scan_cycles_per_word);
    }
}

impl Default for Memcheck {
    fn default() -> Self {
        Memcheck::new()
    }
}

impl MemTool for Memcheck {
    fn name(&self) -> &'static str {
        "memcheck"
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn malloc(&mut self, os: &mut Os, size: u64, stack: &CallStack) -> u64 {
        let allocation = self.heap.alloc(os, size).expect("heap exhausted");
        self.groups
            .insert(allocation.addr, GroupKey::new(size, stack));
        self.charge_access(os, size as usize);
        allocation.addr
    }

    fn free(&mut self, os: &mut Os, addr: u64) {
        if self.heap.allocation_at(addr).is_none() || self.in_quarantine(addr).is_some() {
            self.reports.push(BugReport::WildFree { addr });
            return;
        }
        let size = self.heap.allocation_at(addr).expect("checked live").payload;
        // Quarantine instead of freeing; rotate the oldest block out.
        self.quarantine.push_back((addr, size));
        self.groups.remove(&addr);
        if self.quarantine.len() > self.config.quarantine_blocks {
            let (old, _) = self.quarantine.pop_front().expect("non-empty");
            let _ = self.heap.free(os, old);
        }
        self.charge_access(os, size as usize);
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
            .expect("memcheck runs without watchpoints");
    }

    fn write(&mut self, os: &mut Os, addr: u64, data: &[u8]) {
        self.check_access(os, addr, data.len(), AccessKind::Write);
        os.vwrite(addr, data)
            .expect("memcheck runs without watchpoints");
    }

    fn compute(&mut self, os: &mut Os, cycles: u64, mem_accesses: u64) {
        // Interpretation slows *everything* down, and validity updates add
        // a per-access cost on top.
        os.compute(
            cycles * self.config.interpretation_factor
                + mem_accesses * self.config.check_cycles_per_access,
        );
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

    fn setup() -> (Os, Memcheck, CallStack) {
        (
            Os::with_defaults(1 << 24),
            Memcheck::new(),
            CallStack::new(&[0x400_000]),
        )
    }

    #[test]
    fn quarantine_catches_late_use_after_free() {
        let (mut os, mut tool, stack) = setup();
        let a = tool.malloc(&mut os, 64, &stack);
        tool.write(&mut os, a, &[1u8; 64]);
        tool.free(&mut os, a);
        // Dozens of alloc/free cycles later the block is still quarantined.
        for _ in 0..20 {
            let t = tool.malloc(&mut os, 64, &stack);
            tool.free(&mut os, t);
        }
        let mut buf = [0u8; 8];
        tool.read(&mut os, a, &mut buf);
        assert!(tool
            .reports()
            .iter()
            .any(|r| matches!(r, BugReport::UseAfterFree { .. })));
    }

    #[test]
    fn quarantine_rotation_eventually_reuses() {
        let (mut os, mut tool, stack) = setup();
        let a = tool.malloc(&mut os, 64, &stack);
        tool.free(&mut os, a);
        // Push the block out of the quarantine; once rotated out, the heap
        // may hand the same placement to a new allocation.
        let mut reused = false;
        for _ in 0..(2 * MemcheckConfig::default().quarantine_blocks + 8) {
            let t = tool.malloc(&mut os, 64, &stack);
            reused |= t == a;
            tool.free(&mut os, t);
        }
        assert!(
            reused,
            "block must eventually leave quarantine and be reused"
        );
    }

    #[test]
    fn double_free_of_quarantined_block_detected() {
        let (mut os, mut tool, stack) = setup();
        let a = tool.malloc(&mut os, 32, &stack);
        tool.free(&mut os, a);
        tool.free(&mut os, a);
        assert!(tool
            .reports()
            .iter()
            .any(|r| matches!(r, BugReport::WildFree { .. })));
    }

    #[test]
    fn overflow_detected_at_byte_granularity() {
        let (mut os, mut tool, stack) = setup();
        let a = tool.malloc(&mut os, 20, &stack);
        tool.write(&mut os, a, &[1u8; 21]);
        assert!(tool
            .reports()
            .iter()
            .any(|r| matches!(r, BugReport::Overflow { .. })));
    }

    #[test]
    fn interpretation_slowdown_dominates() {
        let (mut os, mut tool, _) = setup();
        let t0 = os.cpu_cycles();
        tool.compute(&mut os, 1_000, 100);
        let spent = os.cpu_cycles() - t0;
        let cfg = MemcheckConfig::default();
        assert_eq!(
            spent,
            1_000 * cfg.interpretation_factor + 100 * cfg.check_cycles_per_access
        );
    }

    #[test]
    fn exit_scan_reports_unreachable() {
        let (mut os, mut tool, stack) = setup();
        let root = safemem_os::STATIC_BASE;
        let kept = tool.malloc(&mut os, 64, &stack);
        let lost = tool.malloc(&mut os, 64, &CallStack::new(&[0x500_000]));
        tool.write(&mut os, kept, &[0u8; 64]);
        tool.write(&mut os, lost, &[0u8; 64]);
        os.write_u64(root, kept).unwrap();
        tool.add_root(root);
        tool.finish(&mut os);
        let reports = tool.reports();
        let leaks: Vec<_> = reports.iter().filter(|r| r.is_leak()).collect();
        assert_eq!(leaks.len(), 1);
        assert!(matches!(leaks[0], BugReport::Leak { addr, .. } if *addr == lost));
    }
}
