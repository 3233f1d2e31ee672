//! Virtual memory: page tables, demand paging, swap, pinning, protection.
//!
//! A single simulated process owns a flat virtual address space backed by
//! physical frames on demand. Pages are replaced LRU; **pinned** pages are
//! never evicted — the mechanism SafeMem uses to keep watched lines at a
//! stable physical address (paper §2.2.2, "Dealing with Page Swapping").

use crate::error::{AccessKind, OsError};
use safemem_hashfx::FxHashMap;
use safemem_machine::Machine;

/// Page size in bytes.
pub const PAGE_BYTES: u64 = 4096;
/// Size of the virtual address space (1 GiB, like the paper platform's RAM).
pub const VA_LIMIT: u64 = 1 << 30;
/// Base of the conventional heap region used by the allocator crate.
pub const HEAP_BASE: u64 = 0x1000_0000;
/// Base of a small static/global region used by workloads for roots.
pub const STATIC_BASE: u64 = 0x0800_0000;

/// Page protection bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Prot {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
}

impl Prot {
    /// No access (guard page).
    pub const NONE: Prot = Prot {
        read: false,
        write: false,
    };
    /// Read-only.
    pub const READ: Prot = Prot {
        read: true,
        write: false,
    };
    /// Read-write (the default).
    pub const READ_WRITE: Prot = Prot {
        read: true,
        write: true,
    };

    /// Whether an access of `kind` is permitted.
    #[must_use]
    pub fn allows(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read,
            AccessKind::Write => self.write,
        }
    }
}

impl Default for Prot {
    fn default() -> Self {
        Prot::READ_WRITE
    }
}

#[derive(Debug, Clone)]
struct PageEntry {
    frame: Option<u64>,
    prot: Prot,
    pinned: u32,
    last_use: u64,
}

impl Default for PageEntry {
    fn default() -> Self {
        PageEntry {
            frame: None,
            prot: Prot::READ_WRITE,
            pinned: 0,
            last_use: 0,
        }
    }
}

/// Virtual-memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VmStats {
    /// Demand-zero or swap-in page faults taken.
    pub page_faults: u64,
    /// Pages read back from swap.
    pub swap_ins: u64,
    /// Pages evicted to swap.
    pub swap_outs: u64,
    /// Pages currently pinned.
    pub pinned_pages: u64,
    /// Pages currently resident.
    pub resident_pages: u64,
}

/// What servicing a translation required (drives time/IO accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateOutcome {
    /// Page was already resident.
    Hit,
    /// A fresh zero page was mapped.
    ZeroFill,
    /// The page was read back from swap (costs I/O wait).
    SwapIn,
}

/// The per-process virtual memory manager.
///
/// All methods that move data take the machine explicitly: the VM layer
/// owns mappings and policy, the [`Machine`] owns bytes and time.
#[derive(Debug)]
pub struct VirtualMemory {
    pages: FxHashMap<u64, PageEntry>,
    free_frames: Vec<u64>,
    swap: FxHashMap<u64, Vec<u8>>,
    /// Cap on simultaneously pinned pages (the RLIMIT_MEMLOCK analogue):
    /// pinning everything would leave no frames for ordinary paging.
    max_pinned: u64,
    tick: u64,
    stats: VmStats,
    /// Virtual page numbers evicted since the last [`take_evictions`] call
    /// (consumed by the swap-aware watch extension in the OS layer).
    ///
    /// [`take_evictions`]: VirtualMemory::take_evictions
    pending_evictions: Vec<u64>,
}

impl VirtualMemory {
    /// Creates a VM over a machine with `phys_bytes` of physical memory.
    #[must_use]
    pub fn new(phys_bytes: u64) -> Self {
        let frames = phys_bytes / PAGE_BYTES;
        VirtualMemory {
            pages: FxHashMap::default(),
            // Reverse order so low frames are handed out first.
            free_frames: (0..frames).rev().map(|f| f * PAGE_BYTES).collect(),
            swap: FxHashMap::default(),
            // Default cap: three quarters of physical memory may be pinned.
            max_pinned: (frames * 3 / 4).max(1),
            tick: 0,
            stats: VmStats::default(),
            pending_evictions: Vec::new(),
        }
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> VmStats {
        let mut s = self.stats;
        s.pinned_pages = self.pages.values().filter(|p| p.pinned > 0).count() as u64;
        s.resident_pages = self.pages.values().filter(|p| p.frame.is_some()).count() as u64;
        s
    }

    fn vpn(vaddr: u64) -> u64 {
        vaddr / PAGE_BYTES
    }

    /// Returns the protection of the page containing `vaddr`.
    #[must_use]
    pub fn prot_of(&self, vaddr: u64) -> Prot {
        self.pages
            .get(&Self::vpn(vaddr))
            .map_or(Prot::READ_WRITE, |p| p.prot)
    }

    /// Sets protection on whole pages covering `[vaddr, vaddr + len)` —
    /// the simulated `mprotect`.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::Misaligned`] if `vaddr` is not page-aligned, or
    /// [`OsError::OutOfRange`] if the range leaves the address space.
    pub fn set_prot(&mut self, vaddr: u64, len: u64, prot: Prot) -> Result<(), OsError> {
        if !vaddr.is_multiple_of(PAGE_BYTES) {
            return Err(OsError::Misaligned {
                value: vaddr,
                required: PAGE_BYTES,
            });
        }
        if vaddr + len > VA_LIMIT {
            return Err(OsError::OutOfRange { vaddr: vaddr + len });
        }
        let pages = len.div_ceil(PAGE_BYTES);
        for i in 0..pages {
            self.pages.entry(Self::vpn(vaddr) + i).or_default().prot = prot;
        }
        Ok(())
    }

    /// Pins the page containing `vaddr` (refcounted). A pinned page is made
    /// resident immediately and is never evicted.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::OutOfMemory`] if the page cannot be made resident
    /// or the pinned-page cap (the `RLIMIT_MEMLOCK` analogue) is reached.
    pub fn pin(&mut self, machine: &mut Machine, vaddr: u64) -> Result<(), OsError> {
        let newly_pinned = !self.is_pinned(vaddr);
        if newly_pinned && self.stats().pinned_pages >= self.max_pinned {
            return Err(OsError::OutOfMemory);
        }
        self.translate(machine, vaddr)?;
        let entry = self.pages.entry(Self::vpn(vaddr)).or_default();
        entry.pinned += 1;
        Ok(())
    }

    /// Overrides the pinned-page cap.
    pub fn set_max_pinned(&mut self, pages: u64) {
        self.max_pinned = pages.max(1);
    }

    /// Unpins the page containing `vaddr`.
    ///
    /// # Panics
    ///
    /// Panics if the page is not pinned (an unbalanced unpin is a tool bug).
    pub fn unpin(&mut self, vaddr: u64) {
        let entry = self
            .pages
            .get_mut(&Self::vpn(vaddr))
            .expect("unpin of unmapped page");
        assert!(
            entry.pinned > 0,
            "unbalanced unpin of page {:#x}",
            vaddr / PAGE_BYTES
        );
        entry.pinned -= 1;
    }

    /// Whether the page containing `vaddr` is currently pinned.
    #[must_use]
    pub fn is_pinned(&self, vaddr: u64) -> bool {
        self.pages
            .get(&Self::vpn(vaddr))
            .is_some_and(|p| p.pinned > 0)
    }

    /// Whether the page containing `vaddr` is resident.
    #[must_use]
    pub fn is_resident(&self, vaddr: u64) -> bool {
        self.pages
            .get(&Self::vpn(vaddr))
            .is_some_and(|p| p.frame.is_some())
    }

    /// Evicts the least-recently-used unpinned resident page, writing its
    /// contents to swap. Returns the freed frame.
    fn evict_one(&mut self, machine: &mut Machine) -> Result<u64, OsError> {
        let victim_vpn = self
            .pages
            .iter()
            .filter(|(_, p)| p.frame.is_some() && p.pinned == 0)
            .min_by_key(|(_, p)| p.last_use)
            .map(|(vpn, _)| *vpn)
            .ok_or(OsError::OutOfMemory)?;
        let entry = self.pages.get_mut(&victim_vpn).expect("victim exists");
        let frame = entry.frame.take().expect("victim resident");
        // Push any cached dirty lines of the frame back to memory first,
        // then copy the frame out to swap.
        machine.flush_range(frame, PAGE_BYTES);
        let contents = machine.peek(frame, PAGE_BYTES as usize);
        self.swap.insert(victim_vpn, contents);
        self.stats.swap_outs += 1;
        self.pending_evictions.push(victim_vpn);
        Ok(frame)
    }

    /// Ensures the page containing `vaddr` is resident and returns the
    /// physical address corresponding to `vaddr`, along with what the
    /// translation required.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::OutOfRange`] for addresses beyond [`VA_LIMIT`] and
    /// [`OsError::OutOfMemory`] when no frame can be freed.
    pub fn translate(
        &mut self,
        machine: &mut Machine,
        vaddr: u64,
    ) -> Result<(u64, TranslateOutcome), OsError> {
        if vaddr >= VA_LIMIT {
            return Err(OsError::OutOfRange { vaddr });
        }
        self.tick += 1;
        let tick = self.tick;
        let vpn = Self::vpn(vaddr);
        if let Some(entry) = self.pages.get_mut(&vpn) {
            if let Some(frame) = entry.frame {
                entry.last_use = tick;
                return Ok((frame + vaddr % PAGE_BYTES, TranslateOutcome::Hit));
            }
        }
        // Page fault: find a frame.
        self.stats.page_faults += 1;
        let frame = match self.free_frames.pop() {
            Some(f) => f,
            None => self.evict_one(machine)?,
        };
        // Fill it: from swap if the page was evicted before, else zeros.
        let outcome = if let Some(contents) = self.swap.remove(&vpn) {
            machine.write_uncached(frame, &contents);
            self.stats.swap_ins += 1;
            TranslateOutcome::SwapIn
        } else {
            static ZERO_PAGE: [u8; PAGE_BYTES as usize] = [0; PAGE_BYTES as usize];
            machine.write_uncached(frame, &ZERO_PAGE);
            TranslateOutcome::ZeroFill
        };
        let entry = self.pages.entry(vpn).or_default();
        entry.frame = Some(frame);
        entry.last_use = tick;
        Ok((frame + vaddr % PAGE_BYTES, outcome))
    }

    /// Records `hits` translation hits on the resident page containing
    /// `vaddr` in one step, with the effect of `hits` calls of
    /// [`translate`](Self::translate) that each find the page resident: the
    /// tick advances by `hits` and the page's LRU stamp takes the final
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub(crate) fn record_hits(&mut self, vaddr: u64, hits: u64) {
        self.tick += hits;
        let entry = self
            .pages
            .get_mut(&Self::vpn(vaddr))
            .filter(|p| p.frame.is_some())
            .expect("record_hits on a non-resident page");
        entry.last_use = self.tick;
    }

    /// Drains the list of virtual page numbers evicted since the last call.
    /// The swap-aware watch extension uses this to retire stale physical
    /// mappings of watched lines.
    pub fn take_evictions(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_evictions)
    }

    /// Returns the physical address for `vaddr` if (and only if) the page is
    /// resident, without faulting anything in.
    #[must_use]
    pub fn translate_resident(&self, vaddr: u64) -> Option<u64> {
        self.pages
            .get(&Self::vpn(vaddr))
            .and_then(|p| p.frame)
            .map(|frame| frame + vaddr % PAGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_machine::Machine;

    fn machine() -> Machine {
        Machine::with_defaults(16 * PAGE_BYTES)
    }

    #[test]
    fn demand_zero_then_hit() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(16 * PAGE_BYTES);
        let (p1, o1) = vm.translate(&mut m, HEAP_BASE + 10).unwrap();
        assert_eq!(o1, TranslateOutcome::ZeroFill);
        let (p2, o2) = vm.translate(&mut m, HEAP_BASE + 20).unwrap();
        assert_eq!(o2, TranslateOutcome::Hit);
        assert_eq!(p1 - 10, p2 - 20, "same page, same frame");
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(16 * PAGE_BYTES);
        let (p1, _) = vm.translate(&mut m, HEAP_BASE).unwrap();
        let (p2, _) = vm.translate(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        assert_ne!(p1 / PAGE_BYTES, p2 / PAGE_BYTES);
    }

    #[test]
    fn swap_roundtrip_preserves_contents() {
        let mut m = machine();
        // Only 2 frames: the third page evicts the first.
        let mut vm = VirtualMemory::new(2 * PAGE_BYTES);
        let (p0, _) = vm.translate(&mut m, HEAP_BASE).unwrap();
        m.write(p0, &[0xCD; 64]).unwrap();
        vm.translate(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        vm.translate(&mut m, HEAP_BASE + 2 * PAGE_BYTES).unwrap();
        assert!(!vm.is_resident(HEAP_BASE), "LRU page evicted");
        assert_eq!(vm.stats().swap_outs, 1);
        // Touch it again: swapped back in with contents intact.
        let (p0b, o) = vm.translate(&mut m, HEAP_BASE).unwrap();
        assert_eq!(o, TranslateOutcome::SwapIn);
        let mut buf = [0u8; 64];
        m.read(p0b, &mut buf).unwrap();
        assert_eq!(buf, [0xCD; 64]);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(2 * PAGE_BYTES);
        vm.pin(&mut m, HEAP_BASE).unwrap();
        vm.translate(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        vm.translate(&mut m, HEAP_BASE + 2 * PAGE_BYTES).unwrap();
        assert!(vm.is_resident(HEAP_BASE), "pinned page must not be evicted");
    }

    #[test]
    fn pin_cap_is_enforced() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(4 * PAGE_BYTES);
        // Cap of 3 pinned pages (3/4 of 4 frames).
        vm.pin(&mut m, HEAP_BASE).unwrap();
        vm.pin(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        vm.pin(&mut m, HEAP_BASE + 2 * PAGE_BYTES).unwrap();
        assert_eq!(
            vm.pin(&mut m, HEAP_BASE + 3 * PAGE_BYTES),
            Err(OsError::OutOfMemory),
            "cap reached"
        );
        // Re-pinning an already-pinned page is always allowed.
        vm.pin(&mut m, HEAP_BASE).unwrap();
        // Ordinary accesses still work: one frame stays evictable.
        vm.translate(&mut m, HEAP_BASE + 5 * PAGE_BYTES).unwrap();
    }

    #[test]
    fn pin_is_refcounted() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(4 * PAGE_BYTES);
        vm.pin(&mut m, HEAP_BASE).unwrap();
        vm.pin(&mut m, HEAP_BASE + 64).unwrap(); // same page
        vm.unpin(HEAP_BASE);
        assert!(vm.is_pinned(HEAP_BASE));
        vm.unpin(HEAP_BASE);
        assert!(!vm.is_pinned(HEAP_BASE));
    }

    #[test]
    #[should_panic(expected = "unbalanced unpin")]
    fn unbalanced_unpin_panics() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(4 * PAGE_BYTES);
        vm.translate(&mut m, HEAP_BASE).unwrap();
        vm.unpin(HEAP_BASE);
    }

    #[test]
    fn prot_defaults_rw_and_set_prot_validates() {
        let mut vm = VirtualMemory::new(4 * PAGE_BYTES);
        assert_eq!(vm.prot_of(HEAP_BASE), Prot::READ_WRITE);
        vm.set_prot(HEAP_BASE, PAGE_BYTES, Prot::NONE).unwrap();
        assert_eq!(vm.prot_of(HEAP_BASE + 100), Prot::NONE);
        assert_eq!(vm.prot_of(HEAP_BASE + PAGE_BYTES), Prot::READ_WRITE);
        assert!(matches!(
            vm.set_prot(HEAP_BASE + 1, 10, Prot::NONE),
            Err(OsError::Misaligned { .. })
        ));
    }

    #[test]
    fn reused_frames_are_zeroed() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(2 * PAGE_BYTES);
        let (p0, _) = vm.translate(&mut m, HEAP_BASE).unwrap();
        m.write(p0, &[0xFF; 64]).unwrap();
        // Force eviction of HEAP_BASE, then map a brand new page that reuses
        // its frame: the new page must read zero, not 0xFF.
        vm.translate(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        let (p2, o) = vm.translate(&mut m, HEAP_BASE + 2 * PAGE_BYTES).unwrap();
        assert_eq!(o, TranslateOutcome::ZeroFill);
        let mut buf = [0u8; 64];
        m.read(p2, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn lru_eviction_order() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(3 * PAGE_BYTES);
        vm.translate(&mut m, HEAP_BASE).unwrap();
        vm.translate(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        vm.translate(&mut m, HEAP_BASE + 2 * PAGE_BYTES).unwrap();
        // Touch page 0 so page 1 is the least recently used.
        vm.translate(&mut m, HEAP_BASE).unwrap();
        vm.translate(&mut m, HEAP_BASE + 3 * PAGE_BYTES).unwrap();
        assert!(vm.is_resident(HEAP_BASE), "recently used survives");
        assert!(
            !vm.is_resident(HEAP_BASE + PAGE_BYTES),
            "LRU victim evicted"
        );
    }

    #[test]
    fn protection_survives_swap_roundtrip() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(2 * PAGE_BYTES);
        vm.translate(&mut m, HEAP_BASE).unwrap();
        vm.set_prot(HEAP_BASE, PAGE_BYTES, Prot::READ).unwrap();
        // Evict and bring back.
        vm.translate(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        vm.translate(&mut m, HEAP_BASE + 2 * PAGE_BYTES).unwrap();
        assert!(!vm.is_resident(HEAP_BASE));
        vm.translate(&mut m, HEAP_BASE).unwrap();
        assert_eq!(
            vm.prot_of(HEAP_BASE),
            Prot::READ,
            "prot is per-VMA, not per-frame"
        );
    }

    #[test]
    fn take_evictions_reports_each_once() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(2 * PAGE_BYTES);
        vm.translate(&mut m, HEAP_BASE).unwrap();
        vm.translate(&mut m, HEAP_BASE + PAGE_BYTES).unwrap();
        vm.translate(&mut m, HEAP_BASE + 2 * PAGE_BYTES).unwrap();
        let ev = vm.take_evictions();
        assert_eq!(ev, vec![HEAP_BASE / PAGE_BYTES]);
        assert!(vm.take_evictions().is_empty(), "drained");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = machine();
        let mut vm = VirtualMemory::new(4 * PAGE_BYTES);
        assert!(matches!(
            vm.translate(&mut m, VA_LIMIT),
            Err(OsError::OutOfRange { .. })
        ));
    }
}
