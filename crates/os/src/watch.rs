//! Bookkeeping for ECC-watched memory regions.
//!
//! The kernel half of SafeMem keeps, for every watched cache line, the
//! original data (to differentiate access faults from hardware errors and to
//! restore the line on unwatch), the check codes of that data (so a disarm
//! restores the line without re-encoding), and the line's current physical
//! placement (to tell its faults from hardware errors and to follow it
//! through swap). The arm/disarm *sequences* live in the [`Os`](crate::Os)
//! layer; this module is pure bookkeeping: one ordered index from region
//! start to a slot in a dense slab of [`Region`] records, each holding its
//! lines' records and original bytes in flat arrays, in address order.

use crate::vm::PAGE_BYTES;
use std::collections::BTreeMap;

/// Emptied records are kept for reuse by line count, for regions of up to
/// this many lines: steady-state churn of guard pads and small freed
/// buffers then allocates nothing, and a reused record holds exactly the
/// room its region needs.
const POOL_MAX_LINES: usize = 8;
/// Lines' worth of room the pool keeps in all: with 64-byte lines, 32 KiB
/// of originals plus their records, half of what a pool of 1024 per-line
/// buffers would keep.
const POOL_LINES: usize = 512;

/// One armed line's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedLine {
    /// Current line-aligned physical address (`None` while the page is
    /// swapped out under the swap-aware extension).
    pub phys: Option<u64>,
    /// The ECC check codes of the original data, computed once at arm time
    /// so every disarm (unwatch and each scrub cycle) restores the line
    /// without re-encoding. Meaningful for 64-byte lines only; other line
    /// sizes re-encode on disarm.
    pub codes: [u8; 8],
}

/// One watched region: its extent and its armed lines in address order.
#[derive(Debug, Default)]
pub struct Region {
    start: u64,
    size: u64,
    lines: Vec<ArmedLine>,
    /// `lines.len() × line_bytes` original bytes, line after line.
    original: Vec<u8>,
}

impl Region {
    /// Region start (virtual).
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Region size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The armed lines, in address order.
    #[must_use]
    pub fn lines(&self) -> &[ArmedLine] {
        &self.lines
    }

    /// The original bytes of the armed lines, back to back.
    #[must_use]
    pub fn original(&self) -> &[u8] {
        &self.original
    }
}

/// Splits the region `[start, start + size)` into its page segments:
/// `(first line's vaddr, index of that line in the region, lines)` in
/// address order.
pub(crate) fn segments(
    start: u64,
    size: u64,
    line_bytes: u64,
) -> impl Iterator<Item = (u64, usize, u64)> {
    let end = start + size;
    let mut vaddr = start;
    std::iter::from_fn(move || {
        if vaddr >= end {
            return None;
        }
        let seg_end = end.min((vaddr / PAGE_BYTES + 1) * PAGE_BYTES);
        let seg = (
            vaddr,
            ((vaddr - start) / line_bytes) as usize,
            (seg_end - vaddr) / line_bytes,
        );
        vaddr = seg_end;
        Some(seg)
    })
}

/// Registry of watched regions and their lines.
#[derive(Debug)]
pub struct WatchRegistry {
    line_bytes: u64,
    /// Region start → slab slot, ordered so overlap and containment queries
    /// are a single neighbour probe (regions are disjoint by construction,
    /// so the region with the greatest start below a query bound is the
    /// only candidate).
    index: BTreeMap<u64, usize>,
    /// Region records; a free slot holds an empty record.
    slab: Vec<Region>,
    free: Vec<usize>,
    /// `pool[n - 1]` holds emptied records with room for `n` lines.
    pool: [Vec<Region>; POOL_MAX_LINES],
    pooled_lines: usize,
    line_count: usize,
}

impl WatchRegistry {
    /// Creates an empty registry for lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    #[must_use]
    pub fn new(line_bytes: u64) -> Self {
        assert!(line_bytes > 0, "line size must be non-zero");
        WatchRegistry {
            line_bytes,
            index: BTreeMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            pool: Default::default(),
            pooled_lines: 0,
            line_count: 0,
        }
    }

    /// Number of watched regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.index.len()
    }

    /// Number of watched lines.
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.line_count
    }

    /// Returns the start of an existing region overlapping
    /// `[vaddr, vaddr + size)`, if any.
    #[must_use]
    pub fn overlapping_region(&self, vaddr: u64, size: u64) -> Option<u64> {
        // Disjoint regions: only the one starting closest below the query's
        // end can overlap it.
        self.index
            .range(..vaddr + size)
            .next_back()
            .filter(|&(&start, &slot)| vaddr < start + self.slab[slot].size)
            .map(|(&start, _)| start)
    }

    /// The region `(start, size)` containing `vaddr`, if any.
    #[must_use]
    pub fn region_containing(&self, vaddr: u64) -> Option<(u64, u64)> {
        self.slot_containing(vaddr)
            .map(|slot| (self.slab[slot].start, self.slab[slot].size))
    }

    fn slot_containing(&self, vaddr: u64) -> Option<usize> {
        self.index
            .range(..=vaddr)
            .next_back()
            .filter(|&(&start, &slot)| vaddr < start + self.slab[slot].size)
            .map(|(_, &slot)| slot)
    }

    /// The size of the region starting exactly at `vaddr`, if any.
    #[must_use]
    pub fn region_at(&self, vaddr: u64) -> Option<u64> {
        self.index.get(&vaddr).map(|&slot| self.slab[slot].size)
    }

    /// All region starts, in address order.
    #[must_use]
    pub fn region_starts(&self) -> Vec<u64> {
        self.index.keys().copied().collect()
    }

    /// Records a region with no armed lines yet (the caller has validated
    /// alignment and overlap) and returns its slot for
    /// [`push_segment`](Self::push_segment).
    pub fn insert_region(&mut self, vaddr: u64, size: u64) -> usize {
        let lines = (size / self.line_bytes) as usize;
        let mut region = match self.pool.get_mut(lines.wrapping_sub(1)).and_then(Vec::pop) {
            Some(region) => {
                self.pooled_lines -= lines;
                region
            }
            None => Region {
                lines: Vec::with_capacity(lines),
                original: Vec::with_capacity(lines * self.line_bytes as usize),
                ..Region::default()
            },
        };
        region.start = vaddr;
        region.size = size;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = region;
                slot
            }
            None => {
                self.slab.push(region);
                self.slab.len() - 1
            }
        };
        let prev = self.index.insert(vaddr, slot);
        debug_assert!(prev.is_none(), "caller must check overlap first");
        slot
    }

    /// Appends the next `lines` lines of the region in `slot`, placed at
    /// consecutive physical lines from `phys`, and returns their original
    /// bytes (zeroed) and records for the caller to fill in.
    pub fn push_segment(
        &mut self,
        slot: usize,
        phys: u64,
        lines: u64,
    ) -> (&mut [u8], &mut [ArmedLine]) {
        let ls = self.line_bytes;
        let region = &mut self.slab[slot];
        let first = region.lines.len();
        region.lines.extend((0..lines).map(|k| ArmedLine {
            phys: Some(phys + k * ls),
            codes: [0; 8],
        }));
        region.original.resize(region.lines.len() * ls as usize, 0);
        self.line_count += lines as usize;
        (
            &mut region.original[first * ls as usize..],
            &mut region.lines[first..],
        )
    }

    /// Removes a region and returns its record. Hand the record back with
    /// [`recycle`](Self::recycle) once done with it.
    pub fn remove_region(&mut self, vaddr: u64) -> Option<Region> {
        let slot = self.index.remove(&vaddr)?;
        let region = std::mem::take(&mut self.slab[slot]);
        self.free.push(slot);
        self.line_count -= region.lines.len();
        Some(region)
    }

    /// Keeps a removed record's buffers for reuse if they are small and the
    /// pool has room.
    pub fn recycle(&mut self, mut region: Region) {
        let lines = region.lines.capacity();
        if (1..=POOL_MAX_LINES).contains(&lines) && self.pooled_lines + lines <= POOL_LINES {
            region.lines.clear();
            region.original.clear();
            self.pooled_lines += lines;
            self.pool[lines - 1].push(region);
        }
    }

    /// The watched line at `vline` if its recorded placement is
    /// `phys_line`: the start of its region and its original bytes.
    #[must_use]
    pub fn armed_line(&self, vline: u64, phys_line: u64) -> Option<(u64, &[u8])> {
        let region = &self.slab[self.slot_containing(vline)?];
        let k = ((vline - region.start) / self.line_bytes) as usize;
        let ls = self.line_bytes as usize;
        (region.lines.get(k)?.phys == Some(phys_line))
            .then(|| (region.start, &region.original[k * ls..(k + 1) * ls]))
    }

    /// Calls `f` with the virtual address, record and original bytes of
    /// every armed line in virtual page `vpn`, in address order (used by
    /// the swap-aware extension when a page moves).
    pub fn for_each_line_in_page(
        &mut self,
        vpn: u64,
        mut f: impl FnMut(u64, &mut ArmedLine, &[u8]),
    ) {
        let (lo, hi) = (vpn * PAGE_BYTES, (vpn + 1) * PAGE_BYTES);
        let ls = self.line_bytes;
        // The region containing the page's first byte, then every region
        // starting inside the page.
        let first = self.index.range(..lo).next_back().map(|(_, &slot)| slot);
        let inside = self.index.range(lo..hi).map(|(_, &slot)| slot);
        for slot in first.into_iter().chain(inside) {
            let region = &mut self.slab[slot];
            let (a, b) = (region.start.max(lo), (region.start + region.size).min(hi));
            if a >= b {
                continue;
            }
            // A region still being armed has records for its first lines
            // only.
            let armed = region.lines.len();
            let k0 = (((a - region.start) / ls) as usize).min(armed);
            let k1 = (((b - region.start) / ls) as usize).min(armed);
            let ls = ls as usize;
            for k in k0..k1 {
                let bytes = &region.original[k * ls..(k + 1) * ls];
                f(region.start + (k * ls) as u64, &mut region.lines[k], bytes);
            }
        }
    }

    /// Iterates over every armed line's record and original bytes.
    pub fn lines(&self) -> impl Iterator<Item = (&ArmedLine, &[u8])> {
        let ls = self.line_bytes as usize;
        self.slab
            .iter()
            .flat_map(move |r| r.lines.iter().zip(r.original.chunks_exact(ls)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry holding one region at `start` whose lines sit at
    /// consecutive physical lines from `phys`, each page segment recorded
    /// in one push (as the `Os` arms them).
    fn registry_with(start: u64, size: u64, phys: u64) -> WatchRegistry {
        let mut reg = WatchRegistry::new(64);
        let slot = reg.insert_region(start, size);
        for (vaddr, _, lines) in segments(start, size, 64) {
            let (original, _) = reg.push_segment(slot, phys + (vaddr - start), lines);
            original.fill(0xA5);
        }
        reg
    }

    fn page_lines(reg: &mut WatchRegistry, vpn: u64) -> Vec<u64> {
        let mut out = Vec::new();
        reg.for_each_line_in_page(vpn, |vline, _, _| out.push(vline));
        out
    }

    #[test]
    fn region_lifecycle() {
        let mut reg = registry_with(0x1000, 128, 0x8000);
        assert_eq!(reg.region_count(), 1);
        assert_eq!(reg.line_count(), 2);
        assert_eq!(reg.region_containing(0x1050), Some((0x1000, 128)));
        assert_eq!(reg.region_containing(0x1080), None);
        assert!(reg.armed_line(0x1040, 0x8040).is_some());
        let region = reg.remove_region(0x1000).unwrap();
        assert_eq!(region.size(), 128);
        assert_eq!(region.lines().len(), 2);
        assert_eq!(region.original(), &[0xA5; 128][..]);
        assert_eq!(reg.line_count(), 0);
        assert_eq!(reg.region_count(), 0);
        assert!(reg.armed_line(0x1000, 0x8000).is_none());
        assert!(reg.remove_region(0x1000).is_none());
    }

    #[test]
    fn overlap_detection() {
        let reg = registry_with(0x1000, 128, 0x8000);
        assert_eq!(reg.overlapping_region(0x1040, 64), Some(0x1000));
        assert_eq!(reg.overlapping_region(0x1080, 64), None);
        assert_eq!(reg.overlapping_region(0x0FC0, 64), None);
        assert_eq!(reg.overlapping_region(0x0FC0, 65), Some(0x1000));
        assert_eq!(reg.overlapping_region(0x0F00, 0x1000), Some(0x1000));
    }

    #[test]
    fn phys_routing_follows_placement_updates() {
        let mut reg = registry_with(0x2000, 64, 0x9000);
        assert_eq!(reg.armed_line(0x2000, 0x9000).unwrap().0, 0x2000);
        // Another line of the frame is not this watched line.
        assert!(reg.armed_line(0x2040, 0x9040).is_none());
        reg.for_each_line_in_page(2, |_, line, _| line.phys = None);
        assert!(reg.armed_line(0x2000, 0x9000).is_none());
        reg.for_each_line_in_page(2, |_, line, _| line.phys = Some(0xA000));
        assert!(reg.armed_line(0x2000, 0x9000).is_none());
        let (start, original) = reg.armed_line(0x2000, 0xA000).unwrap();
        assert_eq!((start, original), (0x2000, &[0xA5; 64][..]));
    }

    #[test]
    fn lines_of_a_page_come_from_every_region_on_it() {
        // A region ending inside page 1, one inside it, and one straddling
        // into page 2.
        let mut reg = WatchRegistry::new(64);
        for (start, size) in [(0x0F80, 0x100), (0x1400, 64), (0x1FC0, 0x80)] {
            let slot = reg.insert_region(start, size);
            for (vaddr, _, lines) in segments(start, size, 64) {
                reg.push_segment(slot, vaddr + 0x10_0000, lines);
            }
        }
        assert_eq!(page_lines(&mut reg, 1), [0x1000, 0x1040, 0x1400, 0x1FC0]);
        assert_eq!(page_lines(&mut reg, 2), [0x2000]);
        assert_eq!(page_lines(&mut reg, 0), [0x0F80, 0x0FC0]);
        assert!(page_lines(&mut reg, 3).is_empty());
        assert_eq!(reg.lines().count(), reg.line_count());
    }

    #[test]
    fn a_region_being_armed_shows_only_its_armed_lines() {
        let mut reg = WatchRegistry::new(64);
        let slot = reg.insert_region(0x1F80, 0x100);
        let mut segs = segments(0x1F80, 0x100, 64);
        let (vaddr, first, lines) = segs.next().unwrap();
        assert_eq!((vaddr, first, lines), (0x1F80, 0, 2));
        reg.push_segment(slot, 0x8F80, lines);
        assert_eq!(page_lines(&mut reg, 1), [0x1F80, 0x1FC0]);
        assert!(page_lines(&mut reg, 2).is_empty());
        assert_eq!(segs.next(), Some((0x2000, 2, 2)));
        assert_eq!(segs.next(), None);
    }

    #[test]
    fn segments_split_at_page_boundaries() {
        let segs: Vec<_> = segments(0x1FC0, 2 * PAGE_BYTES + 0x80, 64).collect();
        assert_eq!(
            segs,
            [
                (0x1FC0, 0, 1),
                (0x2000, 1, 64),
                (0x3000, 65, 64),
                (0x4000, 129, 1)
            ]
        );
        let segs: Vec<_> = segments(0x1000, 0x200, 128).collect();
        assert_eq!(segs, [(0x1000, 0, 4)]);
    }

    #[test]
    fn recycling_keeps_only_small_records_by_size() {
        let mut reg = WatchRegistry::new(64);
        let regions = [(0x1000, 64), (0x2000, 128), (0x3000, PAGE_BYTES)];
        for (start, size) in regions {
            let slot = reg.insert_region(start, size);
            reg.push_segment(slot, start, size / 64);
        }
        for (start, _) in regions {
            let region = reg.remove_region(start).unwrap();
            reg.recycle(region);
        }
        let pooled: Vec<usize> = reg.pool.iter().map(Vec::len).collect();
        assert_eq!(
            pooled,
            [1, 1, 0, 0, 0, 0, 0, 0],
            "the 64-line record was dropped"
        );
        assert_eq!(reg.pooled_lines, 3);
        // A one-line region reuses the one-line record and a free slot; a
        // three-line region finds no record of its size.
        reg.insert_region(0x4000, 64);
        reg.insert_region(0x5000, 192);
        assert_eq!(reg.pool[0].len() + reg.pool[2].len(), 0);
        assert_eq!(
            (reg.slab.len(), reg.free.len(), reg.pooled_lines),
            (3, 1, 2)
        );
        assert_eq!(reg.slab[reg.index[&0x4000]].lines.capacity(), 1);
        // The pool's total room is bounded.
        for i in 0..POOL_LINES as u64 {
            reg.insert_region(0x10_0000 + 64 * i, 64);
        }
        for i in 0..POOL_LINES as u64 {
            let region = reg.remove_region(0x10_0000 + 64 * i).unwrap();
            reg.recycle(region);
        }
        assert_eq!(reg.pooled_lines, POOL_LINES);
    }
}
