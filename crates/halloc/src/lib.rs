//! Heap allocator over the simulated virtual address space.
//!
//! Plays the role of the C library allocator the paper's tools interpose on.
//! The allocator manages addresses and statistics only — bytes live in the
//! simulated machine, and policy such as guarding/watching belongs to the
//! tools. Four [`LayoutPolicy`] values cover every configuration the paper
//! evaluates:
//!
//! * [`Natural`](LayoutPolicy::Natural) — 16-byte alignment, no padding: the
//!   uninstrumented baseline.
//! * [`LineAligned`](LayoutPolicy::LineAligned) — cache-line-aligned and
//!   line-rounded buffers (avoids false sharing of watched lines).
//! * [`LinePadded`](LayoutPolicy::LinePadded) — line-aligned with one guard
//!   line on each end: SafeMem's corruption-detection layout (§4).
//! * [`PageGuard`](LayoutPolicy::PageGuard) — page-aligned with one guard
//!   page on each end: the page-protection baseline of Table 4.
//!
//! The per-policy waste accounting (`stride - payload`) is exactly what
//! Table 4's space-overhead comparison reports.
//!
//! # Example
//!
//! ```
//! use safemem_alloc::{Heap, LayoutPolicy};
//! use safemem_os::Os;
//!
//! let mut os = Os::with_defaults(1 << 22);
//! let mut heap = Heap::new(LayoutPolicy::LinePadded);
//! let a = heap.alloc(&mut os, 100).unwrap();
//! assert_eq!(a.addr % 64, 0, "line aligned");
//! assert_eq!(a.pad_before(), 64);
//! os.vwrite(a.addr, &[1u8; 100]).unwrap();
//! heap.free(&mut os, a.addr).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod quarantine;

pub use quarantine::{canary_for, QuarantineArena, QuarantineEntry, CANARY_BYTES};

use safemem_hashfx::FxHashMap;
use safemem_os::{Os, HEAP_BASE, PAGE_BYTES};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Size of the heap region every [`Heap`] places buffers in: 256 MiB of
/// address space from [`HEAP_BASE`].
pub const HEAP_BYTES: u64 = 1 << 28;

/// The largest payload every [`LayoutPolicy`] places in an empty heap.
/// [`PageGuard`](LayoutPolicy::PageGuard)'s two guard pages make it the
/// widest layout; [`LinePadded`](LayoutPolicy::LinePadded) with up to 8 pad
/// lines per side is narrower.
pub const MAX_ALLOC_BYTES: u64 = HEAP_BYTES - 2 * PAGE_BYTES;

/// Cache line size assumed by the line-based layouts. Matches the default
/// machine configuration; the granularity ablation constructs heaps with an
/// explicit [`Heap::with_line_size`].
pub const LINE_BYTES: u64 = 64;

/// How the allocator places buffers in the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LayoutPolicy {
    /// 16-byte alignment, size rounded to 16: the uninstrumented baseline.
    Natural,
    /// Cache-line alignment, size rounded to a whole number of lines.
    LineAligned,
    /// Line alignment plus one watched guard line before and after the
    /// buffer (SafeMem memory-corruption layout, paper §4).
    LinePadded,
    /// Page alignment plus one guard page before and after the buffer
    /// (Electric-Fence-style page-protection baseline, Table 4).
    PageGuard,
}

/// A live allocation as placed by the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Allocation {
    /// Address of the payload (what `malloc` returns).
    pub addr: u64,
    /// Requested payload size in bytes.
    pub payload: u64,
    /// Start of the whole placement, including any front padding.
    pub base: u64,
    /// Total footprint in bytes, including padding and rounding.
    pub stride: u64,
    /// `true` if this placement reuses a previously freed block.
    pub reused: bool,
}

impl Allocation {
    /// Bytes of guard/padding before the payload.
    #[must_use]
    pub fn pad_before(&self) -> u64 {
        self.addr - self.base
    }

    /// Bytes of guard/padding + rounding after the payload.
    #[must_use]
    pub fn pad_after(&self) -> u64 {
        self.base + self.stride - (self.addr + self.payload)
    }

    /// Total wasted bytes (everything that is not payload).
    #[must_use]
    pub fn waste(&self) -> u64 {
        self.stride - self.payload
    }
}

/// Allocator errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AllocError {
    /// The heap region is exhausted.
    OutOfHeap,
    /// `free`/`realloc` of an address that is not a live payload address
    /// (wild or double free).
    NotAllocated {
        /// The offending address.
        addr: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfHeap => write!(f, "heap region exhausted"),
            AllocError::NotAllocated { addr } => {
                write!(f, "free of non-allocated address {addr:#x}")
            }
        }
    }
}

impl Error for AllocError {}

/// Cumulative allocator statistics (drives Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HeapStats {
    /// Currently live payload bytes.
    pub live_payload: u64,
    /// Currently live footprint bytes (payload + waste).
    pub live_footprint: u64,
    /// Peak live payload bytes.
    pub peak_payload: u64,
    /// Peak live footprint bytes.
    pub peak_footprint: u64,
    /// Total allocations served.
    pub allocs: u64,
    /// Total frees served.
    pub frees: u64,
    /// Sum of payload bytes over all allocations ever made.
    pub cumulative_payload: u64,
    /// Sum of wasted bytes over all allocations ever made.
    pub cumulative_waste: u64,
}

impl HeapStats {
    /// Space overhead as a percentage of actual memory usage over the whole
    /// execution (Table 4's metric): wasted bytes per payload byte.
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        if self.cumulative_payload == 0 {
            0.0
        } else {
            self.cumulative_waste as f64 / self.cumulative_payload as f64 * 100.0
        }
    }
}

/// The heap allocator.
///
/// Metadata lives host-side (the simulated bytes are entirely the
/// application's); placements come from exact-footprint free lists with a
/// bump-pointer wilderness behind them.
#[derive(Debug)]
pub struct Heap {
    policy: LayoutPolicy,
    line_bytes: u64,
    pad_lines: u64,
    limit: u64,
    bump: u64,
    /// Payload address → allocation record.
    live: BTreeMap<u64, Allocation>,
    /// (footprint, payload offset) → freed placement bases available for
    /// reuse. Keying on the offset as well as the stride keeps placements
    /// from different layout policies (e.g. padded vs unpadded blocks of
    /// equal footprint in a sampling heap) from aliasing each other's
    /// payload addresses; with a single policy the offset is constant per
    /// stride, so behaviour is unchanged.
    free_lists: FxHashMap<(u64, u64), Vec<u64>>,
    stats: HeapStats,
}

impl Heap {
    /// Creates a heap with the given layout policy over the conventional
    /// heap region.
    #[must_use]
    pub fn new(policy: LayoutPolicy) -> Self {
        Heap::with_line_size(policy, LINE_BYTES)
    }

    /// Creates a heap whose line-based layouts use `line_bytes` (for the
    /// watch-granularity ablation).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two ≥ 8.
    #[must_use]
    pub fn with_line_size(policy: LayoutPolicy, line_bytes: u64) -> Self {
        Heap::with_options(policy, line_bytes, 1)
    }

    /// Creates a heap with full control: line size and the number of guard
    /// lines per side in the [`LinePadded`](LayoutPolicy::LinePadded)
    /// layout (the padding-width ablation; the paper uses 1 and notes
    /// longer paddings are possible, §4).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two ≥ 8 or `pad_lines` is 0.
    #[must_use]
    pub fn with_options(policy: LayoutPolicy, line_bytes: u64, pad_lines: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 8,
            "bad line size"
        );
        assert!(pad_lines > 0, "at least one pad line");
        Heap {
            policy,
            line_bytes,
            pad_lines,
            limit: HEAP_BASE + HEAP_BYTES,
            bump: HEAP_BASE,
            live: BTreeMap::new(),
            free_lists: FxHashMap::default(),
            stats: HeapStats::default(),
        }
    }

    /// The layout policy in force.
    #[must_use]
    pub fn policy(&self) -> LayoutPolicy {
        self.policy
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Number of live allocations.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Iterates over live allocations in address order (Purify's
    /// mark-and-sweep scans this).
    pub fn live_allocations(&self) -> impl Iterator<Item = &Allocation> {
        self.live.values()
    }

    /// Post-run integrity walk: every live placement must be well formed
    /// (payload inside its stride) and no two placements may overlap. A
    /// healthy heap always passes; recovery-mode tools run this after a
    /// survived corruption to back their "heap intact" claim.
    #[must_use]
    pub fn verify_integrity(&self) -> bool {
        let mut prev_end = 0u64;
        for a in self.live.values() {
            let well_formed =
                a.addr >= a.base && a.addr - a.base + a.payload <= a.stride && a.base >= HEAP_BASE;
            // `live` is keyed by payload address, so iteration is in
            // address order; disjoint placements keep base order identical
            // to address order (even with mixed per-allocation layouts),
            // making the pairwise overlap check complete.
            if !well_formed || a.base < prev_end {
                return false;
            }
            prev_end = a.base + a.stride;
        }
        true
    }

    /// The live allocation whose payload contains `addr`, if any.
    #[must_use]
    pub fn allocation_containing(&self, addr: u64) -> Option<&Allocation> {
        // Every live payload lies in [HEAP_BASE, bump), so this rejects
        // most of the non-pointer words a conservative scan asks about
        // without a tree search.
        if !(HEAP_BASE..self.bump).contains(&addr) {
            return None;
        }
        self.live
            .range(..=addr)
            .next_back()
            .map(|(_, a)| a)
            .filter(|a| addr < a.addr + a.payload)
    }

    /// The live allocation starting exactly at payload address `addr`.
    #[must_use]
    pub fn allocation_at(&self, addr: u64) -> Option<&Allocation> {
        self.live.get(&addr)
    }

    fn round_up(value: u64, to: u64) -> Option<u64> {
        value.div_ceil(to).checked_mul(to)
    }

    /// Footprint and payload offset for a request under `policy`, or
    /// `None` if the footprint does not fit a `u64`.
    fn placement(&self, policy: LayoutPolicy, size: u64) -> Option<(u64, u64)> {
        let size = size.max(1);
        Some(match policy {
            LayoutPolicy::Natural => (Self::round_up(size, 16)?, 0),
            LayoutPolicy::LineAligned => (Self::round_up(size, self.line_bytes)?, 0),
            LayoutPolicy::LinePadded => (
                Self::round_up(size, self.line_bytes)?
                    .checked_add(2 * self.pad_lines * self.line_bytes)?,
                self.pad_lines * self.line_bytes,
            ),
            LayoutPolicy::PageGuard => (
                Self::round_up(size, PAGE_BYTES)?.checked_add(2 * PAGE_BYTES)?,
                PAGE_BYTES,
            ),
        })
    }

    /// Allocates `size` bytes (`malloc`).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfHeap`] when the address space is gone.
    pub fn alloc(&mut self, os: &mut Os, size: u64) -> Result<Allocation, AllocError> {
        self.alloc_with_policy(os, size, self.policy)
    }

    /// Allocates `size` bytes under an explicit layout policy, overriding
    /// the heap-wide default for this placement only. This is how a
    /// sampling tool mixes guarded ([`LinePadded`](LayoutPolicy::LinePadded))
    /// and unguarded ([`LineAligned`](LayoutPolicy::LineAligned)) buffers in
    /// one heap; the `(stride, offset)` free-list keying keeps the two
    /// populations from reusing each other's placements.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfHeap`] when the address space is gone.
    pub fn alloc_with_policy(
        &mut self,
        os: &mut Os,
        size: u64,
        policy: LayoutPolicy,
    ) -> Result<Allocation, AllocError> {
        os.compute(os.machine().cost().allocator_op_cycles);
        let (stride, offset) = self.placement(policy, size).ok_or(AllocError::OutOfHeap)?;
        let (base, reused) = match self
            .free_lists
            .get_mut(&(stride, offset))
            .and_then(Vec::pop)
        {
            Some(base) => (base, true),
            None => {
                let base = Self::round_up(self.bump, stride.clamp(16, PAGE_BYTES))
                    .filter(|base| {
                        base.checked_add(stride)
                            .is_some_and(|end| end <= self.limit)
                    })
                    .ok_or(AllocError::OutOfHeap)?;
                self.bump = base + stride;
                (base, false)
            }
        };
        let allocation = Allocation {
            addr: base + offset,
            payload: size.max(1),
            base,
            stride,
            reused,
        };
        self.live.insert(allocation.addr, allocation);
        self.stats.allocs += 1;
        self.stats.live_payload += allocation.payload;
        self.stats.live_footprint += allocation.stride;
        self.stats.cumulative_payload += allocation.payload;
        self.stats.cumulative_waste += allocation.waste();
        self.stats.peak_payload = self.stats.peak_payload.max(self.stats.live_payload);
        self.stats.peak_footprint = self.stats.peak_footprint.max(self.stats.live_footprint);
        Ok(allocation)
    }

    /// Allocates zero-initialised memory (`calloc`).
    ///
    /// # Errors
    ///
    /// As for [`Heap::alloc`]. Zeroing a reused block writes through the
    /// simulated memory (fresh pages are already demand-zeroed).
    pub fn calloc(&mut self, os: &mut Os, size: u64) -> Result<Allocation, AllocError> {
        let allocation = self.alloc(os, size)?;
        if allocation.reused {
            let zeros = vec![0u8; allocation.payload as usize];
            os.vwrite(allocation.addr, &zeros)
                .expect("calloc zeroing of fresh allocation cannot fault");
        }
        Ok(allocation)
    }

    /// Frees the allocation at payload address `addr`, returning its record.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] for wild or double frees.
    pub fn free(&mut self, os: &mut Os, addr: u64) -> Result<Allocation, AllocError> {
        os.compute(os.machine().cost().allocator_op_cycles);
        let allocation = self
            .live
            .remove(&addr)
            .ok_or(AllocError::NotAllocated { addr })?;
        self.free_lists
            .entry((allocation.stride, allocation.pad_before()))
            .or_default()
            .push(allocation.base);
        self.stats.frees += 1;
        self.stats.live_payload -= allocation.payload;
        self.stats.live_footprint -= allocation.stride;
        Ok(allocation)
    }

    /// Address-space accounting: bytes handed out by the bump pointer,
    /// bytes parked on free lists awaiting reuse, and external fragmentation
    /// as a fraction (free-list bytes over bump extent).
    #[must_use]
    pub fn address_space(&self) -> (u64, u64, f64) {
        let extent = self.bump - HEAP_BASE;
        let parked: u64 = self
            .free_lists
            .iter()
            .map(|((stride, _offset), bases)| stride * bases.len() as u64)
            .sum();
        let frag = if extent == 0 {
            0.0
        } else {
            parked as f64 / extent as f64
        };
        (extent, parked, frag)
    }

    /// Resizes an allocation (`realloc`): places a new block, copies the
    /// overlapping prefix through simulated memory, frees the old block.
    /// Returns `(old_record, new_record)`.
    ///
    /// # Errors
    ///
    /// [`AllocError::NotAllocated`] if `addr` is not live, or
    /// [`AllocError::OutOfHeap`].
    pub fn realloc(
        &mut self,
        os: &mut Os,
        addr: u64,
        new_size: u64,
    ) -> Result<(Allocation, Allocation), AllocError> {
        let old = *self
            .live
            .get(&addr)
            .ok_or(AllocError::NotAllocated { addr })?;
        let new = self.alloc(os, new_size)?;
        let copy = old.payload.min(new.payload) as usize;
        let mut data = vec![0u8; copy];
        os.vread(old.addr, &mut data)
            .expect("realloc source readable");
        os.vwrite(new.addr, &data)
            .expect("realloc destination writable");
        self.free(os, addr).expect("old block is live");
        Ok((old, new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os() -> Os {
        Os::with_defaults(1 << 22)
    }

    #[test]
    fn natural_layout_alignment_and_waste() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::Natural);
        let a = h.alloc(&mut os, 20).unwrap();
        assert_eq!(a.addr % 16, 0);
        assert_eq!(a.stride, 32);
        assert_eq!(a.waste(), 12);
    }

    #[test]
    fn line_padded_layout_places_guard_lines() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::LinePadded);
        let a = h.alloc(&mut os, 100).unwrap();
        assert_eq!(a.addr % 64, 0);
        assert_eq!(a.pad_before(), 64);
        assert_eq!(a.pad_after(), 64 + (128 - 100));
        assert_eq!(a.stride, 128 + 128);
    }

    #[test]
    fn page_guard_layout_places_guard_pages() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::PageGuard);
        let a = h.alloc(&mut os, 100).unwrap();
        assert_eq!(a.addr % PAGE_BYTES, 0);
        assert_eq!(a.pad_before(), PAGE_BYTES);
        assert_eq!(a.stride, 3 * PAGE_BYTES);
    }

    #[test]
    fn page_guard_wastes_far_more_than_line_padded() {
        // The essence of Table 4.
        let mut os = os();
        let mut ecc = Heap::new(LayoutPolicy::LinePadded);
        let mut page = Heap::new(LayoutPolicy::PageGuard);
        for size in [24u64, 100, 512, 900] {
            ecc.alloc(&mut os, size).unwrap();
            page.alloc(&mut os, size).unwrap();
        }
        let ratio = page.stats().overhead_percent() / ecc.stats().overhead_percent();
        assert!(
            ratio > 20.0,
            "page/ECC waste ratio {ratio} unexpectedly small"
        );
    }

    #[test]
    fn allocations_never_overlap() {
        let mut os = os();
        for policy in [
            LayoutPolicy::Natural,
            LayoutPolicy::LineAligned,
            LayoutPolicy::LinePadded,
            LayoutPolicy::PageGuard,
        ] {
            let mut h = Heap::new(policy);
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for i in 1..40u64 {
                let a = h.alloc(&mut os, i * 7 % 300 + 1).unwrap();
                for &(b, e) in &spans {
                    assert!(
                        a.base >= e || a.base + a.stride <= b,
                        "overlap under {policy:?}"
                    );
                }
                spans.push((a.base, a.base + a.stride));
            }
        }
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::LineAligned);
        let a = h.alloc(&mut os, 64).unwrap();
        h.free(&mut os, a.addr).unwrap();
        let b = h.alloc(&mut os, 64).unwrap();
        assert_eq!(b.base, a.base);
        assert!(b.reused);
    }

    #[test]
    fn double_free_detected() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::Natural);
        let a = h.alloc(&mut os, 8).unwrap();
        h.free(&mut os, a.addr).unwrap();
        assert_eq!(
            h.free(&mut os, a.addr),
            Err(AllocError::NotAllocated { addr: a.addr })
        );
    }

    #[test]
    fn calloc_zeroes_reused_blocks() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::Natural);
        let a = h.alloc(&mut os, 32).unwrap();
        os.vwrite(a.addr, &[0xEE; 32]).unwrap();
        h.free(&mut os, a.addr).unwrap();
        let b = h.calloc(&mut os, 32).unwrap();
        assert_eq!(b.addr, a.addr);
        let mut buf = [0u8; 32];
        os.vread(b.addr, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
    }

    #[test]
    fn realloc_preserves_prefix() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::Natural);
        let a = h.alloc(&mut os, 16).unwrap();
        os.vwrite(a.addr, &[9u8; 16]).unwrap();
        let (_, b) = h.realloc(&mut os, a.addr, 64).unwrap();
        let mut buf = [0u8; 16];
        os.vread(b.addr, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 16]);
        assert!(h.allocation_at(a.addr).is_none() || a.addr == b.addr);
    }

    #[test]
    fn containing_lookup() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::LineAligned);
        let a = h.alloc(&mut os, 100).unwrap();
        assert_eq!(h.allocation_containing(a.addr + 50).unwrap().addr, a.addr);
        assert!(
            h.allocation_containing(a.addr + 100).is_none(),
            "end is exclusive"
        );
        assert!(h.allocation_containing(a.addr.wrapping_sub(1)).is_none());
    }

    #[test]
    fn containing_lookup_rejects_addresses_outside_the_bump_extent() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::Natural);
        assert!(h.allocation_containing(HEAP_BASE).is_none(), "empty heap");
        let a = h.alloc(&mut os, 20).unwrap();
        let b = h.alloc(&mut os, 40).unwrap();
        let bump = b.base + b.stride;
        assert_eq!(a.addr, HEAP_BASE);
        assert_eq!(h.allocation_containing(HEAP_BASE).unwrap().addr, a.addr);
        assert!(h.allocation_containing(HEAP_BASE - 1).is_none());
        assert_eq!(h.allocation_containing(b.addr + 39).unwrap().addr, b.addr);
        for outside in [bump, bump + 1, 0, 7, u64::MAX] {
            assert!(h.allocation_containing(outside).is_none(), "{outside:#x}");
        }
        // A freed-and-reused placement below the bump is still found.
        h.free(&mut os, a.addr).unwrap();
        assert!(h.allocation_containing(a.addr).is_none(), "freed");
        let c = h.alloc(&mut os, 20).unwrap();
        assert!(c.reused);
        assert_eq!(h.allocation_containing(c.addr + 19).unwrap().addr, c.addr);
    }

    #[test]
    fn stats_track_live_and_cumulative() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::LinePadded);
        let a = h.alloc(&mut os, 64).unwrap();
        let b = h.alloc(&mut os, 64).unwrap();
        assert_eq!(h.stats().live_payload, 128);
        assert_eq!(h.stats().allocs, 2);
        h.free(&mut os, a.addr).unwrap();
        assert_eq!(h.stats().live_payload, 64);
        assert_eq!(h.stats().cumulative_payload, 128);
        h.free(&mut os, b.addr).unwrap();
        assert_eq!(h.stats().live_payload, 0);
        assert_eq!(h.stats().peak_payload, 128);
        // Waste for 64-byte payload in LinePadded = two pad lines.
        assert_eq!(h.stats().cumulative_waste, 2 * 128);
        assert!((h.stats().overhead_percent() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn zero_size_allocation_is_valid_and_unique() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::Natural);
        let a = h.alloc(&mut os, 0).unwrap();
        let b = h.alloc(&mut os, 0).unwrap();
        assert_ne!(a.addr, b.addr);
    }

    #[test]
    fn address_space_accounting() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::LineAligned);
        assert_eq!(h.address_space(), (0, 0, 0.0));
        let a = h.alloc(&mut os, 64).unwrap();
        let b = h.alloc(&mut os, 64).unwrap();
        let (extent, parked, _) = h.address_space();
        assert_eq!(extent, 128);
        assert_eq!(parked, 0);
        h.free(&mut os, a.addr).unwrap();
        let (_, parked, frag) = h.address_space();
        assert_eq!(parked, 64);
        assert!((frag - 0.5).abs() < 1e-9);
        h.free(&mut os, b.addr).unwrap();
        assert_eq!(h.address_space().1, 128);
    }

    #[test]
    fn mixed_policy_blocks_of_equal_stride_do_not_alias() {
        // A padded 64-byte block (stride 192, payload at +64) and an
        // unpadded 192-byte block (stride 192, payload at +0) must not
        // trade placements through the free lists: an unpadded reuse of the
        // padded base would put live payload where the guard line was.
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::LinePadded);
        let padded = h.alloc(&mut os, 64).unwrap();
        assert_eq!(padded.stride, 192);
        h.free(&mut os, padded.addr).unwrap();
        let plain = h
            .alloc_with_policy(&mut os, 192, LayoutPolicy::LineAligned)
            .unwrap();
        assert_eq!(plain.stride, 192);
        assert!(!plain.reused, "cross-policy reuse of a padded base");
        assert_ne!(plain.base, padded.base);
        // Same policy and footprint still reuses.
        let again = h.alloc(&mut os, 64).unwrap();
        assert!(again.reused);
        assert_eq!(again.base, padded.base);
    }

    #[test]
    fn alloc_with_policy_matches_dedicated_heap_placement() {
        // An all-LineAligned stream through a LinePadded heap lands at the
        // same addresses a pure LineAligned heap would pick: bump rounding
        // depends only on the stride.
        let mut os = os();
        let mut mixed = Heap::new(LayoutPolicy::LinePadded);
        let mut pure = Heap::new(LayoutPolicy::LineAligned);
        for size in [8u64, 64, 100, 300, 1] {
            let a = mixed
                .alloc_with_policy(&mut os, size, LayoutPolicy::LineAligned)
                .unwrap();
            let b = pure.alloc(&mut os, size).unwrap();
            assert_eq!((a.addr, a.base, a.stride), (b.addr, b.base, b.stride));
            assert_eq!(a.pad_before(), 0);
        }
    }

    #[test]
    fn oversized_requests_are_out_of_heap() {
        // A footprint that overflows u64 is refused, not wrapped round to a
        // small placement.
        let mut os = os();
        for policy in [
            LayoutPolicy::Natural,
            LayoutPolicy::LineAligned,
            LayoutPolicy::LinePadded,
            LayoutPolicy::PageGuard,
        ] {
            let mut h = Heap::new(policy);
            for size in [u64::MAX, u64::MAX - 4096, HEAP_BYTES + 1] {
                assert_eq!(h.alloc(&mut os, size).unwrap_err(), AllocError::OutOfHeap);
            }
            assert_eq!(h.stats(), HeapStats::default());
            assert_eq!(h.address_space().0, 0);
        }
    }

    #[test]
    fn an_empty_heap_places_the_largest_allowed_payload_under_every_policy() {
        let mut os = os();
        let heaps = [
            Heap::new(LayoutPolicy::Natural),
            Heap::new(LayoutPolicy::LineAligned),
            Heap::with_options(LayoutPolicy::LinePadded, LINE_BYTES, 1),
            Heap::with_options(LayoutPolicy::LinePadded, LINE_BYTES, 2),
            Heap::with_options(LayoutPolicy::LinePadded, LINE_BYTES, 4),
            Heap::with_options(LayoutPolicy::LinePadded, LINE_BYTES, 8),
            Heap::new(LayoutPolicy::PageGuard),
        ];
        for mut h in heaps {
            let a = h.alloc(&mut os, MAX_ALLOC_BYTES).unwrap();
            assert_eq!(a.payload, MAX_ALLOC_BYTES);
            assert!(a.base + a.stride <= HEAP_BASE + HEAP_BYTES);
        }
        let mut h = Heap::new(LayoutPolicy::PageGuard);
        assert_eq!(
            h.alloc(&mut os, MAX_ALLOC_BYTES + 1).unwrap_err(),
            AllocError::OutOfHeap
        );
    }

    #[test]
    fn alloc_charges_time() {
        let mut os = os();
        let mut h = Heap::new(LayoutPolicy::Natural);
        let t0 = os.total_cycles();
        h.alloc(&mut os, 8).unwrap();
        assert!(os.total_cycles() > t0);
    }
}
