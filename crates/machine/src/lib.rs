//! The simulated physical machine for the SafeMem reproduction.
//!
//! Models the evaluation platform of the paper (§5.1): a 2.4 GHz processor
//! with an Intel-E7500-class ECC memory controller. A [`Machine`] owns
//!
//! * the [`EccController`] over physical memory,
//! * a [cache hierarchy](safemem_cache::Hierarchy) between CPU and memory,
//! * a cycle-accurate [`Clock`] and the calibrated [`CostModel`] that
//!   translates simulated events into cycles.
//!
//! All physical memory accesses flow through [`Machine::read`] /
//! [`Machine::write`]: the cache filters them, refills and writebacks reach
//! the controller where ECC is verified, and uncorrectable errors surface as
//! [`EccFault`]s — the raw material the OS layer turns
//! into SafeMem watchpoint hits.
//!
//! There is one memory substrate. Each `safemem-os` instance owns its
//! `Machine` outright, and a multi-process fleet gives every process (and
//! every restart generation of it) a machine of its own, sized to its
//! frame window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod dma;

pub use clock::Clock;
pub use cost::CostModel;
pub use dma::{DmaEngine, DmaStep, DmaTransfer};

use safemem_cache::{CacheConfig, Hierarchy, LineBacking, Traffic, WriteMissPolicy, MAX_LEVELS};
use safemem_ecc::codec::{LINE_BYTES as ECC_LINE_BYTES, LINE_GROUPS as ECC_LINE_GROUPS};
use safemem_ecc::{EccController, EccFault, EccMode, ScrambleScheme};

/// Adapter presenting the ECC controller as the cache hierarchy's backing.
struct CtlBacking<'a>(&'a mut EccController);

impl LineBacking for CtlBacking<'_> {
    type Error = EccFault;

    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Self::Error> {
        self.0.read(addr, buf)
    }

    fn write_line(&mut self, addr: u64, data: &[u8]) {
        self.0.write(addr, data);
    }

    fn write_through(&mut self, addr: u64, data: &[u8]) -> Result<(), Self::Error> {
        // The controller merges partial writes without verifying — memory
        // writes never ECC-check (paper §2.1).
        self.0.write(addr, data);
        Ok(())
    }
}

/// The cycle cost of each kind of cache traffic, read off the cost model
/// once when the machine is built, so charging an access is one pass over
/// a fixed-size record with no per-level lookup.
#[derive(Debug, Clone, Copy)]
struct TrafficCycles {
    level_hits: [u64; MAX_LEVELS],
    memory_read: u64,
    memory_write: u64,
}

impl TrafficCycles {
    fn new(cost: &CostModel) -> Self {
        TrafficCycles {
            level_hits: std::array::from_fn(|level| cost.level_hit_cycles(level)),
            memory_read: cost.memory_read_cycles,
            memory_write: cost.memory_write_cycles,
        }
    }

    /// Total cycles of `traffic`: per-level hit latencies plus DRAM refills
    /// and writebacks. Charging once per access (however many lines it
    /// spanned) rather than per line is exact — the cost is linear in the
    /// counters.
    fn of(&self, traffic: &Traffic) -> u64 {
        let hits: u64 = self
            .level_hits
            .iter()
            .zip(&traffic.level_hits)
            .map(|(cycles, hits)| cycles * hits)
            .sum();
        hits + traffic.memory_reads * self.memory_read + traffic.memory_writes * self.memory_write
    }
}

/// The simulated machine: CPU clock + caches + ECC memory.
///
/// # Example
///
/// ```
/// use safemem_machine::Machine;
///
/// let mut m = Machine::with_defaults(1 << 20);
/// m.write(0x1000, &[1, 2, 3]).unwrap();
/// let mut buf = [0u8; 3];
/// m.read(0x1000, &mut buf).unwrap();
/// assert_eq!(buf, [1, 2, 3]);
/// assert!(m.clock().cycles() > 0);
/// ```
pub struct Machine {
    controller: EccController,
    hierarchy: Hierarchy,
    clock: Clock,
    cost: CostModel,
    scramble: ScrambleScheme,
    traffic_cycles: TrafficCycles,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("clock", &self.clock)
            .field("controller", &self.controller)
            .field("hierarchy", &self.hierarchy)
            .finish()
    }
}

impl Machine {
    /// Builds a machine with explicit cache geometry and cost model.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` is zero or `caches` is empty/invalid.
    #[must_use]
    pub fn new(phys_bytes: u64, caches: Vec<CacheConfig>, cost: CostModel) -> Self {
        Machine::with_write_miss_policy(phys_bytes, caches, cost, WriteMissPolicy::WriteAllocate)
    }

    /// Builds a machine with an explicit cache write-miss policy. SafeMem
    /// requires [`WriteMissPolicy::WriteAllocate`]; the alternative exists
    /// to demonstrate why (see the cache crate's docs).
    ///
    /// # Panics
    ///
    /// As for [`Machine::new`].
    #[must_use]
    pub fn with_write_miss_policy(
        phys_bytes: u64,
        caches: Vec<CacheConfig>,
        cost: CostModel,
        policy: WriteMissPolicy,
    ) -> Self {
        let mut controller = EccController::new(phys_bytes);
        controller.set_mode(EccMode::CorrectError);
        Machine {
            controller,
            hierarchy: Hierarchy::with_write_miss_policy(caches, policy),
            clock: Clock::new(cost.cpu_hz),
            traffic_cycles: TrafficCycles::new(&cost),
            cost,
            scramble: ScrambleScheme::default(),
        }
    }

    /// Builds a machine with the default two-level cache and cost model.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` is zero.
    #[must_use]
    pub fn with_defaults(phys_bytes: u64) -> Self {
        Machine::new(
            phys_bytes,
            safemem_cache::default_two_level(),
            CostModel::default(),
        )
    }

    /// The simulated clock.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The calibrated cost model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Cache line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> u64 {
        u64::from(self.hierarchy.line_size())
    }

    /// Direct access to the memory controller (used by the OS layer for
    /// scramble sequences, scrub policy, and fault draining).
    #[must_use]
    pub fn controller_mut(&mut self) -> &mut EccController {
        &mut self.controller
    }

    /// Shared access to the memory controller.
    #[must_use]
    pub fn controller(&self) -> &EccController {
        &self.controller
    }

    /// The machine's scramble scheme (fixed per platform, like the 3 fixed
    /// bits of the paper's prototype).
    #[must_use]
    pub fn scramble(&self) -> ScrambleScheme {
        self.scramble
    }

    /// The cache hierarchy (for residency queries in tests).
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Enables or disables the next-line hardware prefetcher. Safe to
    /// combine with ECC watchpoints: prefetches of armed lines are squashed
    /// by the hardware, never raised as faults and never cached.
    pub fn set_prefetch(&mut self, on: bool) {
        self.hierarchy.set_prefetch(on);
        self.hierarchy.set_prefetch_limit(self.controller.size());
    }

    /// Charges the traffic of one access in one batch.
    fn charge(&mut self, traffic: &Traffic) {
        self.clock.advance(self.traffic_cycles.of(traffic));
    }

    /// Reads physical memory through the cache hierarchy, advancing the
    /// clock by the access cost.
    ///
    /// # Errors
    ///
    /// Returns the [`EccFault`] raised by a refill of an inconsistent (e.g.
    /// watched/scrambled) ECC group. The faulting line is not cached, so the
    /// access can be retried after the fault is handled.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        let mut traffic = Traffic::default();
        let result = self.hierarchy.read(
            addr,
            buf,
            &mut CtlBacking(&mut self.controller),
            &mut traffic,
        );
        self.charge(&traffic);
        if result.is_err() {
            self.clock.advance(self.cost.fault_detect_cycles);
        }
        result
    }

    /// Reads consecutive 8-byte words from `addr` into `buf` (whole words
    /// within one cache line) with one cache probe and one charge, and
    /// returns how many it read.
    ///
    /// The effect equals one [`Machine::read`] per word in address order,
    /// up to the first word that call sequence would reach with the clock
    /// at or past `deadline`; that word and the rest are left unread. The
    /// first word is always read, as a demand read that may miss; the
    /// others are L1 hits (see [`Hierarchy::read_run`]). The reads also
    /// stop after the first word if the prefetch that followed its miss
    /// evicted the line from L1.
    ///
    /// # Errors
    ///
    /// Returns the [`EccFault`] of the first word's faulted refill, as
    /// [`Machine::read`] does; no word was then read.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is empty, not whole words, or leaves the line, or if
    /// the line exceeds physical memory.
    pub fn read_line_words(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        deadline: u64,
    ) -> Result<usize, EccFault> {
        let start = self.clock.cycles();
        let rates = self.traffic_cycles;
        // Hit `k` (from 1) is served iff the clock before it, `start` plus
        // the demand read's cost plus `k - 1` hits, is below `deadline`:
        // that makes `⌈left / hit⌉` hits.
        let hits_before = |traffic: &Traffic| {
            let now = start + rates.of(traffic);
            match (deadline.checked_sub(now), rates.level_hits[0]) {
                (None | Some(0), _) => 0,
                (Some(_), 0) => u64::MAX,
                (Some(left), hit) => left.div_ceil(hit),
            }
        };
        let mut traffic = Traffic::default();
        let result = self.hierarchy.read_run(
            addr,
            buf,
            8,
            hits_before,
            &mut CtlBacking(&mut self.controller),
            &mut traffic,
        );
        self.charge(&traffic);
        if result.is_err() {
            self.clock.advance(self.cost.fault_detect_cycles);
        }
        result
    }

    /// Writes physical memory through the cache hierarchy (write-allocate),
    /// advancing the clock by the access cost.
    ///
    /// # Errors
    ///
    /// Returns the [`EccFault`] raised by the write-allocate refill if the
    /// target line is inconsistent — this is how *stores* to watched lines
    /// are caught (paper §2.2.2).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), EccFault> {
        let mut traffic = Traffic::default();
        let result = self.hierarchy.write(
            addr,
            buf,
            &mut CtlBacking(&mut self.controller),
            &mut traffic,
        );
        self.charge(&traffic);
        if result.is_err() {
            self.clock.advance(self.cost.fault_detect_cycles);
        }
        result
    }

    /// Flushes all cache lines overlapping `[addr, addr + len)` to memory,
    /// advancing the clock. Part of the `WatchMemory` sequence.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn flush_range(&mut self, addr: u64, len: u64) {
        let mut traffic = Traffic::default();
        let lines = len.div_ceil(self.line_size()).max(1);
        self.hierarchy.flush_range(
            addr,
            len,
            &mut CtlBacking(&mut self.controller),
            &mut traffic,
        );
        self.charge(&traffic);
        self.clock.advance(lines * self.cost.flush_line_cycles);
    }

    /// Writes back and empties the entire cache hierarchy.
    pub fn flush_all_caches(&mut self) {
        let mut traffic = Traffic::default();
        self.hierarchy
            .flush_all(&mut CtlBacking(&mut self.controller), &mut traffic);
        self.charge(&traffic);
    }

    /// Writes physical memory directly, bypassing the cache hierarchy — the
    /// kernel path used by the watch/unwatch sequences, which must not
    /// trigger write-allocate refills of the very line being manipulated.
    ///
    /// The caller is responsible for having flushed any cached copy first
    /// (the syscall layer does). Honours the controller's ECC-enable state:
    /// with ECC disabled the stored codes stay stale.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn write_uncached(&mut self, addr: u64, buf: &[u8]) {
        let lines = (buf.len() as u64).div_ceil(self.line_size()).max(1);
        self.controller.write(addr, buf);
        self.clock.advance(lines * self.cost.memory_write_cycles);
    }

    /// [`write_uncached`](Self::write_uncached) of one aligned line with
    /// caller-precomputed check codes (the watch-disarm fast path): same
    /// stored state, accounting, and clock charge, no re-encode.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned or lies outside memory.
    pub fn write_uncached_precoded(
        &mut self,
        addr: u64,
        data: &[u8; ECC_LINE_BYTES],
        codes: &[u8; ECC_LINE_GROUPS],
    ) {
        self.controller.write_line_precoded(addr, data, codes);
        self.clock.advance(self.cost.memory_write_cycles);
    }

    /// Reads physical memory directly, bypassing the cache hierarchy, with
    /// full ECC verification (kernel path).
    ///
    /// # Errors
    ///
    /// Returns the [`EccFault`] if any touched group is uncorrectable.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn read_uncached(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        let lines = (buf.len() as u64).div_ceil(self.line_size()).max(1);
        self.clock.advance(lines * self.cost.memory_read_cycles);
        self.controller.read(addr, buf)
    }

    /// Reads raw memory bytes without caches, checks, or time accounting —
    /// the diagnostic window used by the ECC fault handler.
    ///
    /// Note: cached dirty data is *not* visible here; this peeks at memory
    /// content exactly as the controller stores it, which is what the fault
    /// handler needs (the faulted line was just read from memory).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    #[must_use]
    pub fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        self.controller.peek(addr, len)
    }

    /// [`peek`](Self::peek) into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn peek_into(&self, addr: u64, out: &mut [u8]) {
        self.controller.peek_into(addr, out);
    }

    /// Models CPU-bound work: advances the clock by `cycles` without memory
    /// traffic.
    pub fn compute(&mut self, cycles: u64) {
        self.clock.advance(cycles);
    }

    /// Drains pending ECC faults (the simulated interrupt queue).
    pub fn take_faults(&mut self) -> Vec<EccFault> {
        self.controller.take_faults()
    }

    /// Runs one background scrub step of `groups` ECC groups, if the
    /// controller mode scrubs. Returns groups examined.
    pub fn scrub_step(&mut self, groups: u64) -> u64 {
        self.controller.scrub_step(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_ecc::FaultKind;

    #[test]
    fn roundtrip_and_time_advances() {
        let mut m = Machine::with_defaults(1 << 20);
        let t0 = m.clock().cycles();
        m.write(0x2000, &[7; 100]).unwrap();
        let t1 = m.clock().cycles();
        assert!(t1 > t0, "writes cost time");
        let mut buf = [0u8; 100];
        m.read(0x2000, &mut buf).unwrap();
        assert_eq!(buf, [7; 100]);
    }

    #[test]
    fn cache_hits_cost_less_than_misses() {
        let mut m = Machine::with_defaults(1 << 20);
        let mut buf = [0u8; 8];
        let t0 = m.clock().cycles();
        m.read(0x3000, &mut buf).unwrap(); // miss
        let miss_cost = m.clock().cycles() - t0;
        let t1 = m.clock().cycles();
        m.read(0x3000, &mut buf).unwrap(); // hit
        let hit_cost = m.clock().cycles() - t1;
        assert!(hit_cost < miss_cost, "hit {hit_cost} !< miss {miss_cost}");
    }

    #[test]
    fn full_watch_sequence_faults_and_recovers() {
        // The raw machine-level watch sequence the OS will wrap in syscalls.
        let mut m = Machine::with_defaults(1 << 20);
        let addr = 0x4000u64;
        let original = 0x1122_3344_5566_7788u64;
        m.write(addr, &original.to_le_bytes()).unwrap();

        // Arm: lock bus, flush the line, disable ECC, scramble, enable.
        let scheme = m.scramble();
        m.controller_mut().lock_bus();
        m.flush_range(addr, 8);
        m.controller_mut().set_enabled(false);
        m.write_uncached(addr, &scheme.apply(original).to_le_bytes());
        m.controller_mut().set_enabled(true);
        m.controller_mut().unlock_bus();

        // First access faults.
        let mut buf = [0u8; 8];
        let fault = m.read(addr, &mut buf).unwrap_err();
        assert_eq!(fault.kind, FaultKind::UncorrectableData);

        // Handler checks the signature against the stored original.
        let raw = u64::from_le_bytes(m.peek(addr, 8).try_into().unwrap());
        assert!(scheme.matches(original, raw));

        // Disarm: restore original data (ECC on, kernel path), then the
        // access succeeds.
        m.write_uncached(addr, &original.to_le_bytes());
        m.read(addr, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), original);
    }

    #[test]
    fn store_to_scrambled_line_faults_via_write_allocate() {
        let mut m = Machine::with_defaults(1 << 20);
        let addr = 0x5000u64;
        m.write(addr, &0u64.to_le_bytes()).unwrap();
        let scheme = m.scramble();
        m.flush_range(addr, 8);
        m.controller_mut().set_enabled(false);
        m.write_uncached(addr, &scheme.apply(0).to_le_bytes());
        m.controller_mut().set_enabled(true);
        // A *write* (store) to the watched line must also fault.
        assert!(m.write(addr, &[0xFF]).is_err());
    }

    #[test]
    fn no_write_allocate_defeats_store_watchpoints() {
        // Negative demonstration of §2.2.2: without write-allocate, a store
        // to a watched line silently destroys the watchpoint.
        let mut m = Machine::with_write_miss_policy(
            1 << 20,
            safemem_cache::default_two_level(),
            CostModel::default(),
            WriteMissPolicy::NoWriteAllocate,
        );
        let addr = 0x6000u64;
        m.write_uncached(addr, &0u64.to_le_bytes());
        let scheme = m.scramble();
        m.controller_mut().set_enabled(false);
        m.write_uncached(addr, &scheme.apply(0).to_le_bytes());
        m.controller_mut().set_enabled(true);
        // The store does NOT fault (no refill happens)...
        m.write(addr, &[0xFF]).expect("store slips through");
        // ...and the line is now half-overwritten with a fresh code: the
        // watchpoint is gone and subsequent reads are clean.
        let mut buf = [0u8; 1];
        m.read(addr, &mut buf).expect("watchpoint destroyed");
    }

    #[test]
    fn prefetcher_neither_fires_nor_destroys_watchpoints() {
        let mut m = Machine::with_defaults(1 << 20);
        m.set_prefetch(true);
        let addr = 0x7000u64; // the watched line
        m.write(addr - 64, &[1u8; 64]).unwrap();
        m.write(addr, &0u64.to_le_bytes()).unwrap();
        let scheme = m.scramble();
        m.flush_range(addr - 64, 128);
        m.controller_mut().set_enabled(false);
        m.write_uncached(addr, &scheme.apply(0).to_le_bytes());
        m.controller_mut().set_enabled(true);

        // Demand access to the PREVIOUS line prefetches the watched one:
        // the prefetch is squashed silently, no fault surfaces.
        let mut buf = [0u8; 8];
        m.read(addr - 64, &mut buf)
            .expect("prefetch must not fault");
        assert_eq!(m.hierarchy().residency(addr), None);
        // The watchpoint still fires on a demand access.
        assert!(m.read(addr, &mut buf).is_err());
    }

    #[test]
    fn empty_accesses_touch_nothing() {
        // A zero-byte access reads and writes no line: no cycles, no cache
        // lookup and no ECC check, even unaligned or inside a watched line.
        let mut m = Machine::with_defaults(1 << 20);
        m.read(0x1001, &mut []).unwrap();
        m.write(0x1003, &[]).unwrap();
        assert_eq!(m.clock().cycles(), 0);
        assert_eq!(
            m.hierarchy().level_stats(),
            vec![safemem_cache::LevelStats::default(); 2]
        );
        assert_eq!(m.controller().stats().groups_verified, 0);

        let addr = 0x4000u64;
        m.write(addr, &0u64.to_le_bytes()).unwrap();
        let scheme = m.scramble();
        m.flush_range(addr, 8);
        m.controller_mut().set_enabled(false);
        m.write_uncached(addr, &scheme.apply(0).to_le_bytes());
        m.controller_mut().set_enabled(true);
        let before = m.clock().cycles();
        assert!(m.read(addr + 8, &mut []).is_ok());
        assert!(m.write(addr + 16, &[]).is_ok());
        assert_eq!(m.clock().cycles(), before);
        assert!(m.read(addr, &mut [0u8; 1]).is_err(), "still armed");
    }

    #[test]
    fn line_words_equal_word_reads_up_to_the_deadline() {
        // From a cold line (a miss) and a resident one (a hit), and for
        // deadlines before, at and between the word boundaries: the same
        // words, bytes, clock and cache state as reading word by word
        // while the clock is below the deadline.
        let bytes: Vec<u8> = (0..128u8).collect();
        for warm in [false, true] {
            for offset in 0..40 {
                let fresh = || {
                    let mut m = Machine::with_defaults(1 << 20);
                    m.write_uncached(0x2000, &bytes);
                    if warm {
                        m.read(0x2000, &mut [0u8; 8]).unwrap();
                    }
                    m
                };
                let (mut bulk, mut words) = (fresh(), fresh());
                let deadline = bulk.clock().cycles() + offset * 7;
                let mut got = [0u8; 48];
                let read = bulk.read_line_words(0x2010, &mut got, deadline).unwrap();
                let mut want = Vec::new();
                while want.len() < 48 && (want.is_empty() || words.clock().cycles() < deadline) {
                    let mut w = [0u8; 8];
                    words.read(0x2010 + want.len() as u64, &mut w).unwrap();
                    want.extend_from_slice(&w);
                }
                assert_eq!(read * 8, want.len(), "warm {warm} offset {offset}");
                assert_eq!(&got[..want.len()], &want[..]);
                assert_eq!(bulk.clock().cycles(), words.clock().cycles());
                assert_eq!(
                    bulk.hierarchy().level_stats(),
                    words.hierarchy().level_stats()
                );
            }
        }
    }

    #[test]
    fn compute_advances_clock_without_memory_traffic() {
        let mut m = Machine::with_defaults(1 << 20);
        m.compute(1000);
        assert_eq!(m.clock().cycles(), 1000);
        assert_eq!(m.controller().stats().groups_verified, 0);
    }

    #[test]
    fn faults_are_queued_for_the_os() {
        let mut m = Machine::with_defaults(1 << 20);
        m.write(0x100, &[1; 8]).unwrap();
        m.flush_all_caches();
        m.controller_mut().inject_multi_bit_error(0x100);
        let mut buf = [0u8; 8];
        assert!(m.read(0x100, &mut buf).is_err());
        let faults = m.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].group_addr, 0x100);
    }

    #[test]
    fn ns_conversion_uses_cpu_frequency() {
        let mut m = Machine::with_defaults(1 << 20);
        m.compute(2_400_000_000); // one second of cycles at 2.4 GHz
        assert_eq!(m.clock().nanos(), 1_000_000_000);
    }
}
