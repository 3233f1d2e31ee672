//! Cache hierarchy simulator for the SafeMem reproduction.
//!
//! SafeMem's correctness argument (paper §2.2.2, "Dealing with Cache
//! Effects") depends on processor caches in two ways:
//!
//! 1. **Cache filtering** — ECC is only checked on *memory* accesses, so a
//!    watched line must be flushed from the caches when it is armed; the
//!    first subsequent access then misses, reaches memory, and triggers the
//!    ECC fault. Later accesses may be cache hits and are invisible, which is
//!    fine because only the *first* access matters.
//! 2. **Write detection** — writes to memory do not trigger ECC checks, but a
//!    write to an uncached line must first *refill* it (write-allocate),
//!    and that refill read does check. So flushing also makes writes
//!    detectable.
//!
//! This crate provides a byte-accurate, multi-level, *exclusive* (a line
//! lives in at most one level), write-back, write-allocate, LRU cache
//! hierarchy. The memory below it is abstracted by the [`LineBacking`] trait
//! so the cache crate stays independent of the ECC model; the machine crate
//! wires the two together.
//!
//! # Example
//!
//! ```
//! use safemem_cache::{CacheConfig, Hierarchy, LineBacking, Traffic};
//!
//! /// A trivial RAM backing.
//! struct Ram(Vec<u8>);
//! impl LineBacking for Ram {
//!     type Error = std::convert::Infallible;
//!     fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Self::Error> {
//!         let a = addr as usize;
//!         buf.copy_from_slice(&self.0[a..a + buf.len()]);
//!         Ok(())
//!     }
//!     fn write_line(&mut self, addr: u64, data: &[u8]) {
//!         let a = addr as usize;
//!         self.0[a..a + data.len()].copy_from_slice(data);
//!     }
//! }
//!
//! let mut ram = Ram(vec![0; 4096]);
//! let mut hier = Hierarchy::new(vec![
//!     CacheConfig { line_size: 64, sets: 2, ways: 2 },
//!     CacheConfig { line_size: 64, sets: 4, ways: 4 },
//! ]);
//! let mut t = Traffic::default();
//! hier.write(0x100, &[1, 2, 3], &mut ram, &mut t).unwrap();
//! let mut buf = [0u8; 3];
//! hier.read(0x100, &mut buf, &mut ram, &mut t).unwrap();
//! assert_eq!(buf, [1, 2, 3]);
//! assert_eq!(t.level_hits[0], 1); // second access hit in L1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The memory interface below the cache hierarchy.
///
/// Implemented by the machine crate over the ECC controller (where
/// `Error = EccFault`) and by plain RAM shims in tests. A `read_line` error
/// aborts the refill: the line is *not* installed, modelling a load that
/// takes an ECC interrupt instead of retiring.
pub trait LineBacking {
    /// Error raised by a failed line read (e.g. an uncorrectable ECC fault).
    type Error;
    /// Reads one full line at `addr` (line-aligned) into `buf`.
    ///
    /// # Errors
    ///
    /// Returns `Self::Error` if the line cannot be delivered.
    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Self::Error>;
    /// Writes one full line at `addr` (line-aligned). Writes never fail:
    /// memory writes do not perform ECC checks.
    fn write_line(&mut self, addr: u64, data: &[u8]);
    /// Writes an arbitrary (possibly partial-line) span directly to memory
    /// without any verification — the path a no-write-allocate cache takes
    /// on a write miss. The default performs a checked read-modify-write;
    /// real memory controllers override it with an unchecked merge.
    ///
    /// # Errors
    ///
    /// The default forwards `read_line` errors; overrides typically never
    /// fail (memory writes do not verify).
    fn write_through(&mut self, addr: u64, data: &[u8]) -> Result<(), Self::Error> {
        // Default: checked RMW of each touched line.
        let line = 64u64;
        let mut done = 0usize;
        while done < data.len() {
            let cur = addr + done as u64;
            let line_addr = cur & !(line - 1);
            let mut buf = vec![0u8; line as usize];
            self.read_line(line_addr, &mut buf)?;
            let lo = (cur - line_addr) as usize;
            let n = ((line_addr + line - cur) as usize).min(data.len() - done);
            buf[lo..lo + n].copy_from_slice(&data[done..done + n]);
            self.write_line(line_addr, &buf);
            done += n;
        }
        Ok(())
    }
}

/// What a write miss does (paper §2.2.2 depends on write-allocate: a store
/// to an uncached watched line must first *refill* it, and that refill read
/// is what triggers the ECC check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum WriteMissPolicy {
    /// Fetch the line into the cache, then write it (the common policy, and
    /// the one SafeMem requires).
    #[default]
    WriteAllocate,
    /// Send the store straight to memory without caching the line. Memory
    /// writes perform no ECC verification, so stores to watched lines are
    /// silently *missed* — this policy exists to demonstrate that SafeMem's
    /// correctness argument genuinely needs write-allocate.
    NoWriteAllocate,
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheConfig {
    /// Line size in bytes (power of two, ≥ 8). Must match across levels.
    pub line_size: u32,
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        u64::from(self.line_size) * u64::from(self.sets) * u64::from(self.ways)
    }

    fn validate(&self) {
        assert!(
            self.line_size.is_power_of_two() && self.line_size >= 8,
            "bad line size"
        );
        assert!(
            self.sets.is_power_of_two() && self.sets > 0,
            "bad set count"
        );
        assert!(self.ways > 0, "bad associativity");
    }
}

/// A typical small two-level configuration (8 KiB L1, 64 KiB L2, 64 B lines),
/// scaled down so workloads exercise misses.
#[must_use]
pub fn default_two_level() -> Vec<CacheConfig> {
    vec![
        CacheConfig {
            line_size: 64,
            sets: 32,
            ways: 4,
        },
        CacheConfig {
            line_size: 64,
            sets: 128,
            ways: 8,
        },
    ]
}

/// Per-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LevelStats {
    /// Line lookups that hit in this level.
    pub hits: u64,
    /// Line lookups that missed in this level.
    pub misses: u64,
    /// Lines evicted from this level (clean or dirty).
    pub evictions: u64,
}

/// The deepest hierarchy [`Hierarchy::new`] builds. [`Traffic`] keeps one
/// counter per possible level in a fixed array, so a record is a plain
/// value: made, charged and dropped on every access without a heap vector.
pub const MAX_LEVELS: usize = 4;

/// Traffic produced by one access (or accumulated across several);
/// `Traffic::default()` is the empty record.
///
/// The machine layer converts these counts into cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Traffic {
    /// Line accesses served by each level (index 0 = L1); entries beyond
    /// the hierarchy's depth stay zero.
    pub level_hits: [u64; MAX_LEVELS],
    /// Full-line reads that went to memory (refills).
    pub memory_reads: u64,
    /// Full-line writes that went to memory (writebacks + flushes).
    pub memory_writes: u64,
}

/// One way's tag and LRU stamp, side by side so that a set's ways share
/// one or two host cache lines. A stamp is the level's tick at the line's
/// last use: a fresh tick each time, so stamps are unique within a level.
#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    stamp: u64,
}

/// An empty way: its tag is never a line address (those are multiples of
/// the line size, at least 8), and its stamp is below every resident
/// line's, so the LRU scan picks it first.
const EMPTY: Way = Way {
    tag: u64::MAX,
    stamp: 0,
};

/// One level: flat arrays indexed by slot (`set * ways + way`).
struct CacheLevel {
    /// `log2(line_size)`: a line address shifted right by this is its line
    /// number, whose low bits (`set_mask`) are its set.
    line_shift: u32,
    set_mask: u64,
    ways: usize,
    line_size: usize,
    way: Vec<Way>,
    dirty: Vec<bool>,
    /// One bit per slot, set while the slot holds a line.
    occupied: Vec<u64>,
    /// The lines' bytes: slot `s` at `[s * line_size, (s + 1) * line_size)`.
    data: Vec<u8>,
    stats: LevelStats,
    /// Advances once per probe (hit or miss) and once per install.
    tick: u64,
}

impl CacheLevel {
    fn new(config: CacheConfig) -> Self {
        config.validate();
        let slots = config.sets as usize * config.ways as usize;
        CacheLevel {
            line_shift: config.line_size.trailing_zeros(),
            set_mask: u64::from(config.sets) - 1,
            ways: config.ways as usize,
            line_size: config.line_size as usize,
            way: vec![EMPTY; slots],
            dirty: vec![false; slots],
            occupied: vec![0; slots.div_ceil(64)],
            data: vec![0; slots * config.line_size as usize],
            stats: LevelStats::default(),
            tick: 0,
        }
    }

    /// The ways of the set `line_addr` maps to, and the first one's slot.
    #[inline]
    fn set(&self, line_addr: u64) -> (usize, &[Way]) {
        let base = ((line_addr >> self.line_shift) & self.set_mask) as usize * self.ways;
        (base, &self.way[base..base + self.ways])
    }

    /// The slot holding `line_addr`, if resident. Changes nothing.
    #[inline]
    fn find(&self, line_addr: u64) -> Option<usize> {
        let (base, set) = self.set(line_addr);
        set.iter()
            .position(|w| w.tag == line_addr)
            .map(|w| base + w)
    }

    /// `hits` back-to-back hits on a resident line, each counted as the
    /// lookup and reinstall it stands for: the tick advances twice per hit
    /// and the line takes the final tick. Returns `None`, changing nothing,
    /// on a miss; zero hits change nothing either.
    #[inline]
    fn touch(&mut self, line_addr: u64, hits: u64) -> Option<usize> {
        let slot = self.find(line_addr)?;
        self.hit(slot, hits);
        Some(slot)
    }

    /// [`touch`](Self::touch) of the line in `slot`.
    #[inline]
    fn hit(&mut self, slot: usize, hits: u64) {
        if hits > 0 {
            self.tick += 2 * hits;
            self.stats.hits += hits;
            self.way[slot].stamp = self.tick;
        }
    }

    /// The slot a line of `line_addr` is installed into: an empty way of
    /// its set if there is one, else the least recently used way (the
    /// first of the lowest stamps, so the first empty way).
    #[inline]
    fn lru_slot(&self, line_addr: u64) -> usize {
        let (base, set) = self.set(line_addr);
        let (mut lru, mut oldest) = (0, set[0].stamp);
        for (w, way) in set.iter().enumerate().skip(1) {
            if way.stamp < oldest {
                (lru, oldest) = (w, way.stamp);
            }
        }
        base + lru
    }

    #[inline]
    fn line(&self, slot: usize) -> &[u8] {
        &self.data[slot * self.line_size..(slot + 1) * self.line_size]
    }

    #[inline]
    fn line_mut(&mut self, slot: usize) -> &mut [u8] {
        &mut self.data[slot * self.line_size..(slot + 1) * self.line_size]
    }

    /// Marks `slot`, whose bytes the caller has written, as holding `tag`,
    /// stamped with the current tick.
    #[inline]
    fn fill(&mut self, slot: usize, tag: u64, dirty: bool) {
        self.way[slot].tag = tag;
        self.way[slot].stamp = self.tick;
        self.dirty[slot] = dirty;
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn vacate(&mut self, slot: usize) {
        self.way[slot] = EMPTY;
        self.dirty[slot] = false;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// Invalidates `slot`, writing its line back first if dirty. Returns
    /// whether it was.
    fn flush_slot<B: LineBacking + ?Sized>(
        &mut self,
        slot: usize,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> bool {
        let dirty = self.dirty[slot];
        if dirty {
            backing.write_line(self.way[slot].tag, self.line(slot));
            traffic.memory_writes += 1;
        }
        self.vacate(slot);
        dirty
    }
}

/// A multi-level exclusive write-back cache hierarchy.
///
/// *Exclusive* means every line is resident in at most one level: hits in a
/// lower level promote the line to L1, with LRU victims cascading downward
/// and dirty bottom-level victims written back to memory. This keeps the
/// contents model simple while preserving the two behaviours SafeMem needs
/// (filtering and flush).
pub struct Hierarchy {
    levels: Vec<CacheLevel>,
    line_size: u32,
    write_miss: WriteMissPolicy,
    /// Next-line prefetch on demand misses. Prefetches of lines whose
    /// refill fails (e.g. an armed ECC watchpoint) are squashed silently,
    /// exactly as hardware prefetchers drop lines with ECC errors — so
    /// prefetching neither false-fires nor destroys watchpoints.
    prefetch_next_line: bool,
    /// Highest address (exclusive) the prefetcher may touch — the physical
    /// memory size. Demand accesses are bounds-checked by the backing;
    /// speculative ones must not run off the end.
    prefetch_limit: u64,
    prefetches_issued: u64,
    prefetches_squashed: u64,
    /// Where a line bound for L1 waits: a refill (so a faulted one installs
    /// nothing), or a line taken out of a lower level.
    line_buf: Box<[u8]>,
}

impl fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hierarchy")
            .field("levels", &self.levels.len())
            .field("line_size", &self.line_size)
            .finish()
    }
}

impl Hierarchy {
    /// Builds a hierarchy from per-level geometries (index 0 = L1).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or deeper than [`MAX_LEVELS`], any
    /// geometry is invalid, or line sizes differ across levels.
    #[must_use]
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        Hierarchy::with_write_miss_policy(configs, WriteMissPolicy::WriteAllocate)
    }

    /// Builds a hierarchy with an explicit write-miss policy (see
    /// [`WriteMissPolicy`] for why anything but write-allocate breaks
    /// SafeMem's store detection).
    ///
    /// # Panics
    ///
    /// As for [`Hierarchy::new`].
    #[must_use]
    pub fn with_write_miss_policy(configs: Vec<CacheConfig>, write_miss: WriteMissPolicy) -> Self {
        assert!(!configs.is_empty(), "hierarchy needs at least one level");
        assert!(
            configs.len() <= MAX_LEVELS,
            "a cache hierarchy has at most {MAX_LEVELS} levels, not {}",
            configs.len()
        );
        let line_size = configs[0].line_size;
        for c in &configs {
            c.validate();
            assert_eq!(
                c.line_size, line_size,
                "line sizes must match across levels"
            );
        }
        Hierarchy {
            levels: configs.into_iter().map(CacheLevel::new).collect(),
            line_size,
            write_miss,
            prefetch_next_line: false,
            prefetch_limit: u64::MAX,
            prefetches_issued: 0,
            prefetches_squashed: 0,
            line_buf: vec![0; line_size as usize].into_boxed_slice(),
        }
    }

    /// Enables or disables the next-line prefetcher.
    pub fn set_prefetch(&mut self, on: bool) {
        self.prefetch_next_line = on;
    }

    /// Sets the exclusive address bound for speculative accesses (the
    /// physical memory size). Demand accesses are unaffected.
    pub fn set_prefetch_limit(&mut self, limit: u64) {
        self.prefetch_limit = limit;
    }

    /// (prefetches issued, prefetches squashed by failed refills).
    #[must_use]
    pub fn prefetch_stats(&self) -> (u64, u64) {
        (self.prefetches_issued, self.prefetches_squashed)
    }

    /// The write-miss policy in force.
    #[must_use]
    pub fn write_miss_policy(&self) -> WriteMissPolicy {
        self.write_miss
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> u32 {
        self.line_size
    }

    /// Number of levels.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Per-level counters.
    #[must_use]
    pub fn level_stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(|l| l.stats).collect()
    }

    /// Returns the level (0-based) currently holding the line containing
    /// `addr`, if any.
    #[must_use]
    pub fn residency(&self, addr: u64) -> Option<usize> {
        let line_addr = self.line_addr(addr);
        self.levels
            .iter()
            .position(|lvl| lvl.find(line_addr).is_some())
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(u64::from(self.line_size) - 1)
    }

    /// Makes room at L1 for a line tagged `tag`, advancing each visited
    /// level's tick for its install, and returns the L1 slot for the caller
    /// to fill. Victims are chosen in one top-down pass: each level's LRU
    /// way, whose line then needs room one level down, until a level has an
    /// empty way or the last level's victim leaves (written back if dirty).
    /// They are then moved bottom-up, each into the slot freed below it.
    fn make_room<B: LineBacking + ?Sized>(
        &mut self,
        tag: u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> usize {
        let mut slots = [0usize; MAX_LEVELS];
        let mut moves = 0;
        let mut tag = tag;
        let last = self.levels.len() - 1;
        for (idx, level) in self.levels.iter_mut().enumerate() {
            level.tick += 1;
            let slot = level.lru_slot(tag);
            slots[idx] = slot;
            let victim = level.way[slot];
            if victim.stamp == EMPTY.stamp {
                break;
            }
            level.stats.evictions += 1;
            if idx == last {
                if level.dirty[slot] {
                    backing.write_line(victim.tag, level.line(slot));
                    traffic.memory_writes += 1;
                }
                break;
            }
            tag = victim.tag;
            moves = idx + 1;
        }
        for idx in (0..moves).rev() {
            let (upper, lower) = self.levels.split_at_mut(idx + 1);
            let (from, to) = (&upper[idx], &mut lower[0]);
            let (slot, below) = (slots[idx], slots[idx + 1]);
            to.line_mut(below).copy_from_slice(from.line(slot));
            to.fill(below, from.way[slot].tag, from.dirty[slot]);
        }
        slots[0]
    }

    /// Installs the line waiting in `line_buf` at L1, cascading victims
    /// downward. Returns its L1 slot.
    fn install_buf<B: LineBacking + ?Sized>(
        &mut self,
        line_addr: u64,
        dirty: bool,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> usize {
        let slot = self.make_room(line_addr, backing, traffic);
        let l1 = &mut self.levels[0];
        l1.line_mut(slot).copy_from_slice(&self.line_buf);
        l1.fill(slot, line_addr, dirty);
        slot
    }

    /// Brings a line that missed in L1 into L1: each lower level is probed
    /// once, a hit there moves the line up, and a full miss refills it from
    /// memory. A faulted refill installs nothing. Returns the line's L1
    /// slot and whether it came from memory.
    fn ensure_in_l1<B: LineBacking + ?Sized>(
        &mut self,
        line_addr: u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> Result<(usize, bool), B::Error> {
        let l1 = &mut self.levels[0];
        l1.tick += 1;
        l1.stats.misses += 1;
        let mut hit_dirty = None;
        for (idx, level) in self.levels.iter_mut().enumerate().skip(1) {
            level.tick += 1;
            let Some(slot) = level.find(line_addr) else {
                level.stats.misses += 1;
                continue;
            };
            level.stats.hits += 1;
            traffic.level_hits[idx] += 1;
            self.line_buf.copy_from_slice(level.line(slot));
            hit_dirty = Some(level.dirty[slot]);
            level.vacate(slot);
            break;
        }
        if hit_dirty.is_none() {
            backing.read_line(line_addr, &mut self.line_buf)?;
            traffic.memory_reads += 1;
        }
        let slot = self.install_buf(line_addr, hit_dirty == Some(true), backing, traffic);
        Ok((slot, hit_dirty.is_none()))
    }

    /// Reads `buf.len()` bytes at `addr` through the hierarchy. An empty
    /// `buf` touches nothing.
    ///
    /// # Errors
    ///
    /// Propagates the backing's error from a faulted refill; lines before the
    /// fault may already have been read.
    pub fn read<B: LineBacking + ?Sized>(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> Result<(), B::Error> {
        if buf.is_empty() {
            return Ok(());
        }
        let ls = u64::from(self.line_size);
        let end = addr + buf.len() as u64;
        let mut line_addr = self.line_addr(addr);
        while line_addr < end {
            let lo = line_addr.max(addr);
            let hi = (line_addr + ls).min(end);
            let (slot, missed) = match self.levels[0].touch(line_addr, 1) {
                Some(slot) => {
                    traffic.level_hits[0] += 1;
                    (slot, false)
                }
                None => self.ensure_in_l1(line_addr, backing, traffic)?,
            };
            buf[(lo - addr) as usize..(hi - addr) as usize].copy_from_slice(
                &self.levels[0].line(slot)[(lo - line_addr) as usize..(hi - line_addr) as usize],
            );
            if missed {
                self.maybe_prefetch(line_addr + ls, backing, traffic);
            }
            line_addr += ls;
        }
        Ok(())
    }

    /// Serves back-to-back reads of `width` bytes each at `addr`, `addr +
    /// width`, ... into consecutive chunks of `buf` (which stays in one
    /// line), probing L1 once. The first read is an ordinary demand read:
    /// an L1 hit, or a miss that brings the line into L1 and may prefetch
    /// the next one. Each further read is an L1 hit on the same line, up to
    /// the bound `max_hits` returns when given the traffic so far (after
    /// the demand read). They stop early if the demand read's prefetch
    /// evicted the line from L1.
    ///
    /// The effect equals [`Hierarchy::read`] of each of the first `1 + k`
    /// chunks in turn, where `k` is the bound (capped at the reads `buf`
    /// holds), or `0` if the line left L1: each hit advances L1's tick by
    /// two, the line's LRU stamp takes the final tick, and every hit is
    /// counted in L1's stats and in `traffic`. Returns the number of reads
    /// served, `1 + k`, whose bytes are in `buf[..(1 + k) * width]`.
    ///
    /// # Errors
    ///
    /// Propagates the backing's error from a faulted refill; no read was
    /// then served.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, `buf` is empty or not a multiple of
    /// `width` long, or `[addr, addr + buf.len())` leaves the line.
    pub fn read_run<B: LineBacking + ?Sized>(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        width: usize,
        max_hits: impl FnOnce(&Traffic) -> u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> Result<usize, B::Error> {
        let line_addr = self.line_addr(addr);
        let lo = (addr - line_addr) as usize;
        assert!(
            width > 0 && !buf.is_empty() && buf.len().is_multiple_of(width),
            "read_run needs whole reads"
        );
        assert!(
            lo + buf.len() <= self.line_size as usize,
            "read_run span leaves the line"
        );
        let further = (buf.len() / width - 1) as u64;
        let (slot, hits) = if let Some(slot) = self.levels[0].find(line_addr) {
            traffic.level_hits[0] += 1;
            let hits = max_hits(traffic).min(further);
            self.levels[0].hit(slot, 1 + hits);
            (slot, hits)
        } else {
            let (slot, from_memory) = self.ensure_in_l1(line_addr, backing, traffic)?;
            if from_memory {
                buf[..width].copy_from_slice(&self.levels[0].line(slot)[lo..lo + width]);
                self.maybe_prefetch(line_addr + u64::from(self.line_size), backing, traffic);
                if self.levels[0].way[slot].tag != line_addr {
                    return Ok(1);
                }
            }
            let hits = max_hits(traffic).min(further);
            self.levels[0].hit(slot, hits);
            (slot, hits)
        };
        traffic.level_hits[0] += hits;
        let served = (1 + hits as usize) * width;
        buf[..served].copy_from_slice(&self.levels[0].line(slot)[lo..lo + served]);
        Ok(1 + hits as usize)
    }

    /// Next-line prefetch after a demand miss. A failed refill (ECC fault)
    /// squashes the prefetch without surfacing the error — hardware drops
    /// prefetched lines with errors rather than raising interrupts, which is
    /// exactly what keeps prefetching compatible with ECC watchpoints.
    fn maybe_prefetch<B: LineBacking + ?Sized>(
        &mut self,
        line_addr: u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) {
        if !self.prefetch_next_line
            || line_addr + u64::from(self.line_size) > self.prefetch_limit
            || self.residency(line_addr).is_some()
        {
            return;
        }
        self.prefetches_issued += 1;
        if backing.read_line(line_addr, &mut self.line_buf).is_err() {
            self.prefetches_squashed += 1;
            return;
        }
        traffic.memory_reads += 1;
        self.install_buf(line_addr, false, backing, traffic);
    }

    /// Writes `data` at `addr` through the hierarchy (write-allocate: a miss
    /// refills the line first, so writes to uncached lines do read memory —
    /// the property SafeMem relies on to catch stores to watched lines).
    /// An empty `data` touches nothing.
    ///
    /// # Errors
    ///
    /// Propagates the backing's error from a faulted refill.
    pub fn write<B: LineBacking + ?Sized>(
        &mut self,
        addr: u64,
        data: &[u8],
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> Result<(), B::Error> {
        if data.is_empty() {
            return Ok(());
        }
        let ls = u64::from(self.line_size);
        let end = addr + data.len() as u64;
        let mut line_addr = self.line_addr(addr);
        while line_addr < end {
            let lo = line_addr.max(addr);
            let hi = (line_addr + ls).min(end);
            let chunk = &data[(lo - addr) as usize..(hi - addr) as usize];
            // A hit never consults the write-miss policy.
            let (slot, missed) = match self.levels[0].touch(line_addr, 1) {
                Some(slot) => {
                    traffic.level_hits[0] += 1;
                    (slot, false)
                }
                None if self.write_miss == WriteMissPolicy::NoWriteAllocate
                    && self.residency(line_addr).is_none() =>
                {
                    // No-write-allocate: the store bypasses the cache.
                    // Memory writes never verify ECC, so watched lines are
                    // NOT caught.
                    backing.write_through(lo, chunk)?;
                    traffic.memory_writes += 1;
                    line_addr += ls;
                    continue;
                }
                None => self.ensure_in_l1(line_addr, backing, traffic)?,
            };
            let l1 = &mut self.levels[0];
            l1.line_mut(slot)[(lo - line_addr) as usize..(hi - line_addr) as usize]
                .copy_from_slice(chunk);
            l1.dirty[slot] = true;
            if missed {
                // A write-allocate miss is a demand miss too.
                self.maybe_prefetch(line_addr + ls, backing, traffic);
            }
            line_addr += ls;
        }
        Ok(())
    }

    /// Flushes the line containing `addr`: writes it back to memory if dirty
    /// and invalidates it everywhere, so the next access must go to memory.
    ///
    /// This is the cache half of the `WatchMemory` implementation (paper
    /// Figure 2). Returns `true` if a writeback occurred.
    pub fn flush_line<B: LineBacking + ?Sized>(
        &mut self,
        addr: u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> bool {
        let line_addr = self.line_addr(addr);
        for level in &mut self.levels {
            if let Some(slot) = level.find(line_addr) {
                return level.flush_slot(slot, backing, traffic);
            }
        }
        false
    }

    /// Flushes every line in `[addr, addr + len)`.
    ///
    /// Returns the number of dirty writebacks.
    pub fn flush_range<B: LineBacking + ?Sized>(
        &mut self,
        addr: u64,
        len: u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> u64 {
        let ls = u64::from(self.line_size);
        let mut writebacks = 0;
        let mut line_addr = self.line_addr(addr);
        while line_addr < addr + len {
            if self.flush_line(line_addr, backing, traffic) {
                writebacks += 1;
            }
            line_addr += ls;
        }
        writebacks
    }

    /// Writes back every dirty line and empties the hierarchy, walking the
    /// occupancy bitmaps.
    pub fn flush_all<B: LineBacking + ?Sized>(&mut self, backing: &mut B, traffic: &mut Traffic) {
        for level in &mut self.levels {
            for w in 0..level.occupied.len() {
                let mut bits = level.occupied[w];
                while bits != 0 {
                    let slot = 64 * w + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    level.flush_slot(slot, backing, traffic);
                }
            }
        }
    }

    /// Asserts the exclusive invariant: no line resident in two levels.
    /// Intended for tests.
    pub fn assert_exclusive(&self) {
        let mut seen = std::collections::HashSet::new();
        for level in &self.levels {
            for addr in level.way.iter().map(|w| w.tag).filter(|&t| t != EMPTY.tag) {
                assert!(seen.insert(addr), "line {addr:#x} resident in two levels");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ram(Vec<u8>);

    impl Ram {
        fn new(size: usize) -> Self {
            Ram(vec![0; size])
        }
    }

    impl LineBacking for Ram {
        type Error = std::convert::Infallible;
        fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Self::Error> {
            let a = addr as usize;
            buf.copy_from_slice(&self.0[a..a + buf.len()]);
            Ok(())
        }
        fn write_line(&mut self, addr: u64, data: &[u8]) {
            let a = addr as usize;
            self.0[a..a + data.len()].copy_from_slice(data);
        }
    }

    /// A backing that fails reads of designated lines, like a watched line.
    struct FaultyRam {
        ram: Ram,
        poisoned: std::collections::HashSet<u64>,
    }

    impl LineBacking for FaultyRam {
        type Error = u64;
        fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Self::Error> {
            if self.poisoned.contains(&addr) {
                return Err(addr);
            }
            self.ram.read_line(addr, buf).unwrap();
            Ok(())
        }
        fn write_line(&mut self, addr: u64, data: &[u8]) {
            self.ram.write_line(addr, data);
        }
    }

    fn small() -> Hierarchy {
        Hierarchy::new(vec![
            CacheConfig {
                line_size: 64,
                sets: 2,
                ways: 2,
            },
            CacheConfig {
                line_size: 64,
                sets: 4,
                ways: 2,
            },
        ])
    }

    #[test]
    fn read_after_write_same_line() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        h.write(100, &[9, 8, 7], &mut ram, &mut t).unwrap();
        let mut buf = [0u8; 3];
        h.read(100, &mut buf, &mut ram, &mut t).unwrap();
        assert_eq!(buf, [9, 8, 7]);
        // Dirty data has not reached memory yet (write-back).
        assert_eq!(ram.0[100], 0);
    }

    #[test]
    fn miss_then_hit() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        ram.0[0..4].copy_from_slice(&[1, 2, 3, 4]);
        let mut t = Traffic::default();
        let mut buf = [0u8; 4];
        h.read(0, &mut buf, &mut ram, &mut t).unwrap();
        assert_eq!(t.memory_reads, 1);
        h.read(0, &mut buf, &mut ram, &mut t).unwrap();
        assert_eq!(t.memory_reads, 1, "second read must be a cache hit");
        assert_eq!(t.level_hits[0], 1);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn dirty_eviction_reaches_memory_through_cascade() {
        // L1: 2 sets x 2 ways; lines mapping to set 0 are multiples of 128.
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        // Fill set 0 of L1 and L2 beyond capacity with dirty lines:
        // 2 (L1) + 2 (L2 set) → the 5th+ dirty line forces a memory write.
        for i in 0..8u64 {
            h.write(i * 128, &[i as u8; 4], &mut ram, &mut t).unwrap();
        }
        assert!(t.memory_writes > 0, "dirty victims must reach memory");
        // All data still readable and correct.
        for i in 0..8u64 {
            let mut buf = [0u8; 4];
            h.read(i * 128, &mut buf, &mut ram, &mut t).unwrap();
            assert_eq!(buf, [i as u8; 4]);
        }
        h.assert_exclusive();
    }

    #[test]
    fn promote_on_l2_hit_is_exclusive() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        // Load three lines of the same L1 set: the first spills to L2.
        for i in 0..3u64 {
            let mut b = [0u8; 1];
            h.read(i * 128, &mut b, &mut ram, &mut t).unwrap();
        }
        h.assert_exclusive();
        assert_eq!(h.residency(0), Some(1), "line 0 demoted to L2");
        // Touch line 0 again: promoted back to L1, L2 hit recorded.
        let mut b = [0u8; 1];
        h.read(0, &mut b, &mut ram, &mut t).unwrap();
        assert_eq!(h.residency(0), Some(0));
        assert_eq!(t.level_hits[1], 1);
        h.assert_exclusive();
    }

    #[test]
    fn flush_line_writes_back_and_invalidates() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        h.write(64, &[0xAB; 8], &mut ram, &mut t).unwrap();
        assert!(
            h.flush_line(70, &mut ram, &mut t),
            "dirty line written back"
        );
        assert_eq!(&ram.0[64..72], &[0xAB; 8]);
        assert_eq!(h.residency(64), None);
        // Next read goes to memory again.
        let before = t.memory_reads;
        let mut b = [0u8; 1];
        h.read(64, &mut b, &mut ram, &mut t).unwrap();
        assert_eq!(t.memory_reads, before + 1);
    }

    #[test]
    fn flush_clean_line_is_not_a_writeback() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        let mut b = [0u8; 1];
        h.read(0, &mut b, &mut ram, &mut t).unwrap();
        assert!(!h.flush_line(0, &mut ram, &mut t));
        assert_eq!(h.residency(0), None);
    }

    #[test]
    fn flush_range_covers_partial_lines() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        h.write(60, &[1; 10], &mut ram, &mut t).unwrap(); // straddles lines 0 and 64
        let wb = h.flush_range(60, 10, &mut ram, &mut t);
        assert_eq!(wb, 2);
        assert_eq!(h.residency(0), None);
        assert_eq!(h.residency(64), None);
    }

    #[test]
    fn faulted_refill_is_not_installed() {
        let mut h = small();
        let mut ram = FaultyRam {
            ram: Ram::new(1 << 16),
            poisoned: [64u64].into_iter().collect(),
        };
        let mut t = Traffic::default();
        let mut b = [0u8; 1];
        assert_eq!(h.read(64, &mut b, &mut ram, &mut t), Err(64));
        assert_eq!(h.residency(64), None, "faulted line must not be cached");
        // After "unwatching" (unpoisoning), the access succeeds.
        ram.poisoned.clear();
        h.read(64, &mut b, &mut ram, &mut t).unwrap();
        assert_eq!(h.residency(64), Some(0));
    }

    #[test]
    fn write_miss_allocates_and_reads_memory() {
        let mut h = small();
        let mut ram = FaultyRam {
            ram: Ram::new(1 << 16),
            poisoned: [128u64].into_iter().collect(),
        };
        let mut t = Traffic::default();
        // A store to a poisoned (watched) line faults via write-allocate.
        assert_eq!(h.write(130, &[1], &mut ram, &mut t), Err(128));
    }

    #[test]
    fn flush_all_empties_hierarchy() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        for i in 0..6u64 {
            h.write(i * 64, &[i as u8], &mut ram, &mut t).unwrap();
        }
        h.flush_all(&mut ram, &mut t);
        for i in 0..6u64 {
            assert_eq!(h.residency(i * 64), None);
            assert_eq!(ram.0[(i * 64) as usize], i as u8);
        }
    }

    #[test]
    fn capacity_and_validation() {
        assert_eq!(
            CacheConfig {
                line_size: 64,
                sets: 32,
                ways: 4
            }
            .capacity(),
            8192
        );
    }

    #[test]
    #[should_panic(expected = "line sizes must match")]
    fn mismatched_line_sizes_rejected() {
        let _ = Hierarchy::new(vec![
            CacheConfig {
                line_size: 64,
                sets: 2,
                ways: 2,
            },
            CacheConfig {
                line_size: 32,
                sets: 2,
                ways: 2,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at most 4 levels, not 5")]
    fn hierarchies_deeper_than_the_traffic_record_are_rejected() {
        let level = CacheConfig {
            line_size: 64,
            sets: 2,
            ways: 2,
        };
        assert_eq!(Hierarchy::new(vec![level; MAX_LEVELS]).num_levels(), 4);
        let _ = Hierarchy::new(vec![level; MAX_LEVELS + 1]);
    }

    #[test]
    fn read_run_stops_where_the_prefetch_evicts_the_line() {
        // A one-set, one-way L1: the prefetch of line 64 after the demand
        // miss of line 0 evicts line 0 to L2, so the run serves only the
        // demand read, and the next read of line 0 is an L2 hit.
        let configs = vec![
            CacheConfig {
                line_size: 64,
                sets: 1,
                ways: 1,
            },
            CacheConfig {
                line_size: 64,
                sets: 4,
                ways: 2,
            },
        ];
        let mut h = Hierarchy::new(configs.clone());
        h.set_prefetch(true);
        let mut ram = Ram::new(1 << 12);
        ram.0[..64].copy_from_slice(&[5; 64]);
        let mut t = Traffic::default();
        let mut buf = [0u8; 32];
        assert_eq!(
            h.read_run(8, &mut buf, 8, |_| u64::MAX, &mut ram, &mut t),
            Ok(1)
        );
        assert_eq!(buf[..8], [5; 8]);
        assert_eq!(h.residency(0), Some(1));
        assert_eq!(h.residency(64), Some(0));
        // Without the prefetcher the same run serves every read.
        let mut h = Hierarchy::new(configs);
        let mut t = Traffic::default();
        assert_eq!(
            h.read_run(8, &mut buf, 8, |_| u64::MAX, &mut ram, &mut t),
            Ok(4)
        );
        assert_eq!(buf, [5; 32]);
        assert_eq!(t.level_hits[0], 3);
        // The bound sees the demand read's traffic.
        assert_eq!(
            h.read_run(0, &mut buf, 8, |t| t.level_hits[0] - 3, &mut ram, &mut t),
            Ok(2)
        );
    }

    #[test]
    fn no_write_allocate_bypasses_cache_on_miss() {
        let mut h = Hierarchy::with_write_miss_policy(
            vec![CacheConfig {
                line_size: 64,
                sets: 2,
                ways: 2,
            }],
            WriteMissPolicy::NoWriteAllocate,
        );
        let mut ram = Ram::new(1 << 12);
        let mut t = Traffic::default();
        h.write(100, &[1, 2, 3], &mut ram, &mut t).unwrap();
        assert_eq!(h.residency(100), None, "miss store must not allocate");
        assert_eq!(
            &ram.0[100..103],
            &[1, 2, 3],
            "store reached memory directly"
        );
        // A store that *hits* still goes to the cache.
        let mut b = [0u8; 1];
        h.read(100, &mut b, &mut ram, &mut t).unwrap();
        h.write(100, &[9], &mut ram, &mut t).unwrap();
        assert_eq!(h.residency(100), Some(0));
        h.read(100, &mut b, &mut ram, &mut t).unwrap();
        assert_eq!(b, [9]);
    }

    #[test]
    fn no_write_allocate_misses_poisoned_lines() {
        // The demonstration behind WriteMissPolicy's docs: under
        // no-write-allocate a store to a "watched" (poisoned) line performs
        // no read, so nothing faults — SafeMem requires write-allocate.
        let mut h = Hierarchy::with_write_miss_policy(
            vec![CacheConfig {
                line_size: 64,
                sets: 2,
                ways: 2,
            }],
            WriteMissPolicy::NoWriteAllocate,
        );
        let mut ram = FaultyRam {
            ram: Ram::new(1 << 12),
            poisoned: [64u64].into_iter().collect(),
        };
        let mut t = Traffic::default();
        // write_through in the test backing defaults to checked RMW, which
        // would fault; the real controller's override does not. Model the
        // real behaviour: an unchecked store succeeds silently.
        struct UncheckedRam(FaultyRam);
        impl LineBacking for UncheckedRam {
            type Error = u64;
            fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Self::Error> {
                self.0.read_line(addr, buf)
            }
            fn write_line(&mut self, addr: u64, data: &[u8]) {
                self.0.write_line(addr, data);
            }
            fn write_through(&mut self, addr: u64, data: &[u8]) -> Result<(), Self::Error> {
                self.0.ram.write_line(addr & !63, &{
                    let mut line =
                        self.0.ram.0[(addr & !63) as usize..(addr & !63) as usize + 64].to_vec();
                    let off = (addr % 64) as usize;
                    line[off..off + data.len()].copy_from_slice(data);
                    line
                });
                Ok(())
            }
        }
        let mut unchecked = UncheckedRam(ram);
        assert!(
            h.write(70, &[0xAA], &mut unchecked, &mut t).is_ok(),
            "the store slips past the watchpoint"
        );
        // Whereas a write-allocate hierarchy faults on the same store:
        let mut h2 = Hierarchy::new(vec![CacheConfig {
            line_size: 64,
            sets: 2,
            ways: 2,
        }]);
        ram = unchecked.0;
        ram.poisoned.insert(64);
        assert_eq!(h2.write(70, &[0xAA], &mut ram, &mut t), Err(64));
    }

    #[test]
    fn prefetcher_fills_next_line_and_squashes_watched() {
        let mut h = small();
        h.set_prefetch(true);
        let mut ram = FaultyRam {
            ram: Ram::new(1 << 12),
            poisoned: [128u64].into_iter().collect(), // line 2 is "watched"
        };
        let mut t = Traffic::default();
        // Demand-miss line 0 → prefetch line 1 succeeds.
        let mut b = [0u8; 1];
        h.read(0, &mut b, &mut ram, &mut t).unwrap();
        assert_eq!(h.residency(64), Some(0), "next line prefetched");
        assert_eq!(h.prefetch_stats(), (1, 0));
        // Demand-miss line 1 is now a hit; touch line 1's neighbour: the
        // prefetch of poisoned line 2 must be squashed, NOT surfaced.
        h.read(64, &mut b, &mut ram, &mut t).unwrap();
        // Force a fresh demand miss adjacent to the poisoned line.
        h.flush_line(64, &mut ram, &mut t);
        h.read(64, &mut b, &mut ram, &mut t).unwrap(); // prefetches 128 → squashed
        assert_eq!(h.prefetch_stats().1, 1, "poisoned prefetch squashed");
        assert_eq!(h.residency(128), None, "watched line must not be cached");
        // The watchpoint still works: a demand access faults.
        assert_eq!(h.read(128, &mut b, &mut ram, &mut t), Err(128));
    }

    #[test]
    fn read_run_equals_separate_word_reads() {
        // Two hierarchies with the same history; on one, a line then takes
        // k separate 8-byte reads, on the other one read run of k reads.
        // Everything after must agree: data, traffic, stats, and which line
        // the set evicts next.
        let setup = || {
            let mut h = small();
            let mut ram = Ram::new(1 << 16);
            for (i, b) in ram.0.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            let mut t = Traffic::default();
            let mut b = [0u8; 8];
            // Lines 0 and 128 share L1 set 0 (2 ways); 0 is the LRU one.
            h.read(0, &mut b, &mut ram, &mut t).unwrap();
            h.read(128, &mut b, &mut ram, &mut t).unwrap();
            (h, ram)
        };
        let k = 5u64;
        let (mut separate, mut ram_a) = setup();
        let mut ta = Traffic::default();
        let mut words = Vec::new();
        for i in 0..k {
            let mut b = [0u8; 8];
            separate
                .read(8 + 8 * i, &mut b, &mut ram_a, &mut ta)
                .unwrap();
            words.extend_from_slice(&b);
        }
        let (mut bulk, mut ram_b) = setup();
        let mut tb = Traffic::default();
        let mut bytes = vec![0u8; 8 * k as usize];
        let served = bulk.read_run(8, &mut bytes, 8, |_| u64::MAX, &mut ram_b, &mut tb);
        assert_eq!(served, Ok(k as usize));
        assert_eq!(bytes, words);
        assert_eq!(ta, tb);
        assert_eq!(separate.level_stats(), bulk.level_stats());
        // Line 0 is now the most recently used, so the next fill of set 0
        // evicts line 128 from L1 on both.
        let mut b = [0u8; 1];
        separate.read(256, &mut b, &mut ram_a, &mut ta).unwrap();
        bulk.read(256, &mut b, &mut ram_b, &mut tb).unwrap();
        for line in [0, 128, 256] {
            assert_eq!(
                separate.residency(line),
                bulk.residency(line),
                "line {line}"
            );
        }
        assert_eq!(bulk.residency(0), Some(0));
        assert_eq!(bulk.residency(128), Some(1));
        assert_eq!(separate.level_stats(), bulk.level_stats());
        assert_eq!(ta, tb);
        // A line in L2 takes its demand read as an L2 hit, then L1 hits.
        let served = bulk.read_run(128, &mut bytes[..16], 8, |_| 1, &mut ram_b, &mut tb);
        assert_eq!(served, Ok(2));
        assert_eq!(bulk.residency(128), Some(0));
        assert_eq!(
            tb.level_hits,
            [ta.level_hits[0] + 1, ta.level_hits[1] + 1, 0, 0]
        );
    }

    #[test]
    fn empty_spans_touch_nothing() {
        // A zero-byte access names no line, even at an unaligned address
        // inside a poisoned (watched) line: no lookup, no refill, no fault.
        let mut h = small();
        let mut ram = FaultyRam {
            ram: Ram::new(1 << 12),
            poisoned: [64u64].into_iter().collect(),
        };
        let mut t = Traffic::default();
        assert_eq!(h.read(0x41, &mut [], &mut ram, &mut t), Ok(()));
        assert_eq!(h.write(0x50, &[], &mut ram, &mut t), Ok(()));
        assert_eq!(h.read(0x101, &mut [], &mut ram, &mut t), Ok(()));
        assert_eq!(t, Traffic::default());
        assert_eq!(h.level_stats(), vec![LevelStats::default(); 2]);
        assert_eq!(h.residency(0x101), None);
    }

    #[test]
    fn a_zero_bound_serves_only_the_demand_read() {
        // L1 set 0 (2 ways) ends up holding C (line 256) and A (line 0),
        // with A the least recently used. A run on A bounded to zero hits
        // is one plain read of A: A becomes the most recently used, so the
        // next fill of the set evicts C.
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        let mut b = [0u8; 1];
        for addr in [0, 128, 256, 0, 256] {
            h.read(addr, &mut b, &mut ram, &mut t).unwrap();
        }
        let (stats, hits) = (h.level_stats(), t.level_hits[0]);
        let mut words = [0u8; 16];
        assert_eq!(h.read_run(0, &mut words, 8, |_| 0, &mut ram, &mut t), Ok(1));
        assert_eq!(h.level_stats()[0].hits, stats[0].hits + 1);
        assert_eq!(t.level_hits[0], hits + 1);
        h.read(384, &mut b, &mut ram, &mut t).unwrap();
        assert_eq!(h.residency(0), Some(0), "A was refreshed");
        assert_eq!(h.residency(256), Some(1));
    }

    #[test]
    fn stats_accumulate() {
        let mut h = small();
        let mut ram = Ram::new(1 << 16);
        let mut t = Traffic::default();
        let mut b = [0u8; 1];
        h.read(0, &mut b, &mut ram, &mut t).unwrap();
        h.read(0, &mut b, &mut ram, &mut t).unwrap();
        let stats = h.level_stats();
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[0].misses, 1);
    }
}
