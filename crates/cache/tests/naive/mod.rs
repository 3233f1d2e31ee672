//! The naive reference model of `safemem_cache::Hierarchy`: each set is a
//! `Vec` of boxed lines, and an access looks a line up, extracts it and
//! reinstalls it at L1, cascading victims level by level. It is the
//! straightforward reading of the cache's contract, kept only so the flat
//! production hierarchy can be checked against it op by op.

use safemem_cache::{CacheConfig, LevelStats, LineBacking, Traffic, WriteMissPolicy};

struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
    data: Box<[u8]>,
}

struct CacheLevel {
    config: CacheConfig,
    sets: Vec<Vec<Line>>, // each inner Vec holds at most `ways` lines
    stats: LevelStats,
    tick: u64,
}

impl CacheLevel {
    fn new(config: CacheConfig) -> Self {
        CacheLevel {
            config,
            sets: (0..config.sets).map(|_| Vec::new()).collect(),
            stats: LevelStats::default(),
            tick: 0,
        }
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / u64::from(self.config.line_size)) % u64::from(self.config.sets)) as usize
    }

    fn lookup(&mut self, line_addr: u64) -> Option<&mut Line> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(line_addr);
        let line = self.sets[set].iter_mut().find(|l| l.tag == line_addr);
        if let Some(l) = line {
            l.lru = tick;
            self.stats.hits += 1;
            Some(l)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// `hits` back-to-back hits on one line, each counted as a lookup plus
    /// a reinstall. Zero hits change nothing.
    fn touch(&mut self, line_addr: u64, hits: u64) -> Option<&mut Line> {
        let set = self.set_index(line_addr);
        let pos = self.sets[set].iter().position(|l| l.tag == line_addr)?;
        if hits > 0 {
            self.tick += 2 * hits;
            self.stats.hits += hits;
            self.sets[set][pos].lru = self.tick;
        }
        Some(&mut self.sets[set][pos])
    }

    fn extract(&mut self, line_addr: u64) -> Option<Line> {
        let set = self.set_index(line_addr);
        let pos = self.sets[set].iter().position(|l| l.tag == line_addr)?;
        Some(self.sets[set].swap_remove(pos))
    }

    /// Installs a line, returning the evicted victim if the set was full.
    fn install(&mut self, mut line: Line) -> Option<Line> {
        self.tick += 1;
        line.lru = self.tick;
        let set = self.set_index(line.tag);
        let victim = if self.sets[set].len() >= self.config.ways as usize {
            let (pos, _) = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|&(_, l)| l.lru)
                .expect("non-empty set");
            self.stats.evictions += 1;
            Some(self.sets[set].swap_remove(pos))
        } else {
            None
        };
        self.sets[set].push(line);
        victim
    }

    fn resident_line_addrs(&self) -> Vec<u64> {
        self.sets.iter().flatten().map(|l| l.tag).collect()
    }
}

/// The reference hierarchy: same constructor arguments and public methods
/// as `safemem_cache::Hierarchy`.
pub struct NaiveHierarchy {
    levels: Vec<CacheLevel>,
    line_size: u32,
    write_miss: WriteMissPolicy,
    prefetch_next_line: bool,
    prefetch_limit: u64,
    prefetches_issued: u64,
    prefetches_squashed: u64,
}

impl NaiveHierarchy {
    pub fn with_write_miss_policy(configs: Vec<CacheConfig>, write_miss: WriteMissPolicy) -> Self {
        NaiveHierarchy {
            line_size: configs[0].line_size,
            levels: configs.into_iter().map(CacheLevel::new).collect(),
            write_miss,
            prefetch_next_line: false,
            prefetch_limit: u64::MAX,
            prefetches_issued: 0,
            prefetches_squashed: 0,
        }
    }

    pub fn set_prefetch(&mut self, on: bool) {
        self.prefetch_next_line = on;
    }

    pub fn set_prefetch_limit(&mut self, limit: u64) {
        self.prefetch_limit = limit;
    }

    pub fn prefetch_stats(&self) -> (u64, u64) {
        (self.prefetches_issued, self.prefetches_squashed)
    }

    pub fn level_stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(|l| l.stats).collect()
    }

    pub fn residency(&self, addr: u64) -> Option<usize> {
        let line_addr = self.line_addr(addr);
        self.levels.iter().position(|lvl| {
            let set = lvl.set_index(line_addr);
            lvl.sets[set].iter().any(|l| l.tag == line_addr)
        })
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(u64::from(self.line_size) - 1)
    }

    fn cascade_install<B: LineBacking + ?Sized>(
        &mut self,
        idx: usize,
        line: Line,
        backing: &mut B,
        traffic: &mut Traffic,
    ) {
        let mut carry = Some(line);
        let mut level = idx;
        while let Some(l) = carry.take() {
            if level >= self.levels.len() {
                if l.dirty {
                    backing.write_line(l.tag, &l.data);
                    traffic.memory_writes += 1;
                }
                break;
            }
            carry = self.levels[level].install(l);
            level += 1;
        }
    }

    fn ensure_in_l1<B: LineBacking + ?Sized>(
        &mut self,
        line_addr: u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> Result<&mut Line, B::Error> {
        let mut found: Option<(usize, Line)> = None;
        for idx in 0..self.levels.len() {
            if self.levels[idx].lookup(line_addr).is_some() {
                let line = self.levels[idx].extract(line_addr).expect("just found");
                found = Some((idx, line));
                break;
            }
        }
        let line = match found {
            Some((idx, line)) => {
                traffic.level_hits[idx] += 1;
                line
            }
            None => {
                let mut data = vec![0u8; self.line_size as usize].into_boxed_slice();
                backing.read_line(line_addr, &mut data)?;
                traffic.memory_reads += 1;
                Line {
                    tag: line_addr,
                    dirty: false,
                    lru: 0,
                    data,
                }
            }
        };
        if let Some(victim) = self.levels[0].install(line) {
            self.cascade_install(1, victim, backing, traffic);
        }
        let set = self.levels[0].set_index(line_addr);
        Ok(self.levels[0].sets[set]
            .iter_mut()
            .find(|l| l.tag == line_addr)
            .expect("just installed"))
    }

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
            if let Some(line) = self.levels[0].touch(line_addr, 1) {
                traffic.level_hits[0] += 1;
                buf[(lo - addr) as usize..(hi - addr) as usize].copy_from_slice(
                    &line.data[(lo - line_addr) as usize..(hi - line_addr) as usize],
                );
                line_addr += ls;
                continue;
            }
            let missed = self.residency(line_addr).is_none();
            let line = self.ensure_in_l1(line_addr, backing, traffic)?;
            buf[(lo - addr) as usize..(hi - addr) as usize]
                .copy_from_slice(&line.data[(lo - line_addr) as usize..(hi - line_addr) as usize]);
            if missed {
                self.maybe_prefetch(line_addr + ls, backing, traffic);
            }
            line_addr += ls;
        }
        Ok(())
    }

    fn read_l1_repeated(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        reads: u64,
        traffic: &mut Traffic,
    ) -> bool {
        let line_addr = self.line_addr(addr);
        let lo = (addr - line_addr) as usize;
        let Some(line) = self.levels[0].touch(line_addr, reads) else {
            return false;
        };
        buf.copy_from_slice(&line.data[lo..lo + buf.len()]);
        traffic.level_hits[0] += reads;
        true
    }

    /// A demand read of the first `width` bytes, then, while the line is
    /// still in L1, `max_hits` repeated L1 reads of the following chunks.
    pub fn read_run<B: LineBacking + ?Sized>(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        width: usize,
        max_hits: impl FnOnce(&Traffic) -> u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> Result<usize, B::Error> {
        self.read(addr, &mut buf[..width], backing, traffic)?;
        if self.residency(addr) != Some(0) {
            return Ok(1);
        }
        let hits = max_hits(traffic).min((buf.len() / width - 1) as u64);
        let served = (1 + hits as usize) * width;
        self.read_l1_repeated(addr + width as u64, &mut buf[width..served], hits, traffic);
        Ok(1 + hits as usize)
    }

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
        let mut data = vec![0u8; self.line_size as usize].into_boxed_slice();
        match backing.read_line(line_addr, &mut data) {
            Ok(()) => {
                traffic.memory_reads += 1;
                let line = Line {
                    tag: line_addr,
                    dirty: false,
                    lru: 0,
                    data,
                };
                if let Some(victim) = self.levels[0].install(line) {
                    self.cascade_install(1, victim, backing, traffic);
                }
            }
            Err(_) => self.prefetches_squashed += 1,
        }
    }

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
            if let Some(line) = self.levels[0].touch(line_addr, 1) {
                traffic.level_hits[0] += 1;
                line.data[(lo - line_addr) as usize..(hi - line_addr) as usize]
                    .copy_from_slice(chunk);
                line.dirty = true;
                line_addr += ls;
                continue;
            }
            let cached = self.residency(line_addr).is_some();
            if cached || self.write_miss == WriteMissPolicy::WriteAllocate {
                let line = self.ensure_in_l1(line_addr, backing, traffic)?;
                line.data[(lo - line_addr) as usize..(hi - line_addr) as usize]
                    .copy_from_slice(chunk);
                line.dirty = true;
                if !cached {
                    self.maybe_prefetch(line_addr + ls, backing, traffic);
                }
            } else {
                backing.write_through(lo, chunk)?;
                traffic.memory_writes += 1;
            }
            line_addr += ls;
        }
        Ok(())
    }

    pub fn flush_line<B: LineBacking + ?Sized>(
        &mut self,
        addr: u64,
        backing: &mut B,
        traffic: &mut Traffic,
    ) -> bool {
        let line_addr = self.line_addr(addr);
        for idx in 0..self.levels.len() {
            if let Some(line) = self.levels[idx].extract(line_addr) {
                if line.dirty {
                    backing.write_line(line.tag, &line.data);
                    traffic.memory_writes += 1;
                }
                return line.dirty;
            }
        }
        false
    }

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

    pub fn flush_all<B: LineBacking + ?Sized>(&mut self, backing: &mut B, traffic: &mut Traffic) {
        let addrs: Vec<u64> = self
            .levels
            .iter()
            .flat_map(CacheLevel::resident_line_addrs)
            .collect();
        for addr in addrs {
            self.flush_line(addr, backing, traffic);
        }
    }
}
