//! The simulated operating system layer for the SafeMem reproduction.
//!
//! Models the paper's patched Linux kernel (§2.2.2 and §5.1): a single
//! process with demand-paged virtual memory over a simulated [`Machine`]
//! it owns outright, plus the three new system calls SafeMem adds —
//!
//! * [`Os::watch_memory`] — arm ECC watchpoints on a cache-line-aligned
//!   region (pin pages → save originals → bus-lock → flush lines → ECC off →
//!   scramble → ECC on);
//! * [`Os::disable_watch_memory`] — restore the original data and unpin;
//! * [`Os::register_ecc_fault_handler`] — route watched-line ECC faults to
//!   the user level instead of panicking.
//!
//! It also provides stock `mprotect` page protection (used by the
//! page-guard baseline), scrub coordination, CPU-time accounting that
//! excludes I/O wait (§3), and the swap-aware watch extension the paper
//! describes as the "better solution" to page swapping.
//! [`Os::context_switch`] models the scheduler switching away from the
//! process: the caches are written back and emptied, and the flush counts
//! as background time, not as process CPU time.
//!
//! # Example: a watchpoint end to end
//!
//! ```
//! use safemem_os::{Os, OsFault, vm::HEAP_BASE};
//!
//! let mut os = Os::with_defaults(1 << 22);
//! os.register_ecc_fault_handler();
//!
//! // Put data somewhere and watch its cache line.
//! os.vwrite(HEAP_BASE, &[42u8; 64]).unwrap();
//! os.watch_memory(HEAP_BASE, 64).unwrap();
//!
//! // The first access faults and is delivered to user level.
//! let mut buf = [0u8; 8];
//! let fault = os.vread(HEAP_BASE, &mut buf).unwrap_err();
//! let OsFault::Ecc(user) = fault else { panic!("expected ECC fault") };
//! assert!(user.signature_ok, "access fault, not a hardware error");
//!
//! // The handler disables the watch; the retried access then succeeds and
//! // sees the original data.
//! os.disable_watch_memory(HEAP_BASE).unwrap();
//! os.vread(HEAP_BASE, &mut buf).unwrap();
//! assert_eq!(buf, [42u8; 8]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod klog;
pub mod procfs;
pub mod vm;
pub mod watch;

pub use error::{AccessKind, OsError, OsFault, UserEccFault};
pub use klog::{KernelEvent, KernelLog, LogEntry};
pub use vm::{Prot, VirtualMemory, HEAP_BASE, PAGE_BYTES, STATIC_BASE, VA_LIMIT};
pub use watch::{WatchRegistry, WatchedLine};

use safemem_cache::CacheConfig;
use safemem_machine::{CostModel, Machine};
use vm::TranslateOutcome;

/// How watched pages interact with page replacement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SwapPolicy {
    /// Pin every page holding a watched line (the paper's implemented
    /// method; limits total watchable memory).
    #[default]
    PinWatchedPages,
    /// Let watched pages swap; the kernel unarms lines on eviction and
    /// re-arms them on swap-in (the paper's proposed "better solution").
    SwapAware,
}

/// Configuration for the simulated OS + machine stack.
#[derive(Debug, Clone)]
pub struct OsConfig {
    /// Physical memory size in bytes.
    pub phys_bytes: u64,
    /// Cache geometry (index 0 = L1).
    pub caches: Vec<CacheConfig>,
    /// Cycle cost calibration.
    pub cost: CostModel,
    /// Watched-page swap policy.
    pub swap_policy: SwapPolicy,
    /// Simulated disk latency charged (as I/O wait) per swap-in.
    pub swap_io_ns: u64,
    /// Automatic scrub scheduling: run a coordinated scrub cycle whenever
    /// this much simulated time has elapsed since the last one (`None` =
    /// only explicit [`Os::run_scrub_cycle`] calls). Takes effect only when
    /// the controller is in [`CorrectAndScrub`](safemem_ecc::EccMode)
    /// mode, like real chipset scrub timers.
    pub scrub_interval_cycles: Option<u64>,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            phys_bytes: 1 << 24,
            caches: safemem_cache::default_two_level(),
            cost: CostModel::default(),
            swap_policy: SwapPolicy::PinWatchedPages,
            swap_io_ns: 100_000,
            scrub_interval_cycles: None,
        }
    }
}

/// OS-level event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OsStats {
    /// `WatchMemory` calls served.
    pub watch_calls: u64,
    /// `DisableWatchMemory` calls served.
    pub disable_calls: u64,
    /// `mprotect` calls served.
    pub mprotect_calls: u64,
    /// ECC faults delivered to the user handler.
    pub ecc_faults_delivered: u64,
    /// Uncorrectable errors on unwatched memory (stock-kernel panics).
    pub hardware_panics: u64,
    /// Page-protection violations delivered.
    pub segv_delivered: u64,
    /// Scrub cycles coordinated.
    pub scrub_cycles: u64,
}

/// The simulated OS: machine + virtual memory + SafeMem kernel extensions.
pub struct Os {
    machine: Machine,
    vm: VirtualMemory,
    watch: WatchRegistry,
    handler_registered: bool,
    swap_policy: SwapPolicy,
    swap_io_ns: u64,
    scrub_interval: Option<u64>,
    last_scrub: u64,
    klog: KernelLog,
    io_wait_cycles: u64,
    background_cycles: u64,
    stats: OsStats,
    /// Recycled `original`-data buffers for watched lines: arming a line
    /// pops one, disarming pushes it back, so steady-state watch churn
    /// allocates nothing.
    line_pool: Vec<Vec<u8>>,
}

impl std::fmt::Debug for Os {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Os")
            .field("cpu_cycles", &self.cpu_cycles())
            .field("watched_regions", &self.watch.region_count())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Os {
    /// Builds the OS stack from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero memory, bad caches).
    #[must_use]
    pub fn new(config: OsConfig) -> Self {
        Os {
            machine: Machine::new(config.phys_bytes, config.caches, config.cost),
            vm: VirtualMemory::new(config.phys_bytes),
            watch: WatchRegistry::new(),
            handler_registered: false,
            swap_policy: config.swap_policy,
            swap_io_ns: config.swap_io_ns,
            scrub_interval: config.scrub_interval_cycles,
            last_scrub: 0,
            klog: KernelLog::default(),
            line_pool: Vec::new(),
            io_wait_cycles: 0,
            background_cycles: 0,
            stats: OsStats::default(),
        }
    }

    /// Builds the OS with default caches and cost model over `phys_bytes`
    /// of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` is zero.
    #[must_use]
    pub fn with_defaults(phys_bytes: u64) -> Self {
        Os::new(OsConfig {
            phys_bytes,
            ..OsConfig::default()
        })
    }

    /// The underlying machine (read access).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The underlying machine (mutable; for error injection and mode
    /// configuration).
    #[must_use]
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The virtual memory manager (read access).
    #[must_use]
    pub fn vm(&self) -> &VirtualMemory {
        &self.vm
    }

    /// Overrides the pinned-page cap (the `RLIMIT_MEMLOCK` analogue).
    pub fn vm_set_max_pinned(&mut self, pages: u64) {
        self.vm.set_max_pinned(pages);
    }

    /// Cache line size, which is also the watch granularity.
    #[must_use]
    pub fn line_size(&self) -> u64 {
        self.machine.line_size()
    }

    /// OS event counters.
    #[must_use]
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// The kernel event log (dmesg-style).
    #[must_use]
    pub fn kernel_log(&self) -> &KernelLog {
        &self.klog
    }

    // ------------------------------------------------------------------
    // Time accounting
    // ------------------------------------------------------------------

    /// Total simulated cycles elapsed (all causes).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.machine.clock().cycles()
    }

    /// CPU cycles charged to the monitored process: total time minus I/O
    /// wait and background work (scrub scans and context-switch flushes),
    /// per the paper's §3 definition.
    #[must_use]
    pub fn cpu_cycles(&self) -> u64 {
        self.machine
            .clock()
            .cycles()
            .saturating_sub(self.io_wait_cycles + self.background_cycles)
    }

    /// Process CPU time in nanoseconds.
    #[must_use]
    pub fn cpu_ns(&self) -> u64 {
        self.machine.clock().cycles_to_nanos(self.cpu_cycles())
    }

    /// Models blocking I/O: the clock advances but the time is excluded
    /// from process CPU time.
    pub fn io_wait_ns(&mut self, ns: u64) {
        let cycles = ns.saturating_mul(self.machine.clock().hz()) / 1_000_000_000;
        self.machine.compute(cycles);
        self.io_wait_cycles += cycles;
    }

    /// Models CPU-bound application work.
    pub fn compute(&mut self, cycles: u64) {
        self.machine.compute(cycles);
    }

    /// Models the scheduler switching away from this process: writes back
    /// and empties the whole cache hierarchy, so the process's next access
    /// starts from a cold cache. The flush is done on behalf of whoever
    /// runs next, so its cycles count in [`Os::total_cycles`] but are
    /// booked as background time and never reach [`Os::cpu_cycles`].
    pub fn context_switch(&mut self) {
        let before = self.machine.clock().cycles();
        self.machine.flush_all_caches();
        self.background_cycles += self.machine.clock().cycles() - before;
    }

    // ------------------------------------------------------------------
    // Virtual memory access
    // ------------------------------------------------------------------

    /// After any translation, retire stale physical mappings of watched
    /// lines whose pages were evicted (swap-aware policy only).
    fn drain_evictions(&mut self) {
        let now = self.machine.clock().cycles();
        for vpn in self.vm.take_evictions() {
            self.klog.push(now, KernelEvent::SwapOut { vpn });
            for vline in self.watch.vlines_in_page(vpn, PAGE_BYTES) {
                self.watch.set_line_phys(vline, None);
            }
        }
    }

    /// Re-arms watched lines of a page that just became resident
    /// (swap-aware policy only).
    fn rearm_page(&mut self, vpn: u64) {
        let vlines = self.watch.vlines_in_page(vpn, PAGE_BYTES);
        for vline in vlines {
            let line = self.watch.line_by_vaddr(vline).expect("line registered");
            if line.phys_line.is_some() {
                continue; // still armed at a valid location
            }
            let original = line.original.clone();
            let codes = line.codes;
            let phys = self
                .vm
                .translate_resident(vline)
                .expect("page just became resident");
            // The swapped-in copy holds the scrambled bytes under freshly
            // consistent codes; restore the original first (ECC on) so the
            // scramble recreates the stale-code mismatch.
            self.disarm_line_at(phys, &original, codes);
            self.arm_line_at(phys, &original);
            self.watch.set_line_phys(vline, Some(phys));
        }
    }

    /// Performs the hardware scramble sequence on an already-flushed,
    /// resident physical line (paper Figure 2).
    fn arm_line_at(&mut self, phys_line: u64, original: &[u8]) {
        Self::arm_line_on(&mut self.machine, phys_line, original);
    }

    /// [`Os::arm_line_at`] against a borrowed machine, so the scrub cycle
    /// can walk the watch registry and the machine side by side without
    /// moving originals in and out of the registry.
    fn arm_line_on(machine: &mut Machine, phys_line: u64, original: &[u8]) {
        let scheme = machine.scramble();
        let ctl = machine.controller_mut();
        ctl.lock_bus();
        ctl.set_enabled(false);
        // Scramble into a stack buffer for ordinary line sizes; the heap
        // fallback only fires for exotic configurations with lines > 64 B.
        let mut stack = [0u8; 64];
        let mut heap = Vec::new();
        let scrambled: &mut [u8] = if original.len() <= stack.len() {
            &mut stack[..original.len()]
        } else {
            heap.resize(original.len(), 0u8);
            &mut heap
        };
        for (i, chunk) in original.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            scrambled[i * 8..(i + 1) * 8].copy_from_slice(&scheme.apply(word).to_le_bytes());
        }
        machine.write_uncached(phys_line, scrambled);
        let ctl = machine.controller_mut();
        ctl.set_enabled(true);
        ctl.unlock_bus();
    }

    /// Restores the original data of a line (ECC enabled, so codes become
    /// consistent again). When the line's codes were precomputed at arm
    /// time, the stored codes are restored directly instead of re-encoded —
    /// byte-identical state, no per-group encode.
    fn disarm_line_at(&mut self, phys_line: u64, original: &[u8], codes: Option<[u8; 8]>) {
        Self::disarm_line_on(&mut self.machine, phys_line, original, codes);
    }

    /// [`Os::disarm_line_at`] against a borrowed machine (see
    /// [`Os::arm_line_on`]).
    fn disarm_line_on(
        machine: &mut Machine,
        phys_line: u64,
        original: &[u8],
        codes: Option<[u8; 8]>,
    ) {
        match (codes, <&[u8; 64]>::try_from(original)) {
            (Some(c), Ok(data)) => machine.write_uncached_precoded(phys_line, data, &c),
            _ => machine.write_uncached(phys_line, original),
        }
    }

    fn translate_checked(&mut self, vaddr: u64, kind: AccessKind) -> Result<u64, OsFault> {
        if !self.vm.prot_of(vaddr).allows(kind) {
            self.stats.segv_delivered += 1;
            return Err(OsFault::Segv {
                vaddr,
                access: kind,
            });
        }
        let outcome = self.vm.translate(&mut self.machine, vaddr);
        self.drain_evictions();
        match outcome {
            Ok((phys, TranslateOutcome::Hit)) => Ok(phys),
            Ok((phys, TranslateOutcome::ZeroFill)) => {
                let cycles = self.machine.cost().page_fault_cycles;
                self.machine.compute(cycles);
                Ok(phys)
            }
            Ok((phys, TranslateOutcome::SwapIn)) => {
                let now = self.machine.clock().cycles();
                self.klog.push(
                    now,
                    KernelEvent::SwapIn {
                        vpn: vaddr / PAGE_BYTES,
                    },
                );
                let cycles = self.machine.cost().page_fault_cycles;
                self.machine.compute(cycles);
                self.io_wait_ns(self.swap_io_ns);
                if self.swap_policy == SwapPolicy::SwapAware {
                    self.rearm_page(vaddr / PAGE_BYTES);
                }
                Ok(phys)
            }
            Err(OsError::OutOfRange { .. }) => {
                self.stats.segv_delivered += 1;
                Err(OsFault::Segv {
                    vaddr,
                    access: kind,
                })
            }
            Err(e) => panic!("physical memory exhausted during access: {e}"),
        }
    }

    /// Classifies an ECC fault raised by a physical access at `phys_group`,
    /// reached through virtual address `vaddr`.
    fn classify_ecc_fault(&mut self, vaddr: u64, kind: AccessKind, group_addr: u64) -> OsFault {
        let ls = self.line_size();
        let phys_line = group_addr & !(ls - 1);
        let Some(line) = self.watch.line_by_phys(phys_line) else {
            self.stats.hardware_panics += 1;
            self.klog.push(
                self.machine.clock().cycles(),
                KernelEvent::Panic { group_addr },
            );
            return OsFault::HardwareError { vaddr, group_addr };
        };
        if !self.handler_registered {
            self.stats.hardware_panics += 1;
            self.klog.push(
                self.machine.clock().cycles(),
                KernelEvent::Panic { group_addr },
            );
            return OsFault::HardwareError { vaddr, group_addr };
        }
        // Differentiate access fault from hardware error: the stored data
        // must equal original ⊕ scramble-mask for every group in the line.
        let scheme = self.machine.scramble();
        let current = self.machine.peek(phys_line, ls as usize);
        let signature_ok = line
            .original
            .chunks_exact(8)
            .zip(current.chunks_exact(8))
            .all(|(orig, cur)| {
                let o = u64::from_le_bytes(orig.try_into().expect("8"));
                let c = u64::from_le_bytes(cur.try_into().expect("8"));
                scheme.matches(o, c)
            });
        let user = UserEccFault {
            region_vaddr: line.region_vaddr,
            line_vaddr: line.vline,
            access_vaddr: line.vline + (group_addr - phys_line),
            access: kind,
            signature_ok,
        };
        let dispatch = self.machine.cost().fault_dispatch_cycles;
        self.machine.compute(dispatch);
        self.stats.ecc_faults_delivered += 1;
        self.klog.push(
            self.machine.clock().cycles(),
            KernelEvent::FaultDelivered {
                vaddr: user.access_vaddr,
                signature_ok,
            },
        );
        OsFault::Ecc(user)
    }

    /// Reads `buf.len()` bytes of virtual memory at `vaddr`.
    ///
    /// # Errors
    ///
    /// * [`OsFault::Segv`] on a protection violation or unmapped range;
    /// * [`OsFault::Ecc`] when the access touches a watched line and a
    ///   handler is registered (handle, then retry — the operation is
    ///   idempotent);
    /// * [`OsFault::HardwareError`] for uncorrectable errors elsewhere.
    pub fn vread(&mut self, vaddr: u64, buf: &mut [u8]) -> Result<(), OsFault> {
        self.maybe_scrub();
        let mut done = 0usize;
        while done < buf.len() {
            let cur = vaddr + done as u64;
            let in_page = (PAGE_BYTES - cur % PAGE_BYTES) as usize;
            let chunk = in_page.min(buf.len() - done);
            let phys = self.translate_checked(cur, AccessKind::Read)?;
            if let Err(fault) = self.machine.read(phys, &mut buf[done..done + chunk]) {
                return Err(self.classify_ecc_fault(cur, AccessKind::Read, fault.group_addr));
            }
            done += chunk;
        }
        Ok(())
    }

    /// Writes `buf` to virtual memory at `vaddr`.
    ///
    /// # Errors
    ///
    /// As for [`Os::vread`]; stores to watched lines fault through the
    /// write-allocate refill.
    pub fn vwrite(&mut self, vaddr: u64, buf: &[u8]) -> Result<(), OsFault> {
        self.maybe_scrub();
        let mut done = 0usize;
        while done < buf.len() {
            let cur = vaddr + done as u64;
            let in_page = (PAGE_BYTES - cur % PAGE_BYTES) as usize;
            let chunk = in_page.min(buf.len() - done);
            let phys = self.translate_checked(cur, AccessKind::Write)?;
            if let Err(fault) = self.machine.write(phys, &buf[done..done + chunk]) {
                return Err(self.classify_ecc_fault(cur, AccessKind::Write, fault.group_addr));
            }
            done += chunk;
        }
        Ok(())
    }

    /// Convenience: reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As for [`Os::vread`].
    pub fn read_u64(&mut self, vaddr: u64) -> Result<u64, OsFault> {
        let mut buf = [0u8; 8];
        self.vread(vaddr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `out.len()` consecutive little-endian `u64` words starting at
    /// `vaddr`, storing `None` for each word whose read faulted.
    ///
    /// The effect is exactly that of one [`Os::read_u64`] per word in
    /// address order: the same values, clocks, statistics, cache and VM
    /// state, and kernel log. Only the host cost differs. The first word of
    /// each cache line takes the ordinary path; the rest of the line is
    /// then served in bulk as repeated L1 hits, since that is what the
    /// per-word reads would each be. Those words are read one by one
    /// instead whenever the bulk step could differ: `vaddr` is not
    /// 8-aligned, the line's first word faulted, a scheduled scrub could
    /// fall due within the run, or the line is no longer in L1.
    pub fn read_words(&mut self, vaddr: u64, out: &mut [Option<u64>]) {
        /// Words served per bulk step: one 64-byte line. Longer lines take
        /// several steps, each after an ordinary (L1-hit) read.
        const BULK_WORDS: usize = 8;
        let line_bytes = self.line_size();
        let hit_cycles = self.machine.cost().level_hit_cycles(0);
        let mut i = 0;
        while i < out.len() {
            let addr = vaddr + 8 * i as u64;
            out[i] = self.read_u64(addr).ok();
            i += 1;
            if out[i - 1].is_none() || !vaddr.is_multiple_of(8) {
                continue;
            }
            let rest_of_line = ((line_bytes - addr % line_bytes) / 8 - 1) as usize;
            let n = rest_of_line.min(out.len() - i).min(BULK_WORDS);
            if n == 0 || self.scrub_due_within(n as u64 * hit_cycles) {
                continue;
            }
            let next = addr + 8;
            let Some(phys) = self.vm.translate_resident(next) else {
                continue;
            };
            let mut bytes = [0u8; 8 * BULK_WORDS];
            if !self
                .machine
                .read_l1_repeated(phys, &mut bytes[..8 * n], n as u64)
            {
                continue;
            }
            self.vm.record_hits(next, n as u64);
            for (word, chunk) in out[i..i + n].iter_mut().zip(bytes.chunks_exact(8)) {
                *word = Some(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
            }
            i += n;
        }
    }

    /// Convenience: writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As for [`Os::vwrite`].
    pub fn write_u64(&mut self, vaddr: u64, value: u64) -> Result<(), OsFault> {
        self.vwrite(vaddr, &value.to_le_bytes())
    }

    // ------------------------------------------------------------------
    // Stock syscalls
    // ------------------------------------------------------------------

    /// The stock `mprotect` syscall: page-granularity protection, costed per
    /// Table 2 (1.02 µs).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::Misaligned`] / [`OsError::OutOfRange`] for invalid
    /// arguments.
    pub fn mprotect(&mut self, vaddr: u64, len: u64, prot: Prot) -> Result<(), OsError> {
        let cycles = self.machine.cost().mprotect_cycles;
        self.machine.compute(cycles);
        self.stats.mprotect_calls += 1;
        self.vm.set_prot(vaddr, len, prot)
    }

    // ------------------------------------------------------------------
    // The three SafeMem syscalls (paper §2.2.1)
    // ------------------------------------------------------------------

    /// `RegisterECCFaultHandler`: route watched-line ECC faults to user
    /// level. Without this, any uncorrectable error — including SafeMem's
    /// own scrambled lines — panics the kernel, as stock kernels do.
    pub fn register_ecc_fault_handler(&mut self) {
        self.handler_registered = true;
    }

    /// Whether a user-level ECC fault handler is registered.
    #[must_use]
    pub fn has_ecc_fault_handler(&self) -> bool {
        self.handler_registered
    }

    /// `WatchMemory(address, size)`: arms ECC watchpoints over the region.
    ///
    /// Per the paper the region and size must be cache-line aligned. The
    /// sequence per line: pin its page (under [`SwapPolicy::PinWatchedPages`]),
    /// flush the line, save the original data in kernel-private memory, then
    /// bus-lock → ECC off → write scrambled data → ECC on.
    ///
    /// # Errors
    ///
    /// * [`OsError::Misaligned`] if `vaddr` or `size` is not line-aligned;
    /// * [`OsError::AlreadyWatched`] on overlap with an existing region;
    /// * [`OsError::OutOfMemory`] if pages cannot be pinned;
    /// * [`OsError::OutOfRange`] if the region leaves the address space.
    pub fn watch_memory(&mut self, vaddr: u64, size: u64) -> Result<(), OsError> {
        let ls = self.line_size();
        if !vaddr.is_multiple_of(ls) {
            return Err(OsError::Misaligned {
                value: vaddr,
                required: ls,
            });
        }
        if size == 0 || !size.is_multiple_of(ls) {
            return Err(OsError::Misaligned {
                value: size,
                required: ls,
            });
        }
        if vaddr + size > VA_LIMIT {
            return Err(OsError::OutOfRange {
                vaddr: vaddr + size,
            });
        }
        if let Some(existing) = self.watch.overlapping_region(vaddr, size) {
            return Err(OsError::AlreadyWatched { existing });
        }

        let start_cycles = self.machine.clock().cycles();
        self.watch.insert_region(vaddr, size);
        let lines = size / ls;
        for i in 0..lines {
            let vline = vaddr + i * ls;
            if self.swap_policy == SwapPolicy::PinWatchedPages {
                if let Err(e) = self.vm.pin(&mut self.machine, vline) {
                    // Roll back the partially armed region: disarm the lines
                    // already scrambled, unpin their pages, drop the region.
                    let (_, armed) = self
                        .watch
                        .remove_region(vaddr)
                        .expect("region was just inserted");
                    for line in armed {
                        if let Some(phys) = line.phys_line {
                            self.disarm_line_at(phys, &line.original, line.codes);
                        }
                        self.vm.unpin(line.vline);
                    }
                    return Err(e);
                }
            }
            let (phys, _) = self
                .vm
                .translate(&mut self.machine, vline)
                .expect("page pinned or just resident");
            self.drain_evictions();
            let phys_line = phys & !(ls - 1);
            // Authoritative data may be dirty in cache: flush first, then
            // read the original from memory.
            self.machine.flush_range(phys_line, ls);
            let mut original = self.line_pool.pop().unwrap_or_default();
            original.resize(ls as usize, 0);
            self.machine.peek_into(phys_line, &mut original);
            // The disarm fast path needs the ECC codes of `original`. A line
            // whose dirty bit is clear already stores exactly those codes
            // (clean means code == encode(data)); only lines carrying stale
            // or injected codes pay for a fresh encode.
            let codes = <&[u8; 64]>::try_from(original.as_slice()).ok().map(|data| {
                let ctl = self.machine.controller();
                ctl.line_codes_if_clean(phys_line)
                    .unwrap_or_else(|| ctl.encode_line(data))
            });
            self.arm_line_at(phys_line, &original);
            self.watch.insert_line(WatchedLine {
                region_vaddr: vaddr,
                vline,
                phys_line: Some(phys_line),
                original,
                codes,
            });
        }
        self.stats.watch_calls += 1;
        self.klog.push(
            self.machine.clock().cycles(),
            KernelEvent::Watched { vaddr, size },
        );
        // Top up to the calibrated syscall cost (Table 2: 2.0 µs for a
        // one-line region; later lines cost only the marginal kernel work).
        let budget = self.machine.cost().watch_memory_cycles
            + (lines - 1) * self.machine.cost().watch_extra_line_cycles;
        let spent = self.machine.clock().cycles() - start_cycles;
        self.machine.compute(budget.saturating_sub(spent));
        Ok(())
    }

    /// `DisableWatchMemory(address)`: disarms the watched region starting at
    /// `vaddr`, restoring original data and unpinning pages.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotWatched`] if no region starts at `vaddr`.
    pub fn disable_watch_memory(&mut self, vaddr: u64) -> Result<(), OsError> {
        let start_cycles = self.machine.clock().cycles();
        let (_, lines) = self
            .watch
            .remove_region(vaddr)
            .ok_or(OsError::NotWatched { vaddr })?;
        let n = lines.len() as u64;
        for line in lines {
            if let Some(phys) = line.phys_line {
                self.disarm_line_at(phys, &line.original, line.codes);
            }
            // Swapped-out armed lines (swap-aware policy) hold scrambled
            // data in swap; restore it lazily by rewriting through the VM.
            else {
                // Fault the page in *without* re-arming (the region is
                // already removed from the registry), then restore.
                let (phys, _) = self
                    .vm
                    .translate(&mut self.machine, line.vline)
                    .expect("swap-in for unwatch");
                self.drain_evictions();
                let ls = self.line_size();
                self.disarm_line_at(phys & !(ls - 1), &line.original, line.codes);
            }
            if self.swap_policy == SwapPolicy::PinWatchedPages {
                self.vm.unpin(line.vline);
            }
            if self.line_pool.len() < 1024 {
                self.line_pool.push(line.original);
            }
        }
        self.stats.disable_calls += 1;
        self.klog.push(
            self.machine.clock().cycles(),
            KernelEvent::Unwatched { vaddr },
        );
        let budget = self.machine.cost().disable_watch_cycles
            + n.saturating_sub(1) * self.machine.cost().disable_extra_line_cycles;
        let spent = self.machine.clock().cycles() - start_cycles;
        self.machine.compute(budget.saturating_sub(spent));
        Ok(())
    }

    /// The watched region `(start, size)` containing `vaddr`, if any.
    #[must_use]
    pub fn watched_region_containing(&self, vaddr: u64) -> Option<(u64, u64)> {
        self.watch.region_containing(vaddr)
    }

    /// Number of currently watched regions.
    #[must_use]
    pub fn watched_region_count(&self) -> usize {
        self.watch.region_count()
    }

    /// Number of currently watched cache lines.
    #[must_use]
    pub fn watched_line_count(&self) -> usize {
        self.watch.line_count()
    }

    /// Starts of all watched regions (unspecified order; used by
    /// [`procfs::watchlist`]).
    #[must_use]
    pub fn watch_registry_region_starts(&self) -> Vec<u64> {
        self.watch.region_starts()
    }

    // ------------------------------------------------------------------
    // Scrub coordination (paper §2.2.2, "Dealing with ECC Memory Scrubbing")
    // ------------------------------------------------------------------

    /// Runs a scheduled scrub cycle if the configured interval has elapsed.
    fn maybe_scrub(&mut self) {
        if self.scrub_due_within(0) {
            self.run_scrub_cycle();
        }
    }

    /// Whether a scheduled scrub cycle falls due within the next `cycles`
    /// cycles. Never true unless the controller mode scrubs, because
    /// [`Os::run_scrub_cycle`] does nothing otherwise.
    fn scrub_due_within(&self, cycles: u64) -> bool {
        self.scrub_interval.is_some_and(|interval| {
            let later = self.machine.clock().cycles().saturating_add(cycles);
            later.saturating_sub(self.last_scrub) >= interval
                && self.machine.controller().mode().scrubs()
        })
    }

    /// Coordinates one full scrub pass: temporarily disarms every watched
    /// line, blocks the program while the controller scrubs all resident
    /// memory, then re-arms. No-op unless the controller mode scrubs.
    ///
    /// The scan itself is background work (excluded from process CPU time);
    /// the disarm/re-arm sequences are charged to the process, since it is
    /// blocked while the kernel performs them.
    pub fn run_scrub_cycle(&mut self) {
        if !self.machine.controller().mode().scrubs() {
            return;
        }
        // Disarm all lines (program blocked; CPU-charged). The registry and
        // the machine are walked side by side — no per-line lookups, no
        // copies of the saved originals.
        let mut watched_lines = 0u64;
        {
            let machine = &mut self.machine;
            for line in self.watch.lines() {
                watched_lines += 1;
                if let Some(p) = line.phys_line {
                    Self::disarm_line_on(machine, p, &line.original, line.codes);
                }
            }
        }
        // Scrub everything resident (background).
        let groups = self.machine.controller().memory().resident_frames() as u64
            * (PAGE_BYTES / safemem_ecc::GROUP_BYTES);
        let before = self.machine.clock().cycles();
        self.machine.scrub_step(groups);
        let scan_cycles = groups * self.machine.cost().scrub_group_cycles;
        self.machine.compute(scan_cycles);
        self.background_cycles += self.machine.clock().cycles() - before;
        // Re-arm (CPU-charged).
        {
            let machine = &mut self.machine;
            for line in self.watch.lines() {
                if let Some(p) = line.phys_line {
                    Self::arm_line_on(machine, p, &line.original);
                }
            }
        }
        self.stats.scrub_cycles += 1;
        self.last_scrub = self.machine.clock().cycles();
        self.klog
            .push(self.last_scrub, KernelEvent::ScrubCycle { watched_lines });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_ecc::{EccMode, FaultKind};

    fn os() -> Os {
        let mut os = Os::with_defaults(1 << 22);
        os.register_ecc_fault_handler();
        os
    }

    #[test]
    fn virtual_rw_roundtrip_across_pages() {
        let mut os = os();
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        os.vwrite(HEAP_BASE + 100, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        os.vread(HEAP_BASE + 100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn prot_none_segfaults() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[1]).unwrap();
        os.mprotect(HEAP_BASE & !(PAGE_BYTES - 1), PAGE_BYTES, Prot::NONE)
            .unwrap();
        assert!(matches!(
            os.vread(HEAP_BASE, &mut [0u8; 1]),
            Err(OsFault::Segv {
                access: AccessKind::Read,
                ..
            })
        ));
        assert!(matches!(
            os.vwrite(HEAP_BASE, &[1]),
            Err(OsFault::Segv {
                access: AccessKind::Write,
                ..
            })
        ));
        os.mprotect(HEAP_BASE & !(PAGE_BYTES - 1), PAGE_BYTES, Prot::READ_WRITE)
            .unwrap();
        os.vread(HEAP_BASE, &mut [0u8; 1]).unwrap();
    }

    #[test]
    fn read_only_allows_reads_blocks_writes() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[7]).unwrap();
        os.mprotect(HEAP_BASE & !(PAGE_BYTES - 1), PAGE_BYTES, Prot::READ)
            .unwrap();
        let mut b = [0u8; 1];
        os.vread(HEAP_BASE, &mut b).unwrap();
        assert_eq!(b, [7]);
        assert!(os.vwrite(HEAP_BASE, &[8]).is_err());
    }

    #[test]
    fn watch_alignment_validated() {
        let mut os = os();
        assert!(matches!(
            os.watch_memory(HEAP_BASE + 1, 64),
            Err(OsError::Misaligned { .. })
        ));
        assert!(matches!(
            os.watch_memory(HEAP_BASE, 63),
            Err(OsError::Misaligned { .. })
        ));
        assert!(matches!(
            os.watch_memory(HEAP_BASE, 0),
            Err(OsError::Misaligned { .. })
        ));
    }

    #[test]
    fn watch_overlap_rejected() {
        let mut os = os();
        os.watch_memory(HEAP_BASE, 128).unwrap();
        assert_eq!(
            os.watch_memory(HEAP_BASE + 64, 64),
            Err(OsError::AlreadyWatched {
                existing: HEAP_BASE
            })
        );
    }

    #[test]
    fn first_read_faults_and_unwatch_restores() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[0xAB; 128]).unwrap();
        os.watch_memory(HEAP_BASE, 128).unwrap();
        assert!(os.vm().is_pinned(HEAP_BASE), "watched pages are pinned");

        let fault = os.vread(HEAP_BASE + 70, &mut [0u8; 4]).unwrap_err();
        let OsFault::Ecc(user) = fault else {
            panic!("expected ECC fault, got {fault:?}")
        };
        assert!(user.signature_ok);
        assert_eq!(user.region_vaddr, HEAP_BASE);
        assert_eq!(user.line_vaddr, HEAP_BASE + 64);
        assert_eq!(user.access, AccessKind::Read);

        os.disable_watch_memory(HEAP_BASE).unwrap();
        assert!(!os.vm().is_pinned(HEAP_BASE));
        let mut buf = [0u8; 128];
        os.vread(HEAP_BASE, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 128]);
    }

    #[test]
    fn store_to_watched_line_faults() {
        let mut os = os();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        let fault = os.vwrite(HEAP_BASE + 8, &[1, 2]).unwrap_err();
        assert!(matches!(
            fault,
            OsFault::Ecc(UserEccFault {
                access: AccessKind::Write,
                ..
            })
        ));
    }

    #[test]
    fn unwatched_hardware_error_panics_kernel() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[1; 64]).unwrap();
        // Find the physical placement, flush, and corrupt two bits.
        let phys = os.vm.translate_resident(HEAP_BASE).unwrap();
        os.machine_mut().flush_range(phys, 64);
        os.machine_mut()
            .controller_mut()
            .inject_multi_bit_error(phys);
        let fault = os.vread(HEAP_BASE, &mut [0u8; 8]).unwrap_err();
        assert!(matches!(fault, OsFault::HardwareError { .. }));
        assert_eq!(os.stats().hardware_panics, 1);
    }

    #[test]
    fn hardware_error_on_watched_line_fails_signature() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[5; 64]).unwrap();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        // A real hardware error lands on the scrambled line: flip two MORE
        // bits so the content is scramble-mask ⊕ extra-bits ≠ signature.
        let phys = os.vm.translate_resident(HEAP_BASE).unwrap();
        os.machine_mut()
            .controller_mut()
            .inject_multi_bit_error(phys);
        let fault = os.vread(HEAP_BASE, &mut [0u8; 8]).unwrap_err();
        let OsFault::Ecc(user) = fault else {
            panic!("expected routed fault")
        };
        assert!(!user.signature_ok, "must be classified as hardware error");
    }

    #[test]
    fn without_handler_watched_fault_is_a_panic() {
        let mut os = Os::with_defaults(1 << 22);
        os.watch_memory(HEAP_BASE, 64).unwrap();
        let fault = os.vread(HEAP_BASE, &mut [0u8; 1]).unwrap_err();
        assert!(matches!(fault, OsFault::HardwareError { .. }));
    }

    #[test]
    fn single_bit_hardware_errors_invisible_to_program() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[9; 64]).unwrap();
        let phys = os.vm.translate_resident(HEAP_BASE).unwrap();
        os.machine_mut().flush_range(phys, 64);
        os.machine_mut()
            .controller_mut()
            .inject_data_error(phys, 12);
        let mut buf = [0u8; 64];
        os.vread(HEAP_BASE, &mut buf).unwrap();
        assert_eq!(buf, [9; 64], "corrected transparently");
        assert_eq!(os.machine().controller().stats().corrected_single_bit, 1);
    }

    #[test]
    fn watch_costs_the_calibrated_syscall_time() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[1; 64]).unwrap();
        let t0 = os.total_cycles();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        let spent = os.total_cycles() - t0;
        assert_eq!(spent, os.machine().cost().watch_memory_cycles);
    }

    #[test]
    fn io_wait_excluded_from_cpu_time() {
        let mut os = os();
        os.compute(1000);
        os.io_wait_ns(1_000_000);
        assert_eq!(os.cpu_cycles(), 1000);
        assert!(os.total_cycles() > 1000);
    }

    #[test]
    fn context_switch_flushes_as_background_time() {
        let mut os = os();
        let mut twin = Machine::with_defaults(1 << 22);
        os.vwrite(HEAP_BASE, &[0x5A; 256]).unwrap();
        let phys = os.vm().translate_resident(HEAP_BASE).unwrap();
        twin.write(phys, &[0x5A; 256]).unwrap();
        let (cpu, total) = (os.cpu_cycles(), os.total_cycles());
        os.context_switch();

        let before = twin.clock().cycles();
        twin.flush_all_caches();
        let flush = twin.clock().cycles() - before;
        assert!(flush > 0, "dirty lines are written back");
        assert_eq!(os.cpu_cycles(), cpu, "the flush is not process CPU time");
        assert_eq!(os.total_cycles(), total + flush);

        let l1 = |os: &Os| os.machine().hierarchy().level_stats()[0];
        let before = l1(&os);
        os.vread(HEAP_BASE, &mut [0u8; 8]).unwrap();
        assert_eq!(l1(&os).misses, before.misses + 1, "the cache starts cold");
        assert_eq!(l1(&os).hits, before.hits);
    }

    #[test]
    fn scrub_cycle_preserves_watchpoints() {
        let mut os = os();
        os.machine_mut()
            .controller_mut()
            .set_mode(safemem_ecc::EccMode::CorrectAndScrub);
        os.vwrite(HEAP_BASE, &[3; 64]).unwrap();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        os.run_scrub_cycle();
        assert_eq!(os.stats().scrub_cycles, 1);
        // Scrubbing repaired nothing and did not fire the watchpoint; the
        // first program access still faults.
        assert!(matches!(
            os.vread(HEAP_BASE, &mut [0u8; 1]),
            Err(OsFault::Ecc(UserEccFault {
                signature_ok: true,
                ..
            }))
        ));
        // And after unwatching, the data is intact.
        os.disable_watch_memory(HEAP_BASE).unwrap();
        let mut buf = [0u8; 64];
        os.vread(HEAP_BASE, &mut buf).unwrap();
        assert_eq!(buf, [3; 64]);
    }

    #[test]
    fn scrub_scan_does_not_count_as_cpu_time() {
        let mut os = os();
        os.machine_mut()
            .controller_mut()
            .set_mode(safemem_ecc::EccMode::CorrectAndScrub);
        os.vwrite(HEAP_BASE, &[3; 64]).unwrap();
        let cpu_before = os.cpu_cycles();
        os.run_scrub_cycle();
        assert_eq!(
            os.cpu_cycles(),
            cpu_before,
            "no watched lines → pure background"
        );
    }

    #[test]
    fn scheduled_scrubbing_runs_and_preserves_watchpoints() {
        let mut os = Os::new(OsConfig {
            phys_bytes: 1 << 22,
            scrub_interval_cycles: Some(200_000),
            ..OsConfig::default()
        });
        os.register_ecc_fault_handler();
        os.machine_mut()
            .controller_mut()
            .set_mode(safemem_ecc::EccMode::CorrectAndScrub);
        os.vwrite(HEAP_BASE, &[9u8; 64]).unwrap();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        // Inject a latent hardware error the scrubber should repair.
        os.vwrite(HEAP_BASE + 4096, &[1u8; 64]).unwrap();
        let phys = os.vm().translate_resident(HEAP_BASE + 4096).unwrap();
        os.machine_mut().flush_range(phys, 64);
        os.machine_mut().controller_mut().inject_data_error(phys, 2);
        // Plenty of activity: the scheduled scrubs fire along the way.
        for i in 0..64u64 {
            os.compute(50_000);
            os.vwrite(HEAP_BASE + 8192 + i * 64, &[i as u8; 64])
                .unwrap();
        }
        assert!(
            os.stats().scrub_cycles >= 5,
            "scrubs ran: {}",
            os.stats().scrub_cycles
        );
        assert!(
            os.machine().controller().stats().scrub_corrections >= 1,
            "the latent error was repaired by scrubbing"
        );
        // The watchpoint survived every scrub cycle.
        assert!(matches!(
            os.vread(HEAP_BASE, &mut [0u8; 1]),
            Err(OsFault::Ecc(UserEccFault {
                signature_ok: true,
                ..
            }))
        ));
    }

    #[test]
    fn swap_aware_policy_survives_eviction() {
        let mut config = OsConfig {
            phys_bytes: 8 * PAGE_BYTES,
            swap_policy: SwapPolicy::SwapAware,
            ..OsConfig::default()
        };
        config.cost.cpu_hz = 2_400_000_000;
        let mut os = Os::new(config);
        os.register_ecc_fault_handler();
        os.vwrite(HEAP_BASE, &[0x77; 64]).unwrap();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        assert!(!os.vm().is_pinned(HEAP_BASE), "swap-aware does not pin");

        // Blow through physical memory so the watched page gets evicted.
        for i in 0..32u64 {
            os.vwrite(HEAP_BASE + (i + 4) * PAGE_BYTES, &[i as u8; 32])
                .unwrap();
        }
        assert!(!os.vm().is_resident(HEAP_BASE), "watched page evicted");

        // Touching the watched data swaps the page in, re-arms, and faults.
        let fault = os.vread(HEAP_BASE, &mut [0u8; 4]).unwrap_err();
        assert!(matches!(
            fault,
            OsFault::Ecc(UserEccFault {
                signature_ok: true,
                ..
            })
        ));

        // Unwatch and verify contents survived the round trip.
        os.disable_watch_memory(HEAP_BASE).unwrap();
        let mut buf = [0u8; 64];
        os.vread(HEAP_BASE, &mut buf).unwrap();
        assert_eq!(buf, [0x77; 64]);
    }

    #[test]
    fn pinned_policy_limits_watchable_memory() {
        let mut os = Os::with_defaults(4 * PAGE_BYTES);
        os.register_ecc_fault_handler();
        // Watch one line in each of 5 pages: the 5th pin must fail.
        let mut failed = false;
        for i in 0..5u64 {
            if os.watch_memory(HEAP_BASE + i * PAGE_BYTES, 64).is_err() {
                failed = true;
            }
        }
        assert!(failed, "pinning policy must run out of pinnable pages");
    }

    #[test]
    fn failed_multi_line_watch_rolls_back_completely() {
        // A region spanning two pages where only the first page can be
        // pinned: the call must fail without leaving a half-armed region.
        let mut os = Os::with_defaults(8 * PAGE_BYTES);
        os.register_ecc_fault_handler();
        let region = HEAP_BASE + PAGE_BYTES - 64; // straddles a page boundary
        os.vwrite(region, &[0x77; 128]).unwrap();
        // Allow exactly one more pinned page.
        let already = os.vm().stats().pinned_pages;
        os.vm_set_max_pinned(already + 1);
        let err = os.watch_memory(region, 128).unwrap_err();
        assert_eq!(err, OsError::OutOfMemory);
        assert_eq!(os.watched_region_count(), 0, "no residual region");
        assert!(!os.vm().is_pinned(region), "first page unpinned again");
        // The data is intact and unwatched: accesses are clean.
        let mut buf = [0u8; 128];
        os.vread(region, &mut buf).unwrap();
        assert_eq!(buf, [0x77; 128]);
    }

    #[test]
    fn disable_watch_of_unknown_region_errors() {
        let mut os = os();
        assert_eq!(
            os.disable_watch_memory(HEAP_BASE),
            Err(OsError::NotWatched { vaddr: HEAP_BASE })
        );
    }

    #[test]
    fn scramble_fault_kind_is_multibit() {
        // End-to-end sanity: the fault the controller raises for a watched
        // line is an uncorrectable multi-bit fault, not a corrected single.
        let mut os = os();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        let _ = os.vread(HEAP_BASE, &mut [0u8; 1]);
        let faults = os.machine_mut().take_faults();
        assert!(!faults.is_empty());
        assert!(faults
            .iter()
            .all(|f| f.kind == FaultKind::UncorrectableData));
    }

    #[test]
    fn kernel_log_records_the_story() {
        let mut os = os();
        os.vwrite(HEAP_BASE, &[1u8; 64]).unwrap();
        os.watch_memory(HEAP_BASE, 64).unwrap();
        let _ = os.vread(HEAP_BASE, &mut [0u8; 1]);
        os.disable_watch_memory(HEAP_BASE).unwrap();
        let text = os.kernel_log().render();
        assert!(text.contains("watch region"), "{text}");
        assert!(text.contains("→ user handler (access)"), "{text}");
        assert!(text.contains("unwatch region"), "{text}");
    }

    #[test]
    fn mode_queries() {
        let os = os();
        assert_eq!(os.machine().controller().mode(), EccMode::CorrectError);
        assert_eq!(os.line_size(), 64);
        assert_eq!(os.watched_region_count(), 0);
    }
}
