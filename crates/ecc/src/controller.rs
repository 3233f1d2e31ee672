//! The ECC memory controller.
//!
//! Policy layer over [`EccMemory`]: encodes on write, verifies/corrects on
//! read, scrubs in the background, and reports uncorrectable errors through a
//! fault outbox (the simulated interrupt line). Mirrors the four operating
//! modes described in paper §2.1 plus the two software-visible controls the
//! SafeMem kernel patch relies on: a master ECC enable toggle and a bus lock
//! held while a line is being scrambled.

use crate::codec::{Codec, Decoded, LINE_BYTES, LINE_GROUPS};
use crate::fault::{EccFault, FaultKind};
use crate::memory::{EccMemory, FRAME_BYTES, GROUP_BYTES};

/// The controller operating mode (paper §2.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EccMode {
    /// All ECC functionality off: no checking, codes not maintained.
    Disabled,
    /// Detect and report single-bit and multi-bit errors, but correct nothing.
    CheckOnly,
    /// Detect and report; correct single-bit errors on the fly.
    #[default]
    CorrectError,
    /// Like `CorrectError`, and additionally scrub memory periodically.
    CorrectAndScrub,
}

impl EccMode {
    /// Whether this mode verifies reads at all.
    #[must_use]
    pub fn checks(self) -> bool {
        !matches!(self, EccMode::Disabled)
    }

    /// Whether this mode corrects single-bit errors.
    #[must_use]
    pub fn corrects(self) -> bool {
        matches!(self, EccMode::CorrectError | EccMode::CorrectAndScrub)
    }

    /// Whether this mode performs background scrubbing.
    #[must_use]
    pub fn scrubs(self) -> bool {
        matches!(self, EccMode::CorrectAndScrub)
    }
}

/// Event counters maintained by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ControllerStats {
    /// Group reads that went through verification.
    pub groups_verified: u64,
    /// Group writes that went through encoding.
    pub groups_encoded: u64,
    /// Single-bit errors corrected (read path).
    pub corrected_single_bit: u64,
    /// Single-bit errors detected but not corrected (CheckOnly mode).
    pub reported_single_bit: u64,
    /// Uncorrectable errors reported.
    pub uncorrectable: u64,
    /// Groups examined by the scrubber.
    pub scrubbed_groups: u64,
    /// Single-bit errors the scrubber repaired.
    pub scrub_corrections: u64,
    /// Complete passes the scrubber has made over resident memory.
    pub scrub_passes: u64,
    /// Single-bit *data* errors planted through [`EccController::inject_data_error`].
    pub injected_data_bits: u64,
    /// Single-bit *check-code* errors planted through
    /// [`EccController::inject_code_error`].
    pub injected_code_bits: u64,
    /// Multi-bit bursts planted through
    /// [`EccController::inject_multi_bit_error`].
    pub injected_multi_bit: u64,
}

/// A simulated commodity ECC memory controller.
///
/// See the [crate-level documentation](crate) for a usage walkthrough.
pub struct EccController {
    mem: EccMemory,
    codec: Codec,
    mode: EccMode,
    /// Master enable toggled by the OS around the scramble sequence. While
    /// `false` the controller behaves as in [`EccMode::Disabled`] regardless
    /// of `mode`.
    enabled: bool,
    bus_locked: bool,
    scrub_cursor: u64,
    /// Sorted resident-frame plan the scrubber walks, rebuilt only when the
    /// memory's allocation epoch moves (frames are never freed, so an equal
    /// epoch guarantees an identical plan).
    scrub_plan: Vec<u64>,
    /// Allocation epoch `scrub_plan` was built at; `u64::MAX` = never built.
    scrub_plan_epoch: u64,
    stats: ControllerStats,
    outbox: Vec<EccFault>,
}

impl std::fmt::Debug for EccController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EccController")
            .field("mode", &self.mode)
            .field("enabled", &self.enabled)
            .field("bus_locked", &self.bus_locked)
            .field("stats", &self.stats)
            .finish()
    }
}

impl EccController {
    /// Creates a controller over a fresh physical memory of `size` bytes.
    ///
    /// The controller starts in [`EccMode::CorrectError`] with ECC enabled.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: u64) -> Self {
        EccController {
            mem: EccMemory::new(size),
            codec: Codec::new(),
            mode: EccMode::CorrectError,
            enabled: true,
            bus_locked: false,
            scrub_cursor: 0,
            scrub_plan: Vec::new(),
            scrub_plan_epoch: u64::MAX,
            stats: ControllerStats::default(),
            outbox: Vec::new(),
        }
    }

    /// Total addressable bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.mem.size()
    }

    /// Current operating mode.
    #[must_use]
    pub fn mode(&self) -> EccMode {
        self.mode
    }

    /// Sets the operating mode.
    pub fn set_mode(&mut self, mode: EccMode) {
        self.mode = mode;
    }

    /// Whether the master ECC enable is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Toggles the master ECC enable. While disabled, writes leave stored
    /// codes stale and reads are not verified — the core of the scramble
    /// trick (paper Figure 2).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Acquires the memory bus, excluding background traffic (scrubbing,
    /// other processors, DMA) during a scramble sequence.
    ///
    /// # Panics
    ///
    /// Panics if the bus is already locked — the simulation is
    /// single-threaded, so a double lock is a tool bug, not contention.
    pub fn lock_bus(&mut self) {
        assert!(!self.bus_locked, "memory bus already locked");
        self.bus_locked = true;
    }

    /// Releases the memory bus.
    ///
    /// # Panics
    ///
    /// Panics if the bus is not locked.
    pub fn unlock_bus(&mut self) {
        assert!(self.bus_locked, "memory bus not locked");
        self.bus_locked = false;
    }

    /// Whether the bus is currently locked.
    #[must_use]
    pub fn is_bus_locked(&self) -> bool {
        self.bus_locked
    }

    /// Cumulative event counters.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Drains the fault outbox (the pending "interrupts").
    pub fn take_faults(&mut self) -> Vec<EccFault> {
        std::mem::take(&mut self.outbox)
    }

    fn effective_checks(&self) -> bool {
        self.enabled && self.mode.checks()
    }

    fn effective_corrects(&self) -> bool {
        self.enabled && self.mode.corrects()
    }

    /// The policy half of group verification: decode, correct, count,
    /// report. The bulk read and scrub paths count their groups as verified
    /// during the syndrome scan and resolve just the non-clean ones here,
    /// so this deliberately does not touch `groups_verified`.
    fn resolve_group(&mut self, group_addr: u64, during_scrub: bool) -> Result<u64, EccFault> {
        let (data, code) = self.mem.read_group(group_addr);
        // The overwhelmingly common case is a clean group: settle it from the
        // syndrome alone, before constructing a `Decoded`.
        if self.codec.syndrome(data, code) == 0 {
            return Ok(data);
        }
        match self.codec.decode(data, code) {
            Decoded::Clean => Ok(data),
            Decoded::CorrectedData { data: fixed, .. } => {
                if self.effective_corrects() {
                    self.mem
                        .write_group(group_addr, fixed, self.codec.encode(fixed));
                    self.stats.corrected_single_bit += 1;
                    if during_scrub {
                        self.stats.scrub_corrections += 1;
                    }
                    Ok(fixed)
                } else {
                    // CheckOnly: report, deliver uncorrected data.
                    self.stats.reported_single_bit += 1;
                    self.outbox.push(EccFault {
                        group_addr,
                        syndrome: self.codec.syndrome(data, code),
                        kind: FaultKind::UnrepairedSingleBit,
                    });
                    Ok(data)
                }
            }
            Decoded::CorrectedCheck { .. } => {
                if self.effective_corrects() {
                    self.mem.rewrite_code(group_addr);
                    self.stats.corrected_single_bit += 1;
                    if during_scrub {
                        self.stats.scrub_corrections += 1;
                    }
                } else {
                    self.stats.reported_single_bit += 1;
                }
                Ok(data)
            }
            Decoded::Uncorrectable { syndrome } => {
                self.stats.uncorrectable += 1;
                let fault = EccFault {
                    group_addr,
                    syndrome,
                    kind: FaultKind::UncorrectableData,
                };
                self.outbox.push(fault);
                Err(fault)
            }
        }
    }

    /// Reads `buf.len()` bytes starting at physical address `addr`,
    /// verifying every ECC group touched.
    ///
    /// On an uncorrectable error the buffer is still filled with the raw
    /// stored bytes (hardware delivers *something*), the fault is queued in
    /// the outbox, and the first fault is returned.
    ///
    /// # Errors
    ///
    /// Returns the first [`EccFault`] whose kind is
    /// [`FaultKind::UncorrectableData`] among the groups read.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory (validated up front, so a
    /// huge `addr` cannot wrap past the bounds check in release builds).
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        if buf.is_empty() {
            return Ok(());
        }
        self.mem.check_range(addr, buf.len() as u64);
        if !self.effective_checks() {
            self.mem.read_range(addr, buf);
            return Ok(());
        }
        // A cache refill of a line whose dirty bit is clear: copy it and
        // count its groups, which all verify clean.
        if addr.is_multiple_of(LINE_BYTES as u64) {
            if let Ok(line) = <&mut [u8; LINE_BYTES]>::try_from(&mut *buf) {
                if self.mem.read_line_if_clean(addr, line) {
                    self.stats.groups_verified += LINE_GROUPS as u64;
                    return Ok(());
                }
            }
        }
        let end = addr + buf.len() as u64;
        // Fast path: copy frame-at-a-time, scanning syndromes straight off
        // the frame slices. Groups with a non-zero syndrome are rare; they
        // are collected and resolved through the full policy path below.
        // (Does not allocate unless a non-clean group is found.)
        let mut dirty: Vec<u64> = Vec::new();
        let mut frame_addr = addr & !(FRAME_BYTES - 1);
        while frame_addr < end {
            let lo = frame_addr.max(addr);
            let hi = (frame_addr + FRAME_BYTES).min(end);
            let group_lo = lo & !(GROUP_BYTES - 1);
            let group_hi = GROUP_BYTES * hi.div_ceil(GROUP_BYTES);
            self.stats.groups_verified += (group_hi - group_lo) / GROUP_BYTES;
            let dst = &mut buf[(lo - addr) as usize..(hi - addr) as usize];
            let dirty_lines = self.mem.frame_dirty_lines(frame_addr);
            match self.mem.frame_slices(frame_addr) {
                // Untouched frame: all-zero data with all-zero codes — every
                // group is clean by construction.
                None => dst.fill(0),
                Some((data, codes)) => {
                    let off = (lo - frame_addr) as usize;
                    dst.copy_from_slice(&data[off..off + dst.len()]);
                    // A scan line whose dirty bit is clear is *guaranteed*
                    // clean, so the syndrome scan only visits flagged lines;
                    // those go 8 groups at a time through the bit-plane
                    // batch scanner where the span covers the whole line.
                    if dirty_lines != 0 {
                        let mut group = group_lo;
                        while group < group_hi {
                            let line = ((group - frame_addr) as usize) / LINE_BYTES;
                            let line_end =
                                (frame_addr + ((line + 1) * LINE_BYTES) as u64).min(group_hi);
                            if dirty_lines & (1u64 << line) == 0 {
                                group = line_end;
                                continue;
                            }
                            let line_start = frame_addr + (line * LINE_BYTES) as u64;
                            if group == line_start && line_end == line_start + LINE_BYTES as u64 {
                                let o = line * LINE_BYTES;
                                let lb: &[u8; LINE_BYTES] =
                                    data[o..o + LINE_BYTES].try_into().expect("line slice");
                                let cb: &[u8; LINE_GROUPS] = codes
                                    [line * LINE_GROUPS..(line + 1) * LINE_GROUPS]
                                    .try_into()
                                    .expect("code slice");
                                let mut mask = self.codec.dirty_mask_line(lb, cb);
                                while mask != 0 {
                                    let g = mask.trailing_zeros() as u64;
                                    dirty.push(line_start + g * GROUP_BYTES);
                                    mask &= mask - 1;
                                }
                                group = line_end;
                            } else {
                                while group < line_end {
                                    let o = (group - frame_addr) as usize;
                                    let bytes: &[u8; 8] =
                                        data[o..o + 8].try_into().expect("group is 8 bytes");
                                    let code = codes[o / GROUP_BYTES as usize];
                                    if self.codec.syndrome_bytes(bytes, code) != 0 {
                                        dirty.push(group);
                                    }
                                    group += GROUP_BYTES;
                                }
                            }
                        }
                    }
                }
            }
            frame_addr += FRAME_BYTES;
        }
        let mut first_fault = None;
        for group in dirty {
            if let Err(f) = self.resolve_group(group, false) {
                first_fault.get_or_insert(f);
            }
            // Re-copy whatever the group now holds: the corrected word when
            // a single-bit error was repaired, the raw stored bytes when the
            // error was only reported (CheckOnly) or uncorrectable.
            let bytes = self.mem.read_group(group).0.to_le_bytes();
            let lo = group.max(addr);
            let hi = (group + GROUP_BYTES).min(end);
            buf[(lo - addr) as usize..(hi - addr) as usize]
                .copy_from_slice(&bytes[(lo - group) as usize..(hi - group) as usize]);
        }
        match first_fault {
            None => Ok(()),
            Some(f) => Err(f),
        }
    }

    /// Writes `buf` at physical address `addr`.
    ///
    /// With ECC enabled, the stored code of every touched group is updated;
    /// with ECC disabled, the data changes but codes stay stale. Writes never
    /// verify (paper §2.1: only reads and scrubbing check).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory (validated up front, so a
    /// huge `addr` cannot wrap past the bounds check in release builds).
    pub fn write(&mut self, addr: u64, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        self.mem.check_range(addr, buf.len() as u64);
        if self.enabled && self.mode.checks() {
            self.mem.write_range_encoded(addr, buf);
            let end = addr + buf.len() as u64;
            let group_lo = addr & !(GROUP_BYTES - 1);
            let group_hi = GROUP_BYTES * end.div_ceil(GROUP_BYTES);
            self.stats.groups_encoded += (group_hi - group_lo) / GROUP_BYTES;
        } else {
            self.mem.write_range_data_only(addr, buf);
        }
    }

    /// [`write`](Self::write) of one aligned line whose check codes the
    /// caller already holds (computed at watch-arm time): identical stored
    /// state and accounting, no per-group encode. Falls back to a data-only
    /// write when ECC is off, exactly like [`write`](Self::write).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned or lies outside memory.
    pub fn write_line_precoded(
        &mut self,
        addr: u64,
        data: &[u8; LINE_BYTES],
        codes: &[u8; LINE_GROUPS],
    ) {
        if self.enabled && self.mode.checks() {
            self.mem.write_line_precoded(addr, data, codes);
            self.stats.groups_encoded += LINE_GROUPS as u64;
        } else {
            self.mem.check_range(addr, LINE_BYTES as u64);
            self.mem.write_range_data_only(addr, data);
        }
    }

    /// Encodes one line with the controller's codec — what a subsequent
    /// ECC-enabled write of `data` would store as check codes.
    #[must_use]
    pub fn encode_line(&self, data: &[u8; LINE_BYTES]) -> [u8; LINE_GROUPS] {
        self.codec.encode_line(data)
    }

    /// Returns the stored codes of the aligned line at `addr` when the
    /// line's dirty bit proves them consistent with the stored data — i.e.
    /// exactly what [`EccController::encode_line`] of the stored bytes would
    /// produce, without paying for the encode. `None` when the line may hold
    /// stale or corrupted codes and the caller must encode instead.
    #[must_use]
    pub fn line_codes_if_clean(&self, addr: u64) -> Option<[u8; LINE_GROUPS]> {
        self.mem.check_range(addr, LINE_BYTES as u64);
        self.mem.line_codes_if_clean(addr)
    }

    /// Holds each consecutive 64-byte line from `addr` whose stored codes
    /// equal the next entry of `codes` (see [`EccMemory::hold_lines`]): the
    /// caller declares each line to store its armed state, and the scrubber
    /// skips it until something writes it. Returns how many were newly
    /// held.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned or the lines leave its frame.
    pub fn hold_lines(
        &mut self,
        addr: u64,
        codes: impl IntoIterator<Item = [u8; LINE_GROUPS]>,
    ) -> usize {
        self.mem.hold_lines(addr, codes)
    }

    /// Drops the holds on every 64-byte line overlapping `[addr, addr +
    /// len)`, leaving the stored bytes as they are.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn release_lines(&mut self, addr: u64, len: u64) {
        self.mem.release_lines(addr, len);
    }

    /// Counts the encodes of restoring `lines` held lines with
    /// [`write_line_precoded`](Self::write_line_precoded) while ECC is on,
    /// without performing the writes: with the re-scramble that follows,
    /// they would leave each line as it is.
    pub fn account_held_restores(&mut self, lines: u64) {
        debug_assert!(self.enabled && self.mode.checks(), "restores encode");
        self.stats.groups_encoded += lines * LINE_GROUPS as u64;
    }

    /// Reads raw stored bytes without any verification or accounting — the
    /// diagnostic window the SafeMem fault handler uses to compare a faulted
    /// word against the scramble signature.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory (validated up front, so a
    /// huge `addr` cannot wrap past the bounds check in release builds).
    #[must_use]
    pub fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.peek_into(addr, &mut out);
        out
    }

    /// [`peek`](Self::peek) into a caller-provided buffer — the
    /// allocation-free variant the kernel's watch sequences use per line.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn peek_into(&self, addr: u64, out: &mut [u8]) {
        if !out.is_empty() {
            self.mem.check_range(addr, out.len() as u64);
            self.mem.read_range(addr, out);
        }
    }

    /// Injects a single-bit hardware error into stored *data*. This is the
    /// hook the fault-injection campaign engine (`safemem-faultinject`)
    /// drives; injections are counted in [`ControllerStats`].
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64` or the group lies outside physical memory.
    pub fn inject_data_error(&mut self, addr: u64, bit: u8) {
        self.stats.injected_data_bits += 1;
        self.mem.flip_data_bit(addr, bit);
    }

    /// Injects a single-bit hardware error into a stored *check code*.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8` or the group lies outside physical memory.
    pub fn inject_code_error(&mut self, addr: u64, bit: u8) {
        self.stats.injected_code_bits += 1;
        self.mem.flip_code_bit(addr, bit);
    }

    /// Injects a multi-bit hardware error (flips data bits 0 and 1).
    ///
    /// # Panics
    ///
    /// Panics if the group lies outside physical memory.
    pub fn inject_multi_bit_error(&mut self, addr: u64) {
        self.stats.injected_multi_bit += 1;
        self.mem.flip_data_bit(addr, 0);
        self.mem.flip_data_bit(addr, 1);
    }

    /// Performs one scrubbing step over up to `max_groups` resident groups,
    /// verifying and (in correcting modes) repairing them.
    ///
    /// Returns the number of groups examined. Does nothing when the mode does
    /// not scrub, when ECC is disabled, or while the bus is locked.
    pub fn scrub_step(&mut self, max_groups: u64) -> u64 {
        if !self.enabled || !self.mode.scrubs() || self.bus_locked {
            return 0;
        }
        // `resident_frame_addrs` is already in ascending address order; the
        // plan only changes when a frame is first touched, so rebuild it only
        // when the allocation epoch has moved since it was last built.
        if self.scrub_plan_epoch != self.mem.allocation_epoch() {
            self.scrub_plan = self.mem.resident_frame_addrs();
            self.scrub_plan_epoch = self.mem.allocation_epoch();
        }
        if self.scrub_plan.is_empty() {
            return 0;
        }
        let groups_per_frame = FRAME_BYTES / GROUP_BYTES;
        let total_groups = self.scrub_plan.len() as u64 * groups_per_frame;
        let mut done = 0;
        let mut dirty: Vec<u64> = Vec::new();
        while done < max_groups {
            if self.scrub_cursor >= total_groups {
                self.scrub_cursor = 0;
                self.stats.scrub_passes += 1;
            }
            // Process the rest of the current frame as one chunk.
            let frame = self.scrub_plan[(self.scrub_cursor / groups_per_frame) as usize];
            let first = self.scrub_cursor % groups_per_frame;
            let n = (groups_per_frame - first).min(max_groups - done);
            // Held lines store their armed state under a coordinated scrub
            // cycle, which would have restored them (clean) before this
            // scan; they are skipped exactly as those clean lines were.
            let dirty_lines = self.mem.frame_scrub_lines(frame);
            if dirty_lines != 0 {
                // Scan only the flagged lines of the chunk, 8 groups at a
                // time through the bit-plane batch scanner; clear bits are a
                // cleanliness guarantee, so their groups verify trivially.
                // Only non-clean groups go through the full policy path.
                dirty.clear();
                let mut scanned_lines = 0u64;
                let (data, codes) = self
                    .mem
                    .frame_slices(frame)
                    .expect("scrub plan only holds resident frames");
                let chunk_end = first + n;
                let mut g = first;
                while g < chunk_end {
                    let line = (g as usize) / LINE_GROUPS;
                    let line_start = (line * LINE_GROUPS) as u64;
                    let line_end = (line_start + LINE_GROUPS as u64).min(chunk_end);
                    if dirty_lines & (1u64 << line) == 0 {
                        g = line_end;
                        continue;
                    }
                    if g == line_start && line_end == line_start + LINE_GROUPS as u64 {
                        let o = line * LINE_BYTES;
                        let lb: &[u8; LINE_BYTES] =
                            data[o..o + LINE_BYTES].try_into().expect("line slice");
                        let cb: &[u8; LINE_GROUPS] = codes
                            [line * LINE_GROUPS..(line + 1) * LINE_GROUPS]
                            .try_into()
                            .expect("code slice");
                        let mut mask = self.codec.dirty_mask_line(lb, cb);
                        while mask != 0 {
                            let d = mask.trailing_zeros() as u64;
                            dirty.push(frame + (line_start + d) * GROUP_BYTES);
                            mask &= mask - 1;
                        }
                        // The whole line was examined in this chunk, so its
                        // bit can be cleared once every fault in it repairs.
                        scanned_lines |= 1u64 << line;
                        g = line_end;
                    } else {
                        while g < line_end {
                            let o = (g * GROUP_BYTES) as usize;
                            let bytes: &[u8; 8] =
                                data[o..o + 8].try_into().expect("group is 8 bytes");
                            if self.codec.syndrome_bytes(bytes, codes[g as usize]) != 0 {
                                dirty.push(frame + g * GROUP_BYTES);
                            }
                            g += 1;
                        }
                    }
                }
                self.stats.groups_verified += n;
                let mut uncorrectable = false;
                let mut bad_lines = 0u64;
                for &group_addr in &dirty {
                    // Scrub ignores uncorrectable groups beyond reporting them.
                    if self.resolve_group(group_addr, true).is_err() {
                        uncorrectable = true;
                        bad_lines |= 1u64 << (((group_addr - frame) as usize) / LINE_BYTES);
                    }
                }
                // A fully scanned line whose inconsistencies were all
                // repaired is provably clean; future passes skip it. (The
                // scrubbing mode always corrects, so an `Ok` resolution
                // means the group's code was rewritten.)
                self.mem
                    .clear_dirty_lines(frame, scanned_lines & !bad_lines);
                // A full-frame chunk that repaired every inconsistency proves
                // the frame clean outside its held lines; future passes
                // settle it in O(1).
                if first == 0 && n == groups_per_frame && !uncorrectable {
                    self.mem.mark_frame_clean(frame);
                }
            } else {
                // Clean frame: every group verifies trivially.
                self.stats.groups_verified += n;
            }
            self.stats.scrubbed_groups += n;
            self.scrub_cursor += n;
            done += n;
        }
        done
    }

    /// Direct access to the underlying memory (advanced / test use).
    #[must_use]
    pub fn memory(&self) -> &EccMemory {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scramble::ScrambleScheme;

    fn ctl() -> EccController {
        EccController::new(1 << 16)
    }

    #[test]
    fn read_write_roundtrip_arbitrary_span() {
        let mut c = ctl();
        let data: Vec<u8> = (0..37).map(|i| i as u8 * 3).collect();
        c.write(0x103, &data); // unaligned, crosses groups
        let mut buf = vec![0u8; 37];
        c.read(0x103, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn partial_group_write_preserves_neighbours() {
        let mut c = ctl();
        c.write(0x100, &[0xAA; 16]);
        c.write(0x104, &[0xBB; 4]);
        let mut buf = [0u8; 16];
        c.read(0x100, &mut buf).unwrap();
        assert_eq!(&buf[..4], &[0xAA; 4]);
        assert_eq!(&buf[4..8], &[0xBB; 4]);
        assert_eq!(&buf[8..], &[0xAA; 8]);
    }

    #[test]
    fn single_bit_error_corrected_in_place() {
        let mut c = ctl();
        c.write(0x200, &7u64.to_le_bytes());
        c.inject_data_error(0x200, 33);
        let mut buf = [0u8; 8];
        c.read(0x200, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
        // The correction is persistent: memory was repaired.
        assert_eq!(c.memory().read_group(0x200).0, 7);
        assert_eq!(c.stats().corrected_single_bit, 1);
        // A second read finds a clean group.
        c.read(0x200, &mut buf).unwrap();
        assert_eq!(c.stats().corrected_single_bit, 1);
    }

    #[test]
    fn check_only_mode_reports_but_does_not_correct() {
        let mut c = ctl();
        c.set_mode(EccMode::CheckOnly);
        c.write(0x200, &7u64.to_le_bytes());
        c.inject_data_error(0x200, 0);
        let mut buf = [0u8; 8];
        c.read(0x200, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 6, "uncorrected data delivered");
        assert_eq!(c.stats().reported_single_bit, 1);
        let faults = c.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::UnrepairedSingleBit);
    }

    #[test]
    fn multi_bit_error_faults() {
        let mut c = ctl();
        c.write(0x240, &1u64.to_le_bytes());
        c.inject_multi_bit_error(0x240);
        let mut buf = [0u8; 8];
        let fault = c.read(0x240, &mut buf).unwrap_err();
        assert_eq!(fault.kind, FaultKind::UncorrectableData);
        assert_eq!(fault.group_addr, 0x240);
        assert_eq!(c.take_faults(), vec![fault]);
    }

    #[test]
    fn disabled_controller_never_checks() {
        let mut c = ctl();
        c.set_mode(EccMode::Disabled);
        c.write(0x280, &1u64.to_le_bytes());
        c.inject_multi_bit_error(0x280);
        let mut buf = [0u8; 8];
        c.read(0x280, &mut buf).unwrap();
        assert_eq!(c.stats().uncorrectable, 0);
    }

    #[test]
    fn scramble_sequence_faults_on_first_read_only() {
        let mut c = ctl();
        let scheme = ScrambleScheme::default();
        let original = 0x5555_AAAA_u64;
        c.write(0x300, &original.to_le_bytes());

        // The kernel's WatchMemory sequence.
        c.lock_bus();
        c.set_enabled(false);
        c.write(0x300, &scheme.apply(original).to_le_bytes());
        c.set_enabled(true);
        c.unlock_bus();

        let mut buf = [0u8; 8];
        let fault = c.read(0x300, &mut buf).unwrap_err();
        assert_eq!(fault.kind, FaultKind::UncorrectableData);
        assert_eq!(fault.syndrome, scheme.syndrome());
        // Handler can identify the signature from the raw bytes.
        let raw = u64::from_le_bytes(c.peek(0x300, 8).try_into().unwrap());
        assert!(scheme.matches(original, raw));

        // Un-watching: restore original data with ECC on. No more faults.
        c.write(0x300, &original.to_le_bytes());
        c.read(0x300, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), original);
    }

    #[test]
    fn writes_with_ecc_disabled_leave_stale_codes() {
        let mut c = ctl();
        c.write(0x340, &10u64.to_le_bytes());
        c.set_enabled(false);
        c.write(0x340, &11u64.to_le_bytes());
        c.set_enabled(true);
        // 10 -> 11 differs in two bits (0b1010 vs 0b1011)? No: 1 bit. Use
        // values differing in >=2 bits to guarantee an uncorrectable state.
        c.set_enabled(false);
        c.write(0x340, &(10u64 ^ 0b11).to_le_bytes());
        c.set_enabled(true);
        let mut buf = [0u8; 8];
        assert!(c.read(0x340, &mut buf).is_err());
    }

    #[test]
    fn bus_lock_blocks_scrub() {
        let mut c = ctl();
        c.set_mode(EccMode::CorrectAndScrub);
        c.write(0x0, &[1u8; 64]);
        c.lock_bus();
        assert_eq!(c.scrub_step(16), 0);
        c.unlock_bus();
        assert!(c.scrub_step(16) > 0);
    }

    #[test]
    #[should_panic(expected = "already locked")]
    fn double_bus_lock_panics() {
        let mut c = ctl();
        c.lock_bus();
        c.lock_bus();
    }

    #[test]
    fn scrub_repairs_single_bit_errors() {
        let mut c = ctl();
        c.set_mode(EccMode::CorrectAndScrub);
        c.write(0x8, &3u64.to_le_bytes());
        c.inject_data_error(0x8, 7);
        // One full pass over the single resident frame (512 groups).
        c.scrub_step(512);
        assert_eq!(c.stats().scrub_corrections, 1);
        assert_eq!(c.memory().read_group(0x8).0, 3);
    }

    #[test]
    fn scrub_wraps_and_counts_passes() {
        let mut c = ctl();
        c.set_mode(EccMode::CorrectAndScrub);
        c.write(0x0, &[1u8]);
        c.scrub_step(512);
        c.scrub_step(1);
        assert_eq!(c.stats().scrub_passes, 1);
    }

    #[test]
    fn clean_frame_scrub_counts_like_a_scanned_one() {
        // The O(1) clean-frame shortcut must keep every counter identical to
        // the full per-group walk.
        let mut c = ctl();
        c.set_mode(EccMode::CorrectAndScrub);
        c.write(0x0, &[7u8; 64]);
        c.scrub_step(512); // first pass may scan; frame is provably clean after
        let before = c.stats();
        c.scrub_step(512);
        let after = c.stats();
        assert_eq!(after.scrubbed_groups - before.scrubbed_groups, 512);
        assert_eq!(after.groups_verified - before.groups_verified, 512);
        assert_eq!(after.scrub_passes - before.scrub_passes, 1);
        assert_eq!(after.scrub_corrections, before.scrub_corrections);
    }

    #[test]
    fn error_injected_after_clean_pass_is_still_repaired() {
        // The dirty flag must be re-raised by injection so a later scrub
        // does not skip the frame.
        let mut c = ctl();
        c.set_mode(EccMode::CorrectAndScrub);
        c.write(0x8, &3u64.to_le_bytes());
        c.scrub_step(512); // frame proven clean
        c.inject_data_error(0x8, 5);
        c.scrub_step(512);
        assert_eq!(c.stats().scrub_corrections, 1);
        assert_eq!(c.memory().read_group(0x8).0, 3);
    }

    #[test]
    fn uncorrectable_group_keeps_the_frame_under_scrutiny() {
        let mut c = ctl();
        c.set_mode(EccMode::CorrectAndScrub);
        c.write(0x10, &1u64.to_le_bytes());
        c.inject_multi_bit_error(0x10);
        c.scrub_step(512);
        let faults = c.take_faults();
        assert_eq!(faults.len(), 1, "scrub reports the uncorrectable group");
        // A second pass still examines the frame and reports again — the
        // frame is never marked clean while an uncorrectable error persists.
        c.scrub_step(512);
        assert_eq!(c.take_faults().len(), 1);
    }

    #[test]
    fn non_scrub_modes_do_not_scrub() {
        let mut c = ctl();
        c.write(0x0, &[1u8]);
        assert_eq!(c.scrub_step(16), 0, "CorrectError must not scrub");
    }

    #[test]
    fn spans_crossing_frame_boundaries_are_seamless() {
        let mut c = EccController::new(1 << 16);
        let addr = 4096 - 13; // straddles the frame boundary
        let data: Vec<u8> = (0..40u8).collect();
        c.write(addr, &data);
        let mut buf = vec![0u8; 40];
        c.read(addr, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(c.peek(addr, 40), data);
    }

    #[test]
    fn read_fills_buffer_even_on_fault() {
        let mut c = ctl();
        c.write(0x400, &[0xEE; 16]);
        c.inject_multi_bit_error(0x400);
        let mut buf = [0u8; 16];
        assert!(c.read(0x400, &mut buf).is_err());
        // Second group was clean and delivered.
        assert_eq!(&buf[8..], &[0xEE; 8]);
    }
}
