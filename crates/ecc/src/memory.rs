//! Dense physical memory with per-group ECC code storage.
//!
//! Memory is organised in 4 KiB *frames* allocated lazily, each holding 4096
//! data bytes and 512 stored check codes (one per 8-byte ECC group). Keeping
//! the stored codes separate from the data is what lets the simulation
//! reproduce the paper's scramble trick: writing data while ECC is disabled
//! leaves the *old* code in place, and a later verification observes the
//! mismatch.
//!
//! The frame table is a dense `Vec<Option<Box<Frame>>>` indexed by frame
//! number — the memory size is fixed at construction, so a frame lookup is
//! one bounds-checked index instead of a hash probe. An *allocation epoch*
//! counter increments whenever a frame is first touched; callers that derive
//! plans from the resident-frame set (the controller's scrubber) key their
//! caches on it.
//!
//! Each frame keeps two bitmaps with one bit per 64-byte scan line. The
//! *dirty* bitmap is conservative syndrome tracking: a clear bit guarantees
//! the line decodes clean. The *held* bitmap marks lines the OS has declared
//! to store their armed watchpoint state, the scrambled original over the
//! original's codes ([`EccMemory::hold_lines`]). A held line is always dirty,
//! so reads of it still verify and fault. Every write, code rewrite or
//! injected flip that reaches a held line drops its hold inside the frame
//! access it already makes, so a hold never outlives the bytes it vouches
//! for. The scrubber skips held lines, which is what lets a coordinated
//! scrub cycle leave them in place instead of restoring and re-scrambling
//! them (DESIGN.md §4.4).

use crate::codec::{Codec, LINE_BYTES, LINE_GROUPS};

/// Bytes per ECC group (64 data bits).
pub const GROUP_BYTES: u64 = 8;
/// Bytes per lazily-allocated physical frame.
pub const FRAME_BYTES: u64 = 4096;
const GROUPS_PER_FRAME: usize = (FRAME_BYTES / GROUP_BYTES) as usize;
/// Scan lines (of [`LINE_GROUPS`] groups) per frame — one bit each in the
/// frame's dirty-line bitmap.
pub(crate) const LINES_PER_FRAME: usize = GROUPS_PER_FRAME / LINE_GROUPS;

struct Frame {
    data: [u8; FRAME_BYTES as usize],
    codes: [u8; GROUPS_PER_FRAME],
    /// Conservative syndrome tracking at cache-line granularity: bit `L`
    /// clear guarantees every group of scan line `L` (groups `8L..8L+8`)
    /// decodes clean, so verification can skip the line outright. Bits are
    /// set on any operation that can leave a stored code inconsistent
    /// (fault injection, data-only writes, explicit-code writes) and
    /// cleared when a whole line is re-encoded or proven clean by the
    /// scrubber. A zero bitmap is the old frame-level `maybe_dirty =
    /// false` guarantee.
    dirty_lines: u64,
    /// Lines holding their armed state (a subset of `dirty_lines`): set by
    /// [`EccMemory::hold_lines`], cleared by any write, code rewrite or
    /// flip that reaches the line, and by [`EccMemory::release_lines`].
    held_lines: u64,
}

impl Frame {
    fn new_boxed() -> Box<Self> {
        // A zero word encodes to a zero check code, so fresh frames are clean.
        Box::new(Frame {
            data: [0u8; FRAME_BYTES as usize],
            codes: [0u8; GROUPS_PER_FRAME],
            dirty_lines: 0,
            held_lines: 0,
        })
    }

    /// Flags the scan line holding the group at byte offset `off` dirty.
    #[inline]
    fn mark_line_dirty(&mut self, off: usize) {
        self.dirty_lines |= 1u64 << (off / LINE_BYTES);
    }

    /// Drops the holds on the lines in `mask` and returns how many there
    /// were.
    #[inline]
    fn release(&mut self, mask: u64) -> usize {
        let held = self.held_lines & mask;
        if held == 0 {
            return 0;
        }
        self.held_lines ^= held;
        held.count_ones() as usize
    }
}

/// Bits of the scan lines overlapping the frame bytes `[lo, hi)`, `lo < hi`.
#[inline]
fn lines_mask(lo: usize, hi: usize) -> u64 {
    let (first, last) = (lo / LINE_BYTES, (hi - 1) / LINE_BYTES);
    (u64::MAX >> (LINES_PER_FRAME - 1 - last)) & (u64::MAX << first)
}

/// Byte-accurate lazily-populated physical memory with stored ECC codes.
///
/// This type is deliberately "dumb": it stores exactly what it is told and
/// never verifies. Policy (when to encode, when to verify, what to do on a
/// mismatch) lives in [`EccController`](crate::EccController).
///
/// # Example
///
/// ```
/// use safemem_ecc::memory::EccMemory;
///
/// let mut mem = EccMemory::new(1 << 16);
/// mem.write_group(0x38, 7, 0x12);
/// assert_eq!(mem.read_group(0x38), (7, 0x12));
/// ```
pub struct EccMemory {
    frames: Vec<Option<Box<Frame>>>,
    size: u64,
    resident: usize,
    epoch: u64,
    /// Held lines over all frames.
    held: usize,
    codec: Codec,
}

impl std::fmt::Debug for EccMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EccMemory")
            .field("size", &self.size)
            .field("resident_frames", &self.resident)
            .field("allocation_epoch", &self.epoch)
            .field("held_lines", &self.held)
            .finish()
    }
}

impl EccMemory {
    /// Creates a physical memory of `size` bytes (rounded up to a whole
    /// number of frames). Frames are allocated on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "physical memory size must be non-zero");
        let size = size.div_ceil(FRAME_BYTES) * FRAME_BYTES;
        let frame_count = (size / FRAME_BYTES) as usize;
        EccMemory {
            frames: (0..frame_count).map(|_| None).collect(),
            size,
            resident: 0,
            epoch: 0,
            held: 0,
            codec: Codec::new(),
        }
    }

    /// Total addressable bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of frames currently resident (touched at least once).
    #[must_use]
    pub fn resident_frames(&self) -> usize {
        self.resident
    }

    /// Monotonic counter that increments each time a frame becomes resident.
    /// Frames are never freed, so two equal epochs guarantee an identical
    /// resident-frame set — the controller keys its cached scrub plan on it.
    #[must_use]
    pub fn allocation_epoch(&self) -> u64 {
        self.epoch
    }

    /// Addresses of all resident frames, in ascending order. Used by the
    /// scrubber to avoid scanning untouched memory.
    #[must_use]
    pub fn resident_frame_addrs(&self) -> Vec<u64> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|_| i as u64 * FRAME_BYTES))
            .collect()
    }

    /// Panics with the physical-access message unless `[addr, addr+len)`
    /// lies within memory. Public so the controller can validate a whole
    /// span up front instead of wrapping at the group loop.
    ///
    /// # Panics
    ///
    /// Panics if the range overflows or exceeds physical memory.
    pub fn check_range(&self, addr: u64, len: u64) {
        assert!(
            addr.checked_add(len).is_some_and(|end| end <= self.size),
            "physical access out of range: addr={addr:#x} len={len}"
        );
    }

    #[inline]
    fn frame_index(addr: u64) -> usize {
        (addr / FRAME_BYTES) as usize
    }

    /// Returns the frame containing `addr`, allocating it on first touch.
    fn frame_mut(&mut self, addr: u64) -> &mut Frame {
        let slot = &mut self.frames[Self::frame_index(addr)];
        if slot.is_none() {
            *slot = Some(Frame::new_boxed());
            self.resident += 1;
            self.epoch += 1;
        }
        slot.as_mut().expect("slot populated above")
    }

    /// Data and code slices of the frame starting at `frame_addr`, or `None`
    /// if the frame has never been touched (all-zero, clean). The fast read
    /// path scans syndromes straight off these slices.
    pub(crate) fn frame_slices(&self, frame_addr: u64) -> Option<(&[u8], &[u8])> {
        self.frames[Self::frame_index(frame_addr)]
            .as_deref()
            .map(|f| (&f.data[..], &f.codes[..]))
    }

    /// Dirty-line bitmap of the frame containing `frame_addr`: bit `L` clear
    /// guarantees scan line `L` (groups `8L..8L+8`) decodes clean. Untouched
    /// frames are all-clean (zero).
    pub(crate) fn frame_dirty_lines(&self, frame_addr: u64) -> u64 {
        self.frames[Self::frame_index(frame_addr)]
            .as_deref()
            .map_or(0, |f| f.dirty_lines)
    }

    /// The lines of the frame containing `frame_addr` the scrubber must
    /// examine: the dirty ones that are not held.
    pub(crate) fn frame_scrub_lines(&self, frame_addr: u64) -> u64 {
        self.frames[Self::frame_index(frame_addr)]
            .as_deref()
            .map_or(0, |f| f.dirty_lines & !f.held_lines)
    }

    /// Number of held lines over all of memory.
    #[must_use]
    pub fn held_lines(&self) -> usize {
        self.held
    }

    /// Whether the 64-byte line containing `addr` is held.
    #[must_use]
    pub fn is_line_held(&self, addr: u64) -> bool {
        self.frames[Self::frame_index(addr)]
            .as_deref()
            .is_some_and(|f| {
                f.held_lines & (1u64 << ((addr % FRAME_BYTES) as usize / LINE_BYTES)) != 0
            })
    }

    /// Holds each consecutive 64-byte line from `addr` whose stored codes
    /// equal the next entry of `codes`, and returns how many were newly
    /// held. The caller declares that each line stores its armed state:
    /// the scrambled original over the codes of the original, so restoring
    /// the original with those codes and re-scrambling it with ECC off
    /// would leave the line as it is. The lines must lie in one frame.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned or the lines leave the frame.
    pub fn hold_lines(
        &mut self,
        addr: u64,
        codes: impl IntoIterator<Item = [u8; LINE_GROUPS]>,
    ) -> usize {
        assert!(addr.is_multiple_of(LINE_BYTES as u64), "line-aligned hold");
        self.check_range(addr, LINE_BYTES as u64);
        let frame_addr = addr & !(FRAME_BYTES - 1);
        let first = ((addr - frame_addr) as usize) / LINE_BYTES;
        let frame = self.frame_mut(frame_addr);
        let mut newly = 0;
        for (line, codes) in (first..).zip(codes) {
            assert!(line < LINES_PER_FRAME, "held lines stay in one frame");
            let bit = 1u64 << line;
            if frame.held_lines & bit == 0
                && frame.codes[line * LINE_GROUPS..(line + 1) * LINE_GROUPS] == codes
            {
                debug_assert!(frame.dirty_lines & bit != 0, "an armed line is dirty");
                frame.held_lines |= bit;
                newly += 1;
            }
        }
        self.held += newly;
        newly
    }

    /// Drops the holds on every 64-byte line overlapping `[addr, addr +
    /// len)` without touching the stored bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn release_lines(&mut self, addr: u64, len: u64) {
        self.check_range(addr, len);
        if len == 0 {
            return;
        }
        let end = addr + len;
        let mut frame_addr = addr & !(FRAME_BYTES - 1);
        while frame_addr < end {
            let lo = (frame_addr.max(addr) - frame_addr) as usize;
            let hi = ((frame_addr + FRAME_BYTES).min(end) - frame_addr) as usize;
            if let Some(frame) = self.frames[Self::frame_index(frame_addr)].as_deref_mut() {
                self.held -= frame.release(lines_mask(lo, hi));
            }
            frame_addr += FRAME_BYTES;
        }
    }

    /// Returns the stored codes of the aligned line at `addr` when they are
    /// provably consistent — the line's dirty bit is clear, so every stored
    /// code equals `encode` of the stored data. Untouched frames hold
    /// all-zero data under all-zero codes, which are consistent by
    /// construction (`encode(0) == 0` for a Hsiao code).
    pub(crate) fn line_codes_if_clean(&self, addr: u64) -> Option<[u8; LINE_GROUPS]> {
        debug_assert!(addr.is_multiple_of(LINE_BYTES as u64), "line-aligned");
        let frame_addr = addr & !(FRAME_BYTES - 1);
        let Some(frame) = self.frames[Self::frame_index(frame_addr)].as_deref() else {
            return Some([0; LINE_GROUPS]);
        };
        let line = ((addr - frame_addr) as usize) / LINE_BYTES;
        if frame.dirty_lines & (1u64 << line) != 0 {
            return None;
        }
        Some(
            frame.codes[line * LINE_GROUPS..(line + 1) * LINE_GROUPS]
                .try_into()
                .expect("code slice"),
        )
    }

    /// Copies the aligned line at `addr` into `out` and returns `true` if
    /// its dirty bit is clear, so every group of it decodes clean; an
    /// untouched frame reads as zeros. Returns `false`, copying nothing,
    /// for a dirty line.
    pub(crate) fn read_line_if_clean(&self, addr: u64, out: &mut [u8; LINE_BYTES]) -> bool {
        debug_assert!(addr.is_multiple_of(LINE_BYTES as u64), "line-aligned");
        let off = (addr % FRAME_BYTES) as usize;
        match self.frames[Self::frame_index(addr)].as_deref() {
            None => out.fill(0),
            Some(frame) if frame.dirty_lines & (1u64 << (off / LINE_BYTES)) == 0 => {
                out.copy_from_slice(&frame.data[off..off + LINE_BYTES]);
            }
            Some(_) => return false,
        }
        true
    }

    /// Records that every group of the frame outside its held lines has
    /// been verified clean (the scrubber calls this after a full-frame pass
    /// found and repaired every inconsistency). Held lines stay dirty.
    pub(crate) fn mark_frame_clean(&mut self, frame_addr: u64) {
        if let Some(frame) = self.frames[Self::frame_index(frame_addr)].as_deref_mut() {
            frame.dirty_lines &= frame.held_lines;
        }
    }

    /// Clears the given lines of the frame's dirty bitmap — the scrubber
    /// calls this after proving (and where needed repairing) every group of
    /// those lines.
    pub(crate) fn clear_dirty_lines(&mut self, frame_addr: u64, mask: u64) {
        if let Some(frame) = self.frames[Self::frame_index(frame_addr)].as_deref_mut() {
            frame.dirty_lines &= !mask;
        }
    }

    /// Reads the data word and stored code of the group containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the group lies outside physical memory.
    #[must_use]
    pub fn read_group(&self, addr: u64) -> (u64, u8) {
        let group_addr = addr & !(GROUP_BYTES - 1);
        self.check_range(group_addr, GROUP_BYTES);
        match &self.frames[Self::frame_index(group_addr)] {
            None => (0, 0),
            Some(frame) => {
                let off = (group_addr % FRAME_BYTES) as usize;
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&frame.data[off..off + 8]);
                let code = frame.codes[off / GROUP_BYTES as usize];
                (u64::from_le_bytes(bytes), code)
            }
        }
    }

    /// Stores a data word together with an explicit code for the group
    /// containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the group lies outside physical memory.
    pub fn write_group(&mut self, addr: u64, data: u64, code: u8) {
        let group_addr = addr & !(GROUP_BYTES - 1);
        self.check_range(group_addr, GROUP_BYTES);
        let frame = self.frame_mut(group_addr);
        let off = (group_addr % FRAME_BYTES) as usize;
        frame.data[off..off + 8].copy_from_slice(&data.to_le_bytes());
        frame.codes[off / GROUP_BYTES as usize] = code;
        // The caller chose the code; it may not match the data.
        frame.mark_line_dirty(off);
        self.held -= frame.release(1u64 << (off / LINE_BYTES));
    }

    /// Stores only the data word of a group, leaving the stored code
    /// untouched. This is what a write with ECC disabled does.
    ///
    /// # Panics
    ///
    /// Panics if the group lies outside physical memory.
    pub fn write_group_data_only(&mut self, addr: u64, data: u64) {
        let group_addr = addr & !(GROUP_BYTES - 1);
        self.check_range(group_addr, GROUP_BYTES);
        let frame = self.frame_mut(group_addr);
        let off = (group_addr % FRAME_BYTES) as usize;
        frame.data[off..off + 8].copy_from_slice(&data.to_le_bytes());
        frame.mark_line_dirty(off);
        self.held -= frame.release(1u64 << (off / LINE_BYTES));
    }

    /// Recomputes and stores the correct code for a group from its current
    /// data (used when correcting, or when re-arming a group).
    ///
    /// # Panics
    ///
    /// Panics if the group lies outside physical memory.
    pub fn rewrite_code(&mut self, addr: u64) {
        let group_addr = addr & !(GROUP_BYTES - 1);
        self.check_range(group_addr, GROUP_BYTES);
        let codec = self.codec;
        let frame = self.frame_mut(group_addr);
        let off = (group_addr % FRAME_BYTES) as usize;
        let bytes: &[u8; 8] = frame.data[off..off + 8]
            .try_into()
            .expect("group is 8 bytes");
        frame.codes[off / GROUP_BYTES as usize] = codec.encode_bytes(bytes);
        self.held -= frame.release(1u64 << (off / LINE_BYTES));
    }

    /// Flips a single stored *data* bit without touching the code — a
    /// hardware-fault injection hook for tests and experiments.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64` or the group lies outside physical memory.
    pub fn flip_data_bit(&mut self, addr: u64, bit: u8) {
        assert!(bit < 64, "data bit out of range");
        let group_addr = addr & !(GROUP_BYTES - 1);
        self.check_range(group_addr, GROUP_BYTES);
        let frame = self.frame_mut(group_addr);
        let off = (group_addr % FRAME_BYTES) as usize + (bit / 8) as usize;
        frame.data[off] ^= 1u8 << (bit % 8);
        frame.mark_line_dirty(off);
        self.held -= frame.release(1u64 << (off / LINE_BYTES));
    }

    /// Flips a single stored *check* bit without touching the data.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8` or the group lies outside physical memory.
    pub fn flip_code_bit(&mut self, addr: u64, bit: u8) {
        assert!(bit < 8, "check bit out of range");
        let group_addr = addr & !(GROUP_BYTES - 1);
        self.check_range(group_addr, GROUP_BYTES);
        let frame = self.frame_mut(group_addr);
        let off = (group_addr % FRAME_BYTES) as usize;
        frame.codes[off / GROUP_BYTES as usize] ^= 1u8 << bit;
        frame.mark_line_dirty(off);
        self.held -= frame.release(1u64 << (off / LINE_BYTES));
    }

    /// Copies `buf.len()` raw stored data bytes starting at `addr` into
    /// `buf`, frame by frame with slice copies. Untouched frames read as
    /// zeros. Stored codes are neither read nor checked.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn read_range(&self, addr: u64, buf: &mut [u8]) {
        self.check_range(addr, buf.len() as u64);
        let end = addr + buf.len() as u64;
        let mut frame_addr = addr & !(FRAME_BYTES - 1);
        while frame_addr < end {
            let lo = frame_addr.max(addr);
            let hi = (frame_addr + FRAME_BYTES).min(end);
            let dst = &mut buf[(lo - addr) as usize..(hi - addr) as usize];
            match &self.frames[Self::frame_index(frame_addr)] {
                None => dst.fill(0),
                Some(frame) => {
                    let off = (lo - frame_addr) as usize;
                    dst.copy_from_slice(&frame.data[off..off + dst.len()]);
                }
            }
            frame_addr += FRAME_BYTES;
        }
    }

    /// Writes one aligned line with caller-supplied check codes, skipping
    /// the encode entirely — the watch-disarm shape, where the codes of the
    /// (unchanged) original data were computed once at arm time. The caller
    /// guarantees `codes == Codec::encode_line(data)`; stored state is
    /// byte-identical to [`write_range_encoded`](Self::write_range_encoded).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned or the line exceeds memory.
    pub fn write_line_precoded(
        &mut self,
        addr: u64,
        data: &[u8; LINE_BYTES],
        codes: &[u8; LINE_GROUPS],
    ) {
        self.check_range(addr, LINE_BYTES as u64);
        assert!(addr.is_multiple_of(LINE_BYTES as u64), "line-aligned write");
        let frame_addr = addr & !(FRAME_BYTES - 1);
        let off = (addr - frame_addr) as usize;
        let line = off / LINE_BYTES;
        let frame = self.frame_mut(frame_addr);
        frame.data[off..off + LINE_BYTES].copy_from_slice(data);
        frame.codes[line * LINE_GROUPS..(line + 1) * LINE_GROUPS].copy_from_slice(codes);
        frame.dirty_lines &= !(1u64 << line);
        self.held -= frame.release(1u64 << line);
    }

    /// Writes `buf` at `addr` and recomputes the stored code of every
    /// touched group from its (merged) post-write contents — the bulk
    /// equivalent of a per-group encode-and-store loop, but with one frame
    /// lookup and one slice copy per frame.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn write_range_encoded(&mut self, addr: u64, buf: &[u8]) {
        self.check_range(addr, buf.len() as u64);
        if buf.is_empty() {
            return;
        }
        let codec = self.codec;
        // Aligned single-line writes — the cache writeback and watch
        // disarm shape — skip the general frame walk entirely.
        if buf.len() == LINE_BYTES && addr.is_multiple_of(LINE_BYTES as u64) {
            let bytes: &[u8; LINE_BYTES] = buf.try_into().expect("line-sized buf");
            let codes = codec.encode_line(bytes);
            let frame_addr = addr & !(FRAME_BYTES - 1);
            let off = (addr - frame_addr) as usize;
            let line = off / LINE_BYTES;
            let frame = self.frame_mut(frame_addr);
            frame.data[off..off + LINE_BYTES].copy_from_slice(buf);
            frame.codes[line * LINE_GROUPS..(line + 1) * LINE_GROUPS].copy_from_slice(&codes);
            frame.dirty_lines &= !(1u64 << line);
            self.held -= frame.release(1u64 << line);
            return;
        }
        let end = addr + buf.len() as u64;
        let mut frame_addr = addr & !(FRAME_BYTES - 1);
        while frame_addr < end {
            let lo = frame_addr.max(addr);
            let hi = (frame_addr + FRAME_BYTES).min(end);
            let frame = self.frame_mut(frame_addr);
            let off = (lo - frame_addr) as usize;
            frame.data[off..off + (hi - lo) as usize]
                .copy_from_slice(&buf[(lo - addr) as usize..(hi - addr) as usize]);
            // Re-encode every group the span overlaps, including partially
            // covered first/last groups (their code reflects the merged word).
            let gs = (lo & !(GROUP_BYTES - 1)) - frame_addr;
            let g0 = (gs / GROUP_BYTES) as usize;
            let ge = ((hi - frame_addr) as usize).div_ceil(GROUP_BYTES as usize);
            // Whole scan lines inside [g0, ge) take the bit-plane batch
            // encoder; ragged head/tail groups fall back to the per-byte
            // table walk. Either way the stored codes are identical.
            let line_lo = g0.div_ceil(LINE_GROUPS);
            let line_hi = ge / LINE_GROUPS;
            let (head, tail) = if line_lo <= line_hi {
                for line in line_lo..line_hi {
                    let o = line * LINE_BYTES;
                    let bytes: &[u8; LINE_BYTES] = frame.data[o..o + LINE_BYTES]
                        .try_into()
                        .expect("line is 64 bytes");
                    let codes: [u8; LINE_GROUPS] = codec.encode_line(bytes);
                    frame.codes[line * LINE_GROUPS..(line + 1) * LINE_GROUPS]
                        .copy_from_slice(&codes);
                }
                (g0..line_lo * LINE_GROUPS, line_hi * LINE_GROUPS..ge)
            } else {
                (g0..ge, 0..0)
            };
            for g in head.chain(tail) {
                let o = g * GROUP_BYTES as usize;
                let bytes: &[u8; 8] = frame.data[o..o + 8].try_into().expect("group is 8 bytes");
                frame.codes[g] = codec.encode_bytes(bytes);
            }
            // Every group of a fully re-encoded line is now consistent with
            // its code, so those lines are provably clean again.
            if line_lo < line_hi {
                frame.dirty_lines &= !lines_mask(line_lo * LINE_BYTES, line_hi * LINE_BYTES);
            }
            self.held -= frame.release(lines_mask(off, (hi - frame_addr) as usize));
            frame_addr += FRAME_BYTES;
        }
    }

    /// Writes `buf` at `addr` leaving every stored code untouched — the bulk
    /// equivalent of [`EccMemory::write_group_data_only`] per group, used for
    /// writes while ECC is disabled.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds physical memory.
    pub fn write_range_data_only(&mut self, addr: u64, buf: &[u8]) {
        self.check_range(addr, buf.len() as u64);
        if buf.is_empty() {
            return;
        }
        let end = addr + buf.len() as u64;
        let mut frame_addr = addr & !(FRAME_BYTES - 1);
        while frame_addr < end {
            let lo = frame_addr.max(addr);
            let hi = (frame_addr + FRAME_BYTES).min(end);
            let frame = self.frame_mut(frame_addr);
            let off = (lo - frame_addr) as usize;
            frame.data[off..off + (hi - lo) as usize]
                .copy_from_slice(&buf[(lo - addr) as usize..(hi - addr) as usize]);
            // Stored codes are now stale for every touched line.
            let touched = lines_mask(off, (hi - frame_addr) as usize);
            frame.dirty_lines |= touched;
            self.held -= frame.release(touched);
            frame_addr += FRAME_BYTES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_rounds_up_to_frames() {
        let mem = EccMemory::new(1);
        assert_eq!(mem.size(), FRAME_BYTES);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_rejected() {
        let _ = EccMemory::new(0);
    }

    #[test]
    fn untouched_memory_reads_zero_clean() {
        let mem = EccMemory::new(1 << 16);
        assert_eq!(mem.read_group(0x1000), (0, 0));
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn group_roundtrip_with_unaligned_addr() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(0x43, 0xABCD, 0x55); // group address is 0x40
        assert_eq!(mem.read_group(0x40), (0xABCD, 0x55));
        assert_eq!(mem.read_group(0x47), (0xABCD, 0x55));
    }

    #[test]
    fn data_only_write_preserves_stale_code() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(0x80, 1, 0x13);
        mem.write_group_data_only(0x80, 2);
        assert_eq!(mem.read_group(0x80), (2, 0x13));
    }

    #[test]
    fn rewrite_code_makes_group_consistent() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(0x80, 99, 0xFF);
        mem.rewrite_code(0x80);
        let (data, code) = mem.read_group(0x80);
        assert_eq!(data, 99);
        assert_eq!(Codec::new().syndrome(data, code), 0);
    }

    #[test]
    fn bit_flips_touch_only_their_target() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(0x100, 0, 0);
        mem.flip_data_bit(0x100, 63);
        assert_eq!(mem.read_group(0x100), (1u64 << 63, 0));
        mem.flip_code_bit(0x100, 0);
        assert_eq!(mem.read_group(0x100), (1u64 << 63, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_access_panics() {
        let mem = EccMemory::new(1 << 12);
        let _ = mem.read_group(1 << 12);
    }

    #[test]
    fn groups_on_frame_boundaries_are_independent() {
        let mut mem = EccMemory::new(1 << 16);
        // Last group of frame 0 and first group of frame 1.
        mem.write_group(FRAME_BYTES - 8, 0xAAAA, 0x11);
        mem.write_group(FRAME_BYTES, 0xBBBB, 0x22);
        assert_eq!(mem.read_group(FRAME_BYTES - 8), (0xAAAA, 0x11));
        assert_eq!(mem.read_group(FRAME_BYTES), (0xBBBB, 0x22));
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn resident_frames_tracks_touched_frames() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(0x0, 1, 0);
        mem.write_group(0x8, 2, 0); // same frame
        mem.write_group(0x1000, 3, 0); // new frame
        assert_eq!(mem.resident_frames(), 2);
        assert_eq!(mem.resident_frame_addrs(), vec![0x0, 0x1000]);
    }

    #[test]
    fn allocation_epoch_counts_first_touches_only() {
        let mut mem = EccMemory::new(1 << 16);
        assert_eq!(mem.allocation_epoch(), 0);
        mem.write_group(0x0, 1, 0);
        mem.write_group(0x8, 2, 0); // same frame: no new allocation
        assert_eq!(mem.allocation_epoch(), 1);
        mem.write_group(0x2000, 3, 0);
        assert_eq!(mem.allocation_epoch(), 2);
        let _ = mem.read_group(0x3000); // reads never allocate
        assert_eq!(mem.allocation_epoch(), 2);
    }

    #[test]
    fn read_range_matches_group_reads_across_frames() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(FRAME_BYTES - 8, u64::from_le_bytes(*b"ABCDEFGH"), 0);
        mem.write_group(FRAME_BYTES, u64::from_le_bytes(*b"IJKLMNOP"), 0);
        let mut buf = [0u8; 12];
        mem.read_range(FRAME_BYTES - 6, &mut buf);
        assert_eq!(&buf, b"CDEFGHIJKLMN");
    }

    #[test]
    fn read_range_zero_fills_untouched_frames() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(0x0, u64::MAX, 0xFF);
        let mut buf = [0xAAu8; 16];
        mem.read_range(FRAME_BYTES - 8, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_range_encoded_matches_per_group_encode() {
        let codec = Codec::new();
        let mut mem = EccMemory::new(1 << 16);
        // Unaligned span partially covering first and last groups.
        let payload: Vec<u8> = (0..29u8).map(|i| i.wrapping_mul(37)).collect();
        mem.write_range_encoded(0x103, &payload);
        for g in (0x100..0x128).step_by(8) {
            let (data, code) = mem.read_group(g);
            assert_eq!(code, codec.encode(data), "group {g:#x} code mismatch");
        }
        let mut back = vec![0u8; payload.len()];
        mem.read_range(0x103, &mut back);
        assert_eq!(back, payload);
    }

    #[test]
    fn write_range_data_only_leaves_codes_stale() {
        let mut mem = EccMemory::new(1 << 16);
        mem.write_group(0x40, 5, 0x3C);
        mem.write_range_data_only(0x40, &[9, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(mem.read_group(0x40), (9, 0x3C));
    }
}
