//! Struct-of-arrays trace layout for the campaign replay hot loop.
//!
//! A [`Trace`](crate::Trace) stores one Rust enum per operation: 48 bytes
//! of tagged union (plus a heap `Vec` per `Malloc` for its call-stack
//! frames) walked through a ten-arm `match`. Campaigns replay each recorded
//! trace once per panel tool, so that walk — pointer-chasing, cold per-op
//! payloads, unpredictable dispatch — is the inner loop of every preset.
//!
//! [`ColumnarTrace`] flattens the same op stream into parallel columns:
//! one byte of op kind, one `u32` slot id, one `i64` offset, one `u32`
//! length and one `u8` fill byte per op, plus *side columns* — a packed
//! freed-access flag bitset, the marker classes in emission order, and all
//! call-stack frames flattened into a single `u64` array with per-malloc
//! lengths. The replay scan streams these columns front to back: each
//! column is dense and homogeneous, the kind byte drives one well-predicted
//! jump table, and nothing in the loop allocates.
//!
//! This is the only production replay engine: [`Trace::replay`] flattens
//! and runs it too. Its behaviour is bit-for-bit identical to the
//! [`Trace::replay_naive`] oracle; `tests/` replays golden campaign seeds
//! and proptest-generated synthetic traces through both and asserts equal
//! [`RunResult`]s.

use crate::driver::RunResult;
use crate::trace::{Trace, TraceOp};
use safemem_core::{CallStack, IncidentClass, MemTool};
use safemem_os::Os;

/// Dense op discriminant for the kind column. The numeric values are an
/// internal layout detail (they never leave the process; the on-disk corpus
/// stores the text op tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Binds the next dense slot id; frames live in the side columns.
    Malloc = 0,
    /// Frees a live slot (no-op on a retired slot).
    Free = 1,
    /// Reads `len` bytes at `offset` within a live slot.
    Read = 2,
    /// Writes `len` bytes of `fill` at `offset` within a live slot.
    Write = 3,
    /// CPU work: `offset` holds cycles; the memory-access count is split
    /// across the slot (high 32 bits) and length (low 32 bits) columns.
    Compute = 4,
    /// Blocking I/O: `offset` holds nanoseconds.
    Io = 5,
    /// Ground-truth incident marker; the class sits in the marker column.
    Marker = 6,
}

/// Flag bit marking a retired (freed) slot in the replayer's slot map. The
/// freed address is kept under the flag so freed-access ops can still
/// resolve it; heap virtual addresses never reach bit 63, so the flag
/// cannot collide with a live address.
const RETIRED: u64 = 1 << 63;

/// A recorded op stream flattened to struct-of-arrays columns.
///
/// Build one with [`ColumnarTrace::from_trace`]; replay it with
/// [`ColumnarTrace::replay`] or, reusing buffers across traces, with
/// [`ColumnarReplayer::replay`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnarTrace {
    /// Op kind per operation.
    kinds: Vec<OpKind>,
    /// Slot (buffer) id per operation; 0 where the kind has no slot.
    slots: Vec<u32>,
    /// Byte offset within the slot's buffer; cycles for `Compute`,
    /// nanoseconds (bit-cast) for `Io`; 0 where unused.
    offsets: Vec<i64>,
    /// Access length; memory accesses for `Compute`; 0 where unused.
    lens: Vec<u32>,
    /// Fill byte for writes; 0 where unused.
    fills: Vec<u8>,
    /// Side column: packed bitset, bit `i` set = op `i` targets a *freed*
    /// slot (`ReadFreed`/`WriteFreed`/`FreeAgain` in the enum layout).
    freed: Vec<u64>,
    /// Side column: marker classes in emission order, consumed by a cursor
    /// at each `Marker` kind.
    markers: Vec<IncidentClass>,
    /// Side column: call-stack frames of every `Malloc`, flattened.
    frames: Vec<u64>,
    /// Side column: frames-per-malloc, consumed by a cursor.
    frame_lens: Vec<u32>,
}

impl ColumnarTrace {
    /// Flattens an enum-layout trace into columns. Pure layout change: the
    /// op stream, ids and payloads are preserved exactly.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let n = trace.len();
        let mut t = ColumnarTrace {
            kinds: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            offsets: Vec::with_capacity(n),
            lens: Vec::with_capacity(n),
            fills: Vec::with_capacity(n),
            freed: vec![0u64; n.div_ceil(64)],
            markers: Vec::new(),
            frames: Vec::new(),
            frame_lens: Vec::new(),
        };
        for (i, op) in trace.ops().iter().enumerate() {
            let (kind, slot, offset, len, fill) = match op {
                TraceOp::Malloc { size, frames } => {
                    t.frames.extend_from_slice(frames);
                    t.frame_lens.push(frames.len() as u32);
                    #[allow(clippy::cast_possible_wrap)]
                    (OpKind::Malloc, 0, *size as i64, 0, 0)
                }
                TraceOp::Free { id } => (OpKind::Free, *id, 0, 0, 0),
                TraceOp::Read { id, offset, len } => (OpKind::Read, *id, *offset, *len, 0),
                TraceOp::Write {
                    id,
                    offset,
                    len,
                    fill,
                } => (OpKind::Write, *id, *offset, *len, *fill),
                TraceOp::Compute {
                    cycles,
                    mem_accesses,
                } =>
                {
                    #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
                    (
                        OpKind::Compute,
                        (*mem_accesses >> 32) as u32,
                        *cycles as i64,
                        *mem_accesses as u32,
                        0,
                    )
                }
                TraceOp::Io { ns } =>
                {
                    #[allow(clippy::cast_possible_wrap)]
                    (OpKind::Io, 0, *ns as i64, 0, 0)
                }
                TraceOp::ReadFreed { id, offset, len } => {
                    t.freed[i / 64] |= 1u64 << (i % 64);
                    (OpKind::Read, *id, *offset, *len, 0)
                }
                TraceOp::WriteFreed {
                    id,
                    offset,
                    len,
                    fill,
                } => {
                    t.freed[i / 64] |= 1u64 << (i % 64);
                    (OpKind::Write, *id, *offset, *len, *fill)
                }
                TraceOp::FreeAgain { id } => {
                    t.freed[i / 64] |= 1u64 << (i % 64);
                    (OpKind::Free, *id, 0, 0, 0)
                }
                TraceOp::Marker { kind } => {
                    t.markers.push(*kind);
                    (OpKind::Marker, 0, 0, 0, 0)
                }
            };
            t.kinds.push(kind);
            t.slots.push(slot);
            t.offsets.push(offset);
            t.lens.push(len);
            t.fills.push(fill);
        }
        t
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the trace holds no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of `Malloc` ops — the binomial `n` for sampling statistics,
    /// identical to [`Trace::malloc_count`] on the source trace.
    #[must_use]
    pub fn malloc_count(&self) -> u64 {
        self.frame_lens.len() as u64
    }

    /// The ground-truth incident markers, in emission order.
    #[must_use]
    pub fn markers(&self) -> &[IncidentClass] {
        &self.markers
    }

    /// Replays against a tool with fresh buffers. Campaign loops should
    /// hold a [`ColumnarReplayer`] and reuse it instead.
    pub fn replay(&self, os: &mut Os, tool: &mut dyn MemTool) -> RunResult {
        ColumnarReplayer::new().replay(self, os, tool)
    }
}

/// Reusable buffers for the columnar replay scan: a dense slot map from
/// buffer id to replay address (with the `RETIRED` flag bit marking freed
/// slots) and one grow-only scratch payload. Buffers are cleared, not
/// dropped, between traces, so a worker replaying a whole campaign shard
/// touches the allocator only when a trace's largest access grows the
/// scratch. Freed accesses are skipped unless the op carries the freed
/// flag, and an id no `Malloc` ever bound trips a debug assertion.
#[derive(Debug, Default)]
pub struct ColumnarReplayer {
    addrs: Vec<u64>,
    scratch: Vec<u8>,
}

impl ColumnarReplayer {
    /// Creates a replayer with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        ColumnarReplayer::default()
    }

    fn scratch_mut(&mut self, len: usize) -> &mut [u8] {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0);
        }
        &mut self.scratch[..len]
    }

    /// Replays a columnar trace. Equivalent to [`Trace::replay_naive`] on
    /// the source trace; the differential suites assert equal
    /// [`RunResult`]s over golden campaign seeds and proptest-generated op
    /// streams.
    pub fn replay(
        &mut self,
        trace: &ColumnarTrace,
        os: &mut Os,
        tool: &mut dyn MemTool,
    ) -> RunResult {
        self.addrs.clear();
        let mut marker_cursor = 0usize;
        let mut frame_cursor = 0usize;
        let mut malloc_cursor = 0usize;
        for i in 0..trace.kinds.len() {
            let slot = trace.slots[i] as usize;
            let freed = trace.freed[i / 64] >> (i % 64) & 1 != 0;
            match trace.kinds[i] {
                OpKind::Malloc => {
                    let nframes = trace.frame_lens[malloc_cursor] as usize;
                    malloc_cursor += 1;
                    let frames = &trace.frames[frame_cursor..frame_cursor + nframes];
                    frame_cursor += nframes;
                    let stack = CallStack::new(frames);
                    #[allow(clippy::cast_sign_loss)]
                    let size = trace.offsets[i] as u64;
                    self.addrs.push(tool.malloc(os, size, &stack));
                }
                OpKind::Free => {
                    debug_assert!(
                        slot < self.addrs.len(),
                        "trace frees id {slot} but only {} ids were bound",
                        self.addrs.len()
                    );
                    match self.addrs.get_mut(slot) {
                        Some(s) if !freed && *s & RETIRED == 0 => {
                            let addr = *s;
                            *s = addr | RETIRED;
                            tool.free(os, addr);
                        }
                        Some(s) if freed && *s & RETIRED != 0 => {
                            let addr = *s & !RETIRED;
                            tool.free(os, addr);
                        }
                        _ => {}
                    }
                }
                OpKind::Read => {
                    debug_assert!(
                        slot < self.addrs.len(),
                        "trace reads id {slot} but only {} ids were bound",
                        self.addrs.len()
                    );
                    match self.addrs.get(slot).copied() {
                        Some(a) if (a & RETIRED != 0) == freed => {
                            let addr = (a & !RETIRED).wrapping_add_signed(trace.offsets[i]);
                            let buf = self.scratch_mut(trace.lens[i] as usize);
                            tool.read(os, addr, buf);
                        }
                        _ => {}
                    }
                }
                OpKind::Write => {
                    debug_assert!(
                        slot < self.addrs.len(),
                        "trace writes id {slot} but only {} ids were bound",
                        self.addrs.len()
                    );
                    match self.addrs.get(slot).copied() {
                        Some(a) if (a & RETIRED != 0) == freed => {
                            let addr = (a & !RETIRED).wrapping_add_signed(trace.offsets[i]);
                            let fill = trace.fills[i];
                            let data = self.scratch_mut(trace.lens[i] as usize);
                            data.fill(fill);
                            tool.write(os, addr, data);
                        }
                        _ => {}
                    }
                }
                OpKind::Compute => {
                    #[allow(clippy::cast_sign_loss)]
                    let cycles = trace.offsets[i] as u64;
                    let mem_accesses = (slot as u64) << 32 | u64::from(trace.lens[i]);
                    tool.compute(os, cycles, mem_accesses);
                }
                OpKind::Io => {
                    #[allow(clippy::cast_sign_loss)]
                    os.io_wait_ns(trace.offsets[i] as u64);
                }
                OpKind::Marker => {
                    tool.mark_incident(trace.markers[marker_cursor]);
                    marker_cursor += 1;
                }
            }
        }
        tool.finish(os);
        RunResult {
            cpu_cycles: os.cpu_cycles(),
            reports: tool.reports(),
            heap_stats: tool.heap().stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_core::{NullTool, SafeMem};

    fn uaf_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceOp::Malloc {
            size: 100,
            frames: vec![0x1, 0x2],
        });
        t.push(TraceOp::Write {
            id: 0,
            offset: 0,
            len: 100,
            fill: 7,
        });
        t.push(TraceOp::Compute {
            cycles: 5000,
            mem_accesses: 120,
        });
        t.push(TraceOp::Free { id: 0 });
        t.push(TraceOp::ReadFreed {
            id: 0,
            offset: 16,
            len: 8,
        });
        t.push(TraceOp::Marker {
            kind: IncidentClass::UseAfterFree,
        });
        t.push(TraceOp::FreeAgain { id: 0 });
        t.push(TraceOp::Marker {
            kind: IncidentClass::DoubleFree,
        });
        t.push(TraceOp::Io { ns: 1500 });
        t
    }

    #[test]
    fn columnar_replay_matches_naive_replay_on_freed_ops() {
        let t = uaf_trace();
        let col = ColumnarTrace::from_trace(&t);
        assert_eq!(col.len(), t.len());
        assert_eq!(col.malloc_count(), t.malloc_count());
        assert_eq!(
            col.markers(),
            [IncidentClass::UseAfterFree, IncidentClass::DoubleFree]
        );
        let naive_run = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
            t.replay_naive(&mut os, &mut tool)
        };
        let col_run = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
            col.replay(&mut os, &mut tool)
        };
        assert_eq!(naive_run, col_run);
        assert!(col_run.corruption_detected());
    }

    #[test]
    fn accesses_to_freed_slots_are_skipped_without_the_flag() {
        let mut t = Trace::new();
        t.push(TraceOp::Malloc {
            size: 16,
            frames: vec![0x1],
        });
        t.push(TraceOp::Free { id: 0 });
        t.push(TraceOp::Read {
            id: 0,
            offset: 0,
            len: 8,
        });
        let col = ColumnarTrace::from_trace(&t);
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = NullTool::new();
        let result = col.replay(&mut os, &mut tool);
        assert!(result.reports.is_empty());
    }

    #[test]
    fn replayer_reuse_across_traces_is_clean() {
        let a = uaf_trace();
        let mut b = Trace::new();
        b.push(TraceOp::Malloc {
            size: 32,
            frames: vec![0x9],
        });
        b.push(TraceOp::Write {
            id: 0,
            offset: 0,
            len: 32,
            fill: 5,
        });
        b.push(TraceOp::Free { id: 0 });
        let (ca, cb) = (ColumnarTrace::from_trace(&a), ColumnarTrace::from_trace(&b));
        let fresh = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = SafeMem::builder().build(&mut os);
            cb.replay(&mut os, &mut tool)
        };
        let mut r = ColumnarReplayer::new();
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = SafeMem::builder().build(&mut os);
        r.replay(&ca, &mut os, &mut tool);
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = SafeMem::builder().build(&mut os);
        let reused = r.replay(&cb, &mut os, &mut tool);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn compute_payloads_survive_wide_mem_access_counts() {
        let mut t = Trace::new();
        t.push(TraceOp::Compute {
            cycles: u64::MAX / 2,
            mem_accesses: (7u64 << 32) | 123,
        });
        let col = ColumnarTrace::from_trace(&t);
        let run_naive = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = NullTool::new();
            t.replay_naive(&mut os, &mut tool)
        };
        let run_col = {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = NullTool::new();
            col.replay(&mut os, &mut tool)
        };
        assert_eq!(run_naive, run_col);
    }
}
