//! Allocation-trace record and replay.
//!
//! The paper's methodology depends on repeatable runs ("we use normal
//! inputs so the memory leak bugs do not occur"). This module makes that a
//! first-class artefact: a [`Trace`] is a serialisable list of the
//! allocator/access operations a workload performed, which can be replayed
//! against *any* tool — useful for regression-testing detector changes
//! against frozen inputs, and for comparing tools on bit-identical op
//! sequences without rerunning the workload logic.
//!
//! A [`Recorder`] wraps any [`MemTool`] and captures the op stream. The
//! enum [`Trace`] is the recording and serialisation format; replay runs on
//! its [`ColumnarTrace`] flattening ([`Trace::replay`]), translating
//! recorded buffer ids to the replay tool's addresses (placements differ
//! across layout policies). [`Trace::replay_naive`] is the one reference
//! interpretation the columnar engine is tested against.

use crate::columnar::ColumnarTrace;
use crate::driver::RunResult;
use safemem_alloc::MAX_ALLOC_BYTES;
use safemem_core::{CallStack, IncidentClass, MemTool};
use safemem_os::{Os, PAGE_BYTES};
use std::collections::HashMap;
use std::str::{FromStr, SplitWhitespace};

/// How far outside its buffer an access span in a parsed trace may reach,
/// on either side. Two pages: far above the largest overrun any registered
/// workload records (256 B past an 8 KiB buffer, in gzip's buggy run).
pub const MAX_SPAN_OVERRUN: u64 = 2 * PAGE_BYTES;

/// One recorded operation. Buffers are identified by a dense id assigned at
/// `Malloc` time, because absolute addresses differ across layout policies.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TraceOp {
    /// `malloc(size)` with the given call-stack frames; binds the next id.
    Malloc {
        /// Requested size.
        size: u64,
        /// Call-stack frames (oldest first).
        frames: Vec<u64>,
    },
    /// `free` of buffer `id`.
    Free {
        /// Buffer id from the corresponding `Malloc`.
        id: u32,
    },
    /// Read of `len` bytes at `offset` within buffer `id`.
    Read {
        /// Buffer id.
        id: u32,
        /// Byte offset within the buffer (may exceed the payload for
        /// recorded buggy accesses).
        offset: i64,
        /// Length.
        len: u32,
    },
    /// Write of `len` bytes of `fill` at `offset` within buffer `id`.
    Write {
        /// Buffer id.
        id: u32,
        /// Byte offset within the buffer (may be negative or past the end
        /// for recorded buggy accesses).
        offset: i64,
        /// Length.
        len: u32,
        /// Fill byte (traces store patterns, not payloads).
        fill: u8,
    },
    /// CPU work: `cycles` with `mem_accesses` memory instructions.
    Compute {
        /// Cycles of work.
        cycles: u64,
        /// Memory-access instructions within.
        mem_accesses: u64,
    },
    /// Blocking I/O of `ns` nanoseconds.
    Io {
        /// Nanoseconds of wait.
        ns: u64,
    },
    /// Read of a *freed* buffer (use-after-free). Plain `Read` ops on freed
    /// ids are skipped at replay; this variant is emitted only by a
    /// freed-tracking recorder ([`Recorder::with_freed_tracking`]) so the
    /// bug survives the round trip through the trace.
    ReadFreed {
        /// Buffer id from the corresponding `Malloc`.
        id: u32,
        /// Byte offset within the freed buffer.
        offset: i64,
        /// Length.
        len: u32,
    },
    /// Write into a *freed* buffer (use-after-free store).
    WriteFreed {
        /// Buffer id.
        id: u32,
        /// Byte offset within the freed buffer.
        offset: i64,
        /// Length.
        len: u32,
        /// Fill byte.
        fill: u8,
    },
    /// A second `free` of an already-freed buffer (double free). Emitted
    /// only by a freed-tracking recorder.
    FreeAgain {
        /// Buffer id.
        id: u32,
    },
    /// Ground-truth incident marker: the workload *knows* the preceding op
    /// was a planted corruption. Metadata for the campaign oracle, not a
    /// memory operation.
    Marker {
        /// The planted incident's class.
        kind: IncidentClass,
    },
}

/// A recorded operation stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// The recorded operations.
    #[must_use]
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of allocation ops in the trace. Replay feeds every `Malloc`
    /// through the tool's `malloc`, so this is exactly the number of
    /// per-allocation sampling decisions a sampling tool will draw —
    /// campaign-level statistical tests use it as the binomial `n`.
    #[must_use]
    pub fn malloc_count(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Malloc { .. }))
            .count() as u64
    }

    /// Appends an operation (used by [`Recorder`]; also handy for building
    /// synthetic traces in tests).
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// Serialises to a compact line-oriented text format (one op per line).
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for op in &self.ops {
            match op {
                TraceOp::Malloc { size, frames } => {
                    let _ = write!(out, "M {size}");
                    for f in frames {
                        let _ = write!(out, " {f:#x}");
                    }
                    let _ = writeln!(out);
                }
                TraceOp::Free { id } => {
                    let _ = writeln!(out, "F {id}");
                }
                TraceOp::Read { id, offset, len } => {
                    let _ = writeln!(out, "R {id} {offset} {len}");
                }
                TraceOp::Write {
                    id,
                    offset,
                    len,
                    fill,
                } => {
                    let _ = writeln!(out, "W {id} {offset} {len} {fill}");
                }
                TraceOp::Compute {
                    cycles,
                    mem_accesses,
                } => {
                    let _ = writeln!(out, "C {cycles} {mem_accesses}");
                }
                TraceOp::Io { ns } => {
                    let _ = writeln!(out, "I {ns}");
                }
                TraceOp::ReadFreed { id, offset, len } => {
                    let _ = writeln!(out, "RF {id} {offset} {len}");
                }
                TraceOp::WriteFreed {
                    id,
                    offset,
                    len,
                    fill,
                } => {
                    let _ = writeln!(out, "WF {id} {offset} {len} {fill}");
                }
                TraceOp::FreeAgain { id } => {
                    let _ = writeln!(out, "FF {id}");
                }
                TraceOp::Marker { kind } => {
                    let tag = match kind {
                        IncidentClass::Overflow => "O",
                        IncidentClass::UseAfterFree => "U",
                        IncidentClass::DoubleFree => "D",
                    };
                    let _ = writeln!(out, "K {tag}");
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`Trace::to_text`].
    ///
    /// Every id must fit `u32` and name a buffer an earlier `M` line bound,
    /// which is what the replay engines rely on. An `M` size may not exceed
    /// the largest payload every layout places in an empty heap
    /// ([`MAX_ALLOC_BYTES`]), and an access span may not reach more
    /// than [`MAX_SPAN_OVERRUN`] bytes outside its buffer. A trace that
    /// breaks any of these rules is rejected, never replayed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, naming its number.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut trace = Trace::new();
        // Sizes of the buffers bound by the `M` lines seen so far: valid ids
        // are `0..sizes.len()`.
        let mut sizes: Vec<u64> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let tag = parts.next().expect("non-empty line");
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            let mut id = || -> Result<u32, String> {
                let raw = number(&mut parts).ok_or_else(|| err("id"))?;
                let id = u32::try_from(raw).map_err(|_| err("id does not fit u32"))?;
                if raw >= sizes.len() as u64 {
                    return Err(err(&format!("id {id} is not bound by an earlier M line")));
                }
                Ok(id)
            };
            let op = match tag {
                "M" => {
                    let size = number(&mut parts).ok_or_else(|| err("size"))?;
                    if size > MAX_ALLOC_BYTES {
                        return Err(err(&format!(
                            "size exceeds the {MAX_ALLOC_BYTES}-byte allocation limit"
                        )));
                    }
                    let frames = parts
                        .map(|tok| u64::from_str_radix(tok.strip_prefix("0x").unwrap_or(tok), 16))
                        .collect::<Result<Vec<u64>, _>>()
                        .map_err(|_| err("frame"))?;
                    sizes.push(size);
                    TraceOp::Malloc { size, frames }
                }
                "F" => TraceOp::Free { id: id()? },
                "FF" => TraceOp::FreeAgain { id: id()? },
                "R" | "RF" => {
                    let id = id()?;
                    let (offset, len) =
                        span(&mut parts, sizes[id as usize]).map_err(|e| err(&e))?;
                    if tag == "R" {
                        TraceOp::Read { id, offset, len }
                    } else {
                        TraceOp::ReadFreed { id, offset, len }
                    }
                }
                "W" | "WF" => {
                    let id = id()?;
                    let (offset, len) =
                        span(&mut parts, sizes[id as usize]).map_err(|e| err(&e))?;
                    let fill = token(&mut parts).ok_or_else(|| err("fill"))?;
                    if tag == "W" {
                        TraceOp::Write {
                            id,
                            offset,
                            len,
                            fill,
                        }
                    } else {
                        TraceOp::WriteFreed {
                            id,
                            offset,
                            len,
                            fill,
                        }
                    }
                }
                "C" => TraceOp::Compute {
                    cycles: number(&mut parts).ok_or_else(|| err("cycles"))?,
                    mem_accesses: number(&mut parts).ok_or_else(|| err("mem_accesses"))?,
                },
                "I" => TraceOp::Io {
                    ns: number(&mut parts).ok_or_else(|| err("ns"))?,
                },
                "K" => TraceOp::Marker {
                    kind: match parts.next().ok_or_else(|| err("kind"))? {
                        "O" => IncidentClass::Overflow,
                        "U" => IncidentClass::UseAfterFree,
                        "D" => IncidentClass::DoubleFree,
                        _ => return Err(err("unknown marker kind")),
                    },
                },
                _ => return Err(err("unknown op tag")),
            };
            trace.push(op);
        }
        Ok(trace)
    }

    /// Replays the trace against a tool by flattening it to a
    /// [`ColumnarTrace`] and running the columnar engine. Accesses whose
    /// buffer was freed are skipped (a trace replayed under a different
    /// layout has no meaningful address for them); accesses naming an id no
    /// `Malloc` ever bound trip a debug assertion.
    ///
    /// Campaign loops that replay one trace many times should flatten it
    /// once and hold a [`ColumnarReplayer`](crate::ColumnarReplayer) instead.
    pub fn replay(&self, os: &mut Os, tool: &mut dyn MemTool) -> RunResult {
        ColumnarTrace::from_trace(self).replay(os, tool)
    }

    /// The replay oracle: a self-contained per-op interpretation with a
    /// fresh `HashMap` id table and a heap payload per access. Tests and
    /// the `replay` benchmark compare the columnar engine against it; new
    /// code should call [`Trace::replay`].
    pub fn replay_naive(&self, os: &mut Os, tool: &mut dyn MemTool) -> RunResult {
        let mut addrs: HashMap<u32, u64> = HashMap::new();
        let mut freed: HashMap<u32, u64> = HashMap::new();
        let mut next_id: u32 = 0;
        for op in &self.ops {
            match op {
                TraceOp::Malloc { size, frames } => {
                    let stack = CallStack::new(frames);
                    let addr = tool.malloc(os, *size, &stack);
                    addrs.insert(next_id, addr);
                    next_id += 1;
                }
                TraceOp::Free { id } => {
                    if let Some(addr) = addrs.remove(id) {
                        freed.insert(*id, addr);
                        tool.free(os, addr);
                    }
                }
                TraceOp::Read { id, offset, len } => {
                    if let Some(&addr) = addrs.get(id) {
                        let mut buf = vec![0u8; *len as usize];
                        tool.read(os, addr.wrapping_add_signed(*offset), &mut buf);
                    }
                }
                TraceOp::Write {
                    id,
                    offset,
                    len,
                    fill,
                } => {
                    if let Some(&addr) = addrs.get(id) {
                        let data = vec![*fill; *len as usize];
                        tool.write(os, addr.wrapping_add_signed(*offset), &data);
                    }
                }
                TraceOp::Compute {
                    cycles,
                    mem_accesses,
                } => {
                    tool.compute(os, *cycles, *mem_accesses);
                }
                TraceOp::Io { ns } => os.io_wait_ns(*ns),
                TraceOp::ReadFreed { id, offset, len } => {
                    if let Some(&addr) = freed.get(id) {
                        let mut buf = vec![0u8; *len as usize];
                        tool.read(os, addr.wrapping_add_signed(*offset), &mut buf);
                    }
                }
                TraceOp::WriteFreed {
                    id,
                    offset,
                    len,
                    fill,
                } => {
                    if let Some(&addr) = freed.get(id) {
                        let data = vec![*fill; *len as usize];
                        tool.write(os, addr.wrapping_add_signed(*offset), &data);
                    }
                }
                TraceOp::FreeAgain { id } => {
                    if let Some(&addr) = freed.get(id) {
                        tool.free(os, addr);
                    }
                }
                TraceOp::Marker { kind } => tool.mark_incident(*kind),
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

/// Parses the next token of a trace line as a `u64`, decimal or
/// `0x`-prefixed hex.
fn number(parts: &mut SplitWhitespace<'_>) -> Option<u64> {
    let tok = parts.next()?;
    match tok.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => tok.parse().ok(),
    }
}

/// Parses an access's `offset len` pair, refusing a span that reaches more
/// than [`MAX_SPAN_OVERRUN`] bytes outside its `size`-byte buffer. The
/// error says what is wrong, for the caller to put in the line's message.
fn span(parts: &mut SplitWhitespace<'_>, size: u64) -> Result<(i64, u32), String> {
    let offset: i64 = token(parts).ok_or("offset")?;
    let len: u32 = token(parts).ok_or("len")?;
    let slack = i128::from(MAX_SPAN_OVERRUN);
    let lo = i128::from(offset);
    if lo < -slack || lo + i128::from(len) > i128::from(size) + slack {
        return Err(format!(
            "span leaves its {size}-byte buffer by more than {MAX_SPAN_OVERRUN} B"
        ));
    }
    Ok((offset, len))
}

/// Parses the next token of a trace line as a decimal `T`.
fn token<T: FromStr>(parts: &mut SplitWhitespace<'_>) -> Option<T> {
    parts.next()?.parse().ok()
}

/// A [`MemTool`] wrapper that records every operation into a [`Trace`]
/// while forwarding to the inner tool.
pub struct Recorder<'a> {
    inner: &'a mut dyn MemTool,
    trace: Trace,
    ids: HashMap<u64, u32>,
    next_id: u32,
    /// When set, accesses to freed buffers are recorded as
    /// `ReadFreed`/`WriteFreed`/`FreeAgain` instead of being re-attributed
    /// to the nearest live buffer (or silently recorded as a plain `Free`
    /// miss). Off by default: existing workloads produce byte-identical
    /// traces.
    track_freed: bool,
    /// Freed spans still addressable by freed-access ops: base address →
    /// (buffer id, payload size at free time).
    freed_spans: HashMap<u64, (u32, u64)>,
}

impl<'a> Recorder<'a> {
    /// Wraps a tool.
    pub fn new(inner: &'a mut dyn MemTool) -> Self {
        Recorder {
            inner,
            trace: Trace::new(),
            ids: HashMap::new(),
            next_id: 0,
            track_freed: false,
            freed_spans: HashMap::new(),
        }
    }

    /// Wraps a tool with freed-buffer tracking enabled, for workloads whose
    /// planted bugs touch freed memory (see
    /// [`Workload::records_freed_accesses`](crate::Workload::records_freed_accesses)).
    pub fn with_freed_tracking(inner: &'a mut dyn MemTool) -> Self {
        let mut rec = Recorder::new(inner);
        rec.track_freed = true;
        rec
    }

    /// Consumes the recorder, returning the captured trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The buffer id and base address containing `addr`, if known. Accesses
    /// outside every recorded buffer (e.g. to static roots) are recorded
    /// relative to the nearest buffer at or below the address; accesses
    /// before the first buffer are dropped from the trace.
    fn locate(&self, addr: u64) -> Option<(u32, i64)> {
        // Exact base match first, then containment via the inner heap.
        if let Some(&id) = self.ids.get(&addr) {
            return Some((id, 0));
        }
        let owner = self
            .ids
            .iter()
            .filter(|(&base, _)| base <= addr)
            .max_by_key(|(&base, _)| base)?;
        Some((*owner.1, (addr - owner.0) as i64))
    }

    /// The freed buffer id and offset for `addr`, if `addr` falls inside a
    /// tracked freed span. Exact base match first, then containment within
    /// the span's payload recorded at free time.
    fn locate_freed(&self, addr: u64) -> Option<(u32, i64)> {
        if let Some(&(id, _)) = self.freed_spans.get(&addr) {
            return Some((id, 0));
        }
        let owner = self
            .freed_spans
            .iter()
            .filter(|(&base, &(_, size))| base <= addr && addr < base + size.max(1))
            .max_by_key(|(&base, _)| base)?;
        Some((owner.1 .0, (addr - owner.0) as i64))
    }
}

impl MemTool for Recorder<'_> {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn heap(&self) -> &safemem_alloc::Heap {
        self.inner.heap()
    }

    fn malloc(&mut self, os: &mut Os, size: u64, stack: &CallStack) -> u64 {
        let addr = self.inner.malloc(os, size, stack);
        self.trace.push(TraceOp::Malloc {
            size,
            frames: stack.frames().to_vec(),
        });
        self.ids.insert(addr, self.next_id);
        self.next_id += 1;
        // Address reuse retires the freed span: the id now bound to this
        // base owns subsequent accesses.
        self.freed_spans.remove(&addr);
        addr
    }

    fn free(&mut self, os: &mut Os, addr: u64) {
        if let Some(id) = self.ids.remove(&addr) {
            if self.track_freed {
                let payload = self
                    .inner
                    .heap()
                    .allocation_at(addr)
                    .map_or(0, |a| a.payload);
                self.freed_spans.insert(addr, (id, payload));
            }
            self.trace.push(TraceOp::Free { id });
        } else if self.track_freed {
            if let Some(&(id, _)) = self.freed_spans.get(&addr) {
                self.trace.push(TraceOp::FreeAgain { id });
            }
        }
        self.inner.free(os, addr);
    }

    fn realloc(&mut self, os: &mut Os, addr: u64, new_size: u64, stack: &CallStack) -> u64 {
        // Forward to the inner tool; record as malloc + free (the data copy
        // is an artefact of the tools, not of the program).
        let new_addr = self.inner.realloc(os, addr, new_size, stack);
        self.trace.push(TraceOp::Malloc {
            size: new_size,
            frames: stack.frames().to_vec(),
        });
        let new_id = self.next_id;
        self.next_id += 1;
        if let Some(old_id) = self.ids.remove(&addr) {
            self.trace.push(TraceOp::Free { id: old_id });
        }
        self.ids.insert(new_addr, new_id);
        new_addr
    }

    fn read(&mut self, os: &mut Os, addr: u64, buf: &mut [u8]) {
        if self.track_freed {
            if let Some((id, offset)) = self.locate_freed(addr) {
                self.trace.push(TraceOp::ReadFreed {
                    id,
                    offset,
                    len: buf.len() as u32,
                });
                self.inner.read(os, addr, buf);
                return;
            }
        }
        if let Some((id, offset)) = self.locate(addr) {
            self.trace.push(TraceOp::Read {
                id,
                offset,
                len: buf.len() as u32,
            });
        }
        self.inner.read(os, addr, buf);
    }

    fn write(&mut self, os: &mut Os, addr: u64, data: &[u8]) {
        if self.track_freed {
            if let Some((id, offset)) = self.locate_freed(addr) {
                self.trace.push(TraceOp::WriteFreed {
                    id,
                    offset,
                    len: data.len() as u32,
                    fill: data.first().copied().unwrap_or(0),
                });
                self.inner.write(os, addr, data);
                return;
            }
        }
        if let Some((id, offset)) = self.locate(addr) {
            self.trace.push(TraceOp::Write {
                id,
                offset,
                len: data.len() as u32,
                fill: data.first().copied().unwrap_or(0),
            });
        }
        self.inner.write(os, addr, data);
    }

    fn compute(&mut self, os: &mut Os, cycles: u64, mem_accesses: u64) {
        self.trace.push(TraceOp::Compute {
            cycles,
            mem_accesses,
        });
        self.inner.compute(os, cycles, mem_accesses);
    }

    fn finish(&mut self, os: &mut Os) {
        self.inner.finish(os);
    }

    fn reports(&self) -> Vec<safemem_core::BugReport> {
        self.inner.reports()
    }

    fn mark_incident(&mut self, kind: IncidentClass) {
        self.trace.push(TraceOp::Marker { kind });
        self.inner.mark_incident(kind);
    }

    fn survival(&self) -> Option<safemem_core::SurvivalSummary> {
        self.inner.survival()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{InputMode, RunConfig};
    use safemem_core::{NullTool, SafeMem};

    #[test]
    fn text_roundtrip() {
        let mut t = Trace::new();
        t.push(TraceOp::Malloc {
            size: 100,
            frames: vec![0x401000, 0x402000],
        });
        t.push(TraceOp::Write {
            id: 0,
            offset: 0,
            len: 100,
            fill: 7,
        });
        t.push(TraceOp::Read {
            id: 0,
            offset: 10,
            len: 20,
        });
        t.push(TraceOp::Compute {
            cycles: 5000,
            mem_accesses: 100,
        });
        t.push(TraceOp::Io { ns: 2000 });
        t.push(TraceOp::Free { id: 0 });
        let text = t.to_text();
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::from_text("X 1 2 3").is_err());
        assert!(Trace::from_text("F notanumber").is_err());
        assert!(Trace::from_text("K Q").is_err());
        assert!(Trace::from_text("# comment only\n\n").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_an_id_that_does_not_fit_u32() {
        // `as u32` would wrap this to `Free { id: 0 }`, a buffer that is bound.
        let err = Trace::from_text("M 8\nF 4294967296").unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.contains("F 4294967296"), "{err}");
    }

    #[test]
    fn parse_rejects_an_id_no_earlier_malloc_bound() {
        let err = Trace::from_text("R 7 0 8").unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        assert!(err.contains("R 7 0 8"), "{err}");
        // A later `M` does not bind retroactively.
        let err = Trace::from_text("M 8\nWF 1 0 8 0\nM 8").unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn parse_rejects_sizes_above_the_heap_and_spans_far_outside_their_buffer() {
        let b = MAX_SPAN_OVERRUN;
        for (text, line) in [
            ("M 18446744073709551615 0x1".to_string(), "line 1: "),
            ("M 100000000000 0x1".to_string(), "line 1: "),
            ("M 64 0x1\nR 0 4294967295 8".to_string(), "line 2: "),
            ("M 64 0x1\nW 0 0 4294967295 7".to_string(), "line 2: "),
            (format!("M {}", MAX_ALLOC_BYTES + 1), "line 1: "),
            (format!("M 64\nF 0\nRF 0 -{} 1", b + 1), "line 3: "),
            (format!("M 64\nWF 0 {} 8 1", 64 + b - 7), "line 2: "),
        ] {
            let err = Trace::from_text(&text).unwrap_err();
            assert!(err.starts_with(line), "{text:?}: {err}");
        }
        // The bounds themselves are inclusive.
        let edge = format!(
            "M {MAX_ALLOC_BYTES}\nM 64\nR 1 -{b} 8\nW 1 {} 8 1",
            64 + b - 8
        );
        assert_eq!(Trace::from_text(&edge).unwrap().len(), 4);
    }

    #[test]
    fn freed_ops_and_markers_roundtrip() {
        let mut t = Trace::new();
        t.push(TraceOp::Malloc {
            size: 64,
            frames: vec![0x1],
        });
        t.push(TraceOp::Free { id: 0 });
        t.push(TraceOp::ReadFreed {
            id: 0,
            offset: 8,
            len: 4,
        });
        t.push(TraceOp::Marker {
            kind: IncidentClass::UseAfterFree,
        });
        t.push(TraceOp::WriteFreed {
            id: 0,
            offset: 0,
            len: 16,
            fill: 9,
        });
        t.push(TraceOp::FreeAgain { id: 0 });
        t.push(TraceOp::Marker {
            kind: IncidentClass::DoubleFree,
        });
        t.push(TraceOp::Marker {
            kind: IncidentClass::Overflow,
        });
        let parsed = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn freed_tracking_recorder_emits_freed_ops() {
        let mut os = Os::with_defaults(1 << 22);
        let mut base = NullTool::new();
        let mut recorder = Recorder::with_freed_tracking(&mut base);
        let stack = CallStack::new(&[0x10]);
        let a = recorder.malloc(&mut os, 64, &stack);
        recorder.write(&mut os, a, &[1u8; 64]);
        recorder.free(&mut os, a);
        recorder.read(&mut os, a + 8, &mut [0u8; 4]); // UAF read
        recorder.free(&mut os, a); // double free
        let trace = recorder.into_trace();
        assert!(trace.ops().iter().any(|op| matches!(
            op,
            TraceOp::ReadFreed {
                id: 0,
                offset: 8,
                len: 4
            }
        )));
        assert!(trace
            .ops()
            .iter()
            .any(|op| matches!(op, TraceOp::FreeAgain { id: 0 })));
    }

    #[test]
    fn untracked_recorder_trace_is_unchanged_by_freed_accesses() {
        // Recorder::new must keep emitting the exact op stream it always
        // did, even when the workload touches freed memory.
        let run = |tracking: bool| {
            let mut os = Os::with_defaults(1 << 22);
            let mut base = NullTool::new();
            let mut recorder = if tracking {
                Recorder::with_freed_tracking(&mut base)
            } else {
                Recorder::new(&mut base)
            };
            let stack = CallStack::new(&[0x10]);
            let a = recorder.malloc(&mut os, 64, &stack);
            recorder.write(&mut os, a, &[1u8; 64]);
            recorder.free(&mut os, a);
            recorder.read(&mut os, a + 8, &mut [0u8; 4]);
            recorder.into_trace()
        };
        let plain = run(false);
        let tracked = run(true);
        assert!(!plain
            .ops()
            .iter()
            .any(|op| matches!(op, TraceOp::ReadFreed { .. })));
        assert!(tracked
            .ops()
            .iter()
            .any(|op| matches!(op, TraceOp::ReadFreed { .. })));
    }

    #[test]
    fn recorded_overflow_replays_against_safemem() {
        // Record a buggy run under the baseline (which sees nothing)...
        let mut os = Os::with_defaults(1 << 22);
        let mut base = NullTool::new();
        let mut recorder = Recorder::new(&mut base);
        let stack = CallStack::new(&[0x1]);
        let a = recorder.malloc(&mut os, 100, &stack);
        recorder.write(&mut os, a, &[1u8; 100]);
        recorder.write(&mut os, a + 130, &[9u8; 4]); // overflow
        recorder.free(&mut os, a);
        assert!(recorder.reports().is_empty(), "baseline sees nothing");
        let trace = recorder.into_trace();

        // ...then replay the identical ops under SafeMem: bug caught.
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
        let result = trace.replay(&mut os, &mut tool);
        assert!(result.corruption_detected(), "{:?}", result.reports);
    }

    #[test]
    fn workload_trace_replay_detects_same_bug() {
        // Record gzip (buggy) through the recorder, replay under SafeMem.
        let gzip = crate::registry::workload_by_name("gzip").unwrap();
        let mut os = Os::with_defaults(1 << 25);
        let mut base = NullTool::new();
        let mut recorder = Recorder::new(&mut base);
        let cfg = RunConfig {
            input: InputMode::Buggy,
            requests: Some(6),
            ..RunConfig::default()
        };
        gzip.run(&mut os, &mut recorder, &cfg);
        let trace = recorder.into_trace();
        assert!(trace.len() > 50, "non-trivial trace: {} ops", trace.len());

        let mut os = Os::with_defaults(1 << 25);
        let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
        let result = trace.replay(&mut os, &mut tool);
        assert!(result.corruption_detected(), "{:?}", result.reports);
    }

    #[test]
    fn replay_matches_naive_reference_on_a_recorded_workload() {
        let gzip = crate::registry::workload_by_name("gzip").unwrap();
        let mut os = Os::with_defaults(1 << 25);
        let mut base = NullTool::new();
        let mut recorder = Recorder::new(&mut base);
        let cfg = RunConfig {
            input: InputMode::Buggy,
            requests: Some(6),
            ..RunConfig::default()
        };
        gzip.run(&mut os, &mut recorder, &cfg);
        let trace = recorder.into_trace();

        let naive = {
            let mut os = Os::with_defaults(1 << 25);
            let mut tool = SafeMem::builder().build(&mut os);
            trace.replay_naive(&mut os, &mut tool)
        };
        let fast = {
            let mut os = Os::with_defaults(1 << 25);
            let mut tool = SafeMem::builder().build(&mut os);
            trace.replay(&mut os, &mut tool)
        };
        assert_eq!(naive, fast);
    }

    #[test]
    #[should_panic(expected = "ids were bound")]
    #[cfg(debug_assertions)]
    fn never_bound_id_trips_the_debug_assertion() {
        let mut t = Trace::new();
        t.push(TraceOp::Read {
            id: 7,
            offset: 0,
            len: 8,
        });
        let mut os = Os::with_defaults(1 << 22);
        let mut tool = NullTool::new();
        t.replay(&mut os, &mut tool);
    }

    #[test]
    fn replay_is_deterministic() {
        let mut t = Trace::new();
        t.push(TraceOp::Malloc {
            size: 64,
            frames: vec![0x1],
        });
        t.push(TraceOp::Write {
            id: 0,
            offset: 0,
            len: 64,
            fill: 3,
        });
        t.push(TraceOp::Compute {
            cycles: 10_000,
            mem_accesses: 500,
        });
        t.push(TraceOp::Free { id: 0 });
        let run = |t: &Trace| {
            let mut os = Os::with_defaults(1 << 22);
            let mut tool = SafeMem::builder().build(&mut os);
            t.replay(&mut os, &mut tool).cpu_cycles
        };
        assert_eq!(run(&t), run(&t));
    }
}
