//! The conservative mark shared by the mark-and-sweep leak checkers
//! ([`Purify`](crate::Purify) and [`Memcheck`](crate::Memcheck)).
//!
//! Both tools find leaks the way a conservative garbage collector does:
//! any word of a root range that holds an address inside a live payload
//! marks that allocation, and every marked payload is then scanned the same
//! way. Whatever stays unmarked is unreachable. Each tool keeps
//! its own sweep and its own per-word cost; this module only reads memory
//! and marks.
//!
//! Memory is read through [`Os::read_words`], whose simulated effect is one
//! [`Os::read_u64`] per word in address order. The read order is fixed —
//! root ranges in registration order, then each newly marked payload in
//! last-marked-first order — so the scan's simulated cost is deterministic.

use safemem_alloc::Heap;
use safemem_os::Os;
use std::collections::HashSet;
use std::ops::Range;

/// Words read per [`Os::read_words`] call: bounds the stack buffer, not the
/// simulated behaviour (consecutive calls compose exactly).
const CHUNK_WORDS: usize = 256;

/// The outcome of a conservative mark.
#[derive(Debug, Default)]
pub(crate) struct Mark {
    /// Payload addresses of every allocation reachable from the roots.
    pub(crate) marked: HashSet<u64>,
    /// Words examined: every root word and every word of every marked
    /// payload, faulted or not.
    pub(crate) words: u64,
}

/// Marks every live allocation of `heap` reachable from `roots`.
///
/// Each root is an address range; its whole 8-byte words are scanned, so a
/// range shorter than 8 bytes contributes nothing. A word whose read faults
/// is counted but cannot mark anything.
pub(crate) fn conservative_mark(os: &mut Os, heap: &Heap, roots: &[Range<u64>]) -> Mark {
    let mut mark = Mark::default();
    let mut frontier = Vec::new();
    for root in roots {
        let words = root.end.saturating_sub(root.start) / 8;
        scan(os, heap, root.start, words, &mut mark, &mut frontier);
    }
    while let Some(addr) = frontier.pop() {
        if let Some(a) = heap.allocation_at(addr) {
            scan(os, heap, addr, a.payload / 8, &mut mark, &mut frontier);
        }
    }
    mark
}

/// Reads `words` words from `start`, marking (and queueing) every live
/// allocation a word points into.
fn scan(
    os: &mut Os,
    heap: &Heap,
    start: u64,
    words: u64,
    mark: &mut Mark,
    frontier: &mut Vec<u64>,
) {
    let mut buf = [None; CHUNK_WORDS];
    let mut done = 0;
    while done < words {
        let n = (words - done).min(CHUNK_WORDS as u64) as usize;
        os.read_words(start + 8 * done, &mut buf[..n]);
        for &value in buf[..n].iter().flatten() {
            if let Some(target) = heap.allocation_containing(value) {
                if mark.marked.insert(target.addr) {
                    frontier.push(target.addr);
                }
            }
        }
        done += n as u64;
    }
    mark.words += words;
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_alloc::LayoutPolicy;
    use safemem_os::{STATIC_BASE, VA_LIMIT};

    /// The oracle: the same mark with one `read_u64` per word.
    fn per_word_mark(os: &mut Os, heap: &Heap, roots: &[Range<u64>]) -> Mark {
        fn visit(os: &mut Os, heap: &Heap, addr: u64, mark: &mut Mark, frontier: &mut Vec<u64>) {
            mark.words += 1;
            if let Ok(value) = os.read_u64(addr) {
                if let Some(target) = heap.allocation_containing(value) {
                    if mark.marked.insert(target.addr) {
                        frontier.push(target.addr);
                    }
                }
            }
        }
        let mut mark = Mark::default();
        let mut frontier = Vec::new();
        for root in roots {
            let mut a = root.start;
            while a + 8 <= root.end {
                visit(os, heap, a, &mut mark, &mut frontier);
                a += 8;
            }
        }
        while let Some(addr) = frontier.pop() {
            let payload = heap.allocation_at(addr).expect("marked is live").payload;
            let mut offset = 0;
            while offset + 8 <= payload {
                visit(os, heap, addr + offset, &mut mark, &mut frontier);
                offset += 8;
            }
        }
        mark
    }

    /// A squid1-shaped heap: a root table whose cache slots point at 4 KiB
    /// objects half filled with data, an idle object, small module state,
    /// interior pointers chaining some objects to others, objects nothing
    /// points at (the leak), and a watched line whose words fault.
    fn squid1_heap(policy: LayoutPolicy) -> (Os, Heap, Vec<Range<u64>>) {
        let mut os = Os::with_defaults(1 << 23);
        os.register_ecc_fault_handler();
        let mut heap = Heap::new(policy);
        let mut objects = Vec::new();
        for i in 0..48u64 {
            let a = heap.alloc(&mut os, 4096).unwrap().addr;
            os.vwrite(a, &[0x88; 2048]).unwrap();
            objects.push(a);
            // Cache slots 100.. hold two in three objects; the rest leak
            // unless a chain reaches them.
            if i % 3 != 2 {
                os.write_u64(STATIC_BASE + (100 + i) * 8, a).unwrap();
            }
        }
        for (i, &a) in objects.iter().enumerate().step_by(4) {
            // An interior pointer into the next object but one.
            let next = objects[(i + 2) % objects.len()];
            os.write_u64(a + 2048, next + 1000).unwrap();
        }
        let idle = heap.alloc(&mut os, 2048).unwrap().addr;
        os.vwrite(idle, &[0x66; 2048]).unwrap();
        os.write_u64(STATIC_BASE + 13 * 8, idle).unwrap();
        for i in 0..12u64 {
            let state = heap.alloc(&mut os, 384).unwrap().addr;
            os.write_u64(STATIC_BASE + (20 + i) * 8, state).unwrap();
        }
        let watched = (objects[0] + 1024) & !63;
        os.watch_memory(watched, 64).unwrap();
        let roots = vec![
            STATIC_BASE..STATIC_BASE + 4096,
            // A short root, a sub-word one, and one running off the end of
            // the address space (its last words fault).
            STATIC_BASE + 8..STATIC_BASE + 12,
            STATIC_BASE + 104..STATIC_BASE + 108,
            VA_LIMIT - 16..VA_LIMIT + 24,
        ];
        (os, heap, roots)
    }

    fn observables(os: &mut Os) -> String {
        format!(
            "{} {} {:?} {:?} {:?} {:?} {}",
            os.cpu_cycles(),
            os.total_cycles(),
            os.stats(),
            os.vm().stats(),
            os.machine().hierarchy().level_stats(),
            os.machine().controller().stats(),
            os.kernel_log().len()
        )
    }

    #[test]
    fn shared_mark_equals_the_per_word_mark_on_a_squid1_shaped_heap() {
        for policy in [LayoutPolicy::Natural, LayoutPolicy::LineAligned] {
            let (mut os_a, heap_a, roots) = squid1_heap(policy);
            let (mut os_b, heap_b, _) = squid1_heap(policy);
            let shared = conservative_mark(&mut os_a, &heap_a, &roots);
            let oracle = per_word_mark(&mut os_b, &heap_b, &roots);
            assert_eq!(shared.marked, oracle.marked, "{policy:?}");
            assert_eq!(shared.words, oracle.words, "{policy:?}");
            assert_eq!(observables(&mut os_a), observables(&mut os_b), "{policy:?}");
            // 32 rooted cache objects, 4 more reached only through a chain,
            // the idle object and 12 state objects; the other 12 leak.
            assert_eq!(shared.marked.len(), 32 + 4 + 1 + 12, "{policy:?}");
            assert_eq!(os_a.stats().ecc_faults_delivered, 8, "watched words fault");
        }
    }

    #[test]
    fn roots_shorter_than_a_word_scan_nothing() {
        let mut os = Os::with_defaults(1 << 22);
        let heap = Heap::new(LayoutPolicy::Natural);
        let roots = [
            STATIC_BASE..STATIC_BASE + 7,
            STATIC_BASE + 8..STATIC_BASE + 8,
        ];
        let mark = conservative_mark(&mut os, &heap, &roots);
        assert_eq!(mark.words, 0);
        assert_eq!(os.total_cycles(), 0, "nothing was read");
    }
}
