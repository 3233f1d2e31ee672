//! `/proc`-style textual introspection of the simulated kernel.
//!
//! Renders the state a SafeMem operator would want to inspect on a live
//! system: memory/frames/swap, the watchpoint list, time accounting, and
//! the event counters. Consumed by the CLI's `--stats` flag and by tests
//! that assert on kernel state without reaching into private fields.

use crate::Os;
use std::fmt::Write as _;

/// Renders a `/proc/meminfo`-style summary.
#[must_use]
pub fn meminfo(os: &Os) -> String {
    let vm = os.vm().stats();
    let phys = os.machine().controller().size();
    let mut out = String::new();
    let _ = writeln!(out, "MemTotal:       {:>12} B", phys);
    let _ = writeln!(out, "Resident:       {:>12} pages", vm.resident_pages);
    let _ = writeln!(out, "Pinned:         {:>12} pages", vm.pinned_pages);
    let _ = writeln!(out, "PageFaults:     {:>12}", vm.page_faults);
    let _ = writeln!(out, "SwapIns:        {:>12}", vm.swap_ins);
    let _ = writeln!(out, "SwapOuts:       {:>12}", vm.swap_outs);
    out
}

/// Renders the watchpoint table (`/proc/safemem/watch`-style).
#[must_use]
pub fn watchlist(os: &Os) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} watched region(s), {} line(s):",
        os.watched_region_count(),
        os.watched_line_count()
    );
    for start in os.watch_registry_region_starts() {
        if let Some((vaddr, size)) = os.watched_region_containing(start) {
            let _ = writeln!(out, "  {vaddr:#012x} +{size}");
        }
    }
    out
}

/// Renders the ECC controller counters (`/proc/safemem/ecc`-style).
#[must_use]
pub fn eccinfo(os: &Os) -> String {
    let c = os.machine().controller().stats();
    let s = os.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Mode:              {:?}",
        os.machine().controller().mode()
    );
    let _ = writeln!(out, "GroupsVerified:    {:>12}", c.groups_verified);
    let _ = writeln!(out, "CorrectedSingle:   {:>12}", c.corrected_single_bit);
    let _ = writeln!(out, "Uncorrectable:     {:>12}", c.uncorrectable);
    let _ = writeln!(out, "ScrubbedGroups:    {:>12}", c.scrubbed_groups);
    let _ = writeln!(out, "WatchCalls:        {:>12}", s.watch_calls);
    let _ = writeln!(out, "DisableCalls:      {:>12}", s.disable_calls);
    let _ = writeln!(out, "FaultsDelivered:   {:>12}", s.ecc_faults_delivered);
    let _ = writeln!(out, "KernelPanics:      {:>12}", s.hardware_panics);
    out
}

/// Renders time accounting (`/proc/<pid>/stat`-style).
#[must_use]
pub fn timeinfo(os: &Os) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "TotalCycles:    {:>14}", os.total_cycles());
    let _ = writeln!(out, "CpuCycles:      {:>14}", os.cpu_cycles());
    let _ = writeln!(out, "CpuTime:        {:>11.3} ms", os.cpu_ns() as f64 / 1e6);
    out
}

/// The full snapshot: everything above concatenated.
#[must_use]
pub fn snapshot(os: &Os) -> String {
    format!(
        "--- meminfo ---\n{}--- watchpoints ---\n{}--- ecc ---\n{}--- time ---\n{}",
        meminfo(os),
        watchlist(os),
        eccinfo(os),
        timeinfo(os),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::HEAP_BASE;

    #[test]
    fn snapshot_reflects_kernel_state() {
        let mut os = Os::with_defaults(1 << 22);
        os.register_ecc_fault_handler();
        os.vwrite(HEAP_BASE, &[1u8; 128]).unwrap();
        os.watch_memory(HEAP_BASE, 128).unwrap();
        let snap = snapshot(&os);
        assert!(snap.contains("1 watched region(s), 2 line(s)"), "{snap}");
        assert!(snap.contains(&format!("{HEAP_BASE:#012x} +128")), "{snap}");
        assert!(snap.contains("WatchCalls:"), "{snap}");
        assert!(snap.contains("CpuTime:"), "{snap}");

        os.disable_watch_memory(HEAP_BASE).unwrap();
        let snap = snapshot(&os);
        assert!(snap.contains("0 watched region(s)"), "{snap}");
    }

    #[test]
    fn meminfo_counts_pages() {
        let mut os = Os::with_defaults(1 << 22);
        os.vwrite(HEAP_BASE, &[1u8; 4096 * 3]).unwrap();
        let info = meminfo(&os);
        assert!(info.contains("PageFaults:"), "{info}");
        assert!(os.vm().stats().resident_pages >= 3);
    }
}
