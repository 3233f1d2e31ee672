//! The pluggable machine/OS boundary.
//!
//! [`MachineBackend`] abstracts the physical-machine surface the OS layer
//! consumes, so different memory substrates plug into the same detector
//! stack unchanged (the memflow proxy-OS layering): a [`Machine`] owned
//! outright by one process (the single-process path), or a [`SlotBackend`]
//! window onto a machine *shared* by a whole fleet of simulated processes,
//! where a cooperative scheduler moves the machine into the running
//! process's slot for the duration of its turn.
//!
//! The trait mirrors the [`Machine`] API exactly — every method forwards to
//! the inherent method of the installed machine — so swapping backends is
//! observably inert for single-process users.

use crate::clock::Clock;
use crate::cost::CostModel;
use safemem_cache::Hierarchy;
use safemem_ecc::{EccController, EccFault, ScrambleScheme};
use std::any::Any;

/// The machine surface the OS layer runs against.
///
/// Implementations must behave exactly like a [`Machine`] with the same
/// state: the conformance suite in `crates/os/tests` drives both backends
/// through identical scripts and compares bytes, faults, and clocks.
///
/// The one deliberate divergence is [`clock`](MachineBackend::clock): a
/// backend over *shared* hardware reports a **per-process virtual clock**
/// (time observed while this process was scheduled), not the global machine
/// clock — which is precisely what per-process CPU accounting needs.
pub trait MachineBackend: std::fmt::Debug {
    /// The clock this process observes (see the trait docs for sharing).
    fn clock(&self) -> &Clock;
    /// The calibrated cost model.
    fn cost(&self) -> &CostModel;
    /// Cache line size in bytes.
    fn line_size(&self) -> u64;
    /// Shared access to the memory controller.
    fn controller(&self) -> &EccController;
    /// Direct access to the memory controller (scramble sequences, scrub
    /// policy, fault draining, error injection).
    fn controller_mut(&mut self) -> &mut EccController;
    /// The machine's scramble scheme.
    fn scramble(&self) -> ScrambleScheme;
    /// The cache hierarchy (residency queries).
    fn hierarchy(&self) -> &Hierarchy;
    /// Enables or disables the next-line hardware prefetcher.
    fn set_prefetch(&mut self, on: bool);
    /// Reads physical memory through the cache hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the [`EccFault`] raised by a refill of an inconsistent
    /// (e.g. watched/scrambled) ECC group.
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault>;
    /// Serves `reads` back-to-back L1 hits on the line containing `addr`
    /// in one step; `false`, changing nothing, if the line is not in L1
    /// (see [`Machine::read_l1_repeated`](crate::Machine::read_l1_repeated)).
    fn read_l1_repeated(&mut self, addr: u64, buf: &mut [u8], reads: u64) -> bool;
    /// Writes physical memory through the cache hierarchy (write-allocate).
    ///
    /// # Errors
    ///
    /// As for [`read`](MachineBackend::read), via the write-allocate refill.
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), EccFault>;
    /// Flushes cached lines overlapping `[addr, addr + len)` to memory.
    fn flush_range(&mut self, addr: u64, len: u64);
    /// Writes back and empties the entire cache hierarchy.
    fn flush_all_caches(&mut self);
    /// Writes physical memory directly, bypassing the caches (kernel path).
    fn write_uncached(&mut self, addr: u64, buf: &[u8]);
    /// [`write_uncached`](MachineBackend::write_uncached) of one aligned
    /// line with caller-precomputed check codes.
    fn write_uncached_precoded(&mut self, addr: u64, data: &[u8; 64], codes: &[u8; 8]);
    /// Reads physical memory directly with full ECC verification.
    ///
    /// # Errors
    ///
    /// Returns the [`EccFault`] if any touched group is uncorrectable.
    fn read_uncached(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault>;
    /// Reads raw memory bytes without caches, checks, or time accounting.
    fn peek(&self, addr: u64, len: usize) -> Vec<u8>;
    /// [`peek`](MachineBackend::peek) into a caller-provided buffer.
    fn peek_into(&self, addr: u64, out: &mut [u8]) {
        out.copy_from_slice(&self.peek(addr, out.len()));
    }
    /// Models CPU-bound work: advances the clock by `cycles`.
    fn compute(&mut self, cycles: u64);
    /// Drains pending ECC faults (the simulated interrupt queue).
    fn take_faults(&mut self) -> Vec<EccFault>;
    /// Runs one background scrub step of `groups` ECC groups.
    fn scrub_step(&mut self, groups: u64) -> u64;
    /// Type-erased self, for scheduler-side downcasts.
    fn as_any(&self) -> &dyn Any;
    /// Type-erased mutable self, for scheduler-side downcasts (e.g. the
    /// fleet scheduler installing the shared machine into a [`SlotBackend`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl MachineBackend for crate::Machine {
    fn clock(&self) -> &Clock {
        crate::Machine::clock(self)
    }
    fn cost(&self) -> &CostModel {
        crate::Machine::cost(self)
    }
    fn line_size(&self) -> u64 {
        crate::Machine::line_size(self)
    }
    fn controller(&self) -> &EccController {
        crate::Machine::controller(self)
    }
    fn controller_mut(&mut self) -> &mut EccController {
        crate::Machine::controller_mut(self)
    }
    fn scramble(&self) -> ScrambleScheme {
        crate::Machine::scramble(self)
    }
    fn hierarchy(&self) -> &Hierarchy {
        crate::Machine::hierarchy(self)
    }
    fn set_prefetch(&mut self, on: bool) {
        crate::Machine::set_prefetch(self, on);
    }
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        crate::Machine::read(self, addr, buf)
    }
    fn read_l1_repeated(&mut self, addr: u64, buf: &mut [u8], reads: u64) -> bool {
        crate::Machine::read_l1_repeated(self, addr, buf, reads)
    }
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), EccFault> {
        crate::Machine::write(self, addr, buf)
    }
    fn flush_range(&mut self, addr: u64, len: u64) {
        crate::Machine::flush_range(self, addr, len);
    }
    fn flush_all_caches(&mut self) {
        crate::Machine::flush_all_caches(self);
    }
    fn write_uncached(&mut self, addr: u64, buf: &[u8]) {
        crate::Machine::write_uncached(self, addr, buf);
    }
    fn write_uncached_precoded(&mut self, addr: u64, data: &[u8; 64], codes: &[u8; 8]) {
        crate::Machine::write_uncached_precoded(self, addr, data, codes);
    }
    fn read_uncached(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        crate::Machine::read_uncached(self, addr, buf)
    }
    fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        crate::Machine::peek(self, addr, len)
    }
    fn peek_into(&self, addr: u64, out: &mut [u8]) {
        crate::Machine::peek_into(self, addr, out);
    }
    fn compute(&mut self, cycles: u64) {
        crate::Machine::compute(self, cycles);
    }
    fn take_faults(&mut self) -> Vec<EccFault> {
        crate::Machine::take_faults(self)
    }
    fn scrub_step(&mut self, groups: u64) -> u64 {
        crate::Machine::scrub_step(self, groups)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const VACANT: &str = "SlotBackend: no machine installed (the fleet scheduler must install the \
     shared machine before this process runs)";

/// A backend window onto a machine shared by many simulated processes.
///
/// A cooperative fleet scheduler time-multiplexes one physical [`Machine`]
/// across processes: before a process's turn it [`install`]s the machine
/// into that process's slot, and after the turn it [`take`]s it back. While
/// installed, every operation forwards to the shared machine (absolute
/// physical addresses — processes are kept apart by disjoint frame windows
/// at the VM layer, not by translation here).
///
/// The slot maintains a **per-process virtual clock**: after each operation
/// it accrues the shared clock's advance since the machine was installed
/// (or since the previous operation), so time spent by *other* processes
/// between this process's turns never inflates this process's CPU time —
/// the leak detector's lifetime thresholds stay per-process meaningful.
///
/// [`install`]: SlotBackend::install
/// [`take`]: SlotBackend::take
#[derive(Debug)]
pub struct SlotBackend {
    slot: Option<crate::Machine>,
    local: Clock,
    last_seen: u64,
}

impl SlotBackend {
    /// Creates an empty slot whose virtual clock runs at `hz`.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[must_use]
    pub fn vacant(hz: u64) -> Self {
        SlotBackend {
            slot: None,
            local: Clock::new(hz),
            last_seen: 0,
        }
    }

    /// Whether a machine is currently installed.
    #[must_use]
    pub fn is_installed(&self) -> bool {
        self.slot.is_some()
    }

    /// Installs the shared machine for this process's turn. The reference
    /// point for time accrual resets to the machine's current clock, so
    /// other processes' elapsed time is skipped.
    ///
    /// # Panics
    ///
    /// Panics if a machine is already installed (a scheduler bug).
    pub fn install(&mut self, machine: crate::Machine) {
        assert!(
            self.slot.is_none(),
            "SlotBackend: machine already installed"
        );
        self.last_seen = machine.clock().cycles();
        self.slot = Some(machine);
    }

    /// Removes the shared machine at the end of this process's turn,
    /// accruing any remaining clock advance first.
    ///
    /// # Panics
    ///
    /// Panics if no machine is installed.
    pub fn take(&mut self) -> crate::Machine {
        let machine = self.slot.take().expect(VACANT);
        let now = machine.clock().cycles();
        self.local.advance(now.saturating_sub(self.last_seen));
        self.last_seen = now;
        machine
    }

    fn shared(&self) -> &crate::Machine {
        self.slot.as_ref().expect(VACANT)
    }

    /// Runs `f` on the installed machine, then accrues its clock advance
    /// onto the per-process virtual clock.
    fn with<R>(&mut self, f: impl FnOnce(&mut crate::Machine) -> R) -> R {
        let machine = self.slot.as_mut().expect(VACANT);
        let result = f(machine);
        let now = machine.clock().cycles();
        self.local.advance(now.saturating_sub(self.last_seen));
        self.last_seen = now;
        result
    }
}

impl MachineBackend for SlotBackend {
    fn clock(&self) -> &Clock {
        &self.local
    }
    fn cost(&self) -> &CostModel {
        self.shared().cost()
    }
    fn line_size(&self) -> u64 {
        self.shared().line_size()
    }
    fn controller(&self) -> &EccController {
        self.shared().controller()
    }
    fn controller_mut(&mut self) -> &mut EccController {
        self.slot.as_mut().expect(VACANT).controller_mut()
    }
    fn scramble(&self) -> ScrambleScheme {
        self.shared().scramble()
    }
    fn hierarchy(&self) -> &Hierarchy {
        self.shared().hierarchy()
    }
    fn set_prefetch(&mut self, on: bool) {
        self.with(|m| m.set_prefetch(on));
    }
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        self.with(|m| m.read(addr, buf))
    }
    fn read_l1_repeated(&mut self, addr: u64, buf: &mut [u8], reads: u64) -> bool {
        self.with(|m| m.read_l1_repeated(addr, buf, reads))
    }
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), EccFault> {
        self.with(|m| m.write(addr, buf))
    }
    fn flush_range(&mut self, addr: u64, len: u64) {
        self.with(|m| m.flush_range(addr, len));
    }
    fn flush_all_caches(&mut self) {
        self.with(crate::Machine::flush_all_caches);
    }
    fn write_uncached(&mut self, addr: u64, buf: &[u8]) {
        self.with(|m| m.write_uncached(addr, buf));
    }
    fn write_uncached_precoded(&mut self, addr: u64, data: &[u8; 64], codes: &[u8; 8]) {
        self.with(|m| m.write_uncached_precoded(addr, data, codes));
    }
    fn read_uncached(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EccFault> {
        self.with(|m| m.read_uncached(addr, buf))
    }
    fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        self.shared().peek(addr, len)
    }
    fn peek_into(&self, addr: u64, out: &mut [u8]) {
        self.shared().peek_into(addr, out);
    }
    fn compute(&mut self, cycles: u64) {
        self.with(|m| m.compute(cycles));
    }
    fn take_faults(&mut self) -> Vec<EccFault> {
        self.with(crate::Machine::take_faults)
    }
    fn scrub_step(&mut self, groups: u64) -> u64 {
        self.with(|m| m.scrub_step(groups))
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn slot_accrues_only_own_turns() {
        let mut machine = Machine::with_defaults(1 << 20);
        machine.compute(5_000); // time that elapsed before this process ran
        let hz = machine.clock().hz();
        let mut slot = SlotBackend::vacant(hz);
        assert!(!slot.is_installed());

        slot.install(machine);
        assert_eq!(slot.clock().cycles(), 0, "foreign time skipped");
        slot.compute(1_234);
        assert_eq!(slot.clock().cycles(), 1_234);

        let mut machine = slot.take();
        machine.compute(9_999); // another process's turn
        slot.install(machine);
        slot.compute(766);
        assert_eq!(slot.clock().cycles(), 2_000, "only own turns accrue");
        let machine = slot.take();
        assert!(machine.clock().cycles() >= 5_000 + 1_234 + 9_999 + 766);
    }

    #[test]
    fn slot_forwards_memory_operations() {
        let mut machine = Machine::with_defaults(1 << 20);
        machine.write(0x1000, &[7u8; 64]).unwrap();
        let mut slot = SlotBackend::vacant(machine.clock().hz());
        slot.install(machine);
        let mut buf = [0u8; 64];
        MachineBackend::read(&mut slot, 0x1000, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        // peek bypasses the caches: flush the dirty line out first.
        MachineBackend::flush_range(&mut slot, 0x1000, 64);
        assert_eq!(slot.peek(0x1000, 4), vec![7u8; 4]);
        assert!(slot.clock().cycles() > 0, "the read cost accrued locally");
    }

    #[test]
    #[should_panic(expected = "no machine installed")]
    fn vacant_slot_panics_on_use() {
        let mut slot = SlotBackend::vacant(2_400_000_000);
        slot.compute(1);
    }

    #[test]
    fn downcast_through_the_trait_object() {
        let slot = SlotBackend::vacant(2_400_000_000);
        let boxed: Box<dyn MachineBackend> = Box::new(slot);
        assert!(boxed.as_any().downcast_ref::<SlotBackend>().is_some());
        assert!(boxed.as_any().downcast_ref::<Machine>().is_none());
    }
}
