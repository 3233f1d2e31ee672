//! Multi-process fleet simulation: the paper's production-run story at
//! GWP-ASan scale.
//!
//! A [`Fleet`] time-multiplexes one physical [`Machine`] — one ECC
//! memory controller, one cache hierarchy, one swap device — across
//! hundreds-to-thousands of simulated processes. Each process is a full
//! `safemem-os` instance over a [`SlotBackend`]
//! (the pluggable machine/OS boundary): before a process's turn the
//! scheduler installs the shared machine into that process's slot, and
//! after the turn it takes the machine back. Processes are kept apart by
//! disjoint physical frame windows (`OsConfig::phys_base`), so each OS
//! pages, pins, and watches only its own slice of the shared memory, while
//! the backend's per-process virtual clock keeps the leak detector's
//! lifetime thresholds meaningful per process.
//!
//! Every process runs a connection-churn server workload
//! ([`ChurnSim`]) under its own sampled SafeMem
//! instance. At sub-1.0 sampling rates each individual process is unlikely
//! to catch its planted bug; the fleet-level detection probability
//! `1 - (1 - r)^n` is what the `fleet` campaign preset scores against the
//! tallies this crate produces.
//!
//! # Determinism and sharding
//!
//! Within a fleet, turn order is `(round, pid)` lexicographic and no
//! decision consults host state, so a run is a pure function of its
//! [`ProcessSpec`]s and [`FleetConfig`]. On top of that, every turn ends
//! with a full cache flush (see [`park`]): a process always starts its
//! turn from an empty cache, so its entire trajectory — every hit, miss,
//! fault, and cycle — is independent of which co-residents share its
//! machine. That independence is what makes the fleet *shardable*:
//! [`Fleet::run_sharded`] partitions the processes into contiguous shards,
//! each with its own machine sized to its own windows, runs the shards on
//! a scoped worker pool, and merges the per-shard reports in canonical pid
//! order into a [`FleetReport`] byte-identical to the single-machine run.
//!
//! # Long horizons
//!
//! [`FleetConfig`] carries the paper-scale deployment knobs: staggered
//! process start offsets ([`FleetConfig::stagger`]) and restart churn
//! ([`FleetConfig::restart_every`]) — each process can be torn down and
//! rebooted every k requests as a fresh generation, the way production
//! fleets roll. Both default to the pre-existing behaviour. Every process's
//! leak detector batches its check deadlines at epoch boundaries (see
//! `safemem_core::leak`), which is what keeps long horizons affordable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use safemem_core::{MemTool, SafeMem, SamplingPlan};
use safemem_ecc::ControllerStats;
use safemem_machine::{Machine, SlotBackend};
use safemem_os::{Os, OsConfig, SwapPolicy, PAGE_BYTES};
use safemem_workloads::apps::churn::CHURN_DEFAULT_REQUESTS;
use safemem_workloads::apps::{ChurnKind, ChurnLeak, ChurnSim};
use safemem_workloads::{Ctx, RunResult, Workload};

/// Default physical frame window per process, in pages (128 KiB): ample for
/// a churn server's resident set while keeping a 512-process fleet's shared
/// memory at 64 MiB.
///
/// The window is a multiple of both cache-level set strides, so re-basing a
/// process's window (as sharding does) never changes its cache set mapping.
pub const DEFAULT_WINDOW_PAGES: u64 = 32;

/// Per-process plan: which churn server it runs and how its SafeMem
/// instance samples.
///
/// The sampling seed is taken verbatim (not derived here) so the campaign
/// layer can key it exactly like its single-process cells — a fleet process
/// and the campaign cell with the same spec then make identical
/// per-allocation sampling decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessSpec {
    /// The churn workload this process runs.
    pub kind: ChurnKind,
    /// Seed for the workload driver context (churn draws nothing from it,
    /// but it keeps fleet and solo runs configured identically).
    pub workload_seed: u64,
    /// SafeMem sampling rate in parts-per-million.
    pub sampling_ppm: u32,
    /// SafeMem sampling seed for this process.
    pub sampling_seed: u64,
}

/// Fleet-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Requests each process serves.
    pub requests: u64,
    /// Physical frame window per process, in pages.
    pub window_pages: u64,
    /// Whether the servers receive bug-triggering inputs.
    pub buggy: bool,
    /// Swap policy of every process's OS.
    pub swap_policy: SwapPolicy,
    /// Staggered start offsets: process with global pid `p` idles for
    /// `p % stagger` scheduler rounds before serving its first request
    /// (0 = everyone starts at round 0). Offsets are a function of the
    /// *global* pid, so a sharded run staggers identically to a whole run.
    pub stagger: u64,
    /// Restart churn: tear the process down (drain, score, drop the OS)
    /// and boot a fresh generation — new OS, new sampled SafeMem, new
    /// server state — after every `k` served requests (None = one
    /// generation for the whole horizon). Each generation derives its own
    /// sampling seed; a process's detection flag is the OR over its
    /// generations and its false positives the sum.
    pub restart_every: Option<u64>,
    /// Global pid of the first spec in this fleet (nonzero only for the
    /// shard-local fleets [`Fleet::run_sharded`] boots, so stagger offsets
    /// and generation seeds stay functions of the global pid).
    pub pid_base: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            requests: CHURN_DEFAULT_REQUESTS,
            window_pages: DEFAULT_WINDOW_PAGES,
            buggy: true,
            swap_policy: SwapPolicy::PinWatchedPages,
            stagger: 0,
            restart_every: None,
            pid_base: 0,
        }
    }
}

/// Per-workload-kind detection tally, folded over all processes of that
/// kind (fixed size regardless of fleet size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindTally {
    /// Processes running this kind.
    pub processes: u64,
    /// Processes whose planted bug was reported (in any generation).
    pub detected: u64,
    /// False reports across this kind's processes (wrong-group leaks, or
    /// any corruption report from a process that planted none).
    pub false_positives: u64,
    /// Allocations that drew full instrumentation, summed over processes.
    pub sampled_allocs: u64,
    /// Allocations issued, summed over processes.
    pub total_allocs: u64,
}

/// Everything a fleet run produces. All fields are fixed-size aggregates
/// except [`detected`](FleetReport::detected), one flag per process (the
/// cross-check surface for the campaign's per-cell replays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Fleet size.
    pub processes: u64,
    /// Requests each process served.
    pub requests: u64,
    /// Bytes of physical memory across the fleet's machines.
    pub shared_phys_bytes: u64,
    /// Machine clock at the end of the run, summed over the fleet's
    /// machines (all processes' turns plus the turn-boundary cache
    /// flushes, serialized per machine).
    pub machine_cycles: u64,
    /// Sum of per-process CPU cycles (virtual clocks, I/O excluded).
    pub process_cycles: u64,
    /// Page faults summed over all processes.
    pub page_faults: u64,
    /// Swap-ins on the machines' swap devices, summed over all processes.
    pub swap_ins: u64,
    /// Swap-outs on the machines' swap devices, summed over all processes.
    pub swap_outs: u64,
    /// ECC controller counters summed over the fleet's machines.
    pub ecc: ControllerStats,
    /// Per-kind tallies in first-appearance order of the spec list.
    pub tallies: Vec<(&'static str, KindTally)>,
    /// Per-process detection flag, indexed by pid.
    pub detected: Vec<bool>,
}

impl FleetReport {
    /// The tally for workload `name`, if any process ran it.
    #[must_use]
    pub fn tally(&self, name: &str) -> Option<&KindTally> {
        self.tallies
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t)
    }

    /// Total false positives across the fleet.
    #[must_use]
    pub fn false_positives(&self) -> u64 {
        self.tallies.iter().map(|(_, t)| t.false_positives).sum()
    }

    /// Total detections across the fleet.
    #[must_use]
    pub fn detections(&self) -> u64 {
        self.tallies.iter().map(|(_, t)| t.detected).sum()
    }

    /// Merges `other` (the next contiguous shard, in pid order) into this
    /// report: counters sum, detection flags concatenate, tallies merge in
    /// first-appearance order — exactly what a single-machine run of the
    /// concatenated spec list produces.
    fn absorb_shard(&mut self, other: FleetReport) {
        self.processes += other.processes;
        self.shared_phys_bytes += other.shared_phys_bytes;
        self.machine_cycles += other.machine_cycles;
        self.process_cycles += other.process_cycles;
        self.page_faults += other.page_faults;
        self.swap_ins += other.swap_ins;
        self.swap_outs += other.swap_outs;
        add_controller_stats(&mut self.ecc, &other.ecc);
        for (name, tally) in other.tallies {
            match self.tallies.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    t.processes += tally.processes;
                    t.detected += tally.detected;
                    t.false_positives += tally.false_positives;
                    t.sampled_allocs += tally.sampled_allocs;
                    t.total_allocs += tally.total_allocs;
                }
                None => self.tallies.push((name, tally)),
            }
        }
        self.detected.extend(other.detected);
    }
}

/// Component-wise sum of ECC controller counters (the struct is plain
/// counters, so shard merge is addition).
fn add_controller_stats(into: &mut ControllerStats, from: &ControllerStats) {
    into.groups_verified += from.groups_verified;
    into.groups_encoded += from.groups_encoded;
    into.corrected_single_bit += from.corrected_single_bit;
    into.reported_single_bit += from.reported_single_bit;
    into.uncorrectable += from.uncorrectable;
    into.scrubbed_groups += from.scrubbed_groups;
    into.scrub_corrections += from.scrub_corrections;
    into.scrub_passes += from.scrub_passes;
    into.injected_data_bits += from.injected_data_bits;
    into.injected_code_bits += from.injected_code_bits;
    into.injected_multi_bit += from.injected_multi_bit;
}

/// The workload-registry name of a churn kind.
#[must_use]
pub fn kind_name(kind: ChurnKind) -> &'static str {
    match kind {
        ChurnKind::Leak => "churn-leak",
        ChurnKind::UseAfterFree => "churn-uaf",
        ChurnKind::Overflow => "churn-obo",
    }
}

/// Per-process accumulator across generations (one generation unless
/// restart churn is on).
#[derive(Debug, Default)]
struct ProcAccum {
    detected: bool,
    false_positives: u64,
    sampled_allocs: u64,
    total_allocs: u64,
    cpu_cycles: u64,
    page_faults: u64,
    swap_ins: u64,
    swap_outs: u64,
}

/// One simulated process: its OS (over a vacant slot), its SafeMem
/// instance, and its server state — plus the generation bookkeeping for
/// restart churn.
struct Process {
    spec: ProcessSpec,
    /// Base of this process's frame window on its shard's machine.
    phys_base: u64,
    /// Scheduler rounds this process idles before its first request.
    offset: u64,
    /// Current generation index (0 unless restart churn is on).
    generation: u64,
    /// Requests served by the current generation.
    gen_served: u64,
    os: Os,
    tool: SafeMem,
    sim: ChurnSim,
    kind: ChurnKind,
    workload_seed: u64,
    acc: ProcAccum,
}

/// The slot backend of a fleet process's OS.
fn slot_of(os: &mut Os) -> &mut SlotBackend {
    os.machine_mut()
        .as_any_mut()
        .downcast_mut::<SlotBackend>()
        .expect("fleet processes run over SlotBackend")
}

/// Takes the machine back from a process's slot and flushes the caches
/// before parking it. The flush is the determinism barrier that makes a
/// process's trajectory independent of its co-residents: every turn starts
/// from an empty cache, so hit/miss behaviour — and therefore every cycle
/// count — is a function of that process's own history alone. Flush cycles
/// advance the machine clock but are foreign time to every process's
/// virtual clock (the slot accrues up to the take, and resets on install).
fn park(machine: &mut Option<Machine>, os: &mut Os) {
    let mut m = slot_of(os).take();
    m.flush_all_caches();
    *machine = Some(m);
}

/// The sampling seed of generation `g` of a process: generation 0 keeps the
/// spec's seed verbatim (so the no-restart path is unchanged and the
/// campaign cross-check still binds); later generations re-key it so a
/// rebooted process makes fresh sampling decisions, the way a restarted
/// production process would.
fn generation_seed(spec_seed: u64, generation: u64) -> u64 {
    if generation == 0 {
        spec_seed
    } else {
        spec_seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Boots one process generation: a fresh OS over a vacant slot and a
/// sampled SafeMem instance built as a scheduled turn on `machine`.
fn boot_stack(
    machine: &mut Option<Machine>,
    hz: u64,
    window: u64,
    phys_base: u64,
    spec: &ProcessSpec,
    sampling_seed: u64,
    config: &FleetConfig,
) -> (Os, SafeMem) {
    let mut os = Os::with_backend(
        Box::new(SlotBackend::vacant(hz)),
        OsConfig {
            phys_bytes: window,
            phys_base,
            swap_policy: config.swap_policy,
            ..OsConfig::default()
        },
    );
    // Tool construction queries the machine (line size), so it runs as a
    // scheduled turn.
    slot_of(&mut os).install(machine.take().expect("shared machine in flight"));
    let tool = SafeMem::builder()
        .sampling(SamplingPlan::new(spec.sampling_ppm, sampling_seed))
        .build(&mut os);
    park(machine, &mut os);
    (os, tool)
}

impl Process {
    /// Runs `f` with the shared machine installed in this process's slot.
    fn turn<R>(&mut self, machine: &mut Option<Machine>, f: impl FnOnce(&mut Process) -> R) -> R {
        slot_of(&mut self.os).install(machine.take().expect("shared machine in flight"));
        let result = f(self);
        park(machine, &mut self.os);
        result
    }

    /// Closes the current generation as a scheduled turn — drain the
    /// server, finish the tool, score — and folds the outcome and the
    /// generation's OS counters into the per-process accumulator.
    fn close_generation(&mut self, machine: &mut Option<Machine>) {
        let outcome = self.turn(machine, |p| {
            {
                let mut ctx = Ctx::new(&mut p.os, &mut p.tool, p.sim.app_id(), p.workload_seed);
                p.sim.drain(&mut ctx);
            }
            p.tool.finish(&mut p.os);
            score(p)
        });
        let vm = self.os.vm().stats();
        self.acc.detected |= outcome.detected;
        self.acc.false_positives += outcome.false_positives;
        self.acc.sampled_allocs += outcome.sampled_allocs;
        self.acc.total_allocs += outcome.total_allocs;
        self.acc.cpu_cycles += self.os.cpu_cycles();
        self.acc.page_faults += vm.page_faults;
        self.acc.swap_ins += vm.swap_ins;
        self.acc.swap_outs += vm.swap_outs;
    }
}

/// The multi-process scheduler over one shared machine.
pub struct Fleet {
    config: FleetConfig,
    hz: u64,
    procs: Vec<Process>,
    machine: Option<Machine>,
}

impl Fleet {
    /// Boots a fleet: one shared machine sized to hold every process's
    /// frame window, and one OS + sampled SafeMem instance per spec.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or `config.window_pages` is zero.
    #[must_use]
    pub fn boot(specs: &[ProcessSpec], config: FleetConfig) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one process");
        assert!(config.window_pages > 0, "zero-page frame window");
        let window = config.window_pages * PAGE_BYTES;
        let shared = Machine::with_defaults(window * specs.len() as u64);
        let hz = shared.clock().hz();
        let mut machine = Some(shared);
        let mut procs = Vec::with_capacity(specs.len());
        for (pid, spec) in specs.iter().enumerate() {
            let global_pid = config.pid_base + pid as u64;
            let phys_base = pid as u64 * window;
            let (os, tool) = boot_stack(
                &mut machine,
                hz,
                window,
                phys_base,
                spec,
                generation_seed(spec.sampling_seed, 0),
                &config,
            );
            let offset = if config.stagger == 0 {
                0
            } else {
                global_pid % config.stagger
            };
            procs.push(Process {
                spec: *spec,
                phys_base,
                offset,
                generation: 0,
                gen_served: 0,
                os,
                tool,
                sim: ChurnSim::new(spec.kind, generation_length(&config, 0)),
                kind: spec.kind,
                workload_seed: spec.workload_seed,
                acc: ProcAccum::default(),
            });
        }
        Fleet {
            config,
            hz,
            procs,
            machine,
        }
    }

    /// Runs every process to completion — `(round, pid)`-ordered turns with
    /// stagger offsets and generation rollovers, then a drain/finish turn
    /// per process — and tallies the fleet.
    #[must_use]
    pub fn run(mut self) -> FleetReport {
        let config = self.config;
        let window = config.window_pages * PAGE_BYTES;
        let rounds = config.requests + self.procs.iter().map(|p| p.offset).max().unwrap_or(0);
        for round in 0..rounds {
            for proc in &mut self.procs {
                let Some(local) = round.checked_sub(proc.offset) else {
                    continue;
                };
                if local >= config.requests {
                    continue;
                }
                if proc.gen_served == generation_length(&config, proc.generation) {
                    // Restart churn: this generation served its quota.
                    proc.close_generation(&mut self.machine);
                    proc.generation += 1;
                    proc.gen_served = 0;
                    let (os, tool) = boot_stack(
                        &mut self.machine,
                        self.hz,
                        window,
                        proc.phys_base,
                        &proc.spec,
                        generation_seed(proc.spec.sampling_seed, proc.generation),
                        &config,
                    );
                    proc.os = os;
                    proc.tool = tool;
                    proc.sim =
                        ChurnSim::new(proc.kind, generation_length(&config, proc.generation));
                }
                let request = proc.gen_served;
                proc.turn(&mut self.machine, |p| {
                    let mut ctx = Ctx::new(&mut p.os, &mut p.tool, p.sim.app_id(), p.workload_seed);
                    p.sim.step(&mut ctx, request, config.buggy);
                });
                proc.gen_served += 1;
            }
        }

        let mut report = FleetReport {
            processes: self.procs.len() as u64,
            requests: config.requests,
            shared_phys_bytes: window * self.procs.len() as u64,
            machine_cycles: 0,
            process_cycles: 0,
            page_faults: 0,
            swap_ins: 0,
            swap_outs: 0,
            ecc: ControllerStats::default(),
            tallies: Vec::new(),
            detected: Vec::with_capacity(self.procs.len()),
        };

        for proc in &mut self.procs {
            proc.close_generation(&mut self.machine);
            report.process_cycles += proc.acc.cpu_cycles;
            report.page_faults += proc.acc.page_faults;
            report.swap_ins += proc.acc.swap_ins;
            report.swap_outs += proc.acc.swap_outs;
            let name = kind_name(proc.kind);
            let tally = match report.tallies.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => t,
                None => {
                    report.tallies.push((name, KindTally::default()));
                    &mut report.tallies.last_mut().expect("just pushed").1
                }
            };
            tally.processes += 1;
            tally.detected += u64::from(proc.acc.detected);
            tally.false_positives += proc.acc.false_positives;
            tally.sampled_allocs += proc.acc.sampled_allocs;
            tally.total_allocs += proc.acc.total_allocs;
            report.detected.push(proc.acc.detected);
        }

        let machine = self.machine.expect("shared machine parked after turns");
        report.machine_cycles = machine.clock().cycles();
        report.ecc = machine.controller().stats();
        report
    }

    /// Runs the fleet partitioned into `shards` contiguous shards, each
    /// with its own machine sized to its own processes' frame windows, on a
    /// scoped worker pool (one worker per shard, self-scheduling through an
    /// atomic cursor like the campaign runner). Processes never share
    /// frames across shards and every turn ends at the cache barrier, so
    /// the merged report is byte-identical to `Fleet::boot(specs,
    /// config).run()` for every shard count — `shards == 1` *is* that
    /// single-machine reference.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, `shards` is zero, or
    /// `config.window_pages` is zero.
    #[must_use]
    pub fn run_sharded(specs: &[ProcessSpec], config: FleetConfig, shards: usize) -> FleetReport {
        assert!(shards > 0, "a fleet needs at least one shard");
        assert!(!specs.is_empty(), "a fleet needs at least one process");
        let shards = shards.min(specs.len());
        if shards == 1 {
            return Fleet::boot(specs, config).run();
        }

        // Contiguous balanced partition: shard s owns specs[start..end] and
        // their global pids, so concatenating shard results in shard order
        // is canonical pid order.
        let per = specs.len() / shards;
        let extra = specs.len() % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let len = per + usize::from(s < extra);
            ranges.push(start..start + len);
            start += len;
        }

        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<FleetReport>> = Vec::new();
        slots.resize_with(shards, || None);
        let slots = std::sync::Mutex::new(slots);
        std::thread::scope(|scope| {
            for _ in 0..shards {
                let cursor = &cursor;
                let slots = &slots;
                let ranges = &ranges;
                scope.spawn(move || loop {
                    let s = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(range) = ranges.get(s) else {
                        break;
                    };
                    let shard_config = FleetConfig {
                        pid_base: config.pid_base + range.start as u64,
                        ..config
                    };
                    let report = Fleet::boot(&specs[range.clone()], shard_config).run();
                    slots.lock().expect("no panics hold the shard lock")[s] = Some(report);
                });
            }
        });

        let mut merged: Option<FleetReport> = None;
        for report in slots.into_inner().expect("scope joined all workers") {
            let report = report.expect("every shard ran");
            match &mut merged {
                None => merged = Some(report),
                Some(m) => m.absorb_shard(report),
            }
        }
        merged.expect("at least one shard")
    }
}

/// Requests generation `g` serves under `config`: the whole horizon
/// without restart churn, else `restart_every` (the final generation takes
/// the remainder).
fn generation_length(config: &FleetConfig, generation: u64) -> u64 {
    match config.restart_every {
        None => config.requests,
        Some(k) => {
            let k = k.max(1);
            let served = generation * k;
            k.min(config.requests.saturating_sub(served))
        }
    }
}

struct Outcome {
    detected: bool,
    false_positives: u64,
    sampled_allocs: u64,
    total_allocs: u64,
}

/// Scores one finished process generation: was the planted bug reported,
/// and did anything else get reported that should not have been?
fn score(proc: &mut Process) -> Outcome {
    let result = RunResult {
        cpu_cycles: proc.os.cpu_cycles(),
        reports: proc.tool.reports(),
        heap_stats: proc.tool.heap().stats(),
    };
    let sampling = proc.tool.sampling().unwrap_or_default();
    let truth = match proc.kind {
        ChurnKind::Leak => ChurnLeak.true_leak_groups(),
        _ => Vec::new(),
    };
    let (detected, mut false_positives) = match proc.kind {
        ChurnKind::Leak => (
            result.true_leaks(&truth) > 0,
            result.false_leaks(&truth) as u64,
        ),
        ChurnKind::UseAfterFree | ChurnKind::Overflow => (
            result.corruption_detected(),
            result.false_leaks(&truth) as u64,
        ),
    };
    if proc.kind == ChurnKind::Leak && result.corruption_detected() {
        false_positives += 1;
    }
    Outcome {
        detected,
        false_positives,
        sampled_allocs: sampling.sampled_allocs,
        total_allocs: sampling.total_allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_core::PPM;

    fn spec(kind: ChurnKind, pid: u64) -> ProcessSpec {
        ProcessSpec {
            kind,
            workload_seed: 0x05AF_E3E3,
            sampling_ppm: PPM,
            sampling_seed: pid,
        }
    }

    fn trio_specs(n: u64) -> Vec<ProcessSpec> {
        (0..n)
            .map(|pid| {
                spec(
                    [
                        ChurnKind::Leak,
                        ChurnKind::UseAfterFree,
                        ChurnKind::Overflow,
                    ][pid as usize % 3],
                    pid,
                )
            })
            .collect()
    }

    #[test]
    fn always_on_trio_detects_every_planted_bug() {
        let specs = [
            spec(ChurnKind::Leak, 0),
            spec(ChurnKind::UseAfterFree, 1),
            spec(ChurnKind::Overflow, 2),
        ];
        let report = Fleet::boot(&specs, FleetConfig::default()).run();
        assert_eq!(report.processes, 3);
        assert_eq!(report.detections(), 3, "tallies: {:?}", report.tallies);
        assert_eq!(report.false_positives(), 0);
        assert_eq!(report.detected, vec![true, true, true]);
        assert_eq!(report.tally("churn-leak").unwrap().detected, 1);
        assert!(report.process_cycles > 0);
        assert!(
            report.machine_cycles >= report.process_cycles,
            "the shared clock serializes every process's time"
        );
        assert!(report.ecc.groups_verified > 0, "ECC stats surface");
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let specs = trio_specs(6);
        let config = FleetConfig {
            requests: 48,
            ..FleetConfig::default()
        };
        let a = Fleet::boot(&specs, config).run();
        let b = Fleet::boot(&specs, config).run();
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_runs_compose_exactly() {
        // The load-bearing claim behind run_sharded: with the turn-boundary
        // cache barrier, per-shard machines compose into the whole —
        // every counter, including cycle counts and ECC controller stats,
        // not just the detection flags.
        let specs = trio_specs(6);
        let config = FleetConfig {
            requests: 48,
            ..FleetConfig::default()
        };
        let whole = Fleet::boot(&specs, config).run();
        for shards in [1usize, 2, 3, 6] {
            let sharded = Fleet::run_sharded(&specs, config, shards);
            assert_eq!(whole, sharded, "{shards} shards diverged");
        }
    }

    #[test]
    fn sharding_composes_under_stagger_and_restart() {
        let specs = trio_specs(7);
        let config = FleetConfig {
            requests: 48,
            stagger: 5,
            restart_every: Some(16),
            ..FleetConfig::default()
        };
        let whole = Fleet::boot(&specs, config).run();
        for shards in [2usize, 3] {
            let sharded = Fleet::run_sharded(&specs, config, shards);
            assert_eq!(whole, sharded, "{shards} shards diverged");
        }
    }

    #[test]
    fn stagger_offsets_follow_the_global_pid() {
        // Staggered processes serve the same requests, just later in
        // machine time — detections are unchanged, and the offsets only
        // delay, never drop, work.
        let specs = trio_specs(6);
        let base = FleetConfig {
            requests: 48,
            ..FleetConfig::default()
        };
        let plain = Fleet::boot(&specs, base).run();
        let staggered = Fleet::boot(&specs, FleetConfig { stagger: 4, ..base }).run();
        assert_eq!(plain.detected, staggered.detected);
        assert_eq!(plain.detections(), staggered.detections());
        assert_eq!(plain.false_positives(), 0);
        assert_eq!(staggered.false_positives(), 0);
        // Per-process work is identical; only the machine-time interleaving
        // moved, which the virtual clocks hide.
        assert_eq!(plain.process_cycles, staggered.process_cycles);
    }

    #[test]
    fn restart_churn_rolls_generations_without_false_positives() {
        // 192 requests with a restart every 96: two generations per
        // process, each as long as a default churn run. Each generation is
        // a fresh OS + tool over the same frame window — reuse must never
        // leak armed watch state into the next generation as a false
        // positive, and each generation's planted bug is detectable on its
        // own (a generation shorter than the SLeak watch horizon would
        // realistically truncate leak detection, so keep them full-length
        // here).
        let specs = trio_specs(6);
        let config = FleetConfig {
            requests: 192,
            restart_every: Some(96),
            ..FleetConfig::default()
        };
        let report = Fleet::boot(&specs, config).run();
        assert_eq!(report.false_positives(), 0, "{:?}", report.tallies);
        // The leak is planted at request 8 of each full-length generation,
        // so every always-on leak process still detects.
        assert_eq!(report.tally("churn-leak").unwrap().detected, 2);
        // Corruption plants at requests/2 of each generation's span.
        assert!(report.detections() >= 2);
        let again = Fleet::boot(&specs, config).run();
        assert_eq!(report, again, "restart churn stays deterministic");
    }

    #[test]
    fn sampled_fleet_detection_tracks_the_sampling_decision() {
        // At a sub-1.0 rate, a uaf process detects iff its victim
        // allocation drew instrumentation — so re-running the same fleet
        // must reproduce the exact same hit set, and some processes must
        // fall on each side at 20%.
        let specs: Vec<ProcessSpec> = (0..16)
            .map(|pid| ProcessSpec {
                sampling_ppm: 200_000,
                ..spec(ChurnKind::UseAfterFree, pid)
            })
            .collect();
        let config = FleetConfig {
            requests: 48,
            ..FleetConfig::default()
        };
        let report = Fleet::boot(&specs, config).run();
        let hits = report.detections();
        assert!(hits > 0 && hits < 16, "both outcomes occur: {hits}/16");
        assert_eq!(report.false_positives(), 0);
        let again = Fleet::boot(&specs, config).run();
        assert_eq!(report.detected, again.detected);
    }

    #[test]
    fn normal_inputs_stay_silent_fleet_wide() {
        let specs = trio_specs(6);
        let config = FleetConfig {
            buggy: false,
            ..FleetConfig::default()
        };
        let report = Fleet::boot(&specs, config).run();
        assert_eq!(report.detections(), 0);
        assert_eq!(report.false_positives(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_fleet_is_rejected() {
        let _ = Fleet::boot(&[], FleetConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let specs = trio_specs(3);
        let _ = Fleet::run_sharded(&specs, FleetConfig::default(), 0);
    }

    #[test]
    #[ignore = "scale smoke (512 processes): run explicitly or via the CI fleet leg"]
    fn five_hundred_twelve_processes_share_one_machine() {
        let specs: Vec<ProcessSpec> = (0..512)
            .map(|pid| ProcessSpec {
                sampling_ppm: 200_000,
                ..spec(
                    [
                        ChurnKind::Leak,
                        ChurnKind::UseAfterFree,
                        ChurnKind::Overflow,
                    ][pid as usize % 3],
                    pid,
                )
            })
            .collect();
        let report = Fleet::boot(&specs, FleetConfig::default()).run();
        assert_eq!(report.processes, 512);
        assert_eq!(report.shared_phys_bytes, 512 * 32 * PAGE_BYTES);
        assert_eq!(report.false_positives(), 0);
        assert!(report.detections() > 0);
        // And the sharded path composes to the same report at scale.
        let sharded = Fleet::run_sharded(&specs, FleetConfig::default(), 8);
        assert_eq!(report, sharded);
    }

    #[test]
    #[ignore = "long-horizon smoke (10k+ requests with stagger + restart churn): run explicitly or via the CI fleet leg"]
    fn long_horizon_fleet_with_stagger_and_restart_churn() {
        use safemem_workloads::apps::churn::CHURN_LONG_HORIZON_REQUESTS;
        let specs = trio_specs(6);
        let config = FleetConfig {
            requests: CHURN_LONG_HORIZON_REQUESTS,
            stagger: 64,
            restart_every: Some(2_048),
            ..FleetConfig::default()
        };
        let whole = Fleet::boot(&specs, config).run();
        assert_eq!(whole.false_positives(), 0);
        assert_eq!(whole.tally("churn-leak").unwrap().detected, 2);
        let sharded = Fleet::run_sharded(&specs, config, 3);
        assert_eq!(whole, sharded, "long horizons still compose");
    }
}
