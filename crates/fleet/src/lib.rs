//! Multi-process fleet simulation: the paper's production-run story at
//! GWP-ASan scale.
//!
//! A [`Fleet`] runs hundreds to thousands of simulated processes. Each
//! process is a full `safemem-os` instance over a machine of its own,
//! sized to the process's frame window ([`FleetConfig::window_pages`]),
//! and runs a connection-churn server workload ([`ChurnSim`]) under its own
//! sampled SafeMem instance. At sub-1.0 sampling rates each individual
//! process is unlikely to catch its planted bug; the fleet-level detection
//! probability `1 - (1 - r)^n` is what the `fleet` campaign preset scores
//! against the tallies this crate produces.
//!
//! # Turns and determinism
//!
//! A process serves one request per scheduler turn, and every turn ends
//! with [`Os::context_switch`]: the caches are written back and emptied,
//! and the flush is booked as background time. Every turn therefore starts
//! from a cold cache, and a process's whole trajectory (every hit, miss,
//! fault and cycle) is a function of its own spec alone. Processes share
//! nothing, so [`Fleet::run_sharded`] runs each one from start to finish as
//! a single work item on a scoped worker pool and folds the outcomes in pid
//! order. The [`FleetReport`] is the same at every worker count, and a
//! worker holds one process at a time.
//!
//! # Restart churn
//!
//! [`FleetConfig::restart_every`] tears each process down every k requests
//! and boots a fresh generation (new machine, new OS, new sampled SafeMem,
//! new server state) the way production fleets roll. Every process's leak
//! detector batches its check deadlines at epoch boundaries (see
//! `safemem_core::leak`), which is what keeps long horizons affordable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

use safemem_core::{MemTool, SafeMem, SamplingPlan};
use safemem_ecc::ControllerStats;
use safemem_os::{Os, OsConfig, SwapPolicy, PAGE_BYTES};
use safemem_workloads::apps::churn::CHURN_DEFAULT_REQUESTS;
use safemem_workloads::apps::{ChurnKind, ChurnLeak, ChurnSim};
use safemem_workloads::{Ctx, RunResult, Workload};

/// Default physical memory per process, in pages (128 KiB): ample for a
/// churn server's resident set.
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
    /// Physical memory of each process's machine, in pages.
    pub window_pages: u64,
    /// Whether the servers receive bug-triggering inputs.
    pub buggy: bool,
    /// Swap policy of every process's OS.
    pub swap_policy: SwapPolicy,
    /// Restart churn: tear the process down (drain, score, drop the OS
    /// and its machine) and boot a fresh generation — new machine, new OS,
    /// new sampled SafeMem, new server state — after every `k` served
    /// requests (None = one generation for the whole horizon). Each
    /// generation derives its own sampling seed; a process's detection flag
    /// is the OR over its generations and its false positives the sum.
    pub restart_every: Option<u64>,
    /// Has no effect: no part of a process's run depends on its pid.
    pub pid_base: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            requests: CHURN_DEFAULT_REQUESTS,
            window_pages: DEFAULT_WINDOW_PAGES,
            buggy: true,
            swap_policy: SwapPolicy::PinWatchedPages,
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
    /// Physical memory of one machine per process.
    pub shared_phys_bytes: u64,
    /// Machine clocks summed over every process generation, each read
    /// after the generation's last context switch: all of the processes'
    /// time plus the turn-boundary cache flushes.
    pub machine_cycles: u64,
    /// Sum of per-process CPU cycles (I/O wait and the turn-boundary
    /// flushes excluded).
    pub process_cycles: u64,
    /// Page faults summed over all processes.
    pub page_faults: u64,
    /// Swap-ins summed over all processes.
    pub swap_ins: u64,
    /// Swap-outs summed over all processes.
    pub swap_outs: u64,
    /// ECC controller counters summed over every process generation's
    /// machine.
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
}

/// Component-wise sum of ECC controller counters (the struct is plain
/// counters, so summing machines is addition).
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

/// What one process contributes to the report, summed over its
/// generations (one generation unless restart churn is on).
#[derive(Debug, Default)]
struct ProcessOutcome {
    detected: bool,
    false_positives: u64,
    sampled_allocs: u64,
    total_allocs: u64,
    cpu_cycles: u64,
    machine_cycles: u64,
    page_faults: u64,
    swap_ins: u64,
    swap_outs: u64,
    ecc: ControllerStats,
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

/// Runs one process from its first boot to its last generation's close.
fn run_process(spec: &ProcessSpec, config: &FleetConfig) -> ProcessOutcome {
    let generations = match config.restart_every {
        None => 1,
        Some(k) => config.requests.div_ceil(k.max(1)).max(1),
    };
    let mut outcome = ProcessOutcome::default();
    for generation in 0..generations {
        run_generation(spec, config, generation, &mut outcome);
    }
    outcome
}

/// Boots generation `generation` of a process on a fresh machine, serves
/// its requests one turn at a time, then drains, finishes and scores it and
/// folds the result into `outcome`. The boot, every request and the close
/// each end with a context switch, and the counters are read after the
/// last one.
fn run_generation(
    spec: &ProcessSpec,
    config: &FleetConfig,
    generation: u64,
    outcome: &mut ProcessOutcome,
) {
    let requests = generation_length(config, generation);
    let mut os = Os::new(OsConfig {
        phys_bytes: config.window_pages * PAGE_BYTES,
        swap_policy: config.swap_policy,
        ..OsConfig::default()
    });
    let mut tool = SafeMem::builder()
        .sampling(SamplingPlan::new(
            spec.sampling_ppm,
            generation_seed(spec.sampling_seed, generation),
        ))
        .build(&mut os);
    os.context_switch();
    let mut sim = ChurnSim::new(spec.kind, requests);
    for request in 0..requests {
        let mut ctx = Ctx::new(&mut os, &mut tool, sim.app_id(), spec.workload_seed);
        sim.step(&mut ctx, request, config.buggy);
        os.context_switch();
    }
    let mut ctx = Ctx::new(&mut os, &mut tool, sim.app_id(), spec.workload_seed);
    sim.drain(&mut ctx);
    tool.finish(&mut os);
    let scored = score(spec.kind, &os, &tool);
    os.context_switch();

    let vm = os.vm().stats();
    outcome.detected |= scored.detected;
    outcome.false_positives += scored.false_positives;
    outcome.sampled_allocs += scored.sampled_allocs;
    outcome.total_allocs += scored.total_allocs;
    outcome.cpu_cycles += os.cpu_cycles();
    outcome.machine_cycles += os.total_cycles();
    outcome.page_faults += vm.page_faults;
    outcome.swap_ins += vm.swap_ins;
    outcome.swap_outs += vm.swap_outs;
    add_controller_stats(&mut outcome.ecc, &os.machine().controller().stats());
}

/// Runs every process on `workers` scoped threads, each taking the next
/// unstarted pid from a shared cursor, and returns the outcomes in pid
/// order.
fn run_processes(
    specs: &[ProcessSpec],
    config: &FleetConfig,
    workers: usize,
) -> Vec<ProcessOutcome> {
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, ProcessOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(specs.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let pid = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(pid) else {
                            return done;
                        };
                        done.push((pid, run_process(spec, config)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(pid, _)| pid);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// A fleet: its process specs and fleet-wide knobs. Each process's machine
/// exists only while the process runs.
pub struct Fleet {
    config: FleetConfig,
    specs: Vec<ProcessSpec>,
}

impl Fleet {
    /// Validates a fleet and keeps its specs; the processes boot when the
    /// fleet runs.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or `config.window_pages` is zero.
    #[must_use]
    pub fn boot(specs: &[ProcessSpec], config: FleetConfig) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one process");
        assert!(config.window_pages > 0, "zero-page frame window");
        Fleet {
            config,
            specs: specs.to_vec(),
        }
    }

    /// Runs every process to completion, one after another on a single
    /// worker thread, and tallies the fleet.
    #[must_use]
    pub fn run(self) -> FleetReport {
        self.run_on(1)
    }

    /// Runs the fleet on `shards` worker threads, each process from start
    /// to finish as one work item. Processes share nothing, so the report
    /// is the same as `Fleet::boot(specs, config).run()` for every worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, `shards` is zero, or
    /// `config.window_pages` is zero.
    #[must_use]
    pub fn run_sharded(specs: &[ProcessSpec], config: FleetConfig, shards: usize) -> FleetReport {
        assert!(shards > 0, "a fleet needs at least one shard");
        Fleet::boot(specs, config).run_on(shards)
    }

    /// Runs the processes on `workers` threads and folds their outcomes in
    /// pid order.
    fn run_on(&self, workers: usize) -> FleetReport {
        let processes = self.specs.len() as u64;
        let mut report = FleetReport {
            processes,
            requests: self.config.requests,
            shared_phys_bytes: self.config.window_pages * PAGE_BYTES * processes,
            machine_cycles: 0,
            process_cycles: 0,
            page_faults: 0,
            swap_ins: 0,
            swap_outs: 0,
            ecc: ControllerStats::default(),
            tallies: Vec::new(),
            detected: Vec::with_capacity(self.specs.len()),
        };
        let outcomes = run_processes(&self.specs, &self.config, workers);
        for (spec, outcome) in self.specs.iter().zip(outcomes) {
            report.machine_cycles += outcome.machine_cycles;
            report.process_cycles += outcome.cpu_cycles;
            report.page_faults += outcome.page_faults;
            report.swap_ins += outcome.swap_ins;
            report.swap_outs += outcome.swap_outs;
            add_controller_stats(&mut report.ecc, &outcome.ecc);
            let name = kind_name(spec.kind);
            let tally = match report.tallies.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => t,
                None => {
                    report.tallies.push((name, KindTally::default()));
                    &mut report.tallies.last_mut().expect("just pushed").1
                }
            };
            tally.processes += 1;
            tally.detected += u64::from(outcome.detected);
            tally.false_positives += outcome.false_positives;
            tally.sampled_allocs += outcome.sampled_allocs;
            tally.total_allocs += outcome.total_allocs;
            report.detected.push(outcome.detected);
        }
        report
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
fn score(kind: ChurnKind, os: &Os, tool: &SafeMem) -> Outcome {
    let result = RunResult {
        cpu_cycles: os.cpu_cycles(),
        reports: tool.reports(),
        heap_stats: tool.heap().stats(),
    };
    let sampling = tool.sampling().unwrap_or_default();
    let truth = match kind {
        ChurnKind::Leak => ChurnLeak.true_leak_groups(),
        _ => Vec::new(),
    };
    let (detected, mut false_positives) = match kind {
        ChurnKind::Leak => (
            result.true_leaks(&truth) > 0,
            result.false_leaks(&truth) as u64,
        ),
        ChurnKind::UseAfterFree | ChurnKind::Overflow => (
            result.corruption_detected(),
            result.false_leaks(&truth) as u64,
        ),
    };
    if kind == ChurnKind::Leak && result.corruption_detected() {
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
            report.machine_cycles > report.process_cycles,
            "machine time adds the turn-boundary flushes to process time"
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
        // The worker count never reaches the report: every counter,
        // including cycle counts and ECC controller stats, not just the
        // detection flags.
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
    fn sharding_composes_under_restart_churn() {
        let specs = trio_specs(7);
        let config = FleetConfig {
            requests: 48,
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
    fn restart_churn_rolls_generations_without_false_positives() {
        // 192 requests with a restart every 96: two generations per
        // process, each as long as a default churn run. Each generation is
        // a fresh machine, OS and tool — no armed watch state may reach
        // the next generation as a false positive, and each generation's
        // planted bug is detectable on its
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
    fn five_hundred_twelve_processes_compose_at_scale() {
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
        // And eight workers produce the same report at scale.
        let sharded = Fleet::run_sharded(&specs, FleetConfig::default(), 8);
        assert_eq!(report, sharded);
    }

    #[test]
    #[ignore = "long-horizon smoke (10k+ requests with restart churn): run explicitly or via the CI fleet leg"]
    fn long_horizon_fleet_with_restart_churn() {
        use safemem_workloads::apps::churn::CHURN_LONG_HORIZON_REQUESTS;
        let specs = trio_specs(6);
        let config = FleetConfig {
            requests: CHURN_LONG_HORIZON_REQUESTS,
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
