//! `fleet`: the churn-server fleet at sampling rate 0.2. Phase A runs every
//! process on shared machines (`Fleet::boot` + `Fleet::run` inside
//! `run_fleet_sharded`); phase B replays SafeMem alone for each process.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use safemem_faultinject::spec::FLEET_REQUESTS;
use safemem_faultinject::{
    expand_fleet, fleet_process_specs, record_campaign_trace, render_fleet,
    replay_safemem_columnar_with, run_fleet_sharded, CampaignSpec, FleetAgg, FleetOutcome,
    GroundTruth, Injector, RecordedTrace, ToolScore, TraceKey, TraceMode,
};
use safemem_fleet::{Fleet, FleetConfig, ProcessSpec};
use safemem_workloads::ColumnarReplayer;

use crate::common::{median_time, Digest};
use crate::panel::{build_os, build_tool, traced_replay, unique_keys, REPLAY_SPAN};
use crate::trace::{Counters, Tracer};
use crate::{Batch, Check, Sim, Traced, Workload};

/// Processes per fleet: the campaign CLI's default fleet size.
const PROCESSES: u64 = 512;

/// Fleets per batch. Six fleets of 512 give the detection fraction 3072
/// processes' worth of samples while peak memory stays at one fleet's.
const FLEETS: u64 = 6;

/// Set-up repetitions per fleet (the batch reports their median).
const SETUP_REPS: usize = 3;

/// One process's isolated-cell reference: SafeMem's score through the
/// public `replay_safemem_columnar_with`, and the CPU cycles of the same
/// cell replayed uninstrumented.
struct CellRef {
    truth: GroundTruth,
    score: ToolScore,
    none_cycles: u64,
}

/// The fleet workload for one benchmark seed.
pub struct FleetWorkload {
    /// First campaign seed per fleet: process `pid` of fleet `f` has
    /// campaign seed `(seed*6 + f)*512 + pid`.
    seed0s: Vec<u64>,
    /// Per-fleet, per-process references, computed once before timing.
    refs: Vec<Vec<CellRef>>,
    /// The last untraced batch's outcomes, the traced run's reference.
    last: Vec<FleetOutcome>,
}

/// Records each unique trace of `specs` once.
fn record_unique(specs: &[CampaignSpec]) -> Result<HashMap<TraceKey, RecordedTrace>, String> {
    unique_keys(specs)
        .into_iter()
        .map(|spec| {
            Ok((
                TraceKey::of(spec),
                record_campaign_trace(spec).map_err(|e| e.0)?,
            ))
        })
        .collect()
}

/// The phase-A configuration `run_fleet_sharded` derives from its cells.
fn fleet_config(specs: &[CampaignSpec]) -> FleetConfig {
    FleetConfig {
        requests: specs[0].requests.unwrap_or(FLEET_REQUESTS),
        ..FleetConfig::default()
    }
}

/// Contiguous balanced shard ranges, as `Fleet::run_sharded` cuts them.
fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, n);
    let (per, extra) = (n / shards, n % shards);
    let mut start = 0;
    (0..shards)
        .map(|s| {
            let len = per + usize::from(s < extra);
            start += len;
            start - len..start
        })
        .collect()
}

impl FleetWorkload {
    /// Expands the fleets for `seed` and computes every process's
    /// isolated-cell reference.
    ///
    /// # Errors
    ///
    /// Returns the first campaign error.
    pub fn new(seed: u64) -> Result<Self, String> {
        let seed0s: Vec<u64> = (0..FLEETS)
            .map(|f| {
                seed.wrapping_mul(FLEETS)
                    .wrapping_add(f)
                    .wrapping_mul(PROCESSES)
            })
            .collect();
        let fleets = seed0s
            .iter()
            .map(|&seed0| expand_fleet(PROCESSES, seed0, None).map_err(|e| e.0))
            .collect::<Result<Vec<_>, String>>()?;
        let traces = record_unique(&fleets[0])?;
        let mut replayer = ColumnarReplayer::new();
        let mut refs = Vec::with_capacity(fleets.len());
        for specs in &fleets {
            let mut cells = Vec::with_capacity(specs.len());
            for spec in specs {
                let rec = &traces[&TraceKey::of(spec)];
                let (truth, score) =
                    replay_safemem_columnar_with(spec, rec, &mut replayer).map_err(|e| e.0)?;
                let mut os = build_os(spec);
                let inner = build_tool("none", spec, &mut os);
                let mut injector = Injector::new(inner, spec.mix, spec.seed);
                let none = replayer.replay(&rec.columnar, &mut os, &mut injector);
                cells.push(CellRef {
                    truth,
                    score,
                    none_cycles: none.cpu_cycles,
                });
            }
            refs.push(cells);
        }
        Ok(FleetWorkload {
            seed0s,
            refs,
            last: Vec::new(),
        })
    }
}

impl Workload for FleetWorkload {
    fn describe(&self) -> String {
        format!(
            "{} cells per batch: {FLEETS} fleets x {PROCESSES} churn-server processes at sampling rate 0.2, \
             phase A on shared machines, phase B replaying SafeMem alone per process",
            FLEETS * PROCESSES
        )
    }

    fn batch(&mut self, workers: usize) -> Result<Batch, String> {
        let mut setup = Duration::ZERO;
        let mut wall = Duration::ZERO;
        let (mut busy, mut capacity) = (0.0, 0.0);
        let mut sim = Sim::default();
        let mut failed = 0u64;
        let mut digest = Digest::default();
        let mut checks = Vec::new();
        self.last.clear();
        for (f, refs) in self.refs.iter().enumerate() {
            // Set-up, timed on its own: spec expansion, recording and
            // flattening the three churn traces, and booting each phase-A
            // shard. `run_fleet_sharded` repeats this work inside its call.
            let seed0 = self.seed0s[f];
            setup += median_time(SETUP_REPS, || {
                let specs = expand_fleet(PROCESSES, seed0, None).map_err(|e| e.0)?;
                let procs: Vec<ProcessSpec> = fleet_process_specs(&specs).map_err(|e| e.0)?;
                std::hint::black_box(record_unique(&specs)?);
                let config = fleet_config(&specs);
                for range in shard_ranges(procs.len(), workers) {
                    let shard = FleetConfig {
                        pid_base: range.start as u64,
                        ..config
                    };
                    std::hint::black_box(Fleet::boot(&procs[range], shard));
                }
                Ok(())
            })?;

            let specs = expand_fleet(PROCESSES, seed0, None).map_err(|e| e.0)?;
            let t1 = Instant::now();
            let outcome = run_fleet_sharded(&specs, workers, workers, TraceMode::Memoized)
                .map_err(|e| e.0)?;
            wall += t1.elapsed();

            let phase_b = outcome.wall.saturating_sub(outcome.boot_wall).as_secs_f64();
            busy += outcome
                .workers
                .iter()
                .map(|w| w.busy.as_secs_f64())
                .sum::<f64>();
            capacity += outcome.threads as f64 * phase_b;

            // Cross-check the public fold against the isolated-cell
            // references, and score each process.
            let mut agg = FleetAgg::new(outcome.agg.rate_ppm);
            let mut cell_failures = 0u64;
            for (pid, (spec, r)) in specs.iter().zip(refs).enumerate() {
                let shared = outcome.shared.detected[pid];
                agg.fold(spec, &r.truth, &r.score, shared)
                    .map_err(|e| e.0)?;
                let detected = if r.truth.expects_corruption {
                    r.score.corruption_found
                } else {
                    r.score.leaks_found == r.truth.leak_groups.len()
                };
                let ab_ok = !r.truth.expects_corruption || detected == shared;
                cell_failures += u64::from(
                    r.score.false_positives() > 0 || r.score.hardware_panics > 0 || !ab_ok,
                );
                sim.tool_cycles += r.score.cpu_cycles;
                sim.base_cycles += r.none_cycles;
                sim.waste += r.score.heap_stats.cumulative_waste;
                sim.payload += r.score.heap_stats.cumulative_payload;
            }
            let fleet_ok = outcome.agg.invariants_hold() && outcome.shared.false_positives() == 0;
            failed += if fleet_ok {
                cell_failures
            } else {
                specs.len() as u64
            };
            sim.planted += outcome.agg.cells;
            sim.detected += outcome.agg.classes.iter().map(|c| c.detected).sum::<u64>();
            sim.false_positives += outcome.agg.false_positives + outcome.shared.false_positives();
            checks.push(Check::new(
                format!(
                    "fleet {f}: zero false positives, per-class detection inside the 6-sigma band, \
                     A/B agreement {}/{}",
                    outcome.agg.ab_agreed, outcome.agg.ab_checked
                ),
                fleet_ok && cell_failures == 0,
            ));
            checks.push(Check::new(
                format!("fleet {f}: public phase-B fold equals the isolated-cell references"),
                agg == outcome.agg,
            ));
            digest.write(&render_fleet(&outcome));
            digest.write(&format!("{:?}{:?}", outcome.shared, outcome.agg));
            self.last.push(outcome);
        }
        Ok(Batch {
            cells: FLEETS * PROCESSES,
            failed,
            setup,
            wall,
            idle_frac: Some(1.0 - busy / capacity),
            digest: digest.value(),
            sim,
            checks,
        })
    }

    fn traced(&self) -> Result<Traced, String> {
        if self.last.len() != self.seed0s.len() {
            return Err("traced run needs an untraced batch first".into());
        }
        let mut tr = Tracer::new();
        let mut counters = Counters::default();
        let mut replayer = ColumnarReplayer::new();
        let (mut turns, mut ecc_verified, mut recordings) = (0u64, 0u64, 0usize);
        let mut mismatches = 0u64;
        let mut failed = 0u64;
        let mut checks = Vec::new();
        for (f, refs) in self.refs.iter().enumerate() {
            let s = tr.begin("faultinject.expand_fleet", "", None);
            let specs = expand_fleet(PROCESSES, self.seed0s[f], None).map_err(|e| e.0)?;
            let procs = fleet_process_specs(&specs).map_err(|e| e.0)?;
            tr.end(s);

            let config = fleet_config(&specs);
            let b = tr.begin("fleet.Fleet::boot", "", None);
            let fleet = Fleet::boot(&procs, config);
            tr.end(b);
            let r = tr.begin("fleet.Fleet::run", "", None);
            let report = fleet.run();
            tr.end(r);
            tr.count(
                r,
                vec![
                    ("fleet.machine_cycles", report.machine_cycles),
                    ("fleet.ecc_verified", report.ecc.groups_verified),
                    ("fleet.page_faults", report.page_faults),
                ],
            );
            turns += report.processes * (config.requests + 1);
            ecc_verified += report.ecc.groups_verified;
            checks.push(Check::new(
                format!("traced fidelity: fleet {f} phase A by separate boot and run equals run_fleet_sharded's report"),
                report == self.last[f].shared,
            ));

            let mut traces = HashMap::new();
            for spec in unique_keys(&specs) {
                let s = tr.begin("faultinject.record_campaign_trace", "", None);
                let rec = record_campaign_trace(spec).map_err(|e| e.0)?;
                tr.end(s);
                traces.insert(TraceKey::of(spec), rec);
            }
            recordings += traces.len();

            for (pid, (spec, want)) in specs.iter().zip(refs).enumerate() {
                let id = Some((f as u64) * PROCESSES + pid as u64);
                let rec = &traces[&TraceKey::of(spec)];
                let c = tr.begin("faultinject.cell", "", id);
                let (os, result) = traced_replay(
                    &mut tr,
                    &mut counters,
                    &mut replayer,
                    "safemem",
                    spec,
                    rec,
                    id,
                );
                tr.end(c);
                let same = want.score.cpu_cycles == result.cpu_cycles
                    && want.score.controller == os.machine().controller().stats()
                    && want.score.heap_stats == result.heap_stats;
                mismatches += u64::from(!same);
                failed += u64::from(!same);
            }
        }
        tr.finish();

        let cells = FLEETS * PROCESSES;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let run = tr.total("fleet.Fleet::run", None);
        let mut layers = crate::common_layers(&counters);
        layers.insert(
            "faultinject.record_ms",
            ms(tr.total("faultinject.record_campaign_trace", None)),
        );
        layers.insert(
            "faultinject.cells_per_trace",
            cells as f64 / recordings as f64,
        );
        layers.insert(
            "workloads.trace_ops",
            counters.get("workloads.trace_ops").unwrap_or(0) as f64,
        );
        layers.insert("os.build_ms", ms(tr.total("os.build", None)));
        layers.insert("fleet.boot_ms", ms(tr.total("fleet.Fleet::boot", None)));
        layers.insert("fleet.run_ms", ms(run));
        layers.insert("fleet.turns", turns as f64);
        layers.insert("fleet.ns_per_turn", run.as_secs_f64() * 1e9 / turns as f64);
        layers.insert(
            "fleet.replay_safemem_ms",
            ms(tr.total(REPLAY_SPAN, Some("safemem"))),
        );
        layers.insert("fleet.ecc_verified", ecc_verified as f64);
        checks.push(Check::new(
            format!(
                "traced fidelity: hand-built SafeMem matches replay_safemem_columnar_with on cpu_cycles, ControllerStats and HeapStats for {}/{cells} processes",
                cells - mismatches
            ),
            mismatches == 0,
        ));
        Ok(Traced {
            tracer: tr,
            layers,
            cells,
            failed,
            checks,
        })
    }

    fn notes(&self) -> Vec<String> {
        self.last
            .iter()
            .enumerate()
            .map(|(f, o)| {
                let per_class: Vec<String> = o
                    .agg
                    .classes
                    .iter()
                    .map(|c| format!("{}/{}", c.detected, c.cells))
                    .collect();
                format!(
                    "fleet {f}: processes {} detected per class (leak, uaf, obo) {}; phase A {:.1} ms of {:.1} ms",
                    o.processes,
                    per_class.join(", "),
                    o.boot_wall.as_secs_f64() * 1e3,
                    o.wall.as_secs_f64() * 1e3
                )
            })
            .collect()
    }
}
