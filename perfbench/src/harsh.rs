//! `harsh`: the acceptance-gate matrix. The five trace-faithful Table 1
//! apps replayed through the whole five-tool panel under correctable-only
//! injection with 250k-cycle scrubs (`CampaignSpec::harsh`).

use std::collections::HashMap;
use std::time::Instant;

use safemem_faultinject::spec::PRESET_WORKLOADS;
use safemem_faultinject::{
    expand_matrix, record_campaign_trace, render_aggregate, run_matrix, CampaignSpec, MatrixReport,
    RecordedTrace, TraceKey, PANEL,
};
use safemem_workloads::ColumnarReplayer;

use crate::common::{median_time, Digest};
use crate::panel::{traced_replay, unique_keys, REPLAY_SPAN};
use crate::trace::{Counters, Tracer};
use crate::{Batch, Check, Sim, Traced, Workload};

/// Campaign seeds per batch: 8 seeds x 5 apps = 40 cells.
const SEEDS: u64 = 8;

/// Set-up repetitions per batch (the batch reports their median).
const SETUP_REPS: usize = 3;

/// The harsh workload for one benchmark seed.
pub struct Harsh {
    seed0: u64,
    workloads: Vec<String>,
    /// The last untraced batch's results, the traced run's reference.
    last: Option<MatrixReport>,
}

impl Harsh {
    /// Benchmark seed `seed` runs campaign seeds `seed*8 .. seed*8+8`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Harsh {
            seed0: seed.wrapping_mul(SEEDS),
            workloads: PRESET_WORKLOADS.iter().map(|w| (*w).to_string()).collect(),
            last: None,
        }
    }

    fn specs(&self) -> Result<Vec<CampaignSpec>, String> {
        expand_matrix("harsh", &self.workloads, SEEDS, self.seed0, None).map_err(|e| e.0)
    }
}

impl Workload for Harsh {
    fn describe(&self) -> String {
        format!(
            "{} cells per batch: campaign seeds {}..{} x {} apps ({}), each replayed through the {}-tool panel",
            SEEDS * self.workloads.len() as u64,
            self.seed0,
            self.seed0 + SEEDS,
            self.workloads.len(),
            self.workloads.join(","),
            PANEL.len()
        )
    }

    fn batch(&mut self, workers: usize) -> Result<Batch, String> {
        // Set-up, timed on its own: spec expansion plus recording and
        // flattening each unique trace. `run_matrix` repeats this work
        // inside its own timed call.
        let setup = median_time(SETUP_REPS, || {
            let specs = self.specs()?;
            for spec in unique_keys(&specs) {
                std::hint::black_box(record_campaign_trace(spec).map_err(|e| e.0)?);
            }
            Ok(())
        })?;

        let specs = self.specs()?;
        let t1 = Instant::now();
        let report = run_matrix(&specs, workers).map_err(|e| e.0)?;
        let wall = t1.elapsed();

        let busy: f64 = report.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        let idle_frac = 1.0 - busy / (report.threads as f64 * report.wall.as_secs_f64());

        let mut sim = Sim::default();
        let mut failed = 0;
        for r in &report.results {
            let safemem = r.tool("safemem").ok_or("panel lacks safemem")?;
            let none = r.tool("none").ok_or("panel lacks none")?;
            sim.tool_cycles += safemem.cpu_cycles;
            sim.base_cycles += none.cpu_cycles;
            sim.waste += safemem.heap_stats.cumulative_waste;
            sim.payload += safemem.heap_stats.cumulative_payload;
            sim.planted += r.truth.leak_groups.len() as u64 + u64::from(r.truth.expects_corruption);
            sim.detected += safemem.leaks_found as u64 + u64::from(safemem.corruption_found);
            sim.false_positives += safemem.false_positives();
            failed += u64::from(!r.harsh_invariant_holds());
        }
        let mut digest = Digest::default();
        digest.write(&render_aggregate(&report.results));
        digest.write(&format!("{:?}", report.results));
        let cells = report.results.len() as u64;
        let checks = vec![Check::new(
            format!("harsh invariant (zero SafeMem false positives, every planted bug found) on {}/{cells} cells", cells - failed),
            failed == 0,
        )];
        self.last = Some(report);
        Ok(Batch {
            cells,
            failed,
            setup,
            wall,
            idle_frac: Some(idle_frac),
            digest: digest.value(),
            sim,
            checks,
        })
    }

    fn traced(&self) -> Result<Traced, String> {
        let reference = self
            .last
            .as_ref()
            .ok_or("traced run needs an untraced batch first")?;
        let mut tr = Tracer::new();
        let mut counters = Counters::default();

        let s = tr.begin("faultinject.expand_matrix", "", None);
        let specs = self.specs()?;
        tr.end(s);

        let mut traces: HashMap<TraceKey, RecordedTrace> = HashMap::new();
        for spec in unique_keys(&specs) {
            let s = tr.begin("faultinject.record_campaign_trace", "", None);
            let rec = record_campaign_trace(spec).map_err(|e| e.0)?;
            tr.end(s);
            tr.count(
                s,
                vec![("workloads.recorded_ops", rec.columnar.len() as u64)],
            );
            traces.insert(TraceKey::of(spec), rec);
        }

        let mut replayer = ColumnarReplayer::new();
        let mut mismatches = 0u64;
        let mut failed = 0u64;
        for (cell, spec) in specs.iter().enumerate() {
            let id = Some(cell as u64);
            let rec = &traces[&TraceKey::of(spec)];
            let want = &reference.results[cell];
            let c = tr.begin("faultinject.cell", "", id);
            let mut cell_ok = true;
            for &tool in PANEL {
                let (os, result) =
                    traced_replay(&mut tr, &mut counters, &mut replayer, tool, spec, rec, id);
                let score = want.tool(tool).ok_or("reference lacks a panel tool")?;
                if score.cpu_cycles != result.cpu_cycles
                    || score.controller != os.machine().controller().stats()
                {
                    mismatches += 1;
                    cell_ok = false;
                }
            }
            tr.end(c);
            failed += u64::from(!cell_ok || !want.harsh_invariant_holds());
        }
        tr.finish();

        let runs = (specs.len() * PANEL.len()) as u64;
        let none = tr.total(REPLAY_SPAN, Some("none"));
        let replay = |tool: &str| tr.total(REPLAY_SPAN, Some(tool));
        let mut layers = crate::common_layers(&counters);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let ops = counters.get("workloads.trace_ops").unwrap_or(0) / PANEL.len() as u64;
        layers.insert(
            "faultinject.record_ms",
            ms(tr.total("faultinject.record_campaign_trace", None)),
        );
        layers.insert(
            "faultinject.cells_per_trace",
            specs.len() as f64 / traces.len() as f64,
        );
        layers.insert("workloads.replay_none_ms", ms(none));
        layers.insert("workloads.trace_ops", ops as f64);
        layers.insert(
            "workloads.replay_ns_per_op",
            none.as_secs_f64() * 1e9 / ops.max(1) as f64,
        );
        layers.insert("core.replay_safemem_ms", ms(replay("safemem")) - ms(none));
        layers.insert("baselines.replay_purify_ms", ms(replay("purify")));
        layers.insert("baselines.replay_memcheck_ms", ms(replay("memcheck")));
        layers.insert("baselines.replay_pageguard_ms", ms(replay("pageguard")));
        layers.insert("os.build_ms", ms(tr.total("os.build", None)));
        let checks = vec![Check::new(
            format!("traced fidelity: hand-built panel matches replay_panel_columnar_with on cpu_cycles and ControllerStats for {}/{runs} tool runs", runs - mismatches),
            mismatches == 0,
        )];
        Ok(Traced {
            tracer: tr,
            layers,
            cells: specs.len() as u64,
            failed,
            checks,
        })
    }
}
