//! Connection-churn server workloads for the fleet simulation.
//!
//! The fleet preset (see `safemem-fleet` and the `fleet` campaign preset)
//! models the paper's production-run story at GWP-ASan scale: hundreds of
//! processes, each a connection-churning server whose per-allocation
//! sampling makes individual detection unlikely but fleet-level detection
//! near-certain. These workloads are the per-process programs of that
//! story: a steady stream of short-lived connection buffers with bounded
//! lifetimes, plus exactly one planted bug per buggy run.
//!
//! | name         | planted bug                                | class |
//! |--------------|--------------------------------------------|-------|
//! | `churn-leak` | one connection dropped without `free`      | SLeak |
//! | `churn-uaf`  | read of a freed victim buffer              | UAF   |
//! | `churn-obo`  | one-byte write at `victim[len]`            | overflow |
//!
//! Unlike the Table 1 and CVE families, the request loop is exposed as a
//! steppable [`ChurnSim`] so the fleet can serve one request per scheduler
//! turn, with a context switch between turns, while `Workload::run` remains
//! the single-process reference (and the trace-recording path). The step
//! function is a pure function of `(kind, request, buggy)` — it never draws
//! from `Ctx::rand` — so a fleet turn sequence and a solo run issue
//! byte-identical op streams.

use crate::driver::{group_of, AppSpec, BugClass, Ctx, InputMode, RunConfig, Workload};
use safemem_core::{GroupKey, MemTool};
use safemem_os::Os;

const LEAK_APP_ID: u64 = 13;
const UAF_APP_ID: u64 = 14;
const OBO_APP_ID: u64 = 15;

/// Allocation site of the connection buffers.
const SITE_CONN: u64 = 1;
/// Allocation site of the corruption victim buffer (uaf/obo kinds).
const SITE_VICTIM: u64 = 2;
/// Connection buffer size.
const CONN_SIZE: u64 = 128;
/// Victim buffer size.
const VICTIM_SIZE: u64 = 128;
/// The request on which `churn-leak` drops its connection (early, so the
/// leak's idle time crosses the SLeak report threshold well before the run
/// ends).
const LEAK_PLANT_REQUEST: u64 = 8;

/// Which churn workload a [`ChurnSim`] is simulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// One connection leaks (dropped without free).
    Leak,
    /// A freed victim buffer is read.
    UseAfterFree,
    /// A one-byte overflow past a victim buffer.
    Overflow,
}

impl ChurnKind {
    fn app_id(self) -> u64 {
        match self {
            ChurnKind::Leak => LEAK_APP_ID,
            ChurnKind::UseAfterFree => UAF_APP_ID,
            ChurnKind::Overflow => OBO_APP_ID,
        }
    }
}

/// The steppable connection-churn state machine: open connections with
/// bounded lifetimes (3–6 requests) plus the planted-bug schedule.
///
/// One request ≈ 0.65 M simulated cycles, so the default 96-request run
/// gives the SLeak detector its stability window, suspicion point, and the
/// full `report_after` idle period with room to spare.
#[derive(Debug)]
pub struct ChurnSim {
    kind: ChurnKind,
    requests: u64,
    /// Open connections: (payload address, request after which it closes).
    conns: Vec<(u64, u64)>,
}

impl ChurnSim {
    /// A fresh simulation of `kind` scheduled for `requests` requests.
    #[must_use]
    pub fn new(kind: ChurnKind, requests: u64) -> Self {
        ChurnSim {
            kind,
            requests,
            conns: Vec::new(),
        }
    }

    /// The app id the simulation's `Ctx` must be created with.
    #[must_use]
    pub fn app_id(&self) -> u64 {
        self.kind.app_id()
    }

    /// Serves one request: accept a connection, do protocol work, retire
    /// expired connections, and (in buggy mode, at this kind's scheduled
    /// request) trigger the planted bug. Deterministic in
    /// `(kind, requests, request, buggy)` — no RNG draws.
    pub fn step(&mut self, ctx: &mut Ctx<'_>, request: u64, buggy: bool) {
        ctx.io(20_000);
        let conn = ctx.alloc(SITE_CONN, CONN_SIZE);
        ctx.fill(conn, CONN_SIZE as usize, 0xB0);
        let close_after = request + 3 + (request % 4);
        if buggy && self.kind == ChurnKind::Leak && request == LEAK_PLANT_REQUEST {
            // The handler loses its last pointer to this connection: it
            // stays allocated forever while its group's other members keep
            // their 3–6 request lifetimes — the SLeak shape.
            ctx.work(2_000, 200);
        } else {
            self.conns.push((conn, close_after));
        }
        ctx.work(300_000, 80);
        ctx.touch(conn, 32);

        if buggy && request == self.requests / 2 {
            match self.kind {
                ChurnKind::UseAfterFree => {
                    let victim = ctx.alloc(SITE_VICTIM, VICTIM_SIZE);
                    ctx.fill(victim, VICTIM_SIZE as usize, 0xC3);
                    ctx.free(victim);
                    // A stale completion callback reads the freed buffer.
                    ctx.touch(victim + 16, 8);
                }
                ChurnKind::Overflow => {
                    let victim = ctx.alloc(SITE_VICTIM, VICTIM_SIZE);
                    // Unchecked copy length: the NUL terminator lands at
                    // victim[len], one byte past the buffer. The overrun is
                    // one fill starting *inside* the buffer (tar's idiom)
                    // so a recorded trace keeps it attributed to `victim` —
                    // a write starting past the end has no stable identity
                    // under replay.
                    ctx.fill(victim, VICTIM_SIZE as usize + 1, 0x5A);
                    ctx.touch(victim, 16);
                    ctx.free(victim);
                }
                ChurnKind::Leak => {}
            }
        }

        // Retire connections whose lifetime expired this request.
        let mut expired = Vec::new();
        self.conns.retain(|&(addr, close_after)| {
            if close_after <= request {
                expired.push(addr);
                false
            } else {
                true
            }
        });
        for addr in expired {
            ctx.touch(addr, 16);
            ctx.free(addr);
        }
        ctx.work(300_000, 80);
        ctx.io(15_000);
    }

    /// Server shutdown: close every still-open connection (the leaked one is
    /// no longer reachable and stays allocated).
    pub fn drain(&mut self, ctx: &mut Ctx<'_>) {
        for (addr, _) in std::mem::take(&mut self.conns) {
            ctx.free(addr);
        }
    }
}

fn run_churn(
    kind: ChurnKind,
    default_requests: u64,
    os: &mut Os,
    tool: &mut dyn MemTool,
    cfg: &RunConfig,
) {
    let requests = cfg.requests.unwrap_or(default_requests);
    let mut sim = ChurnSim::new(kind, requests);
    let mut ctx = Ctx::new(os, tool, sim.app_id(), cfg.seed);
    let buggy = cfg.input == InputMode::Buggy;
    for request in 0..requests {
        sim.step(&mut ctx, request, buggy);
    }
    sim.drain(&mut ctx);
}

/// Request count for a representative churn run: long enough for the SLeak
/// heuristic to suspect, watch, and report the planted leak.
pub const CHURN_DEFAULT_REQUESTS: u64 = 96;

/// Request count for a long-horizon churn run: the slow-leak deployments
/// the paper targets, where the planted bug is a needle in tens of
/// thousands of requests and epoch-batched leak checks keep the check cost
/// amortized. Connections live at most a handful of requests, so the
/// resident set — and the wall cost per request — stays flat no matter how
/// far the horizon stretches.
pub const CHURN_LONG_HORIZON_REQUESTS: u64 = 10_000;

/// `churn-leak`: a connection server that drops one connection buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnLeak;

impl Workload for ChurnLeak {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "churn-leak",
            loc: 1100,
            description: "fleet churn server: one dropped connection (SLeak)",
            bug: BugClass::SLeak,
        }
    }

    fn default_requests(&self) -> u64 {
        CHURN_DEFAULT_REQUESTS
    }

    fn true_leak_groups(&self) -> Vec<GroupKey> {
        vec![group_of(LEAK_APP_ID, SITE_CONN, CONN_SIZE)]
    }

    fn run(&self, os: &mut Os, tool: &mut dyn MemTool, cfg: &RunConfig) {
        run_churn(ChurnKind::Leak, self.default_requests(), os, tool, cfg);
    }
}

/// `churn-uaf`: a connection server whose completion path reads a freed
/// victim buffer once.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnUaf;

impl Workload for ChurnUaf {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "churn-uaf",
            loc: 1100,
            description: "fleet churn server: stale read of a freed buffer",
            bug: BugClass::UseAfterFree,
        }
    }

    fn default_requests(&self) -> u64 {
        CHURN_DEFAULT_REQUESTS
    }

    fn true_leak_groups(&self) -> Vec<GroupKey> {
        Vec::new()
    }

    fn records_freed_accesses(&self) -> bool {
        true
    }

    fn run(&self, os: &mut Os, tool: &mut dyn MemTool, cfg: &RunConfig) {
        run_churn(
            ChurnKind::UseAfterFree,
            self.default_requests(),
            os,
            tool,
            cfg,
        );
    }
}

/// `churn-obo`: a connection server that writes one byte past a victim
/// buffer once.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnObo;

impl Workload for ChurnObo {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "churn-obo",
            loc: 1100,
            description: "fleet churn server: one-byte overflow past a buffer",
            bug: BugClass::Overflow,
        }
    }

    fn default_requests(&self) -> u64 {
        CHURN_DEFAULT_REQUESTS
    }

    fn true_leak_groups(&self) -> Vec<GroupKey> {
        Vec::new()
    }

    fn run(&self, os: &mut Os, tool: &mut dyn MemTool, cfg: &RunConfig) {
        run_churn(ChurnKind::Overflow, self.default_requests(), os, tool, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_under;
    use safemem_core::{SafeMem, SamplingPlan};

    fn buggy(requests: u64) -> RunConfig {
        RunConfig {
            input: InputMode::Buggy,
            requests: Some(requests),
            ..RunConfig::default()
        }
    }

    #[test]
    fn churn_leak_is_detected_at_default_scale() {
        let mut os = Os::with_defaults(1 << 24);
        let mut tool = SafeMem::builder().build(&mut os);
        let result = run_under(
            &ChurnLeak,
            &mut os,
            &mut tool,
            &buggy(CHURN_DEFAULT_REQUESTS),
        );
        assert_eq!(
            result.true_leaks(&ChurnLeak.true_leak_groups()),
            1,
            "planted leak reported: {:?}",
            result.reports
        );
        assert_eq!(result.false_leaks(&ChurnLeak.true_leak_groups()), 0);
        assert!(!result.corruption_detected());
    }

    #[test]
    fn churn_uaf_and_obo_are_detected() {
        for w in [&ChurnUaf as &dyn Workload, &ChurnObo] {
            let mut os = Os::with_defaults(1 << 24);
            let mut tool = SafeMem::builder().leak_detection(false).build(&mut os);
            let result = run_under(w, &mut os, &mut tool, &buggy(48));
            assert!(
                result.corruption_detected(),
                "{}: {:?}",
                w.spec().name,
                result.reports
            );
        }
    }

    #[test]
    fn normal_inputs_are_silent() {
        for w in [&ChurnLeak as &dyn Workload, &ChurnUaf, &ChurnObo] {
            let mut os = Os::with_defaults(1 << 24);
            let mut tool = SafeMem::builder().build(&mut os);
            let cfg = RunConfig {
                requests: Some(CHURN_DEFAULT_REQUESTS),
                ..RunConfig::default()
            };
            let result = run_under(w, &mut os, &mut tool, &cfg);
            assert!(
                result.reports.is_empty(),
                "{}: {:?}",
                w.spec().name,
                result.reports
            );
        }
    }

    #[test]
    fn step_sequence_matches_workload_run() {
        // The steppable path the fleet scheduler drives must replay the
        // exact program `Workload::run` defines.
        let solo = {
            let mut os = Os::with_defaults(1 << 24);
            let mut tool = SafeMem::builder().build(&mut os);
            run_under(&ChurnUaf, &mut os, &mut tool, &buggy(48))
        };
        let stepped = {
            let mut os = Os::with_defaults(1 << 24);
            let mut tool = SafeMem::builder().build(&mut os);
            let mut sim = ChurnSim::new(ChurnKind::UseAfterFree, 48);
            for request in 0..48 {
                let mut ctx = Ctx::new(&mut os, &mut tool, sim.app_id(), RunConfig::default().seed);
                sim.step(&mut ctx, request, true);
            }
            let mut ctx = Ctx::new(&mut os, &mut tool, sim.app_id(), RunConfig::default().seed);
            sim.drain(&mut ctx);
            tool.finish(&mut os);
            crate::driver::RunResult {
                cpu_cycles: os.cpu_cycles(),
                reports: tool.reports(),
                heap_stats: tool.heap().stats(),
            }
        };
        assert_eq!(solo, stepped);
    }

    #[test]
    fn long_horizon_churn_detects_and_stays_silent() {
        // 10k requests: the planted leak is still reported (the SLeak
        // heuristic's thresholds are lifetime-based, not horizon-based) and
        // nothing else is — a bounded resident set over a long horizon must
        // not accrete false suspects.
        let mut os = Os::with_defaults(1 << 24);
        let mut tool = SafeMem::builder().build(&mut os);
        let result = run_under(
            &ChurnLeak,
            &mut os,
            &mut tool,
            &buggy(CHURN_LONG_HORIZON_REQUESTS),
        );
        assert_eq!(result.true_leaks(&ChurnLeak.true_leak_groups()), 1);
        assert_eq!(result.false_leaks(&ChurnLeak.true_leak_groups()), 0);
        assert!(!result.corruption_detected());
    }

    #[test]
    fn detection_follows_the_sampling_decision() {
        // Sub-1.0 sampling: the uaf fires iff the victim allocation drew
        // instrumentation — scan seeds for one of each outcome and check
        // detection matches exactly.
        let mut caught = 0usize;
        let mut missed = 0usize;
        for seed in 0..12u64 {
            let mut os = Os::with_defaults(1 << 24);
            let mut tool = SafeMem::builder()
                .leak_detection(false)
                .sampling(SamplingPlan::new(200_000, seed))
                .build(&mut os);
            let result = run_under(&ChurnUaf, &mut os, &mut tool, &buggy(48));
            if result.corruption_detected() {
                caught += 1;
            } else {
                missed += 1;
            }
        }
        assert!(caught > 0, "some seed samples the victim");
        assert!(missed > 0, "some seed skips the victim");
    }
}
