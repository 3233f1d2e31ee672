//! The rate × fleet-size sweep: locating the knee of fleet-level
//! detection.
//!
//! GWP-ASan's deployment math says a fleet of `n` processes each sampling
//! at rate `r` catches a planted bug with probability `1 − (1 − r)^n` —
//! so there is a *knee* in the (r, n) surface: for every rate there is a
//! smallest fleet size past which detection is effectively certain, and
//! shrinking the rate just slides the knee to larger fleets. The sweep
//! measures that surface empirically: it grids sampling rate × fleet size
//! over **shared recorded traces** (the [`TraceKey`](crate::TraceKey)
//! excludes the sampling rate, so three recorded churn traces serve every
//! grid cell), replays each (rate, process) cell once under SafeMem on the
//! shared record/replay/fold core ([`runner`](crate::runner)), and scores
//! each grid point's observed fleet-level detection against the prediction
//! with the same 6σ binomial band the fleet campaign uses.
//!
//! Fleet sizes are *prefixes* of one expansion: process `pid` runs the same
//! spec at every size ([`expand_fleet`] keys each pid's spec on `seed0 +
//! pid` independent of the fleet size), so a size-`n` grid point scores the
//! first `n` per-process outcomes of the size-`n_max` replay — every cell
//! is replayed exactly once for the whole sweep.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use safemem_core::PPM;

use crate::corpus::TraceCorpus;
use crate::fleet::{detects, expand_fleet, kind_of};
use crate::oracle::{replay_safemem_columnar_with, CampaignError};
use crate::runner::{run_cells, TraceMode};
use crate::spec::CampaignSpec;

/// Default sampling-rate axis, parts-per-million: 1% to 50%.
pub const SWEEP_RATES_PPM: [u32; 5] = [10_000, 50_000, 100_000, 200_000, 500_000];

/// Default fleet-size axis.
pub const SWEEP_FLEET_SIZES: [u64; 5] = [4, 16, 64, 256, 512];

/// Fleet-level detection probability a grid point must reach to count as
/// past the knee.
pub const SWEEP_DETECTION_TARGET: f64 = 0.9;

/// Sweep shape: the two axes, the trace horizon, and the knee target.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Campaign seed of process 0 (process `pid` uses `seed0 + pid`).
    pub seed0: u64,
    /// Requests per churn process (None = the fleet preset default).
    pub requests: Option<u64>,
    /// Sampling-rate axis, parts-per-million, in render order.
    pub rates_ppm: Vec<u32>,
    /// Fleet-size axis, in render order. The largest size bounds the
    /// replay work: every rate replays that many cells, once each.
    pub sizes: Vec<u64>,
    /// Observed fleet-level detection a grid point needs to sit past the
    /// knee.
    pub detection_target: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed0: 0,
            requests: None,
            rates_ppm: SWEEP_RATES_PPM.to_vec(),
            sizes: SWEEP_FLEET_SIZES.to_vec(),
            detection_target: SWEEP_DETECTION_TARGET,
        }
    }
}

/// One grid point: a (sampling rate, fleet size) pair and its scores. The
/// per-process probability pools the three churn classes — each process
/// plants exactly one bug, and detection follows its victim allocation's
/// sampling decision, so the pooled detection count is Binomial(n, r).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Sampling rate, parts-per-million.
    pub rate_ppm: u32,
    /// Fleet size (the first `processes` pids of the expansion).
    pub processes: u64,
    /// Processes whose planted bug SafeMem reported.
    pub detected: u64,
    /// SafeMem false positives across the point's cells (counts every
    /// cell of the prefix, same as `detected`).
    pub false_positives: u64,
    /// Whether `detected` sits inside the 6σ binomial band around
    /// `processes · rate`.
    pub in_band: bool,
}

impl SweepPoint {
    /// The sampling rate as a fraction.
    #[must_use]
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / f64::from(PPM)
    }

    /// Observed per-process detection probability `k/n`.
    #[must_use]
    pub fn observed(&self) -> f64 {
        if self.processes == 0 {
            0.0
        } else {
            self.detected as f64 / self.processes as f64
        }
    }

    /// Observed fleet-level detection probability `1 − (1 − k/n)^n`.
    #[must_use]
    pub fn fleet_observed(&self) -> f64 {
        1.0 - (1.0 - self.observed()).powf(self.processes as f64)
    }

    /// Predicted fleet-level detection probability `1 − (1 − r)^n`.
    #[must_use]
    pub fn fleet_predicted(&self) -> f64 {
        1.0 - (1.0 - self.rate()).powf(self.processes as f64)
    }
}

/// One rate's knee: the smallest swept fleet size whose observed
/// fleet-level detection reaches the target, if any size does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepKnee {
    /// Sampling rate, parts-per-million.
    pub rate_ppm: u32,
    /// The knee fleet size (None = even the largest swept size falls
    /// short).
    pub knee_processes: Option<u64>,
}

/// A completed sweep: the grid in rate-major render order plus the per-rate
/// knees.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Requests each churn process served.
    pub requests: u64,
    /// Fleet-level detection a knee requires.
    pub detection_target: f64,
    /// Grid points, rate-major (`rates_ppm` outer, `sizes` inner).
    pub points: Vec<SweepPoint>,
    /// Per-rate knees, in `rates_ppm` order.
    pub knees: Vec<SweepKnee>,
    /// Campaign cells replayed (rates × the largest swept size).
    pub cells: u64,
    /// Wall time of the whole sweep.
    pub wall: Duration,
}

impl SweepOutcome {
    /// Total false positives across every replayed cell.
    #[must_use]
    pub fn false_positives(&self) -> u64 {
        // Each point is a prefix of its rate's replay, so the full-size
        // points (one per rate) already cover every cell exactly once.
        self.points
            .iter()
            .filter(|p| p.processes == self.max_size())
            .map(|p| p.false_positives)
            .sum()
    }

    /// The largest swept fleet size.
    #[must_use]
    pub fn max_size(&self) -> u64 {
        self.points.iter().map(|p| p.processes).max().unwrap_or(0)
    }

    /// The sweep acceptance verdict: zero SafeMem false positives at every
    /// grid point and every observed detection count inside its 6σ band.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.false_positives == 0 && p.in_band)
    }
}

/// Whether `detected` out of `n` sits inside the 6σ binomial band around
/// `n · rate` — the same acceptance band the fleet campaign applies per
/// class, pooled over the prefix.
fn within_six_sigma(detected: u64, n: u64, rate: f64) -> bool {
    let n = n as f64;
    let expected = n * rate;
    let sigma = (n * rate * (1.0 - rate)).sqrt();
    (detected as f64 - expected).abs() <= 6.0 * sigma
}

/// Runs the sweep: records the shared traces once, replays every
/// (rate, pid) cell across `threads` workers, and scores the grid.
///
/// # Errors
///
/// Returns [`CampaignError`] for an empty or out-of-range axis, a
/// detection target outside `(0, 1)`, or the first failing cell.
pub fn run_fleet_sweep(
    config: &SweepConfig,
    threads: usize,
    corpus: Option<&TraceCorpus>,
) -> Result<SweepOutcome, CampaignError> {
    if config.rates_ppm.is_empty() || config.sizes.is_empty() {
        return Err(CampaignError(
            "a sweep needs at least one rate and one fleet size".into(),
        ));
    }
    if config.rates_ppm.iter().any(|&r| r == 0 || r > PPM) {
        return Err(CampaignError(format!(
            "sweep rates must be in 1..={PPM} ppm"
        )));
    }
    if config.sizes.contains(&0) {
        return Err(CampaignError(
            "a sweep fleet size must be at least 1".into(),
        ));
    }
    if !(config.detection_target > 0.0 && config.detection_target < 1.0) {
        return Err(CampaignError(
            "the sweep detection target must be inside (0, 1)".into(),
        ));
    }
    let n_max = *config.sizes.iter().max().expect("non-empty sizes");
    let start = Instant::now();

    // One expansion serves every grid point: pid's spec is independent of
    // the fleet size, and the TraceKey is independent of the sampling
    // rate, so the whole grid shares one trace set and each (rate, pid)
    // cell replays exactly once.
    let base = expand_fleet(n_max, config.seed0, config.requests)?;
    let requests = base[0].requests.unwrap_or(crate::spec::FLEET_REQUESTS);
    let mut cells: Vec<CampaignSpec> = Vec::with_capacity(base.len() * config.rates_ppm.len());
    for &rate_ppm in &config.rates_ppm {
        for spec in &base {
            let mut cell = spec.clone();
            cell.sampling_ppm = rate_ppm;
            cells.push(cell);
        }
    }

    // Replay every cell on the shared core; the three unique traces (the
    // key excludes sampling, so rates share them) are recorded once.
    // Results land in index order after the sort, so the grid is
    // independent of worker scheduling.
    let run = run_cells(
        &cells,
        threads,
        TraceMode::Memoized,
        corpus,
        replay_safemem_columnar_with,
        Vec::with_capacity(cells.len()),
        |results: &mut Vec<(usize, bool, u64)>, index, (truth, score)| {
            let detected = detects(kind_of(&cells[index])?, &truth, &score);
            results.push((index, detected, score.false_positives()));
            Ok(())
        },
    )?;
    let mut results = run.sink;
    results.sort_by_key(|(index, _, _)| *index);

    // Score the grid: point (rate, n) folds the first n pids of its rate's
    // replay stripe.
    let n_max_usize = usize::try_from(n_max).expect("swept sizes fit the grid");
    let mut points = Vec::with_capacity(config.rates_ppm.len() * config.sizes.len());
    let mut knees = Vec::with_capacity(config.rates_ppm.len());
    for (rate_index, &rate_ppm) in config.rates_ppm.iter().enumerate() {
        let stripe = &results[rate_index * n_max_usize..(rate_index + 1) * n_max_usize];
        for &n in &config.sizes {
            let prefix = &stripe[..usize::try_from(n).expect("size <= n_max")];
            let detected = prefix.iter().filter(|(_, d, _)| *d).count() as u64;
            let false_positives = prefix.iter().map(|(_, _, f)| *f).sum();
            points.push(SweepPoint {
                rate_ppm,
                processes: n,
                detected,
                false_positives,
                in_band: within_six_sigma(detected, n, f64::from(rate_ppm) / f64::from(PPM)),
            });
        }
        // The knee scans sizes in ascending order even if the render order
        // is not sorted.
        let mut sorted_sizes = config.sizes.clone();
        sorted_sizes.sort_unstable();
        let knee = sorted_sizes.into_iter().find(|&n| {
            points.iter().any(|p| {
                p.rate_ppm == rate_ppm
                    && p.processes == n
                    && p.fleet_observed() >= config.detection_target
            })
        });
        knees.push(SweepKnee {
            rate_ppm,
            knee_processes: knee,
        });
    }

    Ok(SweepOutcome {
        requests,
        detection_target: config.detection_target,
        points,
        knees,
        cells: cells.len() as u64,
        wall: start.elapsed(),
    })
}

/// Renders the sweep scorecard: the grid table (rate-major), the per-rate
/// knee column, and the greppable verdict line. Byte-stable for a given
/// outcome.
#[must_use]
pub fn render_fleet_sweep(outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet sweep: sampling rate x fleet size over shared traces ({} cells, {} requests each)",
        outcome.cells, outcome.requests
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>6} {:>9} {:>9} {:>14} {:>15} {:>8}",
        "rate", "procs", "detected", "observed", "fleet-observed", "fleet-predicted", "6sigma"
    );
    for point in &outcome.points {
        let _ = writeln!(
            out,
            "  {:<8.4} {:>6} {:>9} {:>9.4} {:>14.4} {:>15.4} {:>8}",
            point.rate(),
            point.processes,
            point.detected,
            point.observed(),
            point.fleet_observed(),
            point.fleet_predicted(),
            if point.in_band { "ok" } else { "OUT" }
        );
    }
    let _ = writeln!(
        out,
        "  knee (smallest fleet with observed fleet-level detection >= {:.2}):",
        outcome.detection_target
    );
    for knee in &outcome.knees {
        let _ = writeln!(
            out,
            "    rate {:<8.4} knee {}",
            f64::from(knee.rate_ppm) / f64::from(PPM),
            match knee.knee_processes {
                Some(n) => format!("{n} processes"),
                None => "beyond the swept sizes".into(),
            }
        );
    }
    if outcome.invariants_hold() {
        let _ = writeln!(
            out,
            "sweep invariant (safemem: zero false positives and 6sigma band at every grid point): OK"
        );
    } else {
        let _ = writeln!(
            out,
            "sweep invariant (safemem: zero false positives and 6sigma band at every grid point): VIOLATED ({} FPs, {} points out of band)",
            outcome.false_positives(),
            outcome.points.iter().filter(|p| !p.in_band).count()
        );
    }
    out
}

/// Splices a `fleet_sweep` section into a rendered `BENCH_campaign.json`
/// (the output of
/// [`render_fleet_bench_json`](crate::fleet::render_fleet_bench_json)):
/// the grid points, the knees, and the verdict.
#[must_use]
pub fn splice_sweep_json(base: &str, outcome: &SweepOutcome) -> String {
    let mut out = base
        .strip_suffix("}\n")
        .expect("bench JSON ends with its closing brace")
        .to_string();
    while out.ends_with('\n') {
        out.pop();
    }
    out.push_str(",\n  \"fleet_sweep\": {\n");
    let _ = writeln!(out, "    \"requests\": {},", outcome.requests);
    let _ = writeln!(
        out,
        "    \"detection_target\": {:.2},",
        outcome.detection_target
    );
    let _ = writeln!(
        out,
        "    \"invariants_hold\": {},",
        outcome.invariants_hold()
    );
    let _ = writeln!(out, "    \"points\": [");
    for (i, p) in outcome.points.iter().enumerate() {
        let comma = if i + 1 < outcome.points.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "      {{\"rate\": {:.4}, \"processes\": {}, \"detected\": {}, \
             \"fleet_observed\": {:.4}, \"fleet_predicted\": {:.4}, \"in_band\": {}, \
             \"false_positives\": {}}}{comma}",
            p.rate(),
            p.processes,
            p.detected,
            p.fleet_observed(),
            p.fleet_predicted(),
            p.in_band,
            p.false_positives
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(out, "    \"knees\": [");
    for (i, k) in outcome.knees.iter().enumerate() {
        let comma = if i + 1 < outcome.knees.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"rate\": {:.4}, \"knee_processes\": {}}}{comma}",
            f64::from(k.rate_ppm) / f64::from(PPM),
            match k.knee_processes {
                Some(n) => n.to_string(),
                None => "null".into(),
            }
        );
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            seed0: 0,
            requests: Some(48),
            rates_ppm: vec![200_000, 500_000],
            sizes: vec![3, 12],
            detection_target: SWEEP_DETECTION_TARGET,
        }
    }

    #[test]
    fn sweep_grids_rates_by_sizes_and_finds_the_knee() {
        let outcome = run_fleet_sweep(&tiny_config(), 2, None).expect("sweep runs");
        assert_eq!(outcome.cells, 2 * 12);
        assert_eq!(outcome.points.len(), 4);
        assert_eq!(outcome.knees.len(), 2);
        // Prefix scoring: the size-3 point's counts are bounded by the
        // size-12 point's for the same rate.
        for rate in [200_000, 500_000] {
            let small = outcome
                .points
                .iter()
                .find(|p| p.rate_ppm == rate && p.processes == 3)
                .expect("grid point");
            let large = outcome
                .points
                .iter()
                .find(|p| p.rate_ppm == rate && p.processes == 12)
                .expect("grid point");
            assert!(small.detected <= large.detected);
        }
        assert!(outcome.invariants_hold(), "{outcome:?}");
        assert_eq!(outcome.false_positives(), 0);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let a = run_fleet_sweep(&tiny_config(), 1, None).expect("sweep runs");
        let b = run_fleet_sweep(&tiny_config(), 4, None).expect("sweep runs");
        assert_eq!(render_fleet_sweep(&a), render_fleet_sweep(&b));
        assert_eq!(a.points, b.points);
        assert_eq!(a.knees, b.knees);
    }

    #[test]
    fn detection_rises_with_the_sampling_rate() {
        // The monotonicity the knee rests on: at a fixed fleet size, a
        // higher sampling rate never observes lower fleet-level detection
        // by prediction, and the observed counts stay in their bands.
        let outcome = run_fleet_sweep(&tiny_config(), 2, None).expect("sweep runs");
        let low = outcome
            .points
            .iter()
            .find(|p| p.rate_ppm == 200_000 && p.processes == 12)
            .expect("grid point");
        let high = outcome
            .points
            .iter()
            .find(|p| p.rate_ppm == 500_000 && p.processes == 12)
            .expect("grid point");
        assert!(high.fleet_predicted() > low.fleet_predicted());
    }

    #[test]
    fn sweep_rejects_bad_axes() {
        let mut config = tiny_config();
        config.rates_ppm.clear();
        assert!(run_fleet_sweep(&config, 1, None).is_err());

        let mut config = tiny_config();
        config.sizes = vec![0, 4];
        assert!(run_fleet_sweep(&config, 1, None).is_err());

        let mut config = tiny_config();
        config.rates_ppm = vec![2_000_000];
        assert!(run_fleet_sweep(&config, 1, None).is_err());

        let mut config = tiny_config();
        config.detection_target = 1.5;
        assert!(run_fleet_sweep(&config, 1, None).is_err());
    }

    #[test]
    fn sweep_json_splices_into_the_bench_schema() {
        let outcome = run_fleet_sweep(&tiny_config(), 2, None).expect("sweep runs");
        let base = "{\n  \"bench\": \"safemem-campaign\"\n}\n";
        let json = splice_sweep_json(base, &outcome);
        assert!(json.contains("\"fleet_sweep\": {"), "{json}");
        assert!(json.contains("\"knees\": ["), "{json}");
        assert!(json.contains("\"in_band\": true"), "{json}");
        assert!(json.ends_with("  }\n}\n"), "{json}");
    }
}
