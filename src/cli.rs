//! Command-line interface of the `safemem-run` binary: run any of the seven
//! evaluated applications under any tool, record/replay traces, and print
//! reports and statistics.

use crate::baselines::{Memcheck, PageGuard, Purify};
use crate::core::{MemTool, NullTool, SafeMem};
use crate::os::{Os, STATIC_BASE};
use crate::workloads::{
    all_workloads, run_under, workload_by_name, InputMode, Recorder, RunConfig, RunResult, Trace,
};
use std::fmt;

/// Which tool to run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolChoice {
    /// Uninstrumented baseline.
    None,
    /// SafeMem with both detectors.
    SafeMem,
    /// SafeMem, leak detection only.
    SafeMemMl,
    /// SafeMem, corruption detection only.
    SafeMemMc,
    /// The Purify-class checker.
    Purify,
    /// The Memcheck-class checker.
    Memcheck,
    /// The page-guard tool.
    PageGuard,
}

impl ToolChoice {
    fn parse(s: &str) -> Result<Self, CliError> {
        Ok(match s {
            "none" | "baseline" => ToolChoice::None,
            "safemem" => ToolChoice::SafeMem,
            "safemem-ml" => ToolChoice::SafeMemMl,
            "safemem-mc" => ToolChoice::SafeMemMc,
            "purify" => ToolChoice::Purify,
            "memcheck" => ToolChoice::Memcheck,
            "pageguard" | "page-guard" => ToolChoice::PageGuard,
            other => return Err(CliError(format!("unknown tool {other:?}"))),
        })
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Application name from Table 1.
    pub app: String,
    /// Tool to run under.
    pub tool: ToolChoice,
    /// Input mode.
    pub input: InputMode,
    /// Request count override.
    pub requests: Option<u64>,
    /// RNG seed.
    pub seed: u64,
    /// Write the recorded op trace to this file.
    pub trace_out: Option<String>,
    /// Replay a trace file instead of running the app.
    pub replay: Option<String>,
    /// Print per-report details.
    pub verbose: bool,
    /// Print the kernel /proc snapshot after the run.
    pub stats: bool,
}

/// A command-line parsing error, with usage guidance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text for `safemem-run`.
#[must_use]
pub fn usage() -> String {
    let apps: Vec<&str> = all_workloads().iter().map(|w| w.spec().name).collect();
    format!(
        "safemem-run — run a Table-1 application under a memory tool\n\
         \n\
         USAGE:\n  safemem-run --app <name> [options]\n  safemem-run --replay <trace-file> [--tool <tool>]\n\
         \n\
         OPTIONS:\n\
         \x20 --app <name>        one of: {apps}\n\
         \x20 --tool <tool>       none | safemem | safemem-ml | safemem-mc | purify | memcheck | pageguard (default safemem)\n\
         \x20 --input <mode>      normal | buggy (default normal)\n\
         \x20 --requests <n>      request count (default: the app's)\n\
         \x20 --seed <n>          RNG seed (default 0x5AFE3E3)\n\
         \x20 --trace-out <file>  record the op trace to <file>\n\
         \x20 --replay <file>     replay a recorded trace instead of an app\n\
         \x20 --verbose           print every report\n\
         \x20 --stats             print the kernel /proc snapshot after the run\n\
         \x20 --list              list the available applications\n",
        apps = apps.join(" | ")
    )
}

impl Cli {
    /// Parses arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for unknown flags, missing values, or bad
    /// numbers; the message explains which.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut cli = Cli {
            app: String::new(),
            tool: ToolChoice::SafeMem,
            input: InputMode::Normal,
            requests: None,
            seed: 0x05AF_E3E3,
            trace_out: None,
            replay: None,
            verbose: false,
            stats: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| CliError(format!("{flag} needs a value")))
            };
            match arg.as_str() {
                "--app" => cli.app = value("--app")?,
                "--tool" => cli.tool = ToolChoice::parse(&value("--tool")?)?,
                "--input" => {
                    cli.input = match value("--input")?.as_str() {
                        "normal" => InputMode::Normal,
                        "buggy" => InputMode::Buggy,
                        other => return Err(CliError(format!("unknown input mode {other:?}"))),
                    }
                }
                "--requests" => {
                    cli.requests = Some(
                        value("--requests")?
                            .parse()
                            .map_err(|_| CliError("--requests needs an integer".into()))?,
                    );
                }
                "--seed" => {
                    cli.seed = value("--seed")?
                        .parse()
                        .map_err(|_| CliError("--seed needs an integer".into()))?;
                }
                "--trace-out" => cli.trace_out = Some(value("--trace-out")?),
                "--replay" => cli.replay = Some(value("--replay")?),
                "--verbose" | "-v" => cli.verbose = true,
                "--stats" => cli.stats = true,
                "--list" => {
                    let mut msg = String::from("applications:\n");
                    for w in all_workloads()
                        .into_iter()
                        .chain(crate::workloads::extension_workloads())
                    {
                        let s = w.spec();
                        msg.push_str(&format!(
                            "  {:<10} {:<28} {}\n",
                            s.name,
                            s.bug.to_string(),
                            s.description
                        ));
                    }
                    return Err(CliError(msg));
                }
                "--help" | "-h" => return Err(CliError(usage())),
                other => return Err(CliError(format!("unknown flag {other:?}\n\n{}", usage()))),
            }
        }
        if cli.app.is_empty() && cli.replay.is_none() {
            return Err(CliError(format!(
                "--app or --replay is required\n\n{}",
                usage()
            )));
        }
        Ok(cli)
    }

    fn build_tool(&self, os: &mut Os) -> Box<dyn MemTool> {
        match self.tool {
            ToolChoice::None => Box::new(NullTool::new()),
            ToolChoice::SafeMem => Box::new(SafeMem::builder().build(os)),
            ToolChoice::SafeMemMl => {
                Box::new(SafeMem::builder().corruption_detection(false).build(os))
            }
            ToolChoice::SafeMemMc => Box::new(SafeMem::builder().leak_detection(false).build(os)),
            ToolChoice::Purify => {
                let mut tool = Purify::new();
                tool.add_root_range(STATIC_BASE, 4096);
                Box::new(tool)
            }
            ToolChoice::Memcheck => {
                let mut tool = Memcheck::new();
                tool.add_root_range(STATIC_BASE, 4096);
                Box::new(tool)
            }
            ToolChoice::PageGuard => Box::new(PageGuard::new()),
        }
    }

    /// Executes the parsed command, returning the run's result and a
    /// human-readable summary.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for unknown apps or unreadable/invalid traces.
    pub fn execute(&self) -> Result<(RunResult, String), CliError> {
        let mut os = Os::with_defaults(1 << 26);
        let mut tool = self.build_tool(&mut os);

        let result = if let Some(path) = &self.replay {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            let trace = Trace::from_text(&text).map_err(CliError)?;
            trace.replay(&mut os, tool.as_mut())
        } else {
            let workload = workload_by_name(&self.app)
                .ok_or_else(|| CliError(format!("unknown app {:?}\n\n{}", self.app, usage())))?;
            let cfg = RunConfig {
                input: self.input,
                requests: self.requests,
                seed: self.seed,
            };
            if let Some(path) = &self.trace_out {
                let mut recorder = if workload.records_freed_accesses() {
                    Recorder::with_freed_tracking(tool.as_mut())
                } else {
                    Recorder::new(tool.as_mut())
                };
                workload.run(&mut os, &mut recorder, &cfg);
                let trace = recorder.into_trace();
                std::fs::write(path, trace.to_text())
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                tool.finish(&mut os);
                RunResult {
                    cpu_cycles: os.cpu_cycles(),
                    reports: tool.reports(),
                    heap_stats: tool.heap().stats(),
                }
            } else {
                run_under(workload.as_ref(), &mut os, tool.as_mut(), &cfg)
            }
        };

        let mut summary = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            summary,
            "cpu time: {:.3} ms simulated | allocs: {} | live: {} B | space overhead: {:.2}%",
            os.cpu_ns() as f64 / 1e6,
            result.heap_stats.allocs,
            result.heap_stats.live_payload,
            result.heap_stats.overhead_percent(),
        );
        let _ = writeln!(summary, "reports: {}", result.reports.len());
        if self.stats {
            let _ = write!(summary, "{}", safemem_os::procfs::snapshot(&os));
        }
        if self.verbose {
            let _ = write!(
                summary,
                "{}",
                safemem_core::Diagnosis::from_reports(&result.reports).render()
            );
            let _ = writeln!(summary, "\n--- kernel log (tail) ---");
            let entries: Vec<_> = os.kernel_log().entries().collect();
            let tail = entries.len().saturating_sub(10);
            for entry in &entries[tail..] {
                let _ = writeln!(summary, "{entry}");
            }
        }
        Ok((result, summary))
    }
}

/// Usage text for `safemem-campaign`.
#[must_use]
pub fn campaign_usage() -> String {
    format!(
        "safemem-campaign — deterministic fault-injection campaigns with a differential oracle\n\
         \n\
         USAGE:\n  safemem-campaign [--preset <name>] [--seeds <n>] [options]\n\
         \n\
         OPTIONS:\n\
         \x20 --preset <name>     {presets} (default harsh)\n\
         \x20                     arena runs SafeMem with recovery enabled against the\n\
         \x20                     synthetic-CVE corruption workloads and scores\n\
         \x20                     survival-with-integrity alongside detection;\n\
         \x20                     frontier sweeps a ladder of sampling rates over the\n\
         \x20                     same recorded traces and scores detection probability\n\
         \x20                     against simulated overhead, per rate and bug class;\n\
         \x20                     fleet runs a multi-process churn fleet, one machine\n\
         \x20                     per process, at a sub-1.0 sampling rate and scores\n\
         \x20                     the fleet-level detection probability 1-(1-r)^n\n\
         \x20 --processes <n>     fleet size, 1 to {max_procs} (default {fleet_procs};\n\
         \x20                     requires --preset fleet, which sizes by processes\n\
         \x20                     instead of --seeds)\n\
         \x20 --fleet-shards <n>  worker threads running the fleet's processes in\n\
         \x20                     phase A, one whole process per work item (default 1,\n\
         \x20                     at least 1; requires --preset fleet; the scorecard is\n\
         \x20                     byte-identical for every count)\n\
         \x20 --bench-shards <a,b> run the fleet once per phase-A worker count, cross-\n\
         \x20                     check the scorecards are identical, and report the\n\
         \x20                     phase-A speedup\n\
         \x20 --fleet-sweep       grid sampling rate x fleet size over shared recorded\n\
         \x20                     traces and report the knee of observed fleet-level\n\
         \x20                     detection (requires --preset fleet)\n\
         \x20 --seeds <n>         number of campaign seeds to fan out (default 8); seeds x\n\
         \x20                     workloads (x sampling rates for frontier) is at most\n\
         \x20                     {max_cells} campaign cells\n\
         \x20 --seed0 <n>         first seed (default 0)\n\
         \x20 --workloads <a,b>   comma-separated workload names (default: {workloads};\n\
         \x20                     for --preset arena: {arena_workloads};\n\
         \x20                     for --preset frontier: both lists combined)\n\
         \x20 --sampling <a,b>    comma-separated sampling rates in [0, 1] for the\n\
         \x20                     frontier ladder (default {frontier_rates}; requires\n\
         \x20                     --preset frontier)\n\
         \x20 --requests <n>      request count override, at most {max_requests}\n\
         \x20 --threads <n>       worker threads sharding the campaign matrix\n\
         \x20                     (default: available parallelism; the scorecard is\n\
         \x20                     byte-identical for every thread count)\n\
         \x20 --bench-threads <a,b> run the matrix once per thread count, cross-check\n\
         \x20                     the scorecards are identical, and report the speedup\n\
         \x20 --bench-json <file> write the measured thread-scaling numbers as JSON\n\
         \x20 --fresh-record      record a private trace per cell instead of sharing\n\
         \x20                     one recording per unique (workload, os-shape) key;\n\
         \x20                     the scorecard is byte-identical either way\n\
         \x20 --trace-corpus <dir> persistent trace corpus: load recorded traces from\n\
         \x20                     versioned snapshot files in <dir> instead of\n\
         \x20                     re-recording (the scorecard is byte-identical\n\
         \x20                     either way)\n\
         \x20 --corpus-mode <m>   auto | record | replay-from (default auto; requires\n\
         \x20                     --trace-corpus). auto loads what is present and\n\
         \x20                     records the rest; record rewrites every snapshot;\n\
         \x20                     replay-from fails if any snapshot is missing or\n\
         \x20                     invalid — the CI replay leg\n\
         \x20 --verbose           print every per-campaign scorecard, not just the aggregate\n",
        presets = crate::faultinject::CampaignSpec::PRESETS.join(" | "),
        fleet_procs = crate::faultinject::DEFAULT_FLEET_PROCESSES,
        max_procs = crate::faultinject::MAX_FLEET_PROCESSES,
        max_cells = crate::faultinject::MAX_CAMPAIGN_CELLS,
        max_requests = crate::faultinject::MAX_CAMPAIGN_REQUESTS,
        workloads = crate::faultinject::spec::PRESET_WORKLOADS.join(","),
        arena_workloads = crate::faultinject::spec::CVE_WORKLOADS.join(","),
        frontier_rates = crate::faultinject::FRONTIER_RATES_PPM
            .iter()
            .map(|&ppm| format!("{}", f64::from(ppm) / f64::from(safemem_core::PPM)))
            .collect::<Vec<_>>()
            .join(","),
    )
}

/// A parsed `safemem-campaign` command line.
#[derive(Debug, Clone)]
pub struct CampaignCli {
    /// Campaign preset name.
    pub preset: String,
    /// Number of seeds to fan out.
    pub seeds: u64,
    /// First seed.
    pub seed0: u64,
    /// Workloads to sweep.
    pub workloads: Vec<String>,
    /// Request count override (None = the preset's).
    pub requests: Option<u64>,
    /// Fleet size (None = [`DEFAULT_FLEET_PROCESSES`]). Only meaningful
    /// with the `fleet` preset, which sizes by processes instead of
    /// `--seeds`; every other preset rejects the flag.
    ///
    /// [`DEFAULT_FLEET_PROCESSES`]: crate::faultinject::DEFAULT_FLEET_PROCESSES
    pub processes: Option<u64>,
    /// Worker threads running the fleet's processes in phase A (None =
    /// 1). Only meaningful with the `fleet` preset; the scorecard is
    /// byte-identical for every count.
    pub fleet_shards: Option<usize>,
    /// Phase-A worker counts to measure the same fleet at (empty = run
    /// once at `fleet_shards`). Every run's scorecard is cross-checked
    /// byte-identical; only the wall clock may differ.
    pub bench_shards: Vec<usize>,
    /// Run the sampling-rate × fleet-size sweep after the fleet campaign
    /// and append its knee scorecard. Only meaningful with the `fleet`
    /// preset.
    pub fleet_sweep: bool,
    /// Sampling-rate ladder in parts-per-million, high to low as given.
    /// Only meaningful with the `frontier` preset (empty = its default
    /// ladder); every other preset runs always-on and rejects the flag.
    pub sampling_ppm: Vec<u32>,
    /// Worker threads sharding the matrix (None = available parallelism).
    pub threads: Option<usize>,
    /// Thread counts to measure the same matrix at (empty = run once at
    /// `threads`). Every run's scorecard is cross-checked byte-identical.
    pub bench_threads: Vec<usize>,
    /// Write measured thread-scaling numbers to this file as JSON.
    pub bench_json: Option<String>,
    /// Record a private trace per cell ([`TraceMode::FreshRecord`]) instead
    /// of sharing one recording per unique trace key.
    ///
    /// [`TraceMode::FreshRecord`]: crate::faultinject::TraceMode::FreshRecord
    pub fresh_record: bool,
    /// Persistent trace corpus directory (None = always record in memory).
    pub trace_corpus: Option<String>,
    /// How the corpus is used; only meaningful with `trace_corpus`.
    pub corpus_mode: crate::faultinject::CorpusMode,
    /// Print per-campaign scorecards.
    pub verbose: bool,
}

impl CampaignCli {
    /// Parses arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for unknown flags, missing values, or bad
    /// numbers; the message explains which.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut cli = CampaignCli {
            preset: "harsh".into(),
            seeds: 8,
            seed0: 0,
            workloads: Vec::new(),
            requests: None,
            processes: None,
            fleet_shards: None,
            bench_shards: Vec::new(),
            fleet_sweep: false,
            sampling_ppm: Vec::new(),
            threads: None,
            bench_threads: Vec::new(),
            bench_json: None,
            fresh_record: false,
            trace_corpus: None,
            corpus_mode: crate::faultinject::CorpusMode::Auto,
            verbose: false,
        };
        let mut corpus_mode_given = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| CliError(format!("{flag} needs a value")))
            };
            match arg.as_str() {
                "--preset" => cli.preset = value("--preset")?,
                "--seeds" => {
                    cli.seeds = value("--seeds")?
                        .parse()
                        .map_err(|_| CliError("--seeds needs an integer".into()))?;
                }
                "--seed0" => {
                    cli.seed0 = value("--seed0")?
                        .parse()
                        .map_err(|_| CliError("--seed0 needs an integer".into()))?;
                }
                "--workloads" => {
                    cli.workloads = value("--workloads")?
                        .split(',')
                        .map(str::to_string)
                        .collect();
                }
                "--requests" => {
                    let n: u64 = value("--requests")?
                        .parse()
                        .map_err(|_| CliError("--requests needs an integer".into()))?;
                    let max = crate::faultinject::MAX_CAMPAIGN_REQUESTS;
                    if n > max {
                        return Err(CliError(format!(
                            "--requests {n} exceeds the limit of {max} requests per campaign"
                        )));
                    }
                    cli.requests = Some(n);
                }
                "--processes" => {
                    let n: u64 = value("--processes")?
                        .parse()
                        .map_err(|_| CliError("--processes needs an integer".into()))?;
                    if n == 0 {
                        return Err(CliError(
                            "--processes must be at least 1 (got 0); a fleet needs a process"
                                .into(),
                        ));
                    }
                    let max = crate::faultinject::MAX_FLEET_PROCESSES;
                    if n > max {
                        return Err(CliError(format!(
                            "--processes {n} exceeds the limit of {max} processes per fleet"
                        )));
                    }
                    cli.processes = Some(n);
                }
                "--fleet-shards" => {
                    let n: usize = value("--fleet-shards")?
                        .parse()
                        .map_err(|_| CliError("--fleet-shards needs an integer".into()))?;
                    if n == 0 {
                        return Err(CliError(
                            "--fleet-shards must be at least 1 (got 0); it is the \
                             number of phase-A worker threads"
                                .into(),
                        ));
                    }
                    cli.fleet_shards = Some(n);
                }
                "--bench-shards" => {
                    cli.bench_shards = value("--bench-shards")?
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n > 0)
                                .ok_or_else(|| {
                                    CliError(
                                        "--bench-shards needs comma-separated positive integers"
                                            .into(),
                                    )
                                })
                        })
                        .collect::<Result<_, _>>()?;
                    if cli.bench_shards.is_empty() {
                        return Err(CliError("--bench-shards needs at least one count".into()));
                    }
                }
                "--fleet-sweep" => cli.fleet_sweep = true,
                "--sampling" => {
                    cli.sampling_ppm = value("--sampling")?
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<f64>()
                                .ok()
                                .filter(|r| (0.0..=1.0).contains(r))
                                .map(|r| {
                                    #[allow(clippy::cast_possible_truncation)]
                                    #[allow(clippy::cast_sign_loss)]
                                    let ppm = (r * f64::from(safemem_core::PPM)).round() as u32;
                                    ppm
                                })
                                .ok_or_else(|| {
                                    CliError(
                                        "--sampling needs comma-separated rates in [0, 1]".into(),
                                    )
                                })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--threads" => {
                    let n: usize = value("--threads")?
                        .parse()
                        .map_err(|_| CliError("--threads needs an integer".into()))?;
                    if n == 0 {
                        return Err(CliError(
                            "--threads must be at least 1 (omit it for auto)".into(),
                        ));
                    }
                    cli.threads = Some(n);
                }
                "--bench-threads" => {
                    cli.bench_threads = value("--bench-threads")?
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n > 0)
                                .ok_or_else(|| {
                                    CliError(
                                        "--bench-threads needs comma-separated positive integers"
                                            .into(),
                                    )
                                })
                        })
                        .collect::<Result<_, _>>()?;
                    if cli.bench_threads.is_empty() {
                        return Err(CliError("--bench-threads needs at least one count".into()));
                    }
                }
                "--bench-json" => cli.bench_json = Some(value("--bench-json")?),
                "--fresh-record" => cli.fresh_record = true,
                "--trace-corpus" => cli.trace_corpus = Some(value("--trace-corpus")?),
                "--corpus-mode" => {
                    cli.corpus_mode =
                        crate::faultinject::CorpusMode::parse(&value("--corpus-mode")?)
                            .map_err(|e| CliError(format!("--corpus-mode: {e}")))?;
                    corpus_mode_given = true;
                }
                "--verbose" | "-v" => cli.verbose = true,
                "--help" | "-h" => return Err(CliError(campaign_usage())),
                other => {
                    return Err(CliError(format!(
                        "unknown flag {other:?}\n\n{}",
                        campaign_usage()
                    )))
                }
            }
        }
        if cli.seeds == 0 {
            return Err(CliError("--seeds must be at least 1".into()));
        }
        if corpus_mode_given && cli.trace_corpus.is_none() {
            return Err(CliError(
                "--corpus-mode requires --trace-corpus <dir>".into(),
            ));
        }
        if !cli.sampling_ppm.is_empty() && cli.preset != "frontier" {
            return Err(CliError(
                "--sampling requires --preset frontier (other presets run always-on)".into(),
            ));
        }
        if cli.processes.is_some() && cli.preset != "fleet" {
            return Err(CliError(
                "--processes requires --preset fleet (other presets size with --seeds)".into(),
            ));
        }
        if cli.preset != "fleet" {
            if cli.fleet_shards.is_some() {
                return Err(CliError(
                    "--fleet-shards requires --preset fleet (other presets shard with --threads)"
                        .into(),
                ));
            }
            if !cli.bench_shards.is_empty() {
                return Err(CliError(
                    "--bench-shards requires --preset fleet (other presets use --bench-threads)"
                        .into(),
                ));
            }
            if cli.fleet_sweep {
                return Err(CliError("--fleet-sweep requires --preset fleet".into()));
            }
        }
        if cli.preset == "fleet" && !cli.workloads.is_empty() {
            return Err(CliError(
                "--preset fleet always sweeps the churn family; --workloads does not apply".into(),
            ));
        }
        if cli.workloads.is_empty() && cli.preset != "fleet" {
            // The arena preset sweeps the synthetic-CVE family by default;
            // the frontier sweeps every bug class (Table 1 subset plus the
            // CVE family); every other preset sweeps the Table 1 subset.
            use crate::faultinject::spec::{CVE_WORKLOADS, PRESET_WORKLOADS};
            cli.workloads = match cli.preset.as_str() {
                "arena" => CVE_WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
                "frontier" => PRESET_WORKLOADS
                    .iter()
                    .chain(CVE_WORKLOADS.iter())
                    .map(|s| (*s).to_string())
                    .collect(),
                _ => PRESET_WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            };
        }
        if cli.preset == "frontier" && cli.sampling_ppm.is_empty() {
            cli.sampling_ppm = crate::faultinject::FRONTIER_RATES_PPM.to_vec();
        }
        // Bound the matrix before anything is allocated for it. The fleet
        // sizes by --processes, bounded where that flag is parsed.
        if cli.preset != "fleet" {
            let rates = cli.sampling_ppm.len().max(1);
            if crate::faultinject::campaign_cells(cli.seeds, cli.workloads.len(), rates).is_none() {
                let ladder = if cli.sampling_ppm.is_empty() {
                    String::new()
                } else {
                    format!(" x {rates} sampling rates")
                };
                return Err(CliError(format!(
                    "--seeds {} x {} workloads{ladder} exceeds the limit of {} campaign cells; \
                     lower --seeds or --workloads",
                    cli.seeds,
                    cli.workloads.len(),
                    crate::faultinject::MAX_CAMPAIGN_CELLS
                )));
            }
        }
        Ok(cli)
    }

    /// Opens the configured trace corpus, if any.
    fn open_corpus(&self) -> Result<Option<crate::faultinject::TraceCorpus>, CliError> {
        match &self.trace_corpus {
            None => Ok(None),
            Some(dir) => crate::faultinject::TraceCorpus::open(dir, self.corpus_mode)
                .map(Some)
                .map_err(|e| CliError(e.to_string())),
        }
    }

    /// Runs the campaign sweep, sharded across worker threads. Returns the
    /// rendered report and the verdicts that failed, named as the report's
    /// verdict lines name them (`harsh`, `survival`, `frontier`, `harsh
    /// (rate 1.0)`, `fleet`, `sweep`); empty when every campaign upheld its
    /// preset's invariants. See [`failure_line`].
    ///
    /// The report has two parts: the deterministic scorecard (per-campaign
    /// cards with `--verbose`, then the aggregate), which is byte-identical
    /// for every `--threads` value, followed by schedule-dependent execution
    /// telemetry (worker balance, wall time, thread-scaling measurements).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for an unknown preset or workload, an unwritable
    /// `--bench-json` path, or — defensively — if a `--bench-threads`
    /// cross-check ever catches two thread counts disagreeing on the
    /// scorecard.
    pub fn execute(&self) -> Result<(String, Vec<&'static str>), CliError> {
        use crate::faultinject::{
            default_threads, expand_frontier, expand_matrix, render_bench_json,
            render_frontier_bench_json, render_worker_table, run_matrix_streamed_corpus, BenchRun,
            StreamAggregate, StreamReport, TraceMode,
        };

        if self.preset == "fleet" {
            return self.execute_fleet();
        }

        let frontier = self.preset == "frontier";
        let specs = if frontier {
            expand_frontier(
                &self.preset,
                &self.sampling_ppm,
                &self.workloads,
                self.seeds,
                self.seed0,
                self.requests,
            )
        } else {
            expand_matrix(
                &self.preset,
                &self.workloads,
                self.seeds,
                self.seed0,
                self.requests,
            )
        }
        .map_err(|e| CliError(e.0))?;
        let threads = self.threads.unwrap_or_else(default_threads);
        let thread_counts = if self.bench_threads.is_empty() {
            vec![threads]
        } else {
            self.bench_threads.clone()
        };

        let mode = if self.fresh_record {
            TraceMode::FreshRecord
        } else {
            TraceMode::Memoized
        };
        let corpus = self.open_corpus()?;
        // Each cell folds into a fixed-size aggregate as it finishes — peak
        // memory is the aggregate's footprint, not the matrix size. The
        // frontier variant also maintains one row per sampling rate, which
        // its render appends, so the rendered aggregate *is* the
        // deterministic scorecard the cross-thread-count check pins.
        let mut runs = Vec::with_capacity(thread_counts.len());
        let mut first: Option<(StreamReport, String)> = None;
        for &t in &thread_counts {
            let seed_aggregate = if frontier {
                StreamAggregate::with_frontier(&specs)
            } else {
                StreamAggregate::new()
            };
            let stream = run_matrix_streamed_corpus(
                &specs,
                t,
                mode,
                self.verbose,
                seed_aggregate,
                corpus.as_ref(),
            )
            .map_err(|e| CliError(e.0))?;
            let aggregate = stream.aggregate.render();
            runs.push(BenchRun {
                threads: t,
                wall: stream.wall,
                campaigns: stream.aggregate.campaigns(),
                boot: None,
            });
            match &first {
                None => first = Some((stream, aggregate)),
                Some((_, reference)) => {
                    if aggregate != *reference {
                        return Err(CliError(format!(
                            "determinism violation: {t} threads produced a different \
                             scorecard than {} threads",
                            thread_counts[0]
                        )));
                    }
                }
            }
        }
        let (stream, aggregate) = first.expect("at least one thread count runs");

        let mut report = String::new();
        for (_, card) in &stream.cards {
            report.push_str(card);
            report.push('\n');
        }
        report.push_str(&aggregate);
        report.push_str(&render_worker_table(
            stream.aggregate.campaigns(),
            stream.threads,
            stream.wall,
            &stream.workers,
        ));
        report.push_str(&scaling_lines(&runs));
        if let Some(path) = &self.bench_json {
            let json = if frontier {
                render_frontier_bench_json(
                    &self.preset,
                    self.requests,
                    &runs,
                    stream
                        .aggregate
                        .frontier_rows()
                        .expect("the frontier aggregate maintains its rows"),
                )
            } else {
                render_bench_json(&self.preset, self.requests, &runs)
            };
            std::fs::write(path, json)
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }

        // Sampled-out allocations legitimately miss their planted bug, so
        // the full harsh invariant only binds the frontier's always-on rung;
        // what binds every rung is zero false positives from sampling.
        let failed = if frontier {
            stream.aggregate.failed_frontier_verdicts()
        } else {
            stream.aggregate.failed_verdicts()
        };
        Ok((report, failed))
    }

    /// The `fleet` preset: a two-phase multi-process campaign (the live
    /// fleet on a worker pool, then sharded per-process cells) with its own
    /// scorecard, optional shard-scaling measurements, and the optional
    /// rate × fleet-size sweep.
    fn execute_fleet(&self) -> Result<(String, Vec<&'static str>), CliError> {
        use crate::faultinject::{
            default_threads, expand_fleet, render_fleet, render_fleet_bench_json,
            render_fleet_sweep, render_worker_table, run_fleet_corpus, run_fleet_sweep,
            splice_sweep_json, BenchRun, FleetOutcome, ShardRun, SweepConfig, TraceMode,
            DEFAULT_FLEET_PROCESSES, SWEEP_FLEET_SIZES,
        };

        let processes = self.processes.unwrap_or(DEFAULT_FLEET_PROCESSES);
        let specs =
            expand_fleet(processes, self.seed0, self.requests).map_err(|e| CliError(e.0))?;
        let threads = self.threads.unwrap_or_else(default_threads);
        let thread_counts = if self.bench_threads.is_empty() {
            vec![threads]
        } else {
            self.bench_threads.clone()
        };
        let shards = self.fleet_shards.unwrap_or(1);
        let mode = if self.fresh_record {
            TraceMode::FreshRecord
        } else {
            TraceMode::Memoized
        };
        let corpus = self.open_corpus()?;

        // Thread-scaling runs (phase B workers) at the configured phase-A
        // worker count.
        let mut runs = Vec::with_capacity(thread_counts.len());
        let mut first: Option<(FleetOutcome, String)> = None;
        for &t in &thread_counts {
            let outcome = run_fleet_corpus(&specs, t, shards, mode, corpus.as_ref())
                .map_err(|e| CliError(e.0))?;
            let card = render_fleet(&outcome);
            runs.push(BenchRun {
                threads: t,
                wall: outcome.wall,
                campaigns: specs.len(),
                boot: Some(outcome.boot_wall),
            });
            match &first {
                None => first = Some((outcome, card)),
                Some((_, reference)) => {
                    if card != *reference {
                        return Err(CliError(format!(
                            "determinism violation: {t} threads produced a different \
                             fleet scorecard than {} threads",
                            thread_counts[0]
                        )));
                    }
                }
            }
        }
        let (outcome, card) = first.expect("at least one thread count runs");

        // Shard-scaling runs (phase-A worker counts): same fleet, same
        // scorecard — only the wall clock may move, and the cross-check
        // enforces exactly that.
        let mut shard_runs: Vec<ShardRun> = Vec::with_capacity(self.bench_shards.len());
        for &s in &self.bench_shards {
            let shard_outcome =
                run_fleet_corpus(&specs, thread_counts[0], s, mode, corpus.as_ref())
                    .map_err(|e| CliError(e.0))?;
            if render_fleet(&shard_outcome) != card {
                return Err(CliError(format!(
                    "determinism violation: {s} shards produced a different fleet \
                     scorecard than {shards} shards"
                )));
            }
            shard_runs.push(ShardRun {
                shards: shard_outcome.shards,
                wall: shard_outcome.wall,
                boot_wall: shard_outcome.boot_wall,
                campaigns: specs.len() as u64,
            });
        }

        let mut report = card;
        report.push_str(&render_worker_table(
            specs.len(),
            outcome.threads,
            outcome.wall,
            &outcome.workers,
        ));
        report.push_str(&scaling_lines(&runs));
        report.push_str(&shard_scaling_lines(&shard_runs));

        // The sweep grids rate × size over its own shared traces; sizes are
        // clamped to the fleet size so `--processes` bounds the work.
        let sweep = if self.fleet_sweep {
            let mut sizes: Vec<u64> = SWEEP_FLEET_SIZES
                .iter()
                .copied()
                .filter(|&n| n <= processes)
                .collect();
            if sizes.is_empty() {
                sizes = vec![processes];
            }
            let config = SweepConfig {
                seed0: self.seed0,
                requests: self.requests,
                sizes,
                ..SweepConfig::default()
            };
            let sweep_outcome = run_fleet_sweep(&config, thread_counts[0], corpus.as_ref())
                .map_err(|e| CliError(e.0))?;
            report.push_str(&render_fleet_sweep(&sweep_outcome));
            Some(sweep_outcome)
        } else {
            None
        };

        if let Some(path) = &self.bench_json {
            let mut json =
                render_fleet_bench_json(&self.preset, self.requests, &runs, &shard_runs, &outcome);
            if let Some(sweep) = &sweep {
                json = splice_sweep_json(&json, sweep);
            }
            std::fs::write(path, json)
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }
        let mut failed = Vec::new();
        if !outcome.agg.invariants_hold() {
            failed.push("fleet");
        }
        if sweep.as_ref().is_some_and(|s| !s.invariants_hold()) {
            failed.push("sweep");
        }
        Ok((report, failed))
    }
}

/// The `safemem-campaign` failure line for the verdicts
/// [`CampaignCli::execute`] reports as failed.
#[must_use]
pub fn failure_line(failed: &[&str]) -> String {
    let plural = if failed.len() == 1 { "" } else { "s" };
    format!(
        "FAIL: {} invariant{plural} violated (see the verdict lines of the report)",
        failed.join(", ")
    )
}

/// Renders the `--bench-shards` speedup lines (empty without measurements).
/// Schedule-dependent telemetry — not part of the deterministic scorecard.
fn shard_scaling_lines(runs: &[crate::faultinject::ShardRun]) -> String {
    let mut out = String::new();
    if runs.len() > 1 {
        use std::fmt::Write as _;
        let base = runs[0];
        for run in &runs[1..] {
            let speedup = if run.wall.is_zero() {
                1.0
            } else {
                base.wall.as_secs_f64() / run.wall.as_secs_f64()
            };
            let _ = writeln!(
                out,
                "  shard scaling: {} shards {:.1} ms (phase A {:.1} ms) vs {} shards {:.1} ms \
                 (phase A {:.1} ms) — speedup {speedup:.2}x (scorecards byte-identical)",
                run.shards,
                run.wall.as_secs_f64() * 1e3,
                run.boot_wall.as_secs_f64() * 1e3,
                base.shards,
                base.wall.as_secs_f64() * 1e3,
                base.boot_wall.as_secs_f64() * 1e3,
            );
        }
    }
    out
}

/// Renders the `--bench-threads` speedup lines (empty for a single run).
/// Schedule-dependent telemetry, like the worker table — not part of the
/// deterministic scorecard.
fn scaling_lines(runs: &[crate::faultinject::BenchRun]) -> String {
    let mut out = String::new();
    if runs.len() > 1 {
        use std::fmt::Write as _;
        let base = runs[0].wall;
        for run in &runs[1..] {
            let speedup = if run.wall.is_zero() {
                1.0
            } else {
                base.as_secs_f64() / run.wall.as_secs_f64()
            };
            let _ = writeln!(
                out,
                "  scaling: {} threads {:.1} ms vs {} threads {:.1} ms — speedup {speedup:.2}x \
                 (scorecards byte-identical)",
                run.threads,
                run.wall.as_secs_f64() * 1e3,
                runs[0].threads,
                base.as_secs_f64() * 1e3,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let cli = parse(&[
            "--app",
            "gzip",
            "--tool",
            "purify",
            "--input",
            "buggy",
            "--requests",
            "42",
            "--seed",
            "7",
            "--verbose",
        ])
        .unwrap();
        assert_eq!(cli.app, "gzip");
        assert_eq!(cli.tool, ToolChoice::Purify);
        assert_eq!(cli.input, InputMode::Buggy);
        assert_eq!(cli.requests, Some(42));
        assert_eq!(cli.seed, 7);
        assert!(cli.verbose);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--app"]).is_err());
        assert!(parse(&["--app", "gzip", "--tool", "asan"]).is_err());
        assert!(parse(&["--app", "gzip", "--requests", "many"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn executes_a_buggy_run_end_to_end() {
        let cli = parse(&[
            "--app",
            "tar",
            "--tool",
            "safemem",
            "--input",
            "buggy",
            "--requests",
            "20",
        ])
        .unwrap();
        let (result, summary) = cli.execute().unwrap();
        assert!(result.corruption_detected());
        assert!(summary.contains("reports:"));
    }

    #[test]
    fn unknown_app_is_a_clean_error() {
        let cli = parse(&["--app", "nginx"]).unwrap();
        assert!(cli.execute().is_err());
    }

    fn parse_campaign(args: &[&str]) -> Result<CampaignCli, CliError> {
        CampaignCli::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn campaign_cli_parses_thread_flags() {
        let cli = parse_campaign(&[
            "--preset",
            "harsh",
            "--threads",
            "4",
            "--bench-threads",
            "1,4",
            "--bench-json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.bench_threads, vec![1, 4]);
        assert_eq!(cli.bench_json.as_deref(), Some("out.json"));
        // Omitted --threads means auto (available parallelism).
        assert_eq!(parse_campaign(&[]).unwrap().threads, None);
    }

    #[test]
    fn campaign_cli_rejects_bad_thread_flags() {
        assert!(parse_campaign(&["--threads", "0"]).is_err());
        assert!(parse_campaign(&["--threads", "many"]).is_err());
        assert!(parse_campaign(&["--bench-threads", "1,0"]).is_err());
        assert!(parse_campaign(&["--bench-threads", ""]).is_err());
    }

    #[test]
    fn campaign_cli_parses_sampling_ladders() {
        let cli = parse_campaign(&["--preset", "frontier", "--sampling", "1.0,0.5,0.01"]).unwrap();
        assert_eq!(cli.sampling_ppm, vec![1_000_000, 500_000, 10_000]);
        // Frontier defaults: the built-in ladder over every bug class.
        let cli = parse_campaign(&["--preset", "frontier"]).unwrap();
        assert_eq!(
            cli.sampling_ppm,
            crate::faultinject::FRONTIER_RATES_PPM.to_vec()
        );
        assert!(cli.workloads.iter().any(|w| w == "ypserv1"));
        assert!(cli.workloads.iter().any(|w| w == "cve-dfree"));
    }

    #[test]
    fn campaign_cli_rejects_bad_sampling_flags() {
        assert!(
            parse_campaign(&["--sampling", "1.0"]).is_err(),
            "needs frontier preset"
        );
        assert!(parse_campaign(&["--preset", "frontier", "--sampling", "1.5"]).is_err());
        assert!(parse_campaign(&["--preset", "frontier", "--sampling", "-0.1"]).is_err());
        assert!(parse_campaign(&["--preset", "frontier", "--sampling", "half"]).is_err());
        assert!(parse_campaign(&["--preset", "frontier", "--sampling", ""]).is_err());
    }

    #[test]
    fn frontier_campaign_reports_the_rate_ladder() {
        let cli = parse_campaign(&[
            "--preset",
            "frontier",
            "--seeds",
            "1",
            "--workloads",
            "tar,cve-dfree",
            "--requests",
            "24",
            "--sampling",
            "1.0,0.1",
            "--threads",
            "2",
        ])
        .unwrap();
        let (report, failed) = cli.execute().unwrap();
        assert!(failed.is_empty(), "frontier invariant holds:\n{report}");
        assert!(
            report.contains("frontier: overhead vs detection across sampling rates"),
            "{report}"
        );
        assert!(
            report.contains("zero false positives at every sampling rate): OK (2 rates)"),
            "{report}"
        );
    }

    #[test]
    fn campaign_cli_parses_fleet_flags() {
        let cli = parse_campaign(&[
            "--preset",
            "fleet",
            "--processes",
            "24",
            "--fleet-shards",
            "8",
            "--bench-shards",
            "1,2,8",
            "--fleet-sweep",
        ])
        .unwrap();
        assert_eq!(cli.processes, Some(24));
        assert_eq!(cli.fleet_shards, Some(8));
        assert_eq!(cli.bench_shards, vec![1, 2, 8]);
        assert!(cli.fleet_sweep);
        assert!(cli.workloads.is_empty(), "fleet fixes the churn family");
        // Default fleet size is the preset's; default shards are 1.
        let defaults = parse_campaign(&["--preset", "fleet"]).unwrap();
        assert_eq!(defaults.processes, None);
        assert_eq!(defaults.fleet_shards, None);
        assert!(defaults.bench_shards.is_empty());
        assert!(!defaults.fleet_sweep);
    }

    #[test]
    fn campaign_cli_rejects_bad_fleet_flags() {
        assert!(
            parse_campaign(&["--processes", "24"]).is_err(),
            "needs fleet preset"
        );
        let err = parse_campaign(&["--preset", "fleet", "--processes", "0"]).unwrap_err();
        assert!(
            err.0.contains("--processes") && err.0.contains("at least 1"),
            "names the flag and the range: {err}"
        );
        assert!(parse_campaign(&["--preset", "fleet", "--processes", "many"]).is_err());
        let err = parse_campaign(&["--preset", "fleet", "--fleet-shards", "0"]).unwrap_err();
        assert!(
            err.0.contains("--fleet-shards") && err.0.contains("at least 1"),
            "names the flag and the range: {err}"
        );
        assert!(parse_campaign(&["--preset", "fleet", "--fleet-shards", "many"]).is_err());
        assert!(parse_campaign(&["--preset", "fleet", "--bench-shards", "1,0"]).is_err());
        assert!(
            parse_campaign(&["--fleet-shards", "2"]).is_err(),
            "fleet-only flag"
        );
        assert!(
            parse_campaign(&["--bench-shards", "1,2"]).is_err(),
            "fleet-only flag"
        );
        assert!(
            parse_campaign(&["--fleet-sweep"]).is_err(),
            "fleet-only flag"
        );
        assert!(
            parse_campaign(&["--preset", "fleet", "--workloads", "tar"]).is_err(),
            "fleet fixes the churn family"
        );
        assert!(
            parse_campaign(&["--preset", "fleet", "--sampling", "0.5"]).is_err(),
            "the fleet rate is the preset's"
        );
    }

    #[test]
    fn campaign_cli_rejects_matrices_above_the_cell_limit() {
        use crate::faultinject::MAX_CAMPAIGN_CELLS;
        let limit = MAX_CAMPAIGN_CELLS.to_string();
        for preset in ["harsh", "arena", "frontier", "mixed", "quiet"] {
            let err =
                parse_campaign(&["--preset", preset, "--seeds", "9999999999999"]).unwrap_err();
            assert!(
                err.0.contains("--seeds") && err.0.contains(&limit),
                "{preset}: names the flag and the limit: {err}"
            );
        }
        let err = parse_campaign(&["--seeds", "18446744073709551615"]).unwrap_err();
        assert!(err.0.contains("--seeds"), "overflowing product: {err}");
        // The frontier counts its whole ladder.
        let seeds = (MAX_CAMPAIGN_CELLS / 2).to_string();
        let args = [
            "--preset",
            "frontier",
            "--workloads",
            "tar",
            "--seeds",
            &seeds,
        ];
        let err =
            parse_campaign(&[&args[..], &["--sampling", "1.0,0.5,0.1"]].concat()).unwrap_err();
        assert!(err.0.contains("3 sampling rates"), "{err}");
        assert!(parse_campaign(&[&args[..], &["--sampling", "1.0"]].concat()).is_ok());
        // Exactly at the limit is accepted.
        let cli = parse_campaign(&["--workloads", "tar", "--seeds", &limit]).unwrap();
        assert_eq!(cli.seeds, MAX_CAMPAIGN_CELLS);
        // The fleet sizes by --processes; --seeds does not bound it.
        assert!(parse_campaign(&["--preset", "fleet", "--seeds", "9999999999999"]).is_ok());
    }

    #[test]
    fn campaign_cli_rejects_fleets_above_the_process_limit() {
        use crate::faultinject::MAX_FLEET_PROCESSES;
        let limit = MAX_FLEET_PROCESSES.to_string();
        let cli = parse_campaign(&["--preset", "fleet", "--processes", &limit]).unwrap();
        assert_eq!(cli.processes, Some(MAX_FLEET_PROCESSES));
        for n in ["65537", "99999999999", "18446744073709551615"] {
            let err = parse_campaign(&["--preset", "fleet", "--processes", n]).unwrap_err();
            assert!(
                err.0.contains("--processes") && err.0.contains(&limit),
                "names the flag and the limit: {err}"
            );
        }
    }

    #[test]
    fn campaign_cli_rejects_requests_above_the_limit() {
        use crate::faultinject::MAX_CAMPAIGN_REQUESTS;
        let limit = MAX_CAMPAIGN_REQUESTS.to_string();
        let cli = parse_campaign(&["--requests", &limit]).unwrap();
        assert_eq!(cli.requests, Some(MAX_CAMPAIGN_REQUESTS));
        for preset in ["harsh", "arena", "frontier", "fleet"] {
            for n in ["100001", "99999999999", "18446744073709551615"] {
                let err = parse_campaign(&["--preset", preset, "--requests", n]).unwrap_err();
                assert!(
                    err.0.contains("--requests") && err.0.contains(&limit),
                    "{preset}: names the flag and the limit: {err}"
                );
            }
        }
    }

    #[test]
    fn campaign_usage_lists_the_limits() {
        let usage = campaign_usage();
        let max_cells = crate::faultinject::MAX_CAMPAIGN_CELLS.to_string();
        let max_procs = crate::faultinject::MAX_FLEET_PROCESSES.to_string();
        let max_requests = crate::faultinject::MAX_CAMPAIGN_REQUESTS.to_string();
        assert!(usage.contains(&max_cells), "{usage}");
        assert!(usage.contains(&max_procs), "{usage}");
        assert!(usage.contains(&max_requests), "{usage}");
    }

    #[test]
    fn campaign_reports_which_verdict_failed() {
        // With no requests the planted bug never triggers: zero false
        // positives everywhere, yet the harsh verdict (all planted bugs
        // found) fails, and only that verdict is named.
        let cli = parse_campaign(&[
            "--requests",
            "0",
            "--seeds",
            "1",
            "--workloads",
            "gzip",
            "--threads",
            "1",
        ])
        .unwrap();
        let (report, failed) = cli.execute().unwrap();
        assert_eq!(failed, vec!["harsh"], "{report}");
        assert!(report.contains("harsh invariant"), "{report}");
        assert_eq!(
            failure_line(&failed),
            "FAIL: harsh invariant violated (see the verdict lines of the report)"
        );
        assert_eq!(
            failure_line(&["fleet", "sweep"]),
            "FAIL: fleet, sweep invariants violated (see the verdict lines of the report)"
        );
    }

    #[test]
    fn fleet_campaign_runs_end_to_end() {
        let cli = parse_campaign(&[
            "--preset",
            "fleet",
            "--processes",
            "12",
            "--requests",
            "48",
            "--threads",
            "2",
        ])
        .unwrap();
        let (report, failed) = cli.execute().unwrap();
        assert!(failed.is_empty(), "fleet invariant holds:\n{report}");
        assert!(
            report.contains("phase A (shared-machine fleet)"),
            "{report}"
        );
        assert!(
            report.contains(
                "fleet invariant (safemem: zero false positives across 12 processes): OK"
            ),
            "{report}"
        );
    }

    #[test]
    fn sharded_fleet_campaign_reports_shard_scaling_and_the_sweep() {
        let dir = std::env::temp_dir().join("safemem-cli-shard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("bench.json");
        let cli = parse_campaign(&[
            "--preset",
            "fleet",
            "--processes",
            "12",
            "--requests",
            "48",
            "--threads",
            "2",
            "--fleet-shards",
            "4",
            "--bench-shards",
            "1,2,4",
            "--fleet-sweep",
            "--bench-json",
            json_path.to_str().unwrap(),
        ])
        .unwrap();
        let (report, failed) = cli.execute().unwrap();
        assert!(
            failed.is_empty(),
            "fleet + sweep invariants hold:\n{report}"
        );
        assert!(report.contains("shard scaling: 2 shards"), "{report}");
        assert!(
            report.contains("fleet sweep: sampling rate x fleet size"),
            "{report}"
        );
        assert!(
            report.contains("zero false positives and 6sigma band at every grid point): OK"),
            "{report}"
        );
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"shard_runs\": ["), "{json}");
        assert!(json.contains("\"fleet_sweep\": {"), "{json}");
        assert!(json.ends_with("  }\n}\n"), "{json}");
        std::fs::remove_file(json_path).ok();
    }

    #[test]
    fn campaign_scorecard_is_identical_across_thread_counts() {
        let strip_execution = |report: &str| {
            report
                .split("execution:")
                .next()
                .expect("report has a scorecard part")
                .to_string()
        };
        let run = |threads: &str| {
            let cli = parse_campaign(&[
                "--preset",
                "harsh",
                "--seeds",
                "2",
                "--workloads",
                "tar",
                "--requests",
                "24",
                "--threads",
                threads,
            ])
            .unwrap();
            let (report, failed) = cli.execute().unwrap();
            assert!(failed.is_empty(), "harsh invariant holds:\n{report}");
            strip_execution(&report)
        };
        assert_eq!(run("1"), run("3"));
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("safemem-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gzip.trace");
        let path_str = path.to_str().unwrap().to_string();

        // Record a buggy gzip run under the baseline.
        let record = parse(&[
            "--app",
            "gzip",
            "--tool",
            "none",
            "--input",
            "buggy",
            "--requests",
            "6",
            "--trace-out",
            &path_str,
        ])
        .unwrap();
        let (base_result, _) = record.execute().unwrap();
        assert!(base_result.reports.is_empty(), "baseline sees nothing");

        // Replay under SafeMem: the recorded overflow is caught.
        let replay = parse(&["--replay", &path_str, "--tool", "safemem-mc"]).unwrap();
        let (result, _) = replay.execute().unwrap();
        assert!(result.corruption_detected(), "{:?}", result.reports);
        std::fs::remove_file(path).ok();
    }
}
