//! The `safemem-campaign` command line under hostile input: counts that
//! would ask for impossible allocations are refused with an error naming
//! the flag and its limit, any argv built from the flag vocabulary parses
//! or fails cleanly, and a failed run says which verdict failed.

use proptest::prelude::*;
use safemem::cli::{campaign_usage, CampaignCli};
use safemem::faultinject::{
    campaign_cells, DEFAULT_FLEET_PROCESSES, MAX_CAMPAIGN_CELLS, MAX_FLEET_PROCESSES,
};
use std::process::Command;

fn campaign(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_safemem-campaign"))
        .args(args)
        .output()
        .expect("the campaign binary runs");
    (
        out.status.code().expect("exited, not killed by a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn oversized_counts_are_refused_before_anything_is_allocated() {
    let cells = MAX_CAMPAIGN_CELLS.to_string();
    let procs = MAX_FLEET_PROCESSES.to_string();
    for (args, flag, limit) in [
        (&["--seeds", "9999999999999"][..], "--seeds", &cells),
        (
            &["--preset", "frontier", "--seeds", "9999999999999"],
            "--seeds",
            &cells,
        ),
        (
            &["--preset", "arena", "--seeds", "9999999999999"],
            "--seeds",
            &cells,
        ),
        (
            &["--preset", "fleet", "--processes", "99999999999"],
            "--processes",
            &procs,
        ),
    ] {
        let (code, stdout, stderr) = campaign(args);
        assert_eq!(code, 2, "{args:?} is a command-line error: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran nothing: {stdout}");
        assert!(
            stderr.contains(flag) && stderr.contains(limit.as_str()),
            "{args:?} names {flag} and its limit {limit}: {stderr}"
        );
    }
}

#[test]
fn the_fail_line_names_the_verdict_that_failed() {
    // No requests: the planted bug never triggers. Every false-positive
    // column reads zero, and what fails is the harsh verdict's "all planted
    // bugs found" half.
    let (code, stdout, stderr) = campaign(&[
        "--requests",
        "0",
        "--seeds",
        "1",
        "--workloads",
        "gzip",
        "--threads",
        "1",
    ]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(
        stdout.contains("harsh invariant (safemem: zero FPs, all planted bugs found): 0/1"),
        "{stdout}"
    );
    assert!(
        stderr.contains("FAIL: harsh invariant violated"),
        "names the failed verdict: {stderr}"
    );
    assert!(
        !stderr.contains("zero-false-positive"),
        "does not blame false positives: {stderr}"
    );
}

const FLAGS: &[&str] = &[
    "--preset",
    "--seeds",
    "--seed0",
    "--workloads",
    "--requests",
    "--processes",
    "--fleet-shards",
    "--bench-shards",
    "--fleet-sweep",
    "--sampling",
    "--threads",
    "--bench-threads",
    "--bench-json",
    "--fresh-record",
    "--trace-corpus",
    "--corpus-mode",
    "--verbose",
    "-v",
    "--help",
    "--frobnicate",
];

const PRESETS: &[&str] = &[
    "harsh", "arena", "frontier", "fleet", "mixed", "quiet", "brutal",
];

const COUNTS: &[&str] = &[
    "0",
    "1",
    "7",
    "2000",
    "20000",
    "50000",
    "65536",
    "65537",
    "100000",
    "100001",
    "9999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e9",
    "",
];

const WORKLOADS: &[&str] = &[
    "tar",
    "gzip,tar,ypserv1",
    "tar,tar,tar,tar,tar",
    "",
    "nginx",
];

const RATES: &[&str] = &[
    "1.0",
    "1.0,0.5,0.1,0.02",
    "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5",
    "2.0",
    "NaN",
    "",
];

/// Every other kind of value a flag might meet.
const OTHER: &[&str] = &[
    ",",
    "1,0",
    "1,1,1,1",
    "0.5",
    "auto",
    "replay-from",
    "sideways",
    "x",
];

/// `flag <one of values>`, or nothing.
fn maybe(flag: &'static str, values: &'static [&'static str]) -> BoxedStrategy<Vec<String>> {
    prop_oneof![
        Just(Vec::new()),
        (0..values.len()).prop_map(move |i| vec![flag.to_string(), values[i].to_string()]),
    ]
    .boxed()
}

/// A noise token: a flag with any value, a lone flag, or a lone value.
fn noise() -> impl Strategy<Value = Vec<String>> {
    let any_value = |i: usize| {
        [COUNTS, PRESETS, WORKLOADS, RATES, OTHER]
            .concat()
            .get(i)
            .map_or_else(String::new, |v| (*v).to_string())
    };
    let flag = (0..FLAGS.len()).prop_map(|i| FLAGS[i].to_string());
    let value = (0usize..64).prop_map(any_value);
    prop_oneof![
        (flag.clone(), value.clone()).prop_map(|(f, v)| vec![f, v]),
        flag.prop_map(|f| vec![f]),
        value.prop_map(|v| vec![v]),
    ]
}

/// An argv: the flags that size a campaign, each maybe present, then noise
/// (a later repeat of a flag overrides an earlier one).
fn argv() -> impl Strategy<Value = Vec<String>> {
    (
        maybe("--preset", PRESETS),
        maybe("--seeds", COUNTS),
        maybe("--workloads", WORKLOADS),
        maybe("--sampling", RATES),
        maybe("--processes", COUNTS),
        proptest::collection::vec(noise(), 0..5),
    )
        .prop_map(|(preset, seeds, workloads, sampling, processes, noise)| {
            let mut argv = Vec::new();
            for part in [preset, seeds, workloads, sampling, processes] {
                argv.extend(part);
            }
            argv.extend(noise.into_iter().flatten());
            argv
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `CampaignCli::parse` never panics on argv built from the flag
    /// vocabulary with extreme values; every error names a flag; and every
    /// accepted command line is within the cell and process limits.
    #[test]
    fn prop_campaign_cli_parse_is_total_and_bounded(argv in argv()) {
        match CampaignCli::parse(argv.clone()) {
            Err(e) => {
                let first = e.0.lines().next().unwrap_or("");
                prop_assert!(
                    e.0 == campaign_usage()
                        || first.contains("--")
                        || first.starts_with("unknown flag"),
                    "{:?}: error names no flag: {}", argv, e
                );
            }
            Ok(cli) => {
                prop_assert!(cli.seeds >= 1, "{:?}", argv);
                if cli.preset == "fleet" {
                    let processes = cli.processes.unwrap_or(DEFAULT_FLEET_PROCESSES);
                    prop_assert!(
                        (1..=MAX_FLEET_PROCESSES).contains(&processes),
                        "{:?}: {} processes", argv, processes
                    );
                } else {
                    let rates = cli.sampling_ppm.len().max(1);
                    prop_assert!(
                        campaign_cells(cli.seeds, cli.workloads.len(), rates).is_some(),
                        "{:?}: {} seeds x {} workloads x {} rates", argv, cli.seeds,
                        cli.workloads.len(), rates
                    );
                }
            }
        }
    }
}
