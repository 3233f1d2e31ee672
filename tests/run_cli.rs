//! The `safemem-run` command line under hostile input: a request count
//! that would keep an app looping for hours is refused at once with an
//! error naming the flag and its limit, a replayed malloc too large for
//! every heap layout is refused with an error naming the line and the
//! limit, and any argv built from the flag vocabulary parses or fails
//! cleanly within the limits.

use proptest::prelude::*;
use safemem::alloc::MAX_ALLOC_BYTES;
use safemem::cli::{usage, Cli};
use safemem::faultinject::MAX_CAMPAIGN_REQUESTS;
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn oversized_request_counts_are_refused_promptly() {
    let limit = MAX_CAMPAIGN_REQUESTS.to_string();
    for n in ["99999999999", "18446744073709551615"] {
        let start = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_safemem-run"))
            .args(["--app", "gzip", "--requests", n])
            .output()
            .expect("the run binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "a command-line error: {stderr}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "refused before running: {:?}",
            start.elapsed()
        );
        assert!(out.stdout.is_empty(), "ran nothing");
        assert!(
            stderr.contains("--requests") && stderr.contains(&limit),
            "names --requests and its limit {limit}: {stderr}"
        );
    }
}

#[test]
fn a_heap_sized_malloc_is_refused_with_the_line_and_limit_named() {
    // 256 MiB fits the heap but not PageGuard's or LinePadded's guards.
    let dir = std::env::temp_dir().join(format!("safemem-run-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("heap-sized.trace");
    std::fs::write(&path, "M 268435456\nF 0\n").expect("write trace");
    let limit = MAX_ALLOC_BYTES.to_string();
    for tool in ["pageguard", "safemem", "safemem-mc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_safemem-run"))
            .arg("--replay")
            .arg(&path)
            .args(["--tool", tool])
            .output()
            .expect("the run binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tool}: {stderr}");
        assert!(
            stderr.contains("line 1") && stderr.contains(&limit),
            "{tool} names the line and the limit {limit}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const FLAGS: &[&str] = &[
    "--app",
    "--tool",
    "--input",
    "--requests",
    "--seed",
    "--trace-out",
    "--replay",
    "--verbose",
    "-v",
    "--stats",
    "--list",
    "--help",
    "-h",
    "--frobnicate",
];

const APPS: &[&str] = &["gzip", "tar", "ypserv1", "squid2", "nginx", ""];

const TOOLS: &[&str] = &[
    "none",
    "safemem",
    "safemem-mc",
    "purify",
    "pageguard",
    "asan",
    "",
];

const COUNTS: &[&str] = &[
    "0",
    "1",
    "2000",
    "100000",
    "100001",
    "99999999999",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e9",
    "",
];

/// Every other kind of value a flag might meet.
const OTHER: &[&str] = &["normal", "buggy", "sideways", "trace.txt", "x"];

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
        [APPS, TOOLS, COUNTS, OTHER]
            .concat()
            .get(i)
            .map_or_else(String::new, |v| (*v).to_string())
    };
    let flag = (0..FLAGS.len()).prop_map(|i| FLAGS[i].to_string());
    let value = (0usize..40).prop_map(any_value);
    prop_oneof![
        (flag.clone(), value.clone()).prop_map(|(f, v)| vec![f, v]),
        flag.prop_map(|f| vec![f]),
        value.prop_map(|v| vec![v]),
    ]
}

/// An argv: the flags that choose and size a run, each maybe present, then
/// noise (a later repeat of a flag overrides an earlier one).
fn argv() -> impl Strategy<Value = Vec<String>> {
    (
        maybe("--app", APPS),
        maybe("--tool", TOOLS),
        maybe("--requests", COUNTS),
        maybe("--seed", COUNTS),
        proptest::collection::vec(noise(), 0..5),
    )
        .prop_map(|(app, tool, requests, seed, noise)| {
            let mut argv = Vec::new();
            for part in [app, tool, requests, seed] {
                argv.extend(part);
            }
            argv.extend(noise.into_iter().flatten());
            argv
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Cli::parse` never panics on argv built from the flag vocabulary
    /// with extreme values; every error names a flag (or is the usage text
    /// or the `--list` listing); and every accepted command line is within
    /// the request limit.
    #[test]
    fn prop_run_cli_parse_is_total_and_bounded(argv in argv()) {
        match Cli::parse(argv.clone()) {
            Err(e) => {
                let first = e.0.lines().next().unwrap_or("");
                prop_assert!(
                    e.0 == usage()
                        || first == "applications:"
                        || first.contains("--")
                        || first.starts_with("unknown flag"),
                    "{:?}: error names no flag: {}", argv, e
                );
            }
            Ok(cli) => {
                prop_assert!(
                    cli.requests.is_none_or(|n| n <= MAX_CAMPAIGN_REQUESTS),
                    "{:?}: {:?} requests", argv, cli.requests
                );
                prop_assert!(!cli.app.is_empty() || cli.replay.is_some(), "{:?}", argv);
            }
        }
    }
}
