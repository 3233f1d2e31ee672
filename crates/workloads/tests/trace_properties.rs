//! Property tests for trace record/replay: text-format round-tripping for
//! arbitrary traces, a parser that never panics and never accepts an id no
//! earlier `M` bound, and behavioural equivalence between a recorded run
//! and its replay.

use std::sync::OnceLock;

use proptest::prelude::*;
use safemem_core::{NullTool, SafeMem};
use safemem_os::Os;
use safemem_workloads::{workload_by_name, InputMode, Recorder, RunConfig, Trace, TraceOp};

fn trace_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (
            (1u64..4096),
            proptest::collection::vec(1u64..u64::MAX, 1..5)
        )
            .prop_map(|(size, frames)| TraceOp::Malloc { size, frames }),
        (0u32..64).prop_map(|id| TraceOp::Free { id }),
        ((0u32..64), (0i64..4096), (1u32..512)).prop_map(|(id, offset, len)| TraceOp::Read {
            id,
            offset,
            len
        }),
        ((0u32..64), (0i64..4096), (1u32..512), any::<u8>()).prop_map(|(id, offset, len, fill)| {
            TraceOp::Write {
                id,
                offset,
                len,
                fill,
            }
        }),
        ((1u64..1_000_000), (0u64..100_000)).prop_map(|(cycles, mem_accesses)| TraceOp::Compute {
            cycles,
            mem_accesses
        }),
        (1u64..10_000_000).prop_map(|ns| TraceOp::Io { ns }),
    ]
}

/// The buffer id an op names, if it names one.
fn op_id(op: &TraceOp) -> Option<u32> {
    match op {
        TraceOp::Free { id }
        | TraceOp::FreeAgain { id }
        | TraceOp::Read { id, .. }
        | TraceOp::ReadFreed { id, .. }
        | TraceOp::Write { id, .. }
        | TraceOp::WriteFreed { id, .. } => Some(*id),
        TraceOp::Malloc { .. }
        | TraceOp::Compute { .. }
        | TraceOp::Io { .. }
        | TraceOp::Marker { .. } => None,
    }
}

/// Whether every id the trace names was bound by an earlier `Malloc` — the
/// invariant the columnar replayer's debug assertion relies on.
fn ids_are_bound(trace: &Trace) -> bool {
    let mut bound = 0u32;
    trace.ops().iter().all(|op| match op {
        TraceOp::Malloc { .. } => {
            bound += 1;
            true
        }
        other => op_id(other).is_none_or(|id| id < bound),
    })
}

/// Tokens the garbage and mutation strategies draw from: every op tag and
/// marker class, ids around the `u32` boundary, and malformed numbers.
const TOKENS: &[&str] = &[
    "M",
    "F",
    "R",
    "W",
    "C",
    "I",
    "RF",
    "WF",
    "FF",
    "K",
    "O",
    "U",
    "D",
    "X",
    "#",
    "0",
    "1",
    "7",
    "-1",
    "+1",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "0x",
    "0x10",
    "0xffffffffffffffff",
    "0x1g",
    "",
    "é",
];

/// Recordings of gzip and the use-after-free and double-free CVE servers,
/// serialised once: between them they hold allocation, access, compute,
/// freed-access and marker lines.
fn recorded_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut text = String::new();
        for name in ["gzip", "cve-uaf", "cve-dfree"] {
            let workload = workload_by_name(name).expect("registered workload");
            let mut os = Os::with_defaults(1 << 25);
            let mut base = NullTool::new();
            let mut recorder = Recorder::with_freed_tracking(&mut base);
            let cfg = RunConfig {
                input: InputMode::Buggy,
                requests: Some(8),
                ..RunConfig::default()
            };
            workload.run(&mut os, &mut recorder, &cfg);
            text.push_str(&recorder.into_trace().to_text());
        }
        text
    })
}

/// Parses `text`; an accepted trace must name only bound ids, and a
/// rejection must name the offending line.
fn check_parse(text: &str) -> Result<(), TestCaseError> {
    match Trace::from_text(text) {
        Ok(trace) => prop_assert!(ids_are_bound(&trace), "unbound id accepted: {text:?}"),
        Err(e) => prop_assert!(e.starts_with("line "), "error names no line: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any trace whose ids are bound survives a text round trip
    /// bit-exactly.
    #[test]
    fn prop_text_roundtrip(ops in proptest::collection::vec(trace_op(), 0..60)) {
        let mut trace = Trace::new();
        let mut bound = 0u32;
        for op in ops {
            if op_id(&op).is_some_and(|id| id >= bound) {
                continue;
            }
            bound += u32::from(matches!(op, TraceOp::Malloc { .. }));
            trace.push(op);
        }
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).expect("own output parses");
        prop_assert_eq!(parsed, trace);
    }

    /// The parser never panics on arbitrary text — a soup of trace tokens
    /// and separators, or raw bytes — and whatever it accepts names only
    /// bound ids.
    #[test]
    fn prop_from_text_never_panics_on_arbitrary_text(
        soup in proptest::collection::vec((0..TOKENS.len(), 0usize..3), 0..48),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let text: String = soup
            .iter()
            .map(|&(token, sep)| format!("{}{}", TOKENS[token], [" ", "\n", "\t"][sep]))
            .collect();
        check_parse(&text)?;
        check_parse(&String::from_utf8_lossy(&bytes))?;
    }

    /// Replacing (or deleting) any single token of a recorded trace's text
    /// never panics the parser, and never smuggles an unbound id through.
    #[test]
    fn prop_from_text_never_panics_on_mutated_recordings(
        position in any::<usize>(),
        token in 0..TOKENS.len(),
    ) {
        let text = recorded_text();
        let target = position % text.split_whitespace().count();
        let mut seen = 0;
        let mutated: String = text
            .lines()
            .map(|line| {
                let mut words: Vec<&str> = line.split_whitespace().collect();
                if (seen..seen + words.len()).contains(&target) {
                    words[target - seen] = TOKENS[token];
                }
                seen += words.len();
                words.join(" ") + "\n"
            })
            .collect();
        check_parse(&mutated)?;
    }

    /// Replaying a trace is deterministic: two replays under identical
    /// fresh tools consume identical CPU time and produce identical report
    /// counts. (Traces here are *well-formed programs*: in-bounds accesses
    /// to live buffers only.)
    #[test]
    fn prop_replay_deterministic(
        sizes in proptest::collection::vec(1u64..800, 1..12),
    ) {
        let mut trace = Trace::new();
        for (i, &size) in sizes.iter().enumerate() {
            trace.push(TraceOp::Malloc { size, frames: vec![0x400_000, i as u64] });
            trace.push(TraceOp::Write { id: i as u32, offset: 0, len: size as u32, fill: i as u8 });
            trace.push(TraceOp::Compute { cycles: 10_000, mem_accesses: 1_000 });
            trace.push(TraceOp::Read { id: i as u32, offset: 0, len: size as u32 });
            trace.push(TraceOp::Free { id: i as u32 });
        }
        let run = |trace: &Trace| {
            let mut os = Os::with_defaults(1 << 24);
            let mut tool = SafeMem::builder().build(&mut os);
            let result = trace.replay(&mut os, &mut tool);
            (result.cpu_cycles, result.reports.len())
        };
        prop_assert_eq!(run(&trace), run(&trace));
    }

    /// A well-formed trace replays cleanly under both the baseline and
    /// SafeMem (no false reports from the replay machinery itself).
    #[test]
    fn prop_clean_traces_replay_clean(
        sizes in proptest::collection::vec(1u64..800, 1..10),
    ) {
        let mut trace = Trace::new();
        for (i, &size) in sizes.iter().enumerate() {
            trace.push(TraceOp::Malloc { size, frames: vec![0x400_000, i as u64] });
            trace.push(TraceOp::Write { id: i as u32, offset: 0, len: size as u32, fill: 7 });
        }
        for i in 0..sizes.len() {
            trace.push(TraceOp::Free { id: i as u32 });
        }
        let mut os = Os::with_defaults(1 << 24);
        let mut base = NullTool::new();
        prop_assert!(trace.replay(&mut os, &mut base).reports.is_empty());
        let mut os = Os::with_defaults(1 << 24);
        let mut tool = SafeMem::builder().build(&mut os);
        let result = trace.replay(&mut os, &mut tool);
        prop_assert!(
            !result.reports.iter().any(safemem_core::BugReport::is_corruption),
            "{:?}",
            result.reports
        );
    }
}

/// Every registered workload's normal and buggy recording, at its default
/// request count, parses back: the parser's size and span bounds reject
/// only hostile traces, never a real one.
#[test]
fn every_registered_recording_parses() {
    let workloads = safemem_workloads::all_workloads()
        .into_iter()
        .chain(safemem_workloads::extension_workloads())
        .chain(safemem_workloads::cve_workloads())
        .chain(safemem_workloads::churn_workloads());
    for workload in workloads {
        for input in [InputMode::Normal, InputMode::Buggy] {
            let mut os = Os::with_defaults(1 << 26);
            let mut base = NullTool::new();
            let mut recorder = if workload.records_freed_accesses() {
                Recorder::with_freed_tracking(&mut base)
            } else {
                Recorder::new(&mut base)
            };
            let cfg = RunConfig {
                input,
                ..RunConfig::default()
            };
            workload.run(&mut os, &mut recorder, &cfg);
            let trace = recorder.into_trace();
            let parsed = Trace::from_text(&trace.to_text());
            assert_eq!(
                parsed.as_ref(),
                Ok(&trace),
                "{} {input:?}",
                workload.spec().name
            );
        }
    }
}
