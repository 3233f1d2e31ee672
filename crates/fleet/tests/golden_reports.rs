//! Golden fleet reports: the full [`FleetReport`] (`{:#?}`) of small trio
//! fleets, pinned as checked-in text. Each case is 9 processes (three per
//! churn class) at sampling rate 1.0 or 0.2, without restarts and with a
//! restart every 7 or 32 requests, plus two full-length generations (192
//! requests, restart every 96). Every counter is pinned: machine and
//! process cycles, page faults, swap traffic, the ECC controller counters,
//! the per-kind tallies and the per-process detection flags. A change in
//! how a process or a restart generation is placed on a machine shows up
//! here as a readable diff.
//!
//! Regenerate after an *intentional* change with:
//! `UPDATE_GOLDEN=1 cargo test -p safemem-fleet --test golden_reports`
//! then re-run without `UPDATE_GOLDEN` and commit the diff.

use safemem_fleet::{Fleet, FleetConfig, FleetReport, ProcessSpec};
use safemem_workloads::apps::ChurnKind;

const PROCESSES: u64 = 9;

/// Always-on and the fleet preset's sampling rate, in parts-per-million.
const ALWAYS_ON: u32 = 1_000_000;
const SAMPLED: u32 = 200_000;

fn trio(processes: u64, sampling_ppm: u32) -> Vec<ProcessSpec> {
    let kinds = [
        ChurnKind::Leak,
        ChurnKind::UseAfterFree,
        ChurnKind::Overflow,
    ];
    (0..processes)
        .map(|pid| ProcessSpec {
            kind: kinds[pid as usize % 3],
            workload_seed: 0x05AF_E3E3,
            sampling_ppm,
            sampling_seed: pid,
        })
        .collect()
}

fn report(sampling_ppm: u32, requests: u64, restart_every: Option<u64>) -> FleetReport {
    let config = FleetConfig {
        requests,
        restart_every,
        ..FleetConfig::default()
    };
    Fleet::boot(&trio(PROCESSES, sampling_ppm), config).run()
}

fn check_golden(name: &str, report: &FleetReport) {
    let current = format!("{report:#?}\n");
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &current).expect("golden snapshot is writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden snapshot exists; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safemem-fleet --test golden_reports",
    );
    assert!(
        golden == current,
        "{name} drifted from the golden snapshot.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p safemem-fleet --test golden_reports\n\
         and commit the diff.\n\n--- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn always_on_reports_match_the_goldens() {
    for (name, restart) in [
        ("rate1_restart_none", None),
        ("rate1_restart_7", Some(7)),
        ("rate1_restart_32", Some(32)),
    ] {
        check_golden(name, &report(ALWAYS_ON, 96, restart));
    }
}

#[test]
fn sampled_reports_match_the_goldens() {
    for (name, restart) in [
        ("rate02_restart_none", None),
        ("rate02_restart_7", Some(7)),
        ("rate02_restart_32", Some(32)),
    ] {
        check_golden(name, &report(SAMPLED, 96, restart));
    }
}

#[test]
fn two_full_generations_match_the_goldens() {
    check_golden("rate1_192_restart_96", &report(ALWAYS_ON, 192, Some(96)));
    check_golden("rate02_192_restart_96", &report(SAMPLED, 192, Some(96)));
}
