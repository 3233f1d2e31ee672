//! Golden snapshots of three ablations: the two that run the cache
//! hierarchy in configurations no other golden or benchmark workload uses,
//! the next-line prefetcher switched on (`ablation_prefetch`) and 32-, 128-
//! and 256-byte lines (`ablation_granularity`), each through the whole
//! stack at scale 0.1; and the scrub-coordination cost (`ablation_scrub`),
//! the CPU cycles a coordinated scrub cycle charges the process for 0 to
//! 1024 watched lines, 200 cycles per line for the restore and the
//! re-scramble.
//!
//! Regenerate after an *intentional* change with:
//! `UPDATE_GOLDEN=1 cargo test -p safemem-bench --test golden_ablations`

use safemem_bench::reports;

const SCALE: f64 = 0.1;

fn check_golden(name: &str, current: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, current).expect("golden snapshot is writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden snapshot exists; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safemem-bench --test golden_ablations",
    );
    assert!(
        golden == current,
        "{name} drifted from the golden snapshot.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p safemem-bench --test golden_ablations\n\
         and commit the diff.\n\n--- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn ablation_prefetch_matches_the_checked_in_golden() {
    check_golden("ablation_prefetch", &reports::ablation_prefetch(SCALE));
}

#[test]
fn ablation_granularity_matches_the_checked_in_golden() {
    check_golden(
        "ablation_granularity",
        &reports::ablation_granularity(SCALE),
    );
}

#[test]
fn ablation_scrub_matches_the_checked_in_golden() {
    check_golden("ablation_scrub", &reports::ablation_scrub());
}
