//! Continuous-memory-leak detection (paper §3).
//!
//! Three steps, all performed only at allocation/deallocation time:
//!
//! 1. **Behaviour collection** — per-group lifetime and usage statistics
//!    ([`GroupStats`]).
//! 2. **Outlier detection** — ALeak groups (never freed, live count above
//!    threshold, still actively growing) and SLeak objects (alive longer
//!    than twice the group's stable maximal lifetime).
//! 3. **False-positive pruning with ECC** — suspects are watched with
//!    `WatchMemory`; the first access proves the object live and prunes it
//!    (also raising the group's expected maximal lifetime); a suspect that
//!    stays untouched past a threshold is reported as a leak.
//!
//! Host-side cost is kept off the allocation fast path by **epoch
//! batching** (in the style of DoubleTake's evidence-based dynamic
//! analysis): between detection passes the detector only appends the
//! touched group to an epoch evidence set, and all deadline recomputation
//! is settled once at the next epoch boundary (the pass itself). A group
//! that allocates ten thousand times inside one check period costs ten
//! thousand set inserts and a single reschedule instead of ten thousand
//! ordered-set edits. Passes then examine only the groups whose deadline
//! has arrived. The full scan (`incremental_check = false` in
//! [`LeakConfig`]) is the reference this schedule is tested against:
//! reports, counters, and simulated cycle charges are identical.
//!
//! Deferring the reschedule is sound because a group's deadline is a pure
//! function of statistics that change only on alloc/free/prune events, and
//! every such event marks the group pending: the settle at pass entry
//! refreshes every touched group before candidates are gathered, and an
//! untouched group's old entry is still valid.

use crate::groups::GroupStats;
use crate::report::{BugReport, LeakKind};
use crate::signature::{CallStack, GroupKey};
use safemem_hashfx::{FxHashMap, FxHashSet};
use safemem_os::{Os, OsError};
use std::collections::BTreeSet;

/// Tuning parameters for the leak detector. All times are CPU cycles of the
/// monitored process (the paper measures lifetimes in CPU time, §3.1).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LeakConfig {
    /// Minimum CPU time between detection passes (the checking-period).
    pub check_period: u64,
    /// CPU time before the first detection pass (the warm-up period).
    pub warmup: u64,
    /// Fractional slack on the maximal lifetime before stability resets.
    pub tolerance: f64,
    /// ALeak: live-object count that makes a never-freed group suspicious.
    pub aleak_live_threshold: usize,
    /// ALeak: the group must have allocated within this window to count as
    /// "still growing".
    pub aleak_recent_window: u64,
    /// ALeak: how many of the oldest objects to watch per suspicious group.
    pub aleak_sample: usize,
    /// SLeak: lifetime multiple of the stable maximum that flags an object.
    pub sleak_factor: f64,
    /// SLeak: required `stable_time` before outliers are trusted.
    pub sleak_stable_threshold: u64,
    /// SLeak: how many of the oldest live objects to examine per pass.
    pub sleak_sample: usize,
    /// A watched suspect untouched for this long is reported as a leak.
    pub report_after: u64,
    /// After a pruned false positive, leave the group alone this long.
    pub prune_cooldown: u64,
    /// `true` — the paper's design: suspects are ECC-watched and pruned on
    /// access. `false` — report at suspicion time (the "before pruning"
    /// column of Table 5).
    pub prune_with_ecc: bool,
    /// Bookkeeping cycles charged per wrapped allocation/deallocation
    /// (group lookup + stats update — the paper's "information collection").
    pub update_cycles: u64,
    /// Cycles charged per group examined in a detection pass.
    pub check_group_cycles: u64,
    /// `true` — detection passes consult the epoch-batched deadline
    /// schedule and examine only groups that could cross an ALeak/SLeak
    /// threshold. `false` — rescan every group each pass (the reference
    /// oracle). Both modes produce byte-identical reports, statistics, and
    /// simulated cycle charges; the schedule saves host time only.
    pub incremental_check: bool,
}

impl Default for LeakConfig {
    fn default() -> Self {
        // Calibrated for workloads whose requests take tens of microseconds
        // of simulated CPU time (cycles at 2.4 GHz).
        LeakConfig {
            check_period: 1_200_000, // 0.5 ms
            warmup: 2_400_000,       // 1 ms
            tolerance: 0.3,
            aleak_live_threshold: 64,
            aleak_recent_window: 4_800_000, // 2 ms
            aleak_sample: 4,
            sleak_factor: 2.0,
            sleak_stable_threshold: 2_400_000, // 1 ms
            sleak_sample: 4,
            report_after: 24_000_000,   // 10 ms
            prune_cooldown: 12_000_000, // 5 ms
            prune_with_ecc: true,
            update_cycles: 150,
            check_group_cycles: 40,
            incremental_check: true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ObjectInfo {
    group: GroupKey,
    size: u64,
}

#[derive(Debug, Clone, Copy)]
struct Suspect {
    addr: u64,
    size: u64,
    group: GroupKey,
    kind: LeakKind,
    watched_at: u64,
    /// Allocation time when the object became a suspect (for raising the
    /// group maximum after a prune).
    alloc_time: u64,
}

/// Leak-detector counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LeakStats {
    /// Detection passes executed.
    pub checks: u64,
    /// Suspects flagged (pre-pruning).
    pub suspects_flagged: u64,
    /// Suspects pruned by an ECC-detected access (false positives avoided).
    pub suspects_pruned: u64,
    /// Leaks reported.
    pub leaks_reported: u64,
}

/// The SafeMem memory-leak detector.
#[derive(Debug)]
pub struct LeakDetector {
    config: LeakConfig,
    line: u64,
    groups: FxHashMap<GroupKey, GroupStats>,
    objects: FxHashMap<u64, ObjectInfo>,
    /// Watched suspects keyed by watch-region start.
    suspects: FxHashMap<u64, Suspect>,
    suspect_region_by_addr: FxHashMap<u64, u64>,
    reported_groups: FxHashSet<GroupKey>,
    reports: Vec<BugReport>,
    last_check: u64,
    stats: LeakStats,
    /// Incremental-check schedule: `(deadline, group)` ordered by the
    /// earliest CPU time a detection pass could flag a candidate from that
    /// group. Groups without an entry cannot fire until a stat-changing
    /// event (alloc/free/prune) reschedules them.
    schedule: BTreeSet<(u64, GroupKey)>,
    /// Current schedule entry per group, for O(log n) replacement.
    deadlines: FxHashMap<GroupKey, u64>,
    /// Epoch evidence: groups touched by an alloc/free/prune since the
    /// last detection pass, awaiting one settle-time reschedule each.
    epoch_pending: FxHashSet<GroupKey>,
}

impl LeakDetector {
    /// Creates a detector for a machine with `line` -byte cache lines.
    #[must_use]
    pub fn new(config: LeakConfig, line: u64) -> Self {
        LeakDetector {
            config,
            line,
            groups: FxHashMap::default(),
            objects: FxHashMap::default(),
            suspects: FxHashMap::default(),
            suspect_region_by_addr: FxHashMap::default(),
            reported_groups: FxHashSet::default(),
            reports: Vec::new(),
            last_check: 0,
            stats: LeakStats::default(),
            schedule: BTreeSet::new(),
            deadlines: FxHashMap::default(),
            epoch_pending: FxHashSet::default(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> LeakStats {
        self.stats
    }

    /// Reports accumulated so far.
    #[must_use]
    pub fn reports(&self) -> &[BugReport] {
        &self.reports
    }

    /// Iterates over groups and their statistics (drives Figure 3).
    pub fn groups(&self) -> impl Iterator<Item = (&GroupKey, &GroupStats)> {
        self.groups.iter()
    }

    /// A heap-profiler view of the collected §3.2.1 usage statistics: the
    /// `top` groups by live bytes, as
    /// `(group, live objects, live bytes, max lifetime)`.
    #[must_use]
    pub fn usage_snapshot(&self, top: usize) -> Vec<(GroupKey, usize, u64, u64)> {
        let mut rows: Vec<(GroupKey, usize, u64, u64)> = self
            .groups
            .iter()
            .map(|(k, g)| (*k, g.live_count(), g.live_bytes, g.max_lifetime))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        rows.truncate(top);
        rows
    }

    /// The watchable line-aligned region inside an object, if any.
    fn watch_region(&self, addr: u64, size: u64) -> Option<(u64, u64)> {
        let start = addr.div_ceil(self.line) * self.line;
        let end = (addr + size.max(1)).div_ceil(self.line) * self.line;
        // Line-aligned layouts guarantee the rounded region stays inside the
        // placement stride; for natural layouts only full interior lines are
        // safe, so require the object to start aligned.
        if !addr.is_multiple_of(self.line) || end <= start {
            None
        } else {
            Some((start, end - start))
        }
    }

    /// The earliest CPU time a detection pass could flag a candidate from
    /// `group`, or `None` if no future pass can until an alloc/free/prune
    /// changes the statistics (every such event reschedules).
    ///
    /// The bound is conservative: examining a group whose condition does
    /// not actually hold is side-effect-free (the per-group check simply
    /// produces no candidates), so a stale-but-early deadline costs host
    /// time, never correctness. What must hold — and does, case by case —
    /// is that whenever the naive scan would produce a candidate at time
    /// `t`, this group's schedule entry satisfies `deadline <= t`.
    fn deadline_of(group: &GroupStats, config: &LeakConfig, now: u64) -> Option<u64> {
        if !group.has_freed() {
            // ALeak fires while live_count > threshold (changes only on
            // alloc/free) and the group allocated within the recency
            // window: t ∈ [cooldown_until, last_alloc_time + window].
            if group.live_count() <= config.aleak_live_threshold {
                return None;
            }
            let window_end = group
                .last_alloc_time
                .saturating_add(config.aleak_recent_window);
            if window_end < now || group.cooldown_until > window_end {
                return None; // window already closed (or fully cooled down)
            }
            Some(group.cooldown_until)
        } else {
            // SLeak needs a trusted lifetime profile (changes only on
            // free/prune) and fires once the oldest live object's age
            // strictly exceeds the limit.
            if group.stable_time < config.sleak_stable_threshold || group.max_lifetime == 0 {
                return None;
            }
            let oldest = group.oldest_alloc_time()?;
            let limit = (group.max_lifetime as f64 * config.sleak_factor) as u64;
            Some(
                oldest
                    .saturating_add(limit)
                    .saturating_add(1)
                    .max(group.cooldown_until),
            )
        }
    }

    /// Recomputes `key`'s deadline and replaces its schedule entry.
    fn reschedule(&mut self, key: GroupKey, now: u64) {
        let deadline = self
            .groups
            .get(&key)
            .and_then(|g| Self::deadline_of(g, &self.config, now));
        if let Some(old) = self.deadlines.remove(&key) {
            self.schedule.remove(&(old, key));
        }
        if let Some(d) = deadline {
            self.deadlines.insert(key, d);
            self.schedule.insert((d, key));
        }
    }

    /// The per-group half of a detection pass (paper §3.2.2), shared
    /// verbatim by the naive scan and the incremental schedule so the two
    /// modes cannot diverge.
    fn collect_candidates(
        group: &GroupStats,
        config: &LeakConfig,
        now: u64,
        candidates: &mut Vec<(u64, LeakKind)>,
    ) {
        if now < group.cooldown_until {
            return;
        }
        if !group.has_freed() {
            // ALeak: many live objects and still actively growing.
            let growing = now.saturating_sub(group.last_alloc_time) <= config.aleak_recent_window;
            if group.live_count() > config.aleak_live_threshold && growing {
                for (_, addr) in group.oldest_live(config.aleak_sample) {
                    candidates.push((addr, LeakKind::ALeak));
                }
            }
        } else if group.stable_time >= config.sleak_stable_threshold && group.max_lifetime > 0 {
            // SLeak: objects alive far beyond the stable maximum.
            let limit = (group.max_lifetime as f64 * config.sleak_factor) as u64;
            for (alloc_time, addr) in group.oldest_live(config.sleak_sample) {
                if now.saturating_sub(alloc_time) > limit {
                    candidates.push((addr, LeakKind::SLeak));
                } else {
                    break; // allocation-ordered: the rest are younger
                }
            }
        }
    }

    /// Records an allocation (wraps `malloc`/`calloc`, paper §3.2.1).
    pub fn on_alloc(&mut self, os: &mut Os, addr: u64, size: u64, stack: &CallStack) {
        os.compute(self.config.update_cycles);
        let now = os.cpu_cycles();
        let group = GroupKey::new(size, stack);
        self.groups
            .entry(group)
            .or_default()
            .on_alloc(addr, size, now);
        self.objects.insert(addr, ObjectInfo { group, size });
        self.epoch_pending.insert(group);
        self.maybe_check(os);
    }

    /// Records a deallocation (wraps `free`).
    pub fn on_free(&mut self, os: &mut Os, addr: u64) {
        os.compute(self.config.update_cycles);
        let Some(info) = self.objects.remove(&addr) else {
            return;
        };
        // A watched suspect that gets freed is trivially not a leak.
        if let Some(region) = self.suspect_region_by_addr.remove(&addr) {
            self.suspects.remove(&region);
            let _ = os.disable_watch_memory(region);
        }
        let now = os.cpu_cycles();
        let tolerance = self.config.tolerance;
        let group = self
            .groups
            .get_mut(&info.group)
            .expect("group exists for live object");
        let first_free = !group.has_freed();
        group.on_free(addr, info.size, now, tolerance);
        if first_free {
            // The group just demonstrated a deallocation path: the ALeak
            // premise ("never freed on any path", §3.2.2) no longer holds,
            // so retire its ALeak suspects unreported. The group is judged
            // by the SLeak procedure from now on.
            let stale: Vec<u64> = self
                .suspects
                .iter()
                .filter(|(_, s)| s.group == info.group && s.kind == LeakKind::ALeak)
                .map(|(&region, _)| region)
                .collect();
            for region in stale {
                let suspect = self.suspects.remove(&region).expect("listed");
                self.suspect_region_by_addr.remove(&suspect.addr);
                let _ = os.disable_watch_memory(region);
                self.stats.suspects_flagged -= 1;
            }
        }
        self.epoch_pending.insert(info.group);
        self.maybe_check(os);
    }

    fn maybe_check(&mut self, os: &mut Os) {
        let now = os.cpu_cycles();
        if now < self.config.warmup
            || now.saturating_sub(self.last_check) < self.config.check_period
        {
            return;
        }
        self.run_check(os);
    }

    /// Runs one detection pass (paper §3.2.2) immediately.
    ///
    /// The simulated charge is `groups × check_group_cycles` in both check
    /// modes — it models what the paper's detector pays, and the
    /// incremental schedule is a host-side shortcut, not a change to the
    /// modelled cost.
    pub fn run_check(&mut self, os: &mut Os) {
        os.compute(self.groups.len() as u64 * self.config.check_group_cycles);
        let now = os.cpu_cycles();
        self.last_check = now;
        self.stats.checks += 1;

        // Epoch boundary: settle the accumulated evidence. Each touched
        // group gets exactly one deadline recomputation, however many
        // events it logged during the epoch. Must happen before the due
        // set is read so freshly-eligible groups are examined this pass.
        if !self.epoch_pending.is_empty() {
            let pending: Vec<GroupKey> = self.epoch_pending.drain().collect();
            for key in pending {
                self.reschedule(key, now);
            }
        }

        // Gather candidates first (borrow discipline), then act.
        let mut candidates: Vec<(u64, LeakKind)> = Vec::new();
        if self.config.incremental_check {
            // Only groups whose deadline has arrived can produce a
            // candidate; examine those with the shared per-group check and
            // refresh their deadlines.
            let due: Vec<GroupKey> = self
                .schedule
                .iter()
                .take_while(|&&(deadline, _)| deadline <= now)
                .map(|&(_, key)| key)
                .collect();
            for key in due {
                let group = &self.groups[&key];
                Self::collect_candidates(group, &self.config, now, &mut candidates);
                self.reschedule(key, now);
            }
        } else {
            for (_, group) in self.groups.iter() {
                Self::collect_candidates(group, &self.config, now, &mut candidates);
            }
        }
        for (addr, kind) in candidates {
            self.suspect(os, addr, kind);
        }

        // Report watched suspects that have stayed untouched long enough.
        let expired: Vec<u64> = self
            .suspects
            .iter()
            .filter(|(_, s)| now.saturating_sub(s.watched_at) >= self.config.report_after)
            .map(|(&region, _)| region)
            .collect();
        for region in expired {
            let suspect = self.suspects.remove(&region).expect("listed");
            self.suspect_region_by_addr.remove(&suspect.addr);
            let _ = os.disable_watch_memory(region);
            self.report(suspect, now);
        }
    }

    fn report(&mut self, suspect: Suspect, now: u64) {
        if !self.reported_groups.insert(suspect.group) {
            return; // one report per group keeps the programmer-facing list short
        }
        self.stats.leaks_reported += 1;
        self.reports.push(BugReport::Leak {
            addr: suspect.addr,
            size: suspect.size,
            group: suspect.group,
            kind: suspect.kind,
            at_cpu_cycles: now,
        });
    }

    fn suspect(&mut self, os: &mut Os, addr: u64, kind: LeakKind) {
        if self.suspect_region_by_addr.contains_key(&addr) {
            return;
        }
        let Some(&info) = self.objects.get(&addr) else {
            return;
        };
        if self.reported_groups.contains(&info.group) {
            return;
        }
        let now = os.cpu_cycles();
        let alloc_time = self.groups[&info.group]
            .alloc_time_of(addr)
            .expect("live object has an allocation time");
        let suspect = Suspect {
            addr,
            size: info.size,
            group: info.group,
            kind,
            watched_at: now,
            alloc_time,
        };
        self.stats.suspects_flagged += 1;

        if !self.config.prune_with_ecc {
            // No ECC pruning available: every suspect becomes a report.
            self.report(suspect, now);
            return;
        }
        let Some((start, len)) = self.watch_region(addr, info.size) else {
            // Cannot watch (misaligned object): fall back to reporting.
            self.report(suspect, now);
            return;
        };
        match os.watch_memory(start, len) {
            Ok(()) => {
                self.suspects.insert(start, suspect);
                self.suspect_region_by_addr.insert(addr, start);
            }
            // Overlap with another watched region (e.g. an uninitialised-
            // read watch) or pinned-memory pressure: skip this round.
            Err(OsError::AlreadyWatched { .. } | OsError::OutOfMemory) => {
                self.stats.suspects_flagged -= 1;
            }
            Err(e) => panic!("unexpected watch failure: {e}"),
        }
    }

    /// Handles an ECC fault whose region start is `region`: if it belongs to
    /// a leak suspect, prunes the false positive (paper §3.2.3) and returns
    /// `true`.
    pub fn handle_fault(&mut self, os: &mut Os, region: u64) -> bool {
        let Some(suspect) = self.suspects.remove(&region) else {
            return false;
        };
        self.suspect_region_by_addr.remove(&suspect.addr);
        os.disable_watch_memory(region)
            .expect("suspect region was watched");
        let now = os.cpu_cycles();
        self.stats.suspects_pruned += 1;
        let group = self
            .groups
            .get_mut(&suspect.group)
            .expect("group of live suspect");
        // The suspect proved live: raise the expected maximal lifetime to
        // its observed age, restart its clock, and back off the group.
        group.raise_max_lifetime(now.saturating_sub(suspect.alloc_time), now);
        group.reset_alloc_time(suspect.addr, now);
        group.cooldown_until = now + self.config.prune_cooldown;
        self.epoch_pending.insert(suspect.group);
        true
    }

    /// Final pass at program end: one more check so long-watched suspects
    /// are reported even if the program stops allocating.
    pub fn finish(&mut self, os: &mut Os) {
        self.run_check(os);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safemem_os::OsFault;

    const LINE: u64 = 64;

    fn quick_config() -> LeakConfig {
        LeakConfig {
            check_period: 1_000,
            warmup: 0,
            aleak_live_threshold: 8,
            aleak_recent_window: 1_000_000,
            sleak_stable_threshold: 1_000,
            report_after: 1_000_000,
            prune_cooldown: 50_000,
            ..LeakConfig::default()
        }
    }

    fn os() -> Os {
        let mut os = Os::with_defaults(1 << 22);
        os.register_ecc_fault_handler();
        os
    }

    fn stack(site: u64) -> CallStack {
        CallStack::new(&[0x400_000, site])
    }

    /// Allocate line-aligned addresses by hand (the tests drive the detector
    /// directly, without the full SafeMem tool).
    fn addr_of(i: u64) -> u64 {
        safemem_os::HEAP_BASE + i * 128
    }

    #[test]
    fn aleak_group_gets_watched_then_reported() {
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        // A never-freed group that keeps growing.
        for i in 0..32 {
            os.compute(500);
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xA));
        }
        assert!(det.stats().suspects_flagged > 0, "ALeak suspects flagged");
        assert!(os.watched_region_count() > 0, "suspects are ECC-watched");
        // Let the report threshold pass with no accesses.
        os.compute(2_000_000);
        det.on_alloc(&mut os, addr_of(99), 64, &stack(0xA));
        assert_eq!(det.stats().leaks_reported, 1, "one report per group");
        assert!(matches!(
            det.reports()[0],
            BugReport::Leak {
                kind: LeakKind::ALeak,
                ..
            }
        ));
    }

    #[test]
    fn sleak_outlier_detected_after_stability() {
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        let leaked = addr_of(1000);
        det.on_alloc(&mut os, leaked, 64, &stack(0xB)); // will never be freed
                                                        // Many normal alloc/free pairs with ~2k-cycle lifetimes.
        for i in 0..64 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xB));
            os.compute(2_000);
            det.on_free(&mut os, addr_of(i));
        }
        os.compute(2_000_000);
        det.on_alloc(&mut os, addr_of(2000), 64, &stack(0xB));
        det.run_check(&mut os);
        assert!(
            det.reports().iter().any(|r| matches!(r, BugReport::Leak { addr, kind: LeakKind::SLeak, .. } if *addr == leaked)),
            "leaked object reported: {:?}",
            det.reports()
        );
    }

    #[test]
    fn accessed_suspect_is_pruned_not_reported() {
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        let idle = addr_of(500);
        os.vwrite(idle, &[7u8; 64]).unwrap();
        det.on_alloc(&mut os, idle, 64, &stack(0xC));
        for i in 0..64 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xC));
            os.compute(2_000);
            det.on_free(&mut os, addr_of(i));
        }
        os.compute(50_000);
        det.run_check(&mut os);
        assert!(
            det.stats().suspects_flagged > 0,
            "idle object becomes a suspect"
        );

        // The program touches the suspect: ECC fault → prune.
        let mut buf = [0u8; 8];
        let fault = os.vread(idle, &mut buf).unwrap_err();
        let OsFault::Ecc(user) = fault else {
            panic!("expected ECC fault")
        };
        assert!(det.handle_fault(&mut os, user.region_vaddr));
        assert_eq!(det.stats().suspects_pruned, 1);

        // Retried access now sees the data.
        os.vread(idle, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);

        // Even long after, the pruned object is not reported.
        os.compute(500_000);
        det.run_check(&mut os);
        assert_eq!(det.stats().leaks_reported, 0);
    }

    #[test]
    fn without_ecc_pruning_suspects_become_reports() {
        let mut os = os();
        let mut cfg = quick_config();
        cfg.prune_with_ecc = false;
        let mut det = LeakDetector::new(cfg, LINE);
        let idle = addr_of(500);
        det.on_alloc(&mut os, idle, 64, &stack(0xD));
        for i in 0..64 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xD));
            os.compute(2_000);
            det.on_free(&mut os, addr_of(i));
        }
        os.compute(50_000);
        det.run_check(&mut os);
        assert_eq!(
            det.stats().leaks_reported,
            1,
            "reported immediately, no watch"
        );
        assert_eq!(os.watched_region_count(), 0);
    }

    #[test]
    fn freed_suspect_is_unwatched_and_cleared() {
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        let idle = addr_of(500);
        det.on_alloc(&mut os, idle, 64, &stack(0xE));
        for i in 0..64 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xE));
            os.compute(2_000);
            det.on_free(&mut os, addr_of(i));
        }
        os.compute(50_000);
        det.run_check(&mut os);
        assert!(os.watched_region_count() > 0);
        det.on_free(&mut os, idle);
        assert_eq!(os.watched_region_count(), 0);
        os.compute(500_000);
        det.run_check(&mut os);
        assert_eq!(det.stats().leaks_reported, 0);
    }

    #[test]
    fn quiescent_group_is_not_an_aleak() {
        let mut os = os();
        let mut cfg = quick_config();
        cfg.aleak_recent_window = 10_000;
        // The warm-up period (paper §3.2.2) keeps init-phase allocation
        // bursts from being mistaken for growth.
        cfg.warmup = 100_000;
        let mut det = LeakDetector::new(cfg, LINE);
        // Init-time allocations that stop growing (e.g. startup tables).
        for i in 0..32 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xF));
        }
        os.compute(1_000_000); // long quiet period
        det.run_check(&mut os);
        assert_eq!(det.stats().suspects_flagged, 0, "not growing → not a leak");
    }

    #[test]
    fn usage_snapshot_ranks_by_live_bytes() {
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        for i in 0..4 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xAA));
        }
        det.on_alloc(&mut os, addr_of(10), 1024, &stack(0xBB));
        let snap = det.usage_snapshot(2);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].2, 1024, "heaviest group first");
        assert_eq!(snap[1].1, 4, "four live objects in the smaller group");
        assert_eq!(det.usage_snapshot(10).len(), 2, "truncation only");
    }

    #[test]
    fn empty_group_after_full_churn_is_inert() {
        // Boundary: a group whose every object has been freed. It stays in
        // the statistics (lifetime histogram, max lifetime) but a detection
        // pass must find nothing to sample, watch, or report.
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        for i in 0..16 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0x10));
            os.compute(2_000);
            det.on_free(&mut os, addr_of(i));
        }
        os.compute(2_000_000);
        det.run_check(&mut os);
        assert_eq!(det.stats().suspects_flagged, 0, "nothing live to suspect");
        assert_eq!(det.stats().leaks_reported, 0);
        assert_eq!(os.watched_region_count(), 0);
        let (_, group) = det.groups().next().expect("group statistics persist");
        assert_eq!(group.live_count(), 0);
        assert!(group.has_freed());
    }

    #[test]
    fn single_allocation_group_is_not_suspected() {
        // Boundary: one object, never freed. The ALeak rule needs a live
        // count *above* the threshold and the SLeak rule needs a free-path
        // lifetime history, so a lone long-lived object (a singleton, say)
        // must never be flagged no matter how long it sits.
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        det.on_alloc(&mut os, addr_of(0), 64, &stack(0x11));
        for _ in 0..8 {
            os.compute(5_000_000);
            det.run_check(&mut os);
        }
        assert_eq!(det.stats().suspects_flagged, 0);
        assert_eq!(det.stats().leaks_reported, 0);
        assert!(det.stats().checks >= 8, "passes actually ran");
    }

    #[test]
    fn lifetime_exactly_at_the_sleak_limit_is_not_an_outlier() {
        // Boundary: the SLeak rule flags objects *strictly older* than
        // sleak_factor x the stable maximal lifetime. An object exactly at
        // the limit is still within expectation; one cycle past it is not.
        let mut os = os();
        let mut det = LeakDetector::new(quick_config(), LINE);
        // Establish a stable lifetime profile first.
        for i in 0..64 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0x12));
            os.compute(2_000);
            det.on_free(&mut os, addr_of(i));
        }
        let victim = addr_of(500);
        det.on_alloc(&mut os, victim, 64, &stack(0x12));
        let (max_lifetime, alloc_time, stable_time) = {
            let (_, g) = det.groups().next().expect("one group");
            (
                g.max_lifetime,
                g.alloc_time_of(victim).expect("victim is live"),
                g.stable_time,
            )
        };
        let cfg = quick_config();
        assert!(
            stable_time >= cfg.sleak_stable_threshold,
            "profile is stable ({stable_time} cycles)"
        );
        let limit = (max_lifetime as f64 * cfg.sleak_factor) as u64;

        // run_check charges check_group_cycles per group *before* reading
        // the clock; compensate so `now` lands exactly on alloc_time+limit.
        let overhead = cfg.check_group_cycles; // one group
        let target_pre = alloc_time + limit - overhead;
        os.compute(target_pre - os.cpu_cycles());
        det.run_check(&mut os);
        assert_eq!(os.cpu_cycles(), alloc_time + limit, "clock math holds");
        assert_eq!(
            det.stats().suspects_flagged,
            0,
            "age == limit is within expectation"
        );

        // The next pass advances the clock past the limit: now a suspect.
        det.run_check(&mut os);
        assert!(os.cpu_cycles() > alloc_time + limit);
        assert_eq!(det.stats().suspects_flagged, 1, "age > limit is an outlier");
    }

    #[test]
    fn sub_threshold_stability_gates_sleak_outliers() {
        // Boundary: an obvious outlier must NOT be flagged while the group's
        // stable_time is still below sleak_stable_threshold — the lifetime
        // estimate is not trusted yet.
        let mut os = os();
        let mut cfg = quick_config();
        cfg.sleak_stable_threshold = 1_000_000_000; // never reached here
        let mut det = LeakDetector::new(cfg, LINE);
        let victim = addr_of(500);
        det.on_alloc(&mut os, victim, 64, &stack(0x13));
        for i in 0..64 {
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0x13));
            os.compute(2_000);
            det.on_free(&mut os, addr_of(i));
        }
        os.compute(2_000_000);
        det.run_check(&mut os);
        assert_eq!(
            det.stats().suspects_flagged,
            0,
            "unstable profile must not produce suspects"
        );
    }

    #[test]
    fn incremental_and_naive_checks_are_byte_identical() {
        // Drive two detectors — one per check mode — through the same
        // scripted mixture of ALeak growth, SLeak churn with planted
        // leaks, quiescent groups, and forced passes. Reports, counters,
        // watched regions, and the simulated clock must all agree.
        let run = |incremental: bool| {
            let mut os = os();
            let mut cfg = quick_config();
            cfg.incremental_check = incremental;
            let mut det = LeakDetector::new(cfg, LINE);
            // Growing never-freed group (ALeak).
            for i in 0..32 {
                os.compute(500);
                det.on_alloc(&mut os, addr_of(i), 64, &stack(0xA1));
            }
            // Churn group with two planted leaks (SLeak).
            det.on_alloc(&mut os, addr_of(600), 64, &stack(0xA2));
            det.on_alloc(&mut os, addr_of(601), 64, &stack(0xA2));
            for i in 100..164 {
                det.on_alloc(&mut os, addr_of(i), 64, &stack(0xA2));
                os.compute(2_000);
                det.on_free(&mut os, addr_of(i));
            }
            // Quiescent group that must never fire.
            for i in 200..208 {
                det.on_alloc(&mut os, addr_of(i), 32, &stack(0xA3));
            }
            os.compute(2_000_000);
            det.run_check(&mut os);
            os.compute(2_000_000);
            det.on_alloc(&mut os, addr_of(900), 64, &stack(0xA1));
            det.run_check(&mut os);
            det.finish(&mut os);
            // Which address of a multi-suspect group gets the (single)
            // report depends on the suspects HashMap's per-instance hash
            // seed — nondeterministic even between two *naive* detectors.
            // Compare the order-insensitive observables the campaign layer
            // consumes: the (group, kind, time) set, counters, watch count,
            // and the simulated clock.
            let mut leaks: Vec<(GroupKey, LeakKind, u64)> = det
                .reports()
                .iter()
                .filter_map(|r| match r {
                    BugReport::Leak {
                        group,
                        kind,
                        at_cpu_cycles,
                        ..
                    } => Some((*group, *kind, *at_cpu_cycles)),
                    _ => None,
                })
                .collect();
            leaks.sort_unstable();
            (
                leaks,
                det.stats(),
                os.watched_region_count(),
                os.cpu_cycles(),
            )
        };
        assert_eq!(run(true), run(false));
        let (leaks, stats, _, _) = run(true);
        assert!(stats.leaks_reported > 0, "the script actually detects");
        assert!(!leaks.is_empty());
    }

    #[test]
    fn warmup_gates_detection() {
        let mut os = os();
        let mut cfg = quick_config();
        cfg.warmup = 1_000_000_000;
        let mut det = LeakDetector::new(cfg, LINE);
        for i in 0..32 {
            os.compute(500);
            det.on_alloc(&mut os, addr_of(i), 64, &stack(0xA));
        }
        assert_eq!(det.stats().checks, 0);
    }
}
