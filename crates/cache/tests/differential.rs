//! Differential test: the flat production `Hierarchy` against the naive
//! Vec-of-sets reference model in `naive/`. Both are driven with the same
//! random op sequences over 1-, 2- and 3-level geometries, 32-, 64- and
//! 128-byte lines, both write-miss policies, the prefetcher on or off, and
//! a backing whose poisoned lines fail every read. One geometry has a
//! one-set, one-way L1, where the prefetch after a demand miss evicts the
//! line just read, cutting a one-call line read short. After every op the two
//! must agree on the op's bytes and result, the traffic, the per-level
//! stats, the prefetch stats, the residency of every line, and the
//! backing's contents.

mod naive;

use naive::NaiveHierarchy;
use proptest::prelude::*;
use safemem_cache::{CacheConfig, Hierarchy, LineBacking, Traffic, WriteMissPolicy};

/// Simulated memory size; the prefetcher's limit.
const MEM: u64 = 4096;
/// Poisoning granularity: the smallest line size under test.
const GRANULE: u64 = 32;

/// Per-level (sets, ways), deliberately tiny so random ops evict
/// constantly. They cover a direct-mapped level, a fully associative one,
/// a non-power-of-two associativity, and a level of 80 slots whose
/// occupancy bitmap spans two words.
const GEOMETRIES: &[&[(u32, u32)]] = &[
    &[(2, 2)],
    &[(2, 2), (4, 2)],
    &[(2, 1), (1, 3), (4, 2)],
    &[(4, 4), (16, 5)],
    &[(1, 1), (2, 2)],
];

const LINE_SIZES: &[u32] = &[32, 64, 128];

#[derive(Debug, Clone)]
enum Op {
    Read {
        addr: u64,
        len: usize,
    },
    Write {
        addr: u64,
        len: usize,
        fill: u8,
    },
    FlushLine {
        addr: u64,
    },
    FlushRange {
        addr: u64,
        len: u64,
    },
    FlushAll,
    /// A one-call line read of up to `reads` reads of `width` bytes, the
    /// repeated hits bounded by `cap` less a traffic-dependent amount.
    ReadRun {
        addr: u64,
        width: usize,
        reads: usize,
        cap: u64,
    },
}

/// Half the addresses fall in a hot 512-byte window so that ops hit as
/// well as miss.
fn addr_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..512, 0u64..MEM - 256]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr_strategy(), 0usize..160).prop_map(|(addr, len)| Op::Read { addr, len }),
        (addr_strategy(), 0usize..160, any::<u8>()).prop_map(|(addr, len, fill)| Op::Write {
            addr,
            len,
            fill
        }),
        addr_strategy().prop_map(|addr| Op::FlushLine { addr }),
        (addr_strategy(), 0u64..256).prop_map(|(addr, len)| Op::FlushRange { addr, len }),
        Just(Op::FlushAll),
        (addr_strategy(), 0u32..4, 1usize..20, 0u64..24).prop_map(|(addr, w, reads, cap)| {
            Op::ReadRun {
                addr,
                width: 1 << w,
                reads,
                cap,
            }
        }),
    ]
}

/// Memory whose poisoned granules fail every line read that covers them,
/// like armed watchpoints. Writes always land.
#[derive(Clone)]
struct PoisonedRam {
    mem: Vec<u8>,
    poisoned: Vec<bool>,
}

impl PoisonedRam {
    fn new(poisoned_granules: &[u64]) -> Self {
        let mut poisoned = vec![false; (MEM / GRANULE) as usize];
        for &g in poisoned_granules {
            poisoned[g as usize] = true;
        }
        PoisonedRam {
            mem: (0..MEM).map(|i| (i * 7 % 251) as u8).collect(),
            poisoned,
        }
    }
}

impl LineBacking for PoisonedRam {
    type Error = u64;
    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), u64> {
        let end = addr + buf.len() as u64;
        if (addr / GRANULE..end.div_ceil(GRANULE)).any(|g| self.poisoned[g as usize]) {
            return Err(addr);
        }
        buf.copy_from_slice(&self.mem[addr as usize..end as usize]);
        Ok(())
    }
    fn write_line(&mut self, addr: u64, data: &[u8]) {
        self.mem[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }
}

/// One model's state: the hierarchy, its backing and its running traffic.
struct Side<H> {
    h: H,
    ram: PoisonedRam,
    t: Traffic,
}

/// What one op returned, for comparison.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Bytes(Result<Vec<u8>, u64>),
    Unit(Result<(), u64>),
    Flag(bool),
    Count(u64),
}

/// Applies `op` to one side. A macro rather than a trait: the two
/// hierarchies share method names, not a trait.
macro_rules! apply {
    ($side:expr, $op:expr, $line_size:expr) => {{
        let Side { h, ram, t } = &mut $side;
        match *$op {
            Op::Read { addr, len } => {
                let mut buf = vec![0u8; len];
                Outcome::Bytes(h.read(addr, &mut buf, ram, t).map(|()| buf))
            }
            Op::Write { addr, len, fill } => Outcome::Unit(h.write(addr, &vec![fill; len], ram, t)),
            Op::FlushLine { addr } => Outcome::Flag(h.flush_line(addr, ram, t)),
            Op::FlushRange { addr, len } => Outcome::Count(h.flush_range(addr, len, ram, t)),
            Op::FlushAll => {
                h.flush_all(ram, t);
                Outcome::Count(0)
            }
            Op::ReadRun {
                addr,
                width,
                reads,
                cap,
            } => {
                // Align to the width and keep the reads inside the line.
                let addr = addr - addr % width as u64;
                let reads = reads.min((($line_size - addr % $line_size) / width as u64) as usize);
                let mut buf = vec![0u8; reads * width];
                let bound = |t: &Traffic| cap.saturating_sub(t.memory_reads % 5);
                Outcome::Bytes(
                    h.read_run(addr, &mut buf, width, bound, ram, t)
                        .map(|served| {
                            buf.truncate(served * width);
                            buf
                        }),
                )
            }
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_flat_hierarchy_matches_the_naive_model(
        setup in (
            0usize..GEOMETRIES.len(),
            0usize..LINE_SIZES.len(),
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec(0u64..MEM / GRANULE, 0..6),
        ),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let (geometry, line_size, no_write_allocate, prefetch, poisoned) = setup;
        let line_size = LINE_SIZES[line_size];
        let configs: Vec<CacheConfig> = GEOMETRIES[geometry]
            .iter()
            .map(|&(sets, ways)| CacheConfig { line_size, sets, ways })
            .collect();
        let policy = if no_write_allocate {
            WriteMissPolicy::NoWriteAllocate
        } else {
            WriteMissPolicy::WriteAllocate
        };
        let ram = PoisonedRam::new(&poisoned);
        let mut flat = Side {
            h: Hierarchy::with_write_miss_policy(configs.clone(), policy),
            ram: ram.clone(),
            t: Traffic::default(),
        };
        let mut naive = Side {
            h: NaiveHierarchy::with_write_miss_policy(configs, policy),
            ram,
            t: Traffic::default(),
        };
        flat.h.set_prefetch(prefetch);
        flat.h.set_prefetch_limit(MEM);
        naive.h.set_prefetch(prefetch);
        naive.h.set_prefetch_limit(MEM);
        let ls = u64::from(line_size);
        for (i, op) in ops.iter().enumerate() {
            let got = apply!(flat, op, ls);
            let want = apply!(naive, op, ls);
            prop_assert_eq!(&got, &want, "op {} {:?}", i, op);
            prop_assert_eq!(&flat.t, &naive.t, "traffic after op {} {:?}", i, op);
            prop_assert_eq!(flat.h.level_stats(), naive.h.level_stats(), "stats after op {}", i);
            prop_assert_eq!(flat.h.prefetch_stats(), naive.h.prefetch_stats());
            for addr in (0..MEM).step_by(GRANULE as usize) {
                prop_assert_eq!(
                    flat.h.residency(addr),
                    naive.h.residency(addr),
                    "residency of {:#x} after op {} {:?}", addr, i, op
                );
            }
            prop_assert!(flat.ram.mem == naive.ram.mem, "memory after op {} {:?}", i, op);
            flat.h.assert_exclusive();
        }
        flat.h.flush_all(&mut flat.ram, &mut flat.t);
        naive.h.flush_all(&mut naive.ram, &mut naive.t);
        prop_assert!(flat.ram.mem == naive.ram.mem, "memory after the final flush");
        prop_assert_eq!(&flat.t, &naive.t);
    }
}
