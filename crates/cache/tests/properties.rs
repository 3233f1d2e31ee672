//! Property tests: the cache hierarchy must be a transparent layer — any
//! sequence of reads, writes, and flushes observes exactly the semantics of a
//! flat byte array, and the exclusive-residency invariant always holds.

use proptest::prelude::*;
use safemem_cache::{CacheConfig, Hierarchy, LineBacking, Traffic};

#[derive(Debug, Clone)]
enum Op {
    Read { addr: u64, len: usize },
    Write { addr: u64, data: Vec<u8> },
    FlushLine { addr: u64 },
    FlushAll,
}

fn op_strategy(mem_size: u64) -> impl Strategy<Value = Op> {
    let max = mem_size - 256;
    prop_oneof![
        (0..max, 1usize..128).prop_map(|(addr, len)| Op::Read { addr, len }),
        (0..max, proptest::collection::vec(any::<u8>(), 1..128))
            .prop_map(|(addr, data)| Op::Write { addr, data }),
        (0..max).prop_map(|addr| Op::FlushLine { addr }),
        Just(Op::FlushAll),
    ]
}

struct Ram(Vec<u8>);

impl LineBacking for Ram {
    type Error = std::convert::Infallible;
    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Self::Error> {
        let a = addr as usize;
        buf.copy_from_slice(&self.0[a..a + buf.len()]);
        Ok(())
    }
    fn write_line(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.0[a..a + data.len()].copy_from_slice(data);
    }
}

fn tiny_hierarchy(line_size: u32) -> Hierarchy {
    // Deliberately tiny so random workloads force constant evictions.
    Hierarchy::new(vec![
        CacheConfig {
            line_size,
            sets: 2,
            ways: 2,
        },
        CacheConfig {
            line_size,
            sets: 4,
            ways: 2,
        },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences through the hierarchy match a flat shadow array.
    #[test]
    fn prop_hierarchy_is_transparent(ops in proptest::collection::vec(op_strategy(4096), 1..80)) {
        let mut h = tiny_hierarchy(64);
        let mut ram = Ram(vec![0u8; 4096]);
        let mut shadow = vec![0u8; 4096];
        let mut t = Traffic::default();
        for op in &ops {
            match op {
                Op::Read { addr, len } => {
                    let mut buf = vec![0u8; *len];
                    h.read(*addr, &mut buf, &mut ram, &mut t).unwrap();
                    prop_assert_eq!(&buf[..], &shadow[*addr as usize..*addr as usize + len]);
                }
                Op::Write { addr, data } => {
                    h.write(*addr, data, &mut ram, &mut t).unwrap();
                    shadow[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
                }
                Op::FlushLine { addr } => {
                    h.flush_line(*addr, &mut ram, &mut t);
                }
                Op::FlushAll => h.flush_all(&mut ram, &mut t),
            }
            h.assert_exclusive();
        }
        // After a full flush, memory holds exactly the shadow contents.
        h.flush_all(&mut ram, &mut t);
        prop_assert_eq!(ram.0, shadow);
    }

    /// The transparency property holds for other line sizes too (the
    /// granularity ablation uses 32- and 128-byte lines).
    #[test]
    fn prop_transparent_other_line_sizes(
        ops in proptest::collection::vec(op_strategy(2048), 1..40),
        line_size in prop_oneof![Just(32u32), Just(128u32)],
    ) {
        let mut h = tiny_hierarchy(line_size);
        let mut ram = Ram(vec![0u8; 2048]);
        let mut shadow = vec![0u8; 2048];
        let mut t = Traffic::default();
        for op in &ops {
            match op {
                Op::Read { addr, len } => {
                    let mut buf = vec![0u8; *len];
                    h.read(*addr, &mut buf, &mut ram, &mut t).unwrap();
                    prop_assert_eq!(&buf[..], &shadow[*addr as usize..*addr as usize + len]);
                }
                Op::Write { addr, data } => {
                    h.write(*addr, data, &mut ram, &mut t).unwrap();
                    shadow[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
                }
                Op::FlushLine { addr } => {
                    h.flush_line(*addr, &mut ram, &mut t);
                }
                Op::FlushAll => h.flush_all(&mut ram, &mut t),
            }
        }
        h.flush_all(&mut ram, &mut t);
        prop_assert_eq!(ram.0, shadow);
    }

    /// After flushing a line, the next access to it always reaches memory.
    #[test]
    fn prop_flush_forces_memory_access(addr in 0u64..3800) {
        let mut h = tiny_hierarchy(64);
        let mut ram = Ram(vec![0u8; 4096]);
        let mut t = Traffic::default();
        h.write(addr, &[1, 2, 3], &mut ram, &mut t).unwrap();
        h.flush_line(addr, &mut ram, &mut t);
        let before = t.memory_reads;
        let mut buf = [0u8; 3];
        h.read(addr, &mut buf, &mut ram, &mut t).unwrap();
        prop_assert!(t.memory_reads > before);
        prop_assert_eq!(buf, [1, 2, 3]);
    }
}
