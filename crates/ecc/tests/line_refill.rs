//! Aligned line reads through the clean-line refill against the general
//! range reader.
//!
//! An aligned 64-byte read of a line whose dirty bit is clear, or of an
//! untouched frame, copies the line and counts its 8 groups as verified
//! without entering the range reader: such a line is guaranteed to decode
//! clean. Every other line read falls back to the range reader.
//!
//! This suite drives two controllers through the same random operation
//! sequences: ECC-on and ECC-off writes, data-bit, code-bit and multi-bit
//! injections, scrambled lines armed the way the kernel arms them (some
//! held, some over stale codes), scrub steps, mode and enable switches,
//! and line reads that reach untouched frames. One controller reads each
//! line in one aligned 64-byte read, the shape a cache refill takes; its
//! twin reads the same line as eight 8-byte group reads, which always take
//! the range reader. After every line read the data, the result, the
//! `ControllerStats` and the drained fault outbox must match; at the end,
//! the stored bytes and codes of every group.

use proptest::prelude::*;
use safemem_ecc::codec::{LINE_BYTES, LINE_GROUPS};
use safemem_ecc::{EccController, EccFault, EccMode, ScrambleScheme, GROUP_BYTES};

/// Eight frames; operations other than line reads stay in the first six,
/// so the last two are never touched.
const MEM_BYTES: u64 = 1 << 15;
const TOUCHED_BYTES: u64 = 6 * 4096;
const LINE: u64 = LINE_BYTES as u64;

#[derive(Debug, Clone)]
enum Op {
    Write {
        addr: u64,
        seed: u8,
        len: usize,
    },
    WriteOff {
        addr: u64,
        seed: u8,
        len: usize,
    },
    InjectData {
        addr: u64,
        bit: u8,
    },
    InjectCode {
        addr: u64,
        bit: u8,
    },
    InjectMulti {
        addr: u64,
    },
    /// Arms a line as the kernel does: write the original, record its
    /// codes, scramble it with ECC off, and hold it. With `stale` set, a
    /// code bit is flipped before the scramble, so the hold is refused.
    Arm {
        line: u64,
        seed: u8,
        stale: Option<u8>,
    },
    Scrub {
        max_groups: u64,
    },
    SetMode(EccMode),
    SetEnabled(bool),
    ReadLine {
        line: u64,
    },
}

fn touched_addr() -> impl Strategy<Value = u64> {
    0u64..TOUCHED_BYTES - 256
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (touched_addr(), any::<u8>(), 1usize..200).prop_map(|(addr, seed, len)| Op::Write {
            addr,
            seed,
            len
        }),
        (touched_addr(), any::<u8>(), 1usize..100).prop_map(|(addr, seed, len)| Op::WriteOff {
            addr,
            seed,
            len
        }),
        (touched_addr(), 0u8..64).prop_map(|(addr, bit)| Op::InjectData { addr, bit }),
        (touched_addr(), 0u8..8).prop_map(|(addr, bit)| Op::InjectCode { addr, bit }),
        touched_addr().prop_map(|addr| Op::InjectMulti { addr }),
        (
            0u64..TOUCHED_BYTES / LINE,
            any::<u8>(),
            prop_oneof![Just(None), (0u8..8).prop_map(Some)]
        )
            .prop_map(|(line, seed, stale)| Op::Arm { line, seed, stale }),
        (1u64..1500).prop_map(|max_groups| Op::Scrub { max_groups }),
        prop_oneof![
            Just(EccMode::Disabled),
            Just(EccMode::CheckOnly),
            Just(EccMode::CorrectError),
            Just(EccMode::CorrectAndScrub),
        ]
        .prop_map(Op::SetMode),
        any::<bool>().prop_map(Op::SetEnabled),
        (0u64..MEM_BYTES / LINE).prop_map(|line| Op::ReadLine { line }),
        (0u64..MEM_BYTES / LINE).prop_map(|line| Op::ReadLine { line }),
    ]
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// Writes `buf` with ECC off, as the kernel's scramble does, leaving the
/// enable as it found it.
fn write_off(ctl: &mut EccController, addr: u64, buf: &[u8]) {
    let enabled = ctl.is_enabled();
    ctl.set_enabled(false);
    ctl.write(addr, buf);
    ctl.set_enabled(enabled);
}

/// Applies a non-read op; both controllers take the same ones.
fn apply(ctl: &mut EccController, op: &Op) {
    match *op {
        Op::Write { addr, seed, len } => ctl.write(addr, &pattern(seed, len)),
        Op::WriteOff { addr, seed, len } => write_off(ctl, addr, &pattern(seed, len)),
        Op::InjectData { addr, bit } => ctl.inject_data_error(addr, bit),
        Op::InjectCode { addr, bit } => ctl.inject_code_error(addr, bit),
        Op::InjectMulti { addr } => ctl.inject_multi_bit_error(addr),
        Op::Arm { line, seed, stale } => {
            let addr = line * LINE;
            let original: [u8; LINE_BYTES] = pattern(seed, LINE_BYTES).try_into().unwrap();
            ctl.write(addr, &original);
            let codes = ctl.encode_line(&original);
            if let Some(bit) = stale {
                ctl.inject_code_error(addr, bit);
            }
            let scheme = ScrambleScheme::default();
            let scrambled: Vec<u8> = original
                .chunks_exact(8)
                .flat_map(|w| {
                    scheme
                        .apply(u64::from_le_bytes(w.try_into().unwrap()))
                        .to_le_bytes()
                })
                .collect();
            write_off(ctl, addr, &scrambled);
            ctl.hold_lines(addr, [codes]);
        }
        Op::Scrub { max_groups } => {
            ctl.scrub_step(max_groups);
        }
        Op::SetMode(mode) => ctl.set_mode(mode),
        Op::SetEnabled(on) => ctl.set_enabled(on),
        Op::ReadLine { .. } => unreachable!("line reads differ by side"),
    }
}

/// The line at `addr` as eight group reads: the range reader every time.
fn read_by_groups(ctl: &mut EccController, addr: u64) -> ([u8; LINE_BYTES], Result<(), EccFault>) {
    let mut data = [0u8; LINE_BYTES];
    let mut result = Ok(());
    for (g, chunk) in data.chunks_exact_mut(GROUP_BYTES as usize).enumerate() {
        let read = ctl.read(addr + g as u64 * GROUP_BYTES, chunk);
        if result.is_ok() {
            result = read;
        }
    }
    (data, result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn aligned_line_reads_match_the_range_reader(
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let mut fast = EccController::new(MEM_BYTES);
        let mut general = EccController::new(MEM_BYTES);
        for (i, op) in ops.iter().enumerate() {
            if let Op::ReadLine { line } = *op {
                let addr = line * LINE;
                let mut data = [0u8; LINE_BYTES];
                let result = fast.read(addr, &mut data);
                let (want, want_result) = read_by_groups(&mut general, addr);
                prop_assert_eq!(data, want, "data of op {} {:?}", i, op);
                prop_assert_eq!(result, want_result, "result of op {} {:?}", i, op);
                prop_assert_eq!(fast.take_faults(), general.take_faults(), "faults of op {}", i);
            } else {
                apply(&mut fast, op);
                apply(&mut general, op);
            }
            prop_assert_eq!(fast.stats(), general.stats(), "stats after op {} {:?}", i, op);
            prop_assert_eq!(fast.memory().held_lines(), general.memory().held_lines());
        }
        for group in (0..MEM_BYTES).step_by(GROUP_BYTES as usize) {
            prop_assert_eq!(
                fast.memory().read_group(group),
                general.memory().read_group(group),
                "group {:#x}", group
            );
        }
    }
}

/// The cases the suite is about, checked on every run: an untouched frame,
/// a clean line, a line with a corrected single-bit error, and a held
/// scrambled line, each counted as 8 verified groups.
#[test]
fn clean_lines_verify_in_one_step_and_dirty_ones_fall_back() {
    let mut ctl = EccController::new(MEM_BYTES);
    let mut buf = [0u8; LINE_BYTES];
    let verified = |ctl: &EccController| ctl.stats().groups_verified;

    ctl.read(7 * 4096, &mut buf).unwrap();
    assert_eq!(buf, [0; LINE_BYTES]);
    assert_eq!(verified(&ctl), LINE_GROUPS as u64);

    ctl.write(LINE, &[0x5A; LINE_BYTES]);
    ctl.read(LINE, &mut buf).unwrap();
    assert_eq!(buf, [0x5A; LINE_BYTES]);
    assert_eq!(verified(&ctl), 2 * LINE_GROUPS as u64);

    ctl.inject_data_error(LINE + 8, 3);
    ctl.read(LINE, &mut buf).unwrap();
    assert_eq!(buf, [0x5A; LINE_BYTES], "corrected on the fly");
    assert_eq!(ctl.stats().corrected_single_bit, 1);
    assert_eq!(verified(&ctl), 3 * LINE_GROUPS as u64);

    apply(
        &mut ctl,
        &Op::Arm {
            line: 4,
            seed: 9,
            stale: None,
        },
    );
    assert!(ctl.memory().is_line_held(4 * LINE));
    let fault = ctl.read(4 * LINE, &mut buf).unwrap_err();
    assert_eq!(fault.group_addr, 4 * LINE);
    assert_eq!(
        ctl.take_faults().len(),
        LINE_GROUPS,
        "every group scrambled"
    );
    assert_eq!(verified(&ctl), 4 * LINE_GROUPS as u64);
}
