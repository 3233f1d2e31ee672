//! Held lines against the literal restore → scrub → re-scramble sequence.
//!
//! A coordinated scrub cycle must disarm every watched line before the
//! scrubber runs and re-arm it afterwards (paper §2.2.2). A line the OS has
//! declared *held* stores its armed state — the scrambled original over the
//! original's codes — so that restore and re-scramble would leave it as it
//! is, and the scrubber skips it instead.
//!
//! This suite drives two controllers through the same random operation
//! sequences: ECC-on and ECC-off writes, data-bit, code-bit and multi-bit
//! injections, arms that hold their lines (some over stale codes, which
//! must be refused), scrub steps of random size, mode switches and reads.
//! One controller takes the holds. Its twin holds nothing: before each scrub
//! step it restores every line the test holds with the recorded codes, ECC
//! on, and afterwards re-scrambles them with ECC off — the sequence the
//! kernel performed before lines could be held. The holding controller only
//! counts the restores. After each step both load every held line, which
//! must still fault in a checking mode. After every operation the returned data and
//! faults, `ControllerStats`, the held count, and every held line's stored
//! bytes and codes (still those it had when it was held) must match; at
//! the end, the drained fault sequences and the stored state of every group.

use std::collections::BTreeMap;

use proptest::prelude::*;
use safemem_ecc::codec::{LINE_BYTES, LINE_GROUPS};
use safemem_ecc::{EccController, EccMode, ScrambleScheme, GROUP_BYTES};

const MEM_BYTES: u64 = 1 << 15; // 8 frames
const FRAME_BYTES: u64 = 4096;
const LINE: u64 = LINE_BYTES as u64;

#[derive(Debug, Clone)]
enum Op {
    /// A write with ECC on.
    Write {
        addr: u64,
        seed: u8,
        len: usize,
    },
    /// A write with ECC off under the bus lock: data changes, codes stay.
    WriteOff {
        addr: u64,
        seed: u8,
        len: usize,
    },
    Read {
        addr: u64,
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
    /// Arms `lines` consecutive lines from `line` the way the kernel does
    /// (write the original, record its codes, scramble with ECC off) and
    /// holds them in one call. With `stale` set, a code bit of the
    /// `stale`-th line is flipped before the scramble, so that line is
    /// armed over a stale code and its hold must be refused.
    Arm {
        line: u64,
        lines: u64,
        seed: u8,
        stale: Option<(u64, u8)>,
    },
    /// One scrub step of `max_groups` groups, coordinated as a cycle.
    Scrub {
        max_groups: u64,
    },
    SetMode(EccMode),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let addr = 0u64..MEM_BYTES - 256;
    let group = (0u64..MEM_BYTES / GROUP_BYTES).prop_map(|g| g * GROUP_BYTES);
    let line = (0u64..MEM_BYTES / LINE).prop_map(|l| l * LINE);
    // A stale line index of 4 or more lies past every arm: no stale code.
    let arm =
        (line, 1u64..5, any::<u8>(), 0u64..16, 0u8..8).prop_map(|(line, lines, seed, k, bit)| {
            Op::Arm {
                line,
                lines,
                seed,
                stale: (k < 4).then_some((k, bit)),
            }
        });
    let scrub = (1u64..1200).prop_map(|max_groups| Op::Scrub { max_groups });
    prop_oneof![
        (addr.clone(), any::<u8>(), 1usize..160).prop_map(|(addr, seed, len)| Op::Write {
            addr,
            seed,
            len
        }),
        (addr.clone(), any::<u8>(), 1usize..160).prop_map(|(addr, seed, len)| Op::WriteOff {
            addr,
            seed,
            len
        }),
        (addr, 1usize..160).prop_map(|(addr, len)| Op::Read { addr, len }),
        (group.clone(), 0u8..64).prop_map(|(addr, bit)| Op::InjectData { addr, bit }),
        (group.clone(), 0u8..8).prop_map(|(addr, bit)| Op::InjectCode { addr, bit }),
        group.prop_map(|addr| Op::InjectMulti { addr }),
        arm.clone(),
        arm.clone(),
        arm,
        scrub.clone(),
        scrub,
        prop_oneof![
            Just(EccMode::Disabled),
            Just(EccMode::CheckOnly),
            Just(EccMode::CorrectError),
            Just(EccMode::CorrectAndScrub),
            Just(EccMode::CorrectAndScrub),
            Just(EccMode::CorrectAndScrub),
        ]
        .prop_map(Op::SetMode),
    ]
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i as u8).wrapping_mul(167)))
        .collect()
}

fn scrambled(scheme: ScrambleScheme, original: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
    let mut out = *original;
    for chunk in out.chunks_exact_mut(8) {
        let word = u64::from_le_bytes((*chunk).try_into().expect("8-byte chunk"));
        chunk.copy_from_slice(&scheme.apply(word).to_le_bytes());
    }
    out
}

/// Writes `buf` with ECC off under the bus lock, as the kernel scrambles.
fn write_off(ctl: &mut EccController, addr: u64, buf: &[u8]) {
    ctl.lock_bus();
    ctl.set_enabled(false);
    ctl.write(addr, buf);
    ctl.set_enabled(true);
    ctl.unlock_bus();
}

/// Stored data and codes of the line at `line`.
fn stored(ctl: &EccController, line: u64) -> ([u8; LINE_BYTES], [u8; LINE_GROUPS]) {
    let mut data = [0u8; LINE_BYTES];
    let mut codes = [0u8; LINE_GROUPS];
    for (g, code) in codes.iter_mut().enumerate() {
        let (word, c) = ctl.memory().read_group(line + g as u64 * GROUP_BYTES);
        data[g * 8..g * 8 + 8].copy_from_slice(&word.to_le_bytes());
        *code = c;
    }
    (data, codes)
}

/// The lines the test holds: line address → (original, recorded codes).
type Model = BTreeMap<u64, ([u8; LINE_BYTES], [u8; LINE_GROUPS])>;

/// Forgets the holds on the lines overlapping `[addr, addr + len)`.
fn touch(model: &mut Model, addr: u64, len: u64) {
    let first = addr & !(LINE - 1);
    let lines: Vec<u64> = model.range(first..addr + len).map(|(&l, _)| l).collect();
    for l in lines {
        model.remove(&l);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn held_lines_match_the_restore_scrub_rescramble_sequence(
        ops in proptest::collection::vec(op_strategy(), 1..100)
    ) {
        let scheme = ScrambleScheme::default();
        let mut held = EccController::new(MEM_BYTES);
        let mut twin = EccController::new(MEM_BYTES);
        let mut model = Model::new();
        for op in &ops {
            match *op {
                Op::Write { addr, seed, len } => {
                    let buf = pattern(seed, len);
                    held.write(addr, &buf);
                    twin.write(addr, &buf);
                    touch(&mut model, addr, len as u64);
                }
                Op::WriteOff { addr, seed, len } => {
                    let buf = pattern(seed, len);
                    write_off(&mut held, addr, &buf);
                    write_off(&mut twin, addr, &buf);
                    touch(&mut model, addr, len as u64);
                }
                Op::Read { addr, len } => {
                    let (mut hb, mut tb) = (vec![0u8; len], vec![0u8; len]);
                    let hr = held.read(addr, &mut hb);
                    let tr = twin.read(addr, &mut tb);
                    prop_assert_eq!(hr, tr, "read fault mismatch at {:#x}", addr);
                    prop_assert_eq!(&hb, &tb, "read data mismatch at {:#x}", addr);
                }
                Op::InjectData { addr, bit } => {
                    held.inject_data_error(addr, bit);
                    twin.inject_data_error(addr, bit);
                    touch(&mut model, addr, 1);
                }
                Op::InjectCode { addr, bit } => {
                    held.inject_code_error(addr, bit);
                    twin.inject_code_error(addr, bit);
                    touch(&mut model, addr, 1);
                }
                Op::InjectMulti { addr } => {
                    held.inject_multi_bit_error(addr);
                    twin.inject_multi_bit_error(addr);
                    touch(&mut model, addr, 1);
                }
                Op::Arm { line, lines, seed, stale } => {
                    let frame_end = (line / FRAME_BYTES + 1) * FRAME_BYTES;
                    let lines = lines.min((frame_end - line) / LINE);
                    let len = lines * LINE;
                    let originals = pattern(seed, len as usize);
                    held.write(line, &originals);
                    twin.write(line, &originals);
                    touch(&mut model, line, len);
                    if let Some((k, bit)) = stale.filter(|&(k, _)| k < lines) {
                        held.inject_code_error(line + k * LINE, bit);
                        twin.inject_code_error(line + k * LINE, bit);
                    }
                    // The codes the kernel records: those of the original.
                    let mut records = Vec::new();
                    for (k, original) in originals.chunks_exact(LINE_BYTES).enumerate() {
                        let original: [u8; LINE_BYTES] = original.try_into().expect("line");
                        records.push((line + k as u64 * LINE, original, held.encode_line(&original)));
                    }
                    let scramble: Vec<u8> = records
                        .iter()
                        .flat_map(|(_, original, _)| scrambled(scheme, original))
                        .collect();
                    write_off(&mut held, line, &scramble);
                    write_off(&mut twin, line, &scramble);
                    // A line is held only if its stored codes are the
                    // recorded ones.
                    let mut expected = 0;
                    for &(addr, original, codes) in &records {
                        if stored(&twin, addr).1 == codes {
                            model.insert(addr, (original, codes));
                            expected += 1;
                        }
                    }
                    let newly = held.hold_lines(line, records.iter().map(|r| r.2));
                    prop_assert_eq!(newly, expected, "holds taken at {:#x}", line);
                }
                Op::Scrub { max_groups } => {
                    // The kernel coordinates scrubbing only in a scrubbing
                    // mode; otherwise a step does nothing on either side.
                    let cycle = held.mode().scrubs();
                    if cycle {
                        held.account_held_restores(model.len() as u64);
                        for (&addr, (original, codes)) in &model {
                            twin.write_line_precoded(addr, original, codes);
                        }
                    }
                    prop_assert_eq!(held.scrub_step(max_groups), twin.scrub_step(max_groups));
                    if cycle {
                        for (&addr, (original, _)) in &model {
                            write_off(&mut twin, addr, &scrambled(scheme, original));
                        }
                    }
                    // Loads of the held lines must still fault wherever the
                    // mode checks, as the program's next access would.
                    for &addr in model.keys() {
                        let (mut hb, mut tb) = ([0u8; LINE_BYTES], [0u8; LINE_BYTES]);
                        let hr = held.read(addr, &mut hb);
                        prop_assert!(
                            hr.is_err() || !held.mode().checks(),
                            "held line {:#x} read clean", addr
                        );
                        prop_assert_eq!(hr, twin.read(addr, &mut tb));
                        prop_assert_eq!(hb, tb);
                    }
                }
                Op::SetMode(mode) => {
                    held.set_mode(mode);
                    twin.set_mode(mode);
                }
            }
            prop_assert_eq!(held.stats(), twin.stats(), "stats diverged after {:?}", op);
            prop_assert_eq!(held.memory().held_lines(), model.len(), "held count after {:?}", op);
            prop_assert_eq!(twin.memory().held_lines(), 0);
            for (&addr, (original, codes)) in &model {
                prop_assert!(held.memory().is_line_held(addr), "{:#x} lost its hold after {:?}", addr, op);
                let state = stored(&held, addr);
                prop_assert_eq!(
                    (state.0.to_vec(), state.1),
                    (scrambled(scheme, original).to_vec(), *codes),
                    "held line {:#x} left its armed state after {:?}", addr, op
                );
            }
        }
        prop_assert_eq!(held.take_faults(), twin.take_faults());
        for group in (0..MEM_BYTES).step_by(GROUP_BYTES as usize) {
            prop_assert_eq!(
                held.memory().read_group(group),
                twin.memory().read_group(group),
                "stored group {:#x} diverged", group
            );
        }
    }
}
