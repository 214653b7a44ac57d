//! The calibration kernel: a fixed integer and memory workload that
//! uses none of the repository's crates, so no change to the program
//! under test can speed it up or slow it down.
//!
//! It is a tiny register-machine interpreter (a `match` over opcodes,
//! as an interpreter or a threaded-code dispatcher runs) over a fixed
//! bytecode loop that hashes through a 256 KiB table with data-dependent
//! loads, stores and branches. Timed right around a pass or a serve
//! slice, on the same core under the same neighbours, it follows the
//! host's slow and fast phases, and the gated times are ratios to it.

use std::time::Instant;

/// Table size in words (256 KiB: larger than L1, inside L2).
const MEM_WORDS: usize = 1 << 16;
const MASK: u32 = MEM_WORDS as u32 - 1;
/// Loop iterations per run of the kernel: about 27 ms on a 2.0 GHz
/// Xeon.
const ITERS: u32 = 800_000;
/// The registers' final checksum; the kernel is deterministic, so any
/// other value means it was miscompiled or its memory corrupted.
pub const CHECKSUM: u64 = 0x5bf9_372c_f674_a5c9;

#[derive(Clone, Copy)]
enum Op {
    /// `r[a] = mem[r[b] & MASK]`
    Load,
    /// `mem[r[a] & MASK] = r[b]`
    Store,
    /// `r[a] += r[b]`
    Add,
    /// `r[a] ^= r[b] >> imm`
    XorShr,
    /// `r[a] = r[a] * imm + r[b]`
    MulAdd,
    /// `if r[a] & imm != 0 { r[b] += 1 }`
    IncIf,
    /// `r[a] -= 1; if r[a] != 0 { pc = imm }`
    Loop,
    Halt,
}

#[derive(Clone, Copy)]
struct Inst {
    op: Op,
    a: usize,
    b: usize,
    imm: u32,
}

const fn i(op: Op, a: usize, b: usize, imm: u32) -> Inst {
    Inst { op, a, b, imm }
}

/// The bytecode: `r0` counts iterations, `r2` walks the table.
const PROGRAM: [Inst; 9] = [
    i(Op::Load, 1, 2, 0),
    i(Op::Add, 3, 1, 0),
    i(Op::MulAdd, 2, 3, 0x9e37_79b1),
    i(Op::Store, 3, 2, 0),
    i(Op::XorShr, 4, 2, 7),
    i(Op::IncIf, 4, 5, 1),
    i(Op::Add, 6, 4, 0),
    i(Op::Loop, 0, 0, 0),
    i(Op::Halt, 0, 0, 0),
];

/// Runs the kernel for `iters` loop iterations over `mem` (as
/// [`Calibrator::reset`] leaves it) and returns its checksum.
fn run_on(mem: &mut [u32], iters: u32) -> u64 {
    let program = std::hint::black_box(&PROGRAM);
    let mut r = [0u32; 8];
    r[0] = std::hint::black_box(iters);
    r[2] = 1;
    let mut pc = 0;
    loop {
        let inst = program[pc];
        pc += 1;
        match inst.op {
            Op::Load => r[inst.a] = mem[(r[inst.b] & MASK) as usize],
            Op::Store => mem[(r[inst.a] & MASK) as usize] = r[inst.b],
            Op::Add => r[inst.a] = r[inst.a].wrapping_add(r[inst.b]),
            Op::XorShr => r[inst.a] ^= r[inst.b] >> inst.imm,
            Op::MulAdd => r[inst.a] = r[inst.a].wrapping_mul(inst.imm).wrapping_add(r[inst.b]),
            Op::IncIf => {
                if r[inst.a] & inst.imm != 0 {
                    r[inst.b] = r[inst.b].wrapping_add(1);
                }
            }
            Op::Loop => {
                r[inst.a] -= 1;
                if r[inst.a] != 0 {
                    pc = inst.imm as usize;
                }
            }
            Op::Halt => break,
        }
    }
    r.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
        (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Times the kernel. Its table is allocated once, so a probe neither
/// allocates nor faults in fresh pages.
pub struct Calibrator {
    mem: Vec<u32>,
}

impl Calibrator {
    #[must_use]
    pub fn new() -> Calibrator {
        Calibrator {
            mem: vec![0; MEM_WORDS],
        }
    }

    /// Refills the table with its fixed starting contents.
    fn reset(&mut self) {
        for (k, w) in (0u32..).zip(self.mem.iter_mut()) {
            *w = k.wrapping_mul(0x85eb_ca6b);
        }
    }

    #[cfg(test)]
    fn kernel(&mut self, iters: u32) -> u64 {
        self.reset();
        run_on(&mut self.mem, iters)
    }

    /// One calibration probe: the kernel's wall-clock in milliseconds.
    /// The kernel runs once untimed first. A run that starts right after
    /// the measured work tracks the host badly: over ten `serve-zipf`
    /// runs on the reference machine, the ratio to a probe without the
    /// untimed run spread (IQR/median) 0.083, and with it 0.054.
    /// The table is refilled before the clock starts.
    ///
    /// # Errors
    ///
    /// When the kernel's checksum is not [`CHECKSUM`].
    pub fn probe(&mut self) -> Result<f64, String> {
        self.reset();
        std::hint::black_box(run_on(&mut self.mem, ITERS));
        self.reset();
        let t = Instant::now();
        let sum = run_on(&mut self.mem, ITERS);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if sum == CHECKSUM {
            Ok(ms)
        } else {
            Err(format!(
                "calibration kernel checksum {sum:#x} != {CHECKSUM:#x}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_matches_its_checksum() {
        let mut c = Calibrator::new();
        assert_eq!(c.kernel(ITERS), CHECKSUM);
        // The table is refilled, so a second run repeats the first.
        assert_eq!(c.kernel(1000), c.kernel(1000));
        assert_ne!(c.kernel(1000), c.kernel(1001));
        assert!(c.probe().unwrap() > 0.0);
    }
}
