//! A small 32-bit RISC ISA used by the `secsim` secure-processor simulator.
//!
//! The ISA plays the role that Alpha played for SimpleScalar in the paper:
//! a concrete instruction encoding that workloads are compiled to and that
//! the out-of-order pipeline executes. A *real* bit-level encoding matters
//! here — the memory-fetch side-channel exploits of the paper work by
//! flipping bits of encrypted instruction words (counter-mode malleability)
//! so that they decrypt to attacker-chosen instructions.
//!
//! The crate provides:
//!
//! * [`Reg`] / [`FReg`] — integer and floating-point register names.
//! * [`Inst`] — the instruction set, with [`Inst::class`] for functional
//!   unit selection and [`Inst::srcs`]/[`Inst::dst`] for dependence
//!   analysis in the pipeline.
//! * [`encode`] / [`decode`] — exact 32-bit encoding round trip.
//! * [`Asm`] — a label-based assembler / program builder.
//! * [`ArchState`] + [`step`] — functional (oracle) semantics.
//! * [`MemIo`] / [`FlatMem`] — the byte-addressed memory interface.
//!
//! # Examples
//!
//! Assemble and run a loop that sums `1..=10`:
//!
//! ```
//! use secsim_isa::{Asm, ArchState, FlatMem, Reg, step};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new(0x1000);
//! let loop_top = a.new_label();
//! a.addi(Reg::R1, Reg::R0, 10); // counter
//! a.addi(Reg::R2, Reg::R0, 0);  // sum
//! a.bind(loop_top)?;
//! a.add(Reg::R2, Reg::R2, Reg::R1);
//! a.addi(Reg::R1, Reg::R1, -1);
//! a.bne(Reg::R1, Reg::R0, loop_top);
//! a.halt();
//! let words = a.assemble()?;
//!
//! let mut mem = FlatMem::new(0x1000, 64 * 1024);
//! mem.load_words(0x1000, &words);
//! let mut st = ArchState::new(0x1000);
//! while !st.halted {
//!     step(&mut st, &mut mem)?;
//! }
//! assert_eq!(st.reg(Reg::R2), 55);
//! # Ok(())
//! # }
//! ```

mod asm;
mod encode;
mod exec;
mod inst;
mod mem;
mod reg;

pub use asm::{Asm, AsmError, Label};
pub use encode::{decode, disassemble, encode};
pub use exec::{step, step_decoded, ArchState, Fault, MemAccess, StepInfo};
pub use inst::{Inst, MemWidth, OpClass, RegRef};
pub use mem::{FlatMem, MemIo};
pub use reg::{FReg, Reg};
