//! Per-core functional state of the front end: the register file, the
//! program counter, the timing-invariant energy and unit-busy sums, and
//! the core's position in the op stream it hands the back end.

use cimflow_energy::EnergyBreakdown;
use cimflow_isa::{GReg, Instruction, SReg};

use crate::trace::TraceOp;

/// The functional state of one core.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// Program counter.
    pub pc: usize,
    /// General-purpose register file.
    pub regs: [i64; 32],
    /// Special registers.
    pub sregs: [i64; 8],
    /// Timing-invariant energy charged to this core (the NoC share is the
    /// back end's).
    pub energy: EnergyBreakdown,
    /// Summed macro-group occupancy of the core's CIM ops.
    pub mg_busy_cycles: u64,
    /// Summed vector-unit occupancy.
    pub vector_busy_cycles: u64,
    /// Ops handed to the back end so far.
    pub handed: usize,
    /// The last op handed out, which the back end may ask for again; an
    /// out-of-range peer core reads as `Err(core)`.
    pub current: Result<TraceOp, u32>,
}

impl CoreState {
    /// Creates a core at the start of its program; `id` is its chip-local
    /// (mesh) id.
    pub fn new(id: u32) -> Self {
        let mut sregs = [0i64; 8];
        sregs[SReg::CoreId.index() as usize] = i64::from(id);
        CoreState {
            pc: 0,
            regs: [0; 32],
            sregs,
            energy: EnergyBreakdown::new(),
            mg_busy_cycles: 0,
            vector_busy_cycles: 0,
            handed: 0,
            current: Ok(TraceOp::Halt { counted: false }),
        }
    }

    /// Reads a general register (the zero register always reads zero).
    pub fn read(&self, reg: GReg) -> i64 {
        if reg == GReg::ZERO {
            0
        } else {
            self.regs[reg.index() as usize]
        }
    }

    /// Reads a general register as an unsigned byte count / address.
    pub fn read_unsigned(&self, reg: GReg) -> u64 {
        self.read(reg).max(0) as u64
    }

    /// Writes a general register (writes to the zero register are ignored).
    pub fn write(&mut self, reg: GReg, value: i64) {
        if reg != GReg::ZERO {
            self.regs[reg.index() as usize] = value;
        }
    }

    /// Executes the functional (register-file) effect of a scalar
    /// instruction. Non-scalar instructions are handled by the front end.
    pub fn execute_scalar(&mut self, inst: &Instruction) {
        match *inst {
            Instruction::ScAlu { op, dst, a, b } => {
                let value = op.eval(self.read(a) as i32, self.read(b) as i32);
                self.write(dst, i64::from(value));
            }
            Instruction::ScAlui { op, dst, src, imm } => {
                let value = op.eval(self.read(src) as i32, i32::from(imm));
                self.write(dst, i64::from(value));
            }
            Instruction::ScLi { dst, imm } => self.write(dst, i64::from(imm)),
            Instruction::ScLui { dst, imm } => {
                let low = self.read(dst) as u32 & 0xFFFF;
                self.write(dst, i64::from((u32::from(imm) << 16) | low));
            }
            Instruction::ScRdSpecial { dst, sreg } => {
                self.write(dst, self.sregs[sreg.index() as usize]);
            }
            Instruction::ScWrSpecial { sreg, src } => {
                self.sregs[sreg.index() as usize] = self.read(src);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_isa::ScalarAluOp;

    fn core() -> CoreState {
        CoreState::new(3)
    }

    fn g(i: u8) -> GReg {
        GReg::new(i).unwrap()
    }

    #[test]
    fn register_semantics() {
        let mut c = core();
        c.write(g(5), 42);
        assert_eq!(c.read(g(5)), 42);
        c.write(GReg::ZERO, 99);
        assert_eq!(c.read(GReg::ZERO), 0);
        assert_eq!(c.read_unsigned(g(5)), 42);
        c.write(g(5), -7);
        assert_eq!(c.read_unsigned(g(5)), 0);
    }

    #[test]
    fn scalar_execution_updates_registers() {
        let mut c = core();
        c.execute_scalar(&Instruction::ScLi { dst: g(1), imm: 0x1234 });
        c.execute_scalar(&Instruction::ScLui { dst: g(1), imm: 0x6 });
        assert_eq!(c.read(g(1)), 0x0006_1234);
        c.execute_scalar(&Instruction::ScAlui {
            op: ScalarAluOp::Add,
            dst: g(2),
            src: g(1),
            imm: 4,
        });
        assert_eq!(c.read(g(2)), 0x0006_1238);
        c.execute_scalar(&Instruction::ScAlu { op: ScalarAluOp::Sub, dst: g(3), a: g(2), b: g(1) });
        assert_eq!(c.read(g(3)), 4);
        c.execute_scalar(&Instruction::ScRdSpecial { dst: g(4), sreg: SReg::CoreId });
        assert_eq!(c.read(g(4)), 3);
        c.execute_scalar(&Instruction::ScWrSpecial { sreg: SReg::StageId, src: g(3) });
        assert_eq!(c.sregs[SReg::StageId.index() as usize], 4);
    }
}
