//! The error paths of [`Simulator::run`], driven by hand-assembled
//! programs: a receive cycle and mismatched barriers dead-lock, and a
//! message addressed past the mesh is refused.

use cimflow_arch::ArchConfig;
use cimflow_compiler::{compile, CompiledProgram, Strategy};
use cimflow_isa::asm::assemble;
use cimflow_nn::models;
use cimflow_sim::{SimError, Simulator};

/// A compiled 1-chip program whose code is replaced: core `i` runs
/// `programs[i]` and every other core a bare `halt`.
fn with_programs(programs: &[&str]) -> CompiledProgram {
    let arch = ArchConfig::paper_default();
    let mut compiled = compile(&models::resnet18(32), &arch, Strategy::GenericMapping)
        .expect("the host program compiles");
    assert_eq!(compiled.system.chip_count, 1);
    for (core, program) in compiled.per_core.iter_mut().enumerate() {
        let text = programs.get(core).copied().unwrap_or("halt");
        *program = assemble(text).expect("the test program assembles");
    }
    compiled
}

fn run(programs: &[&str]) -> Result<(), SimError> {
    Simulator::new(&with_programs(programs)).run().map(|_| ())
}

#[test]
fn a_two_core_receive_cycle_deadlocks() {
    // Each core waits for a message the other sends only after its own
    // receive completes.
    let core0 = "sc_li g1, 1\nsc_li g2, 64\nrecv g0, g2, g1, tag=0\nsend g0, g2, g1, tag=0\nhalt";
    let core1 = "sc_li g1, 0\nsc_li g2, 64\nrecv g0, g2, g1, tag=0\nsend g0, g2, g1, tag=0\nhalt";
    assert_eq!(
        run(&[core0, core1]),
        Err(SimError::Deadlock { blocked_on_recv: vec![0, 1], blocked_on_barrier: vec![] })
    );
}

#[test]
fn cores_waiting_at_different_barriers_deadlock() {
    assert_eq!(
        run(&["barrier 0\nhalt", "barrier 1\nhalt"]),
        Err(SimError::Deadlock { blocked_on_recv: vec![], blocked_on_barrier: vec![0, 1] })
    );
}

#[test]
fn a_send_past_the_last_core_is_refused() {
    let cores = ArchConfig::paper_default().chip().core_count;
    assert_eq!(cores, 64);
    let sender = "sc_li g1, 64\nsc_li g2, 64\nsend g0, g2, g1, tag=0\nhalt";
    assert_eq!(run(&[sender]), Err(SimError::InvalidCore { core: 64 }));
}
