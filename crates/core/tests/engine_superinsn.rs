//! Superinstruction differential tests: a stream with the peephole fused
//! must execute *identically* to the unfused stream (and to the raw byte
//! interpreter) — same results, same guest instruction counts (fused
//! forms charge their full logical width), and the same deterministic
//! thread interleaving, because fused forms de-fuse at quantum
//! boundaries instead of overrunning the budget.

use ijvm_classfile::writer::write_class;
use ijvm_classfile::{AccessFlags, ClassBuilder, Opcode};
use ijvm_core::engine::EngineKind;
use ijvm_core::prelude::*;
use proptest::prelude::*;

const STATIC: AccessFlags = AccessFlags(AccessFlags::PUBLIC.0 | AccessFlags::STATIC.0);

const CMP_OPS: [Opcode; 6] = [
    Opcode::IfIcmpeq,
    Opcode::IfIcmpne,
    Opcode::IfIcmplt,
    Opcode::IfIcmpge,
    Opcode::IfIcmpgt,
    Opcode::IfIcmple,
];

/// Assembles a random but well-formed static method `run()I` from
/// structured chunks that keep the operand stack empty between chunks.
/// The menu is biased toward the fuseable shapes (`Load+Load+Iadd+Store`,
/// `Load+{IConst,Load}+IfICmp`) so fused cells actually appear, and every
/// branch is a short forward skip, so all programs terminate.
fn build_program(ops: &[u8]) -> Vec<u8> {
    let mut cb = ClassBuilder::new("P", "java/lang/Object", AccessFlags::PUBLIC);
    let mut m = cb.method("run", "()I", STATIC);
    // Seed the four locals with distinct values.
    for slot in 0..4u16 {
        m.const_int(7 * slot as i32 + 1);
        m.istore(slot);
    }
    for &op in ops {
        let a = (op % 4) as u16;
        let b = (op / 4 % 4) as u16;
        let c = (op / 16 % 4) as u16;
        let cmp = CMP_OPS[(op / 7 % 6) as usize];
        match op % 5 {
            // The accumulate shape (fuses to AddStore).
            0 => {
                m.iload(a);
                m.iload(b);
                m.op(Opcode::Iadd);
                m.istore(c);
            }
            // Compare-with-constant branch (fuses to FusedCmpBr).
            1 => {
                let skip = m.new_label();
                m.iload(a);
                m.const_int(op as i32 * 3 - 128);
                m.branch(cmp, skip);
                m.iinc(b, 1);
                m.bind(skip);
            }
            // Compare-two-locals branch (fuses to FusedCmpBr).
            2 => {
                let skip = m.new_label();
                m.iload(a);
                m.iload(b);
                m.branch(cmp, skip);
                m.iinc(c, -3);
                m.bind(skip);
            }
            // Plain arithmetic that must stay unfused.
            3 => {
                m.iload(a);
                m.const_int(op as i32);
                m.op(Opcode::Ixor);
                m.istore(b);
            }
            _ => {
                m.iinc(a, (op % 200) as i16 - 100);
            }
        }
    }
    // Mix all four locals into the result.
    m.iload(0);
    m.iload(1);
    m.op(Opcode::Iadd);
    m.iload(2);
    m.op(Opcode::Iadd);
    m.iload(3);
    m.op(Opcode::Ixor);
    m.op(Opcode::Ireturn);
    m.done().unwrap();
    write_class(&cb.build().unwrap()).unwrap()
}

/// Runs the program under the given engine/fusion/quantum configuration,
/// returning `(result, vclock)`.
fn run_program(bytes: &[u8], engine: EngineKind, fuse: bool, quantum: u32) -> (String, u64) {
    let mut options = VmOptions::isolated()
        .with_engine(engine)
        .with_superinstructions(fuse);
    options.quantum = quantum;
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("prog");
    let loader = vm.loader_of(iso).unwrap();
    vm.add_class_bytes(loader, "P", bytes.to_vec());
    let class = vm.load_class(loader, "P").unwrap();
    let outcome = vm.call_static_as(class, "run", "()I", vec![], iso);
    let result = match outcome {
        Ok(v) => format!("{v:?}"),
        Err(e) => format!("err: {e}"),
    };
    (result, vm.vclock())
}

proptest! {
    #[test]
    fn fused_and_unfused_streams_execute_identically(
        ops in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let bytes = build_program(&ops);
        let raw = run_program(&bytes, EngineKind::Raw, true, 10_000);
        let unfused = run_program(&bytes, EngineKind::Threaded, false, 10_000);
        let fused = run_program(&bytes, EngineKind::Threaded, true, 10_000);
        prop_assert_eq!(&raw, &unfused, "raw vs threaded-unfused diverged");
        prop_assert_eq!(&unfused, &fused, "threaded unfused vs fused diverged");
    }

    #[test]
    fn fusion_is_quantum_invariant(
        ops in proptest::collection::vec(any::<u8>(), 0..80),
        quantum in 1u32..40,
    ) {
        // Tiny quanta force suspension inside fused patterns: the fused
        // stream must de-fuse at the boundary and resume through the
        // intact tail cells, bit-identical to the unfused stream.
        let bytes = build_program(&ops);
        let unfused = run_program(&bytes, EngineKind::Threaded, false, quantum);
        let fused = run_program(&bytes, EngineKind::Threaded, true, quantum);
        prop_assert_eq!(&unfused, &fused, "quantum {} diverged", quantum);
        let wide = run_program(&bytes, EngineKind::Threaded, true, 1_000_000);
        prop_assert_eq!(fused.1, wide.1, "vclock must not depend on the quantum");
    }
}

/// The frame pool actually recycles: mid-workload, a call-heavy thread
/// must hold recycled buffers (returned frames feed the pool, fused
/// invokes drain it) — and a *terminated* thread must hold none, because
/// its pool could never be drained again.
#[test]
fn frame_pool_recycles_call_frames() {
    use ijvm_core::ids::MethodRef;

    let src = r#"
        class W {
            static int step(int x) { return x + 1; }
            static int spin(int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) { acc += step(i); }
                return acc;
            }
        }
    "#;
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let iso = vm.create_isolate("pool");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in
        ijvm_minijava::compile_to_bytes(src, &ijvm_minijava::CompileEnv::new()).unwrap()
    {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, "W").unwrap();
    let index = vm.class(class).find_method("spin", "(I)I").unwrap();
    let tid = vm
        .spawn_thread(
            "spinner",
            MethodRef { class, index },
            vec![Value::Int(10_000)],
            iso,
        )
        .unwrap();

    // Stop mid-loop: thousands of step() frames have been pushed and
    // popped, so the live thread's pool must hold recycled buffers.
    assert_eq!(vm.run(Some(60_000)), RunOutcome::BudgetExhausted);
    assert!(
        vm.thread(tid).unwrap().frame_pool.pooled() > 0,
        "call frames were never recycled"
    );

    // Run to completion: the result is right, and the terminated
    // thread's pool has been dropped (it can never be drained again).
    assert_eq!(vm.run(None), RunOutcome::Idle);
    assert_eq!(
        vm.thread_result(tid),
        Some(Value::Int(50_005_000)),
        "workload result"
    );
    let dead = vm.thread(tid).unwrap();
    assert!(dead.is_terminated());
    assert_eq!(dead.frame_pool.pooled(), 0, "terminated pool must drop");
}
