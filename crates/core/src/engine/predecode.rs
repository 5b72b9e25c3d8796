//! One-time translation of raw `Code` bytes into the [`XInsn`] stream.
//!
//! Pre-decoding runs in two passes. Pass 1 walks the bytes once to find
//! instruction boundaries, producing the pc↔index maps that exception
//! tables, suspension points and the disassembler use to move between the
//! byte-pc world (stored in frames) and the index world (used by the
//! threaded dispatch). Pass 2 decodes each instruction into a fixed-width
//! [`XInsn`], fusing immediates, collapsing the `*load_N`/`*store_N`
//! families, resolving numeric `ldc` against the constant pool, mapping
//! branch offsets to instruction indices, and unpacking switch payloads
//! into side tables.
//!
//! Pre-decoding is *total*: malformed bytes become [`XInsn::Invalid`] or
//! [`XInsn::Trap`] instructions that raise `VerifyError` when (and only
//! when) executed, matching the raw interpreter's behaviour of faulting
//! at execution time rather than load time.
//!
//! A third pass (`fuse_superinstructions`) runs a peephole
//! over the decoded stream, folding the `Load+Load+Iadd+Store` and
//! `Load+{IConst,Load}+IfICmp` families into single dispatch cases. The
//! fusion is *non-destructive*: only the pattern's first cell is
//! rewritten, the tail cells keep their original instructions, so branch
//! targets and suspension pcs inside a pattern stay executable and the
//! pc↔index maps are untouched.
//!
//! Finally every [`XInsn`] lowers into its threaded cell
//! ([`super::handlers::lower`]), the stream the engine dispatches over.

use super::handlers::lower;
use super::xinsn::{Cmp, CmpRhs, FusedCmp, IfaceSite, SwitchTable, TrapKind, XInsn, BAD_TARGET};
use super::PreparedCode;
use crate::class::CodeBody;
use ijvm_classfile::{ConstEntry, ConstPool, MethodDescriptor, Opcode};
use std::cell::Cell;
use std::sync::Arc;

/// Byte length of the instruction starting at `pc`, or `None` when its
/// operands run past the end of the code array.
fn insn_len(bytes: &[u8], pc: usize) -> Option<usize> {
    use Opcode as O;
    let op = match Opcode::from_byte(bytes[pc]) {
        Ok(op) => op,
        Err(_) => return Some(1), // raw interpreter advances pc by 1, then throws
    };
    let len = match op {
        O::Bipush | O::Ldc | O::Newarray => 2,
        O::Iload | O::Lload | O::Fload | O::Dload | O::Aload => 2,
        O::Istore | O::Lstore | O::Fstore | O::Dstore | O::Astore => 2,
        O::Sipush | O::LdcW | O::Ldc2W | O::Iinc => 3,
        O::Ifeq | O::Ifne | O::Iflt | O::Ifge | O::Ifgt | O::Ifle => 3,
        O::IfIcmpeq | O::IfIcmpne | O::IfIcmplt | O::IfIcmpge | O::IfIcmpgt | O::IfIcmple => 3,
        O::IfAcmpeq | O::IfAcmpne | O::Ifnull | O::Ifnonnull | O::Goto => 3,
        O::Getstatic | O::Putstatic | O::Getfield | O::Putfield => 3,
        O::Invokevirtual | O::Invokespecial | O::Invokestatic => 3,
        O::New | O::Anewarray | O::Checkcast | O::Instanceof => 3,
        O::Invokeinterface => 5,
        O::Tableswitch => {
            let mut p = pc + 1;
            while !p.is_multiple_of(4) {
                p += 1;
            }
            // default, low, high
            if p + 12 > bytes.len() {
                return None;
            }
            let low = read_i32(bytes, p + 4);
            let high = read_i32(bytes, p + 8);
            let n = (high as i64 - low as i64 + 1).max(0) as usize;
            p += 12;
            if p + 4 * n > bytes.len() {
                return None;
            }
            p + 4 * n - pc
        }
        O::Lookupswitch => {
            let mut p = pc + 1;
            while !p.is_multiple_of(4) {
                p += 1;
            }
            if p + 8 > bytes.len() {
                return None;
            }
            let npairs = read_i32(bytes, p + 4).max(0) as usize;
            p += 8;
            if p + 8 * npairs > bytes.len() {
                return None;
            }
            p + 8 * npairs - pc
        }
        _ => 1,
    };
    if pc + len > bytes.len() {
        None
    } else {
        Some(len)
    }
}

fn read_i32(bytes: &[u8], p: usize) -> i32 {
    i32::from_be_bytes([bytes[p], bytes[p + 1], bytes[p + 2], bytes[p + 3]])
}

fn read_u16(bytes: &[u8], p: usize) -> u16 {
    ((bytes[p] as u16) << 8) | bytes[p + 1] as u16
}

/// Maps a byte-pc branch target to an instruction index, or
/// [`BAD_TARGET`] when it is out of range or not a boundary.
fn map_target(pc_to_idx: &[u32], target: i64) -> u32 {
    if target < 0 || target as usize >= pc_to_idx.len() {
        return BAD_TARGET;
    }
    pc_to_idx[target as usize]
}

/// Pre-decodes one method's code into a [`PreparedCode`]: decode, fuse
/// superinstructions, lower.
pub fn predecode(code: &CodeBody, pool: &ConstPool) -> PreparedCode {
    let mut p = decode(code, pool);
    let mut fused_cmps: Vec<FusedCmp> = Vec::new();
    fuse_superinstructions(&mut p.insns, &mut fused_cmps);
    p.fused_cmps = fused_cmps.into_boxed_slice();
    p.threaded = p.insns.iter().map(|&x| Cell::new(lower(x))).collect();
    p
}

/// Passes 1 and 2: the plain stream with its maps and side tables, not
/// yet fused or lowered.
fn decode(code: &CodeBody, pool: &ConstPool) -> PreparedCode {
    let bytes = &code.bytes;

    // Pass 1: instruction boundaries.
    let mut starts: Vec<u32> = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut truncated = false;
    let mut pc = 0usize;
    while pc < bytes.len() {
        starts.push(pc as u32);
        match insn_len(bytes, pc) {
            Some(len) => pc += len,
            None => {
                truncated = true;
                break;
            }
        }
    }

    let mut pc_to_idx = vec![BAD_TARGET; bytes.len() + 1];
    for (idx, &start) in starts.iter().enumerate() {
        pc_to_idx[start as usize] = idx as u32;
    }
    // `bytes.len()` maps to the fell-off-end guard appended below, so a
    // frame suspended exactly past the last instruction resumes into it.
    pc_to_idx[bytes.len()] = starts.len() as u32;
    let mut idx_to_pc: Vec<u32> = starts.clone();
    idx_to_pc.push(bytes.len() as u32);

    // Pass 2: decode.
    let mut insns: Vec<XInsn> = Vec::with_capacity(starts.len());
    let mut switches: Vec<SwitchTable> = Vec::new();
    let mut iface_sites: Vec<IfaceSite> = Vec::new();
    for (idx, &start) in starts.iter().enumerate() {
        if truncated && idx == starts.len() - 1 {
            insns.push(XInsn::Trap(TrapKind::Truncated));
            break;
        }
        let insn = decode_one(
            bytes,
            start as usize,
            pool,
            &pc_to_idx,
            &mut switches,
            &mut iface_sites,
        );
        insns.push(insn);
    }

    // Guard: execution falling past the last instruction (malformed code
    // with no terminal return/goto/athrow) lands here and faults cleanly
    // instead of running off the stream. Its pc is `bytes.len()`, which
    // `idx_to_pc` already carries as its trailing entry.
    insns.push(XInsn::Trap(TrapKind::FellOffEnd));

    PreparedCode {
        insns: insns.into_boxed_slice(),
        idx_to_pc: idx_to_pc.into_boxed_slice(),
        pc_to_idx: pc_to_idx.into_boxed_slice(),
        switches: switches.into_boxed_slice(),
        iface_sites: iface_sites.into_boxed_slice(),
        fused_cmps: Box::new([]),
        call_sites: std::cell::RefCell::new(Vec::new()),
        virt_sites: std::cell::RefCell::new(Vec::new()),
        ldc_sites: std::cell::RefCell::new(Vec::new()),
        threaded: Box::new([]),
        hot_count: std::cell::Cell::new(0),
        back_edges: std::cell::Cell::new(0),
    }
}

/// Peephole pass: rewrites the first cell of each recognized pattern to a
/// superinstruction. The tail cells stay intact (non-destructive fusion),
/// so the only instructions eligible are pure ones that cannot fault —
/// mid-pattern suspension then behaves exactly like the unfused stream,
/// because resumption and short quanta execute the tail cells one by one.
/// Patterns whose branch target is [`BAD_TARGET`] (malformed bytecode)
/// are left unfused so the faulting pc matches the raw interpreter's.
fn fuse_superinstructions(insns: &mut [XInsn], fused_cmps: &mut Vec<FusedCmp>) {
    let mut i = 0;
    while i < insns.len() {
        // Load a; Load b; Iadd; Store c  →  AddStore{a,b,c} (width 4)
        if let [XInsn::Load(a), XInsn::Load(b), XInsn::Iadd, XInsn::Store(c), ..] = insns[i..] {
            insns[i] = XInsn::AddStore { a, b, c };
            i += 4;
            continue;
        }
        // Load slot; IConst k; IfICmp  →  FusedCmpBr (width 3)
        // Load slot; Load s;   IfICmp  →  FusedCmpBr (width 3)
        if let [XInsn::Load(slot), rhs, XInsn::IfICmp { cmp, target }, ..] = insns[i..] {
            let rhs = match rhs {
                XInsn::IConst(k) => Some(CmpRhs::Const(k)),
                XInsn::Load(s) => Some(CmpRhs::Local(s)),
                _ => None,
            };
            if let Some(rhs) = rhs {
                if target != BAD_TARGET && fused_cmps.len() <= u16::MAX as usize {
                    fused_cmps.push(FusedCmp {
                        slot,
                        rhs,
                        cmp,
                        target,
                    });
                    insns[i] = XInsn::FusedCmpBr((fused_cmps.len() - 1) as u16);
                    i += 3;
                    continue;
                }
            }
        }
        i += 1;
    }
}

fn decode_one(
    bytes: &[u8],
    pc: usize,
    pool: &ConstPool,
    pc_to_idx: &[u32],
    switches: &mut Vec<SwitchTable>,
    iface_sites: &mut Vec<IfaceSite>,
) -> XInsn {
    use Opcode as O;
    let op = match Opcode::from_byte(bytes[pc]) {
        Ok(op) => op,
        Err(_) => return XInsn::Invalid(bytes[pc]),
    };
    let branch = |off: i16| map_target(pc_to_idx, pc as i64 + off as i64);
    match op {
        O::Nop => XInsn::Nop,
        // ---- constants ----
        O::AconstNull => XInsn::AConstNull,
        O::IconstM1 => XInsn::IConst(-1),
        O::Iconst0 => XInsn::IConst(0),
        O::Iconst1 => XInsn::IConst(1),
        O::Iconst2 => XInsn::IConst(2),
        O::Iconst3 => XInsn::IConst(3),
        O::Iconst4 => XInsn::IConst(4),
        O::Iconst5 => XInsn::IConst(5),
        O::Lconst0 => XInsn::LConst(0),
        O::Lconst1 => XInsn::LConst(1),
        O::Fconst0 => XInsn::FConst(0.0),
        O::Fconst1 => XInsn::FConst(1.0),
        O::Fconst2 => XInsn::FConst(2.0),
        O::Dconst0 => XInsn::DConst(0.0),
        O::Dconst1 => XInsn::DConst(1.0),
        O::Bipush => XInsn::IConst(bytes[pc + 1] as i8 as i32),
        O::Sipush => XInsn::IConst(read_u16(bytes, pc + 1) as i16 as i32),
        O::Ldc | O::LdcW | O::Ldc2W => {
            let idx = if op == O::Ldc {
                bytes[pc + 1] as u16
            } else {
                read_u16(bytes, pc + 1)
            };
            // Numeric constants are isolate-independent: fold them now.
            match pool.get(idx) {
                Ok(ConstEntry::Integer(v)) => XInsn::IConst(*v),
                Ok(ConstEntry::Float(v)) => XInsn::FConst(*v),
                Ok(ConstEntry::Long(v)) => XInsn::LConst(*v),
                Ok(ConstEntry::Double(v)) => XInsn::DConst(*v),
                _ => XInsn::LdcSlow(idx),
            }
        }
        // ---- locals ----
        O::Iload | O::Lload | O::Fload | O::Dload | O::Aload => XInsn::Load(bytes[pc + 1] as u16),
        O::Iload0 | O::Iload1 | O::Iload2 | O::Iload3 => {
            XInsn::Load((op as u8 - O::Iload0 as u8) as u16)
        }
        O::Lload0 | O::Lload1 | O::Lload2 | O::Lload3 => {
            XInsn::Load((op as u8 - O::Lload0 as u8) as u16)
        }
        O::Fload0 | O::Fload1 | O::Fload2 | O::Fload3 => {
            XInsn::Load((op as u8 - O::Fload0 as u8) as u16)
        }
        O::Dload0 | O::Dload1 | O::Dload2 | O::Dload3 => {
            XInsn::Load((op as u8 - O::Dload0 as u8) as u16)
        }
        O::Aload0 | O::Aload1 | O::Aload2 | O::Aload3 => {
            XInsn::Load((op as u8 - O::Aload0 as u8) as u16)
        }
        O::Istore | O::Lstore | O::Fstore | O::Dstore | O::Astore => {
            XInsn::Store(bytes[pc + 1] as u16)
        }
        O::Istore0 | O::Istore1 | O::Istore2 | O::Istore3 => {
            XInsn::Store((op as u8 - O::Istore0 as u8) as u16)
        }
        O::Lstore0 | O::Lstore1 | O::Lstore2 | O::Lstore3 => {
            XInsn::Store((op as u8 - O::Lstore0 as u8) as u16)
        }
        O::Fstore0 | O::Fstore1 | O::Fstore2 | O::Fstore3 => {
            XInsn::Store((op as u8 - O::Fstore0 as u8) as u16)
        }
        O::Dstore0 | O::Dstore1 | O::Dstore2 | O::Dstore3 => {
            XInsn::Store((op as u8 - O::Dstore0 as u8) as u16)
        }
        O::Astore0 | O::Astore1 | O::Astore2 | O::Astore3 => {
            XInsn::Store((op as u8 - O::Astore0 as u8) as u16)
        }
        O::Iinc => XInsn::Iinc {
            slot: bytes[pc + 1] as u16,
            delta: bytes[pc + 2] as i8 as i16,
        },
        // ---- arrays ----
        O::Iaload
        | O::Laload
        | O::Faload
        | O::Daload
        | O::Aaload
        | O::Baload
        | O::Caload
        | O::Saload => XInsn::ArrLoad,
        O::Iastore
        | O::Lastore
        | O::Fastore
        | O::Dastore
        | O::Aastore
        | O::Bastore
        | O::Castore
        | O::Sastore => XInsn::ArrStore,
        O::Arraylength => XInsn::ArrayLength,
        O::Newarray => XInsn::NewArray(bytes[pc + 1]),
        O::Anewarray => XInsn::ANewArray(read_u16(bytes, pc + 1)),
        // ---- stack ----
        O::Pop => XInsn::Pop,
        O::Pop2 => XInsn::Pop2,
        O::Dup => XInsn::Dup,
        O::DupX1 => XInsn::DupX1,
        O::DupX2 => XInsn::DupX2,
        O::Dup2 => XInsn::Dup2,
        O::Dup2X1 => XInsn::Dup2X1,
        O::Dup2X2 => XInsn::Dup2X2,
        O::Swap => XInsn::Swap,
        // ---- arithmetic ----
        O::Iadd => XInsn::Iadd,
        O::Isub => XInsn::Isub,
        O::Imul => XInsn::Imul,
        O::Idiv => XInsn::Idiv,
        O::Irem => XInsn::Irem,
        O::Ineg => XInsn::Ineg,
        O::Ladd => XInsn::Ladd,
        O::Lsub => XInsn::Lsub,
        O::Lmul => XInsn::Lmul,
        O::Ldiv => XInsn::Ldiv,
        O::Lrem => XInsn::Lrem,
        O::Lneg => XInsn::Lneg,
        O::Fadd => XInsn::Fadd,
        O::Fsub => XInsn::Fsub,
        O::Fmul => XInsn::Fmul,
        O::Fdiv => XInsn::Fdiv,
        O::Frem => XInsn::Frem,
        O::Fneg => XInsn::Fneg,
        O::Dadd => XInsn::Dadd,
        O::Dsub => XInsn::Dsub,
        O::Dmul => XInsn::Dmul,
        O::Ddiv => XInsn::Ddiv,
        O::Drem => XInsn::Drem,
        O::Dneg => XInsn::Dneg,
        O::Ishl => XInsn::Ishl,
        O::Ishr => XInsn::Ishr,
        O::Iushr => XInsn::Iushr,
        O::Lshl => XInsn::Lshl,
        O::Lshr => XInsn::Lshr,
        O::Lushr => XInsn::Lushr,
        O::Iand => XInsn::Iand,
        O::Ior => XInsn::Ior,
        O::Ixor => XInsn::Ixor,
        O::Land => XInsn::Land,
        O::Lor => XInsn::Lor,
        O::Lxor => XInsn::Lxor,
        // ---- conversions ----
        O::I2l => XInsn::I2l,
        O::I2f => XInsn::I2f,
        O::I2d => XInsn::I2d,
        O::L2i => XInsn::L2i,
        O::L2f => XInsn::L2f,
        O::L2d => XInsn::L2d,
        O::F2i => XInsn::F2i,
        O::F2l => XInsn::F2l,
        O::F2d => XInsn::F2d,
        O::D2i => XInsn::D2i,
        O::D2l => XInsn::D2l,
        O::D2f => XInsn::D2f,
        O::I2b => XInsn::I2b,
        O::I2c => XInsn::I2c,
        O::I2s => XInsn::I2s,
        // ---- comparisons ----
        O::Lcmp => XInsn::Lcmp,
        O::Fcmpl => XInsn::Fcmp { nan_is_one: false },
        O::Fcmpg => XInsn::Fcmp { nan_is_one: true },
        O::Dcmpl => XInsn::Dcmp { nan_is_one: false },
        O::Dcmpg => XInsn::Dcmp { nan_is_one: true },
        // ---- branches ----
        O::Ifeq | O::Ifne | O::Iflt | O::Ifge | O::Ifgt | O::Ifle => {
            let cmp = match op {
                O::Ifeq => Cmp::Eq,
                O::Ifne => Cmp::Ne,
                O::Iflt => Cmp::Lt,
                O::Ifge => Cmp::Ge,
                O::Ifgt => Cmp::Gt,
                _ => Cmp::Le,
            };
            XInsn::If {
                cmp,
                target: branch(read_u16(bytes, pc + 1) as i16),
            }
        }
        O::IfIcmpeq | O::IfIcmpne | O::IfIcmplt | O::IfIcmpge | O::IfIcmpgt | O::IfIcmple => {
            let cmp = match op {
                O::IfIcmpeq => Cmp::Eq,
                O::IfIcmpne => Cmp::Ne,
                O::IfIcmplt => Cmp::Lt,
                O::IfIcmpge => Cmp::Ge,
                O::IfIcmpgt => Cmp::Gt,
                _ => Cmp::Le,
            };
            XInsn::IfICmp {
                cmp,
                target: branch(read_u16(bytes, pc + 1) as i16),
            }
        }
        O::IfAcmpeq | O::IfAcmpne => XInsn::IfACmp {
            eq: op == O::IfAcmpeq,
            target: branch(read_u16(bytes, pc + 1) as i16),
        },
        O::Ifnull | O::Ifnonnull => XInsn::IfNull {
            is_null: op == O::Ifnull,
            target: branch(read_u16(bytes, pc + 1) as i16),
        },
        O::Goto => XInsn::Goto(branch(read_u16(bytes, pc + 1) as i16)),
        O::Tableswitch => {
            let mut p = pc + 1;
            while !p.is_multiple_of(4) {
                p += 1;
            }
            let default = map_target(pc_to_idx, pc as i64 + read_i32(bytes, p) as i64);
            let low = read_i32(bytes, p + 4);
            let high = read_i32(bytes, p + 8);
            let n = (high as i64 - low as i64 + 1).max(0) as usize;
            let targets: Box<[u32]> = (0..n)
                .map(|i| {
                    map_target(
                        pc_to_idx,
                        pc as i64 + read_i32(bytes, p + 12 + 4 * i) as i64,
                    )
                })
                .collect();
            switches.push(SwitchTable::Table {
                default,
                low,
                targets,
            });
            XInsn::TableSwitch((switches.len() - 1) as u16)
        }
        O::Lookupswitch => {
            let mut p = pc + 1;
            while !p.is_multiple_of(4) {
                p += 1;
            }
            let default = map_target(pc_to_idx, pc as i64 + read_i32(bytes, p) as i64);
            let npairs = read_i32(bytes, p + 4).max(0) as usize;
            let pairs: Box<[(i32, u32)]> = (0..npairs)
                .map(|i| {
                    let base = p + 8 + 8 * i;
                    let key = read_i32(bytes, base);
                    let target =
                        map_target(pc_to_idx, pc as i64 + read_i32(bytes, base + 4) as i64);
                    (key, target)
                })
                .collect();
            switches.push(SwitchTable::Lookup { default, pairs });
            XInsn::LookupSwitch((switches.len() - 1) as u16)
        }
        // ---- returns ----
        O::Return => XInsn::Return,
        O::Ireturn | O::Lreturn | O::Freturn | O::Dreturn | O::Areturn => XInsn::ReturnValue,
        // ---- fields ----
        O::Getstatic => XInsn::GetStatic(read_u16(bytes, pc + 1)),
        O::Putstatic => XInsn::PutStatic(read_u16(bytes, pc + 1)),
        O::Getfield => XInsn::GetField(read_u16(bytes, pc + 1)),
        O::Putfield => XInsn::PutField(read_u16(bytes, pc + 1)),
        // ---- invocation ----
        O::Invokestatic => XInsn::InvokeStatic(read_u16(bytes, pc + 1)),
        O::Invokespecial => XInsn::InvokeSpecial(read_u16(bytes, pc + 1)),
        O::Invokevirtual => XInsn::InvokeVirtual(read_u16(bytes, pc + 1)),
        O::Invokeinterface => {
            let cp = read_u16(bytes, pc + 1);
            // Pre-read the member reference so execution never touches the
            // pool; fall back to the rtcp path when it is malformed.
            let site = pool.member_ref_at(cp).ok().and_then(|(_c, name, desc)| {
                let parsed = MethodDescriptor::parse(desc).ok()?;
                Some(IfaceSite {
                    name: Arc::from(name),
                    descriptor: Arc::from(desc),
                    arg_slots: parsed.param_slots() as u16 + 1,
                    cache: Cell::new(None),
                })
            });
            match site {
                Some(site) => {
                    iface_sites.push(site);
                    XInsn::InvokeInterface((iface_sites.len() - 1) as u16)
                }
                None => XInsn::InvokeIfaceSlow(cp),
            }
        }
        // ---- objects ----
        O::New => XInsn::New(read_u16(bytes, pc + 1)),
        O::Athrow => XInsn::Athrow,
        O::Checkcast => XInsn::Checkcast(read_u16(bytes, pc + 1)),
        O::Instanceof => XInsn::InstanceOf(read_u16(bytes, pc + 1)),
        O::Monitorenter => XInsn::MonitorEnter,
        O::Monitorexit => XInsn::MonitorExit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Random pool-free code biased toward the fusable shapes. Branch
    /// offsets may miss an instruction boundary (`BAD_TARGET`, which
    /// stays unfused).
    fn assemble(ops: &[u8]) -> Vec<u8> {
        let insn = |op: u8| match op % 6 {
            0 => vec![Opcode::Iload0 as u8 + op % 4],
            1 => vec![Opcode::Iconst0 as u8 + op % 6],
            2 => vec![Opcode::Iadd as u8],
            3 => vec![Opcode::Istore as u8, op % 4],
            4 => vec![Opcode::IfIcmpeq as u8 + op % 6, 0, 3 + op % 8],
            _ => vec![Opcode::Nop as u8],
        };
        let ret = [Opcode::Return as u8];
        ops.iter().flat_map(|&op| insn(op)).chain(ret).collect()
    }

    proptest! {
        /// Fusion rewrites only the head of each pattern: the plain stream
        /// holds the whole pattern there, every other cell (the tails
        /// included) keeps its plain instruction, and fused branches target
        /// real instruction boundaries.
        #[test]
        fn fusion_preserves_maps_and_targets(ops in proptest::collection::vec(any::<u8>(), 0..200)) {
            let body = CodeBody { max_stack: 8, max_locals: 4, bytes: assemble(&ops), handlers: Vec::new() };
            let plain = decode(&body, &ConstPool::new());
            let mut fused = plain.insns.to_vec();
            let mut cmps = Vec::new();
            fuse_superinstructions(&mut fused, &mut cmps);
            for (i, &cell) in fused.iter().enumerate() {
                let pattern = match cell {
                    XInsn::AddStore { a, b, c } => vec![XInsn::Load(a), XInsn::Load(b), XInsn::Iadd, XInsn::Store(c)],
                    XInsn::FusedCmpBr(si) => {
                        let FusedCmp { slot, rhs, cmp, target } = cmps[si as usize];
                        let boundary = plain.pc_of_index(target).and_then(|pc| plain.index_of_pc(pc));
                        prop_assert_eq!(boundary, Some(target));
                        let rhs = match rhs { CmpRhs::Const(k) => XInsn::IConst(k), CmpRhs::Local(s) => XInsn::Load(s) };
                        vec![XInsn::Load(slot), rhs, XInsn::IfICmp { cmp, target }]
                    }
                    other => vec![other],
                };
                prop_assert_eq!(&plain.insns[i..i + pattern.len()], &pattern[..]);
                prop_assert_eq!(&fused[i + 1..i + pattern.len()], &pattern[1..]);
            }
        }
    }
}
