//! Handlers: constants (including the quickened string `ldc`), locals,
//! and operand-stack manipulation.

use super::{lo32, tchk, tfr, tpop, tpush, Ctx, Flow};
use crate::engine::xinsn::{LdcSite, XInsn};
use crate::interp::load_constant;
use crate::value::Value;
use ijvm_classfile::ConstEntry;
use std::cell::Cell;

pub(crate) fn h_nop(_c: &mut Ctx<'_>, _op: u64) -> Flow {
    Flow::Next
}

// ---- constants ----

pub(crate) fn h_aconst_null(c: &mut Ctx<'_>, _op: u64) -> Flow {
    tpush!(c, Value::Null);
    Flow::Next
}

pub(crate) fn h_iconst(c: &mut Ctx<'_>, op: u64) -> Flow {
    tpush!(c, Value::Int(lo32(op) as i32));
    Flow::Next
}

pub(crate) fn h_lconst(c: &mut Ctx<'_>, op: u64) -> Flow {
    tpush!(c, Value::Long(op as i64));
    Flow::Next
}

pub(crate) fn h_fconst(c: &mut Ctx<'_>, op: u64) -> Flow {
    tpush!(c, Value::Float(f32::from_bits(lo32(op))));
    Flow::Next
}

pub(crate) fn h_dconst(c: &mut Ctx<'_>, op: u64) -> Flow {
    tpush!(c, Value::Double(f64::from_bits(op)));
    Flow::Next
}

/// Slow `ldc` of a string/class constant. String constants quicken to
/// [`h_ldc_str`] with a per-site cache; class constants (whose
/// resolution can create mirrors) stay on this handler and re-resolve
/// through [`load_constant`] every execution, exactly like the raw
/// interpreter.
pub(crate) fn h_ldc_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    let cp = lo32(op) as u16;
    let class_id = tfr!(c).class;
    let is_string = matches!(
        c.vm.classes[class_id.0 as usize].pool.get(cp),
        Ok(ConstEntry::String { .. })
    );
    if is_string {
        let mut sites = c.prepared.ldc_sites.borrow_mut();
        if sites.len() <= u16::MAX as usize {
            sites.push(LdcSite {
                cp,
                cache: Cell::new(None),
            });
            let si = (sites.len() - 1) as u16;
            drop(sites);
            return c.requicken(XInsn::LdcStr(si));
        }
    }
    c.flush_at(c.next);
    let v = tchk!(c, load_constant(c.vm, c.tid, class_id, cp));
    tpush!(c, v);
    Flow::Next
}

/// The quickened string `ldc`: a `(isolate, gc-epoch, ref)` cache hit pushes
/// the interned string without touching the intern map; any GC (epoch
/// bump), isolate switch, or interned-ref death re-resolves and refills.
pub(crate) fn h_ldc_str(c: &mut Ctx<'_>, op: u64) -> Flow {
    let si = lo32(op) as usize;
    let iso = c.vm.threads[c.t].current_isolate;
    let cached = c.prepared.ldc_sites.borrow()[si].cache.get();
    match cached {
        Some((cc, epoch, r)) if cc == iso && epoch == c.vm.gc_count && c.vm.heap.is_live(r) => {
            tpush!(c, Value::Ref(r));
        }
        _ => {
            c.flush_at(c.next);
            let class_id = tfr!(c).class;
            let cp = c.prepared.ldc_sites.borrow()[si].cp;
            let v = tchk!(c, load_constant(c.vm, c.tid, class_id, cp));
            if let Value::Ref(r) = v {
                let epoch = c.vm.gc_count;
                c.prepared.ldc_sites.borrow()[si]
                    .cache
                    .set(Some((iso, epoch, r)));
            }
            tpush!(c, v);
        }
    }
    Flow::Next
}

// ---- locals ----

pub(crate) fn h_load(c: &mut Ctx<'_>, op: u64) -> Flow {
    let v = tfr!(c).locals[lo32(op) as usize];
    tpush!(c, v);
    Flow::Next
}

pub(crate) fn h_store(c: &mut Ctx<'_>, op: u64) -> Flow {
    let v = tpop!(c);
    tfr!(c).locals[lo32(op) as usize] = v;
    Flow::Next
}

pub(crate) fn h_iinc(c: &mut Ctx<'_>, op: u64) -> Flow {
    let slot = (op as u16) as usize;
    let delta = (op >> 16) as u16 as i16 as i32;
    let f = &mut tfr!(c);
    f.locals[slot] = Value::Int(f.locals[slot].as_int().wrapping_add(delta));
    Flow::Next
}

// ---- operand stack ----

pub(crate) fn h_pop(c: &mut Ctx<'_>, _op: u64) -> Flow {
    tpop!(c);
    Flow::Next
}

pub(crate) fn h_pop2(c: &mut Ctx<'_>, _op: u64) -> Flow {
    tpop!(c);
    tpop!(c);
    Flow::Next
}

pub(crate) fn h_dup(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let v = *tfr!(c).stack.last().expect("dup on empty stack");
    tpush!(c, v);
    Flow::Next
}

pub(crate) fn h_dup_x1(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let a = tpop!(c);
    let b = tpop!(c);
    tpush!(c, a);
    tpush!(c, b);
    tpush!(c, a);
    Flow::Next
}

pub(crate) fn h_dup_x2(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let a = tpop!(c);
    let b = tpop!(c);
    let d = tpop!(c);
    tpush!(c, a);
    tpush!(c, d);
    tpush!(c, b);
    tpush!(c, a);
    Flow::Next
}

pub(crate) fn h_dup2(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let a = tpop!(c);
    let b = tpop!(c);
    tpush!(c, b);
    tpush!(c, a);
    tpush!(c, b);
    tpush!(c, a);
    Flow::Next
}

pub(crate) fn h_dup2_x1(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let a = tpop!(c);
    let b = tpop!(c);
    let d = tpop!(c);
    tpush!(c, b);
    tpush!(c, a);
    tpush!(c, d);
    tpush!(c, b);
    tpush!(c, a);
    Flow::Next
}

pub(crate) fn h_dup2_x2(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let a = tpop!(c);
    let b = tpop!(c);
    let d = tpop!(c);
    let e = tpop!(c);
    tpush!(c, b);
    tpush!(c, a);
    tpush!(c, e);
    tpush!(c, d);
    tpush!(c, b);
    tpush!(c, a);
    Flow::Next
}

pub(crate) fn h_swap(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let a = tpop!(c);
    let b = tpop!(c);
    tpush!(c, a);
    tpush!(c, b);
    Flow::Next
}
