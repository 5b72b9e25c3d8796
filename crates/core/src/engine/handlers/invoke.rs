//! Handlers: every `invoke*` form. Slow handlers resolve and rewrite
//! their cell to the fused form (plain bytecode targets: the resolved
//! method and precomputed frame shape move into a [`CallSite`]) or the
//! resolved fallback (native / synchronized / abstract targets, or a
//! full side table); fused handlers push the callee frame through
//! `invoke_fused` without re-reading method metadata.

use super::{lo32, pack_method, tchk, tfr, unpack_method, Ctx, Flow};
use crate::class::RtCp;
use crate::engine::build_call_site;
use crate::engine::xinsn::{VirtSite, XInsn};
use crate::interp::{
    lookup_virtual, peek_receiver, resolve_direct_method, resolve_interface_method,
    resolve_virtual_method,
};
use crate::vm::Thrown;
use std::cell::RefCell;

/// Whether a fused virtual site's monomorphic cache can still be filled:
/// `Cold` caches the first fuseable receiver; `Polymorphic` (the cache
/// already holds a *different* class) never rebuilds, so megamorphic
/// sites stay allocation-free on the plain vtable path.
#[derive(PartialEq)]
enum CacheState {
    Cold,
    Polymorphic,
}

/// Quickens an `invokestatic`/`invokespecial` slow form to its fused
/// form, or to the resolved fallback when the target cannot fuse.
fn quicken_direct_call(c: &mut Ctx<'_>, cp: u16, is_static: bool) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let target = tchk!(c, resolve_direct_method(c.vm, class_id, cp));
    let arg_slots = c.vm.classes[target.class.0 as usize].methods[target.index as usize].arg_slots;
    match build_call_site(c.vm, target) {
        Some(site) => {
            let mut sites = c.prepared.call_sites.borrow_mut();
            if sites.len() <= u16::MAX as usize {
                sites.push(site);
                let si = (sites.len() - 1) as u16;
                drop(sites);
                c.requicken(if is_static {
                    XInsn::InvokeStaticF(si)
                } else {
                    XInsn::InvokeDirectF(si)
                })
            } else {
                drop(sites);
                c.requicken(if is_static {
                    XInsn::InvokeStaticR { target, arg_slots }
                } else {
                    XInsn::InvokeDirectR { target, arg_slots }
                })
            }
        }
        None => c.requicken(if is_static {
            XInsn::InvokeStaticR { target, arg_slots }
        } else {
            XInsn::InvokeDirectR { target, arg_slots }
        }),
    }
}

pub(crate) fn h_invokestatic_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    quicken_direct_call(c, lo32(op) as u16, true)
}

pub(crate) fn h_invokespecial_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    quicken_direct_call(c, lo32(op) as u16, false)
}

/// Resolved `invokestatic`: the target-class init check still runs on
/// every execution in `Isolated` mode; `Shared` mode drops it after the
/// first execution, like the baseline JIT.
pub(crate) fn h_invokestatic_r(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let (target, arg_slots) = unpack_method(op);
    if let Some(f) = c.ensure_class_ready(target.class) {
        return f;
    }
    if c.shared_mode {
        c.prepared.threaded_cells()[c.cur].set(super::TCell {
            handler: h_invoke_direct,
            operand: pack_method(target, arg_slots),
        });
    }
    c.finish_invoke(target, arg_slots)
}

/// `InvokeStaticI` / `InvokeDirectR`: resolved target, no init check.
pub(crate) fn h_invoke_direct(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let (target, arg_slots) = unpack_method(op);
    c.finish_invoke(target, arg_slots)
}

/// Fused `invokestatic`: `Shared` mode drops the init check after first
/// execution ([`h_invoke_fused_site`]); `Isolated` re-checks every time.
pub(crate) fn h_invokestatic_f(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let si = lo32(op);
    let site = c.prepared.call_sites.borrow()[si as usize].share();
    if let Some(f) = c.ensure_class_ready(site.target.class) {
        return f;
    }
    if c.shared_mode {
        c.prepared.threaded_cells()[c.cur].set(super::TCell {
            handler: h_invoke_fused_site,
            operand: si as u64,
        });
    }
    c.fused_call(&site)
}

/// `InvokeStaticFI` / `InvokeDirectF`: straight through the call site.
pub(crate) fn h_invoke_fused_site(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let site = c.prepared.call_sites.borrow()[lo32(op) as usize].share();
    c.fused_call(&site)
}

pub(crate) fn h_invokevirtual_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let (vslot, arg_slots) = tchk!(c, resolve_virtual_method(c.vm, class_id, lo32(op) as u16));
    let mut sites = c.prepared.virt_sites.borrow_mut();
    if sites.len() <= u16::MAX as usize {
        sites.push(VirtSite {
            vslot,
            arg_slots,
            cache: RefCell::new(None),
        });
        let si = (sites.len() - 1) as u16;
        drop(sites);
        c.requicken(XInsn::InvokeVirtualF(si))
    } else {
        drop(sites);
        c.requicken(XInsn::InvokeVirtualR { vslot, arg_slots })
    }
}

fn missing_vslot(vslot: u32) -> Thrown {
    Thrown::ByName {
        class_name: "java/lang/AbstractMethodError",
        message: format!("vtable slot {vslot} missing"),
    }
}

pub(crate) fn h_invokevirtual_r(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let vslot = lo32(op);
    let arg_slots = (op >> 32) as u16;
    let receiver = tchk!(c, peek_receiver(c.vm, c.t, c.fidx, arg_slots));
    let rc = c.vm.heap.get(receiver).class;
    let target = match c.vm.classes[rc.0 as usize].vtable.get(vslot as usize) {
        Some(&mref) => mref,
        None => return c.throw(missing_vslot(vslot)),
    };
    c.finish_invoke(target, arg_slots)
}

pub(crate) fn h_invokevirtual_f(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let si = lo32(op) as usize;
    let (vslot, arg_slots, cached) = {
        let sites = c.prepared.virt_sites.borrow();
        let s = &sites[si];
        let out = (
            s.vslot,
            s.arg_slots,
            s.cache.borrow().as_ref().map(|(c, cs)| (*c, cs.share())),
        );
        out
    };
    let receiver = tchk!(c, peek_receiver(c.vm, c.t, c.fidx, arg_slots));
    let rc = c.vm.heap.get(receiver).class;
    // Monomorphic shape cache: a hit skips the vtable read and all
    // method-metadata loads. A miss on an already-populated cache means
    // the site is polymorphic — don't rebuild/overwrite per call; keep
    // the cached class and take the plain vtable path.
    let cache_state = match &cached {
        Some((cc, site)) if *cc == rc => {
            let site = site.share();
            return c.fused_call(&site);
        }
        Some(_) => CacheState::Polymorphic,
        None => CacheState::Cold,
    };
    let target = match c.vm.classes[rc.0 as usize].vtable.get(vslot as usize) {
        Some(&mref) => mref,
        None => return c.throw(missing_vslot(vslot)),
    };
    if cache_state == CacheState::Cold {
        match build_call_site(c.vm, target) {
            Some(site) => {
                {
                    let sites = c.prepared.virt_sites.borrow();
                    *sites[si].cache.borrow_mut() = Some((rc, site.share()));
                }
                c.fused_call(&site)
            }
            // Native/synchronized targets keep the shared path (monitor
            // entry, native dispatch).
            None => c.finish_invoke(target, arg_slots),
        }
    } else {
        c.finish_invoke(target, arg_slots)
    }
}

pub(crate) fn h_invokeinterface(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let s = &c.prepared.iface_sites[lo32(op) as usize];
    let arg_slots = s.arg_slots;
    let receiver = tchk!(c, peek_receiver(c.vm, c.t, c.fidx, arg_slots));
    let rc = c.vm.heap.get(receiver).class;
    // Per-site inline cache, migrated out of RtCp into the stream.
    let target = match s.cache.get() {
        Some((cc, mref)) if cc == rc => mref,
        _ => {
            let found = match lookup_virtual(c.vm, rc, &s.name, &s.descriptor) {
                Some(m) => m,
                None => {
                    let msg = format!(
                        "{}{} on {}",
                        s.name, s.descriptor, c.vm.classes[rc.0 as usize].name
                    );
                    return c.throw(Thrown::ByName {
                        class_name: "java/lang/AbstractMethodError",
                        message: msg,
                    });
                }
            };
            s.cache.set(Some((rc, found)));
            found
        }
    };
    c.finish_invoke(target, arg_slots)
}

/// Pool entry was malformed at pre-decode time: run the raw
/// interpreter's rtcp path verbatim.
pub(crate) fn h_invokeiface_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let cp = lo32(op) as u16;
    let class_id = tfr!(c).class;
    let (name, desc, arg_slots) = tchk!(c, resolve_interface_method(c.vm, class_id, cp));
    let receiver = tchk!(c, peek_receiver(c.vm, c.t, c.fidx, arg_slots));
    let rc = c.vm.heap.get(receiver).class;
    let cached = match &c.vm.classes[class_id.0 as usize].rtcp[cp as usize] {
        RtCp::InterfaceMethod {
            cache: Some((cc, mref)),
            ..
        } if *cc == rc => Some(*mref),
        _ => None,
    };
    let target = match cached {
        Some(mref) => mref,
        None => {
            let found = match lookup_virtual(c.vm, rc, &name, &desc) {
                Some(m) => m,
                None => {
                    let msg = format!("{name}{desc} on {}", c.vm.classes[rc.0 as usize].name);
                    return c.throw(Thrown::ByName {
                        class_name: "java/lang/AbstractMethodError",
                        message: msg,
                    });
                }
            };
            if let RtCp::InterfaceMethod { cache, .. } =
                &mut c.vm.classes[class_id.0 as usize].rtcp[cp as usize]
            {
                *cache = Some((rc, found));
            }
            found
        }
    };
    c.finish_invoke(target, arg_slots)
}
