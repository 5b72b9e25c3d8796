//! The pre-decoded internal instruction set.
//!
//! [`XInsn`] is a fixed-width (16-byte), `Copy` representation of one
//! bytecode instruction with its operands fused in: immediate constants
//! are materialized, the `iload_0`…`aload_3` short families collapse into
//! a single typeless [`XInsn::Load`], and branch targets are pre-computed
//! *instruction indices* rather than byte offsets, so the dispatch loop
//! never re-reads operand bytes and never re-aligns switch payloads.
//!
//! Constant-pool-indexed instructions start in their *slow* form carrying
//! the pool index (`GetStatic`, `InvokeVirtual`, …). On first execution
//! the threaded dispatch resolves them and rewrites its cell in place to
//! a *resolved* form (`GetStaticR`, `InvokeVirtualR`, …) carrying direct
//! slot/vtable/method operands — the classic quickening transition. In
//! `Shared` isolation mode a second transition to the *init-elided* forms
//! (`GetStaticI`, `NewI`, `InvokeStaticI`) models the baseline JIT
//! dropping the class-initialization check once it has passed, exactly
//! like the `RtCp::StaticFieldInit`/`ClassInit`/`DirectMethodInit` fast
//! paths of the raw interpreter.

use crate::class::CodeBody;
use crate::ids::{ClassId, IsolateId, MethodRef};
use crate::vmrc::VmRc;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Comparison kind for `if*` and `if_icmp*` branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `== 0` / `a == b`
    Eq,
    /// `!= 0` / `a != b`
    Ne,
    /// `< 0` / `a < b`
    Lt,
    /// `>= 0` / `a >= b`
    Ge,
    /// `> 0` / `a > b`
    Gt,
    /// `<= 0` / `a <= b`
    Le,
}

impl Cmp {
    /// Evaluates the comparison against zero.
    #[inline]
    pub(crate) fn test(self, v: i32) -> bool {
        match self {
            Cmp::Eq => v == 0,
            Cmp::Ne => v != 0,
            Cmp::Lt => v < 0,
            Cmp::Ge => v >= 0,
            Cmp::Gt => v > 0,
            Cmp::Le => v <= 0,
        }
    }
}

/// A branch target that points into the middle of an instruction (only
/// reachable through malformed hand-crafted bytecode). Executing it
/// raises `VerifyError`.
pub const BAD_TARGET: u32 = u32::MAX;

/// Why a [`XInsn::Trap`] was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// The instruction's operand bytes run past the end of the code.
    Truncated,
    /// A branch lands inside another instruction's operands.
    BadBranch,
    /// Execution ran past the last instruction (method code with no
    /// terminal `return`/`goto`/`athrow`). Every stream ends with this
    /// guard so the dispatch loop needs no per-instruction bounds check.
    FellOffEnd,
}

/// One pre-decoded instruction. Fixed-width and `Copy`, so the stream is
/// a dense array; quickening rewrites the lowered [`super::handlers::TCell`],
/// never this stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum XInsn {
    /// No operation.
    Nop,
    // ---- constants (immediates fused at pre-decode time) ----
    /// Push an `int` constant (`iconst_*`, `bipush`, `sipush`, numeric `ldc`).
    IConst(i32),
    /// Push a `long` constant.
    LConst(i64),
    /// Push a `float` constant.
    FConst(f32),
    /// Push a `double` constant.
    DConst(f64),
    /// Push `null`.
    AConstNull,
    /// `ldc` of a string/class constant: isolate-dependent, resolved on
    /// every execution through the current isolate's maps. String
    /// constants quicken to [`XInsn::LdcStr`] on first execution; class
    /// constants stay slow (their resolution can create mirrors).
    LdcSlow(u16),
    /// The quickened `ldc` of a string constant with a per-site monomorphic
    /// `(isolate, gc-epoch, ref)` cache; operand indexes
    /// `super::PreparedCode::ldc_sites`. A hit pushes the interned ref
    /// without touching the isolate's intern map; the cache invalidates
    /// whenever the GC epoch advances (collections can reshape the heap,
    /// and isolate termination clears intern maps and always collects),
    /// or when a different isolate executes the site.
    LdcStr(u16),
    // ---- locals (typeless in this VM's one-slot model) ----
    /// Push local slot `n` (all `*load` forms).
    Load(u16),
    /// Pop into local slot `n` (all `*store` forms).
    Store(u16),
    /// `iinc slot, delta`.
    Iinc {
        /// Local slot.
        slot: u16,
        /// Signed increment.
        delta: i16,
    },
    // ---- superinstructions (peephole-fused at pre-decode time) ----
    /// Fused `Load a; Load b; Iadd; Store c` (the classic accumulate
    /// shape). Counts as **4** logical instructions. The fused cell
    /// replaces only the *first* component; the tail cells keep their
    /// original instructions, so branches into the middle of the pattern
    /// and resumptions at a mid-pattern pc execute unfused, and when the
    /// remaining quantum cannot cover the full width the dispatch loop
    /// de-fuses to the leading `Load` — scheduling stays bit-identical to
    /// the unfused stream.
    AddStore {
        /// First operand's local slot.
        a: u16,
        /// Second operand's local slot.
        b: u16,
        /// Destination local slot.
        c: u16,
    },
    /// Fused compare-and-branch (`Load` + `IConst`/`Load` + `IfICmp`);
    /// operand indexes [`super::PreparedCode::fused_cmps`]. Counts as
    /// **3** logical instructions; de-fuses like [`XInsn::AddStore`].
    FusedCmpBr(u16),
    // ---- arrays ----
    /// All `*aload` forms (the element type lives in the array body).
    ArrLoad,
    /// All `*astore` forms.
    ArrStore,
    /// `arraylength`.
    ArrayLength,
    /// `newarray atype`.
    NewArray(u8),
    /// `anewarray cp_index`.
    ANewArray(u16),
    // ---- operand stack ----
    /// `pop`
    Pop,
    /// `pop2`
    Pop2,
    /// `dup`
    Dup,
    /// `dup_x1`
    DupX1,
    /// `dup_x2`
    DupX2,
    /// `dup2`
    Dup2,
    /// `dup2_x1`
    Dup2X1,
    /// `dup2_x2`
    Dup2X2,
    /// `swap`
    Swap,
    // ---- arithmetic ----
    /// `iadd`
    Iadd,
    /// `isub`
    Isub,
    /// `imul`
    Imul,
    /// `idiv`
    Idiv,
    /// `irem`
    Irem,
    /// `ineg`
    Ineg,
    /// `ladd`
    Ladd,
    /// `lsub`
    Lsub,
    /// `lmul`
    Lmul,
    /// `ldiv`
    Ldiv,
    /// `lrem`
    Lrem,
    /// `lneg`
    Lneg,
    /// `fadd`
    Fadd,
    /// `fsub`
    Fsub,
    /// `fmul`
    Fmul,
    /// `fdiv`
    Fdiv,
    /// `frem`
    Frem,
    /// `fneg`
    Fneg,
    /// `dadd`
    Dadd,
    /// `dsub`
    Dsub,
    /// `dmul`
    Dmul,
    /// `ddiv`
    Ddiv,
    /// `drem`
    Drem,
    /// `dneg`
    Dneg,
    /// `ishl`
    Ishl,
    /// `ishr`
    Ishr,
    /// `iushr`
    Iushr,
    /// `lshl`
    Lshl,
    /// `lshr`
    Lshr,
    /// `lushr`
    Lushr,
    /// `iand`
    Iand,
    /// `ior`
    Ior,
    /// `ixor`
    Ixor,
    /// `land`
    Land,
    /// `lor`
    Lor,
    /// `lxor`
    Lxor,
    // ---- conversions ----
    /// `i2l`
    I2l,
    /// `i2f`
    I2f,
    /// `i2d`
    I2d,
    /// `l2i`
    L2i,
    /// `l2f`
    L2f,
    /// `l2d`
    L2d,
    /// `f2i`
    F2i,
    /// `f2l`
    F2l,
    /// `f2d`
    F2d,
    /// `d2i`
    D2i,
    /// `d2l`
    D2l,
    /// `d2f`
    D2f,
    /// `i2b`
    I2b,
    /// `i2c`
    I2c,
    /// `i2s`
    I2s,
    // ---- comparisons ----
    /// `lcmp`
    Lcmp,
    /// `fcmpl`/`fcmpg`
    Fcmp {
        /// NaN compares as `1` (`fcmpg`) instead of `-1` (`fcmpl`).
        nan_is_one: bool,
    },
    /// `dcmpl`/`dcmpg`
    Dcmp {
        /// NaN compares as `1` (`dcmpg`) instead of `-1` (`dcmpl`).
        nan_is_one: bool,
    },
    // ---- branches (targets are instruction indices) ----
    /// `ifeq`…`ifle`.
    If {
        /// Comparison against zero.
        cmp: Cmp,
        /// Target instruction index.
        target: u32,
    },
    /// `if_icmpeq`…`if_icmple`.
    IfICmp {
        /// Comparison between the two popped ints.
        cmp: Cmp,
        /// Target instruction index.
        target: u32,
    },
    /// `if_acmpeq`/`if_acmpne`.
    IfACmp {
        /// Branch on reference equality (`if_acmpeq`) or inequality.
        eq: bool,
        /// Target instruction index.
        target: u32,
    },
    /// `ifnull`/`ifnonnull`.
    IfNull {
        /// Branch when null (`ifnull`) or when non-null.
        is_null: bool,
        /// Target instruction index.
        target: u32,
    },
    /// `goto`.
    Goto(u32),
    /// `tableswitch`; operand indexes [`super::PreparedCode::switches`].
    TableSwitch(u16),
    /// `lookupswitch`; operand indexes [`super::PreparedCode::switches`].
    LookupSwitch(u16),
    // ---- returns ----
    /// `return`.
    Return,
    /// `ireturn`/`lreturn`/`freturn`/`dreturn`/`areturn`.
    ReturnValue,
    // ---- fields ----
    /// Unresolved `getstatic cp` (quickens to [`XInsn::GetStaticR`]).
    GetStatic(u16),
    /// Unresolved `putstatic cp`.
    PutStatic(u16),
    /// Resolved static read; the per-isolate mirror lookup and the
    /// initialization check still run on every execution (paper §3.1:
    /// I-JVM cannot elide them).
    GetStaticR {
        /// Class whose mirror holds the slot.
        class: ClassId,
        /// Slot in the mirror's statics array.
        slot: u32,
    },
    /// Resolved static write (checks as [`XInsn::GetStaticR`]).
    PutStaticR {
        /// Class whose mirror holds the slot.
        class: ClassId,
        /// Slot in the mirror's statics array.
        slot: u32,
    },
    /// `Shared`-mode static read with the init check elided (the baseline
    /// JIT's behaviour after first execution).
    GetStaticI {
        /// Class whose mirror holds the slot.
        class: ClassId,
        /// Slot in the mirror's statics array.
        slot: u32,
    },
    /// `Shared`-mode static write with the init check elided.
    PutStaticI {
        /// Class whose mirror holds the slot.
        class: ClassId,
        /// Slot in the mirror's statics array.
        slot: u32,
    },
    /// Unresolved `getfield cp` (quickens to [`XInsn::GetFieldR`]).
    GetField(u16),
    /// Unresolved `putfield cp`.
    PutField(u16),
    /// Resolved instance read: direct slot in the flattened layout.
    GetFieldR(u32),
    /// Resolved instance write.
    PutFieldR(u32),
    // ---- invocation ----
    /// Unresolved `invokestatic cp`.
    InvokeStatic(u16),
    /// Unresolved `invokespecial cp`.
    InvokeSpecial(u16),
    /// Resolved `invokestatic`; the target-class init check still runs on
    /// every execution in `Isolated` mode.
    InvokeStaticR {
        /// Resolved target method.
        target: MethodRef,
        /// Argument slots including receiver.
        arg_slots: u16,
    },
    /// `Shared`-mode `invokestatic` with the init check elided.
    InvokeStaticI {
        /// Resolved target method.
        target: MethodRef,
        /// Argument slots including receiver.
        arg_slots: u16,
    },
    /// Resolved `invokespecial` (no init check involved).
    InvokeDirectR {
        /// Resolved target method.
        target: MethodRef,
        /// Argument slots including receiver.
        arg_slots: u16,
    },
    /// Unresolved `invokevirtual cp`.
    InvokeVirtual(u16),
    /// Resolved `invokevirtual`: direct vtable slot. Fallback form used
    /// when a fused [`XInsn::InvokeVirtualF`] site cannot be allocated.
    InvokeVirtualR {
        /// Slot in the receiver's vtable.
        vslot: u32,
        /// Argument slots including receiver.
        arg_slots: u16,
    },
    /// Fused `invokestatic`: operand indexes
    /// [`super::PreparedCode::call_sites`], whose [`CallSite`] carries the
    /// resolved target *and* the precomputed frame shape, so dispatch
    /// pushes the callee frame without re-reading method metadata. The
    /// per-execution class-initialization check still runs (paper §3.1).
    InvokeStaticF(u16),
    /// `Shared`-mode fused `invokestatic` with the init check elided.
    InvokeStaticFI(u16),
    /// Fused `invokespecial` (no init check involved); operand indexes
    /// [`super::PreparedCode::call_sites`].
    InvokeDirectF(u16),
    /// Fused `invokevirtual` with a per-site monomorphic shape cache;
    /// operand indexes [`super::PreparedCode::virt_sites`].
    InvokeVirtualF(u16),
    /// `invokeinterface` with a pre-decoded per-site inline cache;
    /// operand indexes [`super::PreparedCode::iface_sites`].
    InvokeInterface(u16),
    /// `invokeinterface` whose member reference could not be pre-decoded;
    /// falls back to the raw interpreter's rtcp path.
    InvokeIfaceSlow(u16),
    // ---- objects ----
    /// Unresolved `new cp` (quickens to [`XInsn::NewR`]).
    New(u16),
    /// Resolved `new`; poisoning and init checks still run per execution.
    NewR(ClassId),
    /// `Shared`-mode `new` with the init check elided.
    NewI(ClassId),
    /// `athrow`.
    Athrow,
    /// `checkcast cp` (resolution is rtcp-cached; not quickened).
    Checkcast(u16),
    /// `instanceof cp`.
    InstanceOf(u16),
    /// `monitorenter`.
    MonitorEnter,
    /// `monitorexit`.
    MonitorExit,
    // ---- traps ----
    /// An opcode byte the decoder rejects; throws `VerifyError` exactly
    /// like the raw interpreter (which also advances pc by one).
    Invalid(u8),
    /// Malformed encoding discovered at pre-decode time.
    Trap(TrapKind),
}

/// Side-table payload for `tableswitch`/`lookupswitch`.
#[derive(Debug, Clone)]
pub enum SwitchTable {
    /// `tableswitch`: dense jump table.
    Table {
        /// Target when the key is outside `[low, high]` (instruction index).
        default: u32,
        /// Lowest key.
        low: i32,
        /// Per-key targets for `low..=high` (instruction indices).
        targets: Box<[u32]>,
    },
    /// `lookupswitch`: sorted match pairs.
    Lookup {
        /// Target when no pair matches (instruction index).
        default: u32,
        /// `(key, target)` pairs in file order.
        pairs: Box<[(i32, u32)]>,
    },
}

/// The right-hand operand of a [`XInsn::FusedCmpBr`] superinstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpRhs {
    /// Fused `IConst` operand.
    Const(i32),
    /// Fused second `Load` operand (a local slot).
    Local(u16),
}

/// Side-table payload of a [`XInsn::FusedCmpBr`] superinstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedCmp {
    /// Local slot of the left-hand operand (the leading `Load`, which is
    /// also what the de-fused fallback executes).
    pub slot: u16,
    /// Right-hand operand.
    pub rhs: CmpRhs,
    /// Comparison between the two operands.
    pub cmp: Cmp,
    /// Target instruction index when the comparison holds.
    pub target: u32,
}

/// A fused call site: the resolved target method plus the precomputed
/// frame shape, captured when an `invoke*` instruction quickens. Carrying
/// the shape here lets the dispatch loop build the callee frame — pooled
/// locals carved from the caller's operand stack, isolate routing, the
/// shared `CodeBody` — without touching `RuntimeMethod` again. Only plain
/// bytecode methods fuse; natives, `synchronized` and abstract targets
/// stay on the resolved forms and the shared `invoke_resolved` path.
#[derive(Debug)]
pub struct CallSite {
    /// Resolved target method.
    pub target: MethodRef,
    /// Argument slots including the receiver.
    pub(crate) arg_slots: u16,
    /// The callee frame's local-slot count.
    pub(crate) max_locals: u16,
    /// The callee frame's operand-stack capacity hint.
    pub(crate) max_stack: u16,
    /// The callee's bytecode, shared with its `RuntimeMethod`.
    pub code: VmRc<CodeBody>,
    /// `true` when the target belongs to the Java System Library (skips
    /// the poisoning check and executes in the caller's isolate).
    pub(crate) is_system: bool,
    /// The isolate the callee frame executes in: `None` to stay in the
    /// caller's isolate (system code, `Shared` mode), `Some` to migrate
    /// the thread (paper §3.1) — CPU accounting flushes exactly at that
    /// boundary, same as the unfused path.
    pub(crate) frame_isolate: Option<IsolateId>,
}

/// Per-call-site state of a fused `invokevirtual`: the resolved vtable
/// slot plus a monomorphic inline cache mapping the last receiver class
/// to its full [`CallSite`] shape.
#[derive(Debug)]
pub struct VirtSite {
    /// Slot in the receiver's vtable.
    pub(crate) vslot: u32,
    /// Argument slots including the receiver.
    pub(crate) arg_slots: u16,
    /// Last receiver class and the fused shape its target resolved to.
    /// Misses (megamorphic sites, unfuseable targets) fall back to the
    /// vtable lookup and the shared `invoke_resolved` path.
    pub cache: RefCell<Option<(ClassId, VmRc<CallSite>)>>,
}

/// Per-site state of a quickened string `ldc` ([`XInsn::LdcStr`]).
///
/// The cache is monomorphic in the executing isolate: string literals
/// resolve through the *current isolate's* intern map (paper §3.1), so a
/// prepared stream shared across isolates (system-library code executes
/// in its caller's isolate) must re-resolve when a different isolate
/// arrives. The GC epoch guards liveness: any collection may reshape the
/// heap, and isolate termination — which clears the intern map the
/// cached ref came from — always runs one.
#[derive(Debug)]
pub struct LdcSite {
    /// The original constant-pool index, for the re-resolve path.
    pub(crate) cp: u16,
    /// `(executing isolate, gc epoch at fill time, interned string)`.
    pub(crate) cache: Cell<Option<(IsolateId, u64, crate::value::GcRef)>>,
}

/// Per-call-site state of a pre-decoded `invokeinterface`: the member
/// reference (read once from the pool) plus the inline cache that the raw
/// interpreter kept in `RtCp::InterfaceMethod`, migrated into the stream.
#[derive(Debug)]
pub struct IfaceSite {
    /// Method name.
    pub name: Arc<str>,
    /// Method descriptor.
    pub descriptor: Arc<str>,
    /// Argument slots including the receiver.
    pub arg_slots: u16,
    /// Inline cache: last receiver class and the target it resolved to.
    pub cache: Cell<Option<(ClassId, MethodRef)>>,
}
