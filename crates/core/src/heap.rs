//! The object heap: a slab of objects with a free list.
//!
//! Objects never move; a [`GcRef`] stays valid until the collector frees the
//! object. Every object records the isolate it is currently *charged to*
//! (paper §3.2) — set at allocation time and recomputed by every collection.

use crate::ids::{ClassId, IsolateId, ThreadId};
use crate::value::{GcRef, Value};
use std::collections::VecDeque;

/// Fixed per-object header cost used for accounting, matching the paper's
/// observation that a plain `java.lang.Object` occupies 28 bytes in LadyVM.
pub(crate) const OBJECT_HEADER_BYTES: usize = 28;

/// Monitor state of an object, allocated lazily on first `monitorenter`.
#[derive(Debug, Default, Clone)]
pub(crate) struct MonitorState {
    /// Thread currently owning the monitor.
    pub(crate) owner: Option<ThreadId>,
    /// Recursive entry count of the owner.
    pub(crate) count: u32,
    /// Threads blocked trying to enter.
    pub(crate) entry_queue: VecDeque<ThreadId>,
}

/// The payload of a heap object.
#[derive(Debug, Clone)]
pub enum ObjBody {
    /// A plain instance: one slot per declared instance field
    /// (including inherited fields), in layout order.
    Fields(Box<[Value]>),
    /// `boolean[]` (0/1 values).
    ArrBool(Box<[u8]>),
    /// `byte[]`
    ArrByte(Box<[i8]>),
    /// `char[]`
    ArrChar(Box<[u16]>),
    /// `short[]`
    ArrShort(Box<[i16]>),
    /// `int[]`
    ArrInt(Box<[i32]>),
    /// `long[]`
    ArrLong(Box<[i64]>),
    /// `float[]`
    ArrFloat(Box<[f32]>),
    /// `double[]`
    ArrDouble(Box<[f64]>),
    /// A reference array; `elem_desc` is the element type descriptor
    /// (e.g. `Ljava/lang/Object;` or `[I`), used by `aastore` checks.
    ArrRef {
        /// Element type descriptor.
        elem_desc: String,
        /// The elements (null or references).
        data: Box<[Value]>,
    },
}

impl ObjBody {
    /// Array length, or `None` for non-arrays.
    pub fn array_len(&self) -> Option<usize> {
        Some(match self {
            ObjBody::Fields(_) => return None,
            ObjBody::ArrBool(a) => a.len(),
            ObjBody::ArrByte(a) => a.len(),
            ObjBody::ArrChar(a) => a.len(),
            ObjBody::ArrShort(a) => a.len(),
            ObjBody::ArrInt(a) => a.len(),
            ObjBody::ArrLong(a) => a.len(),
            ObjBody::ArrFloat(a) => a.len(),
            ObjBody::ArrDouble(a) => a.len(),
            ObjBody::ArrRef { data, .. } => data.len(),
        })
    }

    /// Approximate payload size in bytes, for resource accounting.
    pub(crate) fn payload_bytes(&self) -> usize {
        match self {
            ObjBody::Fields(f) => f.len() * 8,
            ObjBody::ArrBool(a) => a.len(),
            ObjBody::ArrByte(a) => a.len(),
            ObjBody::ArrChar(a) => a.len() * 2,
            ObjBody::ArrShort(a) => a.len() * 2,
            ObjBody::ArrInt(a) => a.len() * 4,
            ObjBody::ArrLong(a) => a.len() * 8,
            ObjBody::ArrFloat(a) => a.len() * 4,
            ObjBody::ArrDouble(a) => a.len() * 8,
            ObjBody::ArrRef { data, .. } => data.len() * 8,
        }
    }
}

/// A heap object.
#[derive(Debug, Clone)]
pub struct Object {
    /// The object's class. For primitive arrays this is the VM's
    /// `java/lang/Object` class id; `body` carries the element kind.
    pub class: ClassId,
    /// For arrays, the full type descriptor (e.g. `[I`); empty for instances.
    pub(crate) array_desc: String,
    /// Isolate this object is charged to (paper §3.2).
    pub owner: IsolateId,
    /// `true` when this object is a connection (file/socket); connections
    /// are accounted separately (paper §3.2).
    pub(crate) is_connection: bool,
    /// Mark bit for the collector.
    pub(crate) mark: bool,
    /// Lazily allocated monitor.
    pub(crate) monitor: Option<Box<MonitorState>>,
    /// The payload.
    pub body: ObjBody,
}

impl Object {
    /// Total accounted size in bytes.
    pub fn size_bytes(&self) -> usize {
        OBJECT_HEADER_BYTES + self.body.payload_bytes()
    }

    /// `true` if the object is an array.
    pub(crate) fn is_array(&self) -> bool {
        !matches!(self.body, ObjBody::Fields(_))
    }
}

/// The slab heap.
#[derive(Debug, Default)]
pub struct Heap {
    slots: Vec<Option<Object>>,
    free: Vec<u32>,
    used_bytes: usize,
    live_objects: usize,
}

impl Heap {
    /// Creates an empty heap.
    pub(crate) fn new() -> Heap {
        Heap::default()
    }

    /// Bytes currently occupied by live (unswept) objects.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of live (unswept) objects.
    pub fn live_objects(&self) -> usize {
        self.live_objects
    }

    /// Allocates an object, returning its handle.
    pub(crate) fn alloc(&mut self, obj: Object) -> GcRef {
        self.used_bytes += obj.size_bytes();
        self.live_objects += 1;
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some(obj);
                GcRef(idx)
            }
            None => {
                self.slots.push(Some(obj));
                GcRef(self.slots.len() as u32 - 1)
            }
        }
    }

    /// Immutable access; panics on dangling handles (a VM bug, since the
    /// collector only frees unreachable objects).
    pub fn get(&self, r: GcRef) -> &Object {
        self.slots[r.0 as usize].as_ref().expect("dangling GcRef")
    }

    /// Mutable access.
    pub fn get_mut(&mut self, r: GcRef) -> &mut Object {
        self.slots[r.0 as usize].as_mut().expect("dangling GcRef")
    }

    /// `true` if the handle currently points at a live object.
    pub fn is_live(&self, r: GcRef) -> bool {
        (r.0 as usize) < self.slots.len() && self.slots[r.0 as usize].is_some()
    }

    /// Iterates over all live `(handle, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GcRef, &Object)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|o| (GcRef(i as u32), o)))
    }

    /// The sweep phase: clears the mark of every marked object and frees
    /// every unmarked one, in ascending slot order (so the free list —
    /// and the allocation order after it — is a function of the heap
    /// alone). `on_free` sees each object just before it is freed.
    pub(crate) fn sweep(&mut self, mut on_free: impl FnMut(&Object)) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(obj) = slot else { continue };
            if obj.mark {
                obj.mark = false;
                continue;
            }
            on_free(obj);
            self.used_bytes -= obj.size_bytes();
            self.live_objects -= 1;
            *slot = None;
            self.free.push(idx as u32);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint support (crate::checkpoint)
    // ------------------------------------------------------------------

    /// The raw slab, including `None` holes. A checkpoint must serialize
    /// holes positionally: slab indices *are* the object identities
    /// ([`GcRef`] values), so a restored heap has to reproduce the exact
    /// slot layout for every serialized reference to stay valid.
    pub(crate) fn slots(&self) -> &[Option<Object>] {
        &self.slots
    }

    /// The free list in stack order. `alloc` pops from the back, so the
    /// restored list must preserve order for allocation to replay
    /// identically after restore.
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Rebuilds a heap from a serialized slab and free list, recomputing
    /// the accounting counters from the objects themselves.
    pub(crate) fn from_parts(slots: Vec<Option<Object>>, free: Vec<u32>) -> Heap {
        let used_bytes = slots.iter().flatten().map(Object::size_bytes).sum();
        let live_objects = slots.iter().flatten().count();
        Heap {
            slots,
            free,
            used_bytes,
            live_objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: usize) -> Object {
        Object {
            class: ClassId(0),
            array_desc: String::new(),
            owner: IsolateId(0),
            is_connection: false,
            mark: false,
            monitor: None,
            body: ObjBody::Fields(vec![Value::Int(0); fields].into_boxed_slice()),
        }
    }

    #[test]
    fn alloc_free_reuses_slots() {
        let mut h = Heap::new();
        let a = h.alloc(obj(1));
        let b = h.alloc(obj(2));
        assert_ne!(a, b);
        assert_eq!(h.live_objects(), 2);
        h.get_mut(b).mark = true;
        h.sweep(|_| {});
        assert_eq!(h.live_objects(), 1);
        assert!(!h.get(b).mark, "the sweep clears surviving marks");
        let c = h.alloc(obj(3));
        assert_eq!(c, a, "freed slot should be reused");
    }

    #[test]
    fn used_bytes_tracks_alloc_and_free() {
        let mut h = Heap::new();
        let a = h.alloc(obj(4));
        let expect = OBJECT_HEADER_BYTES + 4 * 8;
        assert_eq!(h.used_bytes(), expect);
        let mut freed = Vec::new();
        h.sweep(|o| freed.push(o.size_bytes()));
        assert_eq!(freed, [expect]);
        assert!(!h.is_live(a));
        assert_eq!(h.used_bytes(), 0);
    }

    #[test]
    fn array_sizes() {
        let body = ObjBody::ArrInt(vec![0i32; 10].into_boxed_slice());
        assert_eq!(body.payload_bytes(), 40);
        assert_eq!(body.array_len(), Some(10));
        let body = ObjBody::ArrRef {
            elem_desc: "Ljava/lang/Object;".to_owned(),
            data: vec![Value::Null; 3].into_boxed_slice(),
        };
        assert_eq!(body.payload_bytes(), 24);
    }

    #[test]
    fn plain_object_is_28_bytes_like_the_paper() {
        // Paper §4.2: "In LadyVM and I-JVM, the size of such an object is 28
        // bytes" for java.lang.Object (no fields).
        let o = obj(0);
        assert_eq!(o.size_bytes(), 28);
    }
}
