//! Isolates: the unit of protection, accounting and termination.
//!
//! An isolate is built from a class loader (paper §3.1): its scope is the
//! classes loaded by that loader. The first loader created becomes
//! `Isolate0`, which is privileged (may start/terminate isolates and shut
//! the platform down). System-library classes do not belong to any isolate;
//! they execute in the isolate of their caller.

use crate::accounting::ResourceStats;
use crate::ids::{IsolateId, LoaderId};
use crate::value::GcRef;
use std::collections::HashMap;

/// Lifecycle state of an isolate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolateState {
    /// Running normally.
    Active,
    /// Terminated: its code can no longer execute; objects shared with
    /// other isolates may still be reachable (paper §3.3).
    Terminating,
    /// Fully reclaimed: no object of the isolate's classes remains.
    Dead,
}

/// One isolate.
#[derive(Debug)]
pub(crate) struct Isolate {
    /// This isolate's id.
    pub(crate) id: IsolateId,
    /// Human-readable name (bundle symbolic name under OSGi).
    pub(crate) name: String,
    /// The class loader this isolate was built from.
    pub(crate) loader: LoaderId,
    /// Lifecycle state.
    pub(crate) state: IsolateState,
    /// Per-isolate interned strings (paper §3.1: each bundle has its own
    /// string map, so `==` does not hold across bundles).
    pub(crate) strings: HashMap<String, GcRef>,
    /// Resource counters.
    pub(crate) stats: ResourceStats,
    /// The isolate's port table: names of the cross-unit services it
    /// currently exports (see [`crate::port`]). Termination revokes all
    /// of them.
    pub(crate) exported_ports: Vec<String>,
}

impl Isolate {
    /// Creates a fresh active isolate.
    pub(crate) fn new(id: IsolateId, name: &str, loader: LoaderId) -> Isolate {
        Isolate {
            id,
            name: name.to_owned(),
            loader,
            state: IsolateState::Active,
            strings: HashMap::new(),
            stats: ResourceStats::default(),
            exported_ports: Vec::new(),
        }
    }

    /// `true` while the isolate may execute code.
    pub(crate) fn is_active(&self) -> bool {
        self.state == IsolateState::Active
    }

    /// Rough metadata footprint of the per-isolate string map and counter
    /// block, for the Figure 3 memory measurements.
    pub fn metadata_bytes(&self) -> usize {
        let strings: usize = self
            .strings
            .keys()
            .map(|k| k.len() + 16 /* map entry overhead */)
            .sum();
        strings + std::mem::size_of::<ResourceStats>()
    }
}
