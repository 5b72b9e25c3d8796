// Fixture: core module declarations; scanned as if it were
// crates/core/src/lib.rs (never compiled).
pub mod vm;
pub mod gc;
pub(crate) mod interp;
mod loom_models;
// lint: allow(surface) — a fixture-only exemption, with its reason.
pub mod monitor;
pub mod prelude {
    pub use crate::vm::Vm;
}
pub mod vmrc;
