//! # ijvm-comm — inter-bundle communication models
//!
//! The comparators for the paper's Table 1 ("cost of 200 inter-bundle
//! calls, depending on the communication model"):
//!
//! | model | mechanism | cost structure |
//! |---|---|---|
//! | Local method | same-bundle direct call | call + return |
//! | I-JVM | cross-bundle direct call | call + isolate-reference update + return |
//! | Incommunicado (links) | deep copy + callee-thread hand-off | synchronization + graph copy |
//! | RMI local call | serialize → loopback → deserialize → dispatch | marshalling + transport + dispatch |
//!
//! The paper's measured numbers (Pentium D 3 GHz): 20 µs local, 24 µs
//! I-JVM, 9 ms Incommunicado, 90 ms RMI for 200 calls. Absolute numbers
//! here differ (interpreter vs JIT), but the *shape* — I-JVM within a
//! small factor of a local call and orders of magnitude below
//! copy/marshalling models — is what [`models::table1`] reproduces.

pub mod copy;
pub mod models;

pub use copy::deep_copy_value;
pub use models::{measure, table1, CallCostReport, Model};
