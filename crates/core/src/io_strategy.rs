//! The I/O-design and tail-structure choices. They are defined next to the
//! cost model that prices them (`stap_model::io_strategy`) and re-exported
//! here so every `stap_core::io_strategy::…` path keeps resolving.

pub use stap_model::io_strategy::{IoStrategy, TailStructure};
