//! The shell's integration tests, one module per suite, built as one test
//! binary. Shrunk counterexamples live in `tests/regressions/`, one tape
//! per property name. `alloc_budget.rs` stays a binary of its own: its
//! counting allocator is process-wide.

mod properties;
mod tenancy_properties;
