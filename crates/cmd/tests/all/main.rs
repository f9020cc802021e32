//! The command layer's integration tests, one module per suite, built as
//! one test binary. Shrunk counterexamples live in `tests/regressions/`,
//! one tape per property name.

mod decode_fuzz;
mod properties;
mod ring_properties;
