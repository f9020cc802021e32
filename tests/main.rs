//! The workspace's cross-crate integration tests, one module per story,
//! built as one test binary of the `harmonia` crate.

mod command_vs_register;
mod end_to_end;
mod live_monitoring;
mod paper_claims;
mod portability;
