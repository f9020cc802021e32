//! The fleet control plane's integration tests, one module per suite,
//! built as one test binary. Shrunk counterexamples live in
//! `tests/regressions/`, one tape per property name.

mod fleet_campaigns;
mod latency_pin;
mod traffic_properties;
