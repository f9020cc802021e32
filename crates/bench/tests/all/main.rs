//! The bench crate's integration tests, one module per contract, built
//! as one test binary so the workspace is linked once for all of them.

mod cli;
mod cmdpath_scaling;
mod fingerprints;
mod fleet_scaling;
mod metrics_equivalence;
mod paper_snapshot;
mod reproducibility;
mod tenancy_scaling;
mod trace_equivalence;
mod trace_streams;
