//! The host layer's integration tests, one module per suite, built as one
//! test binary. The device-A driver parts and the campaigns' command mix
//! are defined once, in `common`.

mod batch_campaigns;
mod common;
mod fault_campaigns;
mod properties;
mod tenant_campaigns;
