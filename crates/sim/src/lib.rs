//! Cycle-level simulation kernel for the Harmonia reproduction.
//!
//! This crate provides the timing substrate every hardware model in the
//! workspace is built on: a picosecond-resolution timeline, clock domains,
//! synchronous FIFOs, gray-code asynchronous FIFOs (the clock-domain-crossing
//! primitive the paper's parameterized CDC is built from), fixed-latency
//! pipelines, beat-level streams, and throughput/latency statistics.
//!
//! The design goal is *shape fidelity*: models built on these primitives
//! reproduce protocol overheads, pipeline latency and backpressure behaviour
//! — the quantities the paper's evaluation compares — without simulating
//! individual gates.
//!
//! # Example
//!
//! ```
//! use harmonia_sim::{Freq, ClockDomain, SyncFifo};
//!
//! let clk = ClockDomain::new(Freq::mhz(322));
//! assert_eq!(clk.period_ps(), 3_105);
//!
//! let mut fifo = SyncFifo::new(16);
//! fifo.push(42u32).unwrap();
//! assert_eq!(fifo.pop(), Some(42));
//! ```

pub mod async_fifo;
pub mod edges;
pub mod exec;
pub mod fault;
pub mod fifo;
pub mod histo;
pub mod metrics;
pub mod pipeline;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod time;
pub mod trace;

pub use async_fifo::AsyncFifo;
pub use edges::{ClockEdge, MultiClock};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRates, FaultReport};
pub use fifo::{BeatFate, FifoFullError, SyncFifo};
pub use histo::LogHistogram;
pub use metrics::{
    evaluate_slos, meter_lanes, FlightRecorder, MetricsRegistry, MetricsSample, MetricsScraper,
    MetricsSnapshot, Slo, SloObjective, SloReport, SloResult,
};
pub use pipeline::{Pipeline, PushError};
pub use probe::Probe;
pub use rng::SplitMix64;
pub use stats::{LatencyStats, Throughput};
pub use stream::StreamBeat;
pub use time::{ClockDomain, Freq, Picos, PS_PER_SEC};
pub use trace::{trace_lanes, Trace, TraceCollector, TraceEvent, TraceEventKind};
