//! Observability for the webreason workspace: hierarchical spans,
//! monotonic counters and log2-bucketed histograms in a
//! global-but-resettable [`Registry`].
//!
//! The crate is dependency-free apart from the workspace's vendored
//! `serde` facade (used only to serialise [`MetricsSnapshot`]); it pulls
//! in no runtime, no channels, no background threads — instrumentation
//! sites pay an atomic-flag check plus (when enabled) a short
//! mutex-protected map update.
//!
//! # Metric naming
//!
//! Every metric name is `subsystem.operation.unit`:
//!
//! * `rdfs.saturate.rule_firings` — counter, rules fired during saturation
//! * `sparql.union.trie_nodes` — counter, trie nodes the union walks built
//! * `durability.journal.append_bytes` — counter, bytes appended to the WAL
//! * `core.maintain.instance_insert_us` — histogram, per-update latency
//!
//! Span names drop the unit (`rdfs.saturate.run`, `sparql.union.eval`):
//! the unit of a span is always wall-clock microseconds. The first
//! segment is the subsystem; [`MetricsSnapshot::subsystems`] groups by it.
//!
//! # Clocks and determinism
//!
//! Every duration flows through the [`Clock`] trait. Production uses
//! [`MonotonicClock`]; tests inject a [`ManualClock`]
//! ([`Registry::install_manual_clock`]) and advance it explicitly, so all
//! timing assertions are exact — no sleeps.
//!
//! # Global use vs. tests
//!
//! Instrumented code records into [`global()`]. Tests either construct a
//! private [`Registry`], or serialise on the global one and call
//! [`Registry::reset`] between scenarios. [`Registry::disabled`] (or
//! `set_enabled(false)`) turns every operation into a no-op whose
//! counter reads return 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod clock;
pub mod histogram;
pub mod registry;
pub mod snapshot;

pub use cancel::{CancelToken, CANCEL_POLL_STRIDE};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use histogram::{bucket_bounds, bucket_index, Histogram, BUCKETS};
pub use registry::{Counter, Registry, Span, SpanAgg};
pub use snapshot::{
    lint_prometheus_text, sanitize_metric_name, BucketSnapshot, CounterSnapshot, HistogramSnapshot,
    MetricsSnapshot, SpanSnapshot,
};

/// The process-wide registry (shorthand for [`Registry::global`]).
pub fn global() -> &'static Registry {
    Registry::global()
}
