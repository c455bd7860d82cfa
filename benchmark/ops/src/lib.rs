//! Shared by the `e2e` and `trace` binaries: what a workload's traffic
//! is (op cycles with seeded constants), how timings are summarised, and
//! a small JSON reader/writer. Links no product code, so both binaries
//! replay byte-identical requests whatever happens to the product's
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod rng;
pub mod stats;
pub mod traffic;
