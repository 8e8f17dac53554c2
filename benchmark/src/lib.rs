//! The repository benchmark for the FaaSnap reproduction.
//!
//! Four workloads drive the public API of `faasnap-daemon`, `faasnap` and
//! `faasnap-cluster` (see `README.md` in this directory). Each run
//! reports host metrics (the cost of running the simulator) and sim
//! metrics (the reproduced result, deterministic per seed) apart, checks
//! every output, and on a traced run splits host time into the layers
//! of the system.

#![forbid(unsafe_code)]

pub mod report;
pub mod span;
pub mod workloads;
