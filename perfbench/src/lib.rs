//! The sweep benchmark: end-to-end cell throughput and per-layer cell
//! cost of `wan_bench::sweep`, on the registry, a large-n workload and a
//! SINR-radio workload. `METRICS.md` beside this package documents every
//! metric and workload; `src/main.rs` is the command line.

pub mod alloc;
pub mod cells;
pub mod e2e;
pub mod layers;
pub mod stats;
pub mod traced;
pub mod workload;
