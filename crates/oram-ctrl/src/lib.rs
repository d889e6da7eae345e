//! # IR-ORAM: a timed full-system Path ORAM simulator
//!
//! This crate is the reproduction of **"IR-ORAM: Path Access Type Based
//! Memory Intensity Reduction for Path-ORAM"** (Raoufi, Zhang & Yang,
//! HPCA 2022). It assembles the workspace substrates — the functional Path
//! ORAM protocol (`iroram-protocol`), the DDR3 memory system
//! (`iroram-dram`), the cache hierarchy (`iroram-cache`) and the calibrated
//! workloads (`iroram-trace`) — into a cycle-level simulator of a secure
//! processor whose off-chip traffic is protected by Path ORAM with timing-
//! channel defense (one path access per `T` cycles).
//!
//! The [`Scheme`] enum selects between the paper's configurations:
//!
//! | Scheme | What it models |
//! |---|---|
//! | [`Scheme::Baseline`] | Path ORAM + Freecursive + 10-level dedicated tree-top cache + subtree layout + background eviction |
//! | [`Scheme::Rho`] | the ρ relaxed-hierarchical ORAM baseline \[23\] (small tree, 1:2 fixed issue pattern, delayed remap) |
//! | [`Scheme::IrAlloc`] | IR-Alloc: utilization-aware per-level bucket sizes |
//! | [`Scheme::IrStash`] | IR-Stash: the double-indexed S-Stash tree top |
//! | [`Scheme::IrDwb`] | IR-DWB: dummy paths converted to early write-backs |
//! | [`Scheme::IrOram`] | all three IR techniques combined |
//! | [`Scheme::LlcD`] | Baseline + delayed block remapping |
//! | [`Scheme::IrAllocStashOnLlcD`] | IR-Alloc + IR-Stash on the LLC-D baseline (Fig. 11) |
//!
//! # Examples
//!
//! ```no_run
//! use ir_oram::{RunLimit, Scheme, Simulation, SystemConfig};
//! use iroram_trace::Bench;
//!
//! let cfg = SystemConfig::scaled(Scheme::IrOram);
//! let report = Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(50_000));
//! println!("{} cycles, {} dummy paths", report.cycles, report.protocol.dummy_paths);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod config;
mod controller;
mod cpu;
mod dwb;
mod error;
pub mod pipeline;
mod rho;
mod sim;

pub use audit::AuditReport;
pub use config::{Scheme, SystemConfig, ALL_SCHEMES};
pub use controller::{
    OramRequest, ReqId, SlotStats, StashPressure, TimedController, DEGRADED_ADMIT_PERIOD,
    OVERFLOW_GRACE_SLOTS,
};
pub use cpu::TraceCpu;
pub use dwb::{DwbEngine, DwbStats};
pub use error::SimError;
pub use iroram_protocol::IntegrityStats;
pub use sim::{CheckpointSpec, FaultStats, RunLimit, SimReport, Simulation};

/// The ρ controller is the one [`TimedController`], built from a ρ
/// configuration; the name stays because the benchmark harness imports it.
pub type RhoController = TimedController;
