//! # usb-eval
//!
//! The experiment grid that regenerates every table and figure of the USB
//! paper on the synthetic substrate. The `usb-repro` binary is the entry
//! point:
//!
//! ```text
//! usb-repro table1 --models 5        # Table 1: CIFAR-10 + ResNet-18
//! usb-repro table3 --fast            # Table 3: stronger attacks on VGG-16
//! usb-repro fig5                     # Fig. 5: per-class reversed triggers
//! usb-repro all                      # everything, in order
//! ```
//!
//! Outputs go to stdout (paper-formatted tables) and `target/repro/`
//! (CSV + PGM/PPM images). See EXPERIMENTS.md for the recorded
//! paper-vs-measured comparison.
//!
//! The [`serve`] module turns the same engine into a resident daemon
//! (`usb-repro serve` / `submit`): victim bundles stream in
//! over TCP, verdicts stream back, and hot models stay cached between
//! requests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod figures;
pub mod grid;
pub mod report;
pub mod serve;
pub mod timing;

pub use grid::{run_table, AttackChoice, CaseReport, CaseSpec, TableReport, TableSpec};
pub use report::{format_table, write_csv};
