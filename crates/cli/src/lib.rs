//! # cordoba-cli
//!
//! Command-line interface for the CORDOBA framework. All logic lives in
//! [`commands::run`], a pure function from argument vector to output text,
//! so the CLI is fully unit-testable; `src/main.rs` is a thin shell.
//!
//! Each verb is declared once, in the verb table of [`commands`], and
//! [`args::Args::parse`] holds every command line to that declaration.
//!
//! ```text
//! $ cordoba dse --task xr5
//! $ cordoba provision --app m1
//! $ cordoba metrics --delay 0.5 --energy 2 --embodied 450 --tasks 1e8
//! $ cordoba eliminate --csv designs.csv
//! ```

pub mod args;
pub mod commands;

pub use commands::{run, CliError};
