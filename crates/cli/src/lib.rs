//! # pardp-cli — command-line front end
//!
//! A small, dependency-free argument layer over the workspace: parse a
//! problem description, pick a solver, print values, witnesses, traces,
//! game runs and PRAM cost models; solve JSONL job files, serve them as a
//! daemon, and inspect the solution store. The `pardp` binary:
//!
//! ```text
//! pardp solve chain 30,35,15,5,10,20,25 --algo sublinear --witness
//! pardp solve obst --p 15,10,5,10,20 --q 5,10,5,5,5,10
//! pardp solve polygon 3,7,4,5,2,6 --algo reduced
//! pardp solve merge 10,20,30 --witness
//! pardp batch jobs.jsonl --cache ./store --log events.jsonl
//! pardp serve (--addr 127.0.0.1:7171 | --pipe) [--queue 64] [--job-timeout 2.5]
//! pardp cache (stat | clear) ./store
//! pardp game zigzag 256 [--rule jump]
//! pardp model 32 --processors 1024
//! pardp bound 100
//! ```
//!
//! Everything here is ordinary library code so it is unit-testable; the
//! binary is a thin `main` that forwards `std::env::args`.

#![deny(unsafe_op_in_unsafe_fn)]
pub mod args;
pub mod commands;

pub use args::{CliError, Parsed};

/// Entry point shared by the binary and the tests: parse and execute,
/// writing human-readable output to the returned string.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let parsed = args::parse(argv)?;
    commands::execute(&parsed)
}
