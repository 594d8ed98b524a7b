//! The benchmark program `run.py` builds and drives.
//!
//! ```text
//! perfbench <setup|run|trace> --workload W --seed N --seconds S [--spans PATH]
//! ```
//!
//! * `setup` — one cold set-up of workload `W`; prints its time and peak
//!   RSS (`{"setup_s":..,"peak_rss_mb":..}`).
//! * `run` — set-up, then the untraced closed loop over the seeded
//!   operation list; prints the end-to-end metrics, per-class latencies,
//!   exact counts, correctness, and a host record.
//! * `trace` — the traced replay; prints every per-layer metric. Layers
//!   the chosen workload does not reach are measured on a one-round
//!   replay of the workload that does (see `layers.json`).
//!
//! Every mode prints one JSON object on stdout and exits 1 if an answer
//! was wrong, a count drifted, or the replay disagreed with the program.

mod gen;
mod serve;
mod solve;
mod tracer;
mod util;

use serde::Value;
use util::{obj, render, Host, Metrics};

const WORKLOADS: [&str; 3] = ["solve-paper", "solve-wavefront", "serve-mixed"];

/// Whole rounds of the solve workloads in a traced run: the chosen
/// workload's, and the one-round replays of the others.
const TRACE_ROUNDS: usize = 3;
const MINI_ROUNDS: usize = 1;
/// Measured requests of the serve session and replay when serve-mixed is
/// not the chosen workload.
const MINI_SERVE: usize = 6000;

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Metrics,
    pub detail: Metrics,
    pub attempted: usize,
    pub failed: usize,
    errors: Vec<String>,
    drifts: Vec<String>,
    notes: Vec<(String, String)>,
    counts: Vec<(String, u64)>,
}

impl Report {
    /// One operation gave a wrong answer.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// A count that must repeat exactly did not.
    pub fn drift(&mut self, msg: String) {
        self.drifts.push(msg);
    }

    pub fn note(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn count(&mut self, key: &str, value: u64) {
        self.counts.push((key.to_string(), value));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.drifts.is_empty()
    }

    fn to_json(&self, host: Value) -> Value {
        let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::Str).collect());
        let pairs = |v: Vec<(String, Value)>| Value::Object(v);
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted as u64)),
            ("failed", Value::UInt(self.failed as u64)),
            ("metrics", self.metrics.to_json()),
            ("detail", self.detail.to_json()),
            (
                "notes",
                pairs(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "counts",
                pairs(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ),
            ("errors", strings(&self.errors)),
            ("drifts", strings(&self.drifts)),
            ("host", host),
        ])
    }
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (setup | run | trace)")?;
    if !["setup", "run", "trace"].contains(&mode.as_str()) {
        return Err(format!("unknown mode '{mode}' (setup | run | trace)"));
    }
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds '{value}'"))?
            }
            "--spans" => args.spans = Some(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn trace(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let mut tr = tracer::Tracer::new();
    let rounds = |w: &str| {
        if w == args.workload {
            TRACE_ROUNDS
        } else {
            MINI_ROUNDS
        }
    };
    solve::trace_paper(args.seed, rounds("solve-paper"), &mut tr, report);
    solve::trace_wavefront(args.seed, rounds("solve-wavefront"), &mut tr, report);
    // Half the untraced list: the replay runs on one thread.
    let measured = if args.workload == "serve-mixed" {
        ((args.seconds * gen::SERVE_RATE / 2.0).round() as usize).max(100)
    } else {
        MINI_SERVE
    };
    serve::trace(args.seed, measured, &mut tr, report)?;
    solve::region_probe(&mut report.metrics);
    if let Some(path) = &args.spans {
        tr.write_jsonl(path, &args.workload)?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.mode == "setup" {
        let setup = match args.workload.as_str() {
            "serve-mixed" => serve::setup_only(args.seed, args.seconds),
            w => Ok(solve::setup_only(w, args.seed, args.seconds)),
        };
        match setup {
            Ok((d, rss)) => println!(
                "{}",
                render(&obj(vec![
                    ("setup_s", Value::Float(d.as_secs_f64())),
                    ("peak_rss_mb", Value::Float(rss)),
                ]))
            ),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let host = Host::start();
    let mut report = Report::default();
    let outcome = match (args.mode.as_str(), args.workload.as_str()) {
        ("run", "serve-mixed") => serve::run(args.seed, args.seconds, &mut report),
        ("run", w) => {
            solve::run(w, args.seed, args.seconds, &mut report);
            Ok(())
        }
        _ => trace(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!("{}", render(&report.to_json(host.finish())));
    if !report.correct() {
        std::process::exit(1);
    }
}
