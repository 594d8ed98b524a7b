//! Hand-rolled argument parsing (no external parser dependency).
//!
//! Algorithm names, descriptions and flag applicability come from the
//! [`Algorithm`] registry in `pardp-core` — the CLI maintains no
//! algorithm table of its own.

use std::fmt;
use std::time::Duration;

use pardp_core::prelude::{
    Algorithm, ExecBackend, LogLevel, ProblemSpec, SolveKnob, SolveOptions, SpecError,
    SquareStrategy,
};

/// A parsing or execution error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError(e.0)
    }
}

/// The problem family of a `solve` command is the shared wire type
/// [`ProblemSpec`] — the family rules (arities, positivity) live in
/// `pardp_core::spec` only, so the `solve` parser, the `batch` job
/// reader, and the `serve` daemon agree on what a valid instance is.
pub type Problem = ProblemSpec;

/// The action of a `pardp cache <action> <dir>` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Print record counts, file size, and per-family/per-algorithm
    /// breakdowns of a persistent store directory.
    Stat,
    /// Delete every cached record (the directory itself stays).
    Clear,
}

/// The tree shape of a `game` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fig. 2a zigzag caterpillar.
    Zigzag,
    /// Balanced splits.
    Complete,
    /// Left caterpillar.
    Skewed,
    /// Uniform random splits (seeded).
    Random,
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// `pardp solve <family> ...`
    Solve {
        /// The instance.
        problem: Problem,
        /// Solver selection (from the `pardp-core` registry).
        algo: Algorithm,
        /// Execution backend, if `--backend` was given explicitly (only
        /// accepted for algorithms with [`Algorithm::is_parallel`]).
        backend: Option<ExecBackend>,
        /// `a-square` kernel, if `--tile` was given explicitly (only
        /// accepted for algorithms with [`Algorithm::is_iterative`]).
        tile: Option<SquareStrategy>,
        /// Print the witness structure.
        witness: bool,
        /// Print the per-iteration trace (iterative algorithms only).
        trace: bool,
        /// Persistent solution-store directory (`--cache <dir>`); `None`
        /// solves cold (the default, or explicit `--no-cache`).
        cache: Option<String>,
    },
    /// `pardp batch <jobs.jsonl>`
    Batch {
        /// Path to the JSONL job file (one problem spec per line).
        path: String,
        /// Default algorithm for jobs without an `"algo"` field.
        algo: Algorithm,
        /// Backend the batch fans out over (`--backend`, default
        /// parallel).
        backend: Option<ExecBackend>,
        /// Regime threshold override (`--large-cells`): jobs with more
        /// `w`-table cells than this run on the parallel per-problem
        /// path.
        large_cells: Option<usize>,
        /// Persistent solution-store directory (`--cache <dir>`); `None`
        /// solves cold (the default, or explicit `--no-cache`).
        cache: Option<String>,
        /// Structured event log destination (`--log <path|->`): a JSONL
        /// file, or `-` for stderr. `None` disables telemetry.
        log: Option<String>,
        /// Event severity threshold (`--log-level`, default `info`).
        log_level: LogLevel,
    },
    /// `pardp serve (--addr <host:port> | --pipe)`
    Serve {
        /// TCP listen address (e.g. `127.0.0.1:7070`; port 0 picks one).
        addr: Option<String>,
        /// Serve one session over stdin/stdout instead of TCP.
        pipe: bool,
        /// Default algorithm for jobs without an `"algo"` field.
        algo: Algorithm,
        /// Worker pool the daemon drains jobs over (`--backend`).
        backend: Option<ExecBackend>,
        /// Regime threshold override (`--large-cells`), as in `batch`.
        large_cells: Option<usize>,
        /// Queue bound override (`--queue`); beyond it jobs are rejected
        /// with `overloaded`.
        queue: Option<usize>,
        /// Persistent solution-store directory (`--cache <dir>`); `None`
        /// serves cold (the default, or explicit `--no-cache`).
        cache: Option<String>,
        /// Per-job solve deadline (`--job-timeout <seconds>`): a job
        /// still solving after this is cancelled and answered with a
        /// `timeout` error line.
        job_timeout: Option<Duration>,
        /// Per-connection idle read timeout (`--idle-timeout <seconds>`,
        /// TCP only): silent connections are dropped.
        idle_timeout: Option<Duration>,
        /// Structured event log destination (`--log <path|->`): a JSONL
        /// file, or `-` for stderr (stdout stays a clean protocol
        /// channel). `None` disables telemetry.
        log: Option<String>,
        /// Event severity threshold (`--log-level`, default `info`).
        log_level: LogLevel,
    },
    /// `pardp cache (stat | clear) <dir>`
    Cache {
        /// What to do with the store.
        action: CacheAction,
        /// The persistent store directory.
        dir: String,
    },
    /// `pardp game <shape> <n>`
    Game {
        /// Tree shape.
        shape: Shape,
        /// Leaves.
        n: usize,
        /// Use Rytter's pointer-jump square.
        jump: bool,
        /// RNG seed for random shapes.
        seed: u64,
    },
    /// `pardp model <n> [--processors p]`
    Model {
        /// Problem size.
        n: usize,
        /// Processor count for Brent scheduling (0 = peak demand).
        processors: u64,
    },
    /// `pardp bound <n>`
    Bound {
        /// Problem size.
        n: usize,
    },
    /// `pardp help`
    Help,
}

/// The names of all algorithms with capability `pred`, `" | "`-separated.
fn algo_names(pred: fn(&Algorithm) -> bool) -> String {
    Algorithm::ALL
        .iter()
        .filter(|a| pred(a))
        .map(|a| a.name())
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Usage text. The algorithm list is generated from the
/// [`Algorithm`] registry, so it can never drift from the solvers the
/// core actually exposes.
pub fn usage() -> String {
    format!(
        "\
pardp — sublinear parallel dynamic programming (Huang–Liu–Viswanathan 1990/1992)

USAGE:
  pardp solve chain <d0,d1,...>        [--algo A] [--backend B] [--tile T] [--witness] [--trace] [--cache DIR]
  pardp solve obst --p <p1,..> --q <q0,..> [--algo A] [--backend B] [--tile T] [--witness]
  pardp solve polygon <w0,w1,...>      [--algo A] [--backend B] [--tile T] [--witness]
  pardp solve merge <l0,l1,...>        [--algo A] [--backend B] [--tile T] [--witness]
  pardp batch <jobs.jsonl>             [--algo A] [--backend B] [--large-cells C] [--cache DIR] [--log PATH|-] [--log-level L]
  pardp serve (--addr <host:port> | --pipe) [--algo A] [--backend B] [--large-cells C] [--queue N] [--cache DIR] [--job-timeout S] [--idle-timeout S] [--log PATH|-] [--log-level L]
  pardp cache (stat | clear) <dir>
  pardp game <zigzag|complete|skewed|random> <n> [--rule jump] [--seed S]
  pardp model <n> [--processors P]
  pardp bound <n>
  pardp help

ALGORITHMS (--algo, default sublinear):
{algos}\
BACKENDS (--backend): seq | parallel (default) | threads:<k> | <k>
  Selects the execution backend of the parallel solvers ({parallel}):
  single-threaded reference, the work-stealing pool at host size, or the
  pool capped at k workers. A bare number is shorthand for threads:<k>
  and must be at least 1 — write parallel to use every host core.
  Rejected for the purely sequential algorithms.
BATCH (pardp batch): solve many instances concurrently over one pool.
  Each input line is one JSON job:
    {{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}}
    {{\"family\":\"obst\",\"values\":[15,10],\"q\":[5,10,5],\"algo\":\"reduced\"}}
  family: chain | obst | polygon | merge; values: dims / key freqs /
  vertex weights / run lengths; q: obst dummy frequencies; algo:
  optional per-job override of --algo. Output is JSONL: one result line
  per job (in input order) and a final summary line. Jobs with more
  than --large-cells w-table cells (default {large_cells}) run one at a
  time on the whole pool; the rest run whole-problem-per-worker.
SERVE (pardp serve): a persistent solving daemon over the same JSONL
  job schema as batch — one response line per request, in request
  order, bit-identical to a batch run apart from wall_seconds. TCP
  (--addr, thread per connection) or a single stdin/stdout session
  (--pipe). Extra request lines: {{\"cmd\":\"stats\"}} (counters and
  per-regime throughput) and {{\"cmd\":\"shutdown\"}} (stop admitting,
  drain every accepted job, exit; ctrl-C does the same). When the
  bounded queue (--queue, default {queue}) is full, a job is rejected
  immediately with {{\"job\":i,\"error\":\"overloaded\",\"kind\":\"overloaded\"}}.
  Every error line carries a machine-readable kind field: invalid |
  rejected | overloaded | timeout | internal. A panicking solve is
  isolated (kind internal) and the daemon keeps serving. --job-timeout S
  cancels a job still solving S seconds after a worker picks it up
  (kind timeout; fractional seconds accepted); --idle-timeout S drops a
  TCP connection that sends nothing for S seconds.
OBSERVABILITY (--log PATH|- [--log-level debug|info|error]): structured
  JSONL event stream for batch and serve — per-job lifecycle events
  (admitted, regime, cache, completed, plus rejected/fault/panic/timeout
  on failures) with gap-free sequence numbers, and a final summary
  event mirroring the stderr drain line. --log FILE writes the stream
  to FILE; --log - streams it to stderr, keeping stdout a clean
  protocol channel. The default level info omits connection open/close
  events (debug); error keeps failures only. Without --log nothing is
  emitted and output is byte-identical. {{\"cmd\":\"stats\"}} additionally
  reports p50/p90/p99 answer latency, queue_high_watermark, per-kind
  error counters, and aggregate Work/Span.
CACHING (--cache DIR | --no-cache): persistent solution store.
  With --cache DIR, solve/batch/serve reuse solutions stored under DIR
  (created on first use): repeats are served from the store
  bit-identically, and chain jobs that extend a cached prefix warm-start
  from it. --no-cache forces cold solves (the default). `pardp cache
  stat <dir>` prints record counts and sizes; `pardp cache clear <dir>`
  deletes the records. Knuth and --trace runs always solve cold.
TILING (--tile): auto (default) | naive
  a-square kernel of the iterative solvers ({tile}):
  the streamed kernels (auto) or the naive per-cell reference. Both
  produce identical tables. Any other value is rejected, and so is the
  flag for algorithms without an a-square kernel.
",
        algos = Algorithm::listing(),
        parallel = algo_names(Algorithm::is_parallel),
        tile = algo_names(Algorithm::is_iterative),
        large_cells = pardp_core::batch::DEFAULT_LARGE_JOB_CELLS,
        queue = pardp_core::serve::DEFAULT_QUEUE_CAPACITY,
    )
}

fn parse_list(s: &str) -> Result<Vec<u64>, CliError> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<u64>()
                .map_err(|_| CliError(format!("'{t}' is not a non-negative integer")))
        })
        .collect()
}

fn take_flag(rest: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = rest.iter().position(|a| a == flag) {
        rest.remove(pos);
        true
    } else {
        false
    }
}

fn take_value(rest: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = rest.iter().position(|a| a == flag) {
        if pos + 1 >= rest.len() {
            return Err(CliError(format!("{flag} needs a value")));
        }
        let v = rest.remove(pos + 1);
        rest.remove(pos);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Take a `--flag <seconds>` value as a duration: positive, finite,
/// fractions allowed (`0.5` is half a second).
fn take_seconds(rest: &mut Vec<String>, flag: &str) -> Result<Option<Duration>, CliError> {
    match take_value(rest, flag)? {
        None => Ok(None),
        Some(s) => {
            let secs: f64 = s
                .parse()
                .map_err(|_| CliError(format!("bad {flag} '{s}' (expected seconds, e.g. 2.5)")))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(CliError(format!(
                    "{flag} needs a positive number of seconds (got '{s}'); \
                     drop the flag to disable the timeout"
                )));
            }
            Ok(Some(Duration::from_secs_f64(secs)))
        }
    }
}

/// Take the shared `--log <path|->` / `--log-level <level>` pair of
/// `batch` and `serve`. The level defaults to `info`; giving it
/// without `--log` is pointless and rejected so a typo cannot silently
/// drop the event stream.
fn take_log(rest: &mut Vec<String>) -> Result<(Option<String>, LogLevel), CliError> {
    let log = take_value(rest, "--log")?;
    if let Some(path) = &log {
        if path.is_empty() {
            return Err(CliError(
                "--log needs a destination: a file path, or - for stderr".into(),
            ));
        }
    }
    let level = match take_value(rest, "--log-level")? {
        None => LogLevel::Info,
        Some(s) => {
            if log.is_none() {
                return Err(CliError(
                    "--log-level needs --log <path|-> (there is no event stream to filter)".into(),
                ));
            }
            LogLevel::parse(&s).map_err(CliError)?
        }
    };
    Ok((log, level))
}

/// Take the shared `--cache <dir>` / `--no-cache` pair of `solve`,
/// `batch`, and `serve`. Solving cold is already the default, so
/// `--no-cache` mostly serves scripts that want to force it explicitly —
/// but combining it with a directory is contradictory and rejected.
fn take_cache(rest: &mut Vec<String>) -> Result<Option<String>, CliError> {
    let dir = take_value(rest, "--cache")?;
    let off = take_flag(rest, "--no-cache");
    if off && dir.is_some() {
        return Err(CliError(
            "give one of --cache <dir> (reuse solutions across runs) or \
             --no-cache (solve everything cold), not both"
                .into(),
        ));
    }
    if let Some(d) = &dir {
        if d.is_empty() {
            return Err(CliError(
                "--cache needs a directory path; use --no-cache to solve cold".into(),
            ));
        }
    }
    Ok(dir)
}

/// Parse `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Parsed, CliError> {
    let mut rest: Vec<String> = argv.to_vec();
    if rest.is_empty() {
        return Ok(Parsed::Help);
    }
    let cmd = rest.remove(0);
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Parsed::Help),
        "solve" => {
            let algo = match take_value(&mut rest, "--algo")? {
                Some(s) => s.parse::<Algorithm>().map_err(CliError)?,
                None => Algorithm::Sublinear,
            };
            let backend = match take_value(&mut rest, "--backend")? {
                Some(s) => Some(s.parse::<ExecBackend>().map_err(CliError)?),
                None => None,
            };
            let tile = match take_value(&mut rest, "--tile")? {
                Some(s) => Some(s.parse::<SquareStrategy>().map_err(CliError)?),
                None => None,
            };
            let witness = take_flag(&mut rest, "--witness");
            let trace = take_flag(&mut rest, "--trace");
            let cache = take_cache(&mut rest)?;
            // Flags a non-capable algorithm would silently ignore are
            // rejected with pointed errors. The applicability rules are
            // `SolveOptions::validate_knob` — the same check the batch
            // reader and the serve daemon apply to per-job overrides —
            // so a flag and its JSONL field can never drift apart.
            let flag_check = |given: bool, opts: SolveOptions, knob: SolveKnob, flag: &str| {
                if !given {
                    return Ok(());
                }
                opts.validate_knob(algo, knob)
                    .map_err(|e| CliError(format!("{flag} {}", e.message)))
            };
            let d = SolveOptions::default();
            flag_check(backend.is_some(), d, SolveKnob::Exec, "--backend")?;
            flag_check(
                tile.is_some(),
                tile.map_or(d, |t| d.square(t)),
                SolveKnob::Square,
                "--tile",
            )?;
            flag_check(
                trace,
                d.record_trace(trace),
                SolveKnob::RecordTrace,
                "--trace",
            )?;
            if rest.is_empty() {
                return Err(CliError("solve needs a problem family".into()));
            }
            let family = rest.remove(0);
            let problem = match family.as_str() {
                "chain" => ProblemSpec::chain(parse_list(
                    rest.first()
                        .ok_or_else(|| CliError("chain needs dimensions".into()))?,
                )?)?,
                "obst" => {
                    let p = parse_list(
                        &take_value(&mut rest, "--p")?
                            .ok_or_else(|| CliError("obst needs --p".into()))?,
                    )?;
                    let q = parse_list(
                        &take_value(&mut rest, "--q")?
                            .ok_or_else(|| CliError("obst needs --q".into()))?,
                    )?;
                    ProblemSpec::obst(p, q)?
                }
                "polygon" => ProblemSpec::polygon(parse_list(
                    rest.first()
                        .ok_or_else(|| CliError("polygon needs weights".into()))?,
                )?)?,
                "merge" => ProblemSpec::merge(parse_list(
                    rest.first()
                        .ok_or_else(|| CliError("merge needs run lengths".into()))?,
                )?)?,
                other => {
                    return Err(CliError(format!(
                        "unknown problem family '{other}' (expected chain | obst | \
                         polygon | merge)"
                    )))
                }
            };
            Ok(Parsed::Solve {
                problem,
                algo,
                backend,
                tile,
                witness,
                trace,
                cache,
            })
        }
        "batch" => {
            let algo = match take_value(&mut rest, "--algo")? {
                Some(s) => s.parse::<Algorithm>().map_err(CliError)?,
                None => Algorithm::Sublinear,
            };
            let backend = match take_value(&mut rest, "--backend")? {
                Some(s) => Some(s.parse::<ExecBackend>().map_err(CliError)?),
                None => None,
            };
            let large_cells = match take_value(&mut rest, "--large-cells")? {
                Some(s) => Some(s.parse::<usize>().map_err(|_| {
                    CliError(format!("bad --large-cells '{s}' (expected a cell count)"))
                })?),
                None => None,
            };
            let cache = take_cache(&mut rest)?;
            let (log, log_level) = take_log(&mut rest)?;
            if rest.is_empty() {
                return Err(CliError(
                    "batch needs a JSONL job file (one problem per line)".into(),
                ));
            }
            Ok(Parsed::Batch {
                path: rest.remove(0),
                algo,
                backend,
                large_cells,
                cache,
                log,
                log_level,
            })
        }
        "serve" => {
            let algo = match take_value(&mut rest, "--algo")? {
                Some(s) => s.parse::<Algorithm>().map_err(CliError)?,
                None => Algorithm::Sublinear,
            };
            let backend = match take_value(&mut rest, "--backend")? {
                Some(s) => Some(s.parse::<ExecBackend>().map_err(CliError)?),
                None => None,
            };
            let large_cells = match take_value(&mut rest, "--large-cells")? {
                Some(s) => Some(s.parse::<usize>().map_err(|_| {
                    CliError(format!("bad --large-cells '{s}' (expected a cell count)"))
                })?),
                None => None,
            };
            let queue = match take_value(&mut rest, "--queue")? {
                Some(s) => {
                    let q: usize = s.parse().map_err(|_| {
                        CliError(format!("bad --queue '{s}' (expected a job count)"))
                    })?;
                    if q == 0 {
                        return Err(CliError(
                            "--queue 0 would reject every job as overloaded; give a \
                             positive bound (or drop the flag for the default)"
                                .into(),
                        ));
                    }
                    Some(q)
                }
                None => None,
            };
            let cache = take_cache(&mut rest)?;
            let (log, log_level) = take_log(&mut rest)?;
            let job_timeout = take_seconds(&mut rest, "--job-timeout")?;
            let idle_timeout = take_seconds(&mut rest, "--idle-timeout")?;
            let addr = take_value(&mut rest, "--addr")?;
            let pipe = take_flag(&mut rest, "--pipe");
            if addr.is_some() == pipe {
                return Err(CliError(
                    "serve needs exactly one of --addr <host:port> (TCP daemon) or \
                     --pipe (one session over stdin/stdout)"
                        .into(),
                ));
            }
            if pipe && idle_timeout.is_some() {
                return Err(CliError(
                    "--idle-timeout applies to TCP connections only; --pipe reads \
                     stdin to EOF"
                        .into(),
                ));
            }
            Ok(Parsed::Serve {
                addr,
                pipe,
                algo,
                backend,
                large_cells,
                queue,
                cache,
                job_timeout,
                idle_timeout,
                log,
                log_level,
            })
        }
        "cache" => {
            if rest.is_empty() {
                return Err(CliError(
                    "cache needs an action: cache stat <dir> | cache clear <dir>".into(),
                ));
            }
            let action = match rest.remove(0).as_str() {
                "stat" => CacheAction::Stat,
                "clear" => CacheAction::Clear,
                other => {
                    return Err(CliError(format!(
                        "unknown cache action '{other}' (expected stat | clear)"
                    )))
                }
            };
            if rest.is_empty() {
                return Err(CliError(
                    "cache needs the store directory (the --cache <dir> of a \
                     previous solve/batch/serve run)"
                        .into(),
                ));
            }
            Ok(Parsed::Cache {
                action,
                dir: rest.remove(0),
            })
        }
        "game" => {
            // --rule jump | modified
            let rule = take_value(&mut rest, "--rule")?;
            let jump = match rule.as_deref() {
                Some("jump") => true,
                Some("modified") | None => false,
                Some(other) => return Err(CliError(format!("unknown --rule '{other}'"))),
            };
            let seed = match take_value(&mut rest, "--seed")? {
                Some(s) => s.parse().map_err(|_| CliError("bad --seed".into()))?,
                None => 1,
            };
            if rest.len() < 2 {
                return Err(CliError("game needs <shape> <n>".into()));
            }
            let shape = match rest[0].as_str() {
                "zigzag" => Shape::Zigzag,
                "complete" => Shape::Complete,
                "skewed" => Shape::Skewed,
                "random" => Shape::Random,
                other => return Err(CliError(format!("unknown shape '{other}'"))),
            };
            let n: usize = rest[1]
                .parse()
                .map_err(|_| CliError(format!("bad n '{}'", rest[1])))?;
            if n == 0 {
                return Err(CliError("n must be positive".into()));
            }
            Ok(Parsed::Game {
                shape,
                n,
                jump,
                seed,
            })
        }
        "model" => {
            let processors = match take_value(&mut rest, "--processors")? {
                Some(s) => s.parse().map_err(|_| CliError("bad --processors".into()))?,
                None => 0,
            };
            let n: usize = rest
                .first()
                .ok_or_else(|| CliError("model needs <n>".into()))?
                .parse()
                .map_err(|_| CliError("bad n".into()))?;
            if n == 0 || n > 128 {
                return Err(CliError("model supports 1 <= n <= 128".into()));
            }
            Ok(Parsed::Model { n, processors })
        }
        "bound" => {
            let n: usize = rest
                .first()
                .ok_or_else(|| CliError("bound needs <n>".into()))?
                .parse()
                .map_err(|_| CliError("bad n".into()))?;
            Ok(Parsed::Bound { n })
        }
        other => Err(CliError(format!(
            "unknown command '{other}'; try 'pardp help'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parse_solve_chain_defaults() {
        let p = parse(&argv("solve chain 30,35,15")).unwrap();
        assert_eq!(
            p,
            Parsed::Solve {
                problem: ProblemSpec::Chain {
                    dims: vec![30, 35, 15]
                },
                algo: Algorithm::Sublinear,
                backend: None,
                tile: None,
                witness: false,
                trace: false,
                cache: None,
            }
        );
    }

    #[test]
    fn parse_tile_selection() {
        for (spec, expect) in [
            ("auto", SquareStrategy::Auto),
            ("naive", SquareStrategy::Naive),
        ] {
            let p = parse(&argv(&format!("solve --tile {spec} chain 2,3,4"))).unwrap();
            match p {
                Parsed::Solve { tile, .. } => assert_eq!(tile, Some(expect), "{spec}"),
                other => panic!("{other:?}"),
            }
        }
        // Numeric edges, zero included, are rejected like any unknown
        // name, with the accepted forms spelled out.
        for bad in ["32", "0", "blocky"] {
            let err = parse(&argv(&format!("solve --tile {bad} chain 2,3,4"))).unwrap_err();
            assert!(err.0.contains("unknown square strategy"), "{err}");
            assert!(err.0.contains("auto | naive"), "{err}");
        }
    }

    #[test]
    fn parse_backend_error_messages() {
        let err = parse(&argv("solve --backend threads: chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("missing a worker count"), "{err}");
        let err = parse(&argv("solve --backend threads:lots chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("bad worker count 'lots'"), "{err}");
        // `--backend 0` / `threads:0` used to silently mean "all host
        // cores"; they are rejected with a pointer at `parallel` now.
        for spec in ["0", "threads:0"] {
            let err = parse(&argv(&format!("solve --backend {spec} chain 2,3,4"))).unwrap_err();
            assert!(err.0.contains("zero workers"), "{spec}: {err}");
            assert!(err.0.contains("parallel"), "{spec}: {err}");
        }
    }

    #[test]
    fn parse_batch_command() {
        let p = parse(&argv("batch jobs.jsonl")).unwrap();
        assert_eq!(
            p,
            Parsed::Batch {
                path: "jobs.jsonl".into(),
                algo: Algorithm::Sublinear,
                backend: None,
                large_cells: None,
                cache: None,
                log: None,
                log_level: LogLevel::Info,
            }
        );
        let p = parse(&argv(
            "batch --algo reduced --backend threads:2 --large-cells 50 jobs.jsonl",
        ))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Batch {
                path: "jobs.jsonl".into(),
                algo: Algorithm::Reduced,
                backend: Some(ExecBackend::Threads(2)),
                large_cells: Some(50),
                cache: None,
                log: None,
                log_level: LogLevel::Info,
            }
        );
        let err = parse(&argv("batch")).unwrap_err();
        assert!(err.0.contains("JSONL"), "{err}");
        let err = parse(&argv("batch --large-cells many jobs.jsonl")).unwrap_err();
        assert!(err.0.contains("--large-cells"), "{err}");
        let err = parse(&argv("batch --backend 0 jobs.jsonl")).unwrap_err();
        assert!(err.0.contains("zero workers"), "{err}");
    }

    #[test]
    fn parse_serve_command() {
        let p = parse(&argv("serve --pipe")).unwrap();
        assert_eq!(
            p,
            Parsed::Serve {
                addr: None,
                pipe: true,
                algo: Algorithm::Sublinear,
                backend: None,
                large_cells: None,
                queue: None,
                cache: None,
                job_timeout: None,
                idle_timeout: None,
                log: None,
                log_level: LogLevel::Info,
            }
        );
        let p = parse(&argv(
            "serve --addr 127.0.0.1:0 --algo reduced --backend threads:2 \
             --large-cells 50 --queue 8 --job-timeout 2.5 --idle-timeout 30",
        ))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Serve {
                addr: Some("127.0.0.1:0".into()),
                pipe: false,
                algo: Algorithm::Reduced,
                backend: Some(ExecBackend::Threads(2)),
                large_cells: Some(50),
                queue: Some(8),
                cache: None,
                job_timeout: Some(Duration::from_millis(2500)),
                idle_timeout: Some(Duration::from_secs(30)),
                log: None,
                log_level: LogLevel::Info,
            }
        );
        // Exactly one transport: neither and both are rejected.
        let err = parse(&argv("serve")).unwrap_err();
        assert!(err.0.contains("exactly one"), "{err}");
        let err = parse(&argv("serve --addr 127.0.0.1:0 --pipe")).unwrap_err();
        assert!(err.0.contains("exactly one"), "{err}");
        // A zero queue bound can never admit a job.
        let err = parse(&argv("serve --pipe --queue 0")).unwrap_err();
        assert!(err.0.contains("overloaded"), "{err}");
        let err = parse(&argv("serve --pipe --backend 0")).unwrap_err();
        assert!(err.0.contains("zero workers"), "{err}");
    }

    #[test]
    fn parse_serve_timeouts() {
        // Zero, negative, and non-numeric timeouts are rejected.
        for bad in ["0", "-1", "soon", "inf"] {
            let err = parse(&argv(&format!("serve --pipe --job-timeout {bad}"))).unwrap_err();
            assert!(err.0.contains("--job-timeout"), "{bad}: {err}");
        }
        let err = parse(&argv("serve --addr 127.0.0.1:0 --idle-timeout x")).unwrap_err();
        assert!(err.0.contains("seconds"), "{err}");
        // --idle-timeout is meaningless without a socket.
        let err = parse(&argv("serve --pipe --idle-timeout 5")).unwrap_err();
        assert!(err.0.contains("TCP"), "{err}");
        // Fractional seconds work.
        match parse(&argv("serve --pipe --job-timeout 0.25")).unwrap() {
            Parsed::Serve { job_timeout, .. } => {
                assert_eq!(job_timeout, Some(Duration::from_millis(250)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_log_flags_on_batch_and_serve() {
        match parse(&argv("batch --log events.jsonl jobs.jsonl")).unwrap() {
            Parsed::Batch { log, log_level, .. } => {
                assert_eq!(log.as_deref(), Some("events.jsonl"));
                assert_eq!(log_level, LogLevel::Info);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --pipe --log - --log-level debug")).unwrap() {
            Parsed::Serve { log, log_level, .. } => {
                assert_eq!(log.as_deref(), Some("-"));
                assert_eq!(log_level, LogLevel::Debug);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --pipe --log e.jsonl --log-level error")).unwrap() {
            Parsed::Serve { log, log_level, .. } => {
                assert_eq!(log.as_deref(), Some("e.jsonl"));
                assert_eq!(log_level, LogLevel::Error);
            }
            other => panic!("{other:?}"),
        }
        // Unknown levels name the accepted set.
        let err = parse(&argv("serve --pipe --log - --log-level verbose")).unwrap_err();
        assert!(err.0.contains("debug"), "{err}");
        // --log-level without a stream to filter is a likely typo.
        let err = parse(&argv("serve --pipe --log-level info")).unwrap_err();
        assert!(err.0.contains("--log"), "{err}");
        // An empty destination is rejected with the accepted forms.
        let empty: Vec<String> = ["batch", "--log", "", "jobs.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse(&empty).unwrap_err();
        assert!(err.0.contains("destination"), "{err}");
    }

    #[test]
    fn parse_cache_flags_on_solve_batch_serve() {
        // --cache parses on all three commands.
        match parse(&argv("solve --cache /tmp/store chain 2,3,4")).unwrap() {
            Parsed::Solve { cache, .. } => assert_eq!(cache.as_deref(), Some("/tmp/store")),
            other => panic!("{other:?}"),
        }
        match parse(&argv("batch --cache /tmp/store jobs.jsonl")).unwrap() {
            Parsed::Batch { cache, .. } => assert_eq!(cache.as_deref(), Some("/tmp/store")),
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --pipe --cache /tmp/store")).unwrap() {
            Parsed::Serve { cache, .. } => assert_eq!(cache.as_deref(), Some("/tmp/store")),
            other => panic!("{other:?}"),
        }
        // --no-cache is an accepted explicit default.
        match parse(&argv("batch --no-cache jobs.jsonl")).unwrap() {
            Parsed::Batch { cache, .. } => assert_eq!(cache, None),
            other => panic!("{other:?}"),
        }
        // The contradictory combination is rejected with both spellings
        // named, on every command that takes the pair.
        for cmd in [
            "solve --cache /tmp/s --no-cache chain 2,3,4",
            "batch --no-cache --cache /tmp/s jobs.jsonl",
            "serve --pipe --cache /tmp/s --no-cache",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert!(err.0.contains("--cache"), "{cmd}: {err}");
            assert!(err.0.contains("--no-cache"), "{cmd}: {err}");
            assert!(err.0.contains("not both"), "{cmd}: {err}");
        }
        // --cache without a path.
        let err = parse(&argv("solve --cache")).unwrap_err();
        assert!(err.0.contains("--cache needs a value"), "{err}");
    }

    #[test]
    fn parse_cache_subcommand() {
        assert_eq!(
            parse(&argv("cache stat /tmp/store")).unwrap(),
            Parsed::Cache {
                action: CacheAction::Stat,
                dir: "/tmp/store".into(),
            }
        );
        assert_eq!(
            parse(&argv("cache clear /tmp/store")).unwrap(),
            Parsed::Cache {
                action: CacheAction::Clear,
                dir: "/tmp/store".into(),
            }
        );
        let err = parse(&argv("cache")).unwrap_err();
        assert!(err.0.contains("stat"), "{err}");
        assert!(err.0.contains("clear"), "{err}");
        let err = parse(&argv("cache vacuum /tmp/store")).unwrap_err();
        assert!(err.0.contains("unknown cache action 'vacuum'"), "{err}");
        let err = parse(&argv("cache stat")).unwrap_err();
        assert!(err.0.contains("store directory"), "{err}");
    }

    #[test]
    fn parse_solve_with_flags() {
        let p = parse(&argv("solve --algo reduced --witness chain 2,3,4")).unwrap();
        match p {
            Parsed::Solve {
                algo,
                witness,
                trace,
                backend,
                ..
            } => {
                assert_eq!(algo, Algorithm::Reduced);
                assert_eq!(backend, None);
                assert!(witness);
                assert!(!trace);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_backend_selection() {
        for (spec, expect) in [
            ("seq", ExecBackend::Sequential),
            ("sequential", ExecBackend::Sequential),
            ("parallel", ExecBackend::Parallel),
            ("threads:4", ExecBackend::Threads(4)),
            ("2", ExecBackend::Threads(2)),
        ] {
            let p = parse(&argv(&format!("solve --backend {spec} chain 2,3,4"))).unwrap();
            match p {
                Parsed::Solve { backend, .. } => assert_eq!(backend, Some(expect), "{spec}"),
                other => panic!("{other:?}"),
            }
        }
        let err = parse(&argv("solve --backend bogus chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("unknown backend"), "{err}");
    }

    #[test]
    fn unknown_algo_lists_the_registry() {
        let err = parse(&argv("solve --algo blort chain 2,3,4")).unwrap_err();
        for a in Algorithm::ALL {
            assert!(err.0.contains(a.name()), "{err}");
            assert!(err.0.contains(a.description()), "{err}");
        }
    }

    #[test]
    fn inapplicable_flag_combos_are_rejected() {
        // --backend on a purely sequential algorithm.
        let err = parse(&argv("solve --algo seq --backend parallel chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("--backend has no effect"), "{err}");
        assert!(err.0.contains("wavefront"), "{err}");
        let err = parse(&argv("solve --algo knuth --backend 4 chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("--backend has no effect"), "{err}");
        // --tile on algorithms without an a-square kernel.
        let err = parse(&argv("solve --algo sequential --tile auto chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("--tile has no effect"), "{err}");
        assert!(err.0.contains("sublinear"), "{err}");
        let err = parse(&argv("solve --algo wavefront --tile naive chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("--tile has no effect"), "{err}");
        // --trace on non-iterative algorithms.
        let err = parse(&argv("solve --algo wavefront --trace chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("--trace has no effect"), "{err}");
        // The capable combinations still parse.
        assert!(parse(&argv(
            "solve --algo reduced --tile naive --backend seq chain 2,3,4"
        ))
        .is_ok());
        assert!(parse(&argv("solve --algo wavefront --backend 4 chain 2,3,4")).is_ok());
        assert!(parse(&argv("solve --algo rytter --trace chain 2,3,4")).is_ok());
    }

    #[test]
    fn parse_obst_requires_matching_lengths() {
        assert!(parse(&argv("solve obst --p 1,2 --q 1,2,3")).is_ok());
        let err = parse(&argv("solve obst --p 1,2 --q 1,2")).unwrap_err();
        assert!(err.0.contains("exactly 3"));
    }

    #[test]
    fn parse_game() {
        let p = parse(&argv("game zigzag 128 --rule jump --seed 9")).unwrap();
        assert_eq!(
            p,
            Parsed::Game {
                shape: Shape::Zigzag,
                n: 128,
                jump: true,
                seed: 9
            }
        );
    }

    #[test]
    fn parse_model_and_bound() {
        assert_eq!(
            parse(&argv("model 32")).unwrap(),
            Parsed::Model {
                n: 32,
                processors: 0
            }
        );
        assert_eq!(
            parse(&argv("model 32 --processors 500")).unwrap(),
            Parsed::Model {
                n: 32,
                processors: 500
            }
        );
        assert_eq!(parse(&argv("bound 100")).unwrap(), Parsed::Bound { n: 100 });
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&argv("solve"))
            .unwrap_err()
            .0
            .contains("problem family"));
        assert!(parse(&argv("solve chain"))
            .unwrap_err()
            .0
            .contains("dimensions"));
        assert!(parse(&argv("solve chain x,y"))
            .unwrap_err()
            .0
            .contains("not a non-negative"));
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse(&argv("game zigzag 0"))
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&argv("model 5000"))
            .unwrap_err()
            .0
            .contains("n <= 128"));
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&[]).unwrap(), Parsed::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Parsed::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Parsed::Help);
    }
}
