//! Hand-rolled argument parsing (no external parser dependency).
//!
//! Algorithm names, descriptions and flag applicability come from the
//! [`Algorithm`] registry in `pardp-core` — the CLI maintains no
//! algorithm table of its own.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use pardp_core::batch::DEFAULT_LARGE_JOB_CELLS;
use pardp_core::prelude::{
    Algorithm, ExecBackend, LogLevel, ProblemSpec, SolveKnob, SolveOptions, SpecError,
};
use pardp_core::serve::DEFAULT_QUEUE_CAPACITY;

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

/// The six flags `pardp batch` and `pardp serve` share, with the
/// defaults of `BatchSolver::new()` and `ServeConfig::default()` applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFlags {
    /// Default algorithm for jobs without an `"algo"` field (`--algo`).
    pub algo: Algorithm,
    /// Backend the jobs run over (`--backend`).
    pub backend: ExecBackend,
    /// Regime threshold (`--large-cells`): jobs with more `w`-table
    /// cells than this run on the parallel per-problem path.
    pub large_cells: usize,
    /// Persistent solution-store directory (`--cache <dir>`); `None`
    /// solves cold (the default, or explicit `--no-cache`).
    pub cache: Option<String>,
    /// Structured event log destination (`--log <path|->`): a JSONL
    /// file, or `-` for stderr (stdout stays a clean protocol channel).
    /// `None` disables telemetry.
    pub log: Option<String>,
    /// Event severity threshold (`--log-level`, default `info`).
    pub log_level: LogLevel,
}

/// `pardp batch <jobs.jsonl>`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchArgs {
    /// Path to the JSONL job file (one problem spec per line).
    pub path: String,
    /// The flags shared with `serve`.
    pub flags: JobFlags,
}

/// Where `pardp serve` reads its requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A TCP listener, a thread per connection (`--addr`, e.g.
    /// `127.0.0.1:7070`; port 0 picks one).
    Tcp(String),
    /// One session over stdin/stdout (`--pipe`).
    Pipe,
}

/// `pardp serve (--addr <host:port> | --pipe)`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// TCP or pipe.
    pub transport: Transport,
    /// The flags shared with `batch`.
    pub flags: JobFlags,
    /// Queue bound (`--queue`); beyond it jobs are rejected with
    /// `overloaded`.
    pub queue: usize,
    /// Per-job solve deadline (`--job-timeout <seconds>`): a job still
    /// solving after this is cancelled and answered with a `timeout`
    /// error line.
    pub job_timeout: Option<Duration>,
    /// Per-connection idle read timeout (`--idle-timeout <seconds>`,
    /// TCP only): silent connections are dropped.
    pub idle_timeout: Option<Duration>,
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// `pardp solve <family> ...`
    Solve {
        /// The instance, as the shared wire type: the family rules live
        /// in `pardp_core::spec` only, so `solve`, `batch` and `serve`
        /// agree on what a valid instance is.
        problem: ProblemSpec,
        /// Solver selection (from the `pardp-core` registry).
        algo: Algorithm,
        /// Execution backend, if `--backend` was given explicitly (only
        /// accepted for algorithms with [`Algorithm::is_parallel`]).
        backend: Option<ExecBackend>,
        /// Print the witness structure.
        witness: bool,
        /// Print the per-iteration trace (iterative algorithms only).
        trace: bool,
        /// Persistent solution-store directory (`--cache <dir>`); `None`
        /// solves cold (the default, or explicit `--no-cache`).
        cache: Option<String>,
    },
    /// `pardp batch <jobs.jsonl>`
    Batch(BatchArgs),
    /// `pardp serve (--addr <host:port> | --pipe)`
    Serve(ServeArgs),
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

/// Usage text. The algorithm list and each flag's algorithms are
/// generated from the [`Algorithm`] registry, so they can never drift
/// from the solvers the core actually exposes.
pub fn usage() -> String {
    format!(
        "\
pardp — sublinear parallel dynamic programming (Huang–Liu–Viswanathan 1990/1992)

USAGE:
  pardp solve chain <d0,d1,...>        [--algo A] [--backend B] [--witness] [--trace] [--cache DIR]
  pardp solve obst --p <p1,..> --q <q0,..> [--algo A] [--backend B] [--witness]
  pardp solve polygon <w0,w1,...>      [--algo A] [--backend B] [--witness]
  pardp solve merge <l0,l1,...>        [--algo A] [--backend B] [--witness]
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
  per job (in input order) and a final summary line; a line that is
  not a valid job is answered with serve's invalid error line in its
  slot. Jobs with more
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
",
        algos = Algorithm::listing(),
        parallel = Algorithm::names_reading(SolveKnob::Exec),
        large_cells = DEFAULT_LARGE_JOB_CELLS,
        queue = DEFAULT_QUEUE_CAPACITY,
    )
}

fn parse_list(s: &str) -> Result<Vec<u64>, String> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<u64>()
                .map_err(|_| format!("'{t}' is not a non-negative integer"))
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

/// The one reader of a `--flag <value>`: take the flag and the argument
/// after it, and parse that with `read` (`str::parse` for a type's
/// `FromStr`, or a closure with the flag's own messages). `None` if the
/// flag is absent. The value may not be another flag, so `--cache
/// --no-cache` is a `--cache` without a directory; a lone `-` is a value.
fn take<T>(
    rest: &mut Vec<String>,
    flag: &str,
    read: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, CliError> {
    let Some(pos) = rest.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match rest.get(pos + 1) {
        Some(value) if !value.starts_with("--") => {}
        _ => return Err(CliError(format!("{flag} needs a value"))),
    }
    let value = rest.remove(pos + 1);
    rest.remove(pos);
    read(&value).map(Some).map_err(CliError)
}

/// A numeric flag's parser: `bad <flag> '<value>' (expected <what>)`.
fn number<T: FromStr>(
    flag: &'static str,
    what: &'static str,
) -> impl Fn(&str) -> Result<T, String> {
    move |v| {
        v.parse()
            .map_err(|_| format!("bad {flag} '{v}' (expected {what})"))
    }
}

/// A `--flag <seconds>` parser: positive, fractions allowed (`0.5` is
/// half a second).
fn seconds(flag: &'static str) -> impl Fn(&str) -> Result<Duration, String> {
    move |v| match number::<f64>(flag, "seconds, e.g. 2.5")(v)? {
        secs if secs > 0.0 => Duration::try_from_secs_f64(secs).map_err(|_| {
            format!(
                "{flag} '{v}' is beyond the longest timeout; \
                 drop the flag to disable the timeout"
            )
        }),
        _ => Err(format!(
            "{flag} needs a positive number of seconds (got '{v}'); \
             drop the flag to disable the timeout"
        )),
    }
}

/// Take the `--cache <dir>` / `--no-cache` pair of `solve`, `batch`, and
/// `serve`. Solving cold is already the default, so `--no-cache` mostly
/// serves scripts that want to force it explicitly — but combining it
/// with a directory is contradictory and rejected.
fn take_cache(rest: &mut Vec<String>) -> Result<Option<String>, CliError> {
    let dir = take(rest, "--cache", |v| match v {
        "" => Err("--cache needs a directory path; use --no-cache to solve cold".into()),
        dir => Ok(dir.to_string()),
    })?;
    if take_flag(rest, "--no-cache") && dir.is_some() {
        return Err(CliError(
            "give one of --cache <dir> (reuse solutions across runs) or \
             --no-cache (solve everything cold), not both"
                .into(),
        ));
    }
    Ok(dir)
}

/// Take the six flags `batch` and `serve` share, with their defaults.
/// `--log-level` without `--log` is rejected, so a typo cannot silently
/// drop the event stream.
fn take_job_flags(rest: &mut Vec<String>) -> Result<JobFlags, CliError> {
    let algo = take(rest, "--algo", str::parse)?.unwrap_or(Algorithm::Sublinear);
    let backend = take(rest, "--backend", str::parse)?.unwrap_or(ExecBackend::Parallel);
    let large_cells = take(
        rest,
        "--large-cells",
        number("--large-cells", "a cell count"),
    )?
    .unwrap_or(DEFAULT_LARGE_JOB_CELLS);
    let cache = take_cache(rest)?;
    let log = take(rest, "--log", |v| match v {
        "" => Err("--log needs a destination: a file path, or - for stderr".into()),
        dest => Ok(dest.to_string()),
    })?;
    let log_level = take(rest, "--log-level", |v| match log {
        Some(_) => LogLevel::parse(v),
        None => Err("--log-level needs --log <path|-> (there is no event stream to filter)".into()),
    })?
    .unwrap_or(LogLevel::Info);
    Ok(JobFlags {
        algo,
        backend,
        large_cells,
        cache,
        log,
        log_level,
    })
}

/// Check what a subcommand left in `rest` after taking its flags: a
/// leftover `--flag` is unknown wherever it stands, and a positional
/// beyond the first `max` is unexpected.
fn check_leftovers(rest: &[String], max: usize) -> Result<(), CliError> {
    if let Some(flag) = rest.iter().find(|a| a.starts_with("--")) {
        return Err(CliError(format!("unknown flag '{flag}'")));
    }
    match rest.get(max) {
        Some(extra) => Err(CliError(format!("unexpected argument '{extra}'"))),
        None => Ok(()),
    }
}

/// The one positional list of a `solve` family; `missing` if absent.
fn payload(rest: &[String], missing: &str) -> Result<Vec<u64>, CliError> {
    check_leftovers(rest, 1)?;
    parse_list(rest.first().ok_or_else(|| CliError(missing.into()))?).map_err(CliError)
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
            let algo = take(&mut rest, "--algo", str::parse)?.unwrap_or(Algorithm::Sublinear);
            let backend = take(&mut rest, "--backend", str::parse)?;
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
                trace,
                d.record_trace(trace),
                SolveKnob::RecordTrace,
                "--trace",
            )?;
            // The family is the first argument left; obst reads its
            // payload from flags, the others from one positional.
            let family = match rest.first() {
                Some(f) if !f.starts_with("--") => rest.remove(0),
                _ => {
                    check_leftovers(&rest, 0)?;
                    return Err(CliError("solve needs a problem family".into()));
                }
            };
            let problem = match family.as_str() {
                "chain" => ProblemSpec::chain(payload(&rest, "chain needs dimensions")?)?,
                "obst" => {
                    let p = take(&mut rest, "--p", parse_list)?;
                    let q = take(&mut rest, "--q", parse_list)?;
                    check_leftovers(&rest, 0)?;
                    let p = p.ok_or_else(|| CliError("obst needs --p".into()))?;
                    let q = q.ok_or_else(|| CliError("obst needs --q".into()))?;
                    ProblemSpec::obst(p, q)?
                }
                "polygon" => ProblemSpec::polygon(payload(&rest, "polygon needs weights")?)?,
                "merge" => ProblemSpec::merge(payload(&rest, "merge needs run lengths")?)?,
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
                witness,
                trace,
                cache,
            })
        }
        "batch" => {
            let flags = take_job_flags(&mut rest)?;
            check_leftovers(&rest, 1)?;
            let path = rest.pop().ok_or_else(|| {
                CliError("batch needs a JSONL job file (one problem per line)".into())
            })?;
            Ok(Parsed::Batch(BatchArgs { path, flags }))
        }
        "serve" => {
            let flags = take_job_flags(&mut rest)?;
            let queue = take(&mut rest, "--queue", |v| {
                match number("--queue", "a job count")(v)? {
                    0 => Err("--queue 0 would reject every job as overloaded; give a \
                              positive bound (or drop the flag for the default)"
                        .into()),
                    q => Ok(q),
                }
            })?
            .unwrap_or(DEFAULT_QUEUE_CAPACITY);
            let job_timeout = take(&mut rest, "--job-timeout", seconds("--job-timeout"))?;
            let idle_timeout = take(&mut rest, "--idle-timeout", seconds("--idle-timeout"))?;
            let addr = take(&mut rest, "--addr", |v| Ok(v.to_string()))?;
            let pipe = take_flag(&mut rest, "--pipe");
            check_leftovers(&rest, 0)?;
            let transport = match (addr, pipe) {
                (Some(addr), false) => Transport::Tcp(addr),
                (None, true) if idle_timeout.is_some() => {
                    return Err(CliError(
                        "--idle-timeout applies to TCP connections only; --pipe reads \
                         stdin to EOF"
                            .into(),
                    ))
                }
                (None, true) => Transport::Pipe,
                _ => {
                    return Err(CliError(
                        "serve needs exactly one of --addr <host:port> (TCP daemon) or \
                         --pipe (one session over stdin/stdout)"
                            .into(),
                    ))
                }
            };
            Ok(Parsed::Serve(ServeArgs {
                transport,
                flags,
                queue,
                job_timeout,
                idle_timeout,
            }))
        }
        "cache" => {
            check_leftovers(&rest, 2)?;
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
            let jump = take(&mut rest, "--rule", |v| match v {
                "jump" => Ok(true),
                "modified" => Ok(false),
                other => Err(format!("unknown --rule '{other}'")),
            })?
            .unwrap_or(false);
            let seed = take(
                &mut rest,
                "--seed",
                number("--seed", "a non-negative integer"),
            )?
            .unwrap_or(1);
            check_leftovers(&rest, 2)?;
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
            let processors = take(
                &mut rest,
                "--processors",
                number("--processors", "a processor count"),
            )?
            .unwrap_or(0);
            check_leftovers(&rest, 1)?;
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
            check_leftovers(&rest, 1)?;
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

    /// The shared `batch`/`serve` flags when none is given.
    fn default_flags() -> JobFlags {
        JobFlags {
            algo: Algorithm::Sublinear,
            backend: ExecBackend::Parallel,
            large_cells: DEFAULT_LARGE_JOB_CELLS,
            cache: None,
            log: None,
            log_level: LogLevel::Info,
        }
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
                witness: false,
                trace: false,
                cache: None,
            }
        );
    }

    #[test]
    fn arguments_a_subcommand_does_not_consume_are_rejected() {
        // A leftover flag is unknown wherever it stands; `--tile` is no
        // longer a flag of any subcommand.
        for (line, flag) in [
            ("solve --tile naive chain 2,3,4", "--tile"),
            ("solve chain --tile naive 2,3,4", "--tile"),
            ("solve chain 2,3,4 --tile naive", "--tile"),
            ("solve --algo reduced --tile auto merge 4,5,6", "--tile"),
            ("solve chain 2,3,4 --witnes", "--witnes"),
            ("solve obst --p 1,2 --q 1,2,3 --tile naive", "--tile"),
            ("solve chain 2,3,4 --p 1,2", "--p"),
            ("batch jobs.jsonl --bogus", "--bogus"),
            ("serve --pipe --bogus", "--bogus"),
            ("cache stat /tmp/store --force", "--force"),
            ("game zigzag 8 --fast", "--fast"),
            ("model 8 --procs 4", "--procs"),
            ("bound 5 --tight", "--tight"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err.0, format!("unknown flag '{flag}'"), "{line}");
        }
        // A positional beyond the ones a subcommand reads is unexpected.
        for (line, extra) in [
            ("solve chain 2,3,4 5,6", "5,6"),
            ("solve obst 1,2 --p 1,2 --q 1,2,3", "1,2"),
            ("batch jobs.jsonl more.jsonl", "more.jsonl"),
            ("serve --pipe now", "now"),
            ("cache clear /tmp/store /tmp/other", "/tmp/other"),
            ("game zigzag 8 9", "9"),
            ("model 8 9", "9"),
            ("bound 5 junk", "junk"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err.0, format!("unexpected argument '{extra}'"), "{line}");
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
            Parsed::Batch(BatchArgs {
                path: "jobs.jsonl".into(),
                flags: default_flags(),
            })
        );
        let p = parse(&argv(
            "batch --algo reduced --backend threads:2 --large-cells 50 jobs.jsonl",
        ))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Batch(BatchArgs {
                path: "jobs.jsonl".into(),
                flags: JobFlags {
                    algo: Algorithm::Reduced,
                    backend: ExecBackend::Threads(2),
                    large_cells: 50,
                    ..default_flags()
                },
            })
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
            Parsed::Serve(ServeArgs {
                transport: Transport::Pipe,
                flags: default_flags(),
                queue: DEFAULT_QUEUE_CAPACITY,
                job_timeout: None,
                idle_timeout: None,
            })
        );
        let p = parse(&argv(
            "serve --addr 127.0.0.1:0 --algo reduced --backend threads:2 \
             --large-cells 50 --queue 8 --job-timeout 2.5 --idle-timeout 30",
        ))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Serve(ServeArgs {
                transport: Transport::Tcp("127.0.0.1:0".into()),
                flags: JobFlags {
                    algo: Algorithm::Reduced,
                    backend: ExecBackend::Threads(2),
                    large_cells: 50,
                    ..default_flags()
                },
                queue: 8,
                job_timeout: Some(Duration::from_millis(2500)),
                idle_timeout: Some(Duration::from_secs(30)),
            })
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
            Parsed::Serve(ServeArgs { job_timeout, .. }) => {
                assert_eq!(job_timeout, Some(Duration::from_millis(250)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_log_flags_on_batch_and_serve() {
        match parse(&argv("batch --log events.jsonl jobs.jsonl")).unwrap() {
            Parsed::Batch(BatchArgs {
                flags: JobFlags { log, log_level, .. },
                ..
            }) => {
                assert_eq!(log.as_deref(), Some("events.jsonl"));
                assert_eq!(log_level, LogLevel::Info);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --pipe --log - --log-level debug")).unwrap() {
            Parsed::Serve(ServeArgs {
                flags: JobFlags { log, log_level, .. },
                ..
            }) => {
                assert_eq!(log.as_deref(), Some("-"));
                assert_eq!(log_level, LogLevel::Debug);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --pipe --log e.jsonl --log-level error")).unwrap() {
            Parsed::Serve(ServeArgs {
                flags: JobFlags { log, log_level, .. },
                ..
            }) => {
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
            Parsed::Batch(b) => assert_eq!(b.flags.cache.as_deref(), Some("/tmp/store")),
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --pipe --cache /tmp/store")).unwrap() {
            Parsed::Serve(s) => assert_eq!(s.flags.cache.as_deref(), Some("/tmp/store")),
            other => panic!("{other:?}"),
        }
        // --no-cache is an accepted explicit default.
        match parse(&argv("batch --no-cache jobs.jsonl")).unwrap() {
            Parsed::Batch(b) => assert_eq!(b.flags.cache, None),
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
    fn a_flag_value_may_not_be_another_flag() {
        // Neither line may read the next flag as its value: no store
        // named `--no-cache`, no event log named `--log-level`.
        let err = parse(&argv("solve --cache --no-cache chain 30,35,15,5,10,20,25")).unwrap_err();
        assert_eq!(err.0, "--cache needs a value");
        let err = parse(&argv("batch --log --log-level jobs.jsonl")).unwrap_err();
        assert_eq!(err.0, "--log needs a value");
        // A lone dash is a value: `--log -` streams to stderr.
        match parse(&argv("batch --log - --log-level debug jobs.jsonl")).unwrap() {
            Parsed::Batch(b) => {
                assert_eq!(b.flags.log.as_deref(), Some("-"));
                assert_eq!(b.flags.log_level, LogLevel::Debug);
                assert_eq!(b.path, "jobs.jsonl");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_overlong_timeout_is_an_error() {
        let err = parse(&argv("serve --pipe --job-timeout 1e300")).unwrap_err();
        assert!(err.0.contains("--job-timeout '1e300'"), "{err}");
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
        // --trace on non-iterative algorithms.
        let err = parse(&argv("solve --algo wavefront --trace chain 2,3,4")).unwrap_err();
        assert!(err.0.contains("--trace has no effect"), "{err}");
        assert!(err.0.contains("sublinear"), "{err}");
        // The capable combinations still parse.
        assert!(parse(&argv(
            "solve --algo reduced --trace --backend seq chain 2,3,4"
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
