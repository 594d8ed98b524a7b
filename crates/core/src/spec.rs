//! The public wire API: JSONL job specs and result records shared by
//! `pardp batch`, `pardp serve`, and programmatic front ends.
//!
//! PR 5 introduced a JSONL job schema, but its parser lived as private
//! code in `crates/cli`. This module promotes it behind the façade: one
//! [`JobSpec`] input shape, one [`JobRecord`] output shape, one
//! [`BatchSummary`] trailer — so the batch CLI and the serve daemon
//! cannot drift apart, and library users submit jobs with the exact
//! semantics the CLI documents.
//!
//! ## Input: one JSON object per line
//!
//! ```json
//! {"family":"chain","values":[30,35,15,5,10,20,25]}
//! {"family":"obst","values":[15,10],"q":[5,10,5],"algo":"reduced"}
//! {"family":"merge","values":[10,20,30],"algo":"reduced","band":12,"trace":true}
//! ```
//!
//! * `family` — `chain | obst | polygon | merge` (the [`ProblemSpec`]
//!   constructors validate each family's shape rules and reject payloads
//!   whose costs could overflow `u64`);
//! * `values` — dimensions / key frequencies / vertex weights / run
//!   lengths;
//! * `q` — obst dummy frequencies (`values.len() + 1` entries);
//! * `algo` — optional per-job override of the default algorithm;
//! * `band` — optional §5 band-width override (reduced solver only;
//!   widths narrower than the paper's `2⌈√n⌉` are rejected — only wider
//!   bands are proven exact);
//! * `tile` — optional `a-square` kernel (`auto | naive`);
//! * `trace` — optional per-iteration trace recording (iterative
//!   algorithms only; the record's `trace` field carries the result).
//!
//! Every per-job knob is routed through
//! [`SolveOptions::validate_knob`], so capability errors are identical
//! whether a job arrives via CLI flag, batch file, or serve socket.
//!
//! ## Output: one [`JobRecord`] per job, one [`BatchSummary`] trailer
//!
//! Records are deterministic except for `wall_seconds`;
//! [`JobRecord::deterministic`] zeroes the timing for bit-exact
//! comparisons between front ends ([`table_hash`] fingerprints the full
//! solved table, so agreement is checked cell-for-cell, not just on the
//! goal value).

use crate::batch::BatchResult;
use crate::exec::ExecBackend;
use crate::problem::DpProblem;
use crate::reduced::default_band;
use crate::solver::{Algorithm, Solution, SolveKnob, SolveOptions};
use crate::tables::WTable;
use crate::trace::SolveTrace;
use crate::weight::Weight;

use serde::{DeError, Deserialize, Serialize, Value};

/// A job-spec or record error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A validated problem instance of one of the four wire families.
///
/// The constructors hold every family's shape rules (formerly private to
/// the CLI's parser), so `pardp solve`, `pardp batch`, and `pardp serve`
/// accept and reject exactly the same instances. They also bound the
/// payload so no tree cost or prefix sum can reach the `u64` weight
/// infinity (`u64::MAX / 4`): `2n · max_f` must stay below it, where
/// `max_f` is the largest value cubed (chain, polygon) or the payload
/// total (obst, merge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemSpec {
    /// Matrix chain from a dimension list.
    Chain {
        /// Dimensions `d_0 .. d_n` (all positive).
        dims: Vec<u64>,
    },
    /// Optimal BST from key and dummy frequencies.
    Obst {
        /// Key frequencies.
        p: Vec<u64>,
        /// Dummy frequencies (one more than keys).
        q: Vec<u64>,
    },
    /// Weighted polygon triangulation.
    Polygon {
        /// Vertex weights.
        weights: Vec<u64>,
    },
    /// Optimal adjacent merge order.
    Merge {
        /// Run lengths.
        lengths: Vec<u64>,
    },
}

/// Reject a payload whose costs could reach the `u64` weight infinity
/// ([`Weight::INFINITY`], `u64::MAX / 4`). Every tree cost and prefix
/// sum of an `n`-instance is below `2n · max_f`, where `max_f` bounds
/// `f` (`None`: computing it overflowed), so that bound must stay under
/// the infinity; `what` names `max_f` in the error.
fn check_costs(family: &str, n: usize, what: &str, max_f: Option<u64>) -> Result<(), SpecError> {
    let limit = u64::INFINITY;
    match max_f.and_then(|f| f.checked_mul(2 * n as u64)) {
        Some(bound) if bound < limit => Ok(()),
        _ => Err(SpecError(format!(
            "{family} values too large: 2·n·{what} must stay below the u64 weight \
             limit {limit} (n = {n})"
        ))),
    }
}

/// The largest value cubed — `f`'s bound for chain and polygon.
fn max_cubed(xs: &[u64]) -> Option<u64> {
    let m = *xs.iter().max()?;
    m.checked_mul(m)?.checked_mul(m)
}

/// The payload total — `f`'s bound for obst and merge.
fn total<'a>(xs: impl IntoIterator<Item = &'a u64>) -> Option<u64> {
    xs.into_iter().try_fold(0u64, |acc, &x| acc.checked_add(x))
}

impl ProblemSpec {
    /// Validated chain instance.
    pub fn chain(dims: Vec<u64>) -> Result<Self, SpecError> {
        if dims.len() < 2 {
            return Err(SpecError("chain needs at least two dimensions".into()));
        }
        if dims.contains(&0) {
            return Err(SpecError(
                "chain dimensions must be positive (a 0-dimensional matrix \
                 has no entries)"
                    .into(),
            ));
        }
        check_costs(
            "chain",
            dims.len() - 1,
            "(largest value)³",
            max_cubed(&dims),
        )?;
        Ok(ProblemSpec::Chain { dims })
    }

    /// Validated OBST instance (`q` must have one more entry than `p`).
    pub fn obst(p: Vec<u64>, q: Vec<u64>) -> Result<Self, SpecError> {
        if q.len() != p.len() + 1 {
            return Err(SpecError(format!(
                "q needs exactly {} entries (one more than the key frequencies)",
                p.len() + 1
            )));
        }
        if p.is_empty() {
            return Err(SpecError("obst needs at least one key frequency".into()));
        }
        check_costs(
            "obst",
            p.len() + 1,
            "(payload total)",
            total(p.iter().chain(&q)),
        )?;
        Ok(ProblemSpec::Obst { p, q })
    }

    /// Validated polygon instance.
    pub fn polygon(weights: Vec<u64>) -> Result<Self, SpecError> {
        if weights.len() < 3 {
            return Err(SpecError("polygon needs at least three vertices".into()));
        }
        let n = weights.len() - 1;
        check_costs("polygon", n, "(largest value)³", max_cubed(&weights))?;
        Ok(ProblemSpec::Polygon { weights })
    }

    /// Validated merge instance.
    pub fn merge(lengths: Vec<u64>) -> Result<Self, SpecError> {
        if lengths.is_empty() {
            return Err(SpecError("merge needs at least one run length".into()));
        }
        check_costs("merge", lengths.len(), "(payload total)", total(&lengths))?;
        Ok(ProblemSpec::Merge { lengths })
    }

    /// Build from wire fields: a family name plus the `values` / `q`
    /// payload of a [`JobSpec`].
    pub fn from_family(
        family: &str,
        values: Vec<u64>,
        q: Option<Vec<u64>>,
    ) -> Result<Self, SpecError> {
        match family {
            "chain" => Self::chain(values),
            "obst" => {
                let q = q.ok_or_else(|| {
                    SpecError("obst needs a \"q\" field (dummy frequencies)".to_string())
                })?;
                Self::obst(values, q)
            }
            "polygon" => Self::polygon(values),
            "merge" => Self::merge(values),
            other => Err(SpecError(format!(
                "unknown problem family '{other}' (expected chain | obst | polygon | merge)"
            ))),
        }
    }

    /// The wire family name.
    pub fn family(&self) -> &'static str {
        match self {
            ProblemSpec::Chain { .. } => "chain",
            ProblemSpec::Obst { .. } => "obst",
            ProblemSpec::Polygon { .. } => "polygon",
            ProblemSpec::Merge { .. } => "merge",
        }
    }

    /// The recurrence size `n` of the instance.
    pub fn n(&self) -> usize {
        match self {
            ProblemSpec::Chain { dims } => dims.len() - 1,
            ProblemSpec::Obst { p, .. } => p.len() + 1,
            ProblemSpec::Polygon { weights } => weights.len() - 1,
            ProblemSpec::Merge { lengths } => lengths.len(),
        }
    }

    /// The `w`-table cell count `n(n+1)/2` — the scheduler's size
    /// measure.
    pub fn cells(&self) -> usize {
        let n = self.n();
        n * (n + 1) / 2
    }

    /// The size-`m` prefix instance. Prefixing is *exact* for every
    /// wire family: a pair `(i,j)` of recurrence (*) reads only pairs
    /// nested inside it, and each family's `init` / `f` at a nested
    /// pair reads only the payload entries inside `[i, j]` — never the
    /// suffix — so every `w(i,j)` with `j <= m` of the prefix instance
    /// equals the same cell of the full instance. The solution store
    /// exploits this for warm starts: a cached size-`m` table seeds the
    /// first `m(m+1)/2` cells of a size-`n` solve of the same family
    /// and payload prefix.
    ///
    /// Returns `None` unless `2 <= m < n` (a strict prefix large enough
    /// to satisfy every family's shape rule).
    pub fn prefix(&self, m: usize) -> Option<ProblemSpec> {
        if m < 2 || m >= self.n() {
            return None;
        }
        Some(match self {
            // n = dims.len() - 1: size m keeps dims d_0 ..= d_m.
            ProblemSpec::Chain { dims } => ProblemSpec::Chain {
                dims: dims[..=m].to_vec(),
            },
            // n = keys + 1: size m keeps the first m - 1 keys and their
            // m leading dummy frequencies (appending keys appends `q`
            // entries without touching the existing ones).
            ProblemSpec::Obst { p, q } => ProblemSpec::Obst {
                p: p[..m - 1].to_vec(),
                q: q[..=m - 1].to_vec(),
            },
            // n = weights.len() - 1: f(i,k,j) reads single vertex
            // weights, all inside [i, j].
            ProblemSpec::Polygon { weights } => ProblemSpec::Polygon {
                weights: weights[..=m].to_vec(),
            },
            // n = lengths.len(): f(i,_,j) is a prefix-sum difference
            // inside [i, j].
            ProblemSpec::Merge { lengths } => ProblemSpec::Merge {
                lengths: lengths[..m].to_vec(),
            },
        })
    }

    /// Build the solvable instance.
    pub fn build(&self) -> SpecProblem {
        match self {
            ProblemSpec::Chain { dims } => SpecProblem::Chain { dims: dims.clone() },
            ProblemSpec::Obst { p, q } => {
                let mut p_prefix = vec![0u64];
                for &x in p {
                    p_prefix.push(p_prefix.last().unwrap() + x);
                }
                let mut q_prefix = vec![0u64];
                for &x in q {
                    q_prefix.push(q_prefix.last().unwrap() + x);
                }
                SpecProblem::Obst {
                    n: p.len() + 1,
                    q: q.clone(),
                    p_prefix,
                    q_prefix,
                }
            }
            ProblemSpec::Polygon { weights } => SpecProblem::Polygon {
                weights: weights.clone(),
            },
            ProblemSpec::Merge { lengths } => {
                let mut prefix = vec![0u64];
                for &l in lengths {
                    prefix.push(prefix.last().unwrap() + l);
                }
                SpecProblem::Merge {
                    n: lengths.len(),
                    prefix,
                }
            }
        }
    }
}

/// The solvable instance a [`ProblemSpec`] builds: a [`DpProblem`] over
/// `u64` weights, with the same `init` / `f` as the reference
/// implementations in `pardp-apps` (property-tested there — `pardp-core`
/// cannot depend on `pardp-apps`, so the recurrences are mirrored).
#[derive(Debug, Clone)]
pub enum SpecProblem {
    /// `init = 0`, `f(i,k,j) = d_i d_k d_j`.
    Chain {
        /// Dimensions `d_0 .. d_n`.
        dims: Vec<u64>,
    },
    /// `init(i) = q_i`, `f(i,k,j) = W(i,j)` via prefix sums.
    Obst {
        /// `n = keys + 1`.
        n: usize,
        /// Dummy frequencies `q_0 .. q_m`.
        q: Vec<u64>,
        /// `p_prefix[t] = p_1 + .. + p_t`.
        p_prefix: Vec<u64>,
        /// `q_prefix[t] = q_0 + .. + q_{t-1}`.
        q_prefix: Vec<u64>,
    },
    /// `init = 0`, `f(i,k,j) = w_i w_k w_j`.
    Polygon {
        /// Vertex weights.
        weights: Vec<u64>,
    },
    /// `init = 0`, `f(i,_,j) = prefix[j] - prefix[i]`.
    Merge {
        /// Number of runs.
        n: usize,
        /// Run-length prefix sums.
        prefix: Vec<u64>,
    },
}

impl DpProblem<u64> for SpecProblem {
    fn n(&self) -> usize {
        match self {
            SpecProblem::Chain { dims } => dims.len() - 1,
            SpecProblem::Obst { n, .. } => *n,
            SpecProblem::Polygon { weights } => weights.len() - 1,
            SpecProblem::Merge { n, .. } => *n,
        }
    }

    #[inline]
    fn init(&self, i: usize) -> u64 {
        match self {
            SpecProblem::Obst { q, .. } => q[i],
            _ => 0,
        }
    }

    #[inline]
    fn f(&self, i: usize, k: usize, j: usize) -> u64 {
        match self {
            SpecProblem::Chain { dims } => dims[i] * dims[k] * dims[j],
            SpecProblem::Obst {
                p_prefix, q_prefix, ..
            } => (p_prefix[j - 1] - p_prefix[i]) + (q_prefix[j] - q_prefix[i]),
            SpecProblem::Polygon { weights } => weights[i] * weights[k] * weights[j],
            SpecProblem::Merge { prefix, .. } => prefix[j] - prefix[i],
        }
    }

    fn name(&self) -> &str {
        match self {
            SpecProblem::Chain { .. } => "matrix-chain",
            SpecProblem::Obst { .. } => "optimal-bst",
            SpecProblem::Polygon { .. } => "triangulation-weighted",
            SpecProblem::Merge { .. } => "merge-order",
        }
    }
}

/// One JSONL job line, exactly as it appears on the wire: the problem
/// payload plus optional per-job overrides. Parse one with
/// [`serde_json::from_str`], a whole file with [`parse_jobs`], and turn
/// it into a runnable job with [`JobSpec::resolve`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    /// Problem family: `chain | obst | polygon | merge`.
    pub family: String,
    /// Dimensions / key frequencies / vertex weights / run lengths.
    pub values: Vec<u64>,
    /// Obst dummy frequencies (obst only; `values.len() + 1` entries).
    pub q: Option<Vec<u64>>,
    /// Per-job algorithm override.
    pub algo: Option<String>,
    /// Per-job §5 band-width override (reduced solver only; must be at
    /// least the paper's `2⌈√n⌉` — only wider bands are proven exact).
    pub band: Option<usize>,
    /// Per-job `a-square` kernel: `auto | naive`.
    pub tile: Option<String>,
    /// Record the per-iteration trace into the job's record.
    pub trace: Option<bool>,
}

// Hand-written so absent keys read as `None` (the derive requires every
// field present, which would reject minimal `{"family":..,"values":..}`
// lines).
impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        fn opt<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, DeError> {
            match v.get(name) {
                None | Some(Value::Null) => Ok(None),
                Some(inner) => T::from_value(inner)
                    .map(Some)
                    .map_err(|e| DeError(format!("field '{name}': {}", e.0))),
            }
        }
        Ok(JobSpec {
            family: serde::field(v, "family")?,
            values: serde::field(v, "values")?,
            q: opt(v, "q")?,
            algo: opt(v, "algo")?,
            band: opt(v, "band")?,
            tile: opt(v, "tile")?,
            trace: opt(v, "trace")?,
        })
    }
}

impl From<&ProblemSpec> for JobSpec {
    fn from(p: &ProblemSpec) -> Self {
        let (values, q) = match p {
            ProblemSpec::Chain { dims } => (dims.clone(), None),
            ProblemSpec::Obst { p, q } => (p.clone(), Some(q.clone())),
            ProblemSpec::Polygon { weights } => (weights.clone(), None),
            ProblemSpec::Merge { lengths } => (lengths.clone(), None),
        };
        JobSpec {
            family: p.family().to_string(),
            values,
            q,
            algo: None,
            band: None,
            tile: None,
            trace: None,
        }
    }
}

/// A fully resolved, runnable job: the validated problem plus the
/// algorithm and options after applying every per-job override.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedJob {
    /// The validated instance.
    pub problem: ProblemSpec,
    /// The algorithm (per-job override or the caller's default).
    pub algorithm: Algorithm,
    /// The options (caller's base with per-job overrides applied).
    pub options: SolveOptions,
}

impl JobSpec {
    /// The validated [`ProblemSpec`] this job describes.
    pub fn problem(&self) -> Result<ProblemSpec, SpecError> {
        ProblemSpec::from_family(&self.family, self.values.clone(), self.q.clone())
    }

    /// Resolve against a default algorithm and base options: validate
    /// the family shape, parse the per-job overrides, and route each
    /// explicitly-set knob through [`SolveOptions::validate_knob`].
    ///
    /// Only *explicitly set* fields are validated — the base options are
    /// the caller's business (the batch CLI, for example, sets a
    /// fixpoint stop for every job, which only the capable algorithms
    /// read).
    pub fn resolve(
        &self,
        default_algo: Algorithm,
        base: SolveOptions,
    ) -> Result<ResolvedJob, SpecError> {
        let problem = self.problem()?;
        let algorithm = match &self.algo {
            Some(name) => name.parse::<Algorithm>().map_err(SpecError)?,
            None => default_algo,
        };
        let mut options = base;
        if let Some(b) = self.band {
            options = options.band(Some(b));
            options
                .validate_knob(algorithm, SolveKnob::Band)
                .map_err(|e| SpecError(format!("\"band\" {}", e.message)))?;
            let floor = default_band(problem.n());
            if b < floor {
                return Err(SpecError(format!(
                    "\"band\" {b} is narrower than the paper's 2*ceil(sqrt(n)) = \
                     {floor} for n = {}; only wider bands are proven exact — \
                     drop it or widen it",
                    problem.n()
                )));
            }
        }
        if let Some(t) = &self.tile {
            let square = t.parse().map_err(SpecError)?;
            options = options.square(square);
            options
                .validate_knob(algorithm, SolveKnob::Square)
                .map_err(|e| SpecError(format!("\"tile\" {}", e.message)))?;
        }
        if let Some(tr) = self.trace {
            options = options.record_trace(tr);
            if tr {
                options
                    .validate_knob(algorithm, SolveKnob::RecordTrace)
                    .map_err(|e| SpecError(format!("\"trace\" {}", e.message)))?;
            }
        }
        Ok(ResolvedJob {
            problem,
            algorithm,
            options,
        })
    }
}

/// Parse a JSONL job file: one [`JobSpec`] per non-blank line. Errors
/// name the offending 1-based line (`"line 3: ..."`); callers prefix
/// their own source name (a path, a connection).
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, SpecError> {
    let mut specs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let spec: JobSpec = serde_json::from_str(line)
            .map_err(|e| SpecError(format!("line {}: {e}", lineno + 1)))?;
        specs.push(spec);
    }
    Ok(specs)
}

/// The canonical FNV-1a 64 hasher behind every identity in the wire
/// API: [`table_hash`] fingerprints solved tables with it, and
/// [`ProblemKey`](crate::store::ProblemKey) derives cache identities
/// from it — one hash function, one byte encoding (little-endian),
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalHasher {
    state: u64,
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        CanonicalHasher {
            state: Self::OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb one `u64`, little-endian.
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Absorb a length-prefixed `u64` slice (the prefix keeps
    /// `[1] ++ [2]` and `[1, 2]` distinct across adjacent fields).
    pub fn write_slice(&mut self, xs: &[u64]) {
        self.write_u64(xs.len() as u64);
        for &x in xs {
            self.write_u64(x);
        }
    }

    /// Absorb a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// The digest as 16 hex digits — the wire rendering.
    pub fn finish_hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// FNV-1a 64 fingerprint of a solved `w` table (size then every cell,
/// little-endian), rendered as 16 hex digits. Two runs agree on this
/// hash iff they produced identical tables — the bit-parity check of
/// records that do not carry the full table. Built on
/// [`CanonicalHasher`], the same hash the solution store derives
/// problem identities from.
pub fn table_hash(w: &WTable<u64>) -> String {
    let mut h = CanonicalHasher::new();
    h.write_u64(w.n() as u64);
    for &cell in w.as_slice() {
        h.write_u64(cell);
    }
    h.finish_hex()
}

/// Cross-check a Knuth–Yao solution against the full DP. The speedup is
/// only valid on quadrangle-inequality instances; `pardp solve` and the
/// per-job step behind `pardp batch` and `pardp serve` guard every Knuth
/// job with this before emitting its record.
pub fn verify_knuth<P: DpProblem<u64> + ?Sized>(
    problem: &P,
    solution: &Solution<u64>,
) -> Result<(), SpecError> {
    if solution.algorithm == Algorithm::Knuth
        && !solution.w.table_eq(&crate::seq::solve_sequential(problem))
    {
        return Err(SpecError(
            "knuth speedup disagrees with the full DP — instance lacks the \
             quadrangle inequality; use the sequential algorithm (algo seq)"
                .into(),
        ));
    }
    Ok(())
}

/// The machine-readable error taxonomy shared by the serve daemon and
/// the batch CLI: every JSONL error line carries a `kind` field naming
/// one of these, next to the human-readable `error` text (which remains
/// free to change). Front ends branch on `kind`, never on the prose.
/// A failed job — a panic, a failed Knuth guard, a timeout — answers
/// with the same per-job line in both front ends, in the job's slot.
///
/// | kind | meaning | retry advice |
/// |---|---|---|
/// | `invalid` | the request itself is wrong (bad JSON, bad spec, failed Knuth guard) | fix the job, do not retry as-is |
/// | `rejected` | refused at admission (size caps, oversized line, shutdown drain) | resubmit elsewhere / smaller |
/// | `overloaded` | the bounded queue is full | back off and retry |
/// | `timeout` | the job exceeded its deadline | retry with a longer `--job-timeout` or a cheaper algorithm |
/// | `internal` | the solve panicked; the job was isolated | report a bug; the daemon is still healthy |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request itself is wrong: unparseable JSON, an invalid
    /// problem spec or knob, or a failed result verification.
    Invalid,
    /// Refused at admission: over the size caps, an oversized request
    /// line, or submitted while the daemon drains for shutdown.
    Rejected,
    /// The bounded job queue is full — backpressure, retry later.
    Overloaded,
    /// The job exceeded its deadline and was cancelled cooperatively.
    Timeout,
    /// The solve panicked; panic isolation answered for it.
    Internal,
}

impl ErrorKind {
    /// The wire name carried in the `kind` field.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::Invalid => "invalid",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wire shape of one JSONL error line (see [`error_record`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ErrorRecordLine {
    job: usize,
    error: String,
    kind: String,
}

/// Render the one JSONL error-line shape both front ends emit:
/// `{"job":N,"error":"...","kind":"..."}` — `job` is the 0-based input
/// index the failed job consumed, `kind` the [`ErrorKind`] wire name.
pub fn error_record(job: usize, kind: ErrorKind, error: &str) -> String {
    serde_json::to_string(&ErrorRecordLine {
        job,
        error: error.to_string(),
        kind: kind.name().to_string(),
    })
    .expect("an error record always serializes")
}

/// One JSONL result line: the deterministic solve outcome plus timing.
/// Serialized field order is the wire order; `wall_seconds` is last and
/// is the only nondeterministic field (see
/// [`JobRecord::deterministic`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job index within its batch / connection (0-based, input order).
    pub job: usize,
    /// The wire family name.
    pub family: String,
    /// Recurrence size.
    pub n: usize,
    /// Canonical algorithm name.
    pub algo: String,
    /// The goal value `c(0, n)`.
    pub value: u64,
    /// Iterations executed (0 for the direct algorithms).
    pub iterations: u64,
    /// Scheduling regime: `"small"` (whole-problem-per-worker) or
    /// `"large"` (parallel per-problem).
    pub regime: String,
    /// [`table_hash`] fingerprint of the solved table.
    pub tables_hash: String,
    /// Composition candidates examined (0 for the direct algorithms).
    pub candidates: u64,
    /// Improved-cell stores (0 for the direct algorithms).
    pub writes: u64,
    /// The per-iteration trace, when the job asked for one.
    pub trace: Option<SolveTrace>,
    /// Wall-clock seconds of the solve (nondeterministic).
    pub wall_seconds: f64,
}

impl JobRecord {
    /// Build the record of a solution: `job` is the 0-based input index,
    /// `large` the scheduling regime the job ran under.
    pub fn of_solution(job: usize, family: &str, solution: &Solution<u64>, large: bool) -> Self {
        JobRecord {
            job,
            family: family.to_string(),
            n: solution.trace.n,
            algo: solution.algorithm.name().to_string(),
            value: solution.value(),
            iterations: solution.trace.iterations,
            regime: if large { "large" } else { "small" }.to_string(),
            tables_hash: table_hash(&solution.w),
            candidates: solution.stats.candidates,
            writes: solution.stats.writes,
            trace: if solution.trace.per_iteration.is_empty() {
                None
            } else {
                Some(solution.trace.clone())
            },
            wall_seconds: solution.wall.as_secs_f64(),
        }
    }

    /// Build the record of one batch result.
    pub fn new(family: &str, r: &BatchResult<u64>) -> Self {
        Self::of_solution(r.job, family, &r.solution, r.large)
    }

    /// A copy with `wall_seconds` zeroed — every remaining field is a
    /// deterministic function of the job, so two front ends agree on
    /// `deterministic()` output iff they solved identically.
    pub fn deterministic(&self) -> JobRecord {
        let mut r = self.clone();
        r.wall_seconds = 0.0;
        r
    }
}

/// The trailing JSONL summary line of a batch (or of a serve session's
/// drained queue).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSummary {
    /// Total jobs.
    pub jobs: usize,
    /// Jobs run whole-problem-per-worker.
    pub small_jobs: usize,
    /// Jobs run on the parallel per-problem path.
    pub large_jobs: usize,
    /// The pool backend (resolved, e.g. `threads(8)`).
    pub backend: String,
    /// Batch wall-clock seconds.
    pub wall_seconds: f64,
    /// Jobs per second.
    pub throughput: f64,
    /// Aggregate candidates over every job.
    pub candidates: u64,
    /// Aggregate improved-cell stores.
    pub writes: u64,
}

impl BatchSummary {
    /// Summarise a [`BatchReport`](crate::batch::BatchReport).
    pub fn new(report: &crate::batch::BatchReport<u64>, backend: ExecBackend) -> Self {
        BatchSummary {
            jobs: report.results.len(),
            small_jobs: report.small_jobs,
            large_jobs: report.large_jobs,
            backend: backend.to_string(),
            wall_seconds: report.wall.as_secs_f64(),
            throughput: report.throughput,
            candidates: report.stats.candidates,
            writes: report.stats.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchJob, BatchSolver};
    use crate::solver::Solver;

    #[test]
    fn family_constructors_enforce_shape_rules() {
        assert!(ProblemSpec::chain(vec![2, 3, 4]).is_ok());
        let e = ProblemSpec::chain(vec![5]).unwrap_err();
        assert!(e.0.contains("at least two dimensions"), "{e}");
        let e = ProblemSpec::chain(vec![2, 0, 4]).unwrap_err();
        assert!(e.0.contains("positive"), "{e}");
        assert!(ProblemSpec::obst(vec![1, 2], vec![1, 2, 3]).is_ok());
        let e = ProblemSpec::obst(vec![1, 2], vec![1, 2]).unwrap_err();
        assert!(e.0.contains("exactly 3"), "{e}");
        let e = ProblemSpec::obst(vec![], vec![7]).unwrap_err();
        assert!(e.0.contains("at least one key"), "{e}");
        let e = ProblemSpec::polygon(vec![1, 2]).unwrap_err();
        assert!(e.0.contains("three vertices"), "{e}");
        let e = ProblemSpec::merge(vec![]).unwrap_err();
        assert!(e.0.contains("one run length"), "{e}");
        let e = ProblemSpec::from_family("knapsack", vec![1, 2], None).unwrap_err();
        assert!(e.0.contains("unknown problem family"), "{e}");
        let e = ProblemSpec::from_family("obst", vec![1, 2], None).unwrap_err();
        assert!(e.0.contains("\"q\" field"), "{e}");
    }

    /// The largest accepted and the smallest rejected payload of each
    /// family at n = 2, where `2·n·max_f < 2^62 − 1` allows `max_f` up
    /// to `2^60 − 1`.
    fn cost_bound_boundaries() -> [(ProblemSpec, u64, Result<ProblemSpec, SpecError>); 4] {
        const V: u64 = (1 << 20) - 1; // V³ < 2^60 ≤ (V + 1)³
        const T: u64 = (1 << 60) - 1; // the largest payload total
        let ok = |r: Result<ProblemSpec, SpecError>| r.unwrap();
        [
            (
                ok(ProblemSpec::chain(vec![V; 3])),
                V * V * V,
                ProblemSpec::chain(vec![V, V, V + 1]),
            ),
            (
                ok(ProblemSpec::polygon(vec![V; 3])),
                V * V * V,
                ProblemSpec::polygon(vec![V, V, V + 1]),
            ),
            // c(0,2) = q_0 + q_1 + W(0,2) = 1 + 1 + (p_1 + q_0 + q_1).
            (
                ok(ProblemSpec::obst(vec![T - 2], vec![1, 1])),
                T + 2,
                ProblemSpec::obst(vec![T - 1], vec![1, 1]),
            ),
            (
                ok(ProblemSpec::merge(vec![T - 1, 1])),
                T,
                ProblemSpec::merge(vec![T, 1]),
            ),
        ]
    }

    #[test]
    fn constructors_bound_costs_below_the_weight_infinity() {
        for (accepted, value, rejected) in cost_bound_boundaries() {
            let family = accepted.family();
            // The largest accepted payload solves without a cost wrapping
            // (this profile checks arithmetic overflow).
            let sol = Solver::new(Algorithm::Sequential).solve(&accepted.build());
            assert_eq!(sol.value(), value, "{family}");
            let e = rejected.unwrap_err();
            assert!(e.0.contains("too large"), "{family}: {e}");
            assert!(e.0.contains("4611686018427387903"), "{family}: {e}");
        }
        // Products and totals that overflow u64 outright are rejected
        // too: 2^32 cubed wraps to 0.
        let e = ProblemSpec::chain(vec![1 << 32; 3]).unwrap_err();
        assert!(e.0.contains("chain values too large"), "{e}");
        assert!(ProblemSpec::merge(vec![u64::MAX, 1]).is_err());
        assert!(ProblemSpec::obst(vec![1], vec![u64::MAX, 1]).is_err());
    }

    #[test]
    fn spec_problems_solve_to_known_values() {
        let clrs = ProblemSpec::chain(vec![30, 35, 15, 5, 10, 20, 25]).unwrap();
        let sol = Solver::new(Algorithm::Sequential).solve(&clrs.build());
        assert_eq!(sol.value(), 15125);
        let bst = ProblemSpec::obst(vec![15, 10, 5, 10, 20], vec![5, 10, 5, 5, 5, 10]).unwrap();
        assert_eq!(
            Solver::new(Algorithm::Sequential)
                .solve(&bst.build())
                .value(),
            275
        );
        let poly = ProblemSpec::polygon(vec![1, 10, 1, 10]).unwrap();
        assert_eq!(
            Solver::new(Algorithm::Sequential)
                .solve(&poly.build())
                .value(),
            20
        );
        let merge = ProblemSpec::merge(vec![10, 20, 30]).unwrap();
        assert_eq!(
            Solver::new(Algorithm::Sequential)
                .solve(&merge.build())
                .value(),
            90
        );
    }

    #[test]
    fn spec_sizes_match_built_problems() {
        for spec in [
            ProblemSpec::chain(vec![2, 3, 4, 5]).unwrap(),
            ProblemSpec::obst(vec![1, 2], vec![1, 2, 3]).unwrap(),
            ProblemSpec::polygon(vec![1, 2, 3, 4, 5]).unwrap(),
            ProblemSpec::merge(vec![8, 9]).unwrap(),
        ] {
            assert_eq!(spec.n(), spec.build().n(), "{}", spec.family());
            assert_eq!(spec.cells(), spec.n() * (spec.n() + 1) / 2);
        }
    }

    #[test]
    fn jobspec_parses_minimal_and_full_lines() {
        let j: JobSpec = serde_json::from_str("{\"family\":\"chain\",\"values\":[2,3,4]}").unwrap();
        assert_eq!(j.family, "chain");
        assert_eq!(j.values, vec![2, 3, 4]);
        assert_eq!(
            (j.q, j.algo, j.band, j.tile, j.trace),
            (None, None, None, None, None)
        );
        let j: JobSpec = serde_json::from_str(
            "{\"family\":\"merge\",\"values\":[1,2],\"algo\":\"reduced\",\
             \"band\":12,\"tile\":\"naive\",\"trace\":true}",
        )
        .unwrap();
        assert_eq!(j.algo.as_deref(), Some("reduced"));
        assert_eq!(j.band, Some(12));
        assert_eq!(j.tile.as_deref(), Some("naive"));
        assert_eq!(j.trace, Some(true));
    }

    #[test]
    fn jobspec_serializes_roundtrip() {
        let spec = ProblemSpec::obst(vec![3, 1], vec![2, 2, 2]).unwrap();
        let job = JobSpec::from(&spec);
        let line = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back, job);
        assert_eq!(back.problem().unwrap(), spec);
    }

    #[test]
    fn resolve_applies_and_validates_overrides() {
        let base = SolveOptions::default();
        let mut job = JobSpec::from(&ProblemSpec::chain(vec![2; 40]).unwrap());
        // Default algorithm flows through.
        let r = job.resolve(Algorithm::Sublinear, base).unwrap();
        assert_eq!(r.algorithm, Algorithm::Sublinear);
        assert_eq!(r.options, base);
        // Per-job algo + band on the capable solver.
        job.algo = Some("reduced".into());
        job.band = Some(14); // n = 39 → default band 2*ceil(sqrt(39)) = 14
        let r = job.resolve(Algorithm::Sublinear, base).unwrap();
        assert_eq!(r.algorithm, Algorithm::Reduced);
        assert_eq!(r.options.band, Some(14));
        // Narrower than the paper's default: unsound, rejected.
        job.band = Some(13);
        let e = job.resolve(Algorithm::Sublinear, base).unwrap_err();
        assert!(e.0.contains("\"band\""), "{e}");
        assert!(e.0.contains("narrower"), "{e}");
        // Band on a band-less algorithm.
        job.algo = Some("sublinear".into());
        job.band = Some(64);
        let e = job.resolve(Algorithm::Sublinear, base).unwrap_err();
        assert!(e.0.contains("\"band\" has no effect"), "{e}");
        // Tile on a direct algorithm.
        job.band = None;
        job.algo = Some("seq".into());
        job.tile = Some("naive".into());
        let e = job.resolve(Algorithm::Sublinear, base).unwrap_err();
        assert!(e.0.contains("\"tile\" has no effect"), "{e}");
        // Anything but auto | naive, numeric edges included.
        job.algo = None;
        for bad in ["8", "0", "blocky"] {
            job.tile = Some(bad.into());
            let e = job.resolve(Algorithm::Sublinear, base).unwrap_err();
            assert!(e.0.contains("unknown square strategy"), "{e}");
            assert!(e.0.contains("auto | naive"), "{e}");
        }
        // Trace on a non-iterative algorithm; trace:false is harmless.
        job.tile = None;
        job.algo = Some("wavefront".into());
        job.trace = Some(true);
        let e = job.resolve(Algorithm::Sublinear, base).unwrap_err();
        assert!(e.0.contains("\"trace\" has no effect"), "{e}");
        job.trace = Some(false);
        assert!(job.resolve(Algorithm::Sublinear, base).is_ok());
        // Unknown per-job algorithm.
        job.algo = Some("reducedd".into());
        let e = job.resolve(Algorithm::Sublinear, base).unwrap_err();
        assert!(e.0.contains("unknown algorithm"), "{e}");
    }

    #[test]
    fn parse_jobs_skips_blanks_and_names_bad_lines() {
        let specs = parse_jobs(
            "{\"family\":\"chain\",\"values\":[2,3]}\n\
             \n\
             {\"family\":\"merge\",\"values\":[4]}\n",
        )
        .unwrap();
        assert_eq!(specs.len(), 2);
        let e = parse_jobs("\n{\"family\":\"chain\"\n").unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
    }

    #[test]
    fn canonical_hasher_is_stable_and_field_separating() {
        // The digest of (n, cells...) must match the historical
        // `table_hash` byte stream — recorded fingerprints stay valid.
        let mut h = CanonicalHasher::new();
        h.write_u64(0);
        assert_eq!(
            h.finish_hex(),
            "a8c7f832281a39c5",
            "FNV-1a 64 of 8 zero bytes"
        );
        // Length prefixes keep adjacent variable-length fields apart.
        let mut a = CanonicalHasher::new();
        a.write_slice(&[1]);
        a.write_slice(&[2]);
        let mut b = CanonicalHasher::new();
        b.write_slice(&[1, 2]);
        b.write_slice(&[]);
        assert_ne!(a.finish(), b.finish());
        let mut s = CanonicalHasher::new();
        s.write_str("ab");
        let mut t = CanonicalHasher::new();
        t.write_str("a");
        t.write_bytes(b"b");
        assert_ne!(s.finish(), t.finish());
    }

    #[test]
    fn prefix_instances_are_exact_for_every_family() {
        let specs = [
            ProblemSpec::chain(vec![30, 35, 15, 5, 10, 20, 25]).unwrap(),
            ProblemSpec::obst(vec![15, 10, 5, 10, 20], vec![5, 10, 5, 5, 5, 10]).unwrap(),
            ProblemSpec::polygon(vec![1, 10, 1, 10, 3, 7]).unwrap(),
            ProblemSpec::merge(vec![10, 20, 30, 5, 8]).unwrap(),
        ];
        for spec in specs {
            let n = spec.n();
            let full = Solver::new(Algorithm::Sequential).solve(&spec.build());
            for m in 2..n {
                let pre = spec
                    .prefix(m)
                    .unwrap_or_else(|| panic!("{} m={m}", spec.family()));
                assert_eq!(pre.family(), spec.family());
                assert_eq!(pre.n(), m, "{} m={m}", spec.family());
                let w = Solver::new(Algorithm::Sequential).solve(&pre.build());
                for i in 0..m {
                    for j in i + 1..=m {
                        assert_eq!(
                            w.w.get(i, j),
                            full.w.get(i, j),
                            "{} m={m} cell ({i},{j})",
                            spec.family()
                        );
                    }
                }
            }
            // Degenerate prefixes are refused.
            assert!(spec.prefix(0).is_none());
            assert!(spec.prefix(1).is_none());
            assert!(spec.prefix(n).is_none());
            assert!(spec.prefix(n + 1).is_none());
        }
    }

    #[test]
    fn table_hash_separates_tables() {
        let a = Solver::new(Algorithm::Sequential)
            .solve(&ProblemSpec::chain(vec![2, 3, 4]).unwrap().build());
        let b = Solver::new(Algorithm::Sequential)
            .solve(&ProblemSpec::chain(vec![2, 3, 5]).unwrap().build());
        assert_eq!(table_hash(&a.w).len(), 16);
        assert_ne!(table_hash(&a.w), table_hash(&b.w));
        let again = Solver::new(Algorithm::Sublinear)
            .solve(&ProblemSpec::chain(vec![2, 3, 4]).unwrap().build());
        assert_eq!(table_hash(&a.w), table_hash(&again.w));
    }

    #[test]
    fn job_record_roundtrips_and_compares_deterministically() {
        let spec = ProblemSpec::chain(vec![30, 35, 15, 5, 10, 20, 25]).unwrap();
        let p = spec.build();
        let opts = SolveOptions::default().record_trace(true);
        let jobs = [BatchJob::new(&p)
            .algorithm(Algorithm::Sublinear)
            .options(opts)];
        let report = BatchSolver::new().solve_batch(&jobs);
        let rec = JobRecord::new(spec.family(), &report.results[0]);
        assert_eq!(rec.value, 15125);
        assert_eq!(rec.regime, "small");
        assert!(rec.trace.is_some(), "record_trace jobs carry the trace");
        let line = serde_json::to_string(&rec).unwrap();
        let back: JobRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.deterministic(), rec.deterministic());
        assert_ne!(rec.wall_seconds, 0.0);
        // Untraced jobs serialize a null trace.
        let jobs = [BatchJob::new(&p).algorithm(Algorithm::Sublinear)];
        let report = BatchSolver::new().solve_batch(&jobs);
        let rec = JobRecord::new(spec.family(), &report.results[0]);
        assert!(rec.trace.is_none());
        assert!(serde_json::to_string(&rec)
            .unwrap()
            .contains("\"trace\":null"));
        // The "tile" kernel choice leaves the whole record, trace
        // included, unchanged.
        for algo in ["sublinear", "reduced", "rytter"] {
            let record = |tile: &str| {
                let mut job = JobSpec::from(&spec);
                job.algo = Some(algo.into());
                job.tile = Some(tile.into());
                job.trace = Some(true);
                let r = job
                    .resolve(Algorithm::Sublinear, SolveOptions::default())
                    .unwrap();
                let sol = crate::solver::Solver::new(r.algorithm)
                    .options(r.options)
                    .solve(&p);
                JobRecord::of_solution(0, spec.family(), &sol, false).deterministic()
            };
            assert_eq!(record("naive"), record("auto"), "{algo}");
        }
    }

    #[test]
    fn knuth_guard_rejects_non_qi_chains() {
        let bad = ProblemSpec::chain(vec![10, 1, 10, 1, 10, 1, 10])
            .unwrap()
            .build();
        let sol = Solver::new(Algorithm::Knuth).solve(&bad);
        let e = verify_knuth(&bad, &sol).unwrap_err();
        assert!(e.0.contains("quadrangle"), "{e}");
        // QI instances pass.
        let good = ProblemSpec::obst(vec![15, 10, 5, 10, 20], vec![5, 10, 5, 5, 5, 10])
            .unwrap()
            .build();
        let sol = Solver::new(Algorithm::Knuth).solve(&good);
        assert!(verify_knuth(&good, &sol).is_ok());
        // Non-Knuth solutions are never questioned.
        let sol = Solver::new(Algorithm::Sequential).solve(&bad);
        assert!(verify_knuth(&bad, &sol).is_ok());
    }

    #[test]
    fn batch_summary_mirrors_the_report() {
        let spec = ProblemSpec::merge(vec![4, 5, 6]).unwrap();
        let p = spec.build();
        let jobs = [BatchJob::new(&p), BatchJob::new(&p)];
        let solver = BatchSolver::new();
        let report = solver.solve_batch(&jobs);
        let s = BatchSummary::new(&report, solver.backend());
        assert_eq!((s.jobs, s.small_jobs, s.large_jobs), (2, 2, 0));
        assert_eq!(s.candidates, report.stats.candidates);
        let line = serde_json::to_string(&s).unwrap();
        let back: BatchSummary = serde_json::from_str(&line).unwrap();
        assert_eq!(back, s);
    }
}
