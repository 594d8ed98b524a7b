//! Seeded inputs: the instance pools and operation lists of the three
//! workloads. Everything here is a pure function of `(seed, seconds)`,
//! so two runs with the same arguments do exactly the same work.

use std::collections::{HashMap, HashSet, VecDeque};

use pardp_core::solver::{Algorithm, SolveOptions};
use pardp_core::spec::ProblemSpec;
use pardp_core::store::ProblemKey;

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i);
            v.swap(i, j);
        }
    }
}

pub const FAMILIES: [&str; 4] = ["chain", "obst", "polygon", "merge"];

fn values(rng: &mut Rng, k: usize) -> Vec<u64> {
    (0..k).map(|_| 1 + rng.next_u64() % 100).collect()
}

/// A random size-`n` instance of wire family `family` (index into
/// [`FAMILIES`]), payload values in `1..=100`.
pub fn instance(rng: &mut Rng, family: usize, n: usize) -> ProblemSpec {
    let spec = match family {
        0 => ProblemSpec::chain(values(rng, n + 1)),
        1 => {
            let p = values(rng, n - 1);
            ProblemSpec::obst(p, values(rng, n))
        }
        2 => ProblemSpec::polygon(values(rng, n + 1)),
        _ => ProblemSpec::merge(values(rng, n)),
    };
    spec.expect("generated payloads satisfy every family's shape rule")
}

/// `spec` grown by `k` more values: the original is its size-`n` prefix.
pub fn extend(rng: &mut Rng, spec: &ProblemSpec, k: usize) -> ProblemSpec {
    let more = |v: &Vec<u64>, rng: &mut Rng| {
        let mut v = v.clone();
        v.extend(values(rng, k));
        v
    };
    let grown = match spec {
        ProblemSpec::Chain { dims } => ProblemSpec::chain(more(dims, rng)),
        ProblemSpec::Obst { p, q } => {
            let p = more(p, rng);
            ProblemSpec::obst(p, more(q, rng))
        }
        ProblemSpec::Polygon { weights } => ProblemSpec::polygon(more(weights, rng)),
        ProblemSpec::Merge { lengths } => ProblemSpec::merge(more(lengths, rng)),
    };
    grown.expect("an extended payload keeps its family's shape")
}

/// One distinct problem of a solve workload.
pub struct SolveCase {
    pub spec: ProblemSpec,
    pub algo: Algorithm,
    /// Latency class label (algorithm name or size class).
    pub class: String,
}

/// A solve workload: a pool of distinct cases and the seeded order in
/// which the closed loop solves them.
pub struct SolveWorkload {
    pub cases: Vec<SolveCase>,
    /// Indices into `cases`: whole rounds, each a seeded shuffle of every
    /// case, so class shares are exact in every run.
    pub ops: Vec<usize>,
}

/// Nominal closed-loop rates (operations per second on a 2-vCPU host);
/// they only size the fixed operation lists, they are never measured.
pub const PAPER_RATE: f64 = 18.0;
pub const WAVEFRONT_RATE: f64 = 34.0;
pub const SERVE_RATE: f64 = 3000.0;

fn rounds(rng: &mut Rng, cases: usize, rounds: usize) -> Vec<usize> {
    let mut ops = Vec::with_capacity(cases * rounds);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..cases).collect();
        rng.shuffle(&mut round);
        ops.extend(round);
    }
    ops
}

/// Equal chunks a timed run is cut into; throughput and CPU per job are
/// the medians over chunks, so a contended host phase that covers a
/// minority of the run does not move them.
pub const CHUNKS: usize = 10;

/// Whole rounds filling about `seconds` at `rate`.
fn rounds_for(seconds: f64, rate: f64, cases: usize) -> usize {
    ((seconds * rate / cases as f64).round() as usize).max(1)
}

/// `solve-paper`: the paper's three iterative algorithms with library
/// defaults on all four families, 1:1:1. Sublinear and reduced take
/// ~45 ms and rytter ~65 ms at these sizes on a 2-vCPU host, so p50 falls
/// inside the first class and p90 inside the rytter class.
pub fn paper(seed: u64, round_count: Option<usize>, seconds: f64) -> SolveWorkload {
    let mut rng = Rng::new(seed, 1);
    let mut cases = Vec::new();
    for (algo, n) in [
        (Algorithm::Sublinear, 42),
        (Algorithm::Reduced, 60),
        (Algorithm::Rytter, 44),
    ] {
        for family in 0..FAMILIES.len() {
            cases.push(SolveCase {
                spec: instance(&mut rng, family, n),
                algo,
                class: algo.name().to_string(),
            });
        }
    }
    let r = round_count.unwrap_or_else(|| rounds_for(seconds, PAPER_RATE, cases.len()));
    let ops = rounds(&mut rng, cases.len(), r);
    SolveWorkload { cases, ops }
}

/// `solve-wavefront`: n = 128 / 256 / 384 weighted 1:2:1 over the four
/// families, so p50 falls in the n=256 class and p90 in the n=384 class.
pub fn wavefront(seed: u64, round_count: Option<usize>, seconds: f64) -> SolveWorkload {
    let mut rng = Rng::new(seed, 2);
    let mut cases = Vec::new();
    for n in [128, 256, 256, 384] {
        for family in 0..FAMILIES.len() {
            cases.push(SolveCase {
                spec: instance(&mut rng, family, n),
                algo: Algorithm::Wavefront,
                class: format!("n{n}"),
            });
        }
    }
    let r = round_count.unwrap_or_else(|| rounds_for(seconds, WAVEFRONT_RATE, cases.len()));
    let ops = rounds(&mut rng, cases.len(), r);
    SolveWorkload { cases, ops }
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// Request class, fixed when the list is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Cold,
    Warm,
    Large,
    /// Sent right after a large job, so it queues behind the regime
    /// gate's write lock whatever its own kind.
    BehindLarge,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Hit,
        Class::Cold,
        Class::Warm,
        Class::Large,
        Class::BehindLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Cold => "cold",
            Class::Warm => "warm",
            Class::Large => "large",
            Class::BehindLarge => "behind_large",
        }
    }
}

/// What the solution cache must answer, by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Miss,
    Hit { first: usize },
    Warm { base: usize },
}

pub struct Request {
    pub line: String,
    pub spec: ProblemSpec,
    pub large: bool,
    pub outcome: Outcome,
    pub class: Class,
}

pub struct ServeList {
    /// The first `warmup` requests are the set-up pass (hot-set fill,
    /// cache fill, pool spawn); the rest are measured.
    pub warmup: usize,
    pub reqs: Vec<Request>,
}

impl ServeList {
    pub fn measured(&self) -> std::ops::Range<usize> {
        self.warmup..self.reqs.len()
    }
}

pub const SERVE_WARMUP: usize = 600;
pub const CACHE_CAPACITY: usize = 256;
const HOT_SET: usize = 16;
/// A key is repeated or extended only while at most this many cache
/// entries are more recent than it, so no interleaving of the two
/// requests in flight can have evicted it.
const SAFE_RANK: usize = 160;
const SHARE_LARGE: f64 = 0.015;
const SHARE_HIT: f64 = 0.25;
const SHARE_WARM: f64 = 0.09;

/// The LRU the daemon's `MemoryCache` implements, replayed in request
/// order to decide which repeats and extensions are safe.
struct Lru {
    tick: u64,
    stamps: HashMap<u64, u64>,
}

impl Lru {
    fn touch(&mut self, key: u64) {
        self.tick += 1;
        if let Some(s) = self.stamps.get_mut(&key) {
            *s = self.tick;
        }
    }

    fn put(&mut self, key: u64) {
        if !self.stamps.contains_key(&key) && self.stamps.len() >= CACHE_CAPACITY {
            let (&stale, _) = self
                .stamps
                .iter()
                .min_by_key(|(_, s)| **s)
                .expect("a full cache has entries");
            self.stamps.remove(&stale);
        }
        self.tick += 1;
        self.stamps.insert(key, self.tick);
    }

    /// Entries more recent than `key`, or `None` if it is not cached.
    fn rank(&self, key: u64) -> Option<usize> {
        let s = *self.stamps.get(&key)?;
        Some(self.stamps.values().filter(|&&t| t > s).count())
    }
}

fn line_of(spec: &ProblemSpec, algo: Option<&str>) -> String {
    let list = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let (values, q) = match spec {
        ProblemSpec::Chain { dims } => (dims, None),
        ProblemSpec::Obst { p, q } => (p, Some(q)),
        ProblemSpec::Polygon { weights } => (weights, None),
        ProblemSpec::Merge { lengths } => (lengths, None),
    };
    let mut s = format!(
        "{{\"family\":\"{}\",\"values\":[{}]",
        spec.family(),
        list(values)
    );
    if let Some(q) = q {
        s.push_str(&format!(",\"q\":[{}]", list(q)));
    }
    if let Some(a) = algo {
        s.push_str(&format!(",\"algo\":\"{a}\""));
    }
    s.push('}');
    s
}

/// The serve key of `spec` under the daemon's default job options.
pub fn serve_key(spec: &ProblemSpec, algo: Algorithm) -> u64 {
    let opts = pardp_core::serve::ServeConfig::default().options;
    ProblemKey::derive(spec, algo, &opts)
        .expect("default serve jobs are cacheable")
        .0
}

/// The fixed `serve-mixed` request list: `SERVE_WARMUP` set-up requests
/// then `measured` timed ones. Class shares: ~65% cold small jobs,
/// ~25% repeats of a 16-job hot set, ~9% 2-4-value extensions of recent
/// cold jobs, ~1.5% large wavefront jobs. Repeats and extensions target
/// only keys that finished at least two requests earlier and that the
/// 256-entry cache provably still holds, so hit / warm / miss counts are
/// exact for a seed.
pub fn serve(seed: u64, measured: usize) -> ServeList {
    let mut rng = Rng::new(seed, 3);
    let total = SERVE_WARMUP + measured;
    let mut reqs: Vec<Request> = Vec::with_capacity(total);
    let mut lru = Lru {
        tick: 0,
        stamps: HashMap::new(),
    };
    // Every cold instance gets a fresh size-2 prefix, so no two of them
    // share any prefix: the only warm starts are the planned extensions.
    let mut prefixes: HashSet<u64> = HashSet::new();
    let mut fresh = |rng: &mut Rng, n: usize, algo: Algorithm| loop {
        let family = rng.range(0, FAMILIES.len() - 1);
        let spec = instance(rng, family, n);
        let p2 = spec.prefix(2).expect("n > 2");
        if prefixes.insert(serve_key(&p2, algo)) {
            return spec;
        }
    };
    // (key, first, last request index) of the hot set, and the recent
    // cold jobs that may still be extended once.
    let mut hot: Vec<(u64, usize, usize)> = Vec::new();
    let mut bases: VecDeque<usize> = VecDeque::new();
    let eligible = |lru: &Lru, last: usize, j: usize, key: u64| {
        last + 2 <= j && lru.rank(key).is_some_and(|r| r < SAFE_RANK)
    };

    for j in 0..total {
        let prev_large = j > 0 && reqs[j - 1].large;
        let draw = rng.unit();
        let mut pick: Option<(ProblemSpec, Outcome, Class)> = None;
        if j >= HOT_SET && !prev_large && draw < SHARE_LARGE {
            let n = rng.range(130, 150);
            let spec = fresh(&mut rng, n, Algorithm::Wavefront);
            pick = Some((spec, Outcome::Miss, Class::Large));
        } else if j >= HOT_SET && draw < SHARE_LARGE + SHARE_HIT {
            // The least recently used eligible hot key: keeps the whole
            // hot set young in the cache.
            let chosen = hot
                .iter()
                .filter(|&&(key, _, last)| eligible(&lru, last, j, key))
                .min_by_key(|&&(key, _, _)| lru.stamps[&key]);
            if let Some(&(_, first, _)) = chosen {
                let spec = reqs[first].spec.clone();
                pick = Some((spec, Outcome::Hit { first }, Class::Hit));
            }
        } else if j >= HOT_SET && draw < SHARE_LARGE + SHARE_HIT + SHARE_WARM {
            let ok: Vec<usize> = bases
                .iter()
                .copied()
                .filter(|&b| {
                    let key = serve_key(&reqs[b].spec, Algorithm::Sublinear);
                    eligible(&lru, b, j, key)
                })
                .collect();
            if !ok.is_empty() {
                let base = ok[rng.range(0, ok.len() - 1)];
                bases.retain(|&b| b != base);
                let k = rng.range(2, 4);
                let spec = extend(&mut rng, &reqs[base].spec, k);
                pick = Some((spec, Outcome::Warm { base }, Class::Warm));
            }
        }
        let (spec, outcome, class) = pick.unwrap_or_else(|| {
            let n = rng.range(6, 16);
            let spec = fresh(&mut rng, n, Algorithm::Sublinear);
            (spec, Outcome::Miss, Class::Cold)
        });
        let large = class == Class::Large;
        let algo = if large {
            Algorithm::Wavefront
        } else {
            Algorithm::Sublinear
        };
        let key = serve_key(&spec, algo);
        // Replay the cache traffic of `CachedSolver::solve` in order.
        match outcome {
            Outcome::Hit { .. } => lru.touch(key),
            Outcome::Warm { base } => {
                lru.touch(serve_key(&reqs[base].spec, Algorithm::Sublinear));
                lru.put(key);
            }
            Outcome::Miss => lru.put(key),
        }
        if class == Class::Cold {
            if j < HOT_SET {
                hot.push((key, j, j));
            } else {
                bases.push_back(j);
                if bases.len() > 32 {
                    bases.pop_front();
                }
            }
        }
        if let Some(h) = hot.iter_mut().find(|h| h.0 == key) {
            h.2 = j;
        }
        let class = if prev_large {
            Class::BehindLarge
        } else {
            class
        };
        reqs.push(Request {
            line: line_of(&spec, large.then_some("wavefront")),
            spec,
            large,
            outcome,
            class,
        });
    }
    ServeList {
        warmup: SERVE_WARMUP,
        reqs,
    }
}

/// The options the daemon resolves a generated request to, with the
/// backend its regime uses.
pub fn serve_options(large: bool, workers: usize) -> SolveOptions {
    let base = pardp_core::serve::ServeConfig::default().options;
    if large {
        base.exec(base.exec.capped(workers))
    } else {
        base.exec(pardp_core::exec::ExecBackend::Sequential)
    }
}
