//! Golden pin of the iterative solvers' observable output.
//!
//! Every line of `golden_traces.txt` is one solve: a label naming the
//! instance and the knobs, then a digest of the solved table
//! ([`table_hash`]), the aggregate [`OpStats`], and the serialized
//! [`SolveTrace`] including its per-iteration records. The grid covers
//! every knob the §2, §5 and Rytter solvers read, on three problem
//! families at small sizes plus one larger uniform chain, cold through
//! [`Solver::solve`] and warm-started through the solution store.
//!
//! The fixture was generated once and must not change: any refactor of
//! the iteration schedule, the dirty-row scheduling or the stopping
//! rules has to reproduce it byte for byte. To inspect a divergence,
//! rewrite the fixture with
//! `cargo test -p pardp-core --test golden_traces -- --ignored` and
//! `git diff` it.

use pardp_core::prelude::*;
use pardp_core::spec::CanonicalHasher;

const FIXTURE: &str = include_str!("golden_traces.txt");
const FIXTURE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_traces.txt");

/// Deterministic payload values in `1..=40` (xorshift64), independent
/// of any RNG crate's algorithm.
fn payload(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % 40
        })
        .collect()
}

/// The instances: chain, polygon and merge at small sizes, plus a
/// uniform n = 49 chain (fast convergence, so the dirty-row scheduler
/// skips most of the fixed schedule). Shapes a family rejects (a
/// polygon needs n >= 2) are left out.
fn instances() -> Vec<(String, ProblemSpec)> {
    let mut out = Vec::new();
    for n in [1usize, 2, 3, 5, 9, 16, 25] {
        let seed = n as u64;
        let specs = [
            ProblemSpec::chain(payload(seed, n + 1)),
            ProblemSpec::polygon(payload(seed + 100, n + 1)),
            ProblemSpec::merge(payload(seed + 200, n)),
        ];
        for spec in specs.into_iter().flatten() {
            out.push((format!("{} n={n}", spec.family()), spec));
        }
    }
    out.push((
        "uniform-chain n=49".to_string(),
        ProblemSpec::chain(vec![3; 50]).unwrap(),
    ));
    out
}

/// Every knob combination the iterative solvers read, with its label.
/// The sublinear and Rytter labels name `square=auto`, the kernel the
/// engine always runs, so their fixture lines keep their text.
fn knob_grid() -> Vec<(String, Algorithm, SolveOptions)> {
    let base = SolveOptions::default().exec(ExecBackend::Sequential);
    let mut out = Vec::new();
    for skip in [true, false] {
        for (tname, term) in [
            ("fixed", Termination::FixedSqrtN),
            ("fixpoint", Termination::Fixpoint),
            ("wstable", Termination::WStableTwice),
        ] {
            out.push((
                format!("sublinear skip={} term={tname} square=auto", skip as u8),
                Algorithm::Sublinear,
                base.skip_clean_rows(skip).termination(term),
            ));
        }
    }
    for skip in [true, false] {
        for windowed in [true, false] {
            for band in [None, Some(3)] {
                let bname = band.map_or("paper".to_string(), |b| b.to_string());
                out.push((
                    format!(
                        "reduced skip={} windowed={} band={bname}",
                        skip as u8, windowed as u8
                    ),
                    Algorithm::Reduced,
                    base.skip_clean_rows(skip)
                        .windowed_pebble(windowed)
                        .band(band),
                ));
            }
        }
    }
    out.push(("rytter square=auto".to_string(), Algorithm::Rytter, base));
    out
}

/// Table hash, op statistics and serialized trace, folded into one
/// 16-hex-digit digest.
fn digest(sol: &Solution<u64>) -> String {
    let mut h = CanonicalHasher::new();
    h.write_str(&table_hash(&sol.w));
    h.write_u64(sol.stats.candidates);
    h.write_u64(sol.stats.writes);
    h.write_u64(sol.stats.changed as u64);
    h.write_str(&serde_json::to_string(&sol.trace).expect("trace serializes"));
    h.finish_hex()
}

/// The fixture as the current code computes it, one line per case.
fn generate() -> String {
    let mut lines = Vec::new();
    for (iname, spec) in instances() {
        let problem = spec.build();
        let n = spec.n();
        for (kname, algo, opts) in knob_grid() {
            // Cold, with per-iteration records.
            let cold = Solver::new(algo)
                .options(opts.record_trace(true))
                .solve(&problem);
            lines.push(format!("{iname} {kname} cold {}", digest(&cold)));
            if algo == Algorithm::Rytter || n >= 49 {
                continue; // Rytter has no seeded variant
            }
            // Warm starts from one cached prefix table each. The store
            // bypasses trace-recording jobs, so these runs keep only the
            // trace summary.
            let mut seeds = vec![2, n / 2, n.saturating_sub(1)];
            seeds.retain(|&m| m >= 2 && m < n);
            seeds.dedup();
            let solver = Solver::new(algo).options(opts);
            for m in seeds {
                let cache = MemoryCache::new(4);
                let prefix = spec.prefix(m).expect("strict prefix");
                let (_, seeded) = solver.with_cache(&cache).solve(&prefix);
                assert_eq!(seeded, CacheOutcome::Miss, "{iname} {kname} m={m}");
                let (warm, outcome) = solver.with_cache(&cache).solve(&spec);
                assert_eq!(
                    outcome,
                    CacheOutcome::Warm { seed_n: m },
                    "{iname} {kname} m={m}"
                );
                lines.push(format!("{iname} {kname} warm={m} {}", digest(&warm)));
            }
        }
    }
    lines.push(String::new());
    lines.join("\n")
}

#[test]
fn iterative_solvers_reproduce_the_golden_traces() {
    let got = generate();
    let (mut want_lines, mut got_lines) = (FIXTURE.lines(), got.lines());
    loop {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => break,
            (want, got) => assert_eq!(
                got, want,
                "first divergence from {FIXTURE_PATH} (rewrite it with \
                 `--ignored` to inspect the full diff)"
            ),
        }
    }
}

#[test]
#[ignore = "rewrites the committed fixture; run only to inspect a divergence"]
fn rewrite_golden_fixture() {
    std::fs::write(FIXTURE_PATH, generate()).expect("fixture is writable");
}
