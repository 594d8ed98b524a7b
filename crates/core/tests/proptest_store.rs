//! Property tests of `pardp_core::store`: cache round-trips are
//! bit-identical to cold solves for every algorithm × backend, LRU
//! eviction never corrupts what stays cached, the persistent store
//! survives reopening bit-for-bit, a torn final record is detected and
//! skipped, warm starts are exact for every prefix-able family, and
//! batch dedup reuses nothing that a cold loop would not have produced.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use pardp_core::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const BACKENDS: [ExecBackend; 3] = [
    ExecBackend::Sequential,
    ExecBackend::Parallel,
    ExecBackend::Threads(3),
];

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique temp directory per call (proptest reruns cases, so a name
/// per test is not enough).
fn temp_store(tag: &str) -> PathBuf {
    let id = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "pardp-proptest-store-{tag}-{}-{id}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> SolveOptions {
    SolveOptions::default()
        .exec(ExecBackend::Sequential)
        .termination(Termination::Fixpoint)
}

/// Full bit-identity: value, table, trace (as canonical JSON), stats.
fn assert_identical(got: &Solution<u64>, want: &Solution<u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.algorithm, want.algorithm);
    prop_assert_eq!(got.value(), want.value());
    prop_assert!(got.w.table_eq(&want.w), "tables differ");
    prop_assert_eq!(
        serde_json::to_string(&got.trace).unwrap(),
        serde_json::to_string(&want.trace).unwrap()
    );
    prop_assert_eq!(got.stats, want.stats);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // A cache populated under one backend serves every backend
    // bit-identically (the key deliberately ignores exec), through both
    // the in-memory LRU and the persistent file store. Knuth bypasses
    // the solve-path cache, so its record round-trips directly.
    #[test]
    fn cache_hits_are_bit_identical_for_every_algorithm_and_backend(
        dims in proptest::collection::vec(1u64..50, 3..10)
    ) {
        let spec = ProblemSpec::chain(dims).unwrap();
        let dir = temp_store("roundtrip");
        let file = FileStore::open(&dir).unwrap();
        let mem = MemoryCache::new(16);
        let caches: [&dyn SolutionCache; 2] = [&mem, &file];

        for algo in Algorithm::ALL {
            let solver = Solver::new(algo).options(opts());
            let cold = solver.solve(&spec.build());
            for (c, cache) in caches.iter().enumerate() {
                if algo == Algorithm::Knuth {
                    // Bypassed on the solve path; the record layer must
                    // still round-trip it exactly.
                    let key = ProblemKey(0xdead_0000 + c as u64);
                    let rec = CachedSolution::of_solution(spec.family(), &cold);
                    cache.put(key, rec.clone()).unwrap();
                    prop_assert_eq!(cache.get(key).unwrap().unwrap(), rec);
                    let (sol, outcome) = solver.with_cache(*cache).solve(&spec);
                    prop_assert_eq!(outcome, CacheOutcome::Bypass);
                    assert_identical(&sol, &cold)?;
                    continue;
                }
                let (first, o1) = solver.with_cache(*cache).solve(&spec);
                prop_assert_eq!(o1, CacheOutcome::Miss, "{}", algo);
                assert_identical(&first, &cold)?;
                for exec in BACKENDS {
                    let exec_opts = opts().exec(exec);
                    let exec_solver = Solver::new(algo).options(exec_opts);
                    let cold_exec = exec_solver.solve(&spec.build());
                    let (hit, o2) = exec_solver.with_cache(*cache).solve(&spec);
                    prop_assert_eq!(o2, CacheOutcome::Hit, "{} on {}", algo, exec);
                    assert_identical(&hit, &cold_exec)?;
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // However small the LRU and however the working set cycles through
    // it, every solve — hit or re-miss after eviction — returns exactly
    // the cold solution of its own instance.
    #[test]
    fn lru_eviction_never_corrupts_later_hits(
        base in proptest::collection::vec(1u64..40, 10..16),
        capacity in 1usize..5,
        sweeps in 2usize..5,
    ) {
        let cache = MemoryCache::new(capacity);
        // Same-length, pairwise-distinct instances: no spec is a prefix
        // of another, so every lookup is a clean hit or a clean re-miss
        // (warm starts would otherwise blur the trace comparison).
        let specs: Vec<ProblemSpec> = (0..7u64)
            .map(|i| ProblemSpec::chain(base.iter().map(|v| v + i).collect()).unwrap())
            .collect();
        let solver = Solver::new(Algorithm::Sublinear).options(opts());
        let cold: Vec<Solution<u64>> = specs.iter().map(|s| solver.solve(&s.build())).collect();
        for _ in 0..sweeps {
            for (spec, want) in specs.iter().zip(&cold) {
                let (sol, _) = solver.with_cache(&cache).solve(spec);
                assert_identical(&sol, want)?;
            }
        }
        prop_assert!(cache.len() <= capacity);
    }

    // Reopening a persistent store returns every record bit-for-bit.
    #[test]
    fn file_store_reopen_returns_identical_records(
        base in proptest::collection::vec(1u64..40, 6..12)
    ) {
        let dir = temp_store("reopen");
        let specs: Vec<ProblemSpec> = (3..=base.len())
            .map(|l| ProblemSpec::chain(base[..l].to_vec()).unwrap())
            .collect();
        let mut stored: Vec<(ProblemKey, CachedSolution)> = Vec::new();
        {
            let store = FileStore::open(&dir).unwrap();
            let solver = Solver::new(Algorithm::Reduced).options(opts());
            for spec in &specs {
                let (_, outcome) = solver.with_cache(&store).solve(spec);
                // Prefixes of an already-solved chain are distinct
                // instances here, so each one misses or warm-starts.
                prop_assert!(outcome != CacheOutcome::Bypass);
                let key = ProblemKey::derive(spec, Algorithm::Reduced, &opts()).unwrap();
                stored.push((key, store.get(key).unwrap().unwrap()));
            }
        }
        let reopened = FileStore::open_existing(&dir).unwrap();
        prop_assert_eq!(reopened.skipped_bytes(), 0);
        prop_assert_eq!(reopened.len(), stored.len());
        for (key, rec) in &stored {
            prop_assert_eq!(&reopened.get(*key).unwrap().unwrap(), rec);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // Truncating the file anywhere inside the final record (a torn
    // append) loses exactly that record: earlier records stay
    // retrievable bit-for-bit and the tail is reported as skipped.
    #[test]
    fn torn_final_record_is_detected_and_skipped(
        dims in proptest::collection::vec(1u64..40, 4..9),
        cut in 1u64..4096,
    ) {
        let dir = temp_store("torn");
        let spec_a = ProblemSpec::chain(dims[..dims.len() - 1].to_vec()).unwrap();
        let spec_b = ProblemSpec::chain(dims).unwrap();
        let key_a = ProblemKey::derive(&spec_a, Algorithm::Sublinear, &opts()).unwrap();
        let key_b = ProblemKey::derive(&spec_b, Algorithm::Sublinear, &opts()).unwrap();
        let data = dir.join("store.dat");
        let solver = Solver::new(Algorithm::Sublinear).options(opts());
        let (first_end, rec_a) = {
            let store = FileStore::open(&dir).unwrap();
            solver.with_cache(&store).solve(&spec_a);
            let first_end = std::fs::metadata(&data).unwrap().len();
            solver.with_cache(&store).solve(&spec_b);
            (first_end, store.get(key_a).unwrap().unwrap())
        };
        // Tear strictly inside the second record's header + payload
        // bytes (reading its length field from the on-disk header) —
        // a cut that only clips the zero padding at the page tail
        // would, correctly, lose nothing.
        let record_len = {
            use std::io::{Read as _, Seek as _, SeekFrom};
            let mut f = std::fs::File::open(&data).unwrap();
            f.seek(SeekFrom::Start(first_end + 16)).unwrap();
            let mut b = [0u8; 8];
            f.read_exact(&mut b).unwrap();
            64 + u64::from_le_bytes(b)
        };
        let torn = first_end + 1 + (cut - 1) % (record_len - 1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&data)
            .unwrap()
            .set_len(torn)
            .unwrap();
        let reopened = FileStore::open_existing(&dir).unwrap();
        prop_assert_eq!(reopened.skipped_bytes(), torn - first_end);
        prop_assert_eq!(&reopened.get(key_a).unwrap().unwrap(), &rec_a);
        prop_assert_eq!(reopened.get(key_b), Ok(None));
        // The next insert overwrites the torn tail and round-trips.
        let (sol, outcome) = solver.with_cache(&reopened).solve(&spec_b);
        prop_assert!(outcome == CacheOutcome::Miss || matches!(outcome, CacheOutcome::Warm { .. }));
        let (hit, o2) = solver.with_cache(&reopened).solve(&spec_b);
        prop_assert_eq!(o2, CacheOutcome::Hit);
        assert_identical(&hit, &sol)?;
        std::fs::remove_dir_all(&dir).ok();
    }

    // Warm starts are exact for every prefix-able family and every
    // warm-capable algorithm: value and table always match the cold
    // solve bit-for-bit; the direct algorithms match on the full trace
    // and stats too (the iterative ones honestly report less work).
    #[test]
    fn warm_starts_are_exact_for_every_family(
        vals in proptest::collection::vec(1u64..40, 6..11)
    ) {
        let n = vals.len() - 1;
        let specs = [
            ProblemSpec::chain(vals.clone()).unwrap(),
            ProblemSpec::obst(vals[..n].to_vec(), vals.clone()).unwrap(),
            ProblemSpec::polygon(vals.clone()).unwrap(),
            ProblemSpec::merge(vals.clone()).unwrap(),
        ];
        let algos = [
            Algorithm::Sequential,
            Algorithm::Wavefront,
            Algorithm::Sublinear,
            Algorithm::Reduced,
        ];
        let cache = MemoryCache::new(64);
        for spec in &specs {
            let m = spec.n() - 2;
            let prefix = spec.prefix(m).unwrap();
            for algo in algos {
                let solver = Solver::new(algo).options(opts());
                let cold = solver.solve(&spec.build());
                let (_, o1) = solver.with_cache(&cache).solve(&prefix);
                prop_assert_eq!(o1, CacheOutcome::Miss, "{} {}", spec.family(), algo);
                let (warm, o2) = solver.with_cache(&cache).solve(spec);
                prop_assert_eq!(
                    o2,
                    CacheOutcome::Warm { seed_n: m },
                    "{} {}", spec.family(), algo
                );
                prop_assert_eq!(warm.value(), cold.value(), "{} {}", spec.family(), algo);
                prop_assert!(warm.w == cold.w, "{} {}", spec.family(), algo);
                if !algo.is_iterative() {
                    assert_identical(&warm, &cold)?;
                } else {
                    prop_assert!(warm.stats.candidates <= cold.stats.candidates);
                }
                // The warm result was inserted: the repeat is a full hit,
                // bit-identical to what the warm start produced.
                let (hit, o3) = solver.with_cache(&cache).solve(spec);
                prop_assert_eq!(o3, CacheOutcome::Hit);
                assert_identical(&hit, &warm)?;
            }
        }
    }

    // The direct solvers' warm starts run the tiled wavefront sweep over
    // the un-seeded pairs. Prefixes that end just before, on, and just
    // after a tile edge give full-table `==` with the cold solve on every
    // backend (the edge depends on the worker count).
    #[test]
    fn direct_warm_starts_are_exact_across_tile_edges(
        vals in proptest::collection::vec(1u64..40, 18..42)
    ) {
        let n = vals.len() - 1;
        let specs = [
            ProblemSpec::chain(vals.clone()).unwrap(),
            ProblemSpec::obst(vals[..n].to_vec(), vals.clone()).unwrap(),
        ];
        for exec in BACKENDS {
            let options = opts().exec(exec);
            let edge = pardp_core::wavefront::tile_edge(n, exec.effective_threads());
            let prefixes: Vec<usize> = [1, 2]
                .iter()
                .flat_map(|t| [t * edge - 1, t * edge, t * edge + 1])
                .filter(|&m| (2..n).contains(&m))
                .collect();
            for spec in &specs {
                for algo in [Algorithm::Sequential, Algorithm::Wavefront] {
                    let solver = Solver::new(algo).options(options);
                    let cold = solver.solve(&spec.build());
                    for &m in &prefixes {
                        let cache = MemoryCache::new(4);
                        solver.with_cache(&cache).solve(&spec.prefix(m).unwrap());
                        let (warm, outcome) = solver.with_cache(&cache).solve(spec);
                        prop_assert_eq!(outcome, CacheOutcome::Warm { seed_n: m });
                        prop_assert!(
                            warm.w == cold.w,
                            "{} {} {} m={}", spec.family(), algo, exec, m
                        );
                        assert_identical(&warm, &cold)?;
                    }
                }
            }
        }
    }

    // Batch dedup (with or without a cache attached) hands every
    // duplicate the exact solution a cold per-job loop would produce.
    #[test]
    fn batch_dedup_is_bit_identical_to_a_cold_loop(
        dims in proptest::collection::vec(1u64..40, 3..8),
        copies in 2usize..4,
    ) {
        let spec = ProblemSpec::chain(dims).unwrap();
        let mut jobs: Vec<Result<ResolvedJob, SpecError>> = Vec::new();
        for algo in Algorithm::ALL {
            for _ in 0..copies {
                jobs.push(Ok(ResolvedJob {
                    problem: spec.clone(),
                    algorithm: algo,
                    options: opts(),
                }));
            }
        }
        let solver = BatchSolver::new().exec(ExecBackend::Threads(2));
        for cache in [None, Some(MemoryCache::new(16))] {
            let report = solver.solve_lines(
                &jobs,
                cache.as_ref().map(|c| c as &dyn SolutionCache),
            );
            prop_assert_eq!(report.results.len(), jobs.len());
            // Knuth (bypass) is never deduped; the other five are.
            prop_assert_eq!(
                report.counts.deduped as usize,
                (Algorithm::ALL.len() - 1) * (copies - 1)
            );
            for r in &report.results {
                let job = jobs[r.job].as_ref().unwrap();
                let cold = Solver::new(job.algorithm)
                    .options(job.options)
                    .solve(&job.problem.build());
                assert_identical(&r.solution, &cold)?;
            }
        }
    }
}
