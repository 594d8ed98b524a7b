//! Serde round-trip property tests for the shared wire API
//! (`pardp_core::spec`): a [`JobSpec`] survives JSONL unchanged, a
//! [`ProblemSpec`] survives the wire, and [`JobRecord`]s round-trip with
//! a table hash that matches the sequential oracle.

use pardp_core::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every combination of family, optional override fields, and field
    // omission must come back from `to_string`/`from_str` unchanged —
    // including `None`s, which serialize as `null` and parse back as
    // absent-or-null. A "tile" key, the retired kernel choice, is
    // ignored like any unknown key.
    #[test]
    fn job_spec_round_trips_through_jsonl(
        family_ix in 0usize..4,
        values in proptest::collection::vec(1u64..100, 1..10),
        q_extra in 0u64..50,
        algo_ix in 0usize..8,   // past the registry end means "omit"
        band in 0usize..40,     // 0 means "omit"
        tile_ix in 0usize..4,   // 0 means "omit"
        trace_ix in 0usize..3,
    ) {
        let family = ["chain", "obst", "polygon", "merge"][family_ix];
        let q = (family == "obst").then(|| {
            let mut q: Vec<u64> = values.iter().map(|v| v % 7).collect();
            q.push(q_extra);
            q
        });
        let algo = Algorithm::ALL
            .get(algo_ix)
            .map(|a| a.name().to_string());
        let spec = JobSpec {
            family: family.into(),
            values,
            q,
            algo,
            band: (band > 0).then_some(band),
            trace: match trace_ix {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            },
        };
        let line = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(&back, &spec);
        let line = match ["", "\"auto\"", "\"naive\"", "16"][tile_ix] {
            "" => line,
            tile => format!("{},\"tile\":{tile}}}", line.strip_suffix('}').unwrap()),
        };
        // The front ends' reader skips the blank-line noise and reads
        // each line as the job (or the error) `resolve` makes of the spec.
        let text = format!("\n{line}\n\n{line}\n");
        let read: Vec<Request> = text
            .split('\n')
            .map(|l| read_request(l.as_bytes(), Algorithm::Sublinear, wire_options()))
            .filter(|r| *r != Request::Blank)
            .collect();
        let expect = Request::Job(spec.resolve(Algorithm::Sublinear, wire_options()));
        prop_assert_eq!(read, vec![expect.clone(), expect]);
    }

    // A validated instance pushed onto the wire and read back builds the
    // same instance.
    #[test]
    fn problem_spec_survives_the_wire(
        dims in proptest::collection::vec(1u64..50, 2..12),
        family_ix in 0usize..3,
    ) {
        let spec = match family_ix {
            0 => ProblemSpec::chain(dims).unwrap(),
            1 => ProblemSpec::merge(dims).unwrap(),
            _ => {
                let mut q = dims.clone();
                q.push(1);
                ProblemSpec::obst(dims, q).unwrap()
            }
        };
        let job = JobSpec::from(&spec);
        let line = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back.problem().unwrap(), spec);
    }

    // Result records round-trip (modulo the nondeterministic wall time),
    // and the table hash in the record is exactly the hash of the
    // sequential oracle's table.
    #[test]
    fn job_record_round_trips_and_hash_matches_the_oracle(
        dims in proptest::collection::vec(1u64..40, 2..10),
        traced in 0usize..2,
    ) {
        let spec = ProblemSpec::chain(dims).unwrap();
        let problem = spec.build();
        let solution = Solver::new(Algorithm::Sublinear)
            .options(SolveOptions::default().record_trace(traced == 1))
            .solve(&problem);
        let rec = JobRecord::of_solution(0, spec.family(), &solution, false);
        let line = serde_json::to_string(&rec).unwrap();
        let back: JobRecord = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back.deterministic(), rec.deterministic());
        prop_assert_eq!(rec.trace.is_some(), traced == 1);
        let seq = Solver::new(Algorithm::Sequential).solve(&problem);
        prop_assert_eq!(table_hash(&seq.w), rec.tables_hash);
    }
}
