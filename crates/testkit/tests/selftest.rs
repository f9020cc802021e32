//! The testkit testing itself: shrinking converges on minimal
//! counterexamples, seeded runs reproduce exactly, regression tapes
//! replay-then-persist, and the `DetRng` distributions are
//! bounds-correct.

use harmonia_testkit::prelude::*;
use harmonia_testkit::runner::{Config, Outcome, Runner};
use harmonia_testkit::source::DataSource;
use harmonia_testkit::DetRng;

fn quiet_config() -> Config {
    let mut c = Config::from_env();
    c.persist = false; // selftests must not write regression files
    c
}

/// Runs `test` over `strategy` with persistence off and returns the
/// failure, if any.
fn check<T, S, F>(name: &str, strategy: S, test: F) -> Outcome<T>
where
    T: Clone + std::fmt::Debug,
    S: Strategy<Value = T>,
    F: Fn(&T) -> Result<(), harmonia_testkit::runner::CaseError>,
{
    Runner::new(name)
        .with_config(quiet_config())
        .run(|src| strategy.generate(src), test)
}

#[test]
fn shrinking_converges_to_threshold_scalar() {
    // Property: x < 100. The minimal counterexample over 0..10_000 is
    // exactly 100; the tape shrinker must find it, not just something
    // smallish.
    let outcome = check("selftest_scalar", (0u64..10_000,), |&(x,)| {
        if x < 100 {
            Ok(())
        } else {
            Err(harmonia_testkit::runner::CaseError::fail("x too big"))
        }
    });
    match outcome {
        Outcome::Failed {
            minimal: (x,),
            shrink_steps,
            ..
        } => {
            assert_eq!(x, 100, "shrinker stopped early");
            assert!(shrink_steps > 0, "no shrinking happened");
        }
        Outcome::Passed { .. } => panic!("property must fail"),
    }
}

#[test]
fn shrinking_converges_to_minimal_vector() {
    // Property: every element < 500. Minimal counterexample: [500].
    let outcome = check(
        "selftest_vec",
        (collection::vec(0u32..1000, 0..50),),
        |(v,)| {
            if v.iter().all(|&x| x < 500) {
                Ok(())
            } else {
                Err(harmonia_testkit::runner::CaseError::fail("big element"))
            }
        },
    );
    match outcome {
        Outcome::Failed { minimal: (v,), .. } => {
            assert_eq!(v, vec![500], "minimal vector counterexample not found");
        }
        Outcome::Passed { .. } => panic!("property must fail"),
    }
}

#[test]
fn shrinking_handles_panicking_properties() {
    // Failures signalled by panic (not prop_assert) shrink the same way.
    let outcome = check("selftest_panic", (0u64..1_000,), |&(x,)| {
        assert!(x < 250, "boom at {x}");
        Ok(())
    });
    match outcome {
        Outcome::Failed {
            minimal: (x,),
            error,
            ..
        } => {
            assert_eq!(x, 250);
            assert!(error.contains("panic"), "panic not captured: {error}");
        }
        Outcome::Passed { .. } => panic!("property must fail"),
    }
}

#[test]
fn seeded_runs_reproduce_exactly() {
    let collect = |seed: u64| -> Vec<(u64, Vec<u32>)> {
        let mut cfg = quiet_config();
        cfg.seed = seed;
        cfg.cases = 32;
        let seen = std::cell::RefCell::new(Vec::new());
        let strategy = (any::<u64>(), collection::vec(0u32..77, 1..9));
        let outcome = Runner::new("selftest_repro").with_config(cfg).run(
            |src| strategy.generate(src),
            |case| {
                seen.borrow_mut().push(case.clone());
                Ok(())
            },
        );
        assert!(matches!(outcome, Outcome::Passed { .. }));
        seen.into_inner()
    };
    assert_eq!(collect(7), collect(7), "same seed must replay identically");
    assert_ne!(collect(7), collect(8), "different seeds must differ");
}

#[test]
fn failing_case_replays_from_its_tape() {
    // The reported tape regenerates the reported minimal value.
    let strategy = (50u64..500, 3u32..9, 50u64..500, 3u32..9);
    let outcome = check("selftest_tape", strategy, |&(wf, _, _, _)| {
        if wf < 200 {
            Ok(())
        } else {
            Err(harmonia_testkit::runner::CaseError::fail("wf"))
        }
    });
    let Outcome::Failed { minimal, tape, .. } = outcome else {
        panic!("property must fail");
    };
    let strategy = (50u64..500, 3u32..9, 50u64..500, 3u32..9);
    let mut src = DataSource::replay(tape);
    assert_eq!(strategy.generate(&mut src), minimal);
}

#[test]
fn ported_shell_regression_tape_decodes_to_documented_values() {
    // Guards the crates/shell/tests/regressions/cdc_lossless_predicate
    // port: the tape must regenerate the counterexample the retired
    // proptest file documented (wfreq 273, wbits_log 3, rfreq 50,
    // rbits_log 6), given the same strategy order as the shell test.
    let strategy = (50u64..500, 3u32..9, 50u64..500, 3u32..9);
    let mut src = DataSource::replay(vec![223, 0, 0, 3]);
    assert_eq!(strategy.generate(&mut src), (273, 3, 50, 6));
}

#[test]
fn regression_tapes_replay_before_generation() {
    // A runner pointed at a regression dir must fail on the stored tape
    // even when generation would never find the failure.
    let dir = std::env::temp_dir().join(format!("testkit-selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("selftest_replay.tape"),
        "# stored counterexample\ntape 123456\n",
    )
    .unwrap();
    let mut cfg = quiet_config();
    cfg.cases = 0; // no generation: only the regression tape can fail
    let outcome = Runner::new("selftest_replay")
        .with_config(cfg)
        .with_regressions_dir(&dir)
        .run(
            |src| (0u64..1_000_000).generate(src),
            |&v| {
                if v == 123_456 {
                    Err(harmonia_testkit::runner::CaseError::fail("stored"))
                } else {
                    Ok(())
                }
            },
        );
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(outcome, Outcome::Failed { minimal, .. } if minimal == 123_456),
        "stored regression did not replay"
    );
}

#[test]
fn failures_persist_minimal_tapes() {
    let dir = std::env::temp_dir().join(format!("testkit-persist-{}", std::process::id()));
    let mut cfg = quiet_config();
    cfg.persist = true;
    let outcome = Runner::new("selftest_persist")
        .with_config(cfg)
        .with_regressions_dir(&dir)
        .run(
            |src| (0u64..1_000).generate(src),
            |&v| {
                if v < 10 {
                    Ok(())
                } else {
                    Err(harmonia_testkit::runner::CaseError::fail("v"))
                }
            },
        );
    let Outcome::Failed {
        persisted_to: Some(path),
        ..
    } = outcome
    else {
        panic!("failure must persist a tape");
    };
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        harmonia_testkit::runner::parse_regressions(&text),
        vec![vec![10]],
        "persisted tape must be the minimal counterexample"
    );
}

// ---- DetRng distribution correctness ----------------------------------

forall! {
    /// Integer ranges (half-open and inclusive) stay in bounds for
    /// arbitrary windows.
    #[test]
    fn detrng_range_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..100 {
            let v = rng.gen_range(lo..lo + span);
            prop_assert!(v >= lo && v < lo + span, "{v} outside [{lo}, {})", lo + span);
            let w = rng.gen_range(lo..=lo + span);
            prop_assert!(w >= lo && w <= lo + span);
        }
    }

    /// Float ranges stay in `[lo, hi)`.
    #[test]
    fn detrng_f64_range_bounds(seed in any::<u64>(), lo_m in 0u32..1000, span_m in 1u32..1000) {
        let (lo, span) = (f64::from(lo_m) / 8.0, f64::from(span_m) / 8.0);
        let mut rng = DetRng::new(seed);
        for _ in 0..100 {
            let v = rng.gen_range(lo..lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }
    }

    /// Adjacent seeds give different streams — the generator is not
    /// degenerate.
    #[test]
    fn detrng_distinct_seeds_decorrelate(seed in 0u64..10_000) {
        let stream = |seed: u64| {
            let mut rng = DetRng::new(seed);
            (0..32).map(|_| rng.gen_range(0u32..32)).collect::<Vec<_>>()
        };
        prop_assert_ne!(stream(seed), stream(seed.wrapping_add(1)));
    }
}
