//! The property runner: regression replay, seeded case generation,
//! failure shrinking, and counterexample persistence.
//!
//! Determinism policy: the default base seed is **fixed** so that offline
//! CI runs are reproducible bit-for-bit. Set `TESTKIT_SEED` to explore a
//! different region of the input space and `TESTKIT_CASES` to change the
//! number of cases per property; a value that does not parse fails the
//! run.

use crate::shrink::shrink_tape;
use crate::source::DataSource;
use harmonia_sim::SplitMix64;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Default cases per property (`TESTKIT_CASES` overrides).
pub(crate) const DEFAULT_CASES: u32 = 64;

/// Default base seed (`TESTKIT_SEED` overrides). Spells "HARMONIA".
pub const DEFAULT_SEED: u64 = 0x4841_524D_4F4E_4941;

/// Default shrink evaluation budget.
pub const DEFAULT_SHRINK_BUDGET: usize = 4096;

/// A failed test case: the message explaining why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseError(pub String);

impl CaseError {
    /// Builds an error from any displayable reason.
    pub fn fail(msg: impl Into<String>) -> Self {
        CaseError(msg.into())
    }
}

/// What a property body returns per case.
pub type CaseResult = Result<(), CaseError>;

/// Runner configuration, resolved from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; per-case seeds derive from it.
    pub seed: u64,
    /// Max property evaluations spent shrinking one failure.
    pub shrink_budget: usize,
    /// Whether minimal counterexample tapes are appended to the
    /// regression file on failure.
    pub persist: bool,
}

impl Config {
    /// Reads `TESTKIT_CASES`, `TESTKIT_SEED` and `TESTKIT_PERSIST` from
    /// the environment; see [`Config::from_knobs`].
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when a knob is set to
    /// something that does not parse, so a typo fails the run instead of
    /// silently running the defaults.
    pub fn from_env() -> Self {
        Self::from_knobs(|key| std::env::var(key).ok()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configuration the knobs `get` returns describe: each of
    /// `TESTKIT_CASES`, `TESTKIT_SEED` and `TESTKIT_PERSIST` is an
    /// integer, and `TESTKIT_PERSIST=0` turns persistence off; an unset
    /// knob keeps its hermetic default.
    ///
    /// # Errors
    ///
    /// A message naming the knob and its value when a set knob does not
    /// parse.
    pub fn from_knobs(get: impl Fn(&str) -> Option<String>) -> Result<Config, String> {
        fn knob<T: std::str::FromStr>(
            get: &impl Fn(&str) -> Option<String>,
            key: &str,
            default: T,
            expected: &str,
        ) -> Result<T, String> {
            match get(key) {
                None => Ok(default),
                Some(v) => v
                    .trim()
                    .parse()
                    .map_err(|_| format!("{key}={v:?}: expected {expected}")),
            }
        }
        Ok(Config {
            cases: knob(&get, "TESTKIT_CASES", DEFAULT_CASES, "a case count")?,
            seed: knob(
                &get,
                "TESTKIT_SEED",
                DEFAULT_SEED,
                "an unsigned 64-bit seed",
            )?,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            persist: knob::<u8>(&get, "TESTKIT_PERSIST", 1, "0 (off) or 1 (on)")? != 0,
        })
    }
}

/// Result of running one property.
#[derive(Debug)]
pub enum Outcome<T> {
    /// Every case passed.
    Passed {
        /// Regression cases replayed plus generated cases.
        cases: u32,
    },
    /// A case failed; `minimal` reproduces it after shrinking.
    Failed {
        /// The shrunk counterexample.
        minimal: T,
        /// The draw tape that regenerates `minimal`.
        tape: Vec<u64>,
        /// Seed of the originally failing case (0 for regression replays).
        seed: u64,
        /// The failure message of the minimal case.
        error: String,
        /// Accepted shrink steps.
        shrink_steps: u32,
        /// Where the regression tape was persisted, if anywhere.
        persisted_to: Option<PathBuf>,
    },
}

/// Runs one property: regression tapes first, then seeded generation.
pub struct Runner {
    name: String,
    config: Config,
    regressions_dir: Option<PathBuf>,
}

impl Runner {
    /// A runner for the property `name` with environment config.
    pub fn new(name: impl Into<String>) -> Self {
        Runner {
            name: name.into(),
            config: Config::from_env(),
            regressions_dir: None,
        }
    }

    /// Overrides the configuration (used by selftests).
    pub fn with_config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Directory holding `<property>.tape` regression files. The
    /// [`forall!`](crate::forall) macro passes the consumer crate's
    /// `tests/regressions/`.
    pub fn with_regressions_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.regressions_dir = Some(dir.into());
        self
    }

    fn regression_file(&self) -> Option<PathBuf> {
        self.regressions_dir
            .as_ref()
            .map(|d| d.join(format!("{}.tape", self.name)))
    }

    /// Per-case seeds, derived from the base seed **by case index** (the
    /// i-th seed is the i-th output of the master stream), so a failing
    /// case reports the same seed and tape on every run.
    fn case_seeds(&self) -> Vec<u64> {
        let mut master = SplitMix64::new(self.config.seed);
        (0..self.config.cases).map(|_| master.next_u64()).collect()
    }

    /// Executes the property serially. `gen` builds a case from the draw
    /// stream; `test` checks it (panics are treated as failures and
    /// shrunk too).
    pub fn run<T, G, F>(&self, gen: G, test: F) -> Outcome<T>
    where
        T: Clone + Debug,
        G: Fn(&mut DataSource) -> T,
        F: Fn(&T) -> CaseResult,
    {
        // Phase 1: replay persisted counterexamples.
        if let Some((tape, err)) = self.replay_regressions(&gen, &test) {
            return self.shrunk_failure(tape, 0, err, &gen, eval_tape(&gen, &test));
        }

        // Phase 2: seeded generation, first failure wins.
        for case_seed in self.case_seeds() {
            let mut src = DataSource::live(case_seed);
            let value = gen(&mut src);
            if let Err(err) = run_case(&test, &value) {
                let tape = src.tape().to_vec();
                return self.shrunk_failure(tape, case_seed, err, &gen, eval_tape(&gen, &test));
            }
        }

        Outcome::Passed {
            cases: self.regression_count() + self.config.cases,
        }
    }

    /// Replays persisted counterexample tapes in file order; returns the
    /// first failing tape with its error.
    fn replay_regressions<T, G, F>(&self, gen: &G, test: &F) -> Option<(Vec<u64>, CaseError)>
    where
        T: Clone + Debug,
        G: Fn(&mut DataSource) -> T,
        F: Fn(&T) -> CaseResult,
    {
        for tape in self.load_regressions() {
            let mut src = DataSource::replay(tape.clone());
            let value = gen(&mut src);
            if let Err(err) = run_case(test, &value) {
                return Some((tape, err));
            }
        }
        None
    }

    fn regression_count(&self) -> u32 {
        self.load_regressions().len() as u32
    }

    fn shrunk_failure<T, G>(
        &self,
        tape: Vec<u64>,
        seed: u64,
        first_error: CaseError,
        gen: &G,
        eval_tape: impl FnMut(&[u64]) -> Option<String>,
    ) -> Outcome<T>
    where
        T: Clone + Debug,
        G: Fn(&mut DataSource) -> T,
    {
        let (min_tape, min_err, shrink_steps) =
            shrink_tape(tape, eval_tape, self.config.shrink_budget);
        let mut src = DataSource::replay(min_tape.clone());
        let minimal = gen(&mut src);
        let error = min_err.unwrap_or(first_error.0);
        let persisted_to = if self.config.persist {
            self.persist(&min_tape, &error)
        } else {
            None
        };
        Outcome::Failed {
            minimal,
            tape: min_tape,
            seed,
            error,
            shrink_steps,
            persisted_to,
        }
    }

    fn load_regressions(&self) -> Vec<Vec<u64>> {
        let Some(path) = self.regression_file() else {
            return Vec::new();
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Vec::new();
        };
        parse_regressions(&text)
    }

    fn persist(&self, tape: &[u64], error: &str) -> Option<PathBuf> {
        let path = self.regression_file()?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).ok()?;
        }
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        if parse_regressions(&existing).iter().any(|t| t == tape) {
            return Some(path); // already recorded
        }
        let mut text = existing;
        if text.is_empty() {
            text.push_str(
                "# harmonia-testkit regression tapes: draw sequences that once\n\
                 # produced a failing case. Replayed before fresh generation;\n\
                 # check this file in. Format: `tape <u64>...` per line.\n",
            );
        }
        text.push_str(&format_regression(tape, error));
        std::fs::write(&path, text).ok()?;
        Some(path)
    }
}

/// Parses a regression file: `tape <u64> <u64> ...` lines, `#` comments.
pub fn parse_regressions(text: &str) -> Vec<Vec<u64>> {
    text.lines()
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            let rest = line.strip_prefix("tape")?;
            rest.split_whitespace()
                .map(|w| w.parse().ok())
                .collect::<Option<Vec<u64>>>()
        })
        .collect()
}

/// Renders one regression line.
pub(crate) fn format_regression(tape: &[u64], error: &str) -> String {
    let draws: Vec<String> = tape.iter().map(u64::to_string).collect();
    let note = error
        .lines()
        .next()
        .unwrap_or("")
        .chars()
        .take(120)
        .collect::<String>();
    format!("tape {} # {}\n", draws.join(" "), note)
}

/// The shrinker's candidate evaluator: regenerate from a mutated tape and
/// re-test. A strategy panicking on a mutated tape is not a property
/// failure; the candidate is rejected.
fn eval_tape<'a, T, G, F>(gen: &'a G, test: &'a F) -> impl FnMut(&[u64]) -> Option<String> + 'a
where
    G: Fn(&mut DataSource) -> T,
    F: Fn(&T) -> CaseResult,
{
    move |tape: &[u64]| {
        let mut src = DataSource::replay(tape.to_vec());
        let value = match catch_unwind(AssertUnwindSafe(|| gen(&mut src))) {
            Ok(v) => v,
            Err(_) => return None,
        };
        run_case(test, &value).err().map(|e| e.0)
    }
}

fn run_case<T>(test: impl Fn(&T) -> CaseResult, value: &T) -> CaseResult {
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "test case panicked".to_string()
            };
            Err(CaseError::fail(format!("panic: {msg}")))
        }
    }
}

/// Panics with a readable report if `outcome` is a failure. Called by the
/// [`forall!`](crate::forall) macro after `Runner::run`.
pub fn report<T: Debug>(property: &str, outcome: Outcome<T>) {
    match outcome {
        Outcome::Passed { .. } => {}
        Outcome::Failed {
            minimal,
            tape,
            seed,
            error,
            shrink_steps,
            persisted_to,
        } => {
            let saved = match persisted_to {
                Some(p) => format!("regression saved to {}", p.display()),
                None => "regression persistence disabled".to_string(),
            };
            panic!(
                "property `{property}` failed.\n\
                 minimal case (after {shrink_steps} shrink steps): {minimal:#?}\n\
                 error: {error}\n\
                 original seed: {seed:#x}\n\
                 replay line: {}\
                 {saved}",
                format_regression(&tape, &error),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_format_round_trips() {
        let line = format_regression(&[223, 0, 0, 3], "wfreq too high");
        let parsed = parse_regressions(&line);
        assert_eq!(parsed, vec![vec![223, 0, 0, 3]]);
    }

    #[test]
    fn parser_skips_comments_and_garbage() {
        let text = "# header\n\ntape 1 2 3 # note\nnot a tape line\ntape 9\n";
        assert_eq!(parse_regressions(text), vec![vec![1, 2, 3], vec![9]]);
    }
}
