//! Tape shrinking: reduce a failing draw tape to a (locally) minimal one.
//!
//! Because every strategy is a deterministic function of the tape, the
//! shrinker never inspects values. It alternates three passes until a
//! fixpoint (or the evaluation budget runs out):
//!
//! 1. **Block deletion** — remove spans of draws; shorter tapes replay as
//!    smaller collections and zeroed suffixes.
//! 2. **Zeroing** — set single draws to 0, the minimum of every mapping.
//! 3. **Binary minimization** — per draw, binary-search the smallest
//!    replacement that still fails. Range strategies map draws monotonely
//!    below their span, so this converges on the smallest failing value.
//!
//! A candidate is accepted only if the property still fails on it, so the
//! result always reproduces the original failure mode's observable: a
//! failing case.

/// Outcome of evaluating one candidate tape.
pub type CandidateFailure = Option<String>;

/// Shrinks `tape` against `eval`, which returns `Some(error)` while the
/// property still fails. Returns the minimal tape, its error, and the
/// number of accepted shrink steps.
pub(crate) fn shrink_tape(
    tape: Vec<u64>,
    mut eval: impl FnMut(&[u64]) -> CandidateFailure,
    mut budget: usize,
) -> (Vec<u64>, Option<String>, u32) {
    let mut cur = tape;
    let mut cur_err = None;
    let mut steps = 0u32;
    loop {
        let mut improved = false;

        // Pass 1: block deletion, large blocks first.
        let mut block = (cur.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i + block <= cur.len() && budget > 0 {
                budget -= 1;
                let mut cand = cur.clone();
                cand.drain(i..i + block);
                if let Some(err) = eval(&cand) {
                    cur = cand;
                    cur_err = Some(err);
                    steps += 1;
                    improved = true;
                } else {
                    i += 1;
                }
            }
            if block == 1 {
                break;
            }
            block = (block / 2).max(1);
        }

        // Pass 2 + 3: zero, then binary-minimize each remaining draw.
        for i in 0..cur.len() {
            if budget == 0 {
                break;
            }
            if cur[i] == 0 {
                continue;
            }
            let mut cand = cur.clone();
            cand[i] = 0;
            budget -= 1;
            if let Some(err) = eval(&cand) {
                cur = cand;
                cur_err = Some(err);
                steps += 1;
                improved = true;
                continue;
            }
            // 0 passes, cur[i] fails: bisect the smallest failing value.
            let (mut lo, mut hi) = (0u64, cur[i]);
            while hi - lo > 1 && budget > 0 {
                let mid = lo + (hi - lo) / 2;
                cand[i] = mid;
                budget -= 1;
                if let Some(err) = eval(&cand) {
                    hi = mid;
                    cur_err = Some(err);
                } else {
                    lo = mid;
                }
            }
            if hi < cur[i] {
                cur[i] = hi;
                steps += 1;
                improved = true;
            }
        }

        if !improved || budget == 0 {
            return (cur, cur_err, steps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deletes_irrelevant_draws() {
        // Fails iff any draw equals 7; everything else is noise.
        let tape = vec![3, 9, 7, 12, 4];
        let (min, _, _) = shrink_tape(
            tape,
            |t| t.contains(&7).then(|| "has 7".to_string()),
            10_000,
        );
        assert_eq!(min, vec![7]);
    }

    #[test]
    fn bisects_to_threshold() {
        // Fails while the first draw is >= 100.
        let (min, _, _) = shrink_tape(
            vec![982_451_653],
            |t| (t.first().copied().unwrap_or(0) >= 100).then(|| "big".to_string()),
            10_000,
        );
        assert_eq!(min, vec![100]);
    }

    #[test]
    fn respects_budget() {
        let mut evals = 0u32;
        let _ = shrink_tape(
            vec![5; 64],
            |_| {
                evals += 1;
                Some("always fails".to_string())
            },
            50,
        );
        assert!(evals <= 50);
    }
}
