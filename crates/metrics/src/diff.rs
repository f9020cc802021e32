//! Generic modification counting between operation sequences.
//!
//! Figure 13 counts "software modifications" when migrating between
//! devices: each line of a control script that must be added or removed is
//! one modification. [`lcs_diff`] computes that count for any hashable
//! item type via a longest-common-subsequence alignment.
//!
//! The LCS length comes from the bit-parallel recurrence of Allison and
//! Dix (1986), in the form Hyyrö (2004) analyses. The elements of `a` are
//! interned into small ids, and each id owns a match mask: bit `i` is set
//! where `a[i]` is that element. One bit vector `V` over the positions of
//! `a` starts all ones, and each element of `b` updates it with one
//! multi-word add-with-carry, `V' = (V + (V & M)) | (V & !M)`, where `M` is
//! the element's mask (an element that never occurs in `a` has an empty
//! mask and leaves `V` unchanged, so it is skipped). After the last step
//! the LCS length is the number of zero bits among the low `n` bits of `V`.
//! For `n = a.len()` and `m = b.len()` that costs O(⌈n/64⌉·m) word
//! operations plus O(n + m) hashing, against the O(n·m) of the textbook
//! dynamic programme; the elements need `Eq + Hash` for the interning.

use std::collections::HashMap;
use std::hash::Hash;

/// Number of insertions plus deletions needed to turn `a` into `b` under an
/// LCS alignment (a replaced line counts as one deletion + one insertion,
/// matching how a code review diff displays it).
///
/// ```
/// use harmonia_metrics::lcs_diff;
/// assert_eq!(lcs_diff(&[1, 2, 3], &[1, 9, 3]), 2);
/// assert_eq!(lcs_diff::<u8>(&[], &[]), 0);
/// ```
pub fn lcs_diff<T: Eq + Hash>(a: &[T], b: &[T]) -> usize {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return n + m;
    }
    let words = n.div_ceil(64);
    // Match masks of the interned elements, `words` words per id.
    let mut ids: HashMap<&T, usize> = HashMap::with_capacity(n);
    let mut masks: Vec<u64> = Vec::new();
    for (i, x) in a.iter().enumerate() {
        let next = ids.len();
        let id = *ids.entry(x).or_insert(next);
        if id == next {
            masks.resize(masks.len() + words, 0);
        }
        masks[id * words + i / 64] |= 1 << (i % 64);
    }
    // Padding bits above `n` start set and stay set: their mask bits are
    // clear, so `V & !M` keeps them whatever carry reaches them.
    let mut v = vec![u64::MAX; words];
    for y in b {
        let Some(&id) = ids.get(y) else { continue };
        let mask = &masks[id * words..(id + 1) * words];
        let mut carry = false;
        for (vw, &mw) in v.iter_mut().zip(mask) {
            let (sum, c1) = vw.overflowing_add(*vw & mw);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            *vw = sum | (*vw & !mw);
        }
    }
    let lcs = v.iter().map(|w| w.count_zeros() as usize).sum::<usize>();
    (n - lcs) + (m - lcs)
}

/// Relative reduction factor between two modification counts; `None` when
/// the denominator is zero.
pub fn reduction_factor(before: usize, after: usize) -> Option<f64> {
    if after == 0 {
        None
    } else {
        Some(before as f64 / after as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_need_no_edits() {
        let s = vec!["a", "b", "c"];
        assert_eq!(lcs_diff(&s, &s), 0);
    }

    #[test]
    fn disjoint_sequences_cost_everything() {
        assert_eq!(lcs_diff(&[1, 2], &[3, 4, 5]), 5);
    }

    #[test]
    fn insertion_only() {
        assert_eq!(lcs_diff(&[1, 3], &[1, 2, 3]), 1);
    }

    #[test]
    fn deletion_only() {
        assert_eq!(lcs_diff(&[1, 2, 3], &[1, 3]), 1);
    }

    #[test]
    fn symmetric() {
        let a = [1, 5, 2, 6, 3];
        let b = [5, 1, 6, 2, 3];
        assert_eq!(lcs_diff(&a, &b), lcs_diff(&b, &a));
    }

    #[test]
    fn empty_edge_cases() {
        assert_eq!(lcs_diff::<u8>(&[], &[1, 2]), 2);
        assert_eq!(lcs_diff::<u8>(&[1], &[]), 1);
    }

    #[test]
    fn reduction_factor_math() {
        assert_eq!(reduction_factor(100, 4), Some(25.0));
        assert_eq!(reduction_factor(100, 0), None);
    }
}
