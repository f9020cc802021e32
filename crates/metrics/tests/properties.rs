//! Property-based tests for the metrics layer: the LCS modification
//! metric, workload accounting, and the fleet evolution model.

use harmonia_metrics::diff::reduction_factor;
use harmonia_metrics::fleet::FleetModel;
use harmonia_metrics::lcs_diff;
use harmonia_metrics::workload::{shell_role_split, ModuleWorkload, Origin};
use harmonia_testkit::prelude::*;

fn arb_script() -> impl Strategy<Value = Vec<u8>> {
    // A small alphabet makes common subsequences likely, exercising the
    // DP's match path as well as the mismatch path.
    collection::vec(0u8..6, 0..24)
}

/// A script length for the `lcs_diff` oracle: uniform over 0..=300, or
/// one either side of a 64-bit word boundary (63, 64, 65, 127, …, 257).
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=300,
        (0usize..=4, 0usize..=2).prop_map(|(words, d)| (64 * words + d).saturating_sub(1)),
    ]
}

/// Alphabet size for the oracle's scripts: from two symbols up to
/// effectively all-distinct.
fn arb_alphabet() -> impl Strategy<Value = u32> {
    prop_oneof![2u32..=4, 5u32..=64, 65u32..=4096, Just(u32::MAX)]
}

/// The two-row dynamic programme `lcs_diff` used before it went
/// bit-parallel: the oracle for the current implementation.
fn lcs_diff_dp<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let (n, m) = (a.len(), b.len());
    let mut prev = vec![0usize; m + 1];
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        for j in 1..=m {
            cur[j] = if a[i - 1] == b[j - 1] {
                prev[j - 1] + 1
            } else {
                prev[j].max(cur[j - 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let lcs = prev[m];
    (n - lcs) + (m - lcs)
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::Handcraft),
        Just(Origin::ScriptGenerated),
        Just(Origin::Reused),
    ]
}

fn arb_workload() -> impl Strategy<Value = ModuleWorkload> {
    collection::vec((0u64..20_000, arb_origin()), 0..12).prop_map(|comps| {
        let mut m = ModuleWorkload::new("arb");
        for (i, (loc, origin)) in comps.into_iter().enumerate() {
            m.add(format!("c{i}"), loc, origin);
        }
        m
    })
}

forall! {
    /// `lcs_diff` is a metric on scripts: zero exactly on identical
    /// inputs, symmetric, within the trivial bounds, and one for a single
    /// appended op.
    #[test]
    fn lcs_diff_is_a_metric(a in arb_script(), b in arb_script()) {
        prop_assert_eq!(lcs_diff(&a, &a), 0);
        let d = lcs_diff(&a, &b);
        prop_assert_eq!(d, lcs_diff(&b, &a));
        let (la, lb) = (a.len(), b.len());
        prop_assert!(d <= la + lb, "diff {d} exceeds total length");
        prop_assert!(d >= la.abs_diff(lb), "diff {d} below length gap");
        // Insertions + deletions always flip parity together with the
        // length difference.
        prop_assert_eq!(d % 2, la.abs_diff(lb) % 2);
        // Appending one op to a script changes the diff by exactly one.
        if let Some(&op) = b.first() {
            let mut longer = a.clone();
            longer.push(op);
            prop_assert_eq!(lcs_diff(&a, &longer), 1);
        }
    }

    /// The triangle inequality holds: migrating A→C never beats A→B→C.
    #[test]
    fn lcs_diff_triangle_inequality(
        a in arb_script(),
        b in arb_script(),
        c in arb_script(),
    ) {
        prop_assert!(lcs_diff(&a, &c) <= lcs_diff(&a, &b) + lcs_diff(&b, &c));
    }

    /// Appending a shared prefix to both scripts never changes the diff.
    #[test]
    fn lcs_diff_invariant_under_common_prefix(
        prefix in arb_script(),
        a in arb_script(),
        b in arb_script(),
    ) {
        let pa: Vec<u8> = prefix.iter().chain(&a).copied().collect();
        let pb: Vec<u8> = prefix.iter().chain(&b).copied().collect();
        prop_assert_eq!(lcs_diff(&pa, &pb), lcs_diff(&a, &b));
    }

    /// The bit-parallel `lcs_diff` agrees with the two-row DP on lengths
    /// either side of its word boundaries and on every alphabet size. An
    /// even `raw_b` draw copies `a`'s element at the same index, so long
    /// common runs (and carries across words) occur on large alphabets
    /// too.
    #[test]
    fn lcs_diff_matches_the_two_row_dp(
        (la, lb) in (arb_len(), arb_len()),
        symbols in arb_alphabet(),
        raw_a in collection::vec(any::<u32>(), 300),
        raw_b in collection::vec(any::<u32>(), 300),
    ) {
        let a: Vec<u32> = raw_a[..la].iter().map(|x| x % symbols).collect();
        let b: Vec<u32> = raw_b[..lb]
            .iter()
            .enumerate()
            .map(|(j, x)| match a.get(j) {
                Some(&same) if x % 2 == 0 => same,
                _ => x % symbols,
            })
            .collect();
        prop_assert_eq!(lcs_diff(&a, &b), lcs_diff_dp(&a, &b), "a {:?} b {:?}", a, b);
    }

    /// `reduction_factor` is defined exactly when `after > 0` and then
    /// satisfies `factor * after == before`.
    #[test]
    fn reduction_factor_definedness(before in 0usize..100_000, after in 0usize..1_000) {
        match reduction_factor(before, after) {
            None => prop_assert_eq!(after, 0),
            Some(f) => {
                prop_assert!(after > 0);
                prop_assert!((f * after as f64 - before as f64).abs() < 1e-6);
            }
        }
    }

    /// Workload accounting: the three origins partition the total, the
    /// paper's countable basis excludes generated code, and the reuse
    /// fraction is the reused share of that basis.
    #[test]
    fn workload_accounting_partitions(w in arb_workload()) {
        let by_origin = w.handcraft_loc() + w.reused_loc() + w.generated_loc();
        let total: u64 = w.components().iter().map(|c| c.loc).sum();
        prop_assert_eq!(by_origin, total);
        prop_assert_eq!(w.countable_loc(), w.handcraft_loc() + w.reused_loc());
        let reuse = w.reuse_fraction();
        prop_assert!((0.0..=1.0).contains(&reuse));
        if w.countable_loc() == 0 {
            prop_assert_eq!(reuse, 0.0);
        } else {
            prop_assert!((reuse * w.countable_loc() as f64 - w.reused_loc() as f64).abs() < 1e-6);
        }
    }

    /// Merging inventories adds every per-origin total.
    #[test]
    fn workload_merge_is_additive(a in arb_workload(), b in arb_workload()) {
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.countable_loc(), a.countable_loc() + b.countable_loc());
        prop_assert_eq!(merged.handcraft_loc(), a.handcraft_loc() + b.handcraft_loc());
        prop_assert_eq!(merged.reused_loc(), a.reused_loc() + b.reused_loc());
        prop_assert_eq!(merged.generated_loc(), a.generated_loc() + b.generated_loc());
    }

    /// The Figure 3a split is a probability pair ordered like the inputs.
    #[test]
    fn shell_role_split_is_normalized(shell in arb_workload(), role in arb_workload()) {
        let (s, r) = shell_role_split(&shell, &role);
        if shell.countable_loc() + role.countable_loc() == 0 {
            prop_assert_eq!((s, r), (0.0, 0.0));
        } else {
            prop_assert!((s + r - 1.0).abs() < 1e-9);
            prop_assert!(s >= 0.0 && r >= 0.0);
            prop_assert_eq!(
                s >= r,
                shell.countable_loc() >= role.countable_loc(),
                "split ordering disagrees with LoC ordering"
            );
        }
    }

    /// Fleet conservation: once the simulation window covers a full
    /// lifecycle, each year's total is exactly the sum of the still-alive
    /// yearly deployments; and new units never exceed the living total.
    #[test]
    fn fleet_totals_are_conserved(
        lifecycle in 1u32..6,
        intros in collection::vec((0u32..8, 1u32..5_000, 1u32..4), 1..8),
    ) {
        let start = 2020;
        let mut model = FleetModel::new(start, lifecycle);
        for &(offset, units, deploy_years) in &intros {
            model.introduce(start + offset, units, deploy_years);
        }
        let years = model.run(start + 12);
        for (i, y) in years.iter().enumerate() {
            prop_assert!(y.new_units <= y.total_units,
                "year {}: deployed {} but only {} alive", y.year, y.new_units, y.total_units);
            prop_assert!(y.live_models as usize <= intros.len());
            let window_start = i.saturating_sub(lifecycle as usize - 1);
            let window_sum: u64 = years[window_start..=i].iter().map(|w| w.new_units).sum();
            prop_assert_eq!(y.total_units, window_sum,
                "year {}: total diverges from alive-window sum", y.year);
        }
        // Every deployment window eventually closes: the final simulated
        // years (start + offsets + deploys + lifecycle all passed) are empty.
        let drained = model.run(start + 40);
        prop_assert_eq!(drained.last().unwrap().total_units, 0);
    }
}
