//! Property tests for the Pareto machinery: dominance order axioms,
//! frontier minimality, insertion-order invariance, and the sorted
//! extraction against the insertion fold.

use ipass_explore::{dominates, DesignPoint, ParetoFrontier, Sense};
use proptest::prelude::*;

/// A small objective vector with values coarse enough that exact ties
/// actually occur (ties are where naive frontier code goes wrong).
fn objective_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..8).prop_map(|v| v as f64), 3..4)
}

fn senses() -> [Sense; 3] {
    [Sense::Minimize, Sense::Maximize, Sense::Minimize]
}

/// A deterministic Fisher–Yates shuffle.
fn shuffled(mut points: Vec<DesignPoint>, seed: u64) -> Vec<DesignPoint> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for k in (1..points.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        points.swap(k, (state % (k as u64 + 1)) as usize);
    }
    points
}

/// The insertion fold: one [`ParetoFrontier::insert`] per point, in
/// order.
fn fold(senses: &[Sense], points: &[DesignPoint]) -> ParetoFrontier {
    let mut frontier = ParetoFrontier::new(senses.to_vec());
    for p in points {
        frontier.insert(p.clone());
    }
    frontier
}

/// A frontier's members as indices and objective bits: `==` on `f64`
/// would equate −0 with 0 and refuse NaN.
fn bits(frontier: &ParetoFrontier) -> Vec<(usize, Vec<u64>)> {
    frontier
        .members()
        .iter()
        .map(|m| (m.index, m.objectives.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Objective values where a sort-based extraction can go wrong: exact
/// ties, −0 against 0, a subnormal, ±1e300 and ±∞.
fn edge_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u8..4).prop_map(f64::from),
        (0u8..4).prop_map(f64::from),
        -10.0f64..10.0,
        Just(-0.0),
        Just(0.0),
        Just(5e-324),
        Just(1e300),
        Just(-1e300),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// A cloud over the first `k` values of each row; objective `j` is
/// maximized where `maximize[j]`.
fn cloud(rows: &[(f64, f64, f64)], k: usize, maximize: &[bool]) -> (Vec<Sense>, Vec<DesignPoint>) {
    let senses = maximize[..k]
        .iter()
        .map(|&m| if m { Sense::Maximize } else { Sense::Minimize })
        .collect();
    let objectives = rows
        .iter()
        .map(|&(a, b, c)| vec![a, b, c][..k].to_vec())
        .collect();
    (senses, points(objectives))
}

fn points(objectives: Vec<Vec<f64>>) -> Vec<DesignPoint> {
    objectives
        .into_iter()
        .enumerate()
        .map(|(index, objectives)| DesignPoint {
            index,
            coords: vec![index as f64],
            objectives,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dominance_is_antisymmetric_and_irreflexive(
        a in objective_vec(),
        b in objective_vec(),
    ) {
        let s = senses();
        prop_assert!(!dominates(&a, &a, &s), "a point must never dominate itself");
        if dominates(&a, &b, &s) {
            prop_assert!(!dominates(&b, &a, &s), "dominance must be antisymmetric");
        }
    }

    #[test]
    fn dominance_is_transitive(
        a in objective_vec(),
        b in objective_vec(),
        c in objective_vec(),
    ) {
        let s = senses();
        if dominates(&a, &b, &s) && dominates(&b, &c, &s) {
            prop_assert!(dominates(&a, &c, &s), "dominance must be transitive");
        }
    }

    #[test]
    fn frontier_is_minimal_and_complete(
        objectives in proptest::collection::vec(objective_vec(), 1..40),
    ) {
        let all = points(objectives);
        let frontier = ParetoFrontier::extract(senses().to_vec(), all.clone());
        let s = senses();
        // Minimality: no input point dominates any member.
        for m in frontier.members() {
            for p in &all {
                prop_assert!(
                    !dominates(&p.objectives, &m.objectives, &s),
                    "member {} is dominated by input {}", m.index, p.index
                );
            }
        }
        // No member dominates another member (pairwise incomparable).
        for m in frontier.members() {
            for o in frontier.members() {
                prop_assert!(!dominates(&m.objectives, &o.objectives, &s));
            }
        }
        // Completeness: every non-member is dominated by some member.
        let member_ids: Vec<usize> = frontier.indices();
        for p in &all {
            if !member_ids.contains(&p.index) {
                prop_assert!(
                    frontier
                        .members()
                        .iter()
                        .any(|m| dominates(&m.objectives, &p.objectives, &s)),
                    "non-member {} is dominated by nobody", p.index
                );
            }
        }
    }

    #[test]
    fn frontier_is_insertion_order_invariant(
        objectives in proptest::collection::vec(objective_vec(), 1..40),
        rotation in 0usize..40,
        seed in 0u64..1_000,
    ) {
        let all = points(objectives);
        let baseline = ParetoFrontier::extract(senses().to_vec(), all.clone());

        // A rotation and a deterministic shuffle must both land on the
        // identical frontier (members are index-sorted, so whole-struct
        // equality is the set equality).
        let mut rotated = all.clone();
        rotated.rotate_left(rotation % all.len());
        prop_assert_eq!(
            &ParetoFrontier::extract(senses().to_vec(), rotated),
            &baseline
        );

        prop_assert_eq!(
            &ParetoFrontier::extract(senses().to_vec(), shuffled(all.clone(), seed)),
            &baseline
        );

        // Chunked merge (the executor's fold shape) agrees too.
        let cut = all.len() / 2;
        let mut left = ParetoFrontier::extract(senses().to_vec(), all[..cut].to_vec());
        left.merge(ParetoFrontier::extract(senses().to_vec(), all[cut..].to_vec()));
        prop_assert_eq!(&left, &baseline);
    }

    #[test]
    fn extract_equals_the_insertion_fold(
        rows in proptest::collection::vec((edge_value(), edge_value(), edge_value()), 1..48),
        k in 1usize..4,
        maximize in proptest::collection::vec(proptest::bool::ANY, 3..4),
        seed in 0u64..1_000,
    ) {
        let (senses, all) = cloud(&rows, k, &maximize);
        let frontier = bits(&ParetoFrontier::extract(senses.clone(), all.clone()));
        prop_assert_eq!(&frontier, &bits(&fold(&senses, &all)));
        // Shared indices keep the fold's member order too: by index, the
        // later input first.
        let shared: Vec<DesignPoint> = all
            .iter()
            .map(|p| DesignPoint { index: p.index / 3, ..p.clone() })
            .collect();
        prop_assert_eq!(
            bits(&ParetoFrontier::extract(senses.clone(), shared.clone())),
            bits(&fold(&senses, &shared))
        );
        // Without NaN the fold's answer is order-free, and so is the
        // sweep's.
        let shuffled = shuffled(all, seed);
        prop_assert_eq!(&frontier, &bits(&fold(&senses, &shuffled)));
        prop_assert_eq!(&frontier, &bits(&ParetoFrontier::extract(senses, shuffled)));
    }

    #[test]
    fn nan_clouds_take_the_insertion_fold(
        rows in proptest::collection::vec((edge_value(), edge_value(), edge_value()), 2..24),
        k in 1usize..4,
        maximize in proptest::collection::vec(proptest::bool::ANY, 3..4),
        at in 0usize..24,
    ) {
        let (senses, mut all) = cloud(&rows, k, &maximize);
        let at = at % all.len();
        all[at].objectives[at % k] = f64::NAN;
        prop_assert_eq!(
            bits(&ParetoFrontier::extract(senses.clone(), all.clone())),
            bits(&fold(&senses, &all))
        );
    }
}
