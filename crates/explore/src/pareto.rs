//! Multi-objective dominance and Pareto-frontier extraction.

use crate::error::ExploreError;
use std::cmp::Reverse;

/// The direction in which an objective improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Smaller is better (costs, losses, areas).
    Minimize,
    /// Larger is better (yields, scores, margins).
    Maximize,
}

impl Sense {
    /// Whether `a` is strictly better than `b` under this sense.
    #[inline]
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            Sense::Minimize => a < b,
            Sense::Maximize => a > b,
        }
    }
}

/// Whether objective vector `a` Pareto-dominates `b`: at least as good
/// in every objective and strictly better in at least one.
///
/// Equal vectors dominate in neither direction, so exact ties coexist
/// on a frontier instead of silently evicting each other.
///
/// # Panics
///
/// Panics when the three slices disagree in length (callers pass
/// vectors produced by the same exploration).
pub fn dominates(a: &[f64], b: &[f64], senses: &[Sense]) -> bool {
    assert_eq!(a.len(), senses.len(), "objective/sense arity mismatch");
    assert_eq!(b.len(), senses.len(), "objective/sense arity mismatch");
    let mut strictly = false;
    for ((&va, &vb), &sense) in a.iter().zip(b).zip(senses) {
        if sense.better(vb, va) {
            return false;
        }
        if sense.better(va, vb) {
            strictly = true;
        }
    }
    strictly
}

/// One evaluated point of a design space: where it sits (`coords`, one
/// value per axis) and how it scored (`objectives`, one value per
/// objective). `index` is the point's identity within its grid — the
/// same index always denotes the same coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Grid point index.
    pub index: usize,
    /// Coordinates, one per axis.
    pub coords: Vec<f64>,
    /// Objective values, one per objective.
    pub objectives: Vec<f64>,
}

/// The non-dominated subset of a set of [`DesignPoint`]s, kept sorted by
/// point index.
///
/// The frontier is a pure *set* function of its inputs: insertion order
/// never changes the final membership (pinned by property tests), which
/// is what lets the executor build per-chunk frontiers in parallel and
/// merge them without a determinism caveat.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFrontier {
    senses: Vec<Sense>,
    members: Vec<DesignPoint>,
}

impl ParetoFrontier {
    /// An empty frontier over the given objective senses.
    pub fn new(senses: Vec<Sense>) -> ParetoFrontier {
        ParetoFrontier {
            senses,
            members: Vec::new(),
        }
    }

    /// The frontier of a point set: every point no other point
    /// dominates, sorted by index.
    ///
    /// One sort and one sweep. The points are sorted by their objective
    /// values, negated where an objective is maximized, compared
    /// lexicographically. A point sorts after every point that dominates
    /// it, so the sweep tests each point only against the members found
    /// before it and never evicts one. The answer is the insertion
    /// fold's ([`ParetoFrontier::insert`] once per point), which a point
    /// with a NaN objective still takes: NaN makes dominance
    /// intransitive, and there the fold's answer depends on the order.
    pub fn extract(
        senses: Vec<Sense>,
        points: impl IntoIterator<Item = DesignPoint>,
    ) -> ParetoFrontier {
        let points: Vec<DesignPoint> = points.into_iter().collect();
        ParetoFrontier::of_points(senses, &points)
    }

    /// [`ParetoFrontier::extract`] over borrowed points, cloning only the
    /// members.
    pub(crate) fn of_points(senses: Vec<Sense>, points: &[DesignPoint]) -> ParetoFrontier {
        match sweep(&senses, points) {
            Some(at) => ParetoFrontier {
                members: at.into_iter().map(|i| points[i].clone()).collect(),
                senses,
            },
            None => {
                let mut frontier = ParetoFrontier::new(senses);
                for p in points {
                    frontier.insert(p.clone());
                }
                frontier
            }
        }
    }

    /// Offer one point: evicts members it dominates, joins unless a
    /// member dominates it. Returns whether the point joined.
    pub fn insert(&mut self, p: DesignPoint) -> bool {
        if self
            .members
            .iter()
            .any(|m| dominates(&m.objectives, &p.objectives, &self.senses))
        {
            return false;
        }
        self.members
            .retain(|m| !dominates(&p.objectives, &m.objectives, &self.senses));
        let at = self.members.partition_point(|m| m.index < p.index);
        self.members.insert(at, p);
        true
    }

    /// Merge another frontier of the same senses (the executor's chunk
    /// fold).
    pub fn merge(&mut self, other: ParetoFrontier) {
        debug_assert_eq!(self.senses, other.senses);
        for p in other.members {
            self.insert(p);
        }
    }

    /// The frontier members, sorted by point index.
    pub fn members(&self) -> &[DesignPoint] {
        &self.members
    }

    /// The member point indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        self.members.iter().map(|m| m.index).collect()
    }

    /// Compare against another frontier over the same objectives — the
    /// candidate-vs-candidate question ("which of A's trade-off points
    /// does B beat outright?").
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::SenseMismatch`] when the frontiers rank
    /// different objective spaces.
    pub fn diff(&self, other: &ParetoFrontier) -> Result<FrontierDiff, ExploreError> {
        if self.senses != other.senses {
            return Err(ExploreError::SenseMismatch);
        }
        let surviving = |ours: &[DesignPoint], theirs: &[DesignPoint]| {
            ours.iter()
                .filter(|m| {
                    !theirs
                        .iter()
                        .any(|t| dominates(&t.objectives, &m.objectives, &self.senses))
                })
                .map(|m| m.index)
                .collect()
        };
        Ok(FrontierDiff {
            left_total: self.members.len(),
            right_total: other.members.len(),
            left_surviving: surviving(&self.members, &other.members),
            right_surviving: surviving(&other.members, &self.members),
        })
    }
}

/// The positions of the frontier members of `points`, in the order the
/// insertion fold leaves them: by index, and among equal indices the
/// later input first. `None` when a point has a NaN objective or the
/// wrong arity, which the fold handles (or rejects) itself.
fn sweep(senses: &[Sense], points: &[DesignPoint]) -> Option<Vec<usize>> {
    let k = senses.len();
    // Every objective minimized, as an integer in IEEE order: negation
    // is exact, so `a > b` exactly when `-a < -b`, and dominance reads
    // the same on the keys.
    let mut keys = Vec::with_capacity(points.len() * k);
    for p in points {
        if p.objectives.len() != k || p.objectives.iter().any(|v| v.is_nan()) {
            return None;
        }
        keys.extend(p.objectives.iter().zip(senses).map(|(&v, s)| match s {
            Sense::Minimize => ordered(v),
            Sense::Maximize => ordered(-v),
        }));
    }
    let key = |i: usize| &keys[i * k..(i + 1) * k];
    // Lexicographic order, the first key held inline: a dominator is ≤
    // in every key and < in one, hence sorts strictly first.
    let mut order: Vec<(u64, usize)> = (0..points.len())
        .map(|i| (key(i).first().copied().unwrap_or(0), i))
        .collect();
    order.sort_unstable_by(|&(a0, a), &(b0, b)| a0.cmp(&b0).then_with(|| key(a).cmp(key(b))));
    let mut members: Vec<usize> = Vec::new();
    for (_, i) in order {
        // Newest members first: the closest in sort order is the likeliest
        // dominator.
        let p = key(i);
        if !members.iter().rev().any(|&m| keys_dominate(key(m), p)) {
            members.push(i);
        }
    }
    members.sort_unstable_by_key(|&i| (points[i].index, Reverse(i)));
    Some(members)
}

/// `v`'s place in IEEE order as an integer, with −0 and 0 one value (as
/// `<` has them): `a < b` exactly when `ordered(a) < ordered(b)`, for
/// every `a` and `b` but NaN.
fn ordered(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// [`dominates`] on [`ordered`] minimized keys.
fn keys_dominate(a: &[u64], b: &[u64]) -> bool {
    let mut strictly = false;
    for (&va, &vb) in a.iter().zip(b) {
        if vb < va {
            return false;
        }
        if va < vb {
            strictly = true;
        }
    }
    strictly
}

/// The outcome of [`ParetoFrontier::diff`]: which members of each
/// frontier remain non-dominated when the other frontier joins the
/// comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierDiff {
    /// Size of the left frontier.
    pub left_total: usize,
    /// Size of the right frontier.
    pub right_total: usize,
    /// Left members (by point index) no right member dominates.
    pub left_surviving: Vec<usize>,
    /// Right members (by point index) no left member dominates.
    pub right_surviving: Vec<usize>,
}

impl FrontierDiff {
    /// Whether the left frontier survives intact while dominating at
    /// least one right member — "strictly better somewhere, worse
    /// nowhere".
    pub fn left_strictly_better(&self) -> bool {
        self.left_surviving.len() == self.left_total
            && self.right_surviving.len() < self.right_total
    }

    /// Mirror of [`FrontierDiff::left_strictly_better`].
    pub fn right_strictly_better(&self) -> bool {
        self.right_surviving.len() == self.right_total
            && self.left_surviving.len() < self.left_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(index: usize, objectives: &[f64]) -> DesignPoint {
        DesignPoint {
            index,
            coords: vec![index as f64],
            objectives: objectives.to_vec(),
        }
    }

    const MIN2: [Sense; 2] = [Sense::Minimize, Sense::Minimize];

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0], &MIN2));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0], &MIN2));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0], &MIN2));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0], &MIN2));
        let mixed = [Sense::Minimize, Sense::Maximize];
        assert!(dominates(&[1.0, 9.0], &[2.0, 8.0], &mixed));
        assert!(!dominates(&[1.0, 7.0], &[2.0, 8.0], &mixed));
    }

    #[test]
    fn frontier_keeps_nondominated_and_ties() {
        let f = ParetoFrontier::extract(
            MIN2.to_vec(),
            vec![
                p(0, &[1.0, 4.0]),
                p(1, &[2.0, 2.0]),
                p(2, &[4.0, 1.0]),
                p(3, &[3.0, 3.0]), // dominated by 1
                p(4, &[2.0, 2.0]), // exact tie with 1 — both stay
            ],
        );
        assert_eq!(f.indices(), vec![0, 1, 2, 4]);
    }

    #[test]
    fn merge_equals_joint_extraction() {
        let all: Vec<DesignPoint> = (0..40)
            .map(|i| {
                let x = i as f64;
                p(i, &[x, (40.0 - x) * (1.0 + 0.1 * ((i % 3) as f64))])
            })
            .collect();
        let joint = ParetoFrontier::extract(MIN2.to_vec(), all.clone());
        let mut left = ParetoFrontier::extract(MIN2.to_vec(), all[..17].to_vec());
        let right = ParetoFrontier::extract(MIN2.to_vec(), all[17..].to_vec());
        left.merge(right);
        assert_eq!(left, joint);
    }

    #[test]
    fn diff_classifies_survivors() {
        let a = ParetoFrontier::extract(MIN2.to_vec(), vec![p(0, &[1.0, 4.0]), p(1, &[4.0, 1.0])]);
        let b = ParetoFrontier::extract(MIN2.to_vec(), vec![p(0, &[0.5, 4.0]), p(1, &[5.0, 2.0])]);
        let d = a.diff(&b).unwrap();
        // b's first point dominates a's first; a's second dominates b's
        // second.
        assert_eq!(d.left_surviving, vec![1]);
        assert_eq!(d.right_surviving, vec![0]);
        assert!(!d.left_strictly_better() && !d.right_strictly_better());

        let worse = ParetoFrontier::extract(MIN2.to_vec(), vec![p(0, &[2.0, 5.0])]);
        let d = a.diff(&worse).unwrap();
        assert!(d.left_strictly_better());
        assert!(worse.diff(&a).unwrap().right_strictly_better());

        let other_space =
            ParetoFrontier::new(vec![Sense::Minimize, Sense::Minimize, Sense::Minimize]);
        assert!(matches!(
            a.diff(&other_space),
            Err(ExploreError::SenseMismatch)
        ));
    }
}
