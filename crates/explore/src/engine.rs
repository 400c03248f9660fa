//! The generic exploration engine: sample → evaluate → frontier.
//!
//! This layer knows nothing about production flows — an evaluation is
//! any `Fn(point index, coords) -> objective values`. The
//! production-flow binding in [`crate::flow`] builds on it; the RF and
//! passives crates drive it directly with their own domain evaluators.

use crate::error::ExploreError;
use crate::pareto::{DesignPoint, ParetoFrontier, Sense};
use crate::sample::SamplerSpec;
use crate::space::Axis;
use ipass_sim::Executor;

/// An evaluated design space: every sampled point with its objective
/// values, plus the extracted Pareto frontier.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Axis names, aligned with every point's `coords`.
    pub axes: Vec<String>,
    /// Objective names, aligned with every point's `objectives`.
    pub objectives: Vec<String>,
    /// Objective senses, aligned with `objectives`.
    pub senses: Vec<Sense>,
    /// All evaluated points; position equals `DesignPoint::index`.
    pub points: Vec<DesignPoint>,
    /// The non-dominated subset.
    pub frontier: ParetoFrontier,
}

impl Exploration {
    /// The exploration as a typed [`FrontierPlot`] artifact: every
    /// screened point with its frontier-membership flag, the senses
    /// mapped onto report directions.
    ///
    /// [`FrontierPlot`]: ipass_report::FrontierPlot
    pub fn frontier_plot(&self, title: impl Into<String>) -> ipass_report::FrontierPlot {
        let mut on_frontier = vec![false; self.points.len()];
        for index in self.frontier.indices() {
            on_frontier[index] = true;
        }
        ipass_report::FrontierPlot::new(
            title,
            self.axes.clone(),
            self.objectives.clone(),
            self.senses.iter().map(|s| direction(*s)).collect(),
            self.points
                .iter()
                .map(|p| ipass_report::FrontierPoint {
                    index: p.index,
                    coords: p.coords.clone(),
                    objectives: p.objectives.clone(),
                    on_frontier: on_frontier[p.index],
                    confirmed: None,
                })
                .collect(),
        )
    }

    /// Render the frontier as a table (axes, then objectives).
    pub fn render(&self) -> String {
        let mut out = format!(
            "frontier: {} of {} points\n",
            self.frontier.members().len(),
            self.points.len()
        );
        out.push_str(&format!("{:>6}", "point"));
        for name in self.axes.iter().chain(&self.objectives) {
            out.push_str(&format!(" {name:>18}"));
        }
        out.push('\n');
        for m in self.frontier.members() {
            out.push_str(&format!("{:>6}", m.index));
            for v in m.coords.iter().chain(&m.objectives) {
                out.push_str(&format!(" {v:>18.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Map a dominance sense onto a report direction.
pub(crate) fn direction(sense: Sense) -> ipass_report::Direction {
    match sense {
        Sense::Minimize => ipass_report::Direction::LowerIsBetter,
        Sense::Maximize => ipass_report::Direction::HigherIsBetter,
    }
}

/// Check one evaluation result against the exploration's objective
/// arity and NaN rules.
pub(crate) fn checked_objectives(
    point: usize,
    values: Vec<f64>,
    names: &[String],
) -> Result<Vec<f64>, ExploreError> {
    if values.len() != names.len() {
        return Err(ExploreError::ObjectiveCountMismatch {
            point,
            expected: names.len(),
            got: values.len(),
        });
    }
    if let Some(k) = values.iter().position(|v| v.is_nan()) {
        return Err(ExploreError::NanObjective {
            point,
            objective: names[k].clone(),
        });
    }
    Ok(values)
}

/// Explore a design space with an arbitrary evaluator: sample `axes`
/// per `sampler`, evaluate every point in parallel on `executor`
/// (results independent of the thread count), and extract the Pareto
/// frontier over `objectives`.
///
/// # Errors
///
/// Returns [`ExploreError`] when the space or objectives are degenerate
/// or any point fails to evaluate (first failure in point order).
pub fn explore_fn<F>(
    executor: &Executor,
    axes: &[Axis],
    sampler: &SamplerSpec,
    objectives: &[(String, Sense)],
    eval: F,
) -> Result<Exploration, ExploreError>
where
    F: Fn(usize, &[f64]) -> Result<Vec<f64>, ExploreError> + Sync,
{
    if objectives.is_empty() {
        return Err(ExploreError::NoObjectives);
    }
    let names: Vec<String> = objectives.iter().map(|(n, _)| n.clone()).collect();
    let senses: Vec<Sense> = objectives.iter().map(|&(_, s)| s).collect();
    let pts = sampler.points(axes)?;
    let indices: Vec<usize> = (0..pts.len()).collect();
    let points = executor.try_map(&indices, |_, &i| {
        let coords = pts.coords(i);
        let values = checked_objectives(i, eval(i, &coords)?, &names)?;
        Ok::<DesignPoint, ExploreError>(DesignPoint {
            index: i,
            coords,
            objectives: values,
        })
    })?;
    let frontier = ParetoFrontier::of_points(senses.clone(), &points);
    Ok(Exploration {
        axes: axes.iter().map(|a| a.name.clone()).collect(),
        objectives: names,
        senses,
        points,
        frontier,
    })
}

/// Like [`explore_fn`], but reduce straight to the frontier without
/// retaining the evaluated points — memory stays `O(frontier)` however
/// many points are sampled, which is what makes full grids in the
/// millions practical.
///
/// Runs on the executor's chunked map-reduce
/// ([`Executor::try_map_reduce`]): each chunk folds into a local
/// frontier, chunk frontiers merge in chunk order, and because frontier
/// membership is insertion-order invariant the result is identical for
/// any thread count and chunk geometry.
///
/// # Errors
///
/// See [`explore_fn`].
pub fn frontier_fn<F>(
    executor: &Executor,
    axes: &[Axis],
    sampler: &SamplerSpec,
    objectives: &[(String, Sense)],
    eval: F,
) -> Result<ParetoFrontier, ExploreError>
where
    F: Fn(usize, &[f64]) -> Result<Vec<f64>, ExploreError> + Sync,
{
    if objectives.is_empty() {
        return Err(ExploreError::NoObjectives);
    }
    let names: Vec<String> = objectives.iter().map(|(n, _)| n.clone()).collect();
    let senses: Vec<Sense> = objectives.iter().map(|&(_, s)| s).collect();
    let pts = sampler.points(axes)?;
    executor.try_map_reduce(
        pts.len() as u64,
        || ParetoFrontier::new(senses.clone()),
        |unit, acc| {
            let i = unit as usize;
            let coords = pts.coords(i);
            let values = checked_objectives(i, eval(i, &coords)?, &names)?;
            acc.insert(DesignPoint {
                index: i,
                coords,
                objectives: values,
            });
            Ok(())
        },
        |into, from| into.merge(from),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Levels;

    fn axes() -> Vec<Axis> {
        vec![
            Axis::new("x", Levels::linspace(0.0, 1.0, 16)),
            Axis::new("y", Levels::linspace(0.0, 1.0, 16)),
        ]
    }

    fn objectives() -> Vec<(String, Sense)> {
        vec![("f".into(), Sense::Minimize), ("g".into(), Sense::Minimize)]
    }

    /// Two competing smooth objectives: f grows with x+y, g shrinks.
    fn eval(_: usize, c: &[f64]) -> Result<Vec<f64>, ExploreError> {
        let s = c[0] + c[1];
        Ok(vec![s, 2.0 - s + 0.2 * (c[0] - c[1]).abs()])
    }

    #[test]
    fn explore_and_frontier_only_agree() {
        let exec = Executor::new(4);
        let full = explore_fn(&exec, &axes(), &SamplerSpec::Grid, &objectives(), eval).unwrap();
        assert_eq!(full.points.len(), 256);
        let reduced = frontier_fn(&exec, &axes(), &SamplerSpec::Grid, &objectives(), eval).unwrap();
        assert_eq!(full.frontier, reduced);
        assert!(!full.frontier.members().is_empty());
        assert!(full.render().contains("frontier"));
    }

    #[test]
    fn results_are_thread_invariant() {
        let one = explore_fn(
            &Executor::new(1),
            &axes(),
            &SamplerSpec::LatinHypercube {
                points: 100,
                seed: 5,
            },
            &objectives(),
            eval,
        )
        .unwrap();
        for threads in [2, 8] {
            let many = explore_fn(
                &Executor::new(threads),
                &axes(),
                &SamplerSpec::LatinHypercube {
                    points: 100,
                    seed: 5,
                },
                &objectives(),
                eval,
            )
            .unwrap();
            assert_eq!(one.points, many.points);
            assert_eq!(one.frontier, many.frontier);
        }
    }

    #[test]
    fn evaluator_misbehavior_is_typed() {
        let exec = Executor::serial();
        let err = explore_fn(&exec, &axes(), &SamplerSpec::Grid, &objectives(), |_, _| {
            Ok(vec![1.0])
        })
        .unwrap_err();
        assert!(matches!(
            err,
            ExploreError::ObjectiveCountMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        let err = explore_fn(&exec, &axes(), &SamplerSpec::Grid, &objectives(), |_, _| {
            Ok(vec![1.0, f64::NAN])
        })
        .unwrap_err();
        assert!(matches!(err, ExploreError::NanObjective { .. }));
        let err = explore_fn(&exec, &axes(), &SamplerSpec::Grid, &[], eval).unwrap_err();
        assert!(matches!(err, ExploreError::NoObjectives));
    }
}
