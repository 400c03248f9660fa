//! A production line: the ordered stages a carrier passes through.

use crate::error::FlowError;
use crate::part::{AttachInput, Part};
use crate::stage::{Attach, Process, Stage, Test};

/// Maximum nesting depth of subassembly lines.
pub(crate) const MAX_DEPTH: usize = 16;

/// An ordered production line.
///
/// A line starts with a carrier [`Part`] (the PCB or MCM substrate) and
/// proceeds through [`Stage`]s. Lines nest: an
/// [`Attach`] input may be another line whose shipped units are consumed
/// as parts (e.g. a pre-tested substrate subassembly).
///
/// Construct via [`Line::builder`].
///
/// # Examples
///
/// ```
/// use ipass_moe::{CostCategory, Line, Part, Process, StepCost};
/// use ipass_units::Money;
///
/// let line = Line::builder("demo", Part::new("pcb", CostCategory::Substrate))
///     .process(Process::new("print").with_cost(StepCost::fixed(Money::new(0.5))))
///     .build()?;
/// assert_eq!(line.name(), "demo");
/// assert_eq!(line.stages().len(), 1);
/// # Ok::<(), ipass_moe::FlowError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    name: String,
    carrier: Part,
    stages: Vec<Stage>,
}

impl Line {
    /// Start building a line around a carrier part.
    pub fn builder(name: impl Into<String>, carrier: Part) -> LineBuilder {
        LineBuilder {
            name: name.into(),
            carrier,
            stages: Vec::new(),
        }
    }

    /// The line's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The carrier entering the line.
    pub fn carrier(&self) -> &Part {
        &self.carrier
    }

    /// The stages after the carrier start, in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Validate the line (and nested lines) against structural rules.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when a line is empty, an attach stage has
    /// no inputs or a zero quantity, or nesting exceeds the depth limit.
    pub fn validate(&self) -> Result<(), FlowError> {
        self.validate_at_depth(0)
    }

    fn validate_at_depth(&self, depth: usize) -> Result<(), FlowError> {
        if depth >= MAX_DEPTH {
            return Err(FlowError::TooDeeplyNested { limit: MAX_DEPTH });
        }
        if self.stages.is_empty() {
            return Err(FlowError::EmptyLine {
                line: self.name.clone(),
            });
        }
        for stage in &self.stages {
            if let Stage::Attach(attach) = stage {
                if attach.inputs().is_empty() {
                    return Err(FlowError::AttachWithoutInputs {
                        stage: attach.name().to_owned(),
                    });
                }
                for (input, qty) in attach.inputs() {
                    if *qty == 0 {
                        return Err(FlowError::ZeroQuantityInput {
                            stage: attach.name().to_owned(),
                            input: input.name().to_owned(),
                        });
                    }
                    if let AttachInput::Line(sub) = input {
                        sub.validate_at_depth(depth + 1)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Render the line as a Fig. 4-style text diagram: numbered boxes
    /// with their kind, cost and yield, plus the implicit collector and
    /// scrap sinks.
    ///
    /// # Examples
    ///
    /// ```
    /// use ipass_moe::{CostCategory, Line, Part, Process, Test};
    ///
    /// let line = Line::builder("demo", Part::new("pcb", CostCategory::Substrate))
    ///     .process(Process::new("print"))
    ///     .test(Test::new("ft"))
    ///     .build()?;
    /// let diagram = line.render_diagram();
    /// assert!(diagram.contains("ID0") && diagram.contains("SCRAP"));
    /// # Ok::<(), ipass_moe::FlowError>(())
    /// ```
    pub fn render_diagram(&self) -> String {
        let mut out = String::new();
        let mut id = 0usize;
        let mut push = |out: &mut String, kind: &str, name: &str, detail: String| {
            out.push_str(&format!("  [ID{id:<2}] {kind:<9} {name:<34} {detail}\n"));
            id += 1;
        };
        push(
            &mut out,
            "Carrier",
            self.carrier.name(),
            format!(
                "cost {} yield {}",
                self.carrier.cost().total(),
                self.carrier.incoming_yield()
            ),
        );
        for stage in &self.stages {
            match stage {
                Stage::Process(p) => push(
                    &mut out,
                    "Process",
                    p.name(),
                    format!("cost {} yield {}", p.cost().total(), p.process_yield()),
                ),
                Stage::Attach(a) => {
                    let inputs: Vec<String> = a
                        .inputs()
                        .iter()
                        .map(|(input, qty)| format!("{}×{qty}", input.name()))
                        .collect();
                    push(
                        &mut out,
                        "Assembly",
                        a.name(),
                        format!(
                            "inputs [{}] cost {} yield {}",
                            inputs.join(", "),
                            a.cost().total(),
                            a.attach_yield()
                        ),
                    );
                }
                Stage::Test(t) => {
                    let fail = match t.fail_action() {
                        crate::stage::FailAction::Scrap => "fail→SCRAP".to_owned(),
                        crate::stage::FailAction::Rework(r) => {
                            format!("fail→rework(≤{})", r.max_attempts)
                        }
                    };
                    push(
                        &mut out,
                        "Test",
                        t.name(),
                        format!("cost {} coverage {} {fail}", t.cost().total(), t.coverage()),
                    );
                }
            }
        }
        push(
            &mut out,
            "Collector",
            "modules to be shipped",
            String::new(),
        );
        push(&mut out, "Sink", "SCRAP", String::new());
        out
    }
}

/// Builder for [`Line`] (see [`Line::builder`]).
#[derive(Debug, Clone)]
pub struct LineBuilder {
    name: String,
    carrier: Part,
    stages: Vec<Stage>,
}

impl LineBuilder {
    /// Append a process stage.
    pub fn process(mut self, p: Process) -> LineBuilder {
        self.stages.push(Stage::Process(p));
        self
    }

    /// Append an attach (assembly) stage.
    pub fn attach(mut self, a: Attach) -> LineBuilder {
        self.stages.push(Stage::Attach(a));
        self
    }

    /// Append a test stage.
    pub fn test(mut self, t: Test) -> LineBuilder {
        self.stages.push(Stage::Test(t));
        self
    }

    /// Finish and validate the line.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] if the line violates a structural rule
    /// (see [`Line::validate`]).
    pub fn build(self) -> Result<Line, FlowError> {
        let line = Line {
            name: self.name,
            carrier: self.carrier,
            stages: self.stages,
        };
        line.validate()?;
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostCategory;

    fn carrier() -> Part {
        Part::new("carrier", CostCategory::Substrate)
    }

    #[test]
    fn empty_line_rejected() {
        let err = Line::builder("empty", carrier()).build().unwrap_err();
        assert!(matches!(err, FlowError::EmptyLine { .. }));
    }

    #[test]
    fn attach_without_inputs_rejected() {
        let err = Line::builder("bad", carrier())
            .attach(Attach::new("lonely"))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::AttachWithoutInputs { .. }));
    }

    #[test]
    fn zero_quantity_rejected() {
        let err = Line::builder("bad", carrier())
            .attach(Attach::new("a").input(Part::new("p", CostCategory::Chip), 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::ZeroQuantityInput { .. }));
    }

    #[test]
    fn nested_lines_validate_recursively() {
        let bad_sub = Line {
            name: "sub".into(),
            carrier: carrier(),
            stages: vec![],
        };
        let err = Line::builder("outer", carrier())
            .attach(Attach::new("join").input(bad_sub, 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::EmptyLine { .. }));
    }

    #[test]
    fn depth_limit_enforced() {
        let mut inner = Line::builder("l0", carrier())
            .process(Process::new("p"))
            .build()
            .unwrap();
        for i in 1..=MAX_DEPTH {
            inner = Line {
                name: format!("l{i}"),
                carrier: carrier(),
                stages: vec![Stage::Attach(Attach::new("join").input(inner, 1))],
            };
        }
        assert!(matches!(
            inner.validate(),
            Err(FlowError::TooDeeplyNested { .. })
        ));
    }
}
