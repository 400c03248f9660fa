//! Typed diagnostics for the static verifier and lint pass.
//!
//! The `verify` module checks a compiled routing program against the
//! invariant catalog every engine trusts (see `DESIGN.md`); each
//! violation or smell becomes one [`Diagnostic`] — a severity, a stable
//! machine-readable code, the stage/part path it anchors to, and a
//! human explanation — collected into a [`Diagnostics`] report.
//!
//! Severities follow compiler convention:
//!
//! * [`Severity::Error`] — the program violates an invariant an engine
//!   relies on; evaluating it can produce silently wrong numbers.
//!   `ipass lint` always fails on errors.
//! * [`Severity::Warning`] — the model is structurally sound but almost
//!   certainly not what was meant (a test that can detect nothing, ops
//!   no unit can reach). `ipass lint --deny-warnings` fails on these.
//! * [`Severity::Info`] — an observation (a cost category the flow
//!   never books); never a failure.
//!
//! `ipass lint` prints each diagnostic's one-line `Display`; the docs
//! book's `lint` page builds its findings table from the same items.

use std::fmt;

/// How bad one [`Diagnostic`] is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// An observation; never a lint failure.
    Info,
    /// Structurally sound but almost certainly a modeling mistake;
    /// fails under `--deny-warnings`.
    Warning,
    /// An engine invariant is violated; always a lint failure.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the verifier or lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code in kebab case, e.g.
    /// `"threshold-mismatch"`.
    pub code: &'static str,
    /// Where it anchors: a stage/part path in the defect-label
    /// convention (`"chip assembly/RF chip"`), an `"op N"` position for
    /// ops without a named slot, or `"program"` for whole-program
    /// findings.
    pub path: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build one diagnostic.
    pub fn new(
        severity: Severity,
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.path, self.message
        )
    }
}

/// The verifier's report for one flow: every [`Diagnostic`] in
/// deterministic emission order (structural checks first, then lints,
/// each in op order).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    flow: String,
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty report for the named flow.
    pub fn new(flow: impl Into<String>) -> Diagnostics {
        Diagnostics {
            flow: flow.into(),
            items: Vec::new(),
        }
    }

    /// The flow the report describes.
    pub fn flow(&self) -> &str {
        &self.flow
    }

    /// Append one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// The diagnostics, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter()
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any [`Severity::Error`] diagnostic is present — the
    /// always-fail condition.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of diagnostics that fail a `--deny-warnings` gate
    /// (warnings + errors; infos never fail).
    pub fn deny_warnings_failures(&self) -> usize {
        self.count(Severity::Warning) + self.count(Severity::Error)
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.items {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Diagnostics {
        let mut d = Diagnostics::new("demo");
        d.push(Diagnostic::new(
            Severity::Error,
            "threshold-mismatch",
            "p",
            "stored threshold disagrees",
        ));
        d.push(Diagnostic::new(
            Severity::Warning,
            "zero-coverage-test",
            "ft",
            "test detects nothing",
        ));
        d.push(Diagnostic::new(
            Severity::Info,
            "cost-category-never-booked",
            "program",
            "no op books Chip",
        ));
        d
    }

    #[test]
    fn severities_order_like_compilers() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn counts_and_gates() {
        let d = report();
        assert_eq!(d.iter().count(), 3);
        assert_eq!(d.count(Severity::Warning), 1);
        assert!(d.has_errors());
        assert_eq!(d.deny_warnings_failures(), 2);
        assert!(!Diagnostics::new("x").has_errors());
    }

    #[test]
    fn display_is_one_line_per_diagnostic() {
        let text = report().to_string();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("error[threshold-mismatch] p: stored threshold disagrees"));
    }
}
