//! Errors reported when building or evaluating a production flow.

use std::error::Error;
use std::fmt;

/// Error building or evaluating a production flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The line has no stages besides the carrier start.
    EmptyLine {
        /// Name of the offending line.
        line: String,
    },
    /// An attach stage lists no inputs.
    AttachWithoutInputs {
        /// Name of the offending stage.
        stage: String,
    },
    /// An attach stage lists an input with quantity zero.
    ZeroQuantityInput {
        /// Name of the offending stage.
        stage: String,
        /// Name of the offending input.
        input: String,
    },
    /// Nested lines exceed the supported depth (guards against cycles
    /// introduced by programmatic construction).
    TooDeeplyNested {
        /// The depth limit that was exceeded.
        limit: usize,
    },
    /// The flow ships (essentially) nothing, so cost per shipped unit is
    /// undefined.
    NothingShipped {
        /// Name of the flow.
        flow: String,
    },
    /// A Monte Carlo run was requested with zero units.
    NoUnits,
    /// A Monte Carlo run was configured with a zero subassembly retry
    /// budget — every nested-line consumption would starve immediately,
    /// so the configuration is rejected up front instead of silently
    /// bumped.
    ZeroRetryBudget,
    /// A patch named a slot the compiled program does not expose (no
    /// such stage/part, or the parameter was compiled away — e.g. the
    /// yield of a step that was certain at compile time).
    UnknownPatchSlot {
        /// The requested `name (kind)` pair.
        slot: String,
    },
    /// A patch named a slot that matches more than one op (duplicate
    /// stage/part names are legal in a line); patching the first match
    /// silently would diverge from rebuilding the line, so the
    /// ambiguity is an error.
    AmbiguousPatchSlot {
        /// The requested `name (kind)` pair.
        slot: String,
    },
    /// A patch would have written a cost the verifier rejects (non-finite
    /// or negative); the write was refused and the patch is unchanged.
    InvalidPatchCost {
        /// The cost slot's name.
        slot: String,
        /// The refused amount, as the op would have booked it.
        value: f64,
    },
    /// The evaluated costs overflowed: the total spend, a category's
    /// spend or the final cost per shipped unit is not finite, even
    /// though every booked cost may be finite on its own (two costs
    /// near `f64::MAX` sum past it).
    NonFiniteCost {
        /// Name of the flow.
        flow: String,
    },
    /// A nested line never produced a passing unit within the retry
    /// budget of the Monte Carlo engine.
    SubassemblyStarved {
        /// Name of the starving nested line.
        line: String,
        /// Retry budget that was exhausted.
        attempts: u32,
    },
    /// Static verification ([`CompiledFlow::verify`]) found
    /// error-severity diagnostics, so the requested operation refused to
    /// trust the program.
    ///
    /// [`CompiledFlow::verify`]: crate::CompiledFlow::verify
    VerificationFailed {
        /// Name of the flow.
        flow: String,
        /// Number of error-severity diagnostics.
        errors: usize,
        /// The first error diagnostic, rendered.
        first: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::EmptyLine { line } => {
                write!(f, "production line {line:?} has no stages")
            }
            FlowError::AttachWithoutInputs { stage } => {
                write!(f, "attach stage {stage:?} has no inputs")
            }
            FlowError::ZeroQuantityInput { stage, input } => {
                write!(
                    f,
                    "attach stage {stage:?} lists input {input:?} with quantity zero"
                )
            }
            FlowError::TooDeeplyNested { limit } => {
                write!(f, "nested subassembly lines exceed depth limit {limit}")
            }
            FlowError::NothingShipped { flow } => {
                write!(f, "flow {flow:?} ships no units; cost per unit undefined")
            }
            FlowError::NoUnits => write!(f, "monte carlo run requested with zero units"),
            FlowError::ZeroRetryBudget => write!(
                f,
                "subassembly retry budget is zero; every nested line would starve"
            ),
            FlowError::UnknownPatchSlot { slot } => {
                write!(f, "compiled program has no patchable slot {slot:?}")
            }
            FlowError::AmbiguousPatchSlot { slot } => {
                write!(
                    f,
                    "patch slot {slot:?} matches more than one stage/part; \
                     rename the duplicates to patch them"
                )
            }
            FlowError::InvalidPatchCost { slot, value } => {
                write!(
                    f,
                    "patch refused cost {value} on slot {slot:?}; \
                     costs must be finite and non-negative"
                )
            }
            FlowError::NonFiniteCost { flow } => {
                write!(
                    f,
                    "flow {flow:?} overflows: its total spend or final cost per shipped \
                     unit is not finite"
                )
            }
            FlowError::SubassemblyStarved { line, attempts } => {
                write!(
                    f,
                    "nested line {line:?} produced no passing unit in {attempts} attempts"
                )
            }
            FlowError::VerificationFailed {
                flow,
                errors,
                first,
            } => {
                write!(
                    f,
                    "flow {flow:?} failed static verification with {errors} error(s); \
                     first: {first}"
                )
            }
        }
    }
}

impl Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = FlowError::EmptyLine {
            line: "sol2".into(),
        };
        assert!(e.to_string().contains("sol2"));
        let e = FlowError::ZeroQuantityInput {
            stage: "smd".into(),
            input: "kit".into(),
        };
        assert!(e.to_string().contains("smd") && e.to_string().contains("kit"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowError>();
    }
}
