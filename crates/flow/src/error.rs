//! Typed flow errors.
//!
//! Every stage of the pipeline reports failure through [`FlowError`]
//! instead of panicking: input validation ([`FlowError::InvalidNetlist`],
//! [`FlowError::InvalidFrequency`], [`FlowError::InvalidSweep`]) and the
//! fallible substrate passes ([`FlowError::Legalize`],
//! [`FlowError::Extract`]). Stage ordering is not among them: each stage
//! takes its inputs as arguments, so none can run before what it reads
//! exists. Every entry point — the `try_*` free functions,
//! [`FlowSession`](crate::FlowSession) commands and the wire layer —
//! surfaces these errors instead of panicking.

use m3d_json::DecodeError;
use m3d_netlist::ValidateNetlistError;
use m3d_place::LegalizeError;
use m3d_route::ExtractError;
use std::fmt;

/// Everything that can go wrong while implementing a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The target frequency was zero, negative or non-finite.
    InvalidFrequency {
        /// The rejected target, GHz.
        frequency_ghz: f64,
    },
    /// The input netlist failed structural validation.
    InvalidNetlist(ValidateNetlistError),
    /// Legalization rejected its inputs.
    Legalize(LegalizeError),
    /// Parasitic extraction rejected its inputs.
    Extract(ExtractError),
    /// A `pareto` or `sweep` grid failed
    /// [`SweepSpec::validate`](crate::SweepSpec::validate): the
    /// validator's verdict — which member, and what was expected there.
    InvalidSweep(DecodeError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidFrequency { frequency_ghz } => {
                write!(
                    f,
                    "target frequency must be positive, got {frequency_ghz} GHz"
                )
            }
            FlowError::InvalidNetlist(e) => write!(f, "input netlist failed validation: {e}"),
            FlowError::Legalize(e) => write!(f, "legalization failed: {e}"),
            FlowError::Extract(e) => write!(f, "parasitic extraction failed: {e}"),
            FlowError::InvalidSweep(e) => write!(f, "invalid sweep grid: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::InvalidNetlist(e) => Some(e),
            FlowError::Legalize(e) => Some(e),
            FlowError::Extract(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateNetlistError> for FlowError {
    fn from(e: ValidateNetlistError) -> Self {
        FlowError::InvalidNetlist(e)
    }
}

impl From<LegalizeError> for FlowError {
    fn from(e: LegalizeError) -> Self {
        FlowError::Legalize(e)
    }
}

impl From<ExtractError> for FlowError {
    fn from(e: ExtractError) -> Self {
        FlowError::Extract(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_failure() {
        let e = FlowError::InvalidFrequency {
            frequency_ghz: -1.0,
        };
        assert!(e.to_string().contains("-1"));
        let e = FlowError::InvalidSweep(DecodeError::new("command/configs", "a non-empty list"));
        assert_eq!(
            e.to_string(),
            "invalid sweep grid: command/configs: expected a non-empty list"
        );
    }
}
