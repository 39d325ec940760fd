//! The workspace-wide error type of the scenario API.
//!
//! Every stage of the pipeline — spec construction, VI partitioning,
//! topology synthesis, JSON ingestion — fails through this one type, so
//! callers of [`crate::Scenario`] handle a single error surface instead
//! of five per-crate ones. Lower layers keep their own precise
//! error enums ([`SpecError`], [`PartitionError`], [`SynthesisError`],
//! [`JsonError`]); this type wraps them losslessly via `From`.

use std::fmt;
use vi_noc_core::json::JsonError;
use vi_noc_core::SynthesisError;
use vi_noc_soc::{PartitionError, SpecError};

/// Any failure of the scenario pipeline, from JSON ingestion to synthesis.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The SoC spec is structurally invalid.
    Spec(SpecError),
    /// The core→island assignment is invalid or unrealizable.
    Partition(PartitionError),
    /// Topology synthesis failed (invalid input or no feasible design).
    Synthesis(SynthesisError),
    /// The input is not well-formed JSON.
    Json(JsonError),
    /// The JSON is well-formed but does not describe a valid scenario or
    /// report (wrong type, missing member, unknown key, bad value).
    Scenario {
        /// Where in the document the problem sits (e.g. `sim.traffic`).
        context: String,
        /// What went wrong.
        msg: String,
    },
}

impl Error {
    /// Builds a schema-level error at `context`.
    pub fn scenario(context: impl Into<String>, msg: impl Into<String>) -> Self {
        Error::Scenario {
            context: context.into(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Spec(e) => write!(f, "invalid SoC spec: {e}"),
            Error::Partition(e) => write!(f, "invalid VI partition: {e}"),
            Error::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            Error::Json(e) => write!(f, "malformed JSON: {e}"),
            Error::Scenario { context, msg } => write!(f, "scenario {context}: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Spec(e) => Some(e),
            Error::Partition(e) => Some(e),
            Error::Synthesis(e) => Some(e),
            Error::Json(e) => Some(e),
            Error::Scenario { .. } => None,
        }
    }
}

impl From<SpecError> for Error {
    fn from(e: SpecError) -> Self {
        Error::Spec(e)
    }
}

impl From<PartitionError> for Error {
    fn from(e: PartitionError) -> Self {
        Error::Partition(e)
    }
}

impl From<SynthesisError> for Error {
    fn from(e: SynthesisError) -> Self {
        Error::Synthesis(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Error::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_stage_error_with_context() {
        let cases: Vec<(Error, &str)> = vec![
            (SpecError::SelfFlow { flow: 1 }.into(), "spec"),
            (
                PartitionError::EmptyIsland { island: 0 }.into(),
                "partition",
            ),
            (SynthesisError::InvalidSpec("x".into()).into(), "synthesis"),
            (
                JsonError {
                    at: 3,
                    msg: "boom".into(),
                }
                .into(),
                "JSON",
            ),
            (
                Error::scenario("sim.traffic", "unknown kind"),
                "sim.traffic",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn sources_chain_to_the_wrapped_error() {
        use std::error::Error as _;
        let e: Error = SpecError::SelfFlow { flow: 1 }.into();
        assert!(e.source().is_some());
        assert!(Error::scenario("x", "y").source().is_none());
    }
}
