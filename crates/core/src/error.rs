//! Errors of the IP delivery layer.

use std::fmt;

use crate::capability::Capability;

/// Errors raised by applet sessions, hosts, licensing and protection.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The executable's capability set does not grant the operation —
    /// the vendor chose not to expose it to this customer.
    CapabilityDenied {
        /// The capability the operation requires.
        capability: Capability,
    },
    /// A license failed signature verification.
    LicenseInvalid {
        /// Why verification failed.
        reason: String,
    },
    /// A sealed payload's container version is not one this build
    /// can open (a newer or corrupted container).
    SealVersion {
        /// The version byte found.
        version: u8,
    },
    /// A license is past its expiry day.
    LicenseExpired {
        /// Expiry day (days since epoch).
        expiry_day: u32,
        /// The day verification ran.
        today: u32,
    },
    /// The applet host's resource sandbox rejected the operation.
    ResourceLimit {
        /// Which limit was hit.
        limit: &'static str,
        /// The configured maximum.
        max: u64,
        /// The requested amount.
        requested: u64,
    },
    /// A network connection was attempted without user permission
    /// (the applet security model of the paper's §4.2 footnote).
    NetworkDenied,
    /// No circuit has been built yet in this session.
    NotBuilt,
    /// The requested customer profile is unknown to the vendor server.
    UnknownCustomer {
        /// The customer id.
        customer: String,
    },
    /// The requested module is not in the IP catalog.
    UnknownModule {
        /// The module name.
        module: String,
    },
    /// The design failed the pre-delivery lint gate: the static
    /// analyzer found error-severity findings that no waiver covers.
    /// A vendor must not ship a structurally broken design; fix the
    /// generator or waive the finding explicitly in the
    /// [`ipd_lint::LintConfig`].
    LintRejected {
        /// Unwaived error-severity finding count.
        errors: usize,
        /// The report's one-line summary.
        summary: String,
    },
    /// The design failed the formal equivalence gate: the checker found
    /// a distinguishing input/state assignment against the golden
    /// reference netlist. The vector ships with the refusal (already
    /// replay-confirmed against both simulation engines), so the vendor
    /// can reproduce the divergence in one simulator run. Unlike lint
    /// findings this cannot be waived — a certificate stating "proved
    /// equivalent" must never be issued over a known counterexample.
    EquivRejected {
        /// The differing output or next-state function (golden-side
        /// naming), e.g. `y[3]` or `next(top/acc/ff0)[0]`.
        function: String,
        /// The golden design's name.
        golden: String,
        /// The distinguishing assignment, rendered as
        /// `inputs [...] state [...]` with golden/revised values.
        vector: String,
    },
    /// The equivalence engine could not carry out the check at all —
    /// mismatched boundaries, combinational loops, black boxes, or SAT
    /// resource exhaustion. No certificate is issued either way.
    Verify(ipd_verify::VerifyError),
    /// The remote delivery server reported an application error over
    /// the wire (a typed error frame).
    Remote {
        /// The remote error message.
        message: String,
    },
    /// A transport-layer failure (handshake refusal, framing, deadline)
    /// with no more specific mapping.
    Wire(ipd_wire::WireError),
    /// An underlying circuit error.
    Hdl(ipd_hdl::HdlError),
    /// An underlying simulation error.
    Sim(ipd_sim::SimError),
    /// An underlying netlisting error.
    Netlist(ipd_netlist::NetlistError),
    /// An underlying estimation error.
    Estimate(ipd_estimate::EstimateError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::CapabilityDenied { capability } => {
                write!(f, "operation requires the {capability} capability, which this executable does not grant")
            }
            CoreError::LicenseInvalid { reason } => write!(f, "invalid license: {reason}"),
            CoreError::SealVersion { version } => {
                write!(f, "sealed bundle has unknown container version {version}")
            }
            CoreError::LicenseExpired { expiry_day, today } => {
                write!(
                    f,
                    "license expired on day {expiry_day} (today is day {today})"
                )
            }
            CoreError::ResourceLimit {
                limit,
                max,
                requested,
            } => write!(
                f,
                "sandbox limit {limit} exceeded: requested {requested}, maximum {max}"
            ),
            CoreError::NetworkDenied => {
                write!(f, "network access requires explicit user permission")
            }
            CoreError::NotBuilt => write!(f, "no circuit instance built yet"),
            CoreError::UnknownCustomer { customer } => {
                write!(f, "no profile for customer {customer}")
            }
            CoreError::UnknownModule { module } => {
                write!(f, "no catalog module named {module}")
            }
            CoreError::LintRejected { errors, summary } => {
                write!(
                    f,
                    "delivery refused: {errors} unwaived lint error(s) ({summary})"
                )
            }
            CoreError::EquivRejected {
                function,
                golden,
                vector,
            } => {
                write!(
                    f,
                    "delivery refused: not equivalent to golden '{golden}' — \
                     '{function}' differs {vector}"
                )
            }
            CoreError::Verify(e) => write!(f, "equivalence check failed: {e}"),
            CoreError::Remote { message } => write!(f, "remote delivery error: {message}"),
            CoreError::Wire(e) => write!(f, "wire error: {e}"),
            CoreError::Hdl(e) => write!(f, "circuit error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::Estimate(e) => write!(f, "estimate error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Wire(e) => Some(e),
            CoreError::Hdl(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Netlist(e) => Some(e),
            CoreError::Estimate(e) => Some(e),
            CoreError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ipd_wire::WireError> for CoreError {
    fn from(e: ipd_wire::WireError) -> Self {
        use ipd_wire::{ErrorCode, WireError};
        match e {
            // Typed application error frames carry the server's
            // `CoreError` message.
            WireError::Remote {
                code: ErrorCode::App,
                message,
            } => CoreError::Remote { message },
            other => CoreError::Wire(other),
        }
    }
}

impl From<ipd_hdl::HdlError> for CoreError {
    fn from(e: ipd_hdl::HdlError) -> Self {
        CoreError::Hdl(e)
    }
}

impl From<ipd_sim::SimError> for CoreError {
    fn from(e: ipd_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<ipd_netlist::NetlistError> for CoreError {
    fn from(e: ipd_netlist::NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

impl From<ipd_estimate::EstimateError> for CoreError {
    fn from(e: ipd_estimate::EstimateError) -> Self {
        CoreError::Estimate(e)
    }
}

impl From<ipd_verify::VerifyError> for CoreError {
    fn from(e: ipd_verify::VerifyError) -> Self {
        CoreError::Verify(e)
    }
}
