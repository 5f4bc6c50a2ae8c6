//! Netlisting errors.

use std::fmt;

/// Errors raised while generating or parsing netlists.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetlistError {
    /// The circuit failed to flatten or contained stale references.
    Hdl(ipd_hdl::HdlError),
    /// An output error from the destination writer.
    Io(std::io::Error),
    /// EDIF text failed to parse.
    ParseEdif {
        /// Byte offset of the failure.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// An EDIF cell instantiates itself, directly or through other
    /// cells, so its hierarchy never bottoms out.
    InstantiationCycle {
        /// The cells on the cycle, starting and ending with the same
        /// cell.
        cells: Vec<String>,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Hdl(e) => write!(f, "circuit error: {e}"),
            NetlistError::Io(e) => write!(f, "output error: {e}"),
            NetlistError::ParseEdif { offset, message } => {
                write!(f, "EDIF parse error at byte {offset}: {message}")
            }
            NetlistError::InstantiationCycle { cells } => {
                write!(f, "EDIF cell instantiates itself: {}", cells.join(" -> "))
            }
        }
    }
}

impl std::error::Error for NetlistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetlistError::Hdl(e) => Some(e),
            NetlistError::Io(e) => Some(e),
            NetlistError::ParseEdif { .. } | NetlistError::InstantiationCycle { .. } => None,
        }
    }
}

impl From<ipd_hdl::HdlError> for NetlistError {
    fn from(e: ipd_hdl::HdlError) -> Self {
        NetlistError::Hdl(e)
    }
}

impl From<std::io::Error> for NetlistError {
    fn from(e: std::io::Error) -> Self {
        NetlistError::Io(e)
    }
}
