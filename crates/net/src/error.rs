//! The typed error surface of the wire layer.

use std::fmt;
use std::io;

use specsync_core::SpecSyncError;

use crate::frame::{FrameError, FrameReadError};

/// Why a transport or host operation failed.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket or channel failed.
    Io(io::Error),
    /// The bytes on the wire do not form a valid frame.
    Frame(FrameError),
    /// This frame is not one the sender/handler speaks — e.g. a worker
    /// transport asked to *send* a reply-only frame, or a shard host
    /// handed a scheduler-plane frame.
    Unhandled {
        /// What was attempted.
        what: &'static str,
    },
    /// A request/response exchange returned the wrong frame kind.
    UnexpectedReply {
        /// The frame kind the caller expected.
        want: &'static str,
    },
    /// Connecting (or reconnecting) exhausted the retry budget.
    ConnectFailed {
        /// The address last attempted.
        addr: String,
        /// Attempts spent.
        attempts: u32,
    },
    /// One logical operation spent its whole retry budget.
    RetryExhausted {
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// The peer is gone.
    Disconnected,
    /// The [`NetConfig`](crate::NetConfig) failed validation at the
    /// transport/server entry point.
    Config(SpecSyncError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport i/o error: {e}"),
            NetError::Frame(e) => write!(f, "{e}"),
            NetError::Unhandled { what } => write!(f, "frame not handled here: {what}"),
            NetError::UnexpectedReply { want } => {
                write!(f, "peer replied with the wrong frame (expected {want})")
            }
            NetError::ConnectFailed { addr, attempts } => {
                write!(f, "could not connect to {addr} after {attempts} attempts")
            }
            NetError::RetryExhausted { attempts } => {
                write!(f, "operation abandoned after {attempts} attempts")
            }
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Config(e) => write!(f, "invalid net config: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            NetError::Unhandled { .. }
            | NetError::UnexpectedReply { .. }
            | NetError::ConnectFailed { .. }
            | NetError::RetryExhausted { .. }
            | NetError::Disconnected
            | NetError::Config(_) => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<FrameReadError> for NetError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(e) => NetError::Io(e),
            FrameReadError::Frame(e) => NetError::Frame(e),
        }
    }
}
