//! Wire protocol errors.

/// Errors produced while encoding or decoding wire frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A frame declared a length larger than [`crate::frame::MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared length.
        declared: usize,
    },
    /// The payload ended before a complete field could be read.
    Truncated {
        /// What was being decoded when the payload ran out.
        context: &'static str,
    },
    /// The frame kind byte does not correspond to a known message type.
    UnknownKind(u8),
    /// The CRC-32 checksum did not match the payload.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        expected: u32,
        /// Checksum computed over the received payload.
        actual: u32,
    },
    /// A numeric field held a value that is not valid for its meaning
    /// (negative standard deviation, non-finite timestamp, …).
    InvalidField {
        /// Which field was invalid.
        field: &'static str,
    },
    /// The payload held more bytes than its message kind's layout accounts
    /// for: a frame is exactly one message.
    TrailingBytes {
        /// Kind byte of the message that was followed by extra bytes.
        kind: u8,
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { declared } => {
                write!(f, "frame length {declared} exceeds the maximum frame size")
            }
            WireError::Truncated { context } => write!(f, "payload truncated while reading {context}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: frame carries 0x{expected:08x}, payload hashes to 0x{actual:08x}"
            ),
            WireError::InvalidField { field } => write!(f, "invalid value for field {field}"),
            WireError::TrailingBytes { kind, extra } => {
                write!(f, "{extra} trailing bytes after a kind 0x{kind:02x} payload")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(WireError::FrameTooLarge { declared: 10 }
            .to_string()
            .contains("10"));
        assert!(WireError::Truncated {
            context: "timestamp"
        }
        .to_string()
        .contains("timestamp"));
        assert!(WireError::UnknownKind(0xab).to_string().contains("0xab"));
        assert!(WireError::ChecksumMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("mismatch"));
        assert!(WireError::InvalidField { field: "std_dev" }
            .to_string()
            .contains("std_dev"));
        let trailing = WireError::TrailingBytes {
            kind: 0x0a,
            extra: 3,
        }
        .to_string();
        assert!(trailing.contains("0x0a") && trailing.contains('3'));
    }
}
