//! Wire encoding of message payloads for the socket-backed transports.
//!
//! # The codec/`payload_bytes` equivalence rule
//!
//! The [`MessageLedger`](crate::metrics::MessageLedger) sizes every message
//! with [`NodeProgram::payload_bytes`](crate::node::NodeProgram::payload_bytes),
//! whatever the backend. For that number to stay meaningful on a real wire,
//! every [`WireCodec`] implementation must encode to **exactly**
//! `payload_bytes(message)` bytes — the transports check this per message
//! and fail the barrier on a mismatch, and `tests/wire_codec.rs` sweeps
//! every shipped message type against the rule.
//!
//! For fixed-size payloads the default `payload_bytes` charges
//! `size_of::<M>()`, so the provided implementations write their natural
//! little-endian encoding and zero-pad up to `size_of` ([`pad_to_size`]);
//! decoding validates the padding, the exact length, and every tag byte, so
//! a truncated, oversized or corrupted frame is always rejected rather than
//! misread. Variable-size payloads (e.g. `Arc<[u32]>` token bundles) must
//! override `payload_bytes` to the true serialized size — see
//! `docs/METRICS.md` §3 for the sizing rules.

use std::fmt;
use std::sync::Arc;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the encoding requires.
    Truncated {
        /// Bytes required (minimum).
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The buffer is longer than the encoding allows (trailing bytes).
    Oversized {
        /// Bytes the encoding consumes.
        expected: usize,
        /// Bytes available.
        got: usize,
    },
    /// A variant tag byte holds an unknown value.
    InvalidTag {
        /// The offending tag.
        tag: u8,
    },
    /// A padding byte that must be zero was not (corruption indicator).
    InvalidPadding,
    /// The byte length is not a multiple of the element size of a
    /// variable-length encoding.
    InvalidLength {
        /// Bytes available.
        got: usize,
        /// Required element granularity.
        multiple_of: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(
                    f,
                    "truncated payload: need at least {needed} bytes, got {got}"
                )
            }
            CodecError::Oversized { expected, got } => {
                write!(f, "oversized payload: expected {expected} bytes, got {got}")
            }
            CodecError::InvalidTag { tag } => write!(f, "unknown variant tag {tag:#04x}"),
            CodecError::InvalidPadding => write!(f, "non-zero padding byte"),
            CodecError::InvalidLength { got, multiple_of } => {
                write!(
                    f,
                    "{got} bytes is not a multiple of the {multiple_of}-byte element size"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte-level encoding of a message payload, used by [`TcpTransport`] and
/// [`MockTransport`] frames.
///
/// Laws (checked by the transports and swept in `tests/wire_codec.rs`):
///
/// 1. **Roundtrip** — `decode(encode(m)) == m` for every message `m`.
/// 2. **Sizing** — the encoded length equals
///    [`NodeProgram::payload_bytes`](crate::node::NodeProgram::payload_bytes)
///    of every program shipping this message type, byte for byte.
/// 3. **Rejection** — `decode` errors on any buffer that `encode` cannot
///    produce (truncated, oversized, unknown tag, non-zero padding).
///
/// [`TcpTransport`]: crate::transport::TcpTransport
/// [`MockTransport`]: crate::transport::MockTransport
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one payload from exactly `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if `bytes` is not exactly one valid
    /// encoding.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError>;

    /// The encoding of `self` as a fresh buffer (convenience for tests).
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Zero-pads `buf` so that the bytes written since `start` total `size`
/// (the fixed-size convention: encodings fill up to `size_of::<M>()`).
pub fn pad_to_size(buf: &mut Vec<u8>, start: usize, size: usize) {
    debug_assert!(buf.len() - start <= size, "encoding exceeds its size class");
    buf.resize(start + size, 0);
}

/// Validates that `bytes` is exactly `size` long and every byte from
/// `used` on is zero (the decode-side counterpart of [`pad_to_size`]).
pub fn check_size_and_padding(bytes: &[u8], used: usize, size: usize) -> Result<(), CodecError> {
    if bytes.len() < size {
        return Err(CodecError::Truncated {
            needed: size,
            got: bytes.len(),
        });
    }
    if bytes.len() > size {
        return Err(CodecError::Oversized {
            expected: size,
            got: bytes.len(),
        });
    }
    if bytes[used..].iter().any(|&b| b != 0) {
        return Err(CodecError::InvalidPadding);
    }
    Ok(())
}

impl WireCodec for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        check_size_and_padding(bytes, 0, 0)
    }
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl WireCodec for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
                const SIZE: usize = std::mem::size_of::<$ty>();
                check_size_and_padding(bytes, SIZE, SIZE)?;
                let mut raw = [0u8; SIZE];
                raw.copy_from_slice(bytes);
                Ok(<$ty>::from_le_bytes(raw))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64);

/// Token bundles: each element as 4 little-endian bytes, no length prefix
/// (the frame's payload length delimits the bundle). A bundle is shared:
/// a broadcast clones only the pointer per port, and each decoded record
/// gets an allocation of its own. Programs shipping `Arc<[u32]>` must
/// override `payload_bytes` to `4 * len` to satisfy the sizing law — the
/// default `size_of::<Arc<[u32]>>()` charges the pointer, not the tokens.
impl WireCodec for Arc<[u32]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.reserve(4 * self.len());
        for value in self.iter() {
            buf.extend_from_slice(&value.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(CodecError::InvalidLength {
                got: bytes.len(),
                multiple_of: 4,
            });
        }
        Ok(bytes
            .chunks_exact(4)
            .map(|chunk| u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_roundtrip_at_their_size() {
        let value: u32 = 0xDEAD_BEEF;
        let encoded = value.encode_to_vec();
        assert_eq!(encoded.len(), 4);
        assert_eq!(u32::decode(&encoded), Ok(value));
        assert_eq!(u64::decode(&7u64.encode_to_vec()), Ok(7));
        assert_eq!(u8::decode(&[9]), Ok(9));
    }

    #[test]
    fn unit_is_zero_bytes() {
        assert!(().encode_to_vec().is_empty());
        assert_eq!(<()>::decode(&[]), Ok(()));
        assert!(matches!(
            <()>::decode(&[0]),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn truncated_and_oversized_are_rejected() {
        let encoded = 5u32.encode_to_vec();
        assert!(matches!(
            u32::decode(&encoded[..3]),
            Err(CodecError::Truncated { needed: 4, got: 3 })
        ));
        let mut long = encoded;
        long.push(0);
        assert!(matches!(
            u32::decode(&long),
            Err(CodecError::Oversized {
                expected: 4,
                got: 5
            })
        ));
    }

    #[test]
    fn token_bundles_roundtrip_and_reject_ragged_lengths() {
        let bundle: Arc<[u32]> = Arc::from([1u32, u32::MAX, 42]);
        let encoded = bundle.encode_to_vec();
        // Each ID as 4 little-endian bytes, no length prefix.
        assert_eq!(
            encoded,
            [1, 0, 0, 0, 255, 255, 255, 255, 42, 0, 0, 0],
            "the bundle wire bytes moved"
        );
        assert_eq!(Arc::<[u32]>::decode(&encoded), Ok(bundle));
        assert_eq!(Arc::<[u32]>::decode(&[]), Ok(Arc::from([])));
        assert!(matches!(
            Arc::<[u32]>::decode(&encoded[..7]),
            Err(CodecError::InvalidLength {
                got: 7,
                multiple_of: 4
            })
        ));
    }

    #[test]
    fn padding_helpers_enforce_zero_fill() {
        let mut buf = vec![0xAA];
        pad_to_size(&mut buf, 0, 4);
        assert_eq!(buf, [0xAA, 0, 0, 0]);
        assert_eq!(check_size_and_padding(&buf, 1, 4), Ok(()));
        assert_eq!(
            check_size_and_padding(&[0xAA, 0, 1, 0], 1, 4),
            Err(CodecError::InvalidPadding)
        );
    }

    #[test]
    fn errors_display_their_diagnosis() {
        assert!(CodecError::Truncated { needed: 8, got: 2 }
            .to_string()
            .contains("8"));
        assert!(CodecError::InvalidTag { tag: 0xFF }
            .to_string()
            .contains("0xff"));
    }
}
