//! The precision-native wire format.
//!
//! Point-to-point messages carry a typed [`Payload`] — a packed vector
//! of `f64` **or** `f32` elements — instead of always widening to
//! `f64`. The in-process channels move `Payload` values themselves, so
//! there is no byte frame to encode or guard. An `f32` halo strip therefore travels at 4 bytes per element
//! with no conversion sweep on either side, which halves the
//! mixed-precision solvers' message volume (the design-space point the
//! paper's communication study trades against iteration work).
//!
//! [`WireScalar`] connects `tea_mesh::Scalar` to the wire: it is the
//! bound the generic halo exchange and gather collectives use to pack a
//! `Field2<S>` strip into a payload and to decode one back. Decoding is
//! checked — a payload of the wrong element width produces a structured
//! [`WireError`] naming both formats instead of silently reinterpreting
//! bytes.

use std::fmt;
use tea_mesh::Scalar;

/// A typed point-to-point message payload: the elements exactly as the
/// sender packed them, tagged with their precision.
///
/// `From<Vec<f64>>` / `From<Vec<f32>>` wrap raw buffers for direct
/// [`crate::Communicator::send`] calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Double-precision elements (8 bytes each on the wire).
    F64(Vec<f64>),
    /// Single-precision elements (4 bytes each on the wire).
    F32(Vec<f32>),
}

impl Payload {
    /// Number of elements carried.
    pub fn len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len(),
            Payload::F32(v) => v.len(),
        }
    }

    /// Whether the payload carries no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per element of this payload's format.
    pub fn elem_bytes(&self) -> usize {
        match self {
            Payload::F64(_) => <f64 as Scalar>::BYTES,
            Payload::F32(_) => <f32 as Scalar>::BYTES,
        }
    }

    /// The element format's name (`"f64"` / `"f32"`).
    pub fn scalar_name(&self) -> &'static str {
        match self {
            Payload::F64(_) => f64::NAME,
            Payload::F32(_) => f32::NAME,
        }
    }

    /// Decodes into a vector of `S`, failing with a structured
    /// [`WireError`] if the payload was packed at a different width.
    pub fn try_into_vec<S: WireScalar>(self) -> Result<Vec<S>, WireError> {
        S::from_payload(self)
    }
}

impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::F64(v)
    }
}

impl From<Vec<f32>> for Payload {
    fn from(v: Vec<f32>) -> Self {
        Payload::F32(v)
    }
}

/// A structured decoding failure: a payload arrived in a different
/// element format than the receiver expected.
///
/// Carried as a value (not just a message) so protocol tests can assert
/// on the exact formats involved — decoding never silently reinterprets
/// elements at the wrong width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload was packed at a different element width than the
    /// receiver was decoding into — the precision analogue of a tag
    /// mismatch.
    WidthMismatch {
        /// Format the receiving side was decoding into.
        expected: &'static str,
        /// Format the payload was actually packed at.
        received: &'static str,
        /// Elements in the offending payload.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::WidthMismatch {
                expected,
                received,
                len,
            } => write!(
                f,
                "wire precision mismatch: expected {expected} elements, received a \
                 {len}-element {received} payload (send and recv sides must agree on the \
                 exchange scalar)"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// A [`Scalar`] that can travel on the wire: packing into and checked
/// decoding out of a [`Payload`].
///
/// Implemented for `f64` and `f32` — exactly the formats [`Payload`]
/// carries. The generic halo exchange and gather collectives are
/// bounded on this trait, so a `Field2<f32>` halo moves at 4
/// bytes/element natively.
pub trait WireScalar: Scalar {
    /// Wraps a packed buffer into a typed payload (no copy).
    fn into_payload(buf: Vec<Self>) -> Payload;

    /// Decodes a payload back into elements, verifying the format.
    ///
    /// # Errors
    /// [`WireError`] when the payload was packed at a different width.
    fn from_payload(payload: Payload) -> Result<Vec<Self>, WireError>;

    /// Borrows a payload's elements without consuming it, verifying the
    /// format — how the reduction fold reads deposited slots in place.
    ///
    /// # Errors
    /// [`WireError`] when the payload was packed at a different width.
    fn payload_slice(payload: &Payload) -> Result<&[Self], WireError>;
}

impl WireScalar for f64 {
    fn into_payload(buf: Vec<Self>) -> Payload {
        Payload::F64(buf)
    }

    fn from_payload(payload: Payload) -> Result<Vec<Self>, WireError> {
        match payload {
            Payload::F64(v) => Ok(v),
            other => Err(WireError::WidthMismatch {
                expected: f64::NAME,
                received: other.scalar_name(),
                len: other.len(),
            }),
        }
    }

    fn payload_slice(payload: &Payload) -> Result<&[Self], WireError> {
        match payload {
            Payload::F64(v) => Ok(v),
            other => Err(WireError::WidthMismatch {
                expected: f64::NAME,
                received: other.scalar_name(),
                len: other.len(),
            }),
        }
    }
}

impl WireScalar for f32 {
    fn into_payload(buf: Vec<Self>) -> Payload {
        Payload::F32(buf)
    }

    fn from_payload(payload: Payload) -> Result<Vec<Self>, WireError> {
        match payload {
            Payload::F32(v) => Ok(v),
            other => Err(WireError::WidthMismatch {
                expected: f32::NAME,
                received: other.scalar_name(),
                len: other.len(),
            }),
        }
    }

    fn payload_slice(payload: &Payload) -> Result<&[Self], WireError> {
        match payload {
            Payload::F32(v) => Ok(v),
            other => Err(WireError::WidthMismatch {
                expected: f32::NAME,
                received: other.scalar_name(),
                len: other.len(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_reports_width_and_bytes() {
        let p64 = Payload::from(vec![1.0f64, 2.0]);
        assert_eq!(p64.len(), 2);
        assert_eq!(p64.elem_bytes(), 8);
        assert_eq!(p64.scalar_name(), "f64");
        let p32 = Payload::from(vec![1.0f32, 2.0, 3.0]);
        assert_eq!(p32.elem_bytes(), 4);
        assert_eq!(p32.scalar_name(), "f32");
        assert!(!p32.is_empty());
        assert!(Payload::F64(Vec::new()).is_empty());
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let v = vec![1.5f32, -0.0, f32::MIN_POSITIVE];
        let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        let back: Vec<f32> = f32::into_payload(v).try_into_vec().unwrap();
        assert_eq!(bits, back.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn mismatched_decode_is_a_structured_error() {
        let err = f32::from_payload(Payload::F64(vec![1.0, 2.0])).unwrap_err();
        assert_eq!(
            err,
            WireError::WidthMismatch {
                expected: "f32",
                received: "f64",
                len: 2,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("expected f32"), "{msg}");
        assert!(msg.contains("f64 payload"), "{msg}");
        let err = f64::from_payload(Payload::F32(vec![0.5])).unwrap_err();
        assert_eq!(
            err,
            WireError::WidthMismatch {
                expected: "f64",
                received: "f32",
                len: 1,
            }
        );
    }
}
