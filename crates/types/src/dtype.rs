//! Numeric element types used by LLM inference.

use crate::Bytes;
use serde::{Deserialize, Serialize};

/// The element data type used for weights, activations and KV-cache entries.
///
/// The PAPI paper evaluates everything in FP16; the other variants exist so
/// the kernel byte-count math can be exercised at different precisions (an
/// extension the paper mentions only in passing).
///
/// # Example
///
/// ```
/// use papi_types::DataType;
///
/// assert_eq!(DataType::Fp16.size().value(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DataType {
    /// IEEE 754 binary32.
    Fp32,
    /// IEEE 754 binary16 (the paper's evaluation precision).
    #[default]
    Fp16,
    /// bfloat16.
    Bf16,
    /// 8-bit integer (weight-only quantization extension).
    Int8,
    /// 4-bit integer (weight-only quantization extension).
    Int4,
}

impl DataType {
    /// Size of one element in whole bytes (INT4 rounds up to 1 for
    /// addressing purposes; use [`DataType::size`] for exact arithmetic).
    pub(crate) const fn size_bytes(self) -> u64 {
        match self {
            DataType::Fp32 => 4,
            DataType::Fp16 | DataType::Bf16 => 2,
            DataType::Int8 => 1,
            DataType::Int4 => 1,
        }
    }

    /// Exact size of one element as a [`Bytes`] quantity (INT4 = 0.5 B).
    pub fn size(self) -> Bytes {
        match self {
            DataType::Int4 => Bytes::new(0.5),
            other => Bytes::from_u64(other.size_bytes()),
        }
    }
}

impl core::fmt::Display for DataType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DataType::Fp32 => "fp32",
            DataType::Fp16 => "fp16",
            DataType::Bf16 => "bf16",
            DataType::Int8 => "int8",
            DataType::Int4 => "int4",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_the_element_widths() {
        for (dt, bytes) in [
            (DataType::Fp32, 4.0),
            (DataType::Fp16, 2.0),
            (DataType::Bf16, 2.0),
            (DataType::Int8, 1.0),
            (DataType::Int4, 0.5),
        ] {
            assert_eq!(dt.size().value(), bytes);
        }
    }

    #[test]
    fn default_is_fp16() {
        assert_eq!(DataType::default(), DataType::Fp16);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(DataType::Fp16.to_string(), "fp16");
        assert_eq!(DataType::Int4.to_string(), "int4");
    }
}
