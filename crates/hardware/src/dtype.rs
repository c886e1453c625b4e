//! Numeric data types used for weights, activations and KV cache.
//!
//! The paper evaluates float16 weights with optional int4 KV-cache quantization
//! (Fig. 4 shows both); data type only enters the system through its byte width,
//! which is what this module encodes.

use std::fmt;
use std::str::FromStr;

/// Element data type for model tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit IEEE-754 float.
    F32,
    /// 16-bit IEEE-754 float (or bfloat16 — same width).
    #[default]
    F16,
    /// 8-bit integer quantization.
    Int8,
    /// 4-bit integer quantization (packed two elements per byte).
    Int4,
}

impl DType {
    /// Width of a single element in bytes (fractional for sub-byte types).
    ///
    /// # Examples
    ///
    /// ```
    /// use moe_hardware::DType;
    /// assert_eq!(DType::F16.bytes_per_element(), 2.0);
    /// assert_eq!(DType::Int4.bytes_per_element(), 0.5);
    /// ```
    pub fn bytes_per_element(self) -> f64 {
        match self {
            DType::F32 => 4.0,
            DType::F16 => 2.0,
            DType::Int8 => 1.0,
            DType::Int4 => 0.5,
        }
    }

    /// Total bytes for `n` elements of this type, rounded up to a whole byte.
    ///
    /// Computed in exact integer arithmetic and saturating at `u64::MAX`. It
    /// equals `(n as f64 * self.bytes_per_element()).ceil() as u64` wherever
    /// that product is exact, which is every `n < 2^50`.
    ///
    /// # Examples
    ///
    /// ```
    /// use moe_hardware::DType;
    /// assert_eq!(DType::Int4.bytes_for(3), 2);
    /// assert_eq!(DType::F32.bytes_for(u64::MAX), u64::MAX);
    /// ```
    pub fn bytes_for(self, n: u64) -> u64 {
        match self {
            DType::F32 => n.saturating_mul(4),
            DType::F16 => n.saturating_mul(2),
            DType::Int8 => n,
            DType::Int4 => n.div_ceil(2),
        }
    }

    /// All supported data types, in decreasing width order.
    pub fn all() -> [DType; 4] {
        [DType::F32, DType::F16, DType::Int8, DType::Int4]
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::Int8 => "int8",
            DType::Int4 => "int4",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing a [`DType`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDTypeError {
    input: String,
}

impl fmt::Display for ParseDTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown data type `{}` (expected one of f32, f16, int8, int4)",
            self.input
        )
    }
}

impl std::error::Error for ParseDTypeError {}

impl FromStr for DType {
    type Err = ParseDTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "float32" | "fp32" => Ok(DType::F32),
            "f16" | "float16" | "fp16" | "bf16" | "bfloat16" => Ok(DType::F16),
            "int8" | "i8" | "q8" => Ok(DType::Int8),
            "int4" | "i4" | "q4" => Ok(DType::Int4),
            _ => Err(ParseDTypeError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bytes_for_rounds_up_subbyte_types() {
        assert_eq!(DType::Int4.bytes_for(3), 2);
        assert_eq!(DType::Int4.bytes_for(4), 2);
        assert_eq!(DType::F16.bytes_for(3), 6);
        assert_eq!(DType::F32.bytes_for(0), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The integer byte count is the `f64` reference formula, bit for bit,
        /// at every magnitude below 2^50: the bit width is drawn first, so
        /// small counts are as likely as large ones.
        #[test]
        fn bytes_for_equals_the_rounded_up_float_product(
            (bits, raw) in (0u32..=50, any::<u64>()),
        ) {
            let n = raw & ((1u64 << bits) - 1);
            for dt in DType::all() {
                let reference = (n as f64 * dt.bytes_per_element()).ceil() as u64;
                prop_assert_eq!(dt.bytes_for(n), reference, "{} x {}", n, dt);
            }
        }
    }

    #[test]
    fn bytes_for_saturates_like_the_float_cast() {
        for n in [u64::MAX, 1 << 63] {
            for dt in DType::all() {
                let reference = (n as f64 * dt.bytes_per_element()).ceil() as u64;
                assert_eq!(dt.bytes_for(n), reference, "{n} x {dt}");
            }
        }
        assert_eq!(DType::F32.bytes_for(u64::MAX), u64::MAX);
        assert_eq!(DType::F16.bytes_for(u64::MAX), u64::MAX);
        assert_eq!(DType::Int4.bytes_for(u64::MAX), 1 << 63);
    }

    #[test]
    fn parses_common_spellings() {
        assert_eq!("fp16".parse::<DType>().unwrap(), DType::F16);
        assert_eq!("bf16".parse::<DType>().unwrap(), DType::F16);
        assert_eq!("FLOAT32".parse::<DType>().unwrap(), DType::F32);
        assert_eq!("int4".parse::<DType>().unwrap(), DType::Int4);
        assert_eq!("i8".parse::<DType>().unwrap(), DType::Int8);
    }

    #[test]
    fn parse_error_mentions_input() {
        let err = "float64".parse::<DType>().unwrap_err();
        assert!(err.to_string().contains("float64"));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for dt in DType::all() {
            let s = dt.to_string();
            assert_eq!(s.parse::<DType>().unwrap(), dt);
        }
    }

    #[test]
    fn default_is_f16() {
        assert_eq!(DType::default(), DType::F16);
    }
}
