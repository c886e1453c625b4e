//! Strongly-typed units used throughout the workspace.
//!
//! The performance model of MoE-Lightning (paper §4.2) works entirely in terms of
//! byte counts, FLOP counts, bandwidths and compute rates. Mixing those up as bare
//! `f64`/`u64` values is a classic source of silent bugs (GB vs GiB, FLOPs vs
//! FLOPs/s), so each quantity gets a newtype with explicit constructors and
//! conversions (Rust API guidelines C-NEWTYPE).
//!
//! All types are `Copy` and implement the arithmetic operators that are physically
//! meaningful (e.g. `ByteSize / Bandwidth = Seconds`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of bytes in a kibibyte/mebibyte/gibibyte.
const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// A quantity of memory or data, stored internally as bytes.
///
/// # Examples
///
/// ```
/// use moe_hardware::ByteSize;
/// let gpu_mem = ByteSize::from_gib(16.0);
/// assert_eq!(gpu_mem.as_bytes(), 16 * 1024 * 1024 * 1024);
/// assert!((gpu_mem.as_gib() - 16.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from kibibytes (1024 bytes).
    pub fn from_kib(kib: f64) -> Self {
        ByteSize((kib * KIB).round() as u64)
    }

    /// Creates a size from mebibytes (1024² bytes).
    pub fn from_mib(mib: f64) -> Self {
        ByteSize((mib * MIB).round() as u64)
    }

    /// Creates a size from gibibytes (1024³ bytes).
    pub fn from_gib(gib: f64) -> Self {
        ByteSize((gib * GIB).round() as u64)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / GIB
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: ByteSize) -> Option<ByteSize> {
        self.0.checked_sub(other.0).map(ByteSize)
    }

    /// Multiplies the size by a scalar factor, rounding to the nearest byte.
    pub fn scale(self, factor: f64) -> ByteSize {
        ByteSize((self.0 as f64 * factor).round().max(0.0) as u64)
    }

    /// Returns the minimum of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// Returns the maximum of two sizes.
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }

    /// True when the size is exactly zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= GIB {
            write!(f, "{:.2} GiB", b / GIB)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b / MIB)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b / KIB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Mul<ByteSize> for u64 {
    type Output = ByteSize;
    fn mul(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self * rhs.0)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

/// Number of floating point operations (work), stored as a `f64` count of FLOPs.
///
/// # Examples
///
/// ```
/// use moe_hardware::{ByteSize, FlopCount};
/// let matmul = FlopCount::from_flops(2.0e9);
/// // Operational intensity: FLOPs per byte accessed.
/// assert!((matmul / ByteSize::from_bytes(1_000_000) - 2000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FlopCount(f64);

impl FlopCount {
    /// Zero work.
    pub const ZERO: FlopCount = FlopCount(0.0);

    /// Creates a work amount from a raw FLOP count.
    pub fn from_flops(flops: f64) -> Self {
        FlopCount(flops.max(0.0))
    }

    /// Raw FLOP count.
    pub fn as_flops(self) -> f64 {
        self.0
    }

    /// Scales the work by a factor.
    pub fn scale(self, factor: f64) -> FlopCount {
        FlopCount((self.0 * factor).max(0.0))
    }

    /// True when there is no work.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for FlopCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.3} TFLOPs", self.0 / 1e12)
        } else if self.0 >= 1e9 {
            write!(f, "{:.3} GFLOPs", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} MFLOPs", self.0 / 1e6)
        } else {
            write!(f, "{:.0} FLOPs", self.0)
        }
    }
}

impl Add for FlopCount {
    type Output = FlopCount;
    fn add(self, rhs: FlopCount) -> FlopCount {
        FlopCount(self.0 + rhs.0)
    }
}

impl AddAssign for FlopCount {
    fn add_assign(&mut self, rhs: FlopCount) {
        self.0 += rhs.0;
    }
}

impl Sub for FlopCount {
    type Output = FlopCount;
    fn sub(self, rhs: FlopCount) -> FlopCount {
        FlopCount((self.0 - rhs.0).max(0.0))
    }
}

impl Sum for FlopCount {
    fn sum<I: Iterator<Item = FlopCount>>(iter: I) -> FlopCount {
        FlopCount(iter.map(|x| x.0).sum())
    }
}

/// Memory or link bandwidth in bytes per second.
///
/// # Examples
///
/// ```
/// use moe_hardware::{Bandwidth, ByteSize};
/// let pcie = Bandwidth::from_gb_per_sec(16.0);
/// let t = ByteSize::from_gib(1.0) / pcie;
/// assert!(t.as_secs() > 0.06 && t.as_secs() < 0.07);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth (useful as an "unreachable" sentinel in tests).
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from GB/s (10⁹ bytes per second, vendor convention).
    pub fn from_gb_per_sec(gbps: f64) -> Self {
        Bandwidth((gbps * 1e9).max(0.0))
    }

    /// Bandwidth in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Bandwidth in GB/s (10⁹ bytes per second).
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 / 1e9
    }

    /// Scales the bandwidth (e.g. efficiency derating or aggregating links).
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth((self.0 * factor).max(0.0))
    }

    /// True if the bandwidth is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.as_gb_per_sec())
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        self.scale(rhs)
    }
}

/// Compute throughput in FLOPs per second.
///
/// # Examples
///
/// ```
/// use moe_hardware::{ComputeRate, FlopCount};
/// let t4 = ComputeRate::from_tflops_per_sec(65.0);
/// let dt = FlopCount::from_flops(6.5e12) / t4;
/// assert!((dt.as_secs() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ComputeRate(f64);

impl ComputeRate {
    /// Zero compute capability.
    pub const ZERO: ComputeRate = ComputeRate(0.0);

    /// Creates a rate from FLOPs per second.
    pub fn from_flops_per_sec(fps: f64) -> Self {
        ComputeRate(fps.max(0.0))
    }

    /// Creates a rate from TFLOPs per second.
    pub fn from_tflops_per_sec(tfps: f64) -> Self {
        ComputeRate((tfps * 1e12).max(0.0))
    }

    /// Rate in FLOPs per second.
    pub fn as_flops_per_sec(self) -> f64 {
        self.0
    }

    /// Rate in GFLOPs per second.
    pub fn as_gflops_per_sec(self) -> f64 {
        self.0 / 1e9
    }

    /// Rate in TFLOPs per second.
    pub fn as_tflops_per_sec(self) -> f64 {
        self.0 / 1e12
    }

    /// Scales the rate (e.g. efficiency derating or multi-device aggregation).
    pub fn scale(self, factor: f64) -> ComputeRate {
        ComputeRate((self.0 * factor).max(0.0))
    }

    /// True if the rate is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for ComputeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TFLOPS", self.0 / 1e12)
        } else {
            write!(f, "{:.2} GFLOPS", self.0 / 1e9)
        }
    }
}

impl Add for ComputeRate {
    type Output = ComputeRate;
    fn add(self, rhs: ComputeRate) -> ComputeRate {
        ComputeRate(self.0 + rhs.0)
    }
}

impl Mul<f64> for ComputeRate {
    type Output = ComputeRate;
    fn mul(self, rhs: f64) -> ComputeRate {
        self.scale(rhs)
    }
}

/// A time duration in seconds, stored as `f64`.
///
/// `std::time::Duration` is not used because simulated times routinely need to be
/// multiplied, divided and compared with full floating point semantics (including
/// zero-length events).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from seconds.
    pub fn from_secs(secs: f64) -> Self {
        Seconds(secs.max(0.0))
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Seconds((ms / 1e3).max(0.0))
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Seconds((us / 1e6).max(0.0))
    }

    /// Duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Scales the duration.
    pub fn scale(self, factor: f64) -> Seconds {
        Seconds((self.0 * factor).max(0.0))
    }

    /// True when the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Total-order sort key for this instant (see [`TimeKey`]).
    ///
    /// `Seconds` is only [`PartialOrd`] because it wraps an `f64`;
    /// event-selection code that sorts, min-reduces or heap-orders simulated
    /// times must not silently treat NaN as equal (the classic
    /// `partial_cmp(..).unwrap_or(Equal)` bug: a NaN-stamped event compares
    /// equal to *everything* and event order becomes dependent on scan
    /// order). `TimeKey` uses IEEE-754 `total_cmp` semantics, so ordering is
    /// total, deterministic, and agrees with `<` on ordinary values.
    pub fn key(self) -> TimeKey {
        TimeKey::new(self.0)
    }
}

/// A totally ordered key for a [`Seconds`] instant.
///
/// Wraps the IEEE-754 total order (`f64::total_cmp`) in an `Ord` type so
/// simulated times can key binary heaps, `sort_by_key` and `min_by_key`
/// without the NaN-as-equal pitfall of `partial_cmp(..).unwrap_or(Equal)`.
/// On ordinary (non-NaN) durations the order agrees with `<` exactly; NaN
/// sorts after every finite value and +∞, so a corrupted timestamp lands
/// deterministically at the *end* of any schedule instead of anywhere the
/// scan happens to leave it. Shared by the fleet loop's agenda, the
/// router indexes and the workload schedulers' arrival sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeKey(u64);

impl TimeKey {
    /// Builds the key from raw seconds: the sign-folded bit pattern that makes
    /// lexicographic `u64` order equal `f64::total_cmp` order.
    fn new(secs: f64) -> Self {
        let bits = secs.to_bits() as i64;
        // Non-negative floats order by their bit pattern; negative floats
        // order reversed. Flipping all bits of negatives (and only the sign
        // bit of non-negatives) makes the whole line monotone in unsigned
        // order — exactly `total_cmp`.
        let folded = bits ^ ((bits >> 63) | i64::MIN);
        TimeKey(folded as u64)
    }

    /// The instant the key was built from, bit for bit: building the key
    /// flipped a non-negative float's sign bit and every bit of a negative
    /// one, and this flips them back.
    pub fn secs(self) -> Seconds {
        let folded = self.0 as i64;
        let bits = if folded < 0 {
            folded ^ i64::MIN
        } else {
            !folded
        };
        Seconds(f64::from_bits(bits as u64))
    }
}

impl From<Seconds> for TimeKey {
    fn from(s: Seconds) -> Self {
        s.key()
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} µs", self.0 * 1e6)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        self.scale(rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|x| x.0).sum())
    }
}

impl Div<Bandwidth> for ByteSize {
    type Output = Seconds;
    /// Time to move `self` bytes over a link with the given bandwidth.
    ///
    /// Zero bandwidth yields `Seconds::from_secs(f64::INFINITY)`, which models an
    /// unreachable memory level.
    fn div(self, rhs: Bandwidth) -> Seconds {
        if rhs.is_zero() {
            Seconds(f64::INFINITY)
        } else {
            Seconds(self.0 as f64 / rhs.0)
        }
    }
}

impl Div<ComputeRate> for FlopCount {
    type Output = Seconds;
    /// Time to execute `self` FLOPs on a device with the given compute rate.
    fn div(self, rhs: ComputeRate) -> Seconds {
        if rhs.is_zero() {
            Seconds(f64::INFINITY)
        } else {
            Seconds(self.0 / rhs.0)
        }
    }
}

impl Div<ByteSize> for FlopCount {
    type Output = f64;
    /// Operational intensity: FLOPs per byte accessed (classic roofline x-axis).
    fn div(self, rhs: ByteSize) -> f64 {
        if rhs.is_zero() {
            f64::INFINITY
        } else {
            self.0 / rhs.0 as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_conversions_round_trip() {
        let b = ByteSize::from_gib(16.0);
        assert_eq!(b.as_bytes(), 16 * 1024 * 1024 * 1024);
        assert!((b.as_gib() - 16.0).abs() < 1e-12);
        assert_eq!(ByteSize::from_mib(1.5).as_bytes(), 1536 * 1024);
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::from_bytes(100);
        let b = ByteSize::from_bytes(40);
        assert_eq!(a + b, ByteSize::from_bytes(140));
        assert_eq!(a - b, ByteSize::from_bytes(60));
        assert_eq!(a.saturating_sub(ByteSize::from_bytes(200)), ByteSize::ZERO);
        assert_eq!(a.checked_sub(ByteSize::from_bytes(200)), None);
        assert_eq!(a * 3, ByteSize::from_bytes(300));
        assert_eq!(3 * a, ByteSize::from_bytes(300));
        assert_eq!(a.scale(0.5), ByteSize::from_bytes(50));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn byte_size_display_selects_unit() {
        assert_eq!(format!("{}", ByteSize::from_bytes(12)), "12 B");
        assert_eq!(format!("{}", ByteSize::from_kib(2.0)), "2.00 KiB");
        assert_eq!(format!("{}", ByteSize::from_mib(3.5)), "3.50 MiB");
        assert_eq!(format!("{}", ByteSize::from_gib(1.25)), "1.25 GiB");
    }

    #[test]
    fn byte_size_sums() {
        let total: ByteSize = (1..=4).map(ByteSize::from_bytes).sum();
        assert_eq!(total, ByteSize::from_bytes(10));
    }

    #[test]
    fn flop_count_sub_saturates_at_zero() {
        let a = FlopCount::from_flops(10.0);
        let b = FlopCount::from_flops(25.0);
        assert_eq!((a - b).as_flops(), 0.0);
    }

    #[test]
    fn bandwidth_and_rate_conversions() {
        let bw = Bandwidth::from_gb_per_sec(32.0);
        assert!((bw.as_bytes_per_sec() - 32e9).abs() < 1.0);
        let p = ComputeRate::from_tflops_per_sec(242.0);
        assert!((p.as_gflops_per_sec() - 242_000.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_time_is_bytes_over_bandwidth() {
        let t = ByteSize::from_gib(2.0) / Bandwidth::from_gb_per_sec(16.0);
        let expected = 2.0 * 1024f64.powi(3) / 16e9;
        assert!((t.as_secs() - expected).abs() < 1e-12);
    }

    #[test]
    fn compute_time_is_flops_over_rate() {
        let t = FlopCount::from_flops(4.0e12) / ComputeRate::from_tflops_per_sec(2.0);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn division_by_zero_rates_is_infinite_time() {
        assert!((ByteSize::from_bytes(1) / Bandwidth::ZERO)
            .as_secs()
            .is_infinite());
        assert!((FlopCount::from_flops(1.0) / ComputeRate::ZERO)
            .as_secs()
            .is_infinite());
    }

    #[test]
    fn operational_intensity_is_flops_per_byte() {
        let i = FlopCount::from_flops(400.0) / ByteSize::from_bytes(100);
        assert!((i - 4.0).abs() < 1e-12);
        assert!((FlopCount::from_flops(1.0) / ByteSize::ZERO).is_infinite());
    }

    #[test]
    fn seconds_arithmetic_and_display() {
        let a = Seconds::from_millis(1.5);
        let b = Seconds::from_micros(500.0);
        assert!(((a + b).as_millis() - 2.0).abs() < 1e-12);
        assert!(((a - b).as_millis() - 1.0).abs() < 1e-12);
        assert_eq!((b - a).as_secs(), 0.0, "subtraction saturates at zero");
        assert_eq!(format!("{}", Seconds::from_secs(2.0)), "2.000 s");
        assert_eq!(format!("{}", Seconds::from_millis(2.0)), "2.000 ms");
        assert_eq!(format!("{}", Seconds::from_micros(2.0)), "2.000 µs");
    }

    #[test]
    fn time_key_is_a_total_order_matching_f64_comparison() {
        let times = [0.0, 1e-12, 0.5, 1.0, 1e9, f64::INFINITY];
        for w in times.windows(2) {
            assert!(
                Seconds::from_secs(w[0]).key() < Seconds::from_secs(w[1]).key(),
                "{} must key below {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(
            Seconds::from_secs(3.25).key(),
            Seconds::from_secs(3.25).key()
        );
        assert_eq!(TimeKey::from(Seconds::ZERO), Seconds::ZERO.key());
        // NaN keys deterministically *after* every ordinary instant (instead
        // of comparing equal to everything, the partial_cmp pitfall).
        let nan = Seconds(f64::NAN).key();
        assert!(nan > Seconds::from_secs(f64::INFINITY).key());
        assert_eq!(nan, Seconds(f64::NAN).key(), "NaN keys are stable");
        // A key gives back its instant bit for bit, signed zeros and NaN too.
        for x in [
            0.0,
            -0.0,
            1e-300,
            2.5,
            -7.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(Seconds(x).key().secs().0.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        assert_eq!(FlopCount::from_flops(-1.0).as_flops(), 0.0);
        assert_eq!(Bandwidth::from_gb_per_sec(-5.0).as_gb_per_sec(), 0.0);
        assert_eq!(
            ComputeRate::from_tflops_per_sec(-5.0).as_flops_per_sec(),
            0.0
        );
        assert_eq!(Seconds::from_secs(-5.0).as_secs(), 0.0);
    }
}
