//! Physical and computational quantity newtypes.
//!
//! Every quantity is a thin wrapper over `f64` with:
//! - a checked [`new`](Time::new) constructor (panics on NaN / negative),
//!   because an architecture model that produces a negative latency has a
//!   bug that must not propagate silently;
//! - `value()` accessor returning the raw magnitude in base SI-ish units
//!   (seconds, bytes, joules, watts, hertz, FLOPs, mm²);
//! - addition/subtraction within the same quantity, scaling by `f64`, and
//!   the physically meaningful cross-type operations.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use serde::{Deserialize, Serialize};

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:expr, $allow_negative:expr
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value in base units.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN, or negative for quantities where a
            /// negative magnitude is physically meaningless.
            #[inline]
            #[track_caller]
            pub fn new(value: f64) -> Self {
                assert!(!value.is_nan(), concat!(stringify!($name), " must not be NaN"));
                if !$allow_negative {
                    assert!(
                        value >= 0.0,
                        concat!(stringify!($name), " must be non-negative, got {}"),
                        value
                    );
                }
                Self(value)
            }

            /// Raw magnitude in base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` when the magnitude is exactly zero.
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6e} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[track_caller]
            fn sub(self, rhs: Self) -> Self {
                Self::new(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[track_caller]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            #[track_caller]
            fn mul(self, rhs: f64) -> Self {
                Self::new(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            #[track_caller]
            fn mul(self, rhs: $name) -> $name {
                $name::new(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[track_caller]
            fn div(self, rhs: f64) -> Self {
                Self::new(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }
    };
}

quantity!(
    /// A duration, stored in seconds.
    Time, "s", false
);
quantity!(
    /// A data volume, stored in bytes.
    Bytes, "B", false
);
quantity!(
    /// An energy amount, stored in joules.
    Energy, "J", false
);
quantity!(
    /// A power draw, stored in watts.
    Power, "W", false
);
quantity!(
    /// A silicon area, stored in mm².
    Area, "mm^2", false
);
quantity!(
    /// A number of floating-point operations.
    Flops, "FLOP", false
);
quantity!(
    /// A clock or signalling frequency, stored in hertz.
    Frequency, "Hz", false
);
quantity!(
    /// A data rate, stored in bytes per second.
    Bandwidth, "B/s", false
);
quantity!(
    /// A compute rate, stored in FLOP per second.
    FlopsRate, "FLOP/s", false
);
quantity!(
    /// Arithmetic intensity, stored in FLOP per byte.
    ArithmeticIntensity, "FLOP/B", false
);

impl Neg for Time {
    type Output = Time;
    /// Negation exists only so that generic code using `-x` compiles; it
    /// panics at runtime on non-zero values because negative time is a bug.
    #[track_caller]
    fn neg(self) -> Time {
        Time::new(-self.0)
    }
}

// ---------------------------------------------------------------------------
// Convenience constructors / accessors
// ---------------------------------------------------------------------------

impl Time {
    /// From nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }
    /// From microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }
    /// From milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }
    /// In nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }
    /// In microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }
    /// In milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }
    /// In seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Bytes {
    /// From a whole number of bytes.
    pub fn from_u64(bytes: u64) -> Self {
        Self::new(bytes as f64)
    }
    /// From kibibytes (2^10 bytes).
    pub fn from_kib(kib: f64) -> Self {
        Self::new(kib * 1024.0)
    }
    /// From mebibytes (2^20 bytes).
    pub fn from_mib(mib: f64) -> Self {
        Self::new(mib * 1024.0 * 1024.0)
    }
    /// From gibibytes (2^30 bytes).
    pub fn from_gib(gib: f64) -> Self {
        Self::new(gib * 1024.0 * 1024.0 * 1024.0)
    }
    /// In mebibytes.
    pub fn as_mib(self) -> f64 {
        self.0 / (1024.0 * 1024.0)
    }
    /// In gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 / (1024.0 * 1024.0 * 1024.0)
    }
}

impl Energy {
    /// From picojoules.
    #[inline]
    pub fn from_picojoules(pj: f64) -> Self {
        Self::new(pj * 1e-12)
    }
    /// From millijoules.
    pub fn from_millijoules(mj: f64) -> Self {
        Self::new(mj * 1e-3)
    }
    /// In millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.0 * 1e3
    }
    /// In joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }
}

impl Power {
    /// From watts.
    pub fn from_watts(w: f64) -> Self {
        Self::new(w)
    }
    /// In watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }
}

impl Area {
    /// From square millimetres.
    pub fn from_mm2(mm2: f64) -> Self {
        Self::new(mm2)
    }
    /// In square millimetres.
    pub fn as_mm2(self) -> f64 {
        self.0
    }
}

impl Flops {
    /// From tera-FLOPs.
    pub fn from_tflops(t: f64) -> Self {
        Self::new(t * 1e12)
    }
}

impl Frequency {
    /// From megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Self::new(mhz * 1e6)
    }
}

impl Bandwidth {
    /// From GB/s (10^9 bytes per second; vendor-sheet convention).
    pub fn from_gb_per_sec(gb: f64) -> Self {
        Self::new(gb * 1e9)
    }
    /// In GB/s (10^9 bytes per second).
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 / 1e9
    }
}

impl FlopsRate {
    /// From TFLOPS.
    pub fn from_tflops(t: f64) -> Self {
        Self::new(t * 1e12)
    }
    /// In GFLOPS.
    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }
    /// In TFLOPS.
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }
}

// ---------------------------------------------------------------------------
// Cross-quantity arithmetic
// ---------------------------------------------------------------------------

impl Div<Time> for Bytes {
    type Output = Bandwidth;
    #[track_caller]
    fn div(self, rhs: Time) -> Bandwidth {
        Bandwidth::new(self.0 / rhs.0)
    }
}

impl Div<Bandwidth> for Bytes {
    type Output = Time;
    #[track_caller]
    fn div(self, rhs: Bandwidth) -> Time {
        Time::new(self.0 / rhs.0)
    }
}

impl Mul<Time> for Bandwidth {
    type Output = Bytes;
    #[track_caller]
    fn mul(self, rhs: Time) -> Bytes {
        Bytes::new(self.0 * rhs.0)
    }
}

impl Div<Time> for Flops {
    type Output = FlopsRate;
    #[track_caller]
    fn div(self, rhs: Time) -> FlopsRate {
        FlopsRate::new(self.0 / rhs.0)
    }
}

impl Div<FlopsRate> for Flops {
    type Output = Time;
    #[track_caller]
    fn div(self, rhs: FlopsRate) -> Time {
        Time::new(self.0 / rhs.0)
    }
}

impl Mul<Time> for FlopsRate {
    type Output = Flops;
    #[track_caller]
    fn mul(self, rhs: Time) -> Flops {
        Flops::new(self.0 * rhs.0)
    }
}

impl Div<Bytes> for Flops {
    type Output = ArithmeticIntensity;
    #[track_caller]
    fn div(self, rhs: Bytes) -> ArithmeticIntensity {
        ArithmeticIntensity::new(self.0 / rhs.0)
    }
}

impl Mul<Bytes> for ArithmeticIntensity {
    type Output = Flops;
    #[track_caller]
    fn mul(self, rhs: Bytes) -> Flops {
        Flops::new(self.0 * rhs.0)
    }
}

impl Mul<Bandwidth> for ArithmeticIntensity {
    /// `AI × bandwidth` is the attainable compute rate on the memory-bound
    /// side of a roofline.
    type Output = FlopsRate;
    #[track_caller]
    fn mul(self, rhs: Bandwidth) -> FlopsRate {
        FlopsRate::new(self.0 * rhs.0)
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    #[track_caller]
    fn div(self, rhs: Time) -> Power {
        Power::new(self.0 / rhs.0)
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    #[inline]
    #[track_caller]
    fn mul(self, rhs: Time) -> Energy {
        Energy::new(self.0 * rhs.0)
    }
}

impl Div<Power> for Energy {
    type Output = Time;
    #[track_caller]
    fn div(self, rhs: Power) -> Time {
        Time::new(self.0 / rhs.0)
    }
}

impl Div<FlopsRate> for Bandwidth {
    /// The roofline "machine balance" inverse: bytes per FLOP. Rarely used
    /// directly; the knee of a roofline is `FlopsRate / Bandwidth`.
    type Output = f64;
    fn div(self, rhs: FlopsRate) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<Bandwidth> for FlopsRate {
    /// Roofline knee: the arithmetic intensity at which a machine moves from
    /// memory-bound to compute-bound.
    type Output = ArithmeticIntensity;
    #[track_caller]
    fn div(self, rhs: Bandwidth) -> ArithmeticIntensity {
        ArithmeticIntensity::new(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_constructors_roundtrip() {
        assert!((Time::from_nanos(1.5).as_nanos() - 1.5).abs() < 1e-12);
        assert!((Time::from_micros(2.0).as_millis() - 0.002).abs() < 1e-12);
        assert!((Time::from_millis(3.0).as_secs() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn bytes_constructors_roundtrip() {
        assert_eq!(Bytes::from_kib(1.0).value(), 1024.0);
        assert_eq!(Bytes::from_mib(1.0).value(), 1024.0 * 1024.0);
        assert_eq!(Bytes::from_gib(2.0).as_mib(), 2048.0);
        assert_eq!(Bytes::from_u64(4).value(), 4.0);
    }

    #[test]
    fn bandwidth_units() {
        let bw = Bandwidth::from_gb_per_sec(1935.0);
        assert!((bw.value() - 1.935e12).abs() < 1e-3);
    }

    #[test]
    fn cross_ops_dimensional_identities() {
        let t = Bytes::from_gib(1.0) / (Bytes::from_gib(2.0) / Time::new(1.0));
        assert!((t.as_secs() - 0.5).abs() < 1e-12);

        let e = Power::from_watts(100.0) * Time::new(2.0);
        assert_eq!(e.as_joules(), 200.0);

        let p = Energy::new(10.0) / Time::new(5.0);
        assert_eq!(p.as_watts(), 2.0);

        let knee = FlopsRate::from_tflops(312.0) / Bandwidth::from_gb_per_sec(1935.0);
        assert!((knee.value() - 161.24).abs() < 0.01);
    }

    #[test]
    fn frequency_from_mhz() {
        assert_eq!(Frequency::from_mhz(666.0).value(), 666e6);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let _ = Time::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_energy_panics() {
        let _ = Energy::new(f64::NAN);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Time = (1..=4).map(|i| Time::new(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn display_contains_unit() {
        assert!(format!("{}", Time::new(1.0)).contains('s'));
        assert!(format!("{}", Power::from_watts(116.0)).contains('W'));
        assert!(!format!("{:?}", Bytes::ZERO).is_empty());
    }

    proptest! {
        #[test]
        fn add_commutes(a in 0.0..1e12f64, b in 0.0..1e12f64) {
            let x = Time::new(a) + Time::new(b);
            let y = Time::new(b) + Time::new(a);
            prop_assert_eq!(x.value(), y.value());
        }

        #[test]
        fn ratio_of_like_quantities_is_dimensionless(a in 1e-6..1e12f64, b in 1e-6..1e12f64) {
            let r = Bytes::new(a) / Bytes::new(b);
            prop_assert!((r - a / b).abs() <= 1e-9 * r.abs().max(1.0));
        }

        #[test]
        fn bandwidth_time_roundtrip(bytes in 1.0..1e15f64, bw in 1.0..1e13f64) {
            let t = Bytes::new(bytes) / Bandwidth::new(bw);
            let back = Bandwidth::new(bw) * t;
            prop_assert!((back.value() - bytes).abs() <= 1e-6 * bytes);
        }

        #[test]
        fn max_picks_the_larger(a in 0.0..1e9f64, b in 0.0..1e9f64) {
            let x = Energy::new(a);
            let y = Energy::new(b);
            prop_assert_eq!(x.max(y).value(), a.max(b));
        }
    }
}
