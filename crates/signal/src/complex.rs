//! Minimal complex arithmetic for FFT/wavelet work.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// Complex number with `f32` components.
///
/// `repr(C)` pins the `(re, im)` pair layout so the SIMD kernels in
/// `fft_simd` may view `&[Complex32]` as interleaved `f32` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex32 {
    pub re: f32,
    pub im: f32,
}

impl Complex32 {
    /// Construct from real and imaginary parts.
    pub const fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// The additive identity.
    pub const ZERO: Complex32 = Complex32::new(0.0, 0.0);

    /// The multiplicative identity.
    pub const ONE: Complex32 = Complex32::new(1.0, 0.0);

    /// The imaginary unit.
    pub const I: Complex32 = Complex32::new(0.0, 1.0);

    /// Purely real complex number.
    pub const fn from_real(re: f32) -> Self {
        Complex32::new(re, 0.0)
    }

    /// `e^{i theta}` on the unit circle.
    pub fn from_angle(theta: f32) -> Self {
        Complex32::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex32::new(self.re, -self.im)
    }

    /// Modulus (absolute value).
    pub fn abs(self) -> f32 {
        self.re.hypot(self.im)
    }

    /// Squared modulus.
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Multiply by a real scalar.
    pub fn scale(self, s: f32) -> Self {
        Complex32::new(self.re * s, self.im * s)
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    fn add(self, rhs: Self) -> Self {
        Complex32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex32 {
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    fn sub(self, rhs: Self) -> Self {
        Complex32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    fn mul(self, rhs: Self) -> Self {
        Complex32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex32 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Complex32 {
    type Output = Complex32;
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Complex32::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    fn neg(self) -> Self {
        Complex32::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex32::new(3.0, -4.0);
        assert_eq!(z + Complex32::ZERO, z);
        assert_eq!(z * Complex32::ONE, z);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(-z, Complex32::new(-3.0, 4.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex32::I * Complex32::I, Complex32::new(-1.0, 0.0));
    }

    #[test]
    fn conjugate_multiplication_gives_norm() {
        let z = Complex32::new(2.0, 7.0);
        let zz = z * z.conj();
        assert!((zz.re - z.norm_sqr()).abs() < 1e-5);
        assert!(zz.im.abs() < 1e-5);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex32::new(1.5, -2.0);
        let b = Complex32::new(0.5, 3.0);
        let c = (a * b) / b;
        assert!((c.re - a.re).abs() < 1e-5);
        assert!((c.im - a.im).abs() < 1e-5);
    }

    #[test]
    fn from_angle_on_unit_circle() {
        let z = Complex32::from_angle(std::f32::consts::FRAC_PI_2);
        assert!(z.re.abs() < 1e-6);
        assert!((z.im - 1.0).abs() < 1e-6);
        assert!((z.abs() - 1.0).abs() < 1e-6);
    }
}
