//! Fast Fourier Transform.
//!
//! The FFT is load-bearing in this reproduction: the paper's periodicity
//! feature (§4.3.2), the FFT forecaster (§4.3.3), and the IceBreaker
//! baseline all depend on it. We implement an iterative radix-2
//! Cooley-Tukey transform for power-of-two lengths and Bluestein's
//! chirp-z algorithm for arbitrary lengths, so 504-minute blocks can be
//! transformed without padding artifacts.
//!
//! # Plans
//!
//! What a transform needs besides its input depends only on its length
//! and direction, so each thread builds it once per length and keeps it:
//!
//! - a radix-2 plan holds the bit-reversal swaps and, per direction, the
//!   twiddles of every butterfly stage, produced by the `w = w * wlen`
//!   recurrence rather than one `cis` per twiddle, whose rounding
//!   differs: every recorded digest and figure was computed with the
//!   recurrence's values;
//! - a Bluestein plan holds the chirp and the forward transform of its
//!   zero-padded conjugate, so a call runs two power-of-two transforms
//!   instead of three and evaluates no `cis`.
//!
//! The plans hold the values the per-call code computed, and the data
//! goes through the same operations in the same order, so every output
//! is bit-identical to building them on each call (the per-call code
//! survives as the tests' reference). Plans live in thread-locals: they
//! are never shared, so they need no lock, and a `par_map` worker's
//! output cannot depend on which plans its thread already holds. The
//! workspace transforms forecast histories and feature blocks, so the
//! cached lengths are bounded by `max(history, block_len)`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::{Add, Mul, Neg, Sub};
use std::rc::Rc;
use std::thread::LocalKey;

/// A complex number in Cartesian form.
///
/// A tiny local implementation avoids pulling in a complex-number crate for
/// the handful of operations the FFT needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates `e^{i theta}` on the unit circle.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Returns the complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Returns the modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared modulus, cheaper than [`Complex::abs`].
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the argument (phase angle) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Computes the in-place forward DFT of a power-of-two-length buffer.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn fft_pow2(buf: &mut [Complex]) {
    fft_pow2_dir(buf, false);
}

/// Computes the in-place inverse DFT (including the `1/n` scaling) of a
/// power-of-two-length buffer.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn ifft_pow2(buf: &mut [Complex]) {
    fft_pow2_dir(buf, true);
    let scale = 1.0 / buf.len() as f64;
    for v in buf.iter_mut() {
        *v = v.scale(scale);
    }
}

fn fft_pow2_dir(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "length {n} is not a power of two");
    if n <= 1 {
        return;
    }
    let plan = cached(&RADIX2, n, || Radix2Plan::new(n));
    for &(i, j) in &plan.swaps {
        buf.swap(i, j);
    }
    // Iterative butterflies, reading each stage's twiddles in turn.
    let mut twiddles = plan.twiddles[usize::from(inverse)].as_slice();
    let mut len = 2;
    while len <= n {
        let (stage, rest) = twiddles.split_at(len / 2);
        for chunk in buf.chunks_mut(len) {
            let (lo, hi) = chunk.split_at_mut(len / 2);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
        twiddles = rest;
        len <<= 1;
    }
}

thread_local! {
    static RADIX2: RefCell<BTreeMap<usize, Rc<Radix2Plan>>> =
        const { RefCell::new(BTreeMap::new()) };
    static BLUESTEIN: RefCell<BTreeMap<(usize, bool), Rc<BluesteinPlan>>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Returns this thread's plan for `key`, building it on first use.
fn cached<K: Ord, P>(
    cache: &'static LocalKey<RefCell<BTreeMap<K, Rc<P>>>>,
    key: K,
    build: impl FnOnce() -> P,
) -> Rc<P> {
    if let Some(plan) = cache.with_borrow(|plans| plans.get(&key).cloned()) {
        return plan;
    }
    // Built outside any borrow: building a Bluestein plan runs a radix-2
    // transform, which looks up its own plan.
    let plan = Rc::new(build());
    cache.with_borrow_mut(|plans| plans.insert(key, Rc::clone(&plan)));
    plan
}

/// What a radix-2 transform of one power-of-two length `n >= 2` needs
/// besides its input.
struct Radix2Plan {
    /// The bit-reversal permutation as the swaps `(i, j)`, `i < j`, in
    /// the order the permutation loop makes them.
    swaps: Vec<(usize, usize)>,
    /// Forward, then inverse: the twiddles of the stages `len = 2, 4,
    /// …, n` in turn, `len / 2` each: `w_0 = 1` and `w_{k+1} = w_k *
    /// cis(∓2π / len)`.
    twiddles: [Vec<Complex>; 2],
}

impl Radix2Plan {
    fn new(n: usize) -> Self {
        let shift = n.trailing_zeros();
        let swaps = (0..n)
            .map(|i| (i, i.reverse_bits() >> (usize::BITS - shift)))
            .filter(|&(i, j)| i < j)
            .collect();
        let twiddles = [false, true].map(|inverse| {
            let sign = if inverse { 1.0 } else { -1.0 };
            let mut table = Vec::with_capacity(n - 1);
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex::cis(ang);
                let mut w = Complex::new(1.0, 0.0);
                for _ in 0..len / 2 {
                    table.push(w);
                    w = w * wlen;
                }
                len <<= 1;
            }
            table
        });
        Radix2Plan { swaps, twiddles }
    }
}

/// What Bluestein's transform of one length and direction needs besides
/// its input.
struct BluesteinPlan {
    /// `w_k = e^{sign * i * pi * k^2 / n}`.
    chirp: Vec<Complex>,
    /// The forward transform of the conjugate chirp, zero-padded to the
    /// power-of-two convolution length and wrapped around.
    kernel: Vec<Complex>,
}

impl BluesteinPlan {
    fn new(n: usize, inverse: bool) -> Self {
        let sign = if inverse { 1.0 } else { -1.0 };
        // Using k^2 mod 2n keeps the angle argument small for long
        // inputs, preserving precision.
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let mut kernel = vec![Complex::ZERO; m];
        for k in 0..n {
            kernel[k] = chirp[k].conj();
        }
        for k in 1..n {
            kernel[m - k] = chirp[k].conj();
        }
        fft_pow2(&mut kernel);
        BluesteinPlan { chirp, kernel }
    }
}

/// Computes the forward DFT of a buffer of arbitrary length.
///
/// Power-of-two lengths dispatch to the radix-2 kernel; other lengths use
/// Bluestein's chirp-z transform, which re-expresses the DFT as a circular
/// convolution of power-of-two length.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut buf = input.to_vec();
        fft_pow2(&mut buf);
        return buf;
    }
    bluestein(input, false)
}

/// Computes the inverse DFT (including `1/n` scaling) of arbitrary length.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut buf = input.to_vec();
        ifft_pow2(&mut buf);
        return buf;
    }
    let mut out = bluestein(input, true);
    let scale = 1.0 / n as f64;
    for v in &mut out {
        *v = v.scale(scale);
    }
    out
}

/// Bluestein's chirp-z transform: the DFT as a circular convolution of
/// power-of-two length.
fn bluestein(input: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = input.len();
    let plan =
        cached(&BLUESTEIN, (n, inverse), || BluesteinPlan::new(n, inverse));
    let mut a = vec![Complex::ZERO; plan.kernel.len()];
    for ((a, &x), &w) in a.iter_mut().zip(input).zip(&plan.chirp) {
        *a = x * w;
    }
    fft_pow2(&mut a);
    for (x, y) in a.iter_mut().zip(&plan.kernel) {
        *x = *x * *y;
    }
    ifft_pow2(&mut a);
    a.iter().zip(&plan.chirp).map(|(&x, &w)| x * w).collect()
}

/// Computes the DFT of a real-valued signal.
pub fn rfft(signal: &[f64]) -> Vec<Complex> {
    let input: Vec<Complex> =
        signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft(&input)
}

/// A single spectral component of a real signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harmonic {
    /// Frequency-bin index in `[0, n/2]`.
    pub bin: usize,
    /// Amplitude of the reconstructed sinusoid.
    pub amplitude: f64,
    /// Phase of the component in radians.
    pub phase: f64,
}

impl Harmonic {
    /// Evaluates this harmonic's contribution at sample `t` of an
    /// `n`-sample signal.
    pub fn eval(&self, t: f64, n: usize) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * self.bin as f64 / n as f64;
        self.amplitude * (omega * t + self.phase).cos()
    }
}

/// Extracts the `k` largest-amplitude harmonics (excluding the DC term) of a
/// real signal, plus the DC mean, exactly as the paper's FFT forecaster
/// keeps the "top 10 harmonics".
///
/// Returns `(mean, harmonics)` where `harmonics` is sorted by descending
/// amplitude. Only bins `1..=n/2` are considered; each bin's conjugate pair
/// is folded into a single real sinusoid. Bins with a non-finite amplitude
/// (a single `NaN`/`∞` sample poisons every bin of the transform) carry no
/// usable harmonic and are dropped rather than ranked.
pub fn top_harmonics(signal: &[f64], k: usize) -> (f64, Vec<Harmonic>) {
    if signal.is_empty() {
        return (0.0, Vec::new());
    }
    strongest_harmonics(&rfft(signal), k)
}

/// [`top_harmonics`] of a real signal's full, non-empty spectrum.
fn strongest_harmonics(spec: &[Complex], k: usize) -> (f64, Vec<Harmonic>) {
    let n = spec.len();
    let mean = spec[0].re / n as f64;
    let half = n / 2;
    let mut comps: Vec<Harmonic> = (1..=half)
        .map(|bin| {
            // A real sinusoid of amplitude A splits A/2 into bin and its
            // conjugate; the Nyquist bin (even n) is unpaired.
            let pair = if n.is_multiple_of(2) && bin == half { 1.0 } else { 2.0 };
            Harmonic {
                bin,
                amplitude: pair * spec[bin].abs() / n as f64,
                phase: spec[bin].arg(),
            }
        })
        .filter(|h| h.amplitude.is_finite())
        .collect();
    comps.sort_by(|a, b| b.amplitude.total_cmp(&a.amplitude));
    comps.truncate(k);
    (mean, comps)
}

/// Extrapolates a real signal `horizon` steps past its end using its `k`
/// strongest harmonics.
///
/// This is the core of the FFT forecaster used by both FeMux's forecaster
/// set and the IceBreaker baseline.
pub fn harmonic_extrapolate(
    signal: &[f64],
    k: usize,
    horizon: usize,
) -> Vec<f64> {
    let n = signal.len();
    if n == 0 {
        return vec![0.0; horizon];
    }
    let (mean, harmonics) = top_harmonics(signal, k);
    (0..horizon)
        .map(|h| {
            let t = (n + h) as f64;
            mean + harmonics.iter().map(|c| c.eval(t, n)).sum::<f64>()
        })
        .collect()
}

/// Computes the one-sided power spectral density of a real signal
/// (excluding DC), normalized so the entries sum to the signal's variance.
pub fn power_spectrum(signal: &[f64]) -> Vec<f64> {
    femux_obs::counter_add("stats.fft.power_spectra", 1);
    if signal.len() < 2 {
        return Vec::new();
    }
    one_sided_power(&rfft(signal))
}

/// [`power_spectrum`] of a real signal's full spectrum.
fn one_sided_power(spec: &[Complex]) -> Vec<f64> {
    let n = spec.len();
    let half = n / 2;
    (1..=half)
        .map(|bin| {
            let pair = if n.is_multiple_of(2) && bin == half { 1.0 } else { 2.0 };
            pair * spec[bin].norm_sq() / (n as f64 * n as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The radix-2 kernel the plans replaced, kept verbatim as their
    /// bit-identity reference: the bit reversal and the twiddle
    /// recurrence run inline on every call.
    fn reference_fft_pow2_dir(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        assert!(n.is_power_of_two(), "length {n} is not a power of two");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        let shift = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - shift);
            if i < j {
                buf.swap(i, j);
            }
        }
        // Iterative butterflies.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            for chunk in buf.chunks_mut(len) {
                let mut w = Complex::new(1.0, 0.0);
                let (lo, hi) = chunk.split_at_mut(len / 2);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                    w = w * wlen;
                }
            }
            len <<= 1;
        }
    }

    fn reference_ifft_pow2(buf: &mut [Complex]) {
        reference_fft_pow2_dir(buf, true);
        let scale = 1.0 / buf.len() as f64;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// See [`reference_fft_pow2_dir`]: the chirp and its transform are
    /// rebuilt on every call, three radix-2 transforms in all.
    fn reference_bluestein(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let mut a = vec![Complex::ZERO; m];
        let mut b = vec![Complex::ZERO; m];
        for k in 0..n {
            a[k] = input[k] * chirp[k];
            b[k] = chirp[k].conj();
        }
        for k in 1..n {
            b[m - k] = chirp[k].conj();
        }
        reference_fft_pow2_dir(&mut a, false);
        reference_fft_pow2_dir(&mut b, false);
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x = *x * *y;
        }
        reference_ifft_pow2(&mut a);
        (0..n).map(|k| a[k] * chirp[k]).collect()
    }

    fn reference_fft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        if n.is_power_of_two() {
            let mut buf = input.to_vec();
            reference_fft_pow2_dir(&mut buf, false);
            return buf;
        }
        reference_bluestein(input, false)
    }

    fn reference_ifft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        if n.is_power_of_two() {
            let mut buf = input.to_vec();
            reference_ifft_pow2(&mut buf);
            return buf;
        }
        let mut out = reference_bluestein(input, true);
        let scale = 1.0 / n as f64;
        for v in &mut out {
            *v = v.scale(scale);
        }
        out
    }

    fn reference_rfft(signal: &[f64]) -> Vec<Complex> {
        let input: Vec<Complex> =
            signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        reference_fft(&input)
    }

    fn assert_bits(got: &[Complex], want: &[Complex], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits()
                    && g.im.to_bits() == w.im.to_bits(),
                "{what}: bin {k}: {g:?} vs {w:?}"
            );
        }
    }

    fn seeded_complex(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex::new(rng.normal(), rng.normal()))
            .collect()
    }

    #[test]
    fn planned_transforms_match_the_per_call_kernels_bit_for_bit() {
        let lengths = (1..=64).chain([120, 504, 1000, 1024]);
        for n in lengths {
            let input = seeded_complex(n, n as u64);
            assert_bits(
                &fft(&input),
                &reference_fft(&input),
                &format!("fft {n}"),
            );
            assert_bits(
                &ifft(&input),
                &reference_ifft(&input),
                &format!("ifft {n}"),
            );
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "needs a fresh thread with an empty plan cache; it records no telemetry"
    )]
    fn cached_plans_match_cold_ones() {
        let input = seeded_complex(504, 7);
        // The first call builds this thread's plans, the second reuses
        // them, and a fresh thread builds its own.
        let cold = fft(&input);
        let warm = fft(&input);
        let other = std::thread::scope(|s| {
            s.spawn(|| fft(&input)).join().expect("fft thread")
        });
        assert_bits(&warm, &cold, "cached plan");
        assert_bits(&other, &cold, "fresh thread");
        assert_bits(&cold, &reference_fft(&input), "reference");
    }

    #[test]
    fn real_transforms_match_the_per_call_kernels_bit_for_bit() {
        let mut windows: Vec<(String, Vec<f64>)> = Vec::new();
        for (seed, n) in
            [(1u64, 120usize), (2, 504), (3, 64), (4, 7), (5, 1000)]
        {
            let mut rng = Rng::seed_from_u64(seed);
            let xs = (0..n).map(|_| rng.lognormal(1.0, 0.8)).collect();
            windows.push((format!("seeded-{n}"), xs));
        }
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
        ] {
            let mut xs = seeded_complex(504, 11)
                .iter()
                .map(|c| c.re.abs())
                .collect::<Vec<f64>>();
            xs[100] = bad;
            windows.push((format!("{bad:e}-504"), xs.clone()));
            windows.push((format!("{bad:e}-120"), xs[..120].to_vec()));
        }
        windows.push(("all-max".into(), vec![f64::MAX; 120]));
        for (name, xs) in &windows {
            let want = reference_rfft(xs);
            assert_bits(&rfft(xs), &want, &format!("rfft {name}"));
            let power = power_spectrum(xs);
            let want_power = one_sided_power(&want);
            assert_eq!(power.len(), want_power.len(), "{name}");
            for (g, w) in power.iter().zip(&want_power) {
                assert_eq!(g.to_bits(), w.to_bits(), "power {name}");
            }
            for k in [3, 10] {
                let (mean, comps) = top_harmonics(xs, k);
                let (want_mean, want_comps) = strongest_harmonics(&want, k);
                assert_eq!(mean.to_bits(), want_mean.to_bits(), "mean {name}");
                assert_eq!(comps.len(), want_comps.len(), "harmonics {name}");
                for (g, w) in comps.iter().zip(&want_comps) {
                    assert!(
                        g.bin == w.bin
                            && g.amplitude.to_bits() == w.amplitude.to_bits()
                            && g.phase.to_bits() == w.phase.to_bits(),
                        "harmonics {name}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    fn naive_dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (t, x) in input.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * t) as f64
                        / n as f64;
                    acc = acc + *x * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn top_harmonics_nonfinite_window_drops_bins_instead_of_panicking() {
        // Regression (serve parity gate, adversarial battery): a
        // 64-sample window with one NaN — e.g. a lost concurrency
        // report reaching the FFT forecaster unsanitized — poisons
        // every spectral bin, and the amplitude ranking used to panic
        // in `partial_cmp` ("amplitudes are finite"). Non-finite bins
        // are now dropped and the sort is total.
        let mut nan_window = vec![1.0; 64];
        nan_window[10] = f64::NAN;
        let (_, comps) = top_harmonics(&nan_window, 3);
        assert!(
            comps.iter().all(|c| c.amplitude.is_finite()),
            "non-finite amplitudes must never be ranked"
        );

        let mut inf_window = vec![2.0; 64];
        inf_window[5] = f64::INFINITY;
        let (_, comps) = top_harmonics(&inf_window, 3);
        assert!(comps.iter().all(|c| c.amplitude.is_finite()));

        // Extrapolation over such a window stays panic-free too.
        let out = harmonic_extrapolate(&nan_window, 3, 4);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn pow2_matches_naive() {
        let input: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        assert_close(&fft(&input), &naive_dft(&input), 1e-9);
    }

    #[test]
    fn arbitrary_length_matches_naive() {
        for n in [1usize, 2, 3, 5, 7, 12, 63, 100, 504] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), 0.0))
                .collect();
            assert_close(&fft(&input), &naive_dft(&input), 1e-7);
        }
    }

    #[test]
    fn round_trip_pow2() {
        let input: Vec<Complex> =
            (0..64).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let back = ifft(&fft(&input));
        assert_close(&back, &input, 1e-9);
    }

    #[test]
    fn round_trip_arbitrary() {
        let input: Vec<Complex> = (0..504)
            .map(|i| Complex::new((i as f64 * 0.01).cos(), 0.0))
            .collect();
        let back = ifft(&fft(&input));
        assert_close(&back, &input, 1e-7);
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        assert_eq!(harmonic_extrapolate(&[], 3, 4), vec![0.0; 4]);
    }

    #[test]
    fn pure_tone_recovered() {
        // 8 cycles over 128 samples, amplitude 3, phase pi/4.
        let n = 128;
        let signal: Vec<f64> = (0..n)
            .map(|t| {
                3.0 * (2.0 * std::f64::consts::PI * 8.0 * t as f64 / n as f64
                    + std::f64::consts::FRAC_PI_4)
                    .cos()
                    + 5.0
            })
            .collect();
        let (mean, harmonics) = top_harmonics(&signal, 1);
        assert!((mean - 5.0).abs() < 1e-9);
        assert_eq!(harmonics[0].bin, 8);
        assert!((harmonics[0].amplitude - 3.0).abs() < 1e-9);
        assert!(
            (harmonics[0].phase - std::f64::consts::FRAC_PI_4).abs() < 1e-9
        );
    }

    #[test]
    fn extrapolation_continues_periodic_signal() {
        let n = 256;
        let f = |t: f64| {
            2.0 * (2.0 * std::f64::consts::PI * 4.0 * t / n as f64).sin() + 1.0
        };
        let signal: Vec<f64> = (0..n).map(|t| f(t as f64)).collect();
        let pred = harmonic_extrapolate(&signal, 3, 32);
        for (h, p) in pred.iter().enumerate() {
            let truth = f((n + h) as f64);
            assert!((p - truth).abs() < 1e-6, "h={h}: {p} vs {truth}");
        }
    }

    #[test]
    fn power_spectrum_sums_to_variance() {
        let signal: Vec<f64> = (0..200)
            .map(|t| (t as f64 * 0.3).sin() + 0.5 * (t as f64 * 1.1).cos())
            .collect();
        let mean = signal.iter().sum::<f64>() / signal.len() as f64;
        let var = signal.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / signal.len() as f64;
        let total: f64 = power_spectrum(&signal).iter().sum();
        assert!((total - var).abs() < 1e-9, "{total} vs {var}");
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
    }
}
