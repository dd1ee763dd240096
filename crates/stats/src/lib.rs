//! Numerical substrate for the FeMux reproduction.
//!
//! This crate collects every piece of numerics the rest of the workspace
//! depends on, implemented from scratch so that the reproduction has no
//! opaque numerical dependencies:
//!
//! - [`rng`]: deterministic xoshiro256++ PRNG and distribution samplers
//!   (normal, Poisson, Pareto, Zipf) used by the trace synthesizers.
//! - [`fft`]: radix-2 and Bluestein FFTs, harmonic extraction, and
//!   harmonic extrapolation (the FFT forecaster's engine).
//! - [`matrix`]: dense linear algebra (normal equations, LU, OLS) for
//!   the SETAR fits and the ADF regression.
//! - [`desc`]: descriptive statistics — quantiles, ECDFs, histograms,
//!   coefficient of variation — used across the characterization figures.
//! - [`acf`]: autocovariance and Levinson-Durbin (Yule-Walker solver)
//!   for the AR fits.
//! - [`adf`]: Augmented Dickey-Fuller stationarity test (block
//!   feature), as a streaming accumulator.
//! - [`bds`]: Broock-Dechert-Scheinkman independence test (block
//!   linearity feature).

pub mod acf;
pub mod adf;
pub mod bds;
pub mod desc;
pub mod fft;
pub mod matrix;
pub mod rng;

pub use desc::{Ecdf, Summary};
pub use fft::Complex;
pub use matrix::Matrix;
pub use rng::Rng;
