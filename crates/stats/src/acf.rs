//! Autocovariance and the Levinson-Durbin recursion.
//!
//! The AR forecaster, and the AR fit whose residuals the BDS linearity
//! feature tests, take their coefficients from the Yule-Walker
//! equations, which the Levinson-Durbin recursion solves in O(p^2).

use crate::desc::mean;

/// Computes the sample autocovariance at lag `k` (biased, divided by `n`).
///
/// Returns `0.0` when the series is shorter than `k + 1`.
pub fn autocovariance(xs: &[f64], k: usize) -> f64 {
    let n = xs.len();
    if n == 0 || k >= n {
        return 0.0;
    }
    let m = mean(xs);
    let mut acc = 0.0;
    for t in k..n {
        acc += (xs[t] - m) * (xs[t - k] - m);
    }
    acc / n as f64
}

/// Solves the Yule-Walker equations via Levinson-Durbin.
///
/// Returns `(phi, sigma2)` where `phi` are AR(`order`) coefficients (the
/// prediction is `sum_i phi[i] * x[t-1-i]`) and `sigma2` is the innovation
/// variance. Returns `None` for degenerate series (constant or shorter than
/// `order + 1`).
pub fn levinson_durbin(xs: &[f64], order: usize) -> Option<(Vec<f64>, f64)> {
    if xs.len() <= order || order == 0 {
        return None;
    }
    let r: Vec<f64> = (0..=order).map(|k| autocovariance(xs, k)).collect();
    if r[0] <= 1e-12 {
        return None;
    }
    let mut phi = vec![0.0; order];
    let mut prev = vec![0.0; order];
    let mut e = r[0];
    for k in 0..order {
        let mut acc = r[k + 1];
        for j in 0..k {
            acc -= prev[j] * r[k - j];
        }
        let reflection = acc / e;
        phi[k] = reflection;
        for j in 0..k {
            phi[j] = prev[j] - reflection * prev[k - 1 - j];
        }
        e *= 1.0 - reflection * reflection;
        if e <= 0.0 {
            // Perfectly predictable series; the coefficients so far are
            // already exact.
            e = 0.0;
            prev[..=k].copy_from_slice(&phi[..=k]);
            break;
        }
        prev[..=k].copy_from_slice(&phi[..=k]);
    }
    Some((phi, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn lag_zero_is_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let var = crate::desc::variance(&xs);
        assert!((autocovariance(&xs, 0) - var).abs() < 1e-12);
    }

    #[test]
    fn constant_series_graceful() {
        let xs = vec![4.0; 50];
        assert!(levinson_durbin(&xs, 3).is_none());
    }

    #[test]
    fn levinson_recovers_ar1() {
        // Simulate x_t = 0.7 x_{t-1} + eps.
        let mut rng = Rng::seed_from_u64(1);
        let mut xs = vec![0.0];
        for _ in 0..20_000 {
            let prev = *xs.last().expect("non-empty");
            xs.push(0.7 * prev + rng.normal());
        }
        let (phi, sigma2) = levinson_durbin(&xs, 1).unwrap();
        assert!((phi[0] - 0.7).abs() < 0.02, "phi {}", phi[0]);
        assert!((sigma2 - 1.0).abs() < 0.05, "sigma2 {sigma2}");
    }

    #[test]
    fn levinson_recovers_ar2() {
        let mut rng = Rng::seed_from_u64(2);
        let mut xs = vec![0.0, 0.0];
        for _ in 0..40_000 {
            let n = xs.len();
            let next = 0.5 * xs[n - 1] - 0.3 * xs[n - 2] + rng.normal();
            xs.push(next);
        }
        let (phi, _) = levinson_durbin(&xs, 2).unwrap();
        assert!((phi[0] - 0.5).abs() < 0.03, "phi0 {}", phi[0]);
        assert!((phi[1] + 0.3).abs() < 0.03, "phi1 {}", phi[1]);
    }

    #[test]
    fn levinson_rejects_short_series() {
        assert!(levinson_durbin(&[1.0, 2.0], 5).is_none());
        assert!(levinson_durbin(&[1.0, 2.0, 3.0], 0).is_none());
    }
}
