//! Trivial reference forecasters.
//!
//! - [`MovingAverageForecaster`] reproduces Knative's default autoscaler
//!   input: the mean of a sliding window (60 s stable window by default).
//! - [`NaiveForecaster`] persists the last observation; the weakest
//!   sensible baseline and a useful sanity bound in tests.

use crate::Forecaster;

/// Sliding-window moving average (Knative's stable-window behaviour).
#[derive(Debug, Clone)]
pub struct MovingAverageForecaster {
    window: usize,
}

impl MovingAverageForecaster {
    /// Creates a moving-average forecaster over the trailing `window`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MovingAverageForecaster { window }
    }

    /// Knative's default: a 1-minute window (1 sample at minute scale).
    pub fn knative() -> Self {
        MovingAverageForecaster::new(1)
    }
}

impl Forecaster for MovingAverageForecaster {
    fn name(&self) -> &'static str {
        "moving-average"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() {
            return vec![0.0; horizon];
        }
        let start = history.len().saturating_sub(self.window);
        let avg = femux_stats::desc::mean(&history[start..]).max(0.0);
        vec![avg; horizon]
    }
}

/// Last-value persistence.
#[derive(Debug, Clone, Default)]
pub struct NaiveForecaster;

impl Forecaster for NaiveForecaster {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        let last = history.last().copied().unwrap_or(0.0).max(0.0);
        vec![last; horizon]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_uses_only_window() {
        let mut f = MovingAverageForecaster::new(2);
        let pred = f.forecast(&[100.0, 1.0, 3.0], 2);
        assert_eq!(pred, vec![2.0, 2.0]);
    }

    #[test]
    fn knative_window_is_last_sample() {
        let mut f = MovingAverageForecaster::knative();
        assert_eq!(f.forecast(&[9.0, 4.0], 1), vec![4.0]);
    }

    #[test]
    fn naive_persists() {
        let mut f = NaiveForecaster;
        assert_eq!(f.forecast(&[1.0, 2.0, 7.0], 3), vec![7.0; 3]);
        assert_eq!(f.forecast(&[], 2), vec![0.0; 2]);
    }

    #[test]
    fn moving_average_short_history() {
        let mut f = MovingAverageForecaster::new(10);
        assert_eq!(f.forecast(&[4.0, 6.0], 1), vec![5.0]);
        assert_eq!(f.forecast(&[], 1), vec![0.0]);
    }
}
