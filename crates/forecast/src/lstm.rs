//! A from-scratch LSTM forecaster.
//!
//! This is the substrate for the Aquatope baseline (§5.1.1): Aquatope
//! trains a separate LSTM per application on a 48-minute input window.
//! The paper's comparison hinges on the *cost profile* of that approach —
//! training 4x slower and inference ~28x slower than FeMux's lightweight
//! forecasters — which any per-app gradient-trained LSTM reproduces.
//!
//! The implementation is a single-layer LSTM with a linear readout,
//! trained by truncated backpropagation through time with Adam. Gradients
//! are verified against numerical differentiation in the tests.

use femux_stats::rng::Rng;

use crate::Forecaster;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Flat parameter layout for one gate: `[W_x (h), U_h (h*h), b (h)]` per
/// hidden unit — we store all four gates plus the readout in one vector so
/// Adam and the numerical gradient check stay simple.
#[derive(Debug, Clone)]
struct Params {
    hidden: usize,
    /// Gate weights: for each gate g in {i, f, o, c} and hidden unit j:
    /// input weight, recurrent weights (hidden), bias.
    theta: Vec<f64>,
}

const GATES: usize = 4;

impl Params {
    fn gate_stride(hidden: usize) -> usize {
        1 + hidden + 1 // input weight + recurrent weights + bias
    }

    fn len(hidden: usize) -> usize {
        GATES * hidden * Self::gate_stride(hidden) + hidden + 1 // + readout
    }

    fn new(hidden: usize, rng: &mut Rng) -> Self {
        let n = Self::len(hidden);
        let scale = 1.0 / (hidden as f64).sqrt();
        let mut theta: Vec<f64> =
            (0..n).map(|_| rng.normal() * scale * 0.5).collect();
        // Forget-gate bias starts positive (standard initialization).
        for j in 0..hidden {
            let idx = Self::gate_base(hidden, 1, j) + 1 + hidden;
            theta[idx] = 1.0;
        }
        Params { hidden, theta }
    }

    fn gate_base(hidden: usize, gate: usize, unit: usize) -> usize {
        (gate * hidden + unit) * Self::gate_stride(hidden)
    }

    fn readout_base(&self) -> usize {
        GATES * self.hidden * Self::gate_stride(self.hidden)
    }
}

/// Cached activations for one timestep (needed by backprop).
#[derive(Debug, Clone)]
struct StepCache {
    x: f64,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    o: Vec<f64>,
    g: Vec<f64>,
    c: Vec<f64>,
    h: Vec<f64>,
}

fn forward_step(p: &Params, x: f64, h_prev: &[f64], c_prev: &[f64]) -> StepCache {
    let hdim = p.hidden;
    let mut gates = vec![vec![0.0; hdim]; GATES];
    for (gi, gate) in gates.iter_mut().enumerate() {
        for (j, slot) in gate.iter_mut().enumerate() {
            let base = Params::gate_base(hdim, gi, j);
            let mut acc = p.theta[base] * x;
            for (k, &h) in h_prev.iter().enumerate() {
                acc += p.theta[base + 1 + k] * h;
            }
            acc += p.theta[base + 1 + hdim];
            *slot = acc;
        }
    }
    let i: Vec<f64> = gates[0].iter().map(|&z| sigmoid(z)).collect();
    let f: Vec<f64> = gates[1].iter().map(|&z| sigmoid(z)).collect();
    let o: Vec<f64> = gates[2].iter().map(|&z| sigmoid(z)).collect();
    let g: Vec<f64> = gates[3].iter().map(|&z| z.tanh()).collect();
    let c: Vec<f64> = (0..hdim)
        .map(|j| f[j] * c_prev[j] + i[j] * g[j])
        .collect();
    let h: Vec<f64> = (0..hdim).map(|j| o[j] * c[j].tanh()).collect();
    StepCache {
        x,
        h_prev: h_prev.to_vec(),
        c_prev: c_prev.to_vec(),
        i,
        f,
        o,
        g,
        c,
        h,
    }
}

/// Runs the full sequence and returns (prediction, caches).
fn forward(p: &Params, xs: &[f64]) -> (f64, Vec<StepCache>) {
    let hdim = p.hidden;
    let mut h = vec![0.0; hdim];
    let mut c = vec![0.0; hdim];
    let mut caches = Vec::with_capacity(xs.len());
    for &x in xs {
        let cache = forward_step(p, x, &h, &c);
        h = cache.h.clone();
        c = cache.c.clone();
        caches.push(cache);
    }
    let base = p.readout_base();
    let mut y = p.theta[base + hdim];
    for (j, &hj) in h.iter().enumerate() {
        y += p.theta[base + j] * hj;
    }
    (y, caches)
}

/// Backpropagates d(loss)/d(y) = `dy` through the cached sequence,
/// returning the gradient vector (same layout as `theta`).
fn backward(p: &Params, caches: &[StepCache], dy: f64) -> Vec<f64> {
    let hdim = p.hidden;
    let mut grad = vec![0.0; p.theta.len()];
    let base = p.readout_base();
    let last_h = &caches[caches.len() - 1].h;
    for j in 0..hdim {
        grad[base + j] = dy * last_h[j];
    }
    grad[base + hdim] = dy;
    let mut dh: Vec<f64> =
        (0..hdim).map(|j| dy * p.theta[base + j]).collect();
    let mut dc = vec![0.0; hdim];
    for cache in caches.iter().rev() {
        let mut dh_prev = vec![0.0; hdim];
        let mut dc_prev = vec![0.0; hdim];
        for j in 0..hdim {
            let tanh_c = cache.c[j].tanh();
            let do_ = dh[j] * tanh_c;
            let dcj = dc[j] + dh[j] * cache.o[j] * (1.0 - tanh_c * tanh_c);
            let di = dcj * cache.g[j];
            let df = dcj * cache.c_prev[j];
            let dg = dcj * cache.i[j];
            dc_prev[j] = dcj * cache.f[j];
            // Pre-activation gradients.
            let dzi = di * cache.i[j] * (1.0 - cache.i[j]);
            let dzf = df * cache.f[j] * (1.0 - cache.f[j]);
            let dzo = do_ * cache.o[j] * (1.0 - cache.o[j]);
            let dzg = dg * (1.0 - cache.g[j] * cache.g[j]);
            for (gi, dz) in
                [dzi, dzf, dzo, dzg].into_iter().enumerate()
            {
                let gbase = Params::gate_base(hdim, gi, j);
                grad[gbase] += dz * cache.x;
                for (k, &hk) in cache.h_prev.iter().enumerate() {
                    grad[gbase + 1 + k] += dz * hk;
                    dh_prev[k] += dz * p.theta[gbase + 1 + k];
                }
                grad[gbase + 1 + hdim] += dz;
            }
        }
        dh = dh_prev;
        dc = dc_prev;
    }
    grad
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct LstmConfig {
    /// Hidden units.
    pub hidden: usize,
    /// Input window length (Aquatope: 48 minutes).
    pub window: usize,
    /// Training epochs over the sample set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Maximum training samples per epoch (subsampled deterministically).
    pub max_samples: usize,
    /// RNG seed for initialization and subsampling.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            hidden: 12,
            window: 48,
            epochs: 8,
            learning_rate: 0.01,
            max_samples: 400,
            seed: 17,
        }
    }
}

/// A per-application LSTM forecaster (Aquatope-style).
#[derive(Debug, Clone)]
pub struct LstmForecaster {
    cfg: LstmConfig,
    params: Params,
    scale: f64,
    trained: bool,
}

impl LstmForecaster {
    /// Creates an untrained LSTM; until [`LstmForecaster::train`] is
    /// called it falls back to last-value persistence.
    pub fn new(cfg: LstmConfig) -> Self {
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let params = Params::new(cfg.hidden, &mut rng);
        LstmForecaster {
            cfg,
            params,
            scale: 1.0,
            trained: false,
        }
    }

    /// Returns whether the model has been trained.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Trains on a series (e.g. the first seven days of an app's
    /// per-minute concurrency) by sliding `window`-length inputs with
    /// next-value targets. Returns the final epoch's mean squared error
    /// in normalized units.
    pub fn train(&mut self, series: &[f64]) -> f64 {
        let w = self.cfg.window;
        if series.len() < w + 2 {
            return f64::NAN;
        }
        self.scale = series
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
            .max(1e-9);
        let xs: Vec<f64> =
            series.iter().map(|&v| v / self.scale).collect();
        let n_samples = xs.len() - w;
        let mut rng = Rng::seed_from_u64(self.cfg.seed ^ 0x5EED);
        let mut order: Vec<usize> = (0..n_samples).collect();
        // Adam state.
        let mut m = vec![0.0; self.params.theta.len()];
        let mut v = vec![0.0; self.params.theta.len()];
        let mut step = 0usize;
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        let mut last_mse = f64::NAN;
        for _ in 0..self.cfg.epochs {
            rng.shuffle(&mut order);
            let take = order.len().min(self.cfg.max_samples);
            let mut sse = 0.0;
            for &s in &order[..take] {
                let input = &xs[s..s + w];
                let target = xs[s + w];
                let (y, caches) = forward(&self.params, input);
                let err = y - target;
                sse += err * err;
                let grad = backward(&self.params, &caches, 2.0 * err);
                step += 1;
                let lr = self.cfg.learning_rate;
                for (j, g) in grad.iter().enumerate() {
                    // Clip to keep early training stable.
                    let g = g.clamp(-5.0, 5.0);
                    m[j] = b1 * m[j] + (1.0 - b1) * g;
                    v[j] = b2 * v[j] + (1.0 - b2) * g * g;
                    let mh = m[j] / (1.0 - b1.powi(step as i32));
                    let vh = v[j] / (1.0 - b2.powi(step as i32));
                    self.params.theta[j] -= lr * mh / (vh.sqrt() + eps);
                }
            }
            last_mse = sse / take as f64;
        }
        self.trained = true;
        last_mse
    }
}

impl Forecaster for LstmForecaster {
    fn name(&self) -> &'static str {
        "lstm"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        if !self.trained || history.len() < self.cfg.window {
            let last = history[history.len() - 1];
            return vec![last.max(0.0); horizon];
        }
        let w = self.cfg.window;
        let mut xs: Vec<f64> = history[history.len() - w..]
            .iter()
            .map(|&v| v / self.scale)
            .collect();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let (y, _) = forward(&self.params, &xs[xs.len() - w..]);
            // Normalized inputs live in [0, 1]; cap iterated outputs so
            // autoregressive feedback cannot run away.
            let y = y.clamp(0.0, 10.0);
            xs.push(y);
            out.push(y * self.scale);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_matches_numerical() {
        let mut rng = Rng::seed_from_u64(1);
        let hidden = 3;
        let params = Params::new(hidden, &mut rng);
        let xs: Vec<f64> = (0..6).map(|_| rng.f64()).collect();
        let target = 0.7;
        let loss = |p: &Params| {
            let (y, _) = forward(p, &xs);
            (y - target) * (y - target)
        };
        let (y, caches) = forward(&params, &xs);
        let grad = backward(&params, &caches, 2.0 * (y - target));
        let eps = 1e-6;
        for j in (0..params.theta.len()).step_by(7) {
            let mut plus = params.clone();
            plus.theta[j] += eps;
            let mut minus = params.clone();
            minus.theta[j] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (grad[j] - numeric).abs() < 1e-4,
                "param {j}: analytic {} vs numeric {numeric}",
                grad[j]
            );
        }
    }

    #[test]
    fn learns_sine_wave() {
        let series: Vec<f64> = (0..600)
            .map(|t| {
                2.0 + (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
            })
            .collect();
        let mut lstm = LstmForecaster::new(LstmConfig {
            hidden: 8,
            window: 24,
            epochs: 12,
            learning_rate: 0.02,
            max_samples: 300,
            seed: 2,
        });
        let mse = lstm.train(&series[..500]);
        assert!(mse < 0.02, "training MSE {mse}");
        // One-step forecasts on held-out data.
        let mut err = 0.0;
        for t in 500..560 {
            let pred = lstm.forecast(&series[..t], 1)[0];
            err += (pred - series[t]).abs();
        }
        let mae = err / 60.0;
        assert!(mae < 0.35, "held-out MAE {mae}");
    }

    #[test]
    fn untrained_falls_back_to_naive() {
        let mut lstm = LstmForecaster::new(LstmConfig::default());
        assert!(!lstm.is_trained());
        assert_eq!(lstm.forecast(&[1.0, 3.0], 2), vec![3.0, 3.0]);
    }

    #[test]
    fn training_requires_enough_data() {
        let mut lstm = LstmForecaster::new(LstmConfig::default());
        assert!(lstm.train(&[1.0; 10]).is_nan());
        assert!(!lstm.is_trained());
    }

    #[test]
    fn forecasts_never_negative() {
        let series: Vec<f64> =
            (0..300).map(|t| ((t % 7) as f64 - 3.0).max(0.0)).collect();
        let mut lstm = LstmForecaster::new(LstmConfig {
            window: 16,
            epochs: 3,
            ..LstmConfig::default()
        });
        lstm.train(&series);
        for p in lstm.forecast(&series, 20) {
            assert!(p >= 0.0);
        }
    }

    #[test]
    fn deterministic_training() {
        let series: Vec<f64> =
            (0..200).map(|t| (t % 10) as f64).collect();
        let cfg = LstmConfig {
            window: 12,
            epochs: 2,
            ..LstmConfig::default()
        };
        let mut a = LstmForecaster::new(cfg.clone());
        let mut b = LstmForecaster::new(cfg);
        let ma = a.train(&series);
        let mb = b.train(&series);
        assert_eq!(ma, mb);
        assert_eq!(a.forecast(&series, 3), b.forecast(&series, 3));
    }
}
