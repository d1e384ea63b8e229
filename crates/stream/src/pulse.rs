//! Pulsed triple decomposition: `push(sample) -> Option<emit>` with the
//! batch decomposition's exact bits.
//!
//! ## Equivalence contract
//!
//! Every emit of [`PulsedTriple::push`] is **bitwise identical** to
//! `ts3_signal::triple_decompose` applied to the same trailing window —
//! asserted across a seeded sweep in `tests/pulse_equivalence.rs`. The
//! contract holds because each pulse *replays* the batch arithmetic on
//! the current window (same ops, same order, same values) while the
//! streaming machinery changes only what batch recomputes per call:
//!
//! * the **CWT plan** (wavelet sampling, filter FFTs, inverse
//!   calibration — the dominant cost at `4*lambda + 2` FFTs per batch
//!   call) is built once in [`PulsedTriple::new`] and reused; the plan
//!   is provably call-invariant (`cwt.rs` asserts warm calls are
//!   byte-identical across plan instances);
//! * window assembly is an O(C) ring push plus two `memcpy`s instead of
//!   per-element tensor reads/writes;
//! * the trend split (Eq. 1) and the periodogram (Eq. 2) are the batch
//!   path's own slice kernels, `ts3_signal::trend_seasonal_into` and
//!   `ts3_signal::mean_amplitude_spectrum_into`, writing into reused
//!   scratch buffers — no tensor allocation per pulse;
//! * S-GD (Eq. 8–10) runs all channels at once: one lane-batched CWT
//!   pass (`CwtPlan::amplitude_lanes`, eight channels per AVX2 vector,
//!   bitwise equal per channel to the `amplitude` that `sgd_channel`
//!   calls) straight from the `[T, C]` seasonal buffer into the
//!   `[lambda, T, C]` emit, then the spectrum gradient and the inverse
//!   (`CwtPlan::inverse_into`) over the channel-interleaved grids, with
//!   no per-channel copy and, on the AVX2 path, no allocation beyond the
//!   emitted buffers.
//!
//! The trend is replayed over the whole window on every pulse rather
//! than carried across pushes: the replicate padding repeats the
//! window's *current* edge rows, so when the window slides every lane
//! near both edges changes, and each lane's running `f64` sum starts at
//! the window's first sample. No per-sample state reproduces those bits.
//!
//! Each pulse opens a `stream.pulse` span with three children:
//! `signal.trend_decompose`, `signal.periodogram` (only when `T_f` is
//! detected) and `stream.sgd`, the S-GD step (Eq. 8–10), which holds one
//! `signal.cwt.forward` span per group of up to eight channels and one
//! `signal.cwt.inverse`.
//!
//! Per push the bookkeeping is O(C); the decomposition work itself runs
//! once per `hop` pushes, so the amortized per-sample cost is
//! `O(lambda * C * T log T / hop)`. The CWT bank dominates it: at
//! `T = 96`, `lambda = 16` it runs 16 inverse FFTs of 128 or 256 points
//! per group of channels, where the batch path runs them per channel
//! (and rebuilds the plan). `stream_bench` gates the streamed-over-batch
//! ratio at >= 5x for `hop = 1`.

use crate::ring::RingWindow;
use ts3_signal::cwt::{CwtPlan, Lanes};
use ts3_signal::decompose::{spectrum_gradient_rows, trend_seasonal_into, TripleConfig};
use ts3_signal::spectrum::{dominant_period_from_spectrum, mean_amplitude_spectrum_into};
use ts3_signal::Complex32;
use ts3_tensor::Tensor;

/// Configuration of a [`PulsedTriple`] stream operator.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Window length `T` each emit decomposes (the model lookback).
    pub window: usize,
    /// Channels per sample row.
    pub channels: usize,
    /// Emit cadence: decompose once every `hop` pushes after warm-up
    /// (`1` = every sample, the equivalence-harness setting).
    pub hop: usize,
    /// The batch decomposition configuration being mirrored.
    pub triple: TripleConfig,
}

impl StreamConfig {
    /// Default streaming setup: emit every push, batch defaults for the
    /// decomposition itself.
    pub fn new(window: usize, channels: usize) -> Self {
        StreamConfig { window, channels, hop: 1, triple: TripleConfig::default() }
    }
}

/// One streaming emit: the full triple decomposition of the trailing
/// window, as flat row-major buffers (shapes in the field docs).
///
/// Layouts match the batch `TripleDecomposition` tensors exactly, so
/// `emit.trend[i * c + ch] == batch.trend.at(&[i, ch])` — bit for bit.
#[derive(Debug, Clone)]
pub struct StreamDecomposition {
    /// The exact input window the emit decomposed, `[T, C]`.
    pub window: Vec<f32>,
    /// Trend part, `[T, C]` (Eq. 1).
    pub trend: Vec<f32>,
    /// Seasonal part `x - trend`, `[T, C]`.
    pub seasonal: Vec<f32>,
    /// Regular part of the seasonal component, `[T, C]` (Eq. 10).
    pub regular: Vec<f32>,
    /// `Delta_1D` fluctuation projected to 1-D, `[T, C]`.
    pub fluctuant_1d: Vec<f32>,
    /// The fluctuant part `Delta_2D`, `[lambda, T, C]` (Eq. 9–10).
    pub fluctuant_2d: Vec<f32>,
    /// TF distribution of the seasonal part, `[lambda, T, C]` (Eq. 8).
    pub tf: Vec<f32>,
    /// The dominant sub-series length `T_f` used for chunking.
    pub t_f: usize,
    /// Total samples pushed into the stream when this emit fired.
    pub samples_seen: u64,
}

impl StreamDecomposition {
    /// The decomposed window as a `[T, C]` tensor (e.g. to feed a
    /// compiled forecast plan).
    pub fn window_tensor(&self, t: usize, c: usize) -> Tensor {
        Tensor::from_vec(self.window.clone(), &[t, c])
    }
}

/// Streaming counterpart of `ts3_signal::triple_decompose`: feed one
/// `[C]` sample row at a time; once `window` rows have been seen, every
/// `hop`-th push emits the decomposition of the trailing window.
pub struct PulsedTriple {
    cfg: StreamConfig,
    plan: CwtPlan,
    ring: RingWindow,
    pushed: u64,
    // Reused scratch: the steady-state pulse allocates only its emitted
    // output buffers.
    win: Vec<f32>,
    trend_buf: Vec<f32>,
    seasonal_buf: Vec<f32>,
    ma_scratch: Vec<f32>,
    mean_amp: Vec<f32>,
    col: Vec<f32>,
    spec: Vec<Complex32>,
    /// Channel offsets `0..C`: the S-GD lanes of a `[T, C]` row.
    channels: Vec<usize>,
}

impl PulsedTriple {
    /// Build the stream operator, including its one-time CWT plan (the
    /// work batch `triple_decompose` repeats on every call).
    pub fn new(cfg: StreamConfig) -> Self {
        let (t, c) = (cfg.window, cfg.channels);
        assert!(c >= 1, "PulsedTriple: channels must be >= 1");
        assert!(cfg.hop >= 1, "PulsedTriple: hop must be >= 1");
        if cfg.triple.t_f.is_none() {
            assert!(t >= 4, "PulsedTriple: window too short for period detection");
        } else {
            assert!(t >= 2, "PulsedTriple: window must be >= 2");
        }
        let plan = CwtPlan::new(t, cfg.triple.lambda, cfg.triple.wavelet);
        PulsedTriple {
            plan,
            ring: RingWindow::new(t, c),
            pushed: 0,
            win: vec![0.0; t * c],
            trend_buf: vec![0.0; t * c],
            seasonal_buf: vec![0.0; t * c],
            ma_scratch: Vec::new(),
            mean_amp: vec![0.0; t / 2 + 1],
            col: vec![0.0; t],
            spec: Vec::new(),
            channels: (0..c).collect(),
            cfg,
        }
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// True once a full window has been seen (emits are possible).
    pub fn ready(&self) -> bool {
        self.ring.is_full()
    }

    /// Total samples pushed so far.
    pub fn samples_seen(&self) -> u64 {
        self.pushed
    }

    /// Copy the current trailing window (oldest → newest, `[T, C]`)
    /// into a tensor. Returns `None` before the first full window.
    pub fn window_tensor(&self) -> Option<Tensor> {
        if !self.ring.is_full() {
            return None;
        }
        let (t, c) = (self.cfg.window, self.cfg.channels);
        let mut out = vec![0.0; t * c];
        self.ring.copy_into(&mut out);
        Some(Tensor::from_vec(out, &[t, c]))
    }

    /// Append one `[C]` sample row. Returns the decomposition of the
    /// trailing window on emit ticks (first full window, then every
    /// `hop` pushes), `None` otherwise.
    pub fn push(&mut self, row: &[f32]) -> Option<StreamDecomposition> {
        assert_eq!(row.len(), self.cfg.channels, "PulsedTriple::push: row width");
        self.ring.push(row);
        self.pushed += 1;
        ts3_obs::counter_add("stream.push.calls", 1);
        let warm = self.pushed >= self.cfg.window as u64;
        if !warm || (self.pushed - self.cfg.window as u64) % self.cfg.hop as u64 != 0 {
            return None;
        }
        Some(self.pulse())
    }

    /// Decompose the current trailing window: the batch kernels for
    /// Eq. 1 and Eq. 2, then `triple_decompose`'s S-GD step for every
    /// channel in one lane-batched pass on the warm plan; see the module
    /// docs for why this is both bitwise-exact and cheaper than the
    /// batch call.
    fn pulse(&mut self) -> StreamDecomposition {
        let (t, c) = (self.cfg.window, self.cfg.channels);
        let lambda = self.cfg.triple.lambda;
        let mut _s = ts3_obs::span("stream.pulse");
        if _s.active() {
            _s.field("t", t);
            _s.field("c", c);
            _s.field("lambda", lambda);
            ts3_obs::counter_add("stream.pulse.calls", 1);
        }
        self.ring.copy_into(&mut self.win);
        // Eq. 1: the batch trend kernel on the window.
        trend_seasonal_into(
            &self.win,
            t,
            c,
            &self.cfg.triple.trend_kernels,
            &mut self.ma_scratch,
            &mut self.trend_buf,
            &mut self.seasonal_buf,
        );
        // Eq. 2: T_f from the batch periodogram kernel on the seasonal
        // part (`dominant_period` is `dominant_period_from_spectrum`
        // over it, then the same clamp).
        let t_f = match self.cfg.triple.t_f {
            Some(v) => v.clamp(2, t),
            None => {
                mean_amplitude_spectrum_into(
                    &self.seasonal_buf,
                    t,
                    c,
                    &mut self.col,
                    &mut self.spec,
                    &mut self.mean_amp,
                );
                dominant_period_from_spectrum(&self.mean_amp, t).clamp(2, t)
            }
        };
        // Eq. 8–10 on the warm plan, all channels at once, in the
        // `[lambda, T, C]` / `[T, C]` layouts of the emit. Every element
        // sees `sgd_channel`'s operations on its channel: the lane bank
        // is bitwise equal to `amplitude` per series, and the spectrum
        // gradient and the inverse act element by element, so running
        // them over `C`-interleaved rows (a row of `T * C` values, a
        // chunk of `t_f * C`) changes the layout, not the arithmetic.
        let sgd = ts3_obs::span("stream.sgd");
        let mut regular = vec![0.0; t * c];
        let mut fluct_1d = vec![0.0; t * c];
        let mut fluct_2d = vec![0.0; lambda * t * c];
        let mut tf_all = vec![0.0; lambda * t * c];
        let src = Lanes { offsets: &self.channels, t_stride: c, row_stride: 0 };
        let dst = Lanes { offsets: &self.channels, t_stride: c, row_stride: t * c };
        self.plan.amplitude_lanes(&self.seasonal_buf, src, &mut tf_all, dst);
        spectrum_gradient_rows(&tf_all, lambda, t * c, t_f * c, &mut fluct_2d);
        self.plan.inverse_into(&fluct_2d, &mut fluct_1d);
        for ((r, &s), &d) in regular.iter_mut().zip(&self.seasonal_buf).zip(&fluct_1d) {
            *r = s - d;
        }
        drop(sgd);
        StreamDecomposition {
            window: self.win.clone(),
            trend: self.trend_buf.clone(),
            seasonal: self.seasonal_buf.clone(),
            regular,
            fluctuant_1d: fluct_1d,
            fluctuant_2d: fluct_2d,
            tf: tf_all,
            t_f,
            samples_seen: self.pushed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_then_hop_cadence() {
        let mut cfg = StreamConfig::new(8, 1);
        cfg.hop = 3;
        cfg.triple.lambda = 2;
        let mut p = PulsedTriple::new(cfg);
        let mut emits = Vec::new();
        for i in 0..20u64 {
            let out = p.push(&[(i as f32 * 0.7).sin()]);
            if out.is_some() {
                emits.push(i + 1); // 1-based push count
            }
        }
        // First emit at the full window, then every `hop`.
        assert_eq!(emits, vec![8, 11, 14, 17, 20]);
        assert!(p.ready());
        assert_eq!(p.samples_seen(), 20);
    }

    #[test]
    fn emit_window_is_the_trailing_window() {
        let cfg = StreamConfig { window: 6, channels: 2, hop: 1, triple: TripleConfig { lambda: 2, t_f: Some(3), ..Default::default() } };
        let mut p = PulsedTriple::new(cfg);
        let mut last = None;
        for i in 0..10 {
            let row = [i as f32, 100.0 + i as f32];
            if let Some(e) = p.push(&row) {
                last = Some(e);
            }
        }
        let e = last.expect("stream emitted");
        assert_eq!(e.samples_seen, 10);
        let expect: Vec<f32> =
            (4..10).flat_map(|i| [i as f32, 100.0 + i as f32]).collect();
        assert_eq!(e.window, expect);
        assert_eq!(p.window_tensor().expect("warm").as_slice(), &expect[..]);
    }

    #[test]
    fn reconstruction_is_close() {
        // trend + regular + fluctuant_1d ~= window (exact split of the
        // seasonal part up to inverse-CWT calibration error, as batch).
        let cfg = StreamConfig { window: 48, channels: 1, hop: 1, triple: TripleConfig { lambda: 8, ..Default::default() } };
        let mut p = PulsedTriple::new(cfg);
        let mut last = None;
        for i in 0..60 {
            let v = (2.0 * std::f32::consts::PI * i as f32 / 12.0).sin() + 0.02 * i as f32;
            if let Some(e) = p.push(&[v]) {
                last = Some(e);
            }
        }
        let e = last.expect("stream emitted");
        for i in 0..48 {
            let rec = e.trend[i] + e.regular[i] + e.fluctuant_1d[i];
            assert!((rec - e.window[i]).abs() < 1e-3, "idx {i}: {rec} vs {}", e.window[i]);
        }
    }
}
