//! Sliding-DFT periodogram: an incrementally maintained channel-mean
//! amplitude spectrum feeding the same dominant-period selection as the
//! batch path (`ts3_signal::dominant_period_from_spectrum`).
//!
//! Each `push` rotates every tracked bin by one sample —
//! `X'_f = (X_f - x_old + x_new) * e^{+2*pi*i*f/T}` — which is O(1) per
//! bin (O(T/2) for the full periodogram) instead of the O(T log T) FFT
//! the batch path pays per window. Bins are accumulated in `f64`, and
//! the monitor re-synchronizes against an exact `rfft` of its ring every
//! `resync_every` pushes, so rotation round-off cannot drift unbounded:
//! *at* a resync the spectrum is bitwise identical to the batch
//! periodogram of the same window, and between resyncs it is a
//! tight approximation (see the drift test below).
//!
//! This is deliberately a *monitor*, not part of the bitwise pulse
//! path: `PulsedTriple` re-derives `T_f` exactly per emit, while the
//! sliding DFT gives cheap per-sample visibility (period-drift
//! detection in `ts3-serve`'s online mode) without an FFT per sample.

use crate::ring::RingWindow;
use ts3_signal::fft::rfft_half_into;
use ts3_signal::spectrum::dominant_period_from_spectrum;

/// Incrementally maintained periodogram of the last `t` samples of a
/// `c`-channel stream.
#[derive(Debug, Clone)]
pub struct SlidingDft {
    t: usize,
    c: usize,
    half: usize,
    /// Bin accumulators, channel-major `[c, half + 1]`, `f64` to keep
    /// per-push rotation round-off far below `f32` resolution.
    bins_re: Vec<f64>,
    bins_im: Vec<f64>,
    /// Per-frequency rotation `e^{+2*pi*i*f/t}`.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    ring: RingWindow,
    pushes: u64,
    resync_every: u64,
}

impl SlidingDft {
    /// Monitor over a `[t, c]` window, re-synchronized against an exact
    /// FFT once per full window turnover (`resync_every = t`).
    pub fn new(t: usize, c: usize) -> Self {
        Self::with_resync(t, c, t as u64)
    }

    /// Monitor with an explicit resync cadence; `resync_every = 0`
    /// disables resyncs (pure rotation, useful for drift measurement).
    fn with_resync(t: usize, c: usize, resync_every: u64) -> Self {
        assert!(t >= 4, "SlidingDft: window too short for period detection");
        assert!(c >= 1, "SlidingDft: channels must be >= 1");
        let half = t / 2;
        let nbins = half + 1;
        let mut tw_re = Vec::with_capacity(nbins);
        let mut tw_im = Vec::with_capacity(nbins);
        for f in 0..nbins {
            let theta = 2.0 * std::f64::consts::PI * f as f64 / t as f64;
            tw_re.push(theta.cos());
            tw_im.push(theta.sin());
        }
        SlidingDft {
            t,
            c,
            half,
            bins_re: vec![0.0; c * nbins],
            bins_im: vec![0.0; c * nbins],
            tw_re,
            tw_im,
            ring: RingWindow::new(t, c),
            pushes: 0,
            resync_every,
        }
    }

    /// True once a full window has been seen.
    fn ready(&self) -> bool {
        self.ring.is_full()
    }

    /// Slide the window by one multichannel row. O(c * t/2).
    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.c, "SlidingDft::push: row width");
        let nbins = self.half + 1;
        for ch in 0..self.c {
            // Before the window is full the logical window is
            // zero-padded at the old end, so the evicted value is 0.
            let old = if self.ring.is_full() {
                // ts3-lint: allow(no-unwrap-in-lib) is_full implies a non-empty ring
                self.ring.oldest().unwrap()[ch] as f64
            } else {
                0.0
            };
            let delta = row[ch] as f64 - old;
            let (re, im) = (
                &mut self.bins_re[ch * nbins..(ch + 1) * nbins],
                &mut self.bins_im[ch * nbins..(ch + 1) * nbins],
            );
            for f in 0..nbins {
                let r = re[f] + delta;
                let i = im[f];
                re[f] = r * self.tw_re[f] - i * self.tw_im[f];
                im[f] = r * self.tw_im[f] + i * self.tw_re[f];
            }
        }
        self.ring.push(row);
        self.pushes += 1;
        ts3_obs::counter_add("stream.sdft.pushes", 1);
        if self.ring.is_full() && self.resync_every > 0 && self.pushes % self.resync_every == 0 {
            self.resync();
        }
    }

    /// Replace every bin with the exact `rfft` of the ring contents,
    /// discarding accumulated rotation round-off. Called automatically
    /// on the `resync_every` cadence once the window is full.
    fn resync(&mut self) {
        assert!(self.ring.is_full(), "SlidingDft::resync: window not full yet");
        ts3_obs::counter_add("stream.sdft.resyncs", 1);
        let nbins = self.half + 1;
        let mut col = vec![0.0f32; self.t];
        let mut spec = Vec::new();
        for ch in 0..self.c {
            for i in 0..self.t {
                col[i] = self.ring.row(i)[ch];
            }
            rfft_half_into(&col, &mut spec);
            for f in 0..nbins {
                self.bins_re[ch * nbins + f] = spec[f].re as f64;
                self.bins_im[ch * nbins + f] = spec[f].im as f64;
            }
        }
    }

    /// Channel-mean amplitude spectrum (bins `0..=t/2`), in the exact
    /// accumulation order of `ts3_signal::mean_amplitude_spectrum` —
    /// bitwise equal to it at a resync tick, approximate in between.
    fn mean_amplitude(&self) -> Vec<f32> {
        let nbins = self.half + 1;
        let mut amp = vec![0.0f32; nbins];
        for ch in 0..self.c {
            for f in 0..nbins {
                let re = self.bins_re[ch * nbins + f] as f32;
                let im = self.bins_im[ch * nbins + f] as f32;
                amp[f] += re.hypot(im) / self.c as f32;
            }
        }
        amp
    }

    /// Dominant period of the monitored spectrum (batch fallback rules).
    /// Panics before the first full window.
    fn dominant_period(&self) -> usize {
        assert!(self.ready(), "SlidingDft::dominant_period: window not full yet");
        dominant_period_from_spectrum(&self.mean_amplitude(), self.t)
    }

    /// Period-drift check: `Some(observed)` when the window is full and
    /// the monitor's dominant period disagrees with `expected` (the
    /// exact `T_f` of the matching pulse), `None` otherwise. A detected
    /// drift bumps the `stream.sdft.drift_alerts` counter; callers
    /// (the online serving loop) feed it to the flight recorder.
    pub fn drift_against(&self, expected: usize) -> Option<usize> {
        if !self.ready() {
            return None;
        }
        let observed = self.dominant_period();
        if observed == expected {
            return None;
        }
        ts3_obs::counter_add("stream.sdft.drift_alerts", 1);
        Some(observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_signal::spectrum::mean_amplitude_spectrum;
    use ts3_tensor::Tensor;

    fn series(n: usize, c: usize, f: impl Fn(usize, usize) -> f32) -> Vec<Vec<f32>> {
        (0..n).map(|i| (0..c).map(|ch| f(i, ch)).collect()).collect()
    }

    fn batch_spectrum(rows: &[Vec<f32>], t: usize, c: usize) -> Vec<f32> {
        let tail = &rows[rows.len() - t..];
        let flat: Vec<f32> = tail.iter().flatten().copied().collect();
        mean_amplitude_spectrum(&Tensor::from_vec(flat, &[t, c]))
    }

    #[test]
    fn resync_tick_is_bitwise_equal_to_batch_periodogram() {
        let (t, c) = (48, 2);
        let rows = series(3 * t, c, |i, ch| {
            (2.0 * std::f32::consts::PI * i as f32 / 12.0).sin() + 0.3 * ch as f32
        });
        let mut s = SlidingDft::new(t, c); // resync every t pushes
        for (n, row) in rows.iter().enumerate() {
            s.push(row);
            let pushes = n as u64 + 1;
            if s.ready() && pushes % t as u64 == 0 {
                let batch = batch_spectrum(&rows[..n + 1], t, c);
                let stream = s.mean_amplitude();
                for (f, (&a, &b)) in stream.iter().zip(&batch).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "bin {f} at push {pushes}");
                }
            }
        }
    }

    #[test]
    fn rotation_drift_stays_small_without_resync() {
        let (t, c) = (64, 1);
        let rows = series(6 * t, c, |i, _| {
            (2.0 * std::f32::consts::PI * i as f32 / 16.0).sin()
                + 0.5 * (2.0 * std::f32::consts::PI * i as f32 / 5.0).cos()
        });
        let mut s = SlidingDft::with_resync(t, c, 0); // never resync
        for row in &rows {
            s.push(row);
        }
        let batch = batch_spectrum(&rows, t, c);
        let stream = s.mean_amplitude();
        let scale: f32 = batch.iter().fold(0.0f32, |m, &v| m.max(v)).max(1e-6);
        for (f, (&a, &b)) in stream.iter().zip(&batch).enumerate() {
            assert!(
                (a - b).abs() <= 1e-3 * scale,
                "bin {f} drifted: stream {a} vs batch {b}"
            );
        }
    }

    #[test]
    fn tracks_dominant_period_through_a_regime_change() {
        let (t, c) = (48, 1);
        let mut s = SlidingDft::new(t, c);
        for i in 0..2 * t {
            s.push(&[(2.0 * std::f32::consts::PI * i as f32 / 12.0).sin()]);
        }
        assert_eq!(s.dominant_period(), 12);
        // Switch frequency; after a full turnover the monitor follows.
        for i in 0..2 * t {
            s.push(&[(2.0 * std::f32::consts::PI * i as f32 / 6.0).sin()]);
        }
        assert_eq!(s.dominant_period(), 6);
    }
}
