//! Continuous wavelet transform (paper Eq. 5–8), its adjoint (used for
//! back-propagation through the fixed wavelet filter bank), and a linear
//! inverse transform `IWT` (Eq. 9).
//!
//! All transforms are FFT convolutions, planned **per scale**: each
//! scale `i` uses the smallest power-of-two length `m_i >= T + N_i`
//! that keeps its *consumed* output window alias-free, not the largest
//! scale's full linear-convolution length. Every consumer reads only
//! the "same"-aligned window `[N_i, N_i + T)` of the convolution, and
//! cyclic wraparound at length `m >= T + N` folds `linear[j + m]` only
//! onto `j < N` — outside the window — so the shorter transform is
//! exact where it is read (taps longer than `m` fold mod `m` at plan
//! build, which the same argument covers). The taps shrink rapidly
//! with `i` (`N_i = O(lambda / i)`), so most of the bank runs at a
//! half or a quarter of the worst-case FFT length — the bulk of the
//! former `O(lambda * T_max log T_max)` cost. The signal
//! spectrum is computed once per distinct length (scales are ordered,
//! so each length is a contiguous run) through the packed real-input
//! transform ([`crate::fft::RealPlan`] — half-size complex FFT plus
//! conjugate mirror), and every scale is then a pointwise product plus
//! one inverse FFT at its own length.
//!
//! The plan holds the cached FFT plans for each length and runs every
//! scale through reusable per-thread scratch buffers, so a warm
//! `forward_complex`/`adjoint` call performs no per-scale allocation
//! and no per-call twiddle recomputation.
//!
//! ## Lanes
//!
//! At one scale every series runs the same FFT, so the bank also runs
//! over a batch of series ([`CwtPlan::amplitude_lanes`],
//! [`CwtPlan::forward_complex_lanes`], [`CwtPlan::adjoint_lanes`],
//! with the series located by [`Lanes`]): the pulse's channels and
//! the TF-Block's `(batch, channel)` series. When the AVX2 kernels are
//! selected (`ts3_tensor::simd::avx2_active`), up to eight series
//! share one pass, one `__m256` lane each, in lane-interleaved `[k][8]`
//! scratch: pack, half-size transform, unsplit and mirror of the real
//! input spectrum; the product with the scale's filter; the inverse
//! transform and its `1/m` scale; the amplitude or re/im epilogue. Each
//! lane performs exactly the single-series operations in the same
//! order — the butterflies' `cmul_fma` is one `fnmadd` and one `fmadd`,
//! as in `fft_simd`'s in-transform kernels — so the results are
//! bitwise those of the single-series entry points
//! (`tests/cwt_lanes.rs`). Otherwise the lane entry points loop over
//! the single-series path, which stays the reference. The single-series
//! entry points are what `triple_decompose` runs, so the streaming
//! pulse, which runs the lanes, is still checked against an
//! independent path.

use std::cell::RefCell;
use std::sync::Arc;

use crate::complex::Complex32;
use crate::fft::{next_pow2, plan_for, real_plan_for, Plan, RealPlan};
use crate::fft_simd::LANE_W;
#[cfg(target_arch = "x86_64")]
use crate::fft_simd::{
    lane_acc_rows, lane_amp_rows, lane_cmul_bitrev, lane_gather, lane_scale_rows, lane_scatter,
    lane_stages, lane_unsplit_mirror,
};
use crate::wavelet::{sample_wavelet, scale_set, WaveletKind};
use ts3_tensor::Tensor;

/// Per-thread scratch shared by all CWT plans on this thread. Every
/// element is overwritten before use, so reuse across plans and calls
/// cannot leak state.
#[derive(Default)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Scratch {
    /// Single series: signal spectrum, per-scale product, real padding.
    spec: Vec<Complex32>,
    prod: Vec<Complex32>,
    pad: Vec<f32>,
    /// Lane-interleaved (`[k][8]`) planes of the lane-batched bank:
    /// staged input rows, half-size packed transform, full spectrum,
    /// per-scale product / inverse, and two output-row planes.
    xs: Vec<f32>,
    hre: Vec<f32>,
    him: Vec<f32>,
    sre: Vec<f32>,
    sim: Vec<f32>,
    pre: Vec<f32>,
    pim: Vec<f32>,
    ya: Vec<f32>,
    yb: Vec<f32>,
}

thread_local! {
    static CWT_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Where the series of a lane-batched call live in a flat buffer:
/// series `l`'s sample `t` is at `offsets[l] + t * t_stride`, and, for
/// a `[lambda, T]` grid, row `i` starts `i * row_stride` further on.
///
/// The pulse's seven channels of a `[T, C]` window are
/// `offsets = [0, 1, .., 6]`, `t_stride = C`; their `[lambda, T, C]`
/// outputs add `row_stride = T * C`. The TF-Block's `[B, T, D]` input
/// has series `b * D + d` at `b * T * D + d`, `t_stride = D`.
#[derive(Debug, Clone, Copy)]
pub struct Lanes<'a> {
    /// Start of each series; one entry per series.
    pub offsets: &'a [usize],
    /// Distance between consecutive samples of one series.
    pub t_stride: usize,
    /// Distance between consecutive scale rows of one series' grid.
    pub row_stride: usize,
}

impl Lanes<'_> {
    /// Index of sample `t` of scale row `i` of the `l`-th series.
    #[inline]
    fn at(&self, l: usize, i: usize, t: usize) -> usize {
        self.offsets[l] + i * self.row_stride + t * self.t_stride
    }

    /// Start of scale row `i` of each series of a lane group (at most
    /// eight), in the first `offsets.len()` entries.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn bases(&self, i: usize) -> [usize; LANE_W] {
        let mut b = [0; LANE_W];
        for (d, &o) in b.iter_mut().zip(self.offsets) {
            *d = o + i * self.row_stride;
        }
        b
    }
}

/// Accumulate `out[j..] += sum_i w[i][j..] * weights[i]` for whole
/// `W`-wide column blocks from `j` on, one fused multiply-add per row
/// in row order; returns where the blocks end. Fixed-width array views
/// are the workspace's reliable vectorisation idiom (see
/// crates/signal/src/fft.rs), and a block's accumulators stay in
/// registers across the rows.
fn inverse_blocks<const W: usize>(w: &[f32], weights: &[f32], out: &mut [f32], mut j: usize) -> usize {
    let len = out.len();
    while j + W <= len {
        // ts3-lint: allow(no-unwrap-in-lib) slice length is exactly W by the loop stride; conversion cannot fail
        let mut acc: [f32; W] = out[j..j + W].try_into().unwrap();
        for (i, &wi) in weights.iter().enumerate() {
            // ts3-lint: allow(no-unwrap-in-lib) slice length is exactly W by the loop stride; conversion cannot fail
            let s: &[f32; W] = w[i * len + j..i * len + j + W].try_into().unwrap();
            for l in 0..W {
                acc[l] = s[l].mul_add(wi, acc[l]);
            }
        }
        out[j..j + W].copy_from_slice(&acc);
        j += W;
    }
    j
}

/// Copy row `r` of the lane-interleaved `[t_len][8]` staging plane into
/// `dst` (8 floats), or zeros past the series end — the zero padding of
/// the FFT convolution.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline]
fn padded_row(xs: &[f32], r: usize, t_len: usize, dst: &mut [f32]) {
    if r < t_len {
        dst.copy_from_slice(&xs[r * LANE_W..(r + 1) * LANE_W]);
    } else {
        dst.fill(0.0);
    }
}

/// Precomputed CWT plan for a fixed `(series length, lambda, wavelet)`.
pub struct CwtPlan {
    /// Series length `T`.
    pub t_len: usize,
    /// Number of spectral sub-bands (the paper's hyper-parameter lambda).
    pub lambda: usize,
    /// Wavelet generating function used by this plan.
    pub kind: WaveletKind,
    /// Scale factors `s_i = 2 lambda / i`.
    pub scales: Vec<f32>,
    /// Half filter length `N_i` per scale.
    half: Vec<usize>,
    /// Per-scale FFT length (power of two covering `T + 2 N_i`).
    /// Non-increasing in `i` — the taps shrink with the scale — so
    /// equal lengths form contiguous runs.
    fft_lens: Vec<usize>,
    /// Per scale: FFT of the *reversed* conjugated taps (for forward
    /// correlation), at that scale's FFT length.
    filt_fwd: Vec<Vec<Complex32>>,
    /// Per scale: FFT of the conjugated taps as-is (for the adjoint).
    filt_adj: Vec<Vec<Complex32>>,
    /// Reconstruction weights for the inverse transform, including the
    /// empirically calibrated admissibility constant.
    recon: Vec<f32>,
    /// Per-scale cached complex FFT plans (shared with every other user
    /// of each size through [`plan_for`]).
    plans: Vec<Arc<Plan>>,
    /// Per-scale cached real-input plans for the forward signal
    /// spectrum.
    rplans: Vec<Arc<RealPlan>>,
}

impl CwtPlan {
    /// Build a plan for series of length `t_len` with `lambda` sub-bands.
    pub fn new(t_len: usize, lambda: usize, kind: WaveletKind) -> Self {
        assert!(t_len >= 2, "CwtPlan: series length must be >= 2");
        assert!(lambda >= 1, "CwtPlan: lambda must be >= 1");
        let scales = scale_set(lambda);
        let mut half = Vec::with_capacity(lambda);
        let mut taps_all = Vec::with_capacity(lambda);
        for &s in &scales {
            let (taps, n) = sample_wavelet(kind, s);
            half.push(n);
            taps_all.push(taps);
        }
        // Per-scale FFT lengths: the smallest power of two with the
        // consumed window `[N, N + T)` alias-free under cyclic
        // convolution (see the module docs) — each scale pays for its
        // own support, and only the half of it the outputs depend on.
        let fft_lens: Vec<usize> = half.iter().map(|&n| next_pow2(t_len + n)).collect();
        let plans: Vec<Arc<Plan>> = fft_lens.iter().map(|&m| plan_for(m)).collect();
        let rplans: Vec<Arc<RealPlan>> = fft_lens.iter().map(|&m| real_plan_for(m)).collect();
        let mut filt_fwd = Vec::with_capacity(lambda);
        let mut filt_adj = Vec::with_capacity(lambda);
        for (i, taps) in taps_all.iter().enumerate() {
            let m = fft_lens[i];
            let fft = &plans[i];
            // Forward: correlation with c = conj(psi) (Eq. 5 uses the
            // conjugate), implemented as linear convolution with the
            // reversed taps.
            let c: Vec<Complex32> = taps.iter().map(|z| z.conj()).collect();
            // Taps may exceed the scale's FFT length for the widest
            // scales (2N+1 > m); folding them mod m is exactly the
            // cyclic-convolution identity the length bound relies on.
            let mut rev = vec![Complex32::ZERO; m];
            for (j, &v) in c.iter().rev().enumerate() {
                rev[j % m] += v;
            }
            fft.fft_inplace(&mut rev, false);
            filt_fwd.push(rev);
            // Adjoint: out[k] = Re( linconv(g_re + i g_im, conj(c))[k+N] ),
            // and conj(c) is the original (unconjugated) wavelet taps.
            let mut fwd = vec![Complex32::ZERO; m];
            for (j, &v) in taps.iter().enumerate() {
                fwd[j % m] += v;
            }
            fft.fft_inplace(&mut fwd, false);
            filt_adj.push(fwd);
        }
        // Inverse-transform weights: delta-s_i / s_i^{3/2}, then calibrate
        // the global admissibility constant against a broadband reference
        // so that IWT(Re(WT(x))) ~= x.
        let recon: Vec<f32> = (0..lambda)
            .map(|i| {
                let ds = if i + 1 < lambda {
                    scales[i] - scales[i + 1]
                } else {
                    scales[i] - scales[i] / 2.0
                };
                ds / scales[i].powf(1.5)
            })
            .collect();
        let mut plan = CwtPlan {
            t_len,
            lambda,
            kind,
            scales,
            half,
            fft_lens,
            filt_fwd,
            filt_adj,
            recon,
            plans,
            rplans,
        };
        let c = plan.calibrate_reconstruction();
        for w in plan.recon.iter_mut() {
            *w *= c;
        }
        plan
    }

    /// Least-squares calibration of the reconstruction constant using a
    /// deterministic broadband reference signal, against the plan's
    /// still-uncalibrated `Δs_i / s_i^{3/2}` weights.
    fn calibrate_reconstruction(&self) -> f32 {
        let t = self.t_len;
        // Deterministic pseudo-broadband reference: a sum of incommensurate
        // sinusoids spanning the analysed band.
        let x: Vec<f32> = (0..t)
            .map(|i| {
                let ti = i as f32;
                (0.37 * ti).sin() + 0.7 * (0.11 * ti + 1.0).sin() + 0.5 * (0.73 * ti + 2.0).sin()
            })
            .collect();
        let (re, _im) = self.forward_complex(&x);
        let mut y = vec![0.0f32; t];
        self.inverse_acc(&re, &self.recon, &mut y);
        let xy: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let yy: f32 = y.iter().map(|b| b * b).sum();
        if yy > 1e-12 {
            xy / yy
        } else {
            1.0
        }
    }

    /// Frequencies `F_i = F_c / s_i` of each sub-band given the wavelet's
    /// central frequency.
    pub fn band_frequencies(&self, f_c: f32) -> Vec<f32> {
        self.scales.iter().map(|&s| f_c / s).collect()
    }

    /// Run one filter bank over a real signal, handing each scale's
    /// "same"-aligned output row to `sink(scale, row)`. The signal
    /// spectrum is computed once per distinct FFT length (through the
    /// packed real-input transform plus conjugate mirror) and every
    /// scale reuses per-thread buffers — a warm call allocates nothing.
    fn apply_bank_into(
        &self,
        x: &[f32],
        bank: &[Vec<Complex32>],
        mut sink: impl FnMut(usize, &[Complex32]),
    ) {
        assert_eq!(x.len(), self.t_len, "apply_bank: signal length mismatch");
        CWT_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let Scratch { spec, prod, pad, .. } = &mut *scratch;
            let mut cur_len = 0usize;
            for (i, filt) in bank.iter().enumerate() {
                let m = self.fft_lens[i];
                if m != cur_len {
                    // New length run: real-input transform of the
                    // zero-padded signal, mirrored to the full spectrum
                    // (the filters are complex, so products need all
                    // `m` bins).
                    pad.clear();
                    pad.resize(m, 0.0);
                    pad[..self.t_len].copy_from_slice(x);
                    self.rplans[i].forward_full_into(pad, spec);
                    cur_len = m;
                }
                // Every element of `prod[..m]` is overwritten before the
                // transform, so the buffer reuse cannot leak state.
                prod.resize(m, Complex32::ZERO);
                for ((dst, &a), &b) in prod.iter_mut().zip(spec.iter()).zip(filt) {
                    *dst = a * b;
                }
                self.plans[i].fft_inplace(prod, true);
                // The taps occupy 2N+1 slots; "same" alignment starts at N.
                let n = self.half[i];
                // For the reversed filter the peak is at index 2N - N = N as
                // well (taps are symmetric in length), so both orientations
                // share the offset.
                sink(i, &prod[n..n + self.t_len]);
            }
        });
    }

    /// Open a kernel span for one CWT entry point, tagged with the plan
    /// geometry, and add the `series` it runs on to the per-entry call
    /// counter. A lane-batched group also records its `lanes` count, so
    /// the counter keeps counting series either way.
    fn cwt_obs(
        &self,
        name: &'static str,
        counter: &'static str,
        lanes: Option<usize>,
    ) -> ts3_obs::Span {
        let mut s = ts3_obs::span(name);
        if s.active() {
            s.field("t_len", self.t_len);
            s.field("lambda", self.lambda);
            if let Some(k) = lanes {
                s.field("lanes", k);
            }
            ts3_obs::counter_add(counter, lanes.unwrap_or(1) as u64);
        }
        s
    }

    /// Forward CWT of a real signal: returns `(re, im)` each of length
    /// `lambda * T` (row i = sub-band i).
    pub fn forward_complex(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let _s = self.cwt_obs("signal.cwt.forward", "signal.cwt.forward.calls", None);
        let mut re = Vec::with_capacity(self.lambda * self.t_len);
        let mut im = Vec::with_capacity(self.lambda * self.t_len);
        self.apply_bank_into(x, &self.filt_fwd, |_, row| {
            for z in row {
                re.push(z.re);
                im.push(z.im);
            }
        });
        (re, im)
    }

    /// Adjoint of [`CwtPlan::forward_complex`]: maps cotangents
    /// `(g_re, g_im)` of shape `lambda * T` back to a length-`T` cotangent
    /// of the input signal. Satisfies
    /// `<forward(x), (g_re, g_im)> == <x, adjoint(g_re, g_im)>`.
    pub fn adjoint(&self, g_re: &[f32], g_im: &[f32]) -> Vec<f32> {
        let _s = self.cwt_obs("signal.cwt.adjoint", "signal.cwt.adjoint.calls", None);
        let mut out = vec![0.0f32; self.t_len];
        self.adjoint_acc(g_re, g_im, &mut out);
        out
    }

    /// The single-series adjoint: adds scale by scale, in order, into
    /// `out` (length `T`).
    fn adjoint_acc(&self, g_re: &[f32], g_im: &[f32], out: &mut [f32]) {
        assert_eq!(g_re.len(), self.lambda * self.t_len);
        assert_eq!(g_im.len(), self.lambda * self.t_len);
        CWT_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let spec = &mut scratch.spec;
            for i in 0..self.lambda {
                // Forward was y_re = corr(x, Re c), y_im = corr(x, Im c) with
                // c = conj(psi), so the adjoint is
                //   out[k] = sum_b g_re[b] Re(c[k-b+N]) + g_im[b] Im(c[k-b+N])
                //          = Re( linconv(g_re + i g_im, conj(c))[k + N] )
                // and conj(c) = psi, whose causal-tap FFT is `filt_adj`.
                // The cotangent rows are genuinely complex, so this path
                // stays on the complex transform — at each scale's own
                // FFT length.
                let row_re = &g_re[i * self.t_len..(i + 1) * self.t_len];
                let row_im = &g_im[i * self.t_len..(i + 1) * self.t_len];
                spec.clear();
                spec.resize(self.fft_lens[i], Complex32::ZERO);
                for (dst, (&a, &b)) in spec.iter_mut().zip(row_re.iter().zip(row_im)) {
                    *dst = Complex32::new(a, b);
                }
                self.plans[i].fft_inplace(spec, false);
                for (a, &b) in spec.iter_mut().zip(&self.filt_adj[i]) {
                    *a *= b;
                }
                self.plans[i].fft_inplace(spec, true);
                let n = self.half[i];
                for (k, dst) in out.iter_mut().enumerate() {
                    *dst += spec[k + n].re;
                }
            }
        });
    }

    /// Amplitude TF distribution `Amp(WT(x))` (Eq. 7): `lambda * T` values,
    /// row-major `[lambda, T]`.
    pub fn amplitude(&self, x: &[f32]) -> Vec<f32> {
        let _s = self.cwt_obs("signal.cwt.forward", "signal.cwt.forward.calls", None);
        let mut amp = Vec::with_capacity(self.lambda * self.t_len);
        // Streams straight off the convolution rows instead of routing
        // through `forward_complex`'s split re/im buffers; the fused
        // `sqrt(re^2 + im^2)` vectorizes where `hypot` cannot.
        self.apply_bank_into(x, &self.filt_fwd, |_, row| {
            amp.extend(row.iter().map(|z| z.im.mul_add(z.im, z.re * z.re).sqrt()));
        });
        amp
    }

    /// [`CwtPlan::amplitude`] of every series `src` names in `x`,
    /// written as `[lambda, T]` grids where `dst` names them in `out`.
    /// Bitwise equal, series by series, to `amplitude`; the module docs
    /// say how the series are batched.
    pub fn amplitude_lanes(&self, x: &[f32], src: Lanes, out: &mut [f32], dst: Lanes) {
        self.forward_lanes(x, src, dst, out, None);
    }

    /// [`CwtPlan::forward_complex`] of every series `src` names in `x`,
    /// with the real and imaginary `[lambda, T]` grids written where
    /// `dst` names them in `re` and `im`. Bitwise equal, series by
    /// series, to `forward_complex`.
    pub fn forward_complex_lanes(
        &self,
        x: &[f32],
        src: Lanes,
        re: &mut [f32],
        im: &mut [f32],
        dst: Lanes,
    ) {
        self.forward_lanes(x, src, dst, re, Some(im));
    }

    /// The lane-batched forward bank: the series run in groups of up to
    /// eight, one `signal.cwt.forward` span per group. With the AVX2
    /// lane kernels selected each group is one pass
    /// (`forward_group_avx2`); otherwise each series runs the
    /// single-series bank. Writes amplitudes to `out`, or, given `im`,
    /// the real parts to `out` and the imaginary parts to `im`.
    fn forward_lanes(
        &self,
        x: &[f32],
        src: Lanes,
        dst: Lanes,
        out: &mut [f32],
        mut im: Option<&mut [f32]>,
    ) {
        assert_eq!(src.offsets.len(), dst.offsets.len(), "forward_lanes: lane count mismatch");
        assert!(src.t_stride >= 1 && dst.t_stride >= 1, "forward_lanes: zero time stride");
        for (g, group) in src.offsets.chunks(LANE_W).enumerate() {
            let lanes = group.len();
            let _s = self.cwt_obs("signal.cwt.forward", "signal.cwt.forward.calls", Some(lanes));
            let src = Lanes { offsets: group, ..src };
            let dst = Lanes { offsets: &dst.offsets[g * LANE_W..g * LANE_W + lanes], ..dst };
            #[cfg(target_arch = "x86_64")]
            if ts3_tensor::simd::avx2_active() {
                ts3_obs::counter_add("signal.cwt.sched.lanes_avx2", 1);
                CWT_SCRATCH.with(|cell| {
                    let sc = &mut *cell.borrow_mut();
                    // SAFETY: avx2_active() only returns true after runtime
                    // detection confirmed this CPU executes AVX2 and FMA.
                    unsafe { self.forward_group_avx2(sc, x, src, dst, out, im.as_deref_mut()) }
                });
                continue;
            }
            let mut col = vec![0.0f32; self.t_len];
            for l in 0..lanes {
                for (t, v) in col.iter_mut().enumerate() {
                    *v = x[src.at(l, 0, t)];
                }
                self.apply_bank_into(&col, &self.filt_fwd, |i, row| {
                    for (t, z) in row.iter().enumerate() {
                        let k = dst.at(l, i, t);
                        match im.as_deref_mut() {
                            None => out[k] = z.im.mul_add(z.im, z.re * z.re).sqrt(),
                            Some(im) => (out[k], im[k]) = (z.re, z.im),
                        }
                    }
                });
            }
        }
    }

    /// One lane group of the forward bank in one pass: at every scale
    /// all its (at most eight) series share one FFT, one vector lane
    /// each, and every lane sees exactly the operations of
    /// `apply_bank_into` — real-input spectrum, filter product, inverse
    /// transform and `1/m` scale — then the amplitude (`im = None`) or
    /// re/im epilogue.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn forward_group_avx2(
        &self,
        sc: &mut Scratch,
        x: &[f32],
        src: Lanes,
        dst: Lanes,
        out: &mut [f32],
        mut im: Option<&mut [f32]>,
    ) {
        let (t_len, lanes) = (self.t_len, src.offsets.len());
        // Stage the group as `[T][8]`; spare lanes stay zero.
        sc.xs.clear();
        sc.xs.resize(t_len * LANE_W, 0.0);
        lane_gather(x, &src.bases(0)[..lanes], src.t_stride, &mut sc.xs);
        sc.ya.resize(t_len * LANE_W, 0.0);
        sc.yb.resize(t_len * LANE_W, 0.0);
        let mut cur_len = 0usize;
        for i in 0..self.lambda {
            let m = self.fft_lens[i];
            if m != cur_len {
                self.lane_spectrum(sc, i);
                cur_len = m;
            }
            let plan = &self.plans[i];
            sc.pre.resize(m * LANE_W, 0.0);
            sc.pim.resize(m * LANE_W, 0.0);
            let filt = &self.filt_fwd[i];
            lane_cmul_bitrev(&sc.sre, &sc.sim, filt, plan.bitrev(), &mut sc.pre, &mut sc.pim);
            let (twr, twi) = plan.twiddles(true);
            lane_stages(&mut sc.pre, &mut sc.pim, twr, twi);
            // `run_pow2`'s inverse scale, applied in the epilogue.
            let s = 1.0 / m as f32;
            let n = self.half[i];
            let bases = &dst.bases(i)[..lanes];
            match im.as_deref_mut() {
                None => {
                    lane_amp_rows(&sc.pre, &sc.pim, n, s, &mut sc.ya);
                    lane_scatter(&sc.ya, bases, dst.t_stride, out);
                }
                Some(im) => {
                    lane_scale_rows(&sc.pre, &sc.pim, n, s, &mut sc.ya, &mut sc.yb);
                    lane_scatter(&sc.ya, bases, dst.t_stride, out);
                    lane_scatter(&sc.yb, bases, dst.t_stride, im);
                }
            }
        }
    }

    /// Full spectrum of the staged lanes at scale `i`'s FFT length into
    /// `sc.sre`/`sc.sim`: `RealPlan::forward_full_into`'s pack,
    /// half-size transform, unsplit and mirror, eight series at once.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn lane_spectrum(&self, sc: &mut Scratch, i: usize) {
        let m = self.fft_lens[i];
        let h = m / 2;
        let rplan = &self.rplans[i];
        let half = rplan.half_plan();
        debug_assert!(h >= 2, "CWT lengths are m >= T + 1 >= 3, so h >= 2");
        sc.hre.resize(h * LANE_W, 0.0);
        sc.him.resize(h * LANE_W, 0.0);
        // Packed z[j] = x[2j] + i·x[2j+1], gathered in bit-reversed order.
        for (k, &j) in half.bitrev().iter().enumerate() {
            let r = 2 * j as usize;
            padded_row(&sc.xs, r, self.t_len, &mut sc.hre[k * LANE_W..(k + 1) * LANE_W]);
            padded_row(&sc.xs, r + 1, self.t_len, &mut sc.him[k * LANE_W..(k + 1) * LANE_W]);
        }
        let (twr, twi) = half.twiddles(false);
        lane_stages(&mut sc.hre, &mut sc.him, twr, twi);
        sc.sre.resize(m * LANE_W, 0.0);
        sc.sim.resize(m * LANE_W, 0.0);
        let (rtwr, rtwi) = rplan.unsplit_twiddles();
        lane_unsplit_mirror(&sc.hre, &sc.him, rtwr, rtwi, &mut sc.sre, &mut sc.sim);
    }

    /// [`CwtPlan::adjoint`] of every series `src` names in the cotangent
    /// grids `g_re`/`g_im`, **added** into `out` where `dst` names each
    /// series (`out[offsets[l] + t * t_stride] += adjoint(..)[t]`).
    /// Batched like the forward entry points, one `signal.cwt.adjoint`
    /// span per group of up to eight series; bitwise equal, series by
    /// series, to `adjoint`.
    pub fn adjoint_lanes(&self, g_re: &[f32], g_im: &[f32], src: Lanes, out: &mut [f32], dst: Lanes) {
        assert_eq!(src.offsets.len(), dst.offsets.len(), "adjoint_lanes: lane count mismatch");
        assert!(src.t_stride >= 1 && dst.t_stride >= 1, "adjoint_lanes: zero time stride");
        let t_len = self.t_len;
        for (g, group) in src.offsets.chunks(LANE_W).enumerate() {
            let lanes = group.len();
            let _s = self.cwt_obs("signal.cwt.adjoint", "signal.cwt.adjoint.calls", Some(lanes));
            let src = Lanes { offsets: group, ..src };
            let dst = Lanes { offsets: &dst.offsets[g * LANE_W..g * LANE_W + lanes], ..dst };
            #[cfg(target_arch = "x86_64")]
            if ts3_tensor::simd::avx2_active() {
                ts3_obs::counter_add("signal.cwt.sched.lanes_avx2", 1);
                CWT_SCRATCH.with(|cell| {
                    let sc = &mut *cell.borrow_mut();
                    // SAFETY: avx2_active() only returns true after runtime
                    // detection confirmed this CPU executes AVX2 and FMA.
                    unsafe { self.adjoint_group_avx2(sc, g_re, g_im, src, dst, out) }
                });
                continue;
            }
            let n = self.lambda * t_len;
            let (mut row_re, mut row_im) = (vec![0.0f32; n], vec![0.0f32; n]);
            let mut acc = vec![0.0f32; t_len];
            for l in 0..lanes {
                for i in 0..self.lambda {
                    for t in 0..t_len {
                        row_re[i * t_len + t] = g_re[src.at(l, i, t)];
                        row_im[i * t_len + t] = g_im[src.at(l, i, t)];
                    }
                }
                acc.fill(0.0);
                self.adjoint_acc(&row_re, &row_im, &mut acc);
                for (t, &v) in acc.iter().enumerate() {
                    out[dst.at(l, 0, t)] += v;
                }
            }
        }
    }

    /// One lane group of the adjoint in one pass: per scale, each lane
    /// runs `adjoint_acc`'s forward FFT of its cotangent rows, the
    /// `filt_adj` product and the inverse FFT, and sums the scales in
    /// order from zero before the add into `out`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn adjoint_group_avx2(
        &self,
        sc: &mut Scratch,
        g_re: &[f32],
        g_im: &[f32],
        src: Lanes,
        dst: Lanes,
        out: &mut [f32],
    ) {
        let (t_len, lanes) = (self.t_len, src.offsets.len());
        // `ya` accumulates the scales; `xs`/`yb` stage each scale's
        // cotangent rows. Spare lanes stay zero.
        for buf in [&mut sc.ya, &mut sc.xs, &mut sc.yb] {
            buf.clear();
            buf.resize(t_len * LANE_W, 0.0);
        }
        for i in 0..self.lambda {
            let m = self.fft_lens[i];
            let plan = &self.plans[i];
            // Stage this scale's rows as `[T][8]`, then gather them
            // bit-reversed into the forward transform's input,
            // zero-padded.
            let bases = &src.bases(i)[..lanes];
            lane_gather(g_re, bases, src.t_stride, &mut sc.xs);
            lane_gather(g_im, bases, src.t_stride, &mut sc.yb);
            sc.sre.resize(m * LANE_W, 0.0);
            sc.sim.resize(m * LANE_W, 0.0);
            for (k, &j) in plan.bitrev().iter().enumerate() {
                let row = k * LANE_W..(k + 1) * LANE_W;
                padded_row(&sc.xs, j as usize, t_len, &mut sc.sre[row.clone()]);
                padded_row(&sc.yb, j as usize, t_len, &mut sc.sim[row]);
            }
            let (twr, twi) = plan.twiddles(false);
            lane_stages(&mut sc.sre, &mut sc.sim, twr, twi);
            sc.pre.resize(m * LANE_W, 0.0);
            sc.pim.resize(m * LANE_W, 0.0);
            let filt = &self.filt_adj[i];
            lane_cmul_bitrev(&sc.sre, &sc.sim, filt, plan.bitrev(), &mut sc.pre, &mut sc.pim);
            let (twr, twi) = plan.twiddles(true);
            lane_stages(&mut sc.pre, &mut sc.pim, twr, twi);
            lane_acc_rows(&sc.pre, self.half[i], 1.0 / m as f32, &mut sc.ya);
        }
        for l in 0..lanes {
            let base = dst.at(l, 0, 0);
            let span = &mut out[base..=base + (t_len - 1) * dst.t_stride];
            let col = sc.ya[l..].iter().step_by(LANE_W);
            for (o, &v) in span.iter_mut().step_by(dst.t_stride).zip(col) {
                *o += v;
            }
        }
    }

    /// Linear inverse transform of a real `[lambda, T]` coefficient grid
    /// (Eq. 9's `IWT`): weighted sum across scales with calibrated
    /// admissibility constant.
    pub fn inverse(&self, w: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.t_len];
        self.inverse_into(w, &mut out);
        out
    }

    /// [`CwtPlan::inverse`] of `k = out.len() / T` series at once, written
    /// into `out`: `w` is a `[lambda, T, k]` grid (`k = 1`: the plain
    /// `[lambda, T]` grid) and `out` its `[T, k]` reconstruction. Each
    /// element sees the single-series operations, so a `[lambda, T, C]`
    /// fluctuant grid inverts bitwise equal to `C` calls of `inverse`.
    pub fn inverse_into(&self, w: &[f32], out: &mut [f32]) {
        assert!(
            !out.is_empty() && out.len().is_multiple_of(self.t_len),
            "inverse_into: output length {} is not a multiple of T = {}",
            out.len(),
            self.t_len
        );
        let series = out.len() / self.t_len;
        let lanes = (series > 1).then_some(series);
        let _s = self.cwt_obs("signal.cwt.inverse", "signal.cwt.inverse.calls", lanes);
        out.fill(0.0);
        self.inverse_acc(w, &self.recon, out);
    }

    /// Add the `weights`-weighted sum of the `lambda` rows of `w` (each
    /// `out.len()` long) into `out`, row by row in scale order.
    fn inverse_acc(&self, w: &[f32], weights: &[f32], out: &mut [f32]) {
        let len = out.len();
        assert_eq!(w.len(), self.lambda * len, "inverse: coefficient grid mismatch");
        assert_eq!(weights.len(), self.lambda, "inverse: weight count mismatch");
        // Column blocks held in registers across all rows, then the
        // tail: each element still sees one fused multiply-add per row,
        // in row order.
        let mut j = inverse_blocks::<64>(w, weights, out, 0);
        j = inverse_blocks::<16>(w, weights, out, j);
        for (k, dst) in out.iter_mut().enumerate().skip(j) {
            for (i, &wi) in weights.iter().enumerate() {
                *dst = w[i * len + k].mul_add(wi, *dst);
            }
        }
    }

    /// Adjoint of [`CwtPlan::inverse`]: writes the `[lambda, T]`
    /// cotangent of a length-`T` cotangent `g` into `out` (row `i` is `g`
    /// scaled by scale `i`'s reconstruction weight).
    pub fn inverse_adjoint_into(&self, g: &[f32], out: &mut [f32]) {
        assert_eq!(g.len(), self.t_len, "inverse_adjoint: length mismatch");
        assert_eq!(out.len(), self.lambda * self.t_len, "inverse_adjoint: output length mismatch");
        for (row, &wi) in out.chunks_exact_mut(self.t_len).zip(&self.recon) {
            for (o, &v) in row.iter_mut().zip(g) {
                *o = wi * v;
            }
        }
    }

    /// Convenience: amplitude TF tensor of shape `[lambda, T]`.
    pub fn amplitude_tensor(&self, x: &[f32]) -> Tensor {
        Tensor::from_vec(self.amplitude(x), &[self.lambda, self.t_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sinusoid(t_len: usize, period: f32) -> Vec<f32> {
        (0..t_len)
            .map(|t| (2.0 * std::f32::consts::PI * t as f32 / period).sin())
            .collect()
    }

    #[test]
    fn amplitude_shape_and_finiteness() {
        let plan = CwtPlan::new(96, 8, WaveletKind::ComplexGaussian);
        let x = sinusoid(96, 24.0);
        let amp = plan.amplitude_tensor(&x);
        assert_eq!(amp.shape(), &[8, 96]);
        assert!(amp.all_finite());
        assert!(amp.max() > 0.0);
    }

    #[test]
    fn warm_calls_are_byte_identical() {
        // Scratch/plan reuse must not perturb results: repeated forward
        // and adjoint calls on a warm plan return identical bytes, and
        // a second plan of the same geometry agrees with the first.
        let plan = CwtPlan::new(96, 8, WaveletKind::ComplexGaussian);
        let x = sinusoid(96, 18.0);
        let g: Vec<f32> = (0..8 * 96).map(|i| ((i * 11 + 3) as f32 * 0.07).sin()).collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (re0, im0) = plan.forward_complex(&x);
        let adj0 = plan.adjoint(&g, &g);
        for _ in 0..3 {
            let (re, im) = plan.forward_complex(&x);
            assert_eq!(bits(&re0), bits(&re));
            assert_eq!(bits(&im0), bits(&im));
            assert_eq!(bits(&adj0), bits(&plan.adjoint(&g, &g)));
        }
        let plan2 = CwtPlan::new(96, 8, WaveletKind::ComplexGaussian);
        let (re2, _) = plan2.forward_complex(&x);
        assert_eq!(bits(&re0), bits(&re2));
    }

    #[test]
    fn cwt_localises_frequency() {
        // A low-frequency sinusoid must put most energy into low-frequency
        // rows (small i <-> large scale <-> low F_i), and a high-frequency
        // one into high-frequency rows.
        let plan = CwtPlan::new(128, 12, WaveletKind::ComplexGaussian);
        let energy_profile = |x: &[f32]| -> Vec<f32> {
            let amp = plan.amplitude(x);
            (0..plan.lambda)
                .map(|i| amp[i * 128..(i + 1) * 128].iter().map(|v| v * v).sum::<f32>())
                .collect()
        };
        let low = energy_profile(&sinusoid(128, 64.0));
        let high = energy_profile(&sinusoid(128, 6.0));
        let argmax = |v: &[f32]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert!(argmax(&low) < argmax(&high), "low {low:?}\nhigh {high:?}");
    }

    #[test]
    fn cwt_is_linear() {
        let plan = CwtPlan::new(64, 6, WaveletKind::ComplexGaussian);
        let a = sinusoid(64, 10.0);
        let b = sinusoid(64, 23.0);
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let (ra, ia) = plan.forward_complex(&a);
        let (rb, ib) = plan.forward_complex(&b);
        let (rs, is) = plan.forward_complex(&sum);
        for i in 0..ra.len() {
            assert!((ra[i] + rb[i] - rs[i]).abs() < 1e-3);
            assert!((ia[i] + ib[i] - is[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn adjoint_matches_transpose() {
        // <W x, g> == <x, W^T g> for arbitrary x, g.
        let plan = CwtPlan::new(48, 5, WaveletKind::ComplexGaussian);
        let x: Vec<f32> = (0..48).map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.3).collect();
        let n = plan.lambda * plan.t_len;
        let g_re: Vec<f32> = (0..n).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.1).collect();
        let g_im: Vec<f32> = (0..n).map(|i| ((i * 3 % 13) as f32 - 6.0) * 0.1).collect();
        let (y_re, y_im) = plan.forward_complex(&x);
        let lhs: f32 = y_re.iter().zip(&g_re).map(|(a, b)| a * b).sum::<f32>()
            + y_im.iter().zip(&g_im).map(|(a, b)| a * b).sum::<f32>();
        let xt = plan.adjoint(&g_re, &g_im);
        let rhs: f32 = x.iter().zip(&xt).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "lhs {lhs} rhs {rhs}"
        );
    }

    #[test]
    fn inverse_reconstructs_bandlimited_signal() {
        let plan = CwtPlan::new(128, 16, WaveletKind::ComplexGaussian);
        let x = sinusoid(128, 20.0);
        let (re, _) = plan.forward_complex(&x);
        let y = plan.inverse(&re);
        // Compare on the interior (boundary effects at the edges).
        let err: f32 = x[16..112]
            .iter()
            .zip(&y[16..112])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / 96.0;
        let energy: f32 = x[16..112].iter().map(|a| a * a).sum::<f32>() / 96.0;
        assert!(err < 0.35 * energy, "relative error {} too large", err / energy);
    }

    #[test]
    fn inverse_adjoint_matches_transpose() {
        let plan = CwtPlan::new(32, 4, WaveletKind::ComplexGaussian);
        let w: Vec<f32> = (0..128).map(|i| (i as f32 * 0.17).sin()).collect();
        let g: Vec<f32> = (0..32).map(|i| (i as f32 * 0.31).cos()).collect();
        let lhs: f32 = plan.inverse(&w).iter().zip(&g).map(|(a, b)| a * b).sum();
        let mut adj = vec![f32::NAN; 128];
        plan.inverse_adjoint_into(&g, &mut adj);
        let rhs: f32 = w.iter().zip(&adj).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn band_frequencies_increase_with_index() {
        let plan = CwtPlan::new(64, 8, WaveletKind::ComplexGaussian);
        let f = plan.band_frequencies(0.16);
        for w in f.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn different_wavelets_give_different_distributions() {
        let x = sinusoid(64, 16.0);
        let a = CwtPlan::new(64, 6, WaveletKind::ComplexGaussian).amplitude(&x);
        let b = CwtPlan::new(64, 6, WaveletKind::ComplexGaussian1).amplitude(&x);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-2);
    }
}
