//! Lane-equivalence sweep for the lane-batched CWT filter bank.
//!
//! `CwtPlan::{amplitude,forward_complex,adjoint}_lanes` run up to eight
//! series per pass, one vector lane each, and promise every series the
//! exact operations of the single-series `amplitude` / `forward_complex`
//! / `adjoint`. This sweep holds them to it bit for bit, over lane
//! counts 1–9 (one full group plus a ragged one), series lengths whose
//! FFT lengths span 4 to 512, every wavelet kind, and zero, constant,
//! spike and noise series in three buffer layouts. A lane carrying NaN and
//! ±inf must poison only itself.
//!
//! The reference is the single-series path under the scalar dispatch.
//! The lane entry points run under AVX2 (when the host has it) and under
//! the scalar dispatch, where they loop over the single-series path. One
//! `#[test]` owns the process-global dispatch toggle.

use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_signal::{CwtPlan, Lanes, WaveletKind};
use ts3_tensor::simd::{avx2_active, set_simd_enabled};

/// Bitwise equality, except that any NaN equals any NaN: the sign and
/// payload of a NaN are not fixed by IEEE 754 arithmetic.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Series `l` of a sweep case: lane 0 is all zeros, then constant,
/// spike and seeded-noise series in turn, each distinct per lane so a
/// lane that reads its neighbour's data cannot pass.
fn series(l: usize, t_len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ (l as u64 + 1).wrapping_mul(0x9E37_79B9));
    (0..t_len)
        .map(|t| match (l, l % 4) {
            (0, _) => 0.0,
            (_, 1) => 0.5 + l as f32,
            (_, 2) => {
                if t == (7 * l) % t_len {
                    1.0 + l as f32
                } else {
                    0.0
                }
            }
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// Overwrite series `l` with NaN and ±inf samples.
fn poison(x: &mut [f32]) {
    let n = x.len();
    x[0] = f32::NAN;
    x[n / 2] = f32::INFINITY;
    x[n - 1] = f32::NEG_INFINITY;
}

/// Three buffer layouts for `lanes` series of `t_len` samples, each
/// with a `[lambda, T]` grid, one per path of the lane gather/scatter:
/// time-major with the series side by side behind a spare column (the
/// pulse's `[T, C]` / `[lambda, T, C]`), the same in reverse series
/// order, and series-major with a gap between series (the TF-Block's
/// `[lambda, T]` grids).
#[derive(Clone, Copy, Debug)]
enum Kind {
    SideBySide,
    Reversed,
    SeriesMajor,
}

struct Layout {
    offsets: Vec<usize>,
    t_stride: usize,
    row_stride: usize,
    len: usize,
}

fn layout(kind: Kind, lanes: usize, t_len: usize, lambda: usize) -> Layout {
    let c = lanes + 1;
    match kind {
        Kind::SideBySide => Layout {
            offsets: (0..lanes).map(|l| 1 + l).collect(),
            t_stride: c,
            row_stride: t_len * c,
            len: lambda * t_len * c,
        },
        Kind::Reversed => Layout {
            offsets: (0..lanes).map(|l| lanes - l).collect(),
            t_stride: c,
            row_stride: t_len * c,
            len: lambda * t_len * c,
        },
        Kind::SeriesMajor => {
            let span = lambda * t_len + 3;
            Layout {
                offsets: (0..lanes).map(|l| 3 + l * span).collect(),
                t_stride: 1,
                row_stride: t_len,
                len: 3 + lanes * span,
            }
        }
    }
}

impl Layout {
    fn lanes(&self) -> Lanes<'_> {
        Lanes { offsets: &self.offsets, t_stride: self.t_stride, row_stride: self.row_stride }
    }

    fn at(&self, l: usize, i: usize, t: usize) -> usize {
        self.offsets[l] + i * self.row_stride + t * self.t_stride
    }

    fn scatter(&self, buf: &mut [f32], l: usize, grid: &[f32], t_len: usize) {
        for (k, &v) in grid.iter().enumerate() {
            buf[self.at(l, k / t_len, k % t_len)] = v;
        }
    }

    fn gather(&self, buf: &[f32], l: usize, rows: usize, t_len: usize) -> Vec<f32> {
        (0..rows * t_len).map(|k| buf[self.at(l, k / t_len, k % t_len)]).collect()
    }
}

/// Single-series reference results of one case, per lane.
struct Reference {
    amp: Vec<Vec<f32>>,
    re: Vec<Vec<f32>>,
    im: Vec<Vec<f32>>,
    adj: Vec<Vec<f32>>,
}

struct Case<'a> {
    plan: &'a CwtPlan,
    xs: Vec<Vec<f32>>,
    g_re: Vec<Vec<f32>>,
    g_im: Vec<Vec<f32>>,
    base: Vec<Vec<f32>>,
}

impl Case<'_> {
    fn reference(&self) -> Reference {
        Reference {
            amp: self.xs.iter().map(|x| self.plan.amplitude(x)).collect(),
            re: self.xs.iter().map(|x| self.plan.forward_complex(x).0).collect(),
            im: self.xs.iter().map(|x| self.plan.forward_complex(x).1).collect(),
            adj: self
                .g_re
                .iter()
                .zip(&self.g_im)
                .zip(&self.base)
                .map(|((gr, gi), b)| {
                    let a = self.plan.adjoint(gr, gi);
                    b.iter().zip(&a).map(|(u, v)| u + v).collect()
                })
                .collect(),
        }
    }

    /// Run the three lane entry points in one layout and check each series
    /// against `want`; returns a description of the first mismatch.
    fn check(&self, want: &Reference, kind: Kind) -> Result<(), String> {
        let p = self.plan;
        let (t_len, lambda, lanes) = (p.t_len, p.lambda, self.xs.len());
        let lay = layout(kind, lanes, t_len, lambda);
        let mut x = vec![0.0f32; lay.len];
        for (l, s) in self.xs.iter().enumerate() {
            lay.scatter(&mut x, l, s, t_len);
        }
        let mut amp = vec![f32::NAN; lay.len];
        p.amplitude_lanes(&x, lay.lanes(), &mut amp, lay.lanes());
        let mut re = vec![f32::NAN; lay.len];
        let mut im = vec![f32::NAN; lay.len];
        p.forward_complex_lanes(&x, lay.lanes(), &mut re, &mut im, lay.lanes());
        let mut g_re = vec![0.0f32; lay.len];
        let mut g_im = vec![0.0f32; lay.len];
        let mut out = vec![0.0f32; lay.len];
        for l in 0..lanes {
            lay.scatter(&mut g_re, l, &self.g_re[l], t_len);
            lay.scatter(&mut g_im, l, &self.g_im[l], t_len);
            lay.scatter(&mut out, l, &self.base[l], t_len);
        }
        p.adjoint_lanes(&g_re, &g_im, lay.lanes(), &mut out, lay.lanes());
        let outputs = [
            ("amplitude", &amp, &want.amp, lambda),
            ("forward re", &re, &want.re, lambda),
            ("forward im", &im, &want.im, lambda),
            ("adjoint", &out, &want.adj, 1),
        ];
        for (what, buf, refs, rows) in outputs {
            for (l, r) in refs.iter().enumerate() {
                let got = lay.gather(buf, l, rows, t_len);
                if let Some(k) = (0..r.len()).find(|&k| !same(got[k], r[k])) {
                    return Err(format!(
                        "{what}: lane {l} of {lanes}, element {k}: {} ({:#010x}) vs {} ({:#010x})",
                        got[k],
                        got[k].to_bits(),
                        r[k],
                        r[k].to_bits()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[test]
fn lane_bank_matches_single_series_bitwise() {
    set_simd_enabled(true);
    let modes: &[bool] = if avx2_active() { &[true, false] } else { &[false] };
    if !avx2_active() {
        eprintln!("cwt_lanes: no AVX2+FMA on this host, sweeping the scalar dispatch only");
    }
    let mut cases = 0usize;
    for kind in WaveletKind::ALL {
        for lambda in [1usize, 8, 16] {
            for t_len in [2usize, 3, 17, 96, 97, 336] {
                set_simd_enabled(false);
                let plan = CwtPlan::new(t_len, lambda, kind);
                for lanes in 1..=9usize {
                    let seed = (lambda * 1000 + t_len) as u64 * 16 + lanes as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut grid = |n: usize| -> Vec<f32> {
                        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
                    };
                    let n = lambda * t_len;
                    let mut case = Case {
                        xs: (0..lanes).map(|l| series(l, t_len, seed)).collect(),
                        g_re: (0..lanes).map(|_| grid(n)).collect(),
                        g_im: (0..lanes).map(|_| grid(n)).collect(),
                        base: (0..lanes).map(|_| grid(t_len)).collect(),
                        plan: &plan,
                    };
                    // From two lanes on, alternate cases poison the
                    // middle lane (input and cotangents).
                    let poisoned = lanes >= 2 && lanes % 2 == 0;
                    if poisoned {
                        let l = lanes / 2;
                        poison(&mut case.xs[l]);
                        poison(&mut case.g_re[l]);
                    }
                    set_simd_enabled(false);
                    let want = case.reference();
                    for &simd in modes {
                        set_simd_enabled(simd);
                        for lay in [Kind::SideBySide, Kind::Reversed, Kind::SeriesMajor] {
                            if let Err(e) = case.check(&want, lay) {
                                set_simd_enabled(true);
                                panic!(
                                    "{kind:?} lambda={lambda} T={t_len} simd={simd} \
                                     layout={lay:?} poisoned={poisoned}: {e}"
                                );
                            }
                        }
                    }
                    if poisoned {
                        // The poisoned lane is NaN wherever its reference
                        // is, and no other lane saw a non-finite value.
                        for (l, a) in want.amp.iter().enumerate() {
                            let finite = a.iter().all(|v| v.is_finite());
                            assert_eq!(finite, l != lanes / 2, "lane {l} of {lanes}");
                        }
                    }
                    cases += 1;
                }
            }
        }
    }
    set_simd_enabled(true);
    assert_eq!(cases, 3 * 3 * 6 * 9);
}
