//! Domain scenario 3 — exploratory analysis: run the triple decomposition
//! on an ETTh2-like transformer-load series and inspect how the energy
//! splits between trend, regular and fluctuant parts, including the
//! temporal-frequency distribution and spectrum gradient of Fig. 5.
//!
//! ```sh
//! cargo run --release --example decompose_series
//! ```

use ts3_data::spec_by_name;
use ts3_signal::{
    dominant_period, topk_periods_multi, triple_decompose, TripleConfig, WaveletKind,
};
use ts3_tensor::Tensor;

fn energy(t: &Tensor) -> f32 {
    t.as_slice().iter().map(|v| v * v).sum()
}

fn main() {
    let spec = spec_by_name("ETTh2").expect("catalog");
    let raw = spec.generate(5);
    let window = 192usize;
    let start = raw.shape()[0] / 3;
    let x = raw.narrow(0, start, window).narrow(1, 0, 1);

    // Multi-periodicity analysis (paper Eq. 2).
    println!("top-3 periods of the window (Eq. 2):");
    for comp in topk_periods_multi(&x, 3) {
        println!(
            "  frequency {:>3} -> period {:>3} samples (amplitude {:.2})",
            comp.frequency, comp.period, comp.amplitude
        );
    }
    println!("dominant period T_f = {}", dominant_period(&x));

    // Triple decomposition under each wavelet generating function.
    for kind in WaveletKind::ALL {
        let cfg = TripleConfig { lambda: 16, wavelet: kind, ..Default::default() };
        let d = triple_decompose(&x, &cfg);
        let total = energy(&x).max(1e-9);
        println!(
            "\nwavelet {:>6}: trend {:>5.1}% | regular {:>5.1}% | fluctuant {:>5.1}% | recon err {:.2e}",
            kind.name(),
            100.0 * energy(&d.trend) / total,
            100.0 * energy(&d.regular) / total,
            100.0 * energy(&d.fluctuant_1d) / total,
            d.reconstruct().max_abs_diff(&x)
        );
        // Where does the spectrum gradient concentrate?
        let lambda = cfg.lambda;
        let mut per_band: Vec<f32> = (0..lambda)
            .map(|li| {
                (0..window)
                    .map(|t| d.fluctuant_2d.at(&[li, t, 0]).abs())
                    .sum::<f32>()
            })
            .collect();
        let max_band = per_band
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        per_band.sort_by(|a, b| b.partial_cmp(a).unwrap());
        println!(
            "               spectrum gradient peaks in sub-band {} of {} (low index = low frequency)",
            max_band + 1,
            lambda
        );
    }
    println!("\n(the fluctuant share should rise with the wavelet order, which sharpens");
    println!(" temporal localisation — run `cargo run --release -p ts3-bench --bin ts3 -- fig5`");
    println!(" for the full heat-map rendering of Fig. 5)");
}
