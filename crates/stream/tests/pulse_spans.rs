//! Where a pulse's time goes: `PulsedTriple::pulse` opens one
//! `stream.pulse` span whose children are the shared trend kernel, the
//! shared periodogram kernel and the S-GD step.
//!
//! Its own test binary, so it owns the process-global trace collector.

use ts3_stream::{PulsedTriple, StreamConfig};

#[test]
fn pulse_spans_cover_trend_periodogram_and_sgd() {
    let window = 24;
    let mut cfg = StreamConfig::new(window, 2);
    cfg.triple.lambda = 2;
    let mut stream = PulsedTriple::new(cfg);
    ts3_obs::set_level(1);
    ts3_obs::reset();
    let mut emits = 0;
    for i in 0..window {
        let v = (i as f32 / 4.0).sin();
        emits += stream.push(&[v, 0.5 * v]).is_some() as usize;
    }
    let shape = ts3_obs::tree_shape();
    ts3_obs::set_level(0);
    ts3_obs::reset();
    assert_eq!(emits, 1);
    // The S-GD span holds one lane-batched CWT forward for both
    // channels and one inverse over the channel-interleaved grid.
    assert_eq!(
        shape,
        "stream.pulse(signal.trend_decompose,signal.periodogram,\
         stream.sgd(signal.cwt.forward,signal.cwt.inverse))"
    );
}
