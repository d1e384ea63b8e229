//! # ts3-stream
//!
//! Streaming ("pulsed") counterparts of the batch triple decomposition
//! for online forecasting: instead of recomputing trend, periodogram
//! and CWT from scratch for every trailing window (O(window) redundant
//! work per arriving sample), a per-stream operator keeps ring-buffered
//! state and emits decompositions on a configurable pulse cadence.
//!
//! * [`ring`] — fixed-capacity `[T, C]` ring buffer; O(C) push, no
//!   allocation in steady state;
//! * [`sdft`] — sliding-DFT periodogram monitor feeding the batch
//!   top-k period selection, exact at resync ticks;
//! * [`pulse`] — [`PulsedTriple`]: `push(sample) -> Option<emit>` where
//!   every emit is **bitwise identical** to
//!   `ts3_signal::triple_decompose` on the same trailing window
//!   (asserted by `tests/pulse_equivalence.rs` across windows, kernel
//!   sets, lambda, channel counts, `T_f` modes and thread caps).
//!
//! The trend split and the periodogram are `ts3-signal`'s own slice
//! kernels, called on reused scratch. The speedup over
//! recompute-from-scratch comes from hoisting the per-call CWT plan
//! construction (wavelet sampling, filter FFTs, inverse calibration),
//! eliminating tensor packaging, and O(C) window maintenance;
//! `stream_bench` measures and `scripts/verify.sh` gates it.
//!
//! ```
//! use ts3_stream::{PulsedTriple, StreamConfig};
//!
//! let mut cfg = StreamConfig::new(48, 1);
//! cfg.triple.lambda = 4;
//! let mut stream = PulsedTriple::new(cfg);
//! let mut emits = 0;
//! for i in 0..96 {
//!     let sample = (i as f32 / 12.0).sin();
//!     if let Some(d) = stream.push(&[sample]) {
//!         assert_eq!(d.trend.len(), 48);
//!         emits += 1;
//!     }
//! }
//! assert_eq!(emits, 96 - 48 + 1); // one emit per push once warm
//! ```

pub mod pulse;
pub mod ring;
pub mod sdft;

pub use pulse::{PulsedTriple, StreamConfig, StreamDecomposition};
pub use ring::RingWindow;
pub use sdft::SlidingDft;
