//! The env gate: one process-wide trace level plus the metrics output
//! path, each read from the environment once and cached.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Sentinel meaning "not yet initialised from the environment".
const UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn init_from_env() -> u8 {
    let parsed = std::env::var("TS3_TRACE")
        .ok()
        .and_then(|v| v.trim().parse::<u8>().ok())
        .unwrap_or(0)
        .min(2);
    // Racing initialisers parse the same env var, so any winner stores
    // the same value.
    LEVEL.store(parsed, Ordering::Relaxed);
    parsed
}

/// Current trace level: `0` disabled, `1` collect, `2` collect + live
/// stderr echo. The first call parses `TS3_TRACE`; later calls are a
/// single relaxed atomic load.
#[inline]
pub fn level() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l == UNINIT {
        init_from_env()
    } else {
        l
    }
}

/// Override the trace level at runtime (clamped to `0..=2`). Tools and
/// tests use this to force collection on or off regardless of the
/// environment; library code should only ever *read* the level.
pub fn set_level(l: u8) {
    LEVEL.store(l.min(2), Ordering::Relaxed);
}

/// True when tracing collects anything at all (`TS3_TRACE >= 1`).
#[inline]
pub fn enabled() -> bool {
    level() >= 1
}

/// True when completed spans and events should also echo to stderr
/// (`TS3_TRACE=2`).
#[inline]
pub fn verbose() -> bool {
    level() >= 2
}

/// True only when the user *explicitly* exported `TS3_TRACE=0` (unset
/// does not count). Progress reporters use this to distinguish "default
/// run, print liveness lines" from "CI asked for silence".
pub fn explicitly_silent() -> bool {
    static SILENT: OnceLock<bool> = OnceLock::new();
    *SILENT.get_or_init(|| std::env::var("TS3_TRACE").map(|v| v.trim() == "0").unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_level_clamps_and_round_trips() {
        let before = level();
        set_level(7);
        assert_eq!(level(), 2);
        assert!(enabled() && verbose());
        set_level(0);
        assert_eq!(level(), 0);
        assert!(!enabled() && !verbose());
        set_level(before);
    }
}
