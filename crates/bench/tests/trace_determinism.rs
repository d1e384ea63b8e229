//! The ts3-obs determinism contract, checked end-to-end: a smoke
//! training run must produce the SAME metrics dump (counter values) and
//! the SAME span tree shape (names + nesting + event names, durations
//! excluded) whether the tensor kernels run on 1 thread or 4.
//!
//! Scheduling counters (any name containing `".sched."`, e.g.
//! `tensor.par.sched.pool_dispatches` vs `...inline_runs`) are excluded
//! from the comparison by design: they describe HOW work was scheduled,
//! which legitimately varies with the thread cap, while every other
//! counter describes WHAT work was done and must not. See the ts3-obs
//! crate docs for the convention.
//!
//! This is its own integration-test binary (not a unit test) so it owns
//! the process-global collector and thread-cap state outright; the
//! tests all flip the global thread cap, so they serialise on a mutex.

use std::sync::Mutex;

use ts3_bench::{prepare_task, train_forecaster, RunProfile};
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_data::spec_by_name;
use ts3_nn::Ctx;
use ts3_signal::{CwtPlan, WaveletKind};
use ts3_tensor::par::set_max_threads;
use ts3_tensor::Tensor;
use ts3net_core::TS3NetConfig;

/// All tests mutate the process-global thread cap; run them one at a
/// time. `lock_poison_ok` keeps later tests running even if an earlier
/// one panicked while holding the lock (the panic test does so on
/// purpose — in a worker, not under the lock, but stay robust).
static CAP_LOCK: Mutex<()> = Mutex::new(());

fn cap_lock() -> std::sync::MutexGuard<'static, ()> {
    CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One smoke training cell (TS3Net so the signal/CWT kernels are
/// exercised too), returning (sorted work counters, span tree shape).
/// `.sched.` counters are filtered out per the determinism contract.
fn traced_smoke_run() -> (Vec<(&'static str, u64)>, String) {
    ts3_obs::reset();
    let mut profile = RunProfile::smoke();
    profile.max_train_batches = Some(2);
    let spec = spec_by_name("ETTh1").unwrap();
    let task = prepare_task(&spec, 24, 12, &profile);
    let cfg = BaselineConfig::scaled(task.channels(), 24, 12);
    let ts3 = TS3NetConfig::scaled(task.channels(), 24, 12);
    let model = build_forecaster("TS3Net", &cfg, &ts3, profile.seed);
    let r = train_forecaster(model.as_ref(), &task, &profile);
    assert!(r.mse.is_finite());
    let snap = ts3_obs::metrics_snapshot();
    let counters = snap
        .counters
        .into_iter()
        .filter(|(k, _)| !k.contains(".sched."))
        .collect();
    (counters, ts3_obs::tree_shape())
}

#[test]
fn metrics_and_tree_shape_ignore_thread_count() {
    let _guard = cap_lock();
    ts3_obs::set_level(1);

    set_max_threads(1);
    let (counters_1, shape_1) = traced_smoke_run();

    set_max_threads(4);
    let (counters_4, shape_4) = traced_smoke_run();

    ts3_obs::set_level(0);
    ts3_obs::reset();

    assert!(!counters_1.is_empty(), "smoke run recorded no counters");
    assert!(
        counters_1.iter().any(|(k, _)| *k == "tensor.matmul.flops"),
        "matmul flop counter missing: {counters_1:?}"
    );
    assert_eq!(
        counters_1, counters_4,
        "metrics dump differs between TS3_THREADS=1 and TS3_THREADS=4"
    );
    assert!(!shape_1.is_empty(), "smoke run recorded no spans");
    assert_eq!(
        shape_1, shape_4,
        "span tree shape differs between TS3_THREADS=1 and TS3_THREADS=4"
    );
}

/// A taped TS3Net forecast is broken down by its stage spans: the
/// children of `ts3net.forecast` are the paper's pipeline in order, and
/// with no serving batch open they file no timeline record.
#[test]
fn taped_forecast_children_are_its_stages() {
    let _guard = cap_lock();
    set_max_threads(1);
    ts3_obs::set_level(1);
    ts3_obs::reset();
    let cfg = BaselineConfig::scaled(2, 24, 12);
    let ts3 = TS3NetConfig::scaled(2, 24, 12);
    let model = build_forecaster("TS3Net", &cfg, &ts3, 3);
    let y = model.forecast(&Tensor::randn(&[2, 24, 2], 5), &mut Ctx::train(7));
    let (mut spans, _, _) = ts3_obs::snapshot_records();
    let (_, batches, _) = ts3_obs::timeline_snapshot();
    ts3_obs::set_level(0);
    ts3_obs::reset();

    assert_eq!(y.shape(), &[2, 12, 2]);
    spans.sort_by_key(|s| s.id);
    let forecast = spans.iter().find(|s| s.name == "ts3net.forecast").expect("forecast span");
    let children: Vec<&str> =
        spans.iter().filter(|s| s.parent == Some(forecast.id)).map(|s| s.name).collect();
    assert_eq!(
        children,
        [
            "ts3net.trend_split",
            "ts3net.select_t_f",
            "ts3net.embed",
            "ts3net.block0",
            "ts3net.block1",
            "ts3net.heads",
        ]
    );
    assert!(batches.is_empty(), "stages outside a served batch must file no batch");
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Pool-warm determinism sweep: run matmul / conv2d / CWT once to warm
/// the worker pool (and, for the FFT, the plan cache), then demand
/// byte-identical outputs across thread caps 1 / 2 / 7 / 16 on warm
/// re-runs — not just on the first dispatch.
#[test]
fn kernel_outputs_byte_identical_across_warm_pool_caps() {
    let _guard = cap_lock();

    let a = Tensor::randn(&[45, 37], 21);
    let b = Tensor::randn(&[37, 53], 22);
    let x = Tensor::randn(&[6, 3, 9, 11], 23);
    let w = Tensor::randn(&[4, 3, 3, 3], 24);
    let plan = CwtPlan::new(96, 16, WaveletKind::ComplexGaussian);
    let sig: Vec<f32> = (0..96).map(|t| (t as f32 * 0.21).sin() + 0.3 * (t as f32 * 1.7).cos()).collect();
    let grad: Vec<f32> = (0..16 * 96).map(|i| ((i * 13 + 5) as f32 * 0.017).sin()).collect();

    // Warm the pool at the largest cap first so every later run hits
    // already-spawned, parked workers.
    set_max_threads(16);
    let _ = a.matmul(&b);
    let _ = ts3_tensor::conv2d(&x, &w, 1, 1);
    let _ = plan.amplitude(&sig);

    let reference = {
        set_max_threads(1);
        (
            a.matmul(&b),
            ts3_tensor::conv2d(&x, &w, 1, 1),
            plan.amplitude(&sig),
            plan.adjoint(&grad, &grad),
        )
    };

    for cap in [2usize, 7, 16] {
        set_max_threads(cap);
        // Two warm repetitions per cap: the second catches any
        // state carried over from the first (scratch reuse, caches).
        for rep in 0..2 {
            let mm = a.matmul(&b);
            let cv = ts3_tensor::conv2d(&x, &w, 1, 1);
            let amp = plan.amplitude(&sig);
            let adj = plan.adjoint(&grad, &grad);
            assert_eq!(bits(reference.0.as_slice()), bits(mm.as_slice()), "matmul cap={cap} rep={rep}");
            assert_eq!(bits(reference.1.as_slice()), bits(cv.as_slice()), "conv2d cap={cap} rep={rep}");
            assert_eq!(bits(&reference.2), bits(&amp), "cwt amplitude cap={cap} rep={rep}");
            assert_eq!(bits(&reference.3), bits(&adj), "cwt adjoint cap={cap} rep={rep}");
        }
    }
    set_max_threads(1);
}

/// Gauge last-write-wins semantics must survive the worker pool: with
/// the pool dispatching kernels between driver-thread writes, the final
/// gauge value (plain and labeled) is the program-order last write at
/// every thread cap — workers never write gauges, so LWW stays
/// deterministic.
#[test]
fn gauge_last_write_wins_under_pool_caps() {
    let _guard = cap_lock();
    ts3_obs::set_level(1);
    let a = Tensor::randn(&[45, 37], 41);
    let b = Tensor::randn(&[37, 53], 42);
    for cap in [1usize, 4] {
        set_max_threads(cap);
        ts3_obs::reset();
        for step in 0..8u64 {
            let _ = a.matmul(&b); // keep the pool busy between writes
            ts3_obs::gauge_set("test.progress", step as f64);
            ts3_obs::gauge_set_l("test.progress", &[("tenant", "7")], (step * 2) as f64);
        }
        let m = ts3_obs::metrics_snapshot();
        let plain = m.gauges.iter().find(|(k, _)| *k == "test.progress").map(|(_, v)| *v);
        assert_eq!(plain, Some(7.0), "plain gauge LWW at cap={cap}");
        let l = ts3_obs::labeled_snapshot();
        let labeled = l
            .gauges
            .iter()
            .find(|((k, l), _)| *k == "test.progress" && !l.is_empty())
            .map(|(_, v)| *v);
        assert_eq!(labeled, Some(14.0), "labeled gauge LWW at cap={cap}");
    }
    ts3_obs::set_level(0);
    ts3_obs::reset();
    set_max_threads(1);
}

/// A panicking worker block must propagate its payload to the caller
/// (not hang the latch or get swallowed), and the pool must stay usable
/// afterwards.
#[test]
fn poisoned_worker_panic_propagates_to_caller() {
    let _guard = cap_lock();
    set_max_threads(4);

    let caught = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f32; 64];
        ts3_tensor::par::par_rows_mut(&mut out, 8, 1, |row0, block| {
            if row0 >= 4 {
                panic!("poisoned pool block at row {row0}");
            }
            block.fill(row0 as f32);
        });
    });
    let payload = caught.expect_err("worker panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("poisoned pool block"), "unexpected payload: {msg}");

    // Pool still healthy: a normal dispatch after the panic succeeds
    // and matches the serial result bit-for-bit.
    let a = Tensor::randn(&[19, 23], 31);
    let b = Tensor::randn(&[23, 17], 32);
    set_max_threads(1);
    let serial = a.matmul(&b);
    set_max_threads(4);
    let par = a.matmul(&b);
    assert_eq!(bits(serial.as_slice()), bits(par.as_slice()));
    set_max_threads(1);
}
