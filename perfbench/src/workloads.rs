//! The three workloads. Each is set up from `--seed` alone and runs one
//! operation per [`Workload::op`] call: a train step, a serve tick or a
//! stream tick. Calls into a layer go through [`Ledger::call`], which
//! times them from outside and tags their allocations.

use crate::alloc;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_data::{spec_by_name, ForecastTask, Split};
use ts3_nn::{Adam, Ctx, Optimizer};
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_serve::{ForecastRequest, ForecastResponse, ServerConfig, ServerHandle};
use ts3_signal::{triple_decompose, TripleConfig};
use ts3_stream::{PulsedTriple, SlidingDft, StreamConfig, StreamDecomposition};
use ts3_tensor::Tensor;
use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};

pub const LOOKBACK: usize = 96;
pub const HORIZON: usize = 96;
pub const CHANNELS: usize = 7;

/// Per-call timers. Off in untraced runs, where `call` is a bare call.
#[derive(Default)]
pub struct Ledger {
    pub on: bool,
    pub calls: BTreeMap<&'static str, (u64, u64)>,
}

impl Ledger {
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let prev = alloc::set_tag(alloc::tag(name));
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        alloc::set_tag(prev);
        let e = self.calls.entry(name).or_default();
        e.0 += 1;
        e.1 += ns;
        out
    }

    /// Total milliseconds spent in `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.1 as f64 / 1e6)
    }

    /// Mean milliseconds per call of `name` (0 when never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.1 as f64 / 1e6 / c.0.max(1) as f64)
    }
}

/// What one operation left behind.
#[derive(Default)]
pub struct OpLog {
    pub latencies_ms: Vec<f64>,
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Serve replies seen while the ledger is on.
    pub replies: Vec<Reply>,
}

/// What a serve reply says about its own handling.
pub struct Reply {
    pub queue_ticks: u64,
    pub batch_size: usize,
    pub deadline_missed: bool,
}

impl OpLog {
    fn reply(&mut self, ledger: &Ledger, resp: &ForecastResponse) {
        if ledger.on {
            self.replies.push(Reply {
                queue_ticks: resp.completed.saturating_sub(resp.submitted),
                batch_size: resp.batched_with,
                deadline_missed: resp.deadline_missed,
            });
        }
    }
}

pub trait Workload {
    fn op(&mut self, ledger: &mut Ledger, log: &mut OpLog);
    /// Correctness checks over everything run so far.
    fn check(&mut self) -> Vec<String>;
}

/// A seeded generator for one purpose (`stream`) of one run (`seed`).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(stream))
}

/// The ETTh1-shaped series generated from `seed`, windowed 96 -> 96.
pub fn etth1_task(seed: u64) -> ForecastTask {
    let spec = spec_by_name("ETTh1").expect("the data catalog has ETTh1");
    ForecastTask::new(&spec.generate(seed), LOOKBACK, HORIZON, spec.split)
}

pub fn build(name: &str, seed: u64) -> Box<dyn ForecastModel> {
    let cfg = BaselineConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    let ts3 = TS3NetConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    build_forecaster(name, &cfg, &ts3, seed)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// train

const BATCH: usize = 8;

/// TS3Net trained with Adam at batch 8: forward, MSE, backward, clip and
/// step in a closed loop on one thread.
pub struct Train {
    task: ForecastTask,
    model: Box<dyn ForecastModel>,
    opt: Adam,
    ctx: Ctx,
    seed: u64,
    epoch: u64,
    batches: Vec<Vec<usize>>,
    next: usize,
    losses: Vec<f32>,
}

impl Train {
    pub fn setup(seed: u64) -> Train {
        let task = etth1_task(seed);
        let model = build("TS3Net", seed);
        let opt = Adam::new(model.parameters(), 1e-3);
        let batches = task.epoch_batches(Split::Train, BATCH, seed, None);
        let mut t = Train { task, model, opt, ctx: Ctx::train(seed), seed, epoch: 0, batches, next: 0, losses: Vec::new() };
        // One warm-up step faults in code and kernel scratch.
        t.op(&mut Ledger::default(), &mut OpLog::default());
        t
    }
}

impl Workload for Train {
    fn op(&mut self, ledger: &mut Ledger, log: &mut OpLog) {
        if self.next == self.batches.len() {
            self.epoch += 1;
            self.batches = self.task.epoch_batches(Split::Train, BATCH, self.seed + self.epoch, None);
            self.next = 0;
        }
        self.next += 1;
        let idx = &self.batches[self.next - 1];
        let start = Instant::now();
        let (task, model, ctx, opt) = (&self.task, &self.model, &mut self.ctx, &mut self.opt);
        let (x, y) = ledger.call("data.batch", || task.batch(Split::Train, idx));
        let loss = ledger.call("core.forward", || model.forecast(&x, ctx).mse_loss(&y));
        let value = loss.value().item();
        ledger.call("nn.optim", || opt.zero_grad());
        // Dropping the tape is part of the backward pass's cost.
        ledger.call("autograd.backward", move || {
            loss.backward();
            drop(loss);
        });
        ledger.call("nn.optim", || {
            opt.clip_grad_norm(5.0);
            opt.step();
        });
        log.latencies_ms.push(ms(start));
        log.units += BATCH as u64;
        log.attempted += 1;
        if !value.is_finite() {
            log.failed += 1;
        }
        self.losses.push(value);
    }

    fn check(&mut self) -> Vec<String> {
        let mut f = Vec::new();
        let n = self.losses.len();
        if let Some(i) = self.losses.iter().position(|l| !l.is_finite()) {
            f.push(format!("train: loss at step {i} is not finite"));
        }
        let k = (n / 5).max(1);
        let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
        let (first, last) = (mean(&self.losses[..k]), mean(&self.losses[n - k..]));
        if n < 2 || !(last < first) {
            f.push(format!("train: mean loss of the last {k} steps ({last}) is not below the first {k} ({first})"));
        }
        f
    }
}

// ---------------------------------------------------------------------------
// serve

const DEADLINE_SLACK: u64 = 4;

/// Start a server whose tenants `names` are built and frozen on the
/// executor thread, and wait until they are ready.
fn start_server(names: &'static [&'static str], seed: u64, calib: Tensor) -> ServerHandle {
    let server = ServerHandle::start(ServerConfig::default(), move || {
        alloc::set_tag(alloc::tag("serve.executor"));
        names
            .iter()
            .map(|name| {
                let model: Rc<dyn ForecastModel> = Rc::from(build(name, seed));
                CompiledPlan::freeze(model, &calib).unwrap_or_else(|e| panic!("{name}: freeze failed: {e}"))
            })
            .collect()
    });
    server.step(0).expect("the server failed to start (plan freeze self-check)");
    server
}

fn calibration(task: &ForecastTask) -> Tensor {
    task.batch(Split::Test, &(0..8).collect::<Vec<_>>()).0
}

struct Client {
    tenant: usize,
    rng: StdRng,
    tx: Sender<ForecastResponse>,
    rx: Receiver<ForecastResponse>,
    pending: Option<(usize, Instant)>,
}

struct Request {
    tenant: usize,
    window: usize,
    completed: Option<u64>,
    batched_with: usize,
    output: Option<Tensor>,
}

const SERVE_TENANTS: [&str; 2] = ["TS3Net", "DLinear"];

/// 16 closed-loop clients split evenly between a TS3Net and a DLinear
/// tenant of compiled plans behind `ServerHandle`.
pub struct Serve {
    server: Option<ServerHandle>,
    task: ForecastTask,
    seed: u64,
    clients: Vec<Client>,
    tick: u64,
    requests: Vec<Request>,
    sampler: StdRng,
    failures: Vec<String>,
}

impl Serve {
    pub fn setup(seed: u64) -> Serve {
        let task = etth1_task(seed);
        let server = start_server(&SERVE_TENANTS, seed, calibration(&task));
        let clients = (0..16)
            .map(|i| {
                let (tx, rx) = channel();
                Client { tenant: i % 2, rng: rng(seed, 100 + i as u64), tx, rx, pending: None }
            })
            .collect();
        let mut s = Serve {
            server: Some(server),
            task,
            seed,
            clients,
            tick: 1,
            requests: Vec::new(),
            sampler: rng(seed, 1),
            failures: Vec::new(),
        };
        s.op(&mut Ledger::default(), &mut OpLog::default());
        s
    }

    fn record(&mut self, id: usize, resp: ForecastResponse, log: &mut OpLog) -> bool {
        let keep = self.sampler.gen_range(0..256u32) == 0 && self.requests.iter().filter(|r| r.output.is_some()).count() < 24;
        let r = &mut self.requests[id];
        r.completed = Some(resp.completed);
        r.batched_with = resp.batched_with;
        match resp.result {
            Ok(y) if y.shape() == [HORIZON, CHANNELS] => {
                if keep {
                    r.output = Some(y);
                }
                true
            }
            Ok(y) => {
                log.failed += 1;
                self.failures.push(format!("serve: reply shaped {:?}", y.shape()));
                false
            }
            Err(e) => {
                log.failed += 1;
                self.failures.push(format!("serve: {e}"));
                false
            }
        }
    }
}

impl Workload for Serve {
    fn op(&mut self, ledger: &mut Ledger, log: &mut OpLog) {
        let now = self.tick;
        let server = self.server.as_ref().expect("the server runs until the check");
        let n_windows = self.task.len(Split::Test);
        for c in &mut self.clients {
            if c.pending.is_some() {
                continue;
            }
            let window = c.rng.gen_range(0..n_windows);
            let input = self.task.window(Split::Test, window).0;
            let id = self.requests.len();
            self.requests.push(Request { tenant: c.tenant, window, completed: None, batched_with: 0, output: None });
            let req = ForecastRequest { tenant: c.tenant, input, submitted: now, deadline: now + DEADLINE_SLACK };
            log.attempted += 1;
            let sent = Instant::now();
            match ledger.call("serve.submit", || server.submit(req, &c.tx)) {
                Ok(()) => c.pending = Some((id, sent)),
                Err(e) => {
                    log.failed += 1;
                    self.failures.push(format!("serve: submit: {e}"));
                }
            }
        }
        if let Err(e) = ledger.call("serve.step", || server.step(now)) {
            log.failed += 1;
            self.failures.push(format!("serve: step: {e}"));
        }
        let mut replies = Vec::new();
        for c in &mut self.clients {
            while let Ok(resp) = c.rx.try_recv() {
                log.reply(ledger, &resp);
                if let Some((id, sent)) = c.pending.take() {
                    replies.push((id, ms(sent), resp));
                }
            }
        }
        for (id, latency, resp) in replies {
            if self.record(id, resp, log) {
                log.units += 1;
                log.latencies_ms.push(latency);
            }
        }
        self.tick += 1;
    }

    fn check(&mut self) -> Vec<String> {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.shutdown(self.tick) {
                self.failures.push(format!("serve: shutdown: {e}"));
            }
        }
        let mut log = OpLog::default();
        for i in 0..self.clients.len() {
            while let Ok(resp) = self.clients[i].rx.try_recv() {
                if let Some((id, _)) = self.clients[i].pending.take() {
                    self.record(id, resp, &mut log);
                }
            }
        }
        let mut f = std::mem::take(&mut self.failures);
        if self.requests.iter().any(|r| r.completed.is_none()) {
            f.push("serve: a request was never answered".into());
        }
        // Replay sampled replies through the eager forward of the same
        // seeded model on this thread, batch for batch.
        let models: Vec<Box<dyn ForecastModel>> = SERVE_TENANTS.iter().map(|n| build(n, self.seed)).collect();
        for (id, r) in self.requests.iter().enumerate() {
            let Some(out) = &r.output else { continue };
            let mates: Vec<usize> = (0..self.requests.len())
                .filter(|&j| self.requests[j].tenant == r.tenant && self.requests[j].completed == r.completed)
                .collect();
            let mut i = 0;
            let mut batch = Vec::new();
            while i < mates.len() {
                let n = self.requests[mates[i]].batched_with.max(1);
                let chunk = &mates[i..(i + n).min(mates.len())];
                if chunk.contains(&id) {
                    batch = chunk.to_vec();
                    break;
                }
                i += n;
            }
            let windows: Vec<Tensor> =
                batch.iter().map(|&j| self.task.window(Split::Test, self.requests[j].window).0).collect();
            let refs: Vec<&Tensor> = windows.iter().collect();
            let y = models[r.tenant].forecast(&Tensor::stack(&refs, 0), &mut Ctx::eval()).value().clone();
            let pos = batch.iter().position(|&j| j == id).unwrap_or(0);
            let len = HORIZON * CHANNELS;
            if !same_bits(out.as_slice(), &y.as_slice()[pos * len..(pos + 1) * len]) {
                f.push(format!("serve: reply {id} differs from the eager forward"));
            }
        }
        f
    }
}

// ---------------------------------------------------------------------------
// stream

pub const STREAMS: usize = 32;
const SUBMIT_EVERY: u64 = 24;
const STREAM_TENANTS: [&str; 1] = ["DLinear"];

struct Feed {
    pulse: PulsedTriple,
    monitor: SlidingDft,
    offset: usize,
    pushed: u64,
    in_flight: bool,
    tx: Sender<ForecastResponse>,
    rx: Receiver<ForecastResponse>,
}

/// 32 streams each append one 7-channel sample per tick to a
/// `PulsedTriple` (hop 1) and a `SlidingDft` monitor, and submit a
/// forecast to a DLinear tenant every 24 samples.
pub struct Stream {
    server: Option<ServerHandle>,
    data: Tensor,
    feeds: Vec<Feed>,
    tick: u64,
    sampler: StdRng,
    kept: Vec<StreamDecomposition>,
    failures: Vec<String>,
}

impl Stream {
    pub fn setup(seed: u64) -> Stream {
        let task = etth1_task(seed);
        let server = start_server(&STREAM_TENANTS, seed, calibration(&task));
        let rows = task.data.shape()[0];
        let mut offsets = rng(seed, 200);
        let data = task.data.clone();
        let mut feeds: Vec<Feed> = (0..STREAMS)
            .map(|_| {
                let (tx, rx) = channel();
                Feed {
                    pulse: PulsedTriple::new(StreamConfig {
                        window: LOOKBACK,
                        channels: CHANNELS,
                        hop: 1,
                        triple: TripleConfig::default(),
                    }),
                    monitor: SlidingDft::new(LOOKBACK, CHANNELS),
                    offset: offsets.gen_range(0..rows),
                    pushed: 0,
                    in_flight: false,
                    tx,
                    rx,
                }
            })
            .collect();
        // Warm every stream up to its first emit.
        for f in &mut feeds {
            for _ in 0..LOOKBACK {
                let r = (f.offset + f.pushed as usize) % rows;
                let row = &data.as_slice()[r * CHANNELS..(r + 1) * CHANNELS];
                f.monitor.push(row);
                f.pulse.push(row);
                f.pushed += 1;
            }
        }
        Stream { server: Some(server), data, feeds, tick: 1, sampler: rng(seed, 2), kept: Vec::new(), failures: Vec::new() }
    }
}

impl Workload for Stream {
    fn op(&mut self, ledger: &mut Ledger, log: &mut OpLog) {
        let now = self.tick;
        let server = self.server.as_ref().expect("the server runs until the check");
        let rows = self.data.shape()[0];
        let start = Instant::now();
        for (i, f) in self.feeds.iter_mut().enumerate() {
            let r = (f.offset + f.pushed as usize) % rows;
            let row = &self.data.as_slice()[r * CHANNELS..(r + 1) * CHANNELS];
            let monitor = &mut f.monitor;
            ledger.call("stream.sdft_push", || monitor.push(row));
            let pulse = &mut f.pulse;
            let emit = ledger.call("stream.push", || pulse.push(row));
            f.pushed += 1;
            log.units += 1;
            log.attempted += 1;
            let Some(emit) = emit else {
                log.failed += 1;
                self.failures.push("stream: a warm push did not emit".into());
                continue;
            };
            let monitor = &f.monitor;
            ledger.call("stream.drift_check", || monitor.drift_against(emit.t_f));
            if (f.pushed + i as u64) % SUBMIT_EVERY == 0 && !f.in_flight {
                let req = ForecastRequest {
                    tenant: 0,
                    input: emit.window_tensor(LOOKBACK, CHANNELS),
                    submitted: now,
                    deadline: now + DEADLINE_SLACK,
                };
                log.attempted += 1;
                match ledger.call("serve.submit", || server.submit(req, &f.tx)) {
                    Ok(()) => f.in_flight = true,
                    Err(e) => {
                        log.failed += 1;
                        self.failures.push(format!("stream: submit: {e}"));
                    }
                }
            }
            if self.kept.len() < 24 && self.sampler.gen_range(0..512u32) == 0 {
                self.kept.push(emit);
            }
        }
        if let Err(e) = ledger.call("serve.step", || server.step(now)) {
            log.failed += 1;
            self.failures.push(format!("stream: step: {e}"));
        }
        for f in &mut self.feeds {
            while let Ok(resp) = f.rx.try_recv() {
                log.reply(ledger, &resp);
                f.in_flight = false;
                match resp.result {
                    Ok(y) if y.shape() == [HORIZON, CHANNELS] => {}
                    other => {
                        log.failed += 1;
                        self.failures.push(format!("stream: bad reply {:?}", other.map(|y| y.shape().to_vec())));
                    }
                }
            }
        }
        log.latencies_ms.push(ms(start));
        self.tick += 1;
    }

    fn check(&mut self) -> Vec<String> {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.shutdown(self.tick) {
                self.failures.push(format!("stream: shutdown: {e}"));
            }
        }
        let mut f = std::mem::take(&mut self.failures);
        let cfg = TripleConfig::default();
        for e in &self.kept {
            let b = triple_decompose(&Tensor::from_vec(e.window.clone(), &[LOOKBACK, CHANNELS]), &cfg);
            let same = e.t_f == b.t_f
                && same_bits(&e.trend, b.trend.as_slice())
                && same_bits(&e.seasonal, b.seasonal.as_slice())
                && same_bits(&e.regular, b.regular.as_slice())
                && same_bits(&e.fluctuant_1d, b.fluctuant_1d.as_slice())
                && same_bits(&e.fluctuant_2d, b.fluctuant_2d.as_slice())
                && same_bits(&e.tf, b.tf.as_slice());
            if !same {
                f.push(format!("stream: pulse at sample {} differs from triple_decompose", e.samples_seen));
            }
        }
        f
    }
}
