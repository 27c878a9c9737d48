//! The closed-loop driver: [`CLIENTS`] threads, each sending its next call
//! only after the last one returned, checking every answer, sampling
//! latencies and, in a traced run, recording one span per call.

use crate::check::Checker;
use crate::inputs::{Inputs, Op, Stream, Workload, BATCH, CLIENTS, SCAN_LEN};
use index_api::ConcurrentIndex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The call a span or latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Call {
    /// `get`
    Get = 0,
    /// `get_batch`
    GetBatch = 1,
    /// `insert`
    Insert = 2,
    /// `scan`
    Scan = 3,
}

impl Call {
    /// Every call kind, in the order of [`Samples::by_call`].
    pub const ALL: [Call; 4] = [Call::Get, Call::GetBatch, Call::Insert, Call::Scan];

    /// The span name of a call into the region router.
    pub fn span_name(self) -> &'static str {
        match self {
            Call::Get => "region.get",
            Call::GetBatch => "region.get_batch",
            Call::Insert => "region.insert",
            Call::Scan => "region.scan",
        }
    }

    /// Short name used in the run record.
    pub fn short(self) -> &'static str {
        match self {
            Call::Get => "get",
            Call::GetBatch => "batch",
            Call::Insert => "insert",
            Call::Scan => "scan",
        }
    }
}

/// One call into the system, as seen from the benchmark. Every span the
/// benchmark records is a root (`parent == 0`); spans inside the program
/// are not recorded.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which call.
    pub call: Call,
    /// Request id: client in the top 16 bits, the client's call number below.
    pub req: u64,
    /// Parent span's request id, 0 for a root.
    pub parent: u64,
    /// Start, ns since the phase was set up.
    pub start_ns: u64,
    /// End, ns since the phase was set up.
    pub end_ns: u64,
}

/// Sampled call latencies in ns, one list per [`Call`].
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Indexed by `Call as usize`.
    pub by_call: [Vec<u32>; 4],
}

impl Samples {
    fn merge(&mut self, other: &Samples) {
        for (mine, theirs) in self.by_call.iter_mut().zip(&other.by_call) {
            mine.extend(theirs);
        }
    }

    /// Every sample of every call kind.
    pub fn all(&self) -> Vec<u32> {
        self.by_call.concat()
    }
}

/// How a phase is driven.
pub struct Plan<'a> {
    /// Wall-clock limit. `lookup` and `multiget` always run this long;
    /// `hotwrite` stops when its finite stream is done, and this is only
    /// a safety cap there (a run that hits it fails its whole-stream check).
    pub seconds: f64,
    /// Equal windows the limit is cut into; ops and samples are kept per
    /// window so a run can report medians over them.
    pub windows: usize,
    /// Time one call in this many (per client).
    pub sample_every: u32,
    /// Record a span per call.
    pub trace: bool,
    /// Reads the index's completed-retrain count; when set, every insert
    /// that saw it advance counts as a retrain stall.
    pub retrains: Option<&'a (dyn Fn() -> usize + Sync)>,
}

/// What one phase did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Calls completed.
    pub calls: u64,
    /// Operations completed: keys answered for `get_batch`, calls otherwise.
    pub ops: u64,
    /// Calls that returned an error or were refused.
    pub failed: u64,
    /// Wall seconds from the start barrier until the last client stopped.
    pub elapsed_s: f64,
    /// Sampled latencies, per window.
    pub samples: Vec<Samples>,
    /// Operations completed, per window.
    pub window_ops: Vec<u64>,
    /// Wall seconds of each window (the last ends when the clients stop).
    pub window_secs: Vec<f64>,
    /// Keys whose insert succeeded.
    pub inserted: Vec<u64>,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
    /// Every call, when traced.
    pub spans: Vec<Span>,
    /// Inserts during which the retrain count advanced.
    pub stall_inserts: u64,
    /// Summed duration of those inserts, ns.
    pub stall_ns: u64,
}

impl Outcome {
    /// Completed operations per second, in millions.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed_s / 1e6
    }

    /// Completed operations per second of each window, in millions.
    pub fn window_mops(&self) -> Vec<f64> {
        self.window_ops
            .iter()
            .zip(&self.window_secs)
            .map(|(&ops, &secs)| ops as f64 / secs / 1e6)
            .collect()
    }

    /// The samples of every window together.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        self.samples.iter().for_each(|s| all.merge(s));
        all
    }
}

/// Per-client state of a running phase.
struct Client<'a> {
    id: u64,
    plan: &'a Plan<'a>,
    base: Instant,
    window: &'a AtomicUsize,
    n: u64,
    out: Outcome,
}

impl Client<'_> {
    /// Run `f` as call `call`. It is timed when it is sampled, traced,
    /// or an insert whose retrain stall is being watched.
    #[inline]
    fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> (R, u64) {
        let sampled = self.n.is_multiple_of(u64::from(self.plan.sample_every));
        self.n += 1;
        let watched = call == Call::Insert && self.plan.retrains.is_some();
        if !(sampled || watched || self.plan.trace) {
            return (f(), 0);
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        if sampled {
            let w = self.window();
            self.out.samples[w].by_call[call as usize].push(ns.min(u64::from(u32::MAX)) as u32);
        }
        if self.plan.trace {
            self.out.spans.push(Span {
                call,
                req: self.id << 48 | self.n,
                parent: 0,
                start_ns: (t0 - self.base).as_nanos() as u64,
                end_ns: (t1 - self.base).as_nanos() as u64,
            });
        }
        (r, ns)
    }

    #[inline]
    fn window(&self) -> usize {
        self.window
            .load(Ordering::Relaxed)
            .min(self.plan.windows - 1)
    }

    /// Count `ops` completed operations for the current window.
    #[inline]
    fn done(&mut self, ops: u64) {
        let w = self.window();
        self.out.calls += 1;
        self.out.ops += ops;
        self.out.window_ops[w] += ops;
    }
}

/// Drive `idx` with the workload's streams from the freshly loaded state.
pub fn drive<I: ConcurrentIndex + ?Sized>(idx: &I, inputs: &Inputs, plan: &Plan) -> Outcome {
    let checker = Checker::new(&inputs.loaded, &inputs.held);
    let stop = AtomicBool::new(false);
    let running = AtomicUsize::new(CLIENTS);
    let window = AtomicUsize::new(0);
    let windows = plan.windows;
    assert!(windows >= 1, "a phase needs at least one window");
    let start = Barrier::new(CLIENTS + 1);
    let mut total = Outcome::default();
    let base = Instant::now();
    let main = std::thread::current();
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (stop, running, start, window) = (&stop, &running, &start, &window);
                let main = main.clone();
                s.spawn(move || {
                    start.wait();
                    let began = Instant::now();
                    let mut cl = Client {
                        id: c as u64,
                        plan,
                        base,
                        window,
                        n: 0,
                        out: Outcome {
                            samples: vec![Samples::default(); windows],
                            window_ops: vec![0; windows],
                            ..Outcome::default()
                        },
                    };
                    let r = run_client(idx, inputs.workload, stream, &checker, &mut cl, stop);
                    if let Err(e) = r {
                        cl.out.wrong = Some(e);
                        stop.store(true, Ordering::Relaxed);
                    }
                    cl.out.elapsed_s = began.elapsed().as_secs_f64();
                    if running.fetch_sub(1, Ordering::Release) == 1 {
                        main.unpark();
                    }
                    cl.out
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let mut edges = vec![t0];
        while running.load(Ordering::Acquire) > 0 {
            let w = edges.len() - 1;
            let edge = t0 + Duration::from_secs_f64(plan.seconds * (w + 1) as f64 / windows as f64);
            let now = Instant::now();
            if now >= edge {
                edges.push(now);
                if w + 1 == windows {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                window.store(w + 1, Ordering::Relaxed);
                continue;
            }
            // Sleep to the window edge: the clients own both cores, so the
            // main thread wakes only at edges or when the last client ends.
            std::thread::park_timeout(edge - now);
        }
        total.samples = vec![Samples::default(); windows];
        total.window_ops = vec![0; windows];
        for h in handles {
            let out = h.join().expect("client thread panicked");
            total.calls += out.calls;
            total.ops += out.ops;
            total.failed += out.failed;
            total.elapsed_s = total.elapsed_s.max(out.elapsed_s);
            for w in 0..windows {
                total.samples[w].merge(&out.samples[w]);
                total.window_ops[w] += out.window_ops[w];
            }
            total.inserted.extend(out.inserted);
            total.wrong = total.wrong.take().or(out.wrong);
            total.spans.extend(out.spans);
            total.stall_inserts += out.stall_inserts;
            total.stall_ns += out.stall_ns;
        }
        // A stream that ran out early ends its window when the last
        // client stopped.
        if edges.len() <= windows {
            edges.push(t0 + Duration::from_secs_f64(total.elapsed_s));
        }
        total.window_secs = edges
            .windows(2)
            .map(|e| (e[1] - e[0]).as_secs_f64())
            .collect();
    });
    total
}

fn run_client<I: ConcurrentIndex + ?Sized>(
    idx: &I,
    workload: Workload,
    stream: &Stream,
    checker: &Checker,
    cl: &mut Client,
    stop: &AtomicBool,
) -> Result<(), String> {
    match (workload, stream) {
        (Workload::Lookup, Stream::Keys(keys)) => {
            for &k in keys.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let (v, _) = cl.call(Call::Get, || idx.get(k));
                checker.get(k, v)?;
                cl.done(1);
            }
        }
        (Workload::Multiget, Stream::Keys(keys)) => {
            let mut out = [None; BATCH];
            for batch in keys.chunks_exact(BATCH).cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                cl.call(Call::GetBatch, || idx.get_batch(batch, &mut out));
                checker.batch(batch, &out)?;
                cl.done(BATCH as u64);
            }
        }
        (Workload::Hotwrite, Stream::Ops(ops)) => {
            let mut buf = Vec::with_capacity(SCAN_LEN);
            for &op in ops {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match op {
                    Op::Read(k) => {
                        let (v, _) = cl.call(Call::Get, || idx.get(k));
                        checker.get(k, v)?;
                    }
                    Op::Insert(k, v) => {
                        let before = cl.plan.retrains.map(|f| f());
                        let (r, ns) = cl.call(Call::Insert, || idx.insert(k, v));
                        if r.is_ok() {
                            cl.out.inserted.push(k);
                        } else {
                            cl.out.failed += 1;
                        }
                        if let (Some(f), Some(b)) = (cl.plan.retrains, before) {
                            if f() != b {
                                cl.out.stall_inserts += 1;
                                cl.out.stall_ns += ns;
                            }
                        }
                    }
                    Op::Scan(k, n) => {
                        debug_assert_eq!(n, SCAN_LEN);
                        buf.clear();
                        cl.call(Call::Scan, || idx.scan(k, n, &mut buf));
                        checker.scan(k, &buf)?;
                    }
                    Op::Remove(_) => unreachable!("the hotwrite mix never removes"),
                }
                cl.done(1);
            }
        }
        _ => unreachable!("stream kind does not match workload"),
    }
    Ok(())
}
