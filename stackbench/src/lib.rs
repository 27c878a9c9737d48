//! One benchmark for the whole stack: `RegionIndex<AltIndex>` driven by
//! closed-loop clients on three workloads (`lookup`, `multiget`,
//! `hotwrite`), every answer checked, plus a traced run that prices each
//! layer from outside. See `README.md` in this directory.

pub mod check;
pub mod drive;
pub mod inputs;
pub mod ladder;
mod obs_counters;
pub mod report;
pub mod serve;

use alt_index::AltIndex;
use art::Art;
use check::Checker;
use drive::{drive, Call, Outcome, Plan, Span};
use index_api::{BulkLoad, ConcurrentIndex};
use inputs::{Inputs, Size, Workload, BATCH, CLIENTS};
use ladder::{ShardSet, BUILD_THREADS};
use region::{RegionConfig, RegionIndex};
use report::{jstr, median, num, quantile_us, Metrics, Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The system under test.
pub type Region = RegionIndex<AltIndex>;

/// Safety cap, in seconds, on one pass over the `hotwrite` stream. A pass
/// takes 5–7 s on a 2-core host; a pass cut at the cap leaves
/// held-back keys uninserted, which fails the run (see `after_run`), so
/// every `hotwrite` figure is always taken over the whole stream.
pub const STREAM_CAP_S: f64 = 40.0;

/// Where a traced run writes its spans, under the working directory.
pub const TRACE_DIR: &str = ".bench_trace";

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input the run generates.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// Wraps the loaded router before the measured phase; the benchmark
/// itself passes it through unchanged, tests plant faults with it.
pub type Wrap<'a> = &'a dyn Fn(Arc<Region>) -> Arc<dyn ConcurrentIndex>;

/// The router configuration under test: `RegionConfig::default()` (4
/// shards, no maintenance worker) with two construction threads.
pub fn region_config() -> RegionConfig {
    RegionConfig {
        construction_threads: BUILD_THREADS,
        ..RegionConfig::default()
    }
}

/// Run the benchmark.
pub fn run(cfg: &Config) -> Report {
    run_with(cfg, &|r| r)
}

/// Run the benchmark with the loaded router passed through `wrap`.
pub fn run_with(cfg: &Config, wrap: Wrap) -> Report {
    let t0 = Instant::now();
    let inputs = Inputs::generate(cfg.workload, cfg.seed, &cfg.size);
    let gen_s = t0.elapsed().as_secs_f64();
    let mut rec = Record::default();
    rec.str("workload", cfg.workload.name());
    rec.raw("seed", cfg.seed.to_string());
    rec.raw("trace", u8::from(cfg.trace).to_string());
    rec.str("git_rev", &git_rev());
    rec.raw(
        "available_parallelism",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    rec.raw("clients", CLIENTS.to_string());
    rec.str("dataset", inputs.workload.dataset().name());
    rec.raw("keys_generated", inputs.generated.to_string());
    rec.raw("keys_loaded", inputs.loaded.len().to_string());
    rec.raw("keys_held_back", inputs.held.len().to_string());
    rec.str("stream_digest", &format!("{:016x}", inputs.digest()));
    rec.raw("generate_s", num(gen_s));

    let mut m = Metrics::default();
    let mut outcome = Outcome::default();
    let result = if cfg.trace {
        let t = Instant::now();
        let region = Arc::new(Region::bulk_load_with(&inputs.loaded, region_config()));
        m.set("region.bulk_load_s", t.elapsed().as_secs_f64());
        traced(cfg, inputs, region, wrap, &mut m, &mut rec, &mut outcome)
    } else {
        untraced(cfg, &inputs, wrap, &mut m, &mut rec, &mut outcome)
    };
    let wrong = result.err();
    rec.raw(
        "failed_frac",
        num(outcome.failed as f64 / outcome.calls.max(1) as f64),
    );
    if let Some(w) = &wrong {
        rec.str("failure", w);
    }
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    Report {
        correct: wrong.is_none(),
        attempted: outcome.calls,
        failed: outcome.failed,
        metrics: table
            .iter()
            .filter_map(|(n, _)| m.0.iter().find(|x| x.name == *n).cloned())
            .collect(),
        record: rec.0,
        wrong,
    }
}

/// Windows a rep's measured phase is cut into. The read workloads are
/// stationary, so they report medians over one-second windows, which
/// keeps a burst of load elsewhere on the host from moving the result.
/// `hotwrite` is not: its retrains cluster as the inserts fill the held
/// back blocks, so it is measured as one window over its whole stream.
fn windows(w: Workload, seconds: f64) -> usize {
    match w {
        Workload::Lookup | Workload::Multiget => (seconds.round() as usize).max(1),
        Workload::Hotwrite => 1,
    }
}

fn sample_every(w: Workload) -> u32 {
    // `lookup` calls are about a microsecond, so timing each would cost a
    // few percent; the other workloads' calls are long enough to time all.
    match w {
        Workload::Lookup => 4,
        Workload::Multiget | Workload::Hotwrite => 1,
    }
}

/// The end-to-end run: several independent reps, each a fresh bulk
/// load (timed: `setup_s`) followed by a measured phase: `seconds / reps`
/// on the read workloads, one whole pass over the stream on `hotwrite`.
/// Every metric is the median over reps, so one unlucky memory layout or
/// a noisy stretch on the host moves it less.
fn untraced(
    cfg: &Config,
    inputs: &Inputs,
    wrap: Wrap,
    m: &mut Metrics,
    rec: &mut Record,
    total: &mut Outcome,
) -> Result<(), String> {
    let reps = match cfg.workload {
        Workload::Lookup | Workload::Multiget => cfg.size.read_reps,
        Workload::Hotwrite => cfg.size.hot_reps,
    }
    .max(1);
    let seconds = match cfg.workload {
        Workload::Lookup | Workload::Multiget => cfg.seconds / reps as f64,
        Workload::Hotwrite => STREAM_CAP_S,
    };
    let plan = Plan {
        seconds,
        windows: windows(cfg.workload, seconds),
        sample_every: sample_every(cfg.workload),
        trace: false,
        retrains: None,
    };
    let mut per_rep: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut put = |k: &str, v: f64| per_rep.entry(k.to_string()).or_default().push(v);
    for _ in 0..reps {
        let t = Instant::now();
        let region = Arc::new(Region::bulk_load_with(&inputs.loaded, region_config()));
        put("setup_s", t.elapsed().as_secs_f64());
        let idx = wrap(region);
        let out = drive(&*idx, inputs, &plan);
        total.calls += out.calls;
        total.failed += out.failed;
        if let Some(w) = out.wrong {
            return Err(w);
        }
        after_run(&*idx, inputs, &out, &cfg.size)?;
        let per_window: Vec<Vec<u32>> = out
            .samples
            .iter()
            .map(|s| {
                let mut all = s.all();
                all.sort_unstable();
                all
            })
            .filter(|all| !all.is_empty())
            .collect();
        let window_q = |q: f64| {
            median(
                &per_window
                    .iter()
                    .map(|all| quantile_us(all, q))
                    .collect::<Vec<_>>(),
            )
        };
        put("throughput_mops", median(&out.window_mops()));
        put("call_p50_us", window_q(0.50));
        put("call_p99_us", window_q(0.99));
        put(
            "bytes_per_key",
            idx.memory_usage() as f64 / idx.len().max(1) as f64,
        );
        put("elapsed_s", out.elapsed_s);
        put("keys_inserted", out.inserted.len() as f64);
        let mut pooled = out.pooled();
        put("samples_call", pooled.all().len() as f64);
        for call in Call::ALL {
            let s = &mut pooled.by_call[call as usize];
            if s.is_empty() {
                continue;
            }
            s.sort_unstable();
            let name = call.short();
            put(&format!("samples_{name}"), s.len() as f64);
            for (q, label) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
                put(&format!("{name}_{label}_us"), quantile_us(s, q));
            }
        }
    }
    for (name, _) in END_TO_END {
        m.set(name, median(&per_rep[*name]));
    }
    rec.raw("reps", reps.to_string());
    rec.raw("rep_limit_s", num(seconds));
    for (k, v) in &per_rep {
        rec.raw(&format!("rep_{k}"), json_list(v));
    }
    Ok(())
}

/// After a measured phase: every held-back key was inserted (the whole
/// `hotwrite` stream ran), `len()` is loaded + inserted, and a spread
/// sample of the inserted keys reads back.
fn after_run<I: ConcurrentIndex + ?Sized>(
    idx: &I,
    inputs: &Inputs,
    out: &Outcome,
    size: &Size,
) -> Result<(), String> {
    if out.inserted.len() != inputs.held.len() {
        return Err(format!(
            "{} of {} held-back keys inserted ({} inserts failed, {:.1} s of a \
             {STREAM_CAP_S} s cap): the stream did not run to its end",
            out.inserted.len(),
            inputs.held.len(),
            out.failed,
            out.elapsed_s,
        ));
    }
    let want = inputs.loaded.len() + out.inserted.len();
    if idx.len() != want {
        return Err(format!(
            "len() is {} after the run, expected {want}",
            idx.len()
        ));
    }
    let chk = Checker::new(&inputs.loaded, &inputs.held);
    let step = (out.inserted.len() / size.readback.max(1)).max(1);
    for &k in out.inserted.iter().step_by(step) {
        chk.get_inserted(k, idx.get(k))?;
    }
    Ok(())
}

fn traced(
    cfg: &Config,
    inputs: Inputs,
    region: Arc<Region>,
    wrap: Wrap,
    m: &mut Metrics,
    rec: &mut Record,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let size = &cfg.size;
    let chk = Checker::new(&inputs.loaded, &inputs.held);
    let reads = inputs.read_keys(size.ladder_keys);
    let starts = inputs.scan_starts(size.ladder_scans);

    // Router rung, then the serving front-end, both on the fresh index.
    let idx = wrap(Arc::clone(&region));
    let region_get = ladder::get_ns(&*idx, &reads, &chk)?;
    let region_batch = ladder::batch_ns(&*idx, &reads, &chk)?;
    let region_scan = ladder::scan_ns(
        |k, out| {
            idx.scan(k, inputs::SCAN_LEN, out);
        },
        &starts,
        &chk,
    )?;
    m.set("region.get_ns", region_get);
    m.set("region.get_batch_ns_per_key", region_batch);
    m.set("region.scan_ns", region_scan);
    let serve_keys: Vec<u64> = reads.concat().into_iter().take(size.serve_keys).collect();
    let perkey = serve::serve(Arc::clone(&idx), &serve_keys, 1, &chk)?;
    let batched = serve::serve(Arc::clone(&idx), &serve_keys, BATCH, &chk)?;
    let st = batched.stats;
    m.set("serve.perkey_ns", perkey.ns_per_key);
    m.set("serve.batched_ns_per_key", batched.ns_per_key);
    m.set(
        "serve.avg_batch",
        st.batched_keys as f64 / st.flushes.max(1) as f64,
    );
    m.set(
        "serve.shed_frac",
        st.shed as f64 / (st.served + st.shed).max(1) as f64,
    );

    // The traced phase: the workload itself, one span per call.
    let seconds = match cfg.workload {
        Workload::Hotwrite => STREAM_CAP_S,
        _ => cfg.seconds.min(size.trace_secs),
    };
    let plan = Plan {
        seconds,
        windows: 1,
        sample_every: u32::MAX,
        trace: true,
        retrains: None,
    };
    let mark = obs_counters::mark();
    *outcome = drive(&*idx, &inputs, &plan);
    for (name, value) in obs_counters::since(&mark, outcome.ops) {
        rec.raw(name, num(value));
    }
    if let Some(w) = outcome.wrong.clone() {
        return Err(w);
    }
    after_run(&*idx, &inputs, outcome, size)?;
    let spans = std::mem::take(&mut outcome.spans);
    let span_ns: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    m.set("trace.throughput_mops", outcome.mops());
    m.set("trace.spans", spans.len() as f64);
    m.set(
        "trace.call_mean_ns",
        span_ns as f64 / spans.len().max(1) as f64,
    );
    let path = write_spans(std::path::Path::new(TRACE_DIR), cfg.workload, &spans)
        .map_err(|e| format!("writing spans: {e}"))?;
    rec.str("spans_file", &path.display().to_string());
    drop(spans);
    m.set("region.route_retries", region.stats().route_retries as f64);
    let region_bounds = region.shard_bounds();
    drop(idx);
    drop(region);

    // ALT rung: the router's own shards, without the router.
    let (shards, alt_build_s) = ShardSet::build(&inputs.loaded);
    if shards.bounds() != region_bounds {
        return Err(format!(
            "shard set {:?} does not match the router's shards {region_bounds:?}",
            shards.bounds()
        ));
    }
    m.set("alt.bulk_load_s", alt_build_s);
    let alt_get = shards.get_ns(&reads, &chk)?;
    let alt_batch = shards.batch_ns(&reads, &chk)?;
    let alt_scan = ladder::scan_ns(|k, out| shards.scan(k, out), &starts, &chk)?;
    m.set("alt.get_ns", alt_get);
    m.set("alt.get_batch_ns_per_key", alt_batch);
    m.set("alt.scan_ns", alt_scan);
    m.set("region.route_ns", region_get - alt_get);
    m.set("region.batch_split_ns_per_key", region_batch - alt_batch);
    m.set("region.scan_merge_ns", region_scan - alt_scan);
    alt_structure(&shards, &reads, &chk, size, m)?;
    drop(shards);

    // ART alone over the same pairs.
    let tree = Art::bulk_load_threaded(&inputs.loaded, BUILD_THREADS);
    m.set("art.get_ns", ladder::get_ns(&tree, &reads, &chk)?);
    m.set(
        "art.get_batch_ns_per_key",
        ladder::batch_ns(&tree, &reads, &chk)?,
    );
    m.set(
        "art.scan_ns",
        ladder::scan_ns(
            |k, out| {
                tree.scan(k, inputs::SCAN_LEN, out);
            },
            &starts,
            &chk,
        )?,
    );
    drop(tree);
    m.set("art.arena_bytes", art::arena_allocated_bytes() as f64);

    // Floor: a reader-writer-locked B-tree over the same pairs.
    let floor: RwLock<BTreeMap<u64, u64>> = RwLock::new(inputs.loaded.iter().copied().collect());
    let floor_get = ladder::timed(|c| {
        for &k in &reads[c] {
            chk.get(
                k,
                floor.read().expect("floor lock poisoned").get(&k).copied(),
            )?;
        }
        Ok(reads[c].len() as u64)
    })?;
    m.set("floor.btree_get_ns", floor_get);
    drop(floor);

    // Learned layer: GPL segmentation of each shard at its own ε.
    let mut gpl_s = 0.0;
    let mut segments = 0usize;
    for slice in ladder::shard_slices(&inputs.loaded, &ladder::shard_lows(&inputs.loaded)) {
        let keys: Vec<u64> = slice.iter().map(|p| p.0).collect();
        let t = Instant::now();
        segments +=
            learned::gpl_segment_parallel(&keys, ladder::shard_epsilon(keys.len()), BUILD_THREADS)
                .len();
        gpl_s += t.elapsed().as_secs_f64();
    }
    m.set("learned.gpl_segment_s", gpl_s);
    m.set("learned.segments", segments as f64);

    // Retrain: an unsharded AltIndex replaying the `hotwrite` stream.
    let hot = if cfg.workload == Workload::Hotwrite {
        inputs
    } else {
        drop(inputs);
        Inputs::generate(Workload::Hotwrite, cfg.seed, size)
    };
    retrain_rung(&hot, size, m)
}

/// Structure of the shard set and the learned-vs-ART split of the stream.
fn alt_structure(
    shards: &ShardSet,
    reads: &[Vec<u64>],
    chk: &Checker,
    size: &Size,
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut models, mut fast, mut in_learned, mut in_art) = (0, 0, 0, 0);
    let (mut mem_learned, mut mem_art, mut mem_fast) = (0, 0, 0);
    for a in &shards.alts {
        let s = a.stats();
        models += s.num_models;
        fast += s.fast_pointers;
        in_learned += s.keys_in_learned;
        in_art += s.keys_in_art;
        mem_learned += s.memory_learned;
        mem_art += s.memory_art;
        mem_fast += s.memory_buffer;
    }
    let keys = (in_learned + in_art).max(1) as f64;
    m.set("alt.models", models as f64);
    m.set("alt.fast_pointers", fast as f64);
    m.set("alt.learned_share", in_learned as f64 / keys);
    m.set("alt.mem_learned_bpk", mem_learned as f64 / keys);
    m.set("alt.mem_art_bpk", mem_art as f64 / keys);
    m.set("alt.mem_fastptr_bpk", mem_fast as f64 / keys);

    // Classify stream keys by where they live; time each class alone.
    let mut learned_keys = Vec::new();
    let mut art_keys = Vec::new();
    let (mut root_hops, mut jump_hops, mut jumps) = (0u64, 0u64, 0u64);
    for &k in reads.concat().iter().take(size.probe_keys) {
        match shards.alts[shards.shard_of(k)].probe_art_hops(k) {
            None => learned_keys.push(k),
            Some(p) => {
                art_keys.push(k);
                root_hops += u64::from(p.root_hops);
                if let Some(j) = p.jump_hops {
                    jump_hops += u64::from(j);
                    jumps += 1;
                }
            }
        }
    }
    m.set(
        "alt.art_hops_root",
        root_hops as f64 / art_keys.len().max(1) as f64,
    );
    m.set("alt.art_hops_jump", jump_hops as f64 / jumps.max(1) as f64);
    let per_client = |v: Vec<u64>| -> Vec<Vec<u64>> {
        (0..CLIENTS)
            .map(|c| v[c * v.len() / CLIENTS..(c + 1) * v.len() / CLIENTS].to_vec())
            .collect()
    };
    m.set(
        "alt.get_learned_ns",
        shards.get_ns(&per_client(learned_keys), chk)?,
    );
    m.set("alt.get_art_ns", shards.get_ns(&per_client(art_keys), chk)?);
    Ok(())
}

/// Replay the `hotwrite` stream against one unsharded `AltIndex`,
/// counting retrains and the inserts that waited for one.
fn retrain_rung(hot: &Inputs, size: &Size, m: &mut Metrics) -> Result<(), String> {
    let alt = AltIndex::bulk_load_threaded(&hot.loaded, BUILD_THREADS);
    let (r0, a0) = (alt.retrain_count(), alt.retrain_attempt_count());
    let count = || alt.retrain_count();
    let plan = Plan {
        seconds: STREAM_CAP_S,
        windows: 1,
        sample_every: u32::MAX,
        trace: false,
        retrains: Some(&count),
    };
    let out = drive(&alt, hot, &plan);
    if let Some(w) = out.wrong.clone() {
        return Err(w);
    }
    after_run(&alt, hot, &out, size)?;
    let faults = alt.fault_stats();
    m.set("alt.retrains", (alt.retrain_count() - r0) as f64);
    m.set(
        "alt.retrain_attempts",
        (alt.retrain_attempt_count() - a0) as f64,
    );
    m.set("alt.retrain_stall_inserts", out.stall_inserts as f64);
    m.set("alt.retrain_stall_s", out.stall_ns as f64 / 1e9);
    m.set("alt.rollbacks", faults.retrain_rollbacks as f64);
    m.set("alt.degraded", f64::from(u8::from(faults.degraded)));
    Ok(())
}

/// Spans as fixed 33-byte little-endian records after a one-line text
/// header: call (u8: 0 get, 1 get_batch, 2 insert, 3 scan), request id,
/// parent request id (0 for a root), start ns, end ns (u64 each).
fn write_spans(
    dir: &std::path::Path,
    workload: Workload,
    spans: &[Span],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.spans", workload.name()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let names: Vec<&str> = Call::ALL.iter().map(|c| c.span_name()).collect();
    writeln!(
        w,
        "stackbench spans v1: u8 call [{}], u64 req, u64 parent, u64 start_ns, u64 end_ns",
        names.join(", ")
    )?;
    for s in spans {
        w.write_all(&[s.call as u8])?;
        for x in [s.req, s.parent, s.start_ns, s.end_ns] {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(path)
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn json_list(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ")
    )
}

/// Run-record fields as `(key, JSON value)`.
#[derive(Default)]
struct Record(Vec<(String, String)>);

impl Record {
    fn raw(&mut self, k: &str, v: String) {
        self.0.push((k.to_string(), v));
    }
    fn str(&mut self, k: &str, v: &str) {
        self.0.push((k.to_string(), jstr(v)));
    }
}
