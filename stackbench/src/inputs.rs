//! Seeded workload inputs: the loaded pairs, the held-back insert keys and
//! the per-client op streams. Everything here is generated before any
//! timing starts; the index only ever sees the materialized results.

use datasets::gen::value_for;
use datasets::{generate, Dataset};
use workloads::{Mix, WorkloadPlan};

pub use workloads::Op;

/// Closed-loop client threads (the host has two cores).
pub const CLIENTS: usize = 2;
/// Keys per `get_batch` call on `multiget`.
pub const BATCH: usize = 32;
/// Entries per scan on `hotwrite`.
pub const SCAN_LEN: usize = 100;
/// Read skew of `lookup` and `hotwrite` (the paper's YCSB θ).
pub const THETA: f64 = 0.99;

/// The three workloads. See `stackbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-key zipfian `get` on fb.
    Lookup,
    /// Uniform `get_batch(32)` on osm.
    Multiget,
    /// 50% get / 45% insert / 5% scan(100) on fb with 100 held-back blocks.
    Hotwrite,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Lookup, Workload::Multiget, Workload::Hotwrite];

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Multiget => "multiget",
            Workload::Hotwrite => "hotwrite",
        }
    }

    /// The synthetic dataset the workload draws its keys from.
    pub fn dataset(self) -> Dataset {
        match self {
            Workload::Lookup | Workload::Hotwrite => Dataset::Fb,
            Workload::Multiget => Dataset::Osm,
        }
    }
}

/// How much of everything a run generates and replays. [`Size::full`] is
/// the benchmark; [`Size::smoke`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone)]
pub struct Size {
    /// Keys generated for `lookup` and `multiget`; every other one is loaded.
    pub read_keys: usize,
    /// Keys generated for `hotwrite`; 10% of them are held back.
    pub hot_keys: usize,
    /// Number of held-back blocks on `hotwrite`.
    pub hot_blocks: usize,
    /// Keys per client stream on `lookup` and `multiget` (cycled).
    pub stream_len: usize,
    /// Independent reps (bulk load, then a measured phase) per end-to-end
    /// run of `lookup` and `multiget`; every end-to-end metric is the
    /// median over reps.
    pub read_reps: usize,
    /// The same for `hotwrite`, whose reps each replay the whole stream.
    pub hot_reps: usize,
    /// Per-key gets (and keys batched) per client in each ladder rung.
    pub ladder_keys: usize,
    /// Scans per client in each ladder rung.
    pub ladder_scans: usize,
    /// Stream keys classified by `probe_art_hops`.
    pub probe_keys: usize,
    /// Keys sent through each `BatchServer` mode.
    pub serve_keys: usize,
    /// Inserted keys read back after the timed phase.
    pub readback: usize,
    /// Length cap of the traced phase on `lookup` and `multiget`, seconds.
    pub trace_secs: f64,
}

impl Size {
    /// The sizes the benchmark is defined at.
    pub fn full() -> Self {
        Size {
            read_keys: 20_000_000,
            hot_keys: 10_000_000,
            hot_blocks: 100,
            stream_len: 1 << 22,
            read_reps: 4,
            hot_reps: 3,
            ladder_keys: 1_000_000,
            ladder_scans: 10_000,
            probe_keys: 200_000,
            serve_keys: 200_000,
            readback: 100_000,
            trace_secs: 2.0,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn smoke() -> Self {
        Size {
            read_keys: 200_000,
            hot_keys: 100_000,
            hot_blocks: 10,
            stream_len: 20_000,
            read_reps: 2,
            hot_reps: 2,
            ladder_keys: 4_000,
            ladder_scans: 200,
            probe_keys: 4_000,
            serve_keys: 4_000,
            readback: 1_000,
            trace_secs: 0.2,
        }
    }
}

/// One client's pre-materialized calls.
#[derive(Debug, Clone)]
pub enum Stream {
    /// `lookup`: one `get` per key. `multiget`: one `get_batch` per
    /// [`BATCH`] consecutive keys. Cycled until the run ends.
    Keys(Vec<u64>),
    /// `hotwrite`: reads, inserts and scans, run once, in order.
    Ops(Vec<Op>),
}

/// Everything a run of one workload needs, generated from its seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Keys generated before the load/hold-back split.
    pub generated: usize,
    /// Sorted pairs handed to the bulk load.
    pub loaded: Vec<(u64, u64)>,
    /// Sorted held-back pairs the streams insert, each exactly once
    /// (empty on the read workloads).
    pub held: Vec<(u64, u64)>,
    /// One stream per client.
    pub streams: Vec<Stream>,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, size: &Size) -> Self {
        match workload {
            Workload::Lookup | Workload::Multiget => read_inputs(workload, seed, size),
            Workload::Hotwrite => hotwrite_inputs(seed, size),
        }
    }

    /// Per client, the keys the ladder's per-key and batched rungs
    /// replay: the stream's keys in order (gets only on `hotwrite`).
    pub fn read_keys(&self, per_client: usize) -> Vec<Vec<u64>> {
        self.streams
            .iter()
            .map(|s| match s {
                Stream::Keys(k) => k.iter().copied().cycle().take(per_client).collect(),
                Stream::Ops(ops) => keys_of(ops, |op| matches!(op, Op::Read(_)), per_client),
            })
            .collect()
    }

    /// Per client, the scan start keys the ladder's scan rungs replay:
    /// the stream's own scans on `hotwrite`, every 97th stream key on
    /// the read workloads.
    pub fn scan_starts(&self, per_client: usize) -> Vec<Vec<u64>> {
        self.streams
            .iter()
            .map(|s| match s {
                Stream::Keys(k) => k
                    .iter()
                    .copied()
                    .step_by(97)
                    .cycle()
                    .take(per_client)
                    .collect(),
                Stream::Ops(ops) => keys_of(ops, |op| matches!(op, Op::Scan(..)), per_client),
            })
            .collect()
    }

    /// A digest of every stream, in order: equal seeds give equal digests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
        for s in &self.streams {
            match s {
                Stream::Keys(keys) => keys.iter().for_each(|&k| mix(k)),
                Stream::Ops(ops) => ops.iter().for_each(|op| match *op {
                    Op::Read(k) => mix(k),
                    Op::Insert(k, v) => mix(k ^ v.rotate_left(17) ^ 1 << 62),
                    Op::Remove(k) => mix(k ^ 3 << 62),
                    Op::Scan(k, n) => mix(k ^ (n as u64) << 32 ^ 2 << 62),
                }),
            }
            mix(u64::MAX);
        }
        h
    }
}

fn keys_of(ops: &[Op], want: impl Fn(&Op) -> bool, n: usize) -> Vec<u64> {
    let picked = ops.iter().filter(|op| want(op)).map(|op| match *op {
        Op::Read(k) | Op::Insert(k, _) | Op::Remove(k) | Op::Scan(k, _) => k,
    });
    picked.cycle().take(n).collect()
}

fn read_inputs(workload: Workload, seed: u64, size: &Size) -> Inputs {
    let keys = generate(workload.dataset(), size.read_keys, seed);
    let loaded: Vec<(u64, u64)> = keys.iter().step_by(2).map(|&k| (k, value_for(k))).collect();
    let theta = if workload == Workload::Lookup {
        THETA
    } else {
        0.0
    };
    let plan = WorkloadPlan::new(
        loaded.iter().map(|p| p.0).collect(),
        Vec::new(),
        Mix::READ_ONLY,
        theta,
        seed,
    );
    let len = size.stream_len.div_ceil(BATCH) * BATCH;
    let streams = (0..CLIENTS)
        .map(|c| {
            let keys = plan
                .stream(c, CLIENTS, len)
                .map(|op| match op {
                    Op::Read(k) => k,
                    other => unreachable!("a read-only mix generated {other:?}"),
                })
                .collect();
            Stream::Keys(keys)
        })
        .collect();
    Inputs {
        workload,
        generated: keys.len(),
        loaded,
        held: Vec::new(),
        streams,
    }
}

fn hotwrite_inputs(seed: u64, size: &Size) -> Inputs {
    let keys = generate(Dataset::Fb, size.hot_keys, seed);
    let n = keys.len();
    let stride = n / size.hot_blocks;
    let block = n / 10 / size.hot_blocks;
    let mut is_held = vec![false; n];
    for b in 0..size.hot_blocks {
        let start = b * stride + (stride - block) / 2;
        is_held[start..start + block]
            .iter_mut()
            .for_each(|h| *h = true);
    }
    let mut held = Vec::with_capacity(block * size.hot_blocks);
    let mut loaded = Vec::with_capacity(n);
    for (&k, &h) in keys.iter().zip(&is_held) {
        if h {
            held.push(k);
        } else {
            loaded.push((k, value_for(k)));
        }
    }

    // The plan shuffles the held-back keys and gives each client a
    // disjoint slice of them (the last client takes the remainder). Each
    // client's stream runs until its slice is used up, so one pass of
    // the streams inserts every held-back key exactly once.
    let plan = WorkloadPlan::new(
        loaded.iter().map(|p| p.0).collect(),
        held.clone(),
        Mix::new(50, 45, 5),
        THETA,
        seed,
    );
    assert_eq!(plan.scan_len, SCAN_LEN);
    let per = held.len() / CLIENTS;
    let streams: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            let mut left = if c + 1 == CLIENTS {
                held.len() - per * c
            } else {
                per
            };
            let mut ops = Vec::with_capacity(left * 100 / 45 + 1024);
            for op in plan.stream(c, CLIENTS, usize::MAX) {
                if left == 0 {
                    break;
                }
                if matches!(op, Op::Insert(..)) {
                    left -= 1;
                }
                ops.push(op);
            }
            ops
        })
        .collect();
    let mut inserted: Vec<(u64, u64)> = streams
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            Op::Insert(k, v) => Some((k, v)),
            _ => None,
        })
        .collect();
    inserted.sort_unstable();
    assert!(
        inserted.iter().map(|p| p.0).eq(held.iter().copied()),
        "the streams must insert every held-back key exactly once"
    );
    Inputs {
        workload: Workload::Hotwrite,
        generated: n,
        loaded,
        held: inserted,
        streams: streams.into_iter().map(Stream::Ops).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotwrite_holds_back_ten_percent_in_blocks() {
        let inp = Inputs::generate(Workload::Hotwrite, 7, &Size::smoke());
        assert_eq!(inp.held.len(), inp.generated / 10);
        assert_eq!(inp.loaded.len() + inp.held.len(), inp.generated);
        let inserts: usize = inp
            .streams
            .iter()
            .map(|s| match s {
                Stream::Ops(ops) => ops.iter().filter(|o| matches!(o, Op::Insert(..))).count(),
                Stream::Keys(_) => 0,
            })
            .sum();
        assert_eq!(inserts, inp.held.len());
    }

    #[test]
    fn read_streams_hold_only_loaded_keys() {
        let inp = Inputs::generate(Workload::Multiget, 3, &Size::smoke());
        for s in &inp.streams {
            let Stream::Keys(keys) = s else {
                panic!("multiget streams are key lists")
            };
            assert_eq!(keys.len() % BATCH, 0);
            assert!(keys
                .iter()
                .all(|k| inp.loaded.binary_search_by_key(k, |p| p.0).is_ok()));
        }
    }
}
