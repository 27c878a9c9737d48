//! The `region::serve` rung: the workload's keys sent through a
//! `BatchServer` by many in-flight async clients. It is priced only in the
//! traced run; the end-to-end workloads call the router directly.

use crate::check::Checker;
use index_api::ConcurrentIndex;
use region::{BatchServer, ServeConfig, ServeError, ServeStats};
use std::sync::Arc;
use std::time::Instant;

/// In-flight async clients.
pub const CONNECTIONS: usize = 64;
/// Runtime worker threads (one per core).
pub const WORKERS: usize = 2;

/// One connection's `(key, answer)` pairs, or why it stopped.
type Answers = Result<Vec<(u64, Option<u64>)>, String>;

/// What one serving mode measured.
pub struct Served {
    /// Wall ns per key served times [`WORKERS`]: thread-ns per key,
    /// comparable with the ladder's per-call ns on [`crate::inputs::CLIENTS`] threads.
    pub ns_per_key: f64,
    /// The server's counters at the end.
    pub stats: ServeStats,
}

/// Send `keys` through a `BatchServer` with ring width `ring` (1 is
/// request-at-a-time serving) from [`CONNECTIONS`] tasks on a
/// [`WORKERS`]-thread runtime; every answer is checked.
pub fn serve(
    index: Arc<dyn ConcurrentIndex>,
    keys: &[u64],
    ring: usize,
    chk: &Checker,
) -> Result<Served, String> {
    let server = Arc::new(BatchServer::new(
        index,
        ServeConfig {
            ring_width: ring,
            ..ServeConfig::default()
        },
    ));
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(WORKERS)
        .build()
        .map_err(|e| format!("runtime: {e}"))?;
    let per_conn = keys.len().div_ceil(CONNECTIONS).max(1);
    let t0 = Instant::now();
    let handles: Vec<_> = keys
        .chunks(per_conn)
        .map(|chunk| {
            let (server, chunk) = (Arc::clone(&server), chunk.to_vec());
            rt.spawn(async move {
                let mut answers = Vec::with_capacity(chunk.len());
                for &k in &chunk {
                    match server.get(k).await {
                        Ok(v) => answers.push((k, v)),
                        Err(ServeError::Overloaded) => {}
                        Err(ServeError::Shutdown) => {
                            return Err("server shut down mid-run".to_string())
                        }
                    }
                }
                Ok(answers)
            })
        })
        .collect();
    let answers: Vec<Answers> = rt.block_on(async {
        let mut all = Vec::with_capacity(handles.len());
        for h in handles {
            all.push(
                h.await
                    .unwrap_or_else(|_| Err("serving task panicked".to_string())),
            );
        }
        all
    });
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    drop(rt);
    let stats = server.stats();
    for answer in answers {
        for (k, v) in answer? {
            chk.get(k, v)?;
        }
    }
    Ok(Served {
        ns_per_key: elapsed_ns * WORKERS as f64 / stats.served.max(1) as f64,
        stats,
    })
}
