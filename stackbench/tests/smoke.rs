//! The benchmark's own tests, at smoke size.

use index_api::{ConcurrentIndex, IndexError, Key, Result, Value};
use stackbench::inputs::{Inputs, Size, Stream, Workload};
use stackbench::report::{END_TO_END, PER_LAYER};
use stackbench::{run, run_with, Config, Region, TRACE_DIR};
use std::process::Command;
use std::sync::Arc;

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 0.5,
        trace,
        size: Size::smoke(),
    }
}

#[test]
fn every_metric_is_printed_with_its_unit_for_every_workload() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&config(w, trace));
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                w.name(),
                report.wrong
            );
            let last = report.result_json();
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            let table = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{name} missing on {}: {last}", w.name()));
                let rest = &last[at + needle.len()..];
                let value = rest.split(',').next().unwrap();
                assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
                assert!(
                    rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{name}: {rest}"
                );
            }
            assert_eq!(
                last.matches("\"value\"").count(),
                table.len(),
                "extra metrics: {last}"
            );
            assert_eq!(report.table().len(), table.len());
            let record = report.record_json();
            for field in [
                "\"seed\": 5",
                "\"git_rev\"",
                "\"available_parallelism\"",
                "\"keys_loaded\"",
                "\"stream_digest\"",
            ] {
                assert!(record.contains(field), "{field} missing from {record}");
            }
            if !trace {
                assert!(record.contains("\"rep_samples_call\""), "{record}");
            }
        }
    }
    assert!(std::path::Path::new(TRACE_DIR)
        .join("hotwrite.spans")
        .exists());
}

#[test]
fn the_result_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names_in = |section: &str| -> Vec<(String, String)> {
        let body = &json[json.find(&format!("\"{section}\"")).unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |k: &str| {
                    let at = entry.find(&format!("\"{k}\": \"")).unwrap() + k.len() + 5;
                    entry[at..at + entry[at..].find('"').unwrap()].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_in("end_to_end"), own(END_TO_END));
    assert_eq!(names_in("per_layer"), own(PER_LAYER));
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn stream_digest_follows_the_seed() {
    let size = Size::smoke();
    for w in Workload::ALL {
        let a = Inputs::generate(w, 11, &size).digest();
        assert_eq!(a, Inputs::generate(w, 11, &size).digest(), "{}", w.name());
        assert_ne!(a, Inputs::generate(w, 12, &size).digest(), "{}", w.name());
    }
}

/// The router with one key answering a wrong value or, with
/// `refuse_insert`, one key's insert refused.
struct Planted {
    inner: Arc<Region>,
    key: Key,
    refuse_insert: bool,
}

impl ConcurrentIndex for Planted {
    fn get(&self, key: Key) -> Option<Value> {
        let v = self.inner.get(key);
        if key == self.key && !self.refuse_insert {
            v.map(|v| v ^ 1)
        } else {
            v
        }
    }
    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        self.inner.get_batch(keys, out);
        for (k, o) in keys.iter().zip(out.iter_mut()) {
            if *k == self.key && !self.refuse_insert {
                *o = o.map(|v| v ^ 1);
            }
        }
    }
    fn insert(&self, key: Key, value: Value) -> Result<()> {
        if key == self.key && self.refuse_insert {
            return Err(IndexError::DuplicateKey);
        }
        self.inner.insert(key, value)
    }
    fn update(&self, key: Key, value: Value) -> Result<()> {
        self.inner.update(key, value)
    }
    fn remove(&self, key: Key) -> Option<Value> {
        self.inner.remove(key)
    }
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        self.inner.range(lo, hi, out)
    }
    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.inner.scan(lo, n, out)
    }
    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self) -> &'static str {
        "planted"
    }
}

#[test]
fn a_planted_wrong_answer_fails_the_run() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = config(w, trace);
            // The first key the first client reads.
            let key = match &Inputs::generate(w, cfg.seed, &cfg.size).streams[0] {
                Stream::Keys(k) => k[0],
                Stream::Ops(ops) => ops
                    .iter()
                    .find_map(|op| match op {
                        stackbench::inputs::Op::Read(k) => Some(*k),
                        _ => None,
                    })
                    .unwrap(),
            };
            let report = run_with(&cfg, &|inner| {
                Arc::new(Planted {
                    inner,
                    key,
                    refuse_insert: false,
                })
            });
            assert!(
                !report.correct,
                "{} trace={trace} passed with a wrong answer",
                w.name()
            );
            let why = report
                .wrong
                .as_deref()
                .expect("the wrong answer is reported");
            assert!(why.contains(&key.to_string()), "{why}");
            assert!(report.result_json().starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn a_refused_insert_fails_the_hotwrite_run() {
    for trace in [false, true] {
        let cfg = config(Workload::Hotwrite, trace);
        let inputs = Inputs::generate(Workload::Hotwrite, cfg.seed, &cfg.size);
        let key = inputs.held[inputs.held.len() / 2].0;
        let report = run_with(&cfg, &|inner| {
            Arc::new(Planted {
                inner,
                key,
                refuse_insert: true,
            })
        });
        assert!(
            !report.correct,
            "trace={trace} passed with a refused insert"
        );
        assert_eq!(report.failed, 1);
        let why = report.wrong.as_deref().unwrap();
        assert!(why.contains("held-back keys inserted"), "{why}");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
