//! `stackbench --workload <lookup|multiget|hotwrite> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run record, one line per metric, and as the last line the
//! result object. Exits 1 on a wrong answer or a `hotwrite` stream that
//! did not run to its end, 2 on a usage error.

use stackbench::inputs::{Size, Workload};
use stackbench::{run, Config};
use std::process::ExitCode;

const USAGE: &str = "usage: stackbench --workload <lookup|multiget|hotwrite> --seed <u64> \
                     --seconds <secs> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    println!("{}", report.record_json());
    for line in report.table() {
        println!("{line}");
    }
    println!("{}", report.result_json());
    match &report.wrong {
        None => ExitCode::SUCCESS,
        Some(w) => {
            eprintln!("run failed: {w}");
            ExitCode::from(1)
        }
    }
}
