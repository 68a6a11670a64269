//! `perfbench` — runs one workload of the EasyView benchmark.
//!
//! ```text
//! perfbench --workload open|edit --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. End-to-end
//! metrics are reported with `--trace 0`, per-layer metrics with
//! `--trace 1`. The full report (sample counts, percentiles, digest)
//! and, for traced runs, the span records are written under `--out`
//! (default `perfbench-out`, relative to the working directory).

use ev_perfbench::alloc::CountingAlloc;
use ev_perfbench::{run, Config, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload open|edit --seed N --seconds S --trace 0|1 [--out DIR]";

fn parse_args() -> Result<(Config, PathBuf), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let config = Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        quick: false,
    };
    Ok((config, out))
}

fn main() -> ExitCode {
    let (config, out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = ev_trace::now_ns();
    let report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            let detail = ev_json::to_string_pretty(&report.detail());
            std::fs::write(out.join(format!("{stem}.json")), detail + "\n")
        })
        .and_then(|()| match &report.spans {
            Some(spans) => {
                let mut file = std::io::BufWriter::new(std::fs::File::create(
                    out.join(format!("{stem}.spans.tsv")),
                )?);
                spans.write_tsv(&mut file)?;
                file.flush()
            }
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write the report under {}: {e}",
            out.display()
        );
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        let pct = m
            .percentile
            .map_or_else(String::new, |p| format!(" p{p:.1}"));
        eprintln!(
            "perfbench: {:<28} {:>14.4} {:<6} n={}{pct} (moves {})",
            m.name, m.value, m.unit, m.samples, m.moves
        );
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: {} attempted, {} failed, digest {:08x}, {:.1} s",
        config.workload.name(),
        config.seed,
        u8::from(config.trace),
        report.attempted,
        report.failed,
        report.digest,
        (ev_trace::now_ns() - start) as f64 / 1e9
    );
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
