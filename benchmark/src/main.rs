//! The repo's benchmark: six named workloads, gated end-to-end metrics and an
//! outside-in per-layer trace for the compile path and the compile service.
//! See `benchmark/README.md`.
//!
//! With `--workload` this is one run of one workload, whose last line of
//! output is the result as one JSON object (the contract of
//! `BENCHMARK.json`); without, it runs the whole set in child processes of
//! its own, one per workload, so that peak memory is per workload.

mod check;
mod compile;
mod gen;
mod harness;
mod json;
mod probes;
mod service;
mod stats;
mod suite;
mod trace;

use harness::{Cfg, Outcome, WORKLOADS};
use json::Json;
use std::path::PathBuf;
use std::sync::OnceLock;

static BENCH_DIR: OnceLock<PathBuf> = OnceLock::new();

/// The benchmark's directory; `run.sh` exports it, and from the repository
/// root it is `benchmark`.
pub fn bench_dir() -> &'static PathBuf {
    BENCH_DIR.get_or_init(|| {
        std::env::var_os("TPDE_BENCHMARK_DIR")
            .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
    })
}

/// Where traces, results and scratch stores go (git-ignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Worker, client and shard threads: the cores, at most four.
pub fn default_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub threads: usize,
    pub scale: f64,
    pub selfcheck: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
         [--threads N] [--scale F] [--selfcheck]\nworkloads: {}",
        WORKLOADS.join(" ")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        threads: default_threads(),
        scale: 1.0,
        selfcheck: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?.clone()),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--threads" => {
                args.threads = value("a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--scale" => {
                args.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(args.scale > 0.0 && args.scale <= 4.0) {
                    return Err("--scale must be in (0, 4]".into());
                }
            }
            "--selfcheck" => args.selfcheck = true,
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    // More threads than cores would measure the scheduler, not the program.
    if args.threads == 0 || args.threads > nproc() {
        return Err(format!("--threads must be 1..={} (nproc)", nproc()));
    }
    Ok(args)
}

/// One run of one workload.
pub fn run_workload(cfg: &Cfg) -> Outcome {
    if cfg.workload.starts_with("svc-") {
        service::run(cfg)
    } else {
        compile::run(cfg)
    }
}

/// The result object of the contract: exactly these four keys.
pub fn result_json(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

/// Prints the report and, as the last line, the result object. The exit
/// code is non-zero if any operation failed.
fn single_run(cfg: &Cfg) -> std::io::Result<i32> {
    println!(
        "# tpde-benchmark {} seed={} seconds={} trace={} clients=workers={} scale={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.threads, cfg.scale
    );
    println!("# {}", suite::Env::probe());
    let out = run_workload(cfg);
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, unit, value) in out.metrics.iter() {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_share {share} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    if cfg.trace {
        std::fs::create_dir_all(out_dir())?;
        let path = out_dir().join(format!("trace-{}.jsonl", cfg.workload));
        std::fs::write(&path, trace::to_jsonl(&out.spans))?;
        println!("# {} spans written to {}", out.spans.len(), path.display());
    }
    println!("{}", result_json(&out));
    Ok((out.failed > 0) as i32)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    let status = match &args.workload {
        Some(workload) => {
            let cfg = Cfg {
                workload: workload.clone(),
                seed: args.seed,
                seconds: args.seconds.unwrap_or(10.0),
                trace: args.trace,
                threads: args.threads,
                scale: args.scale,
            };
            single_run(&cfg)
        }
        None => suite::run(&args),
    };
    match status {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{END_TO_END, PER_LAYER};
    use std::time::Instant;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_hand_forms_of_the_arguments() {
        let a = args(&[
            "--workload",
            "svc-cold",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("svc-cold"), 7, Some(3.0), false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace", "--selfcheck"]).unwrap().selfcheck);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn thread_counts_above_nproc_are_refused() {
        let too_many = (nproc() + 1).to_string();
        assert!(args(&["--threads", &too_many]).is_err());
        assert!(args(&["--threads", "0"]).is_err());
        assert!(args(&["--threads", "1"]).is_ok());
    }

    /// `BENCHMARK.json` and the tables in the code name the same workloads
    /// and metrics, and every bound respects the contract's ceiling.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        unit.to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        for m in spec.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
        }
    }

    /// Every workload at a hundredth of its size: runs, passes its own
    /// checks and reports every metric, traced and untraced, in seconds.
    #[test]
    fn smoke_all_six_workloads_at_small_scale() {
        let _ = BENCH_DIR.set(PathBuf::from(env!("CARGO_MANIFEST_DIR")));
        let start = Instant::now();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = Cfg {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.1,
                    trace,
                    threads: default_threads(),
                    scale: 0.01,
                };
                let out = run_workload(&cfg);
                assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
                assert!(out.attempted > 0);
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                let reported: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n).collect();
                assert_eq!(reported, table.iter().map(|(n, _)| *n).collect::<Vec<_>>());
                for (name, _, value) in out.metrics.iter() {
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    assert!(trace || value > 0.0, "{workload} {name} must never be 0");
                }
                let line = result_json(&out).to_string();
                let back = Json::parse(&line).unwrap();
                assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
                assert_eq!(back.fields().len(), 4);
                assert_eq!(trace, !out.spans.is_empty());
            }
        }
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "smoke took {:?}",
            start.elapsed()
        );
    }
}
