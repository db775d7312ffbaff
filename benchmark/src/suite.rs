//! The whole set: every workload in a child process of its own, a table of
//! every metric, `out/results.json`, and `--selfcheck` — two sets back to
//! back on the same build, compared against the benchmark's own bounds.

use crate::harness::{EXACT, WORKLOADS};
use crate::json::Json;
use crate::{bench_dir, nproc, out_dir, Args};
use std::fmt;
use std::process::Command;

/// Where a result came from; recorded with every row, because a number
/// without its machine and build is not comparable with anything.
pub struct Env {
    nproc: usize,
    cpu: String,
    rustc: String,
    git: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Env {
    pub fn probe() -> Env {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let dir = bench_dir().display().to_string();
        Env {
            nproc: nproc(),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            // A checkout without history (a source archive) has no sha.
            git: command_line("git", &["-C", &dir, "rev-parse", "--short=12", "HEAD"]),
        }
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu", Json::str(&self.cpu)),
            ("rustc", Json::str(&self.rustc)),
            ("git", Json::str(&self.git)),
        ]
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rustc=\"{}\" git={}",
            self.nproc, self.cpu, self.rustc, self.git
        )
    }
}

/// Direction and bound of an end-to-end metric, from `BENCHMARK.json`.
struct Gate {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

struct Spec {
    run_seconds: f64,
    gates: Vec<Gate>,
}

fn read_spec() -> Result<Spec, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text)?;
    let field = |m: &Json, key: &str| {
        m.get(key)
            .cloned()
            .ok_or(format!("BENCHMARK.json: no {key}"))
    };
    let mut gates = Vec::new();
    for m in field(&json, "end_to_end")?.as_arr() {
        gates.push(Gate {
            name: field(m, "name")?.as_str().unwrap_or_default().to_string(),
            higher_is_better: field(m, "better")?.as_str() == Some("higher"),
            bound: field(m, "bound")?.as_f64().unwrap_or(0.0),
        });
    }
    Ok(Spec {
        run_seconds: field(&json, "run_seconds")?.as_f64().unwrap_or(10.0),
        gates,
    })
}

/// Metrics of one child run, by name.
type Row = Vec<(String, f64)>;

struct ChildResult {
    failed: u64,
    attempted: u64,
    metrics: Row,
}

/// Runs one workload in a child process, echoing its report.
fn child(args: &Args, workload: &str, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .env("TPDE_BENCHMARK_DIR", bench_dir())
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &args.threads.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload}: child exited with {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    for line in report.lines() {
        println!("    {line}");
    }
    let json = Json::parse(last)?;
    let count = |key| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildResult {
        failed: count("failed"),
        attempted: count("attempted"),
        metrics: json
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn value(row: &Row, name: &str) -> Option<f64> {
    row.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// One full set: per workload the untraced run, and the traced one if asked.
type Set = Vec<(String, ChildResult, Option<ChildResult>)>;

fn run_set(args: &Args, spec: &Spec) -> Result<Set, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}");
        let plain = child(args, workload, seconds, false)?;
        let traced = if args.trace {
            // Quarter length: the traced run is for shares, not for medians.
            let t = child(args, workload, seconds / 4.0, true)?;
            for (e2e, layer) in [
                ("minsts_per_s", "traced_minsts_per_s"),
                ("latency_p50_us", "traced_latency_p50_us"),
            ] {
                if let (Some(a), Some(b)) = (value(&plain.metrics, e2e), value(&t.metrics, layer)) {
                    println!(
                        "    tracing overhead on {e2e}: {:+.2}% (traced {b:.4} vs {a:.4})",
                        (b / a - 1.0) * 100.0
                    );
                }
            }
            Some(t)
        } else {
            None
        };
        rows.push((workload.to_string(), plain, traced));
    }
    Ok(rows)
}

fn set_json(args: &Args, env: &Env, set: &Set) -> Json {
    let metrics =
        |r: &ChildResult| Json::obj(r.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
    Json::Arr(
        set.iter()
            .map(|(workload, plain, traced)| {
                let mut row = vec![("workload", Json::str(workload))];
                row.extend(env.json());
                row.extend([
                    ("seed", Json::Num(args.seed as f64)),
                    ("scale", Json::Num(args.scale)),
                    ("clients", Json::Num(args.threads as f64)),
                    ("workers", Json::Num(args.threads as f64)),
                    ("attempted", Json::Num(plain.attempted as f64)),
                    ("failed", Json::Num(plain.failed as f64)),
                    (
                        "fail_share",
                        Json::Num(plain.failed as f64 / plain.attempted.max(1) as f64),
                    ),
                    ("end_to_end", metrics(plain)),
                ]);
                if let Some(t) = traced {
                    row.push(("per_layer", metrics(t)));
                }
                Json::obj(row)
            })
            .collect(),
    )
}

fn print_table(spec: &Spec, set: &Set) {
    print!("\n{:<22}", "end-to-end");
    for (workload, ..) in set {
        print!(" {workload:>15}");
    }
    println!();
    for gate in &spec.gates {
        print!("{:<22}", gate.name);
        for (_, plain, _) in set {
            print!(
                " {:>15.4}",
                value(&plain.metrics, &gate.name).unwrap_or(f64::NAN)
            );
        }
        println!();
    }
    print!("{:<22}", "fail_share");
    for (_, plain, _) in set {
        print!(" {:>15}", format!("{}/{}", plain.failed, plain.attempted));
    }
    println!();
}

fn write_out(name: &str, json: &Json) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{json}\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(gate: &Gate, first: f64, second: f64) -> f64 {
    if gate.higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Two sets on the same build must agree: each end-to-end metric within its
/// bound in either direction, the exact ones bit for bit.
fn selfcheck(args: &Args, env: &Env, spec: &Spec) -> Result<i32, String> {
    println!("==== first set");
    let first = run_set(args, spec)?;
    println!("==== second set");
    let second = run_set(args, spec)?;
    let mut rows = Vec::new();
    let mut disagreements = 0;
    println!(
        "\n{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((workload, a, _), (_, b, _)) in first.iter().zip(&second) {
        for gate in &spec.gates {
            let (Some(x), Some(y)) = (value(&a.metrics, &gate.name), value(&b.metrics, &gate.name))
            else {
                return Err(format!("{workload}: {} missing", gate.name));
            };
            let diff = worse_by(gate, x, y);
            let exact = EXACT.contains(&gate.name.as_str());
            let agrees = if exact {
                x == y
            } else {
                diff.abs() <= gate.bound
            };
            if !agrees {
                disagreements += 1;
            }
            println!(
                "{workload:<16} {:<22} {x:>14.4} {y:>14.4} {:>+8.2}% {:>6.0}%{}{}",
                gate.name,
                diff * 100.0,
                gate.bound * 100.0,
                if exact { " exact" } else { "" },
                if agrees { "" } else { "  DISAGREES" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload)),
                ("metric", Json::str(&gate.name)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("worse_by", Json::Num(diff)),
                ("bound", Json::Num(gate.bound)),
                ("exact", Json::Bool(exact)),
                ("agrees", Json::Bool(agrees)),
            ]));
        }
    }
    let failed: u64 = first.iter().chain(&second).map(|(_, r, _)| r.failed).sum();
    let mut doc = env.json();
    doc.extend([
        ("seed", Json::Num(args.seed as f64)),
        ("disagreements", Json::Num(disagreements as f64)),
        ("failed", Json::Num(failed as f64)),
        ("rows", Json::Arr(rows)),
    ]);
    write_out("selfcheck.json", &Json::obj(doc))?;
    println!("{disagreements} disagreements, {failed} failed operations");
    Ok((disagreements > 0 || failed > 0) as i32)
}

pub fn run(args: &Args) -> std::io::Result<i32> {
    let body = || -> Result<i32, String> {
        let spec = read_spec()?;
        let env = Env::probe();
        println!("# {env}");
        if args.selfcheck {
            return selfcheck(args, &env, &spec);
        }
        let set = run_set(args, &spec)?;
        print_table(&spec, &set);
        write_out("results.json", &set_json(args, &env, &set))?;
        let failed: u64 = set
            .iter()
            .map(|(_, r, t)| r.failed + t.as_ref().map_or(0, |t| t.failed))
            .sum();
        if failed > 0 {
            println!("{failed} operations failed");
        }
        Ok((failed > 0) as i32)
    };
    body().map_err(std::io::Error::other)
}
