//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `v2v-contacts`, `cloud-admission`, `city-routing`,
//! `service-mixed` (see `perfbench/README.md` for why each exists). Every
//! input is generated from `--seed`. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! metrics from spans the benchmark opens around its calls into each
//! layer. Every run checks the program's outputs; the last line of standard
//! output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! nonzero when a check failed. `--workload all` runs the four in turn and
//! ends with one object whose metric names carry the workload as prefix.

mod admission;
mod city;
mod harness;
mod service;
mod stats;
mod trace;
mod v2v;

use harness::{Metric, Opts, Outcome};

vc_obs::counting_allocator!();

/// Runs one workload.
type Run = fn(&Opts) -> Outcome;

const WORKLOADS: &[(&str, Run)] = &[
    ("v2v-contacts", v2v::run),
    ("cloud-admission", admission::run),
    ("city-routing", city::run),
    ("service-mixed", service::run),
];

/// Environment knobs that switch code paths inside the program.
const KNOBS: &[&str] =
    &["VC_SHARDS", "VC_CRYPTO_SCALAR", "VC_ROADNET_LINEAR", "VC_TRACE_SAMPLE", "VC_MEM"];

const USAGE: &str =
    "usage: perfbench --workload <v2v-contacts|cloud-admission|city-routing|service-mixed|all> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

struct Args {
    workload: String,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed".to_string())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        },
    })
}

/// The host and knob values a result depends on, as one JSON object.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let knobs: Vec<String> = KNOBS
        .iter()
        .map(|k| match std::env::var(k) {
            Ok(v) => format!("\"{k}\":\"{}\"", v.escape_default()),
            Err(_) => format!("\"{k}\":null"),
        })
        .collect();
    format!("{{\"nproc\":{nproc},{}}}", knobs.join(","))
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        m.join(",")
    )
}

/// Prints one workload's notes and metrics; returns whether its checks held.
fn report(name: &str, args: &Args, out: &Outcome) -> bool {
    let o = &args.opts;
    println!(
        "# workload={name} seed={} seconds={} trace={} env={}",
        o.seed,
        o.seconds,
        o.trace as u8,
        environment()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for bad in &out.mismatches {
        println!("# MISMATCH: {bad}");
        eprintln!("{name}: mismatch: {bad}");
    }
    out.mismatches.is_empty()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let selected: Vec<_> =
        WORKLOADS.iter().filter(|(n, _)| args.workload == "all" || *n == args.workload).collect();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for (name, run) in &selected {
        let out = run(&args.opts);
        let ok = report(name, &args, &out);
        if selected.len() > 1 {
            println!("{}", result_json(ok, out.attempted, out.failed, &out.metrics));
        }
        correct &= ok && out.attempted > 0;
        attempted += out.attempted;
        failed += out.failed;
        for m in out.metrics {
            let name = if selected.len() > 1 { format!("{name}.{}", m.name) } else { m.name };
            metrics.push(Metric { name, ..m });
        }
    }
    println!("{}", result_json(correct, attempted.max(1), failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
