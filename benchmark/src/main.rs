//! The repository's benchmark: four workloads, end-to-end metrics with
//! regression bounds, per-layer attribution from a traced run.
//!
//! ```text
//! ts-benchmark --workload W --seed N --seconds S --trace 0|1   (the driver's form)
//! ts-benchmark run W [--seed N] [--seconds S] [--trace] [--smoke]
//! ts-benchmark all [--seed N] [--seconds S] [--smoke] [--repeat N] [--out FILE]
//! ts-benchmark list [--manifest]
//! ts-benchmark check-manifest [FILE]
//! ts-benchmark compare A.json B.json
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

#![forbid(unsafe_code)]

mod check;
mod clock;
mod closed;
mod compare;
mod env;
mod json;
mod manifest_check;
mod probes;
mod rebuild;
mod registry;
mod report;
mod run;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use json::Json;
use run::{RunConfig, RunOutput, Workload, METHODS};

const DEFAULT_SEED: u64 = 42;

fn execute(cfg: &RunConfig) -> RunOutput {
    match cfg.workload {
        Workload::FullScan => closed::run(cfg, &METHODS[..4]),
        Workload::TopkEt => closed::run(cfg, &METHODS[4..]),
        Workload::Build => rebuild::run(cfg),
        Workload::ServeOpen => serve::run(cfg),
    }
}

/// Options shared by `run`, `all` and the driver's form.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
    manifest: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: registry::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        manifest: false,
        positional: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: `{v}` is not a valid number"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i, "--workload")?),
            "--seed" => o.seed = number("--seed", &value(&mut i, "--seed")?)?,
            "--seconds" => o.seconds = number("--seconds", &value(&mut i, "--seconds")?)?,
            "--repeat" => o.repeat = number("--repeat", &value(&mut i, "--repeat")?)?,
            "--out" => o.out = Some(value(&mut i, "--out")?),
            "--smoke" => o.smoke = true,
            "--manifest" => o.manifest = true,
            // `--trace` alone switches tracing on; the driver writes
            // `--trace 0` or `--trace 1`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.trace = false;
                    i += 1;
                }
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(args[i].clone()),
        }
        i += 1;
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if o.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    Ok(o)
}

fn config(o: &Options, workload: Workload) -> RunConfig {
    RunConfig { workload, seed: o.seed, seconds: o.seconds, trace: o.trace, smoke: o.smoke }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

/// One workload, in this process. The last line printed is the result.
fn cmd_run(o: &Options, name: &str) -> Result<ExitCode, String> {
    let cfg = config(o, workload_named(name)?);
    let out = execute(&cfg);
    report::print_table(&cfg, &out);
    report::write_result_file(&cfg, &out);
    println!("{}", report::result_line(&cfg, &out));
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in a process of its own so that `peak_rss_mib`
/// is that workload's and not the largest one's so far.
fn cmd_all(o: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut runs = Vec::new();
    let mut failed = false;
    for _ in 0..o.repeat {
        for w in Workload::ALL {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", w.name(), "--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()]);
            if o.smoke {
                cmd.arg("--smoke");
            }
            if o.trace {
                cmd.arg("--trace");
            }
            // `output` waits for the child and collects what it printed.
            let output = cmd.output().map_err(|e| format!("cannot run {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                return Err(format!("{} exited with {}", w.name(), output.status));
            }
            let kind = if o.trace { ".trace" } else { "" };
            let path = run::out_dir().join(format!("{}{kind}.json", w.name()));
            let doc = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|text| json::parse(&text))?;
            failed |= doc.get("failed").and_then(Json::as_f64) != Some(0.0);
            runs.push(doc);
            println!();
        }
    }
    let path = o.out.clone().map_or_else(|| run::out_dir().join("all.json"), Into::into);
    std::fs::write(&path, Json::obj([("runs", Json::Arr(runs))]).to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn cmd_list(o: &Options) -> ExitCode {
    if o.manifest {
        print!("{}", registry::manifest().to_pretty());
        return ExitCode::SUCCESS;
    }
    println!("workloads:");
    for w in registry::WORKLOADS {
        println!("  {:<11} {}", w.name, w.why);
    }
    println!("end-to-end metrics (tracing off; every workload reports all):");
    for d in registry::end_to_end() {
        let bound = d.bound.expect("end-to-end metrics have bounds");
        println!(
            "  {:<24} {:<6} better {:<6} bound {:.0}%",
            d.name,
            d.unit,
            d.better,
            bound * 100.0
        );
    }
    println!("per-layer metrics (--trace):");
    for d in registry::per_layer() {
        println!("  {:<40} {:<7} better {}", d.name, d.unit, d.better);
    }
    ExitCode::SUCCESS
}

fn cmd_check_manifest(o: &Options) -> Result<ExitCode, String> {
    let path =
        o.positional.get(1).map_or_else(|| run::repo_root().join("BENCHMARK.json"), Into::into);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match manifest_check::check_manifest(&doc) {
        Ok(()) => {
            println!(
                "{}: {} workloads, {} end-to-end and {} per-layer metrics match the harness",
                path.display(),
                registry::WORKLOADS.len(),
                registry::end_to_end().len(),
                registry::per_layer().len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("{p}");
            }
            Err(format!("{} does not match the harness", path.display()))
        }
    }
}

fn cmd_compare(o: &Options) -> Result<ExitCode, String> {
    let [_, a, b] = o.positional.as_slice() else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
            .and_then(|doc| compare::samples(&doc).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    compare::print_rows(&rows);
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressions, unresolved) =
        (count(compare::Verdict::Regression), count(compare::Verdict::Unresolved));
    println!("{} rows: {regressions} regressions, {unresolved} unresolved", rows.len());
    Ok(if regressions + unresolved == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    // The driver's form names the workload with an option.
    if let Some(name) = &o.workload {
        return cmd_run(&o, name);
    }
    match o.positional.first().map(String::as_str) {
        Some("run") => match o.positional.get(1) {
            Some(name) => cmd_run(&o, name),
            None => {
                Err("usage: run <workload> [--seed N] [--seconds S] [--trace] [--smoke]".into())
            }
        },
        Some("all") => cmd_all(&o),
        Some("list") => Ok(cmd_list(&o)),
        Some("check-manifest") => cmd_check_manifest(&o),
        Some("compare") => cmd_compare(&o),
        _ => {
            Err("usage: run <workload> | all | list | check-manifest | compare A.json B.json"
                .into())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ts-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
