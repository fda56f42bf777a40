//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats the workload until `--seconds` have passed, then prints every
//! metric as `metric <name> <value> <unit>` and, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones (medians over untraced
//! iterations); with `--trace 1` untraced and traced iterations alternate
//! and the metrics are the per-layer ones of the median traced iteration.
//! Exits 1 when any correctness check fails.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::report::{self, Metric};
use perfbench::trace::{attribute, write_spans, Tracer};
use perfbench::workloads::{self, Iteration, Params, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <flat_local|tree_cross|zipf_durable> \
--seed <n> --seconds <s> --trace <0|1>";

/// `RuntimeConfig::parallelism` of every workload: `nproc` of the 2-vCPU
/// machine the ledger's bounds were measured on.
const PARALLELISM: usize = 2;
/// Parent of the per-iteration journal directories, in the working
/// directory.
const TMP_DIR: &str = ".bench_tmp";
/// Where traced runs write their spans, in the working directory.
const OUT_DIR: &str = ".bench_out";

/// Untraced iterations discarded before timing: the first one pays for
/// page faults and allocator growth that later iterations reuse.
const WARMUP: usize = 1;
/// Fewest timed untraced iterations behind a median.
const MIN_UNTRACED: usize = 3;
/// Fewest traced iterations in a traced run.
const MIN_TRACED: usize = 2;
/// Set-ups timed on their own, after the iterations, on top of each
/// timed iteration's own set-up. Set-up takes 0.05–50 ms, so single
/// timings jump with the host's load and the median needs many samples.
const SETUP_REPS: usize = 41;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

fn run(args: &Args) -> i32 {
    let params = Params {
        workload: args.workload,
        seed: args.seed,
        parallelism: PARALLELISM,
        scale: Scale::FULL,
        tmp_dir: PathBuf::from(TMP_DIR),
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    let mut digest: Option<String> = None;
    for i in 0.. {
        let enough =
            untraced.len() >= WARMUP + MIN_UNTRACED && (!args.trace || traced.len() >= MIN_TRACED);
        if (enough && start.elapsed() >= budget) || !failures.is_empty() {
            break;
        }
        let tracer = Arc::new(Tracer::new(args.trace && i % 2 == 1));
        let it = match workloads::run(&params, &tracer) {
            Ok(it) => it,
            Err(e) => {
                failures.push(format!("iteration {i}: {e}"));
                break;
            }
        };
        println!(
            "iteration {i} traced {} setup_s {} phase_s {} msgs_per_s {} cpu_us_per_msg {} recover_s {}",
            u8::from(tracer.enabled()),
            it.setup_s,
            it.phase_s(),
            it.msgs_per_s(),
            it.cpu_us_per_msg(),
            it.recover_s
        );
        attempted += it.submitted;
        failed += it.lost();
        failures.extend(it.failures.iter().map(|f| format!("iteration {i}: {f}")));
        // Every iteration replays the same seeded inputs.
        match &digest {
            None => digest = Some(it.digest.clone()),
            Some(d) if *d != it.digest => failures.push(format!(
                "iteration {i}: root digest {} differs from {d}",
                it.digest
            )),
            Some(_) => {}
        }
        if tracer.enabled() {
            traced.push(it);
        } else {
            untraced.push(it);
        }
    }

    let timed: Vec<&Iteration> = untraced.iter().skip(WARMUP).collect();
    let mut metrics: Vec<Metric> = Vec::new();
    if failures.is_empty() {
        if args.trace {
            metrics = per_layer(args, &timed, &mut traced, &mut failures);
        } else {
            let mut setups: Vec<f64> = timed.iter().map(|i| i.setup_s).collect();
            let tracer = Arc::new(Tracer::new(false));
            for _ in 0..SETUP_REPS {
                match workloads::setup_s(&params, &tracer) {
                    Ok(s) => setups.push(s),
                    Err(e) => failures.push(format!("set-up: {e}")),
                }
            }
            metrics = report::end_to_end(&timed, &setups);
        }
    }
    if metrics.iter().any(|m| !m.value.is_finite()) {
        failures.push("a metric is not a finite number".into());
    }

    let first = untraced.first().or(traced.first());
    println!(
        "workload {} seed {} parallelism {} iterations {} (timed untraced {}, traced {}) wall_s {:.3}",
        args.workload.name(),
        args.seed,
        PARALLELISM,
        untraced.len() + traced.len(),
        timed.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    if let Some(it) = first {
        println!(
            "deterministic committed {} virtual_s {} waves {} blocks {} submitted {}",
            it.committed,
            it.virtual_ms as f64 / 1e3,
            it.waves,
            it.wave_blocks,
            it.submitted
        );
    }
    println!("digest {}", digest.as_deref().unwrap_or("-"));
    for f in &failures {
        println!("FAILED {f}");
    }
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        attempted.max(1),
        failed,
        body.join(", ")
    );
    if failures.is_empty() {
        0
    } else {
        1
    }
}

/// Per-layer metrics of the median (by phase wall time) traced
/// iteration; checks on every traced iteration that the self times and
/// `other_s` close to the phase wall time, and writes the chosen
/// iteration's spans out.
fn per_layer(
    args: &Args,
    timed: &[&Iteration],
    traced: &mut [Iteration],
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let mut attributions = Vec::with_capacity(traced.len());
    for it in traced.iter_mut() {
        let phase = it.phase_ns;
        let a = attribute(&mut it.spans, phase);
        let wall = phase.1 - phase.0;
        if a.closure_ns() != wall {
            failures.push(format!(
                "layer self times + other_s = {} ns, phase wall = {wall} ns",
                a.closure_ns()
            ));
        }
        attributions.push(a);
    }
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&x, &y| traced[x].phase_s().total_cmp(&traced[y].phase_s()));
    let pick = order[(order.len() - 1) / 2];
    let untraced_rate = report::median(&timed.iter().map(|i| i.msgs_per_s()).collect::<Vec<_>>());
    let traced_rate = report::median(&traced.iter().map(Iteration::msgs_per_s).collect::<Vec<_>>());
    let overhead = 1.0 - traced_rate / untraced_rate;
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = write_spans(&path, args.workload.name(), &traced[pick].spans) {
        failures.push(format!("writing {}: {e}", path.display()));
    }
    report::per_layer(&traced[pick], &attributions[pick], overhead)
}
