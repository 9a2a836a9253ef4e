//! Host-time benchmark of the odenet-suite simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--expect <name>=<value>]...
//! ```
//!
//! With `--trace 0` it sets a workload up, runs its op in a closed loop
//! for `--seconds`, checks every op's outputs and prints the end-to-end
//! metrics. With `--trace 1` it runs every layer probe inside spans (and
//! the workload's op with and without spans) and prints the per-layer
//! metrics, writing them and the span traces under `.bench_out`. The last
//! line of standard output is the result object. `perfbench/run.py`
//! builds this binary and passes the recorded fingerprints.

mod calib;
mod deploy;
mod layers;
mod spans;
mod stats;
mod workloads;

use calib::Scale;
use spans::Spans;
use stats::{median, tail};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use workloads::{with_workload, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Virtual-time outputs every op must reproduce bit for bit.
    expect: Vec<(String, f64)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut expect = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value:?}: {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                "--expect" => {
                    let (k, v) = value
                        .split_once('=')
                        .ok_or_else(|| bad("want name=value"))?;
                    let v = v.parse::<f64>().map_err(|_| bad("value is not a number"))?;
                    expect.push((k.to_string(), v));
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            expect,
        })
    }
}

/// A JSON string literal.
fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn jnum(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> Result<String, String> {
    let fields = metrics
        .iter()
        .map(|(name, v, unit)| {
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(name),
                jnum(*v)?,
                jstr(unit)
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// The run environment recorded with every result.
fn env_json(threads: usize, nproc: usize) -> String {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"host_cpus\": {}, \"threads\": {threads}, \"rustc\": {}, \"commit\": {}}}",
        jstr(&var("PERFBENCH_HOST_CPUS")),
        jstr(&var("PERFBENCH_RUSTC")),
        jstr(&var("PERFBENCH_COMMIT"))
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Tally of attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            // The first few reasons say enough.
            if self.failed <= 5 {
                eprintln!("perfbench: {what} {} failed: {e}", self.attempted);
            }
        }
    }
}

/// Compare an op's virtual-time outputs with the recorded fingerprint.
fn fingerprint(expect: &[(String, f64)], virtuals: &[(&str, f64)]) -> Result<(), String> {
    for (name, want) in expect {
        match virtuals.iter().find(|(k, _)| k == name) {
            Some((_, got)) if got.to_bits() == want.to_bits() => {}
            Some((_, got)) => return Err(format!("{name} is {got:?}, fingerprint {want:?}")),
            None => return Err(format!("the fingerprint names {name}, which this op lacks")),
        }
    }
    Ok(())
}

fn virtuals_json(virtuals: &[(&str, f64)]) -> Result<String, String> {
    let fields = virtuals
        .iter()
        .map(|(k, v)| Ok(format!("{}: {}", jstr(k), jnum(*v)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

struct Outcome {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Single-image calls after every op: the single-image latency varies
/// far more from call to call than the ops do, so it takes more samples.
const SINGLES_PER_OP: usize = 3;

/// The untraced run: the end-to-end metrics, at reference speed (see
/// `calib`). The raw host seconds are printed beside them.
fn measure(w: &mut dyn Workload, setup: Vec<f64>, args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut quiet = Spans::new(false);
    let (mut op_s, mut op_raw) = (Vec::new(), Vec::new());
    let mut single_s = Vec::new();
    let mut reference = Vec::new();
    let mut images = 0usize;
    let mut busy_s = 0.0f64;
    // One checked but untimed op first, so lazy set-up and cold caches
    // stay out of the samples.
    let warm = w.op(&mut quiet, 0).and_then(|out| {
        println!("perfbench virtual: {}", virtuals_json(&out.virtuals)?);
        out.check
    });
    tally.record("warm-up op", warm);
    let mut scale = Scale::start();
    let started = Instant::now();
    let mut op = 1u64;
    while op == 1 || started.elapsed().as_secs_f64() < args.seconds {
        let out = w.op(&mut quiet, op);
        // Extra single-image calls, interleaved with the ops so both see
        // the same stretch of host conditions.
        let singles: Vec<(f64, Result<(), String>)> = (0..SINGLES_PER_OP)
            .map(|_| {
                let t = Instant::now();
                let outcome = w.single();
                (t.elapsed().as_secs_f64(), outcome)
            })
            .collect();
        let factor = scale.next();
        reference.push(calib::NOMINAL_S / factor);
        let outcome = out.and_then(|out| {
            op_s.push(out.op_s * factor);
            op_raw.push(out.op_s);
            busy_s += out.op_s * factor;
            single_s.extend(out.single_s.map(|s| s * factor));
            out.check?;
            fingerprint(&args.expect, &out.virtuals)?;
            images += out.images;
            Ok(())
        });
        tally.record("op", outcome);
        for (s, outcome) in singles {
            single_s.push(s * factor);
            tally.record("single-image call", outcome);
        }
        op += 1;
    }
    if op_s.is_empty() {
        return Err("no op returned".to_string());
    }
    let (tail_s, pct, n) = tail(&op_s);
    println!(
        "perfbench {}: op_s_tail is p{pct:.1} of {n} ops; raw host op_s_p50 {} s; \
         reference run median {} s (nominal {} s)",
        args.workload,
        median(&op_raw),
        median(&reference),
        calib::NOMINAL_S
    );
    Ok(Outcome {
        metrics: vec![
            ("img_per_s".into(), images as f64 / busy_s, "1/s"),
            ("op_s_p50".into(), median(&op_s), "s"),
            ("op_s_tail".into(), tail_s, "s"),
            ("single_img_s_p50".into(), median(&single_s), "s"),
            ("setup_s".into(), median(&setup), "s"),
            (
                "ok_ratio".into(),
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb".into(), peak_rss_mb()?, "MiB"),
        ],
        tally,
    })
}

/// Where the traced run writes its exports, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = ".bench_out";

/// The traced run: every layer probe plus the workload's own op, with
/// and without spans, in rounds until `--seconds` is spent.
fn traced(w: &mut dyn Workload, args: &Args, env: &str) -> Result<Outcome, String> {
    let net56 = deploy::odenet(56);
    let net20 = deploy::odenet(20);
    let mut probes = layers::Probes::setup(&net56, &net20, args.seed)?;
    let mut tally = Tally::default();
    tally.record(
        "warm-up probe round",
        probes.round(&mut Spans::new(false), 0),
    );
    let mut spans = Spans::new(true);
    let mut quiet = Spans::new(false);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reference = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < args.seconds {
        reference.push(calib::reference_seconds());
        for (recorder, samples) in [(&mut quiet, &mut plain_s), (&mut spans, &mut traced_s)] {
            let outcome = w.op(recorder, round).and_then(|out| {
                samples.push(out.op_s);
                out.check?;
                fingerprint(&args.expect, &out.virtuals)
            });
            tally.record("op", outcome);
        }
        tally.record("probe round", probes.round(&mut spans, round));
        round += 1;
    }
    if plain_s.is_empty() || traced_s.is_empty() {
        return Err("no op returned".to_string());
    }
    let mut metrics = probes.metrics(&spans);
    metrics.push((
        "perfbench.trace_overhead.s".into(),
        median(&traced_s) - median(&plain_s),
        "s",
    ));
    // Per-layer times are raw host seconds; this scales them to
    // reference speed, as the end-to-end metrics are.
    metrics.push(("perfbench.reference.s".into(), median(&reference), "s"));

    let host_json = spans.to_chrome_json("perfbench host spans");
    for (what, json) in [("host", &host_json), ("modelled", &probes.modelled_json)] {
        let checked = zynq_sim::check_chrome_json(json)
            .map(|_| ())
            .map_err(|e| format!("{what} Chrome trace: {e}"));
        tally.record("Chrome-trace export", checked);
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let write = |suffix: &str, body: &str| {
        let path = out_dir.join(format!("{stem}.{suffix}"));
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("host.trace.json", &host_json)?;
    write("modelled.trace.json", &probes.modelled_json)?;
    write(
        "layers.json",
        &format!(
            "{{\"workload\": {}, \"seed\": {}, \"env\": {env}, \"metrics\": {}, \"spans\": {}}}\n",
            jstr(&args.workload),
            args.seed,
            metrics_json(&metrics)?,
            span_summary(&spans)?
        ),
    )?;
    Ok(Outcome { tally, metrics })
}

/// Per span name: count, median duration and median self time.
fn span_summary(spans: &Spans) -> Result<String, String> {
    let own = spans.self_seconds();
    let mut by_name: std::collections::BTreeMap<&str, (Vec<f64>, Vec<f64>)> = Default::default();
    for (s, own) in spans.spans().iter().zip(own) {
        let e = by_name.entry(&s.name).or_default();
        e.0.push(s.seconds());
        e.1.push(own);
    }
    let fields = by_name
        .iter()
        .map(|(name, (total, own))| {
            Ok(format!(
                "{}: {{\"count\": {}, \"median_s\": {}, \"median_self_s\": {}}}",
                jstr(name),
                total.len(),
                jnum(median(total))?,
                jnum(median(own))?
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn run() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".to_string());
    }
    let args = Args::parse()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    tensor::par::set_threads(nproc);
    let threads = tensor::par::threads();
    let env = env_json(threads, nproc);
    println!("perfbench env: {env}");

    let outcome = with_workload(&args.workload, args.seed, |w, setup| {
        if args.trace {
            traced(w, &args, &env)
        } else {
            measure(w, setup, &args)
        }
    })?;
    let Outcome { tally, metrics } = outcome;
    for (name, v, unit) in &metrics {
        println!("perfbench {} {name} = {v} {unit}", args.workload);
    }
    println!(
        "perfbench {} fail_ratio = {} ({} of {} failed)",
        args.workload,
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
