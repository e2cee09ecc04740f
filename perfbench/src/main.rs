//! The repository benchmark: three workloads over the streaming simulator
//! and the serving stack, one JSON result line per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resnet18_stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures with tracing off and reports the end-to-end
//! metrics; `--trace 1` repeats the measurement with spans recorded around
//! each layer call, reports the per-layer metrics (with the tracing
//! overhead against the untraced pass), and writes the spans to
//! `.bench_trace/`. See `perfbench/README.md` for the metric definitions.

mod layers;
mod serving;
mod stats;
mod stream;
mod trace;

use stats::Ledger;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Parsed command line.
pub struct Args {
    workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| bad(&e))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end metrics and their units, in output order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("host_ms_per_image", "ms"),
    ("sim_cycles_per_image", "cycles"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("interactive_p50_ms", "ms"),
    ("interactive_p99_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics and their units, in output order. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("compiler.compile_ms", "ms"),
    ("compiler.partition_ms", "ms"),
    ("compiler.dse_pick_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("compiler.kernels", "count"),
    ("compiler.streams", "count"),
    ("compiler.fmem_kbits", "kbit"),
    ("dfe.run_ms", "ms"),
    ("dfe.span_cycle_share", "share"),
    ("dfe.mean_span_cycles", "cycles"),
    ("replay.replayed_image_share", "share"),
    ("replay.guard_fallbacks", "count"),
    ("replay.spans_bypassed", "count"),
    ("replay.tape_len", "count"),
    ("threaded.run_ms", "ms"),
    ("threaded.partition_penalty", "ratio"),
    ("threaded.link_max_fill", "share"),
    ("dfe.kernel_busy_share", "share"),
    ("dfe.kernel_stalled_share", "share"),
    ("dfe.bottleneck_busy_share", "share"),
    ("dfe.max_fifo_fill", "share"),
    ("quant.gemm_gmacs_per_s", "Gmac/s"),
    ("quant.gemm_time_share", "share"),
    ("hwmodel.analytic_period_cycles", "cycles"),
    ("hwmodel.sim_vs_analytic", "ratio"),
    ("hwmodel.sim_vs_paper", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.server_latency_p50_ms", "ms"),
    ("serve.server_latency_p95_ms", "ms"),
    ("serve.batch_occupancy", "images"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.batch_p99_ms", "ms"),
    ("serve.replica_ms_per_image.cnv", "ms"),
    ("serve.replica_ms_per_image.txf", "ms"),
    ("serve.replica_busy_share.cnv", "share"),
    ("serve.replica_busy_share.txf", "share"),
    ("cluster.edge_overhead_p50_ms", "ms"),
    ("cluster.encode_us", "us"),
    ("cluster.decode_us", "us"),
    ("cluster.generator_late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values by name; names and units come from [`END_TO_END`] and
/// [`PER_LAYER`].
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        // A misspelt or repeated name would otherwise print as 0 or be
        // silently shadowed in the release build the benchmark runs.
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        assert!(
            self.0.iter().all(|(n, _)| *n != name),
            "metric {name} reported twice"
        );
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every metric of `table`, in its order; an undeclared value is an
    /// error when `required`, and 0 otherwise.
    fn resolve(
        &self,
        table: &[(&'static str, &'static str)],
        required: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        table
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(_) => Err(format!("metric {name} is not a finite number")),
                None if required => Err(format!("metric {name} was not measured")),
                None => Ok((name, 0.0, unit)),
            })
            .collect()
    }
}

fn json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted and failed, over every pass of the run.
    pub ledger: Ledger,
    /// Wrong outputs and determinism mismatches (a subset of the failures).
    pub wrong: u64,
    /// End-to-end metrics of the untraced pass.
    pub end_to_end: Metrics,
    /// Per-layer metrics of the traced pass (empty when untraced).
    pub per_layer: Metrics,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Worker threads the benchmark may use for its own side work.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fingerprint() -> String {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a repository has a commit; git would
    // otherwise report whatever repository encloses it.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    format!("nproc={} loadavg1={load} commit={commit}", nproc())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("QNN_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the built-in defaults",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let host = fingerprint();
    let tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "resnet18_stream" => stream::run(stream::Placement::OneDevice, &args, &tracer),
        "resnet18_4dfe" => stream::run(stream::Placement::FourDfe, &args, &tracer),
        "serve_mixed_tcp" => serving::run(&args, &tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        outcome.per_layer.resolve(&PER_LAYER, false)
    } else {
        outcome.end_to_end.resolve(&END_TO_END, true)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = format!(".bench_trace/{}-seed{}.json", args.workload, args.seed);
        let body = format!(
            "{{\"host\": \"{host}\", \"workload\": \"{}\", \"seed\": {}, \"spans\": {}}}\n",
            args.workload,
            args.seed,
            tracer.to_json()
        );
        if let Err(e) =
            std::fs::create_dir_all(".bench_trace").and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("# spans written to {path}");
    }
    println!("# host {host}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut table = String::new();
    for (n, v, u) in &metrics {
        let _ = writeln!(table, "# {n:<36} {v:>16.4} {u}");
    }
    print!("{table}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.wrong == 0,
        outcome.ledger.attempted,
        outcome.ledger.failed,
        json(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            doc.matches("\"unit\": ").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
