//! Workloads `resnet18_stream` and `resnet18_4dfe`: ResNet-18 @ 224²
//! streamed through the cycle simulator, on one device (`compile` +
//! `Graph::run`) or placed by `partition` onto four Stratix V DFEs
//! (`run_images`, which drives the multi-device executor).
//!
//! One repetition compiles the stream and runs it; repetitions continue
//! until `--seconds` have passed. Every image is checked against the
//! reference interpreter and every repetition's cycle reports against the
//! first repetition's.

use crate::layers::{activity, gemm_probe, graph_size, paper_resnet18_clocks, GraphSize};
use crate::stats::{fastest_segments, median, ms, peak_rss_mb, tail, Ledger};
use crate::trace::{SpanId, Tracer};
use crate::{mix, nproc, Args, Metrics, Outcome};
use qnn::compiler::{compile, partition, run_images, CompileOptions, CompiledNetwork};
use qnn::data::IMAGENET;
use qnn::dfe::{CycleReport, MaxRing, SinkHandle, STRATIX_V_5SGSD8};
use qnn::hw::CycleModel;
use qnn::nn::{models, Network};
use qnn::tensor::Tensor3;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Where the network is placed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    OneDevice,
    FourDfe,
}

impl Placement {
    /// Images per stream. On one device schedule replay needs a few
    /// images to record and validate its tape: 24 leaves 19 replayed. The
    /// four-device executor never replays and runs ~4× slower per image,
    /// so it streams the first four of the same images.
    fn images(self) -> usize {
        match self {
            Placement::OneDevice => 24,
            Placement::FourDfe => 4,
        }
    }
}

/// Set-ups measured after each repetition: `setup_s` is the median of
/// every set-up of the run.
const SETUPS_PER_REP: usize = 10;

struct Inputs {
    net: Network,
    images: Vec<Tensor3<i8>>,
    reference: Vec<Vec<i32>>,
}

/// Seeded weights and image offset; reference logits on every core.
fn inputs(seed: u64, n: usize) -> Inputs {
    let net = Network::random(models::resnet18(1000), mix(seed, 1));
    let offset = mix(seed, 2) % 1_000_000;
    let images: Vec<_> = (0..n as u64).map(|i| IMAGENET.image(offset + i)).collect();
    let mut reference = vec![Vec::new(); n];
    let workers = nproc().min(n).max(1);
    std::thread::scope(|s| {
        for (w, chunk) in reference.chunks_mut(n.div_ceil(workers)).enumerate() {
            let (net, images) = (&net, &images);
            s.spawn(move || {
                for (j, out) in chunk.iter_mut().enumerate() {
                    *out = net.forward(&images[w * n.div_ceil(workers) + j]).logits;
                }
            });
        }
    });
    Inputs {
        net,
        images,
        reference,
    }
}

/// One set-up: placement and compile options, plus the timings of its
/// calls into the compiler.
struct Setup {
    opts: CompileOptions,
    /// The compiled stream; the single-device run steps it directly.
    compiled: Option<CompiledNetwork>,
    partition: Duration,
    compile: Duration,
    size: GraphSize,
}

fn setup(
    placement: Placement,
    inp: &Inputs,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Setup, String> {
    let (opts, partition) = match placement {
        Placement::OneDevice => (CompileOptions::default(), Duration::ZERO),
        Placement::FourDfe => {
            let (p, wall) = tracer.span("compiler.partition", parent, || {
                partition(&inp.net.spec, &STRATIX_V_5SGSD8, &MaxRing::default())
            });
            let p = p.map_err(|e| format!("partition: {e}"))?;
            let opts = CompileOptions {
                stage_device: Some(p.stage_device),
                ..CompileOptions::default()
            };
            (opts, wall)
        }
    };
    let (compiled, compile) = tracer.span("compiler.compile", parent, || {
        compile(&inp.net, &inp.images, &opts)
    });
    Ok(Setup {
        size: graph_size(&compiled),
        compiled: Some(compiled),
        opts,
        partition,
        compile,
    })
}

/// How often the watcher of a single-device run reads the sink's fill.
const POLL: Duration = Duration::from_millis(1);

/// Runs `run` while a watcher thread notes when each of the `n` images
/// (`classes` logits each) reaches `sink`. Returns `run`'s result and the
/// host time of every segment of the stream: from the start to the first
/// image, from each image to the next, and from the last image to the
/// return.
fn watched<T>(
    sink: &SinkHandle,
    classes: usize,
    n: usize,
    run: impl FnOnce() -> T,
) -> (T, Vec<Duration>) {
    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut arrivals = Vec::with_capacity(n);
            while arrivals.len() < n && !finished.load(Ordering::Relaxed) {
                let ready = (sink.len() / classes.max(1)).min(n);
                let now = Instant::now();
                arrivals.resize(ready.max(arrivals.len()), now);
                std::thread::sleep(POLL);
            }
            arrivals
        });
        let start = Instant::now();
        let out = {
            // Stops the watcher even when `run` panics, so the scope can
            // join it and pass the panic on.
            let _finish = Finish(&finished);
            run()
        };
        let end = Instant::now();
        let mut arrivals = watcher.join().expect("the sink watcher panicked");
        // Images the watcher had not yet seen arrived before the return.
        arrivals.resize(n, end);
        let mut marks = vec![start];
        marks.extend(arrivals);
        marks.push(end);
        let segments = marks.windows(2).map(|w| w[1] - w[0]).collect();
        (out, segments)
    })
}

/// Sets its flag when dropped.
struct Finish<'a>(&'a AtomicBool);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// One measured repetition.
struct Rep {
    /// Host time of the stream's segments (see [`watched`]); the
    /// four-device run, which keeps its sink, is one segment.
    segments: Vec<Duration>,
    reports: Vec<CycleReport>,
    /// Span dispatch counters of the single-device graph.
    bursts: u64,
    burst_cycles: u64,
    wrong: u64,
}

fn rep(
    placement: Placement,
    inp: &Inputs,
    st: &mut Setup,
    budget: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Rep {
    let n = inp.images.len();
    let (result, segments, bursts, burst_cycles) = match placement {
        Placement::OneDevice => {
            let mut c = st.compiled.take().expect("each set-up runs once");
            let (report, segments) = watched(&c.sink, c.classes, n, || {
                tracer.span("dfe.run", parent, || c.graphs[0].run(budget)).0
            });
            let flat = c.sink.take();
            let logits = flat
                .chunks_exact(c.classes.max(1))
                .map(<[i32]>::to_vec)
                .collect();
            let result = report.map(|r| (logits, vec![r]));
            (
                result,
                segments,
                c.graphs[0].bursts(),
                c.graphs[0].burst_cycles(),
            )
        }
        Placement::FourDfe => {
            let (res, wall) = tracer.span("threaded.run", parent, || {
                run_images(&inp.net, &inp.images, &st.opts)
            });
            (res.map(|r| (r.logits, r.reports)), vec![wall], 0, 0)
        }
    };
    let check = tracer.open("check.reference", parent);
    let (reports, wrong) = match result {
        Ok((logits, reports)) => {
            let wrong = (0..n)
                .filter(|&i| logits.get(i) != Some(&inp.reference[i]))
                .count();
            (reports, wrong as u64)
        }
        Err(e) => {
            eprintln!("run error: {e}");
            (Vec::new(), n as u64)
        }
    };
    tracer.close(check);
    Rep {
        segments,
        reports,
        bursts,
        burst_cycles,
        wrong,
    }
}

/// Every repetition of one pass, with its set-ups.
struct Pass {
    setups: Vec<Setup>,
    reps: Vec<Rep>,
    ledger: Ledger,
    wrong: u64,
}

fn pass(
    placement: Placement,
    inp: &Inputs,
    seconds: Duration,
    tracer: &Tracer,
) -> Result<Pass, String> {
    let n = inp.images.len();
    let budget = (CycleModel::analyze(&inp.net.spec).serial_bound() * 8 + 2_000_000) * n as u64;
    let mut p = Pass {
        setups: Vec::new(),
        reps: Vec::new(),
        ledger: Ledger::default(),
        wrong: 0,
    };
    let start = Instant::now();
    while p.reps.is_empty() || start.elapsed() < seconds {
        let stream = tracer.open("stream", None);
        let mut st = setup(placement, inp, tracer, stream)?;
        let mut r = rep(placement, inp, &mut st, budget, tracer, stream);
        tracer.close(stream);
        // Simulated results repeat exactly: a report that differs from
        // the first repetition's fails every image of the stream.
        if r.wrong == 0
            && p.reps
                .first()
                .is_some_and(|first| first.reports != r.reports)
        {
            r.wrong = n as u64;
        }
        p.ledger.add(n as u64, r.wrong);
        p.wrong += r.wrong;
        p.reps.push(r);
        // Set-up cost is sampled after every repetition, apart from the
        // runs, so its median spans the whole run rather than one moment
        // of a shared host.
        for _ in 0..SETUPS_PER_REP {
            let mut st = setup(placement, inp, tracer, None)?;
            st.compiled = None;
            p.setups.push(st);
        }
    }
    Ok(p)
}

/// Cycles of one run: the devices share one clock, so the slowest sets it.
fn cycles(reports: &[CycleReport]) -> u64 {
    reports.iter().map(|r| r.cycles).max().unwrap_or(0)
}

/// Host milliseconds of each segment of the stream at its fastest over
/// the pass's repetitions.
fn fastest(p: &Pass) -> Vec<f64> {
    let reps: Vec<Vec<f64>> = p
        .reps
        .iter()
        .map(|r| r.segments.iter().map(|&d| ms(d)).collect())
        .collect();
    fastest_segments(&reps).expect("every repetition has the same segments")
}

/// Host milliseconds of one stream, each segment at its fastest.
fn stream_ms(p: &Pass) -> f64 {
    fastest(p).iter().sum()
}

/// Host milliseconds per image of one stream, each segment at its fastest.
fn ms_per_image(p: &Pass, n: usize) -> f64 {
    stream_ms(p) / n as f64
}

/// Host milliseconds of each image: from the previous image (the first
/// from the start) to its arrival at the sink, at its fastest. A run that
/// keeps its sink charges every image the same share of the stream.
fn image_ms(p: &Pass, n: usize) -> Vec<f64> {
    let segments = fastest(p);
    if segments.len() == n + 1 {
        segments[..n].to_vec()
    } else {
        vec![ms_per_image(p, n); n]
    }
}

fn end_to_end(p: &Pass, n: usize, notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let setup: Vec<f64> = p
        .setups
        .iter()
        .map(|s| (s.partition + s.compile).as_secs_f64())
        .collect();
    let first = p.reps.iter().find(|r| !r.reports.is_empty());
    let per_image_cycles = first.map_or(0.0, |r| cycles(&r.reports) as f64 / n as f64);
    let stream_s = stream_ms(p) / 1e3;
    let image_ms = image_ms(p, n);
    let image_tail = tail(&image_ms, 99.0);
    let walls: Vec<String> = p
        .reps
        .iter()
        .map(|r| format!("{:.0}", ms(r.segments.iter().sum())))
        .collect();
    notes.push(format!(
        "{} repetitions of {n} images ({} ms each), {} set-ups; each of {} stream segments timed at its fastest repetition; image tail is p{} of {n} images",
        p.reps.len(),
        walls.join(", "),
        p.setups.len(),
        p.reps[0].segments.len(),
        image_tail.map_or(0.0, |t| t.percentile),
    ));
    m.put("setup_s", median(&setup).unwrap_or(0.0));
    m.put("host_ms_per_image", ms_per_image(p, n));
    m.put("sim_cycles_per_image", per_image_cycles);
    m.put(
        "sim_mcycles_per_s",
        per_image_cycles * n as f64 / stream_s / 1e6,
    );
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    m.put("ok_share", p.ledger.ok_share());
    m.put("interactive_p50_ms", median(&image_ms).unwrap_or(0.0));
    m.put("interactive_p99_ms", image_tail.map_or(0.0, |t| t.value));
    m.put("batch_p50_ms", stream_ms(p));
    m.put("goodput_rps", p.ledger.ok_share() * n as f64 / stream_s);
    m
}

fn per_layer(
    placement: Placement,
    inp: &Inputs,
    p: &Pass,
    untraced: &Pass,
    seed: u64,
) -> Result<Metrics, String> {
    let n = inp.images.len();
    let mut m = Metrics::default();
    let med = |f: &dyn Fn(&Setup) -> Duration| {
        median(&p.setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let run_ms = stream_ms(p);
    let first = p
        .reps
        .iter()
        .find(|r| !r.reports.is_empty())
        .ok_or("no repetition completed")?;
    let reports = &first.reports;
    let sim_per_image = cycles(reports) as f64 / n as f64;
    let size = &p.setups[0].size;
    let act = activity(reports);
    let replay = reports.iter().fold((0u64, 0u64, 0u64, 0u64), |a, r| {
        let d = r.replay;
        (
            a.0 + d.images_replayed,
            a.1 + d.guard_fallbacks,
            a.2 + d.spans_bypassed,
            a.3 + d.tape_len,
        )
    });
    let gemm = gemm_probe(&inp.net, mix(seed, 9), Duration::from_millis(20));
    let one = placement == Placement::OneDevice;
    let period = CycleModel::analyze(&inp.net.spec).period() as f64;

    m.put("compiler.compile_ms", med(&|s| s.compile));
    m.put("compiler.partition_ms", med(&|s| s.partition));
    m.put("compiler.kernels", size.kernels as f64);
    m.put("compiler.streams", size.streams as f64);
    m.put("compiler.fmem_kbits", size.fmem_kbits);
    if one {
        m.put("dfe.run_ms", run_ms);
    } else {
        m.put("threaded.run_ms", run_ms);
    }
    let cyc = cycles(reports).max(1) as f64;
    m.put("dfe.span_cycle_share", first.burst_cycles as f64 / cyc);
    m.put(
        "dfe.mean_span_cycles",
        first.burst_cycles as f64 / first.bursts.max(1) as f64,
    );
    m.put("replay.replayed_image_share", replay.0 as f64 / n as f64);
    m.put("replay.guard_fallbacks", replay.1 as f64);
    m.put("replay.spans_bypassed", replay.2 as f64);
    m.put("replay.tape_len", replay.3 as f64);
    let penalty = if one {
        0.0
    } else {
        // The same images compiled onto one device, timed once.
        let start = Instant::now();
        let single = run_images(&inp.net, &inp.images, &CompileOptions::default())
            .map_err(|e| e.to_string())?;
        let single_ms = ms(start.elapsed());
        if single.logits != inp.reference {
            return Err("single-device comparison run diverged from the reference".into());
        }
        ms_per_image(p, n) / (single_ms / n as f64)
    };
    m.put("threaded.partition_penalty", penalty);
    m.put("threaded.link_max_fill", act.link_max_fill);
    m.put("dfe.kernel_busy_share", act.busy_share);
    m.put("dfe.kernel_stalled_share", act.stalled_share);
    m.put("dfe.bottleneck_busy_share", act.bottleneck_busy_share);
    m.put("dfe.max_fifo_fill", act.max_fifo_fill);
    m.put("quant.gemm_gmacs_per_s", gemm.gmacs_per_s);
    m.put(
        "quant.gemm_time_share",
        ms(gemm.per_image) * n as f64 / run_ms.max(1e-9),
    );
    m.put("hwmodel.analytic_period_cycles", period);
    m.put("hwmodel.sim_vs_analytic", sim_per_image / period);
    m.put(
        "hwmodel.sim_vs_paper",
        sim_per_image / paper_resnet18_clocks(),
    );
    m.put(
        "trace.overhead_ratio",
        ms_per_image(p, n) / ms_per_image(untraced, n),
    );
    Ok(m)
}

pub fn run(placement: Placement, args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let n = placement.images();
    let inp = inputs(args.seed, n);
    let off = Tracer::new(false);
    let untraced = pass(placement, &inp, args.seconds, &off)?;
    let mut notes = Vec::new();
    let end_to_end = end_to_end(&untraced, n, &mut notes);
    let mut ledger = untraced.ledger;
    let mut wrong = untraced.wrong;
    let per_layer = if args.trace {
        let traced = pass(placement, &inp, args.seconds, tracer)?;
        ledger.add(traced.ledger.attempted, traced.ledger.failed);
        wrong += traced.wrong;
        notes.push("hwmodel.sim_vs_paper: the cycle model is validated only against the paper's ResNet-18 anchor of 1.69e6 clocks/image (16.1 ms at 105 MHz)".into());
        per_layer(placement, &inp, &traced, &untraced, args.seed)?
    } else {
        Metrics::default()
    };
    Ok(Outcome {
        ledger,
        wrong,
        end_to_end,
        per_layer,
        notes,
    })
}
