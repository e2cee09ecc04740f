//! Workload `serve_mixed_tcp`: one `NetServer` edge on loopback serving
//! two models with one replica each, under open-loop Poisson load from a
//! single `NetClient` connection.
//!
//! * `cnv`: CNV @ 32² at its `dse::pick` design point under one Stratix V
//!   (folded kernels), submitted at `Priority::Interactive`;
//! * `txf`: a two-encoder transformer (attention kernels), submitted at
//!   `Priority::Batch`.
//!
//! A sender thread submits each request when it falls due; a collector
//! thread redeems the tickets. Latency runs from the due time, so a stall
//! in the generator or the edge charges every request it delays.
//!
//! The run plays one seeded schedule [`REPS`] times, each on a freshly
//! started edge, and reports each figure at its best play: other tenants
//! of a shared host only slow a play down, and seldom all of them.

use crate::layers::{gemm_probe, graph_size};
use crate::stats::{median, ms, peak_rss_mb, tail, Ledger, Tail};
use crate::trace::{SpanId, Tracer};
use crate::{mix, Args, Metrics, Outcome, Rng};
use qnn::cluster::wire::{Frame, RequestFrame, ResponseFrame};
use qnn::cluster::{NetClient, NetError, NetResponse, NetServer, NetTicket};
use qnn::compiler::dse::{pick, DesignPoint, ResourceBudget};
use qnn::compiler::{compile, CompileOptions};
use qnn::data::CIFAR10;
use qnn::dfe::STRATIX_V_5SGSD8;
use qnn::hw::CycleModel;
use qnn::nn::{models, Network};
use qnn::serve::{
    AdmissionPolicy, ModelOptions, Priority, Server, ServerConfig, ServerReport, SubmitOptions,
};
use qnn::tensor::Tensor3;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load of each class, requests per second. One CNV replica
/// serves about 65 images/s, so 12/s keeps it under a fifth busy, well
/// below the knee (at 34/s tails already doubled); the transformer is
/// about seven times cheaper per image.
const CNV_RATE: f64 = 12.0;
const TXF_RATE: f64 = 24.0;
/// Latency limits for goodput, set from the unloaded service times
/// (about 15 ms for CNV and 3 ms for the transformer, batching included).
const INTERACTIVE_LIMIT: Duration = Duration::from_millis(50);
const BATCH_LIMIT: Duration = Duration::from_millis(200);
/// Distinct inputs per model, cycled through by the schedule.
const POOL: usize = 32;
/// Plays of the schedule per pass; each lasts `--seconds / REPS`.
const REPS: u32 = 3;
/// Set-ups per play, the play's own included: `setup_s` is the median of
/// every set-up of the run.
const SETUPS_PER_PLAY: usize = 5;
/// Unmeasured requests per model sent before the schedule starts.
const WARMUP: usize = 4;
/// The edge answers a request still unresolved after this with a timeout.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the collector blocks on the oldest ticket between sweeps.
const SWEEP: Duration = Duration::from_micros(250);

struct Model {
    name: &'static str,
    priority: Priority,
    limit: Duration,
    net: Network,
    inputs: Vec<Tensor3<i8>>,
    reference: Vec<Vec<i32>>,
}

impl Model {
    fn new(
        name: &'static str,
        priority: Priority,
        limit: Duration,
        net: Network,
        inputs: Vec<Tensor3<i8>>,
    ) -> Self {
        let reference = inputs.iter().map(|x| net.forward(x).logits).collect();
        Self {
            name,
            priority,
            limit,
            net,
            inputs,
            reference,
        }
    }

    fn opts(&self) -> SubmitOptions {
        SubmitOptions::model(self.name).priority(self.priority)
    }
}

fn models(seed: u64) -> [Model; 2] {
    let offset = mix(seed, 4) % 1_000_000;
    let cnv = Network::random(models::cnv_finn(10, 2), mix(seed, 3));
    let images = (0..POOL as u64)
        .map(|i| CIFAR10.image(offset + i))
        .collect();
    let txf = Network::random(models::tiny_transformer(16, 4, 8, 10, 2, 32), mix(seed, 5));
    let mut rng = Rng::new(mix(seed, 6));
    let tokens = (0..POOL)
        .map(|_| {
            Tensor3::from_fn(txf.spec.input, |_, _, _| {
                ((rng.next_u64() % 255) as i16 - 127) as i8
            })
        })
        .collect();
    [
        Model::new("cnv", Priority::Interactive, INTERACTIVE_LIMIT, cnv, images),
        Model::new("txf", Priority::Batch, BATCH_LIMIT, txf, tokens),
    ]
}

/// One request of the open-loop schedule.
struct Arrival {
    /// Offset of its due time from the schedule's start.
    due: Duration,
    model: usize,
    input: usize,
}

/// Open-loop arrivals of both classes, merged. Each class is a Poisson
/// stream sampled by Latin hypercube: its `rate · seconds` inter-arrival
/// gaps are the midpoint quantiles of the exponential distribution, in a
/// seeded random order. Every run thus offers the same traffic mix and the
/// same gap distribution, so seeds differ in the order of bursts, not in
/// how bursty the run is.
fn schedule(seed: u64, seconds: Duration) -> Vec<Arrival> {
    let mut rng = Rng::new(mix(seed, 7));
    let mut out = Vec::new();
    for (model, rate) in [CNV_RATE, TXF_RATE].into_iter().enumerate() {
        let n = (rate * seconds.as_secs_f64()).round() as usize;
        let mut gaps: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
            .collect();
        for i in (1..n).rev() {
            gaps.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut t = 0.0;
        for gap in gaps {
            t += gap;
            let input = (rng.next_u64() % POOL as u64) as usize;
            out.push(Arrival {
                due: Duration::from_secs_f64(t),
                model,
                input,
            });
        }
    }
    out.sort_by_key(|a| a.due);
    out
}

/// A running edge and the timings of the calls that started it.
struct Edge {
    edge: NetServer,
    client: NetClient,
    point: DesignPoint,
    pick: Duration,
    start: Duration,
}

fn start_edge(models: &[Model; 2], tracer: &Tracer) -> Result<Edge, String> {
    let parent = tracer.open("setup", None);
    let [cnv, txf] = models;
    let (point, pick_wall) = tracer.span("compiler.dse_pick", parent, || {
        pick(&cnv.net.spec, &ResourceBudget::single(STRATIX_V_5SGSD8))
    });
    let point = point.ok_or("CNV has no design point under one Stratix V")?;
    let config = ServerConfig::builder()
        .replicas(1)
        .admission(AdmissionPolicy::Reject)
        .queue_depth(256)
        .build()
        .map_err(|e| e.to_string())?;
    let (started, start_wall) = tracer.span("serve.start", parent, || -> Result<_, String> {
        let server = Server::builder()
            .config(config)
            .model_with(
                cnv.name,
                &cnv.net,
                ModelOptions::new().compile(point.compile_options()),
            )
            .model_with(txf.name, &txf.net, ModelOptions::new())
            .start()
            .map_err(|e| e.to_string())?;
        let edge = NetServer::bind_with(server, "127.0.0.1:0", RESPONSE_TIMEOUT)
            .map_err(|e| e.to_string())?;
        let client = NetClient::connect(edge.local_addr()).map_err(|e| e.to_string())?;
        Ok((edge, client))
    });
    tracer.close(parent);
    let (edge, client) = started?;
    Ok(Edge {
        edge,
        client,
        point,
        pick: pick_wall,
        start: start_wall,
    })
}

/// What happened to one request.
struct Done {
    model: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// Answered with the reference logits.
    correct: bool,
    /// Answered at all (correct or not).
    answered: bool,
}

struct Sent {
    arrival: usize,
    due: Instant,
    sent: Instant,
    ticket: std::io::Result<NetTicket>,
    span: Option<SpanId>,
}

fn logits(r: Result<NetResponse, NetError>) -> Result<Vec<i32>, String> {
    r.map(|r| r.logits).map_err(|e| e.to_string())
}

/// Send `arrivals` open-loop from a sender thread and redeem them on this
/// thread. Returns every request's outcome.
fn drive(
    client: &NetClient,
    models: &[Model; 2],
    arrivals: &[Arrival],
    tracer: &Tracer,
) -> Vec<Done> {
    let (tx, rx) = mpsc::channel::<Sent>();
    let generator = tracer.open("generator", None);
    let origin = Instant::now() + Duration::from_millis(10);
    let mut done = Vec::with_capacity(arrivals.len());
    std::thread::scope(|s| {
        s.spawn(move || {
            for (id, a) in arrivals.iter().enumerate() {
                let due = origin + a.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let m = &models[a.model];
                let span = tracer.open_at("request", due, generator, Some(id as u64));
                let sent = Instant::now();
                let (ticket, _) = tracer.span("cluster.submit", span, || {
                    client.submit(m.inputs[a.input].clone(), m.opts())
                });
                if tx
                    .send(Sent {
                        arrival: id,
                        due,
                        sent,
                        ticket,
                        span,
                    })
                    .is_err()
                {
                    return;
                }
            }
        });
        let finish = |p: Sent, res: Result<Vec<i32>, String>, done: &mut Vec<Done>| {
            let now = Instant::now();
            tracer.close_at(p.span, now);
            let a = &arrivals[p.arrival];
            if let Err(e) = &res {
                eprintln!("request {} failed: {e}", p.arrival);
            }
            done.push(Done {
                model: a.model,
                due: p.due,
                sent: p.sent,
                done: now,
                correct: res.as_ref().ok() == Some(&models[a.model].reference[a.input]),
                answered: res.is_ok(),
            });
        };
        let mut pending: Vec<Sent> = Vec::new();
        loop {
            if pending.is_empty() {
                match rx.recv() {
                    Ok(p) => pending.push(p),
                    Err(_) => break,
                }
            }
            pending.extend(rx.try_iter());
            let mut i = 0;
            let mut progressed = false;
            while i < pending.len() {
                let res = match &pending[i].ticket {
                    Err(e) => Some(Err(e.to_string())),
                    Ok(t) => t.wait_timeout(Duration::ZERO).map(logits),
                };
                match res {
                    Some(res) => {
                        finish(pending.remove(i), res, &mut done);
                        progressed = true;
                    }
                    None => i += 1,
                }
            }
            if !progressed {
                if let Some(Ok(t)) = pending.first().map(|p| &p.ticket) {
                    if let Some(res) = t.wait_timeout(SWEEP) {
                        finish(pending.remove(0), logits(res), &mut done);
                    }
                }
            }
        }
    });
    tracer.close(generator);
    done
}

/// Warm both replicas before the schedule, so the first timed requests do
/// not pay for cold caches. Returns the failed and the wrong answers.
fn warm_up(client: &NetClient, models: &[Model; 2]) -> (u64, u64) {
    let (mut failed, mut wrong) = (0, 0);
    for m in models {
        for i in 0..WARMUP {
            match client
                .submit(m.inputs[i].clone(), m.opts())
                .map_err(|e| e.to_string())
                .and_then(|t| logits(t.wait()))
            {
                Ok(l) if l == m.reference[i] => {}
                Ok(_) => (failed, wrong) = (failed + 1, wrong + 1),
                Err(e) => {
                    eprintln!("warm-up request failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    (failed, wrong)
}

/// One play of the schedule on its own edge: every request's outcome and
/// the drained report.
struct Play {
    done: Vec<Done>,
    report: ServerReport,
}

/// One measured pass: set-ups and [`REPS`] plays of the schedule.
struct Pass {
    setups: Vec<(Duration, Duration)>,
    point: DesignPoint,
    plays: Vec<Play>,
    ledger: Ledger,
    wrong: u64,
}

fn pass(models: &[Model; 2], arrivals: &[Arrival], tracer: &Tracer) -> Result<Pass, String> {
    let mut setups = Vec::new();
    let mut plays = Vec::new();
    let mut ledger = Ledger::default();
    let mut wrong = 0;
    let mut point = None;
    for _ in 0..REPS {
        for _ in 1..SETUPS_PER_PLAY {
            let e = start_edge(models, tracer)?;
            setups.push((e.pick, e.start));
            e.client.close();
            e.edge.shutdown();
        }
        let e = start_edge(models, tracer)?;
        setups.push((e.pick, e.start));
        let (warm_failed, warm_wrong) = warm_up(&e.client, models);
        let done = drive(&e.client, models, arrivals, tracer);
        e.client.close();
        let report = e.edge.shutdown();
        ledger.add(2 * WARMUP as u64, warm_failed);
        let failed = done.iter().filter(|d| !d.correct).count() as u64;
        ledger.add(done.len() as u64, failed);
        wrong += warm_wrong + done.iter().filter(|d| d.answered && !d.correct).count() as u64;
        point = Some(e.point);
        plays.push(Play { done, report });
    }
    Ok(Pass {
        setups,
        point: point.expect("at least one play"),
        plays,
        ledger,
        wrong,
    })
}

/// Client-observed latencies (ms from due time) of `model`'s answered
/// requests in one play.
fn latencies(play: &Play, model: usize) -> Vec<f64> {
    play.done
        .iter()
        .filter(|d| d.model == model && d.answered)
        .map(|d| ms(d.done - d.due))
        .collect()
}

/// The smallest over the pass's plays of `f`.
fn fastest(p: &Pass, f: impl Fn(&Play) -> f64) -> f64 {
    p.plays.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The play whose replicas spent the least host time per image.
fn fastest_play(p: &Pass) -> &Play {
    let per_image = |play: &Play| {
        let (busy, images, _) = replica_totals(&play.report, None);
        busy.as_secs_f64() / images.max(1) as f64
    };
    p.plays
        .iter()
        .min_by(|a, b| per_image(a).total_cmp(&per_image(b)))
        .expect("at least one play")
}

/// Replica busy time, images and simulated cycles of `model`'s pool.
fn replica_totals(report: &ServerReport, model: Option<&str>) -> (Duration, u64, u64) {
    report
        .per_replica
        .iter()
        .filter(|r| model.is_none_or(|m| r.model == m))
        .fold((Duration::ZERO, 0, 0), |(b, i, c), r| {
            (b + r.busy, i + r.images, c + r.cycles)
        })
}

fn end_to_end(
    p: &Pass,
    models: &[Model; 2],
    duration: Duration,
    notes: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let setup: Vec<f64> = p
        .setups
        .iter()
        .map(|(a, b)| (*a + *b).as_secs_f64())
        .collect();
    let (busy, images, cycles) = replica_totals(&fastest_play(p).report, None);
    let (all_images, all_cycles) = p.plays.iter().fold((0, 0), |(i, c), play| {
        let (_, images, cycles) = replica_totals(&play.report, None);
        (i + images, c + cycles)
    });
    m.put("setup_s", median(&setup).unwrap_or(0.0));
    m.put("host_ms_per_image", ms(busy) / images.max(1) as f64);
    m.put(
        "sim_cycles_per_image",
        all_cycles as f64 / all_images.max(1) as f64,
    );
    m.put(
        "sim_mcycles_per_s",
        cycles as f64 / busy.as_secs_f64().max(1e-9) / 1e6,
    );
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    m.put("ok_share", p.ledger.ok_share());
    for (model, p50) in ["interactive_p50_ms", "batch_p50_ms"]
        .into_iter()
        .enumerate()
    {
        let tails: Vec<Tail> = p
            .plays
            .iter()
            .filter_map(|play| tail(&latencies(play, model), 99.0))
            .collect();
        let answered: Vec<String> = p
            .plays
            .iter()
            .map(|play| latencies(play, model).len().to_string())
            .collect();
        let values: Vec<String> = tails.iter().map(|t| format!("{:.3}", t.value)).collect();
        notes.push(format!(
            "{}: {} of {} requests answered per play; tail p{} per play = {} ms",
            models[model].name,
            answered.join("/"),
            p.plays[0].done.iter().filter(|d| d.model == model).count(),
            tails.first().map_or(0.0, |t| t.percentile),
            values.join(", "),
        ));
        m.put(
            p50,
            fastest(p, |play| median(&latencies(play, model)).unwrap_or(0.0)),
        );
        if model == 0 {
            let best = tails.iter().map(|t| t.value).fold(f64::INFINITY, f64::min);
            m.put("interactive_p99_ms", best);
        }
    }
    let goodput = p.plays.iter().map(|play| {
        let good = play
            .done
            .iter()
            .filter(|d| d.correct && d.done - d.due <= models[d.model].limit)
            .count();
        good as f64 / duration.as_secs_f64().max(1e-9)
    });
    m.put("goodput_rps", goodput.fold(0.0, f64::max));
    m
}

/// Mean microseconds per call of `f` over the workload's frames.
fn per_frame_us<T>(frames: &[T], mut f: impl FnMut(&T)) -> f64 {
    const ROUNDS: usize = 200;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for x in frames {
            f(black_box(x));
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (ROUNDS * frames.len()) as f64
}

fn per_layer(p: &Pass, untraced: &Pass, models: &[Model; 2], seed: u64) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let [cnv, txf] = models;
    let med = |f: &dyn Fn(&(Duration, Duration)) -> Duration| {
        median(&p.setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let opts = p.point.compile_options();
    let start = Instant::now();
    let compiled = [
        compile(&cnv.net, &cnv.inputs[..1], &opts),
        compile(&txf.net, &txf.inputs[..1], &CompileOptions::default()),
    ];
    let compile_ms = ms(start.elapsed());
    let sizes = compiled.map(|c| graph_size(&c));
    m.put("compiler.compile_ms", compile_ms);
    m.put("compiler.dse_pick_ms", med(&|s| s.0));
    m.put("serve.start_ms", med(&|s| s.1));
    m.put(
        "compiler.kernels",
        sizes.iter().map(|s| s.kernels as f64).sum(),
    );
    m.put(
        "compiler.streams",
        sizes.iter().map(|s| s.streams as f64).sum(),
    );
    m.put(
        "compiler.fmem_kbits",
        sizes.iter().map(|s| s.fmem_kbits).sum(),
    );

    // Server-side figures come from the play with the fastest replicas.
    let fast = fastest_play(p);
    let (cnv_busy, cnv_images, cnv_cycles) = replica_totals(&fast.report, Some(cnv.name));
    let (txf_busy, txf_images, _) = replica_totals(&fast.report, Some(txf.name));
    let gemm = gemm_probe(&cnv.net, mix(seed, 9), Duration::from_millis(20));
    m.put("quant.gemm_gmacs_per_s", gemm.gmacs_per_s);
    m.put(
        "quant.gemm_time_share",
        gemm.per_image.as_secs_f64() * cnv_images as f64 / cnv_busy.as_secs_f64().max(1e-9),
    );
    let period = CycleModel::analyze_folded(&cnv.net.spec, &p.point.folding).period() as f64;
    m.put("hwmodel.analytic_period_cycles", period);
    m.put(
        "hwmodel.sim_vs_analytic",
        cnv_cycles as f64 / cnv_images.max(1) as f64 / period,
    );

    let r = &fast.report;
    let summary =
        |s: Option<qnn::serve::LatencySummary>| s.map_or((0.0, 0.0), |s| (ms(s.p50), ms(s.p95)));
    let (qw50, qw95) = summary(r.queue_wait);
    let (lat50, lat95) = summary(r.latency);
    m.put("serve.queue_wait_p50_ms", qw50);
    m.put("serve.queue_wait_p95_ms", qw95);
    m.put("serve.server_latency_p50_ms", lat50);
    m.put("serve.server_latency_p95_ms", lat95);
    m.put("serve.batch_occupancy", r.mean_batch_occupancy);
    m.put("serve.rejected", r.rejected as f64);
    m.put("serve.shed", r.shed as f64);
    m.put(
        "serve.batch_p99_ms",
        fastest(p, |play| {
            tail(&latencies(play, 1), 99.0).map_or(0.0, |t| t.value)
        }),
    );
    m.put(
        "serve.replica_ms_per_image.cnv",
        ms(cnv_busy) / cnv_images.max(1) as f64,
    );
    m.put(
        "serve.replica_ms_per_image.txf",
        ms(txf_busy) / txf_images.max(1) as f64,
    );
    let wall = r.wall.as_secs_f64().max(1e-9);
    m.put(
        "serve.replica_busy_share.cnv",
        cnv_busy.as_secs_f64() / wall,
    );
    m.put(
        "serve.replica_busy_share.txf",
        txf_busy.as_secs_f64() / wall,
    );

    let client_ms: Vec<f64> = fast
        .done
        .iter()
        .filter(|d| d.answered)
        .map(|d| ms(d.done - d.sent))
        .collect();
    m.put(
        "cluster.edge_overhead_p50_ms",
        median(&client_ms).unwrap_or(0.0) - lat50,
    );
    let frames: Vec<Frame> = models
        .iter()
        .flat_map(|md| {
            let request = Frame::Request(RequestFrame {
                id: 7,
                model: md.name.to_string(),
                priority: md.priority,
                deadline_us: None,
                image: md.inputs[0].clone(),
            });
            let response = Frame::Response(ResponseFrame {
                id: 7,
                weight_version: 0,
                replica: 0,
                batch_size: 1,
                logits: md.reference[0].clone(),
            });
            [request, response]
        })
        .collect();
    let bodies: Vec<Vec<u8>> = frames.iter().map(Frame::encode_body).collect();
    for (f, b) in frames.iter().zip(&bodies) {
        if Frame::decode_body(b).as_ref() != Ok(f) {
            return Err("a wire frame did not survive its round trip".into());
        }
    }
    m.put(
        "cluster.encode_us",
        per_frame_us(&frames, |f| {
            black_box(f.encode());
        }),
    );
    m.put(
        "cluster.decode_us",
        per_frame_us(&bodies, |b| {
            let _ = black_box(Frame::decode_body(b));
        }),
    );
    let late: Vec<f64> = fast.done.iter().map(|d| ms(d.sent - d.due)).collect();
    m.put(
        "cluster.generator_late_p99_ms",
        tail(&late, 99.0).map_or(0.0, |t| t.value),
    );
    let all = |p: &Pass| {
        fastest(p, |play| {
            median(&[latencies(play, 0), latencies(play, 1)].concat()).unwrap_or(0.0)
        })
    };
    m.put("trace.overhead_ratio", all(p) / all(untraced).max(1e-9));
    Ok(m)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let models = models(args.seed);
    let play = args.seconds / REPS;
    let arrivals = schedule(args.seed, play);
    let off = Tracer::new(false);
    let untraced = pass(&models, &arrivals, &off)?;
    let mut notes = vec![format!(
        "{} requests per {:.1} s play, {REPS} plays, offered open-loop at {CNV_RATE}/s interactive + {TXF_RATE}/s batch; goodput limits {} ms / {} ms",
        arrivals.len(),
        play.as_secs_f64(),
        INTERACTIVE_LIMIT.as_millis(),
        BATCH_LIMIT.as_millis()
    )];
    let end_to_end = end_to_end(&untraced, &models, play, &mut notes);
    let (mut ledger, mut wrong) = (untraced.ledger, untraced.wrong);
    let per_layer = if args.trace {
        let traced = pass(&models, &arrivals, tracer)?;
        ledger.add(traced.ledger.attempted, traced.ledger.failed);
        wrong += traced.wrong;
        per_layer(&traced, &untraced, &models, args.seed)?
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_with_fixed_counts_and_exponential_gaps() {
        let seconds = Duration::from_secs(30);
        let a = schedule(1, seconds);
        let b = schedule(1, seconds);
        let c = schedule(2, seconds);
        let key = |s: &[Arrival]| {
            s.iter()
                .map(|x| (x.due, x.model, x.input))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b), "same seed, same schedule");
        assert_ne!(key(&a), key(&c), "another seed reorders the schedule");
        for (model, rate) in [CNV_RATE, TXF_RATE].into_iter().enumerate() {
            let dues: Vec<f64> = a
                .iter()
                .filter(|x| x.model == model)
                .map(|x| x.due.as_secs_f64())
                .collect();
            assert_eq!(dues.len(), (rate * 30.0) as usize);
            // Gaps are the exponential's midpoint quantiles: their mean is
            // close to 1/rate and the last arrival lands near the end.
            let mean_gap = dues.last().copied().unwrap_or(0.0) / dues.len() as f64;
            assert!(
                (mean_gap * rate - 1.0).abs() < 0.05,
                "mean gap {mean_gap} at rate {rate}"
            );
        }
        assert!(
            a.windows(2).all(|w| w[0].due <= w[1].due),
            "sorted by due time"
        );
    }
}
