//! Per-layer probes shared by the workloads: graph size, activity shares
//! from cycle reports, the packed bit-GEMM busy path, and the analytic
//! model's anchor.

use qnn::compiler::CompiledNetwork;
use qnn::dfe::{CycleReport, MAIA_FCLK_MHZ};
use qnn::hw::specs::paper;
use qnn::nn::{Network, Stage, StageParams};
use qnn::quant::{conv_accumulate_all, ActPlanes};
use qnn::tensor::BinaryFilters;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's measured ResNet-18 runtime in fabric clocks: 16.1 ms at
/// 105 MHz, about 1.69 × 10⁶ clocks per image. It is the only hardware
/// measurement the cycle model is validated against.
pub fn paper_resnet18_clocks() -> f64 {
    paper::RESNET18_TIME_MS * MAIA_FCLK_MHZ * 1e3
}

/// Kernels, streams and FIFO memory over every device graph of a compile.
pub struct GraphSize {
    pub kernels: usize,
    pub streams: usize,
    pub fmem_kbits: f64,
}

pub fn graph_size(c: &CompiledNetwork) -> GraphSize {
    GraphSize {
        kernels: c.graphs.iter().map(|g| g.num_kernels()).sum(),
        streams: c.graphs.iter().map(|g| g.num_streams()).sum(),
        fmem_kbits: c.graphs.iter().map(|g| g.total_fmem_bits()).sum::<usize>() as f64 / 1e3,
    }
}

/// Activity shares over every kernel and stream of one run's device
/// reports; each kernel's counters are taken against its own device's
/// cycles.
pub struct Activity {
    pub busy_share: f64,
    pub stalled_share: f64,
    pub bottleneck_busy_share: f64,
    pub max_fifo_fill: f64,
    /// Highest fill of a stream fed by an inter-device ring link.
    pub link_max_fill: f64,
}

pub fn activity(reports: &[CycleReport]) -> Activity {
    let (mut busy, mut stalled, mut kernels) = (0.0, 0.0, 0usize);
    let mut a = Activity {
        busy_share: 0.0,
        stalled_share: 0.0,
        bottleneck_busy_share: 0.0,
        max_fifo_fill: 0.0,
        link_max_fill: 0.0,
    };
    for r in reports {
        let cycles = r.cycles.max(1) as f64;
        for k in &r.kernels {
            busy += k.busy as f64 / cycles;
            stalled += k.stalled as f64 / cycles;
            a.bottleneck_busy_share = a.bottleneck_busy_share.max(k.busy as f64 / cycles);
        }
        kernels += r.kernels.len();
        for s in &r.streams {
            let fill = s.max_occupancy as f64 / s.capacity.max(1) as f64;
            a.max_fifo_fill = a.max_fifo_fill.max(fill);
            if s.name.starts_with("ring") {
                a.link_max_fill = a.link_max_fill.max(fill);
            }
        }
    }
    a.busy_share = busy / kernels.max(1) as f64;
    a.stalled_share = stalled / kernels.max(1) as f64;
    a
}

/// Speed of `conv_accumulate_all` on a network's packed code layers.
pub struct Gemm {
    /// Binary multiply-accumulates per second, in units of 10⁹.
    pub gmacs_per_s: f64,
    /// Estimated busy-path time per image: one accumulate per output
    /// position of every layer, at the measured per-call time.
    pub per_image: Duration,
}

/// Every layer that runs the packed code datapath, with its output
/// positions per image. The 8-bit input layer runs a different kernel and
/// is left out.
fn code_layers(net: &Network) -> Vec<(&BinaryFilters, u64)> {
    let mut layers = Vec::new();
    for (stage, params) in net.spec.stages.iter().zip(&net.params) {
        match (stage, params) {
            (Stage::Conv { geom }, StageParams::Conv { filters, .. }) => {
                layers.push((filters, geom.output().pixels() as u64));
            }
            (Stage::FullyConnected { .. }, StageParams::FullyConnected { filters, .. }) => {
                layers.push((filters, 1));
            }
            (
                Stage::Residual { geom },
                StageParams::Residual {
                    filters1,
                    filters2,
                    downsample,
                    ..
                },
            ) => {
                layers.push((filters1, geom.conv1.output().pixels() as u64));
                layers.push((filters2, geom.conv2.output().pixels() as u64));
                if let (Some(ds), Some(g)) = (downsample, geom.downsample) {
                    layers.push((ds, g.output().pixels() as u64));
                }
            }
            _ => {}
        }
    }
    layers
}

/// Time `conv_accumulate_all` for about `per_layer` on every packed code
/// layer of `net`, with a window of seeded codes at the network's width.
pub fn gemm_probe(net: &Network, seed: u64, per_layer: Duration) -> Gemm {
    let bits = net.spec.act_bits;
    let mut rng = crate::Rng::new(seed);
    let (mut macs, mut spent, mut per_image) = (0.0, Duration::ZERO, Duration::ZERO);
    for (filters, positions) in code_layers(net) {
        let codes: Vec<u8> = (0..filters.bits_per_filter())
            .map(|_| (rng.next_u64() % (1 << bits)) as u8)
            .collect();
        let window = ActPlanes::from_codes(bits, &codes);
        let mut acc = vec![0i32; filters.num_filters()];
        let mut calls = 0u64;
        let start = Instant::now();
        while calls < 8 || start.elapsed() < per_layer {
            for _ in 0..8 {
                conv_accumulate_all(black_box(filters), black_box(&window), &mut acc);
                black_box(&acc);
            }
            calls += 8;
        }
        let elapsed = start.elapsed();
        macs += (calls * (filters.num_filters() * filters.bits_per_filter()) as u64) as f64;
        spent += elapsed;
        per_image += elapsed.mul_f64(positions as f64 / calls as f64);
    }
    Gemm {
        gmacs_per_s: macs / spent.as_secs_f64().max(1e-9) / 1e9,
        per_image,
    }
}
