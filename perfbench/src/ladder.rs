//! `ladder`: the paper's A–F + W(8) ladder on the standard scene at
//! QVGA, K=3, f64, one `GpuMog::process_all` per level.

use crate::trace::{Tracer, LEVEL_TAGS};
use crate::{fnv1a, Round, Workload, FNV_OFFSET};
use mogpu::bench::harness::{default_params, standard_scene_seeded};
use mogpu::core::{GpuMog, OptLevel, RunReport};
use mogpu::frame::{Frame, Mask, Resolution};
use mogpu::mog::{SerialMog, Variant};
use mogpu::sim::cpu::CpuModel;
use mogpu::sim::dma::{pipeline_time, transfer_time};
use mogpu::sim::GpuConfig;

const RES: Resolution = Resolution::QVGA;
/// Frames each level processes per round (one more seeds the model);
/// eight fill exactly one W(8) group.
const FRAMES: usize = 8;
const LEVELS: [OptLevel; 7] = [
    OptLevel::A,
    OptLevel::B,
    OptLevel::C,
    OptLevel::D,
    OptLevel::E,
    OptLevel::F,
    OptLevel::Windowed { group: 8 },
];
const CHECKS: [&str; 7] = [
    "masks_match_serial.A",
    "masks_match_serial.B",
    "masks_match_serial.C",
    "masks_match_serial.D",
    "masks_match_serial.E",
    "masks_match_serial.F",
    "masks_match_serial.W8",
];

pub struct Ladder {
    seed: u64,
    /// `SerialMog` masks per CPU variant: the correctness oracle, run
    /// once per process outside the timed phase.
    oracle: Vec<(Variant, Vec<Mask>)>,
}

impl Ladder {
    pub fn new(seed: u64) -> Self {
        let frames = render(seed);
        let oracle = Variant::ALL
            .into_iter()
            .map(|v| {
                let mut cpu =
                    SerialMog::<f64>::new(RES, default_params(3), v, frames[0].as_slice());
                (v, cpu.process_all(&frames[1..]))
            })
            .collect();
        Ladder { seed, oracle }
    }
}

fn render(seed: u64) -> Vec<Frame<u8>> {
    standard_scene_seeded(RES, seed)
        .render_sequence(FRAMES + 1)
        .0
        .into_frames()
}

/// Modelled seconds per frame at full HD: the pipeline re-scheduled
/// with full-HD transfers and the per-frame kernel time scaled by the
/// pixel (= warp) ratio over the simulated resolution.
fn full_hd_e2e_s(report: &RunReport, level: OptLevel, cfg: &GpuConfig) -> f64 {
    let scale = pixel_scale();
    let transfer = transfer_time(Resolution::FULL_HD.pixels(), cfg);
    let kernel = report.kernel_time_per_frame() * scale;
    pipeline_time(450, transfer, kernel, transfer, level.overlap(), cfg).per_frame
}

fn pixel_scale() -> f64 {
    Resolution::FULL_HD.pixels() as f64 / RES.pixels() as f64
}

impl Workload for Ladder {
    type State = (Vec<Frame<u8>>, Vec<GpuMog<f64>>);
    type Out = Vec<RunReport>;

    fn frames_per_round(&self) -> u64 {
        (FRAMES * LEVELS.len()) as u64
    }

    fn checks_per_round(&self) -> u64 {
        CHECKS.len() as u64
    }

    fn setup(&self, t: &mut Tracer) -> Result<Self::State, String> {
        let frames = t.span("frame.render", "", || render(self.seed));
        t.add("frame.render.frames", frames.len() as f64);
        let mut gpus = Vec::with_capacity(LEVELS.len());
        for (level, tag) in LEVELS.into_iter().zip(LEVEL_TAGS) {
            gpus.push(t.call("core.pipeline.new", tag, || {
                GpuMog::<f64>::new(
                    RES,
                    default_params(3),
                    level,
                    frames[0].as_slice(),
                    GpuConfig::tesla_c2075(),
                )
            })?);
            t.add("core.pipeline.new.calls", 1.0);
        }
        Ok((frames, gpus))
    }

    fn timed(&self, (frames, mut gpus): Self::State, t: &mut Tracer) -> Result<Self::Out, String> {
        let mut reports = Vec::with_capacity(gpus.len());
        for (gpu, tag) in gpus.iter_mut().zip(LEVEL_TAGS) {
            let report = t.call("core.pipeline.process", tag, || {
                gpu.process_all(&frames[1..])
            })?;
            t.add("core.pipeline.process.frames", report.frames as f64);
            t.add(
                "core.pipeline.process.warp_slots",
                report.stats.warp_slots as f64,
            );
            reports.push(report);
        }
        Ok(reports)
    }

    fn finish(&self, reports: Self::Out) -> Round {
        let cfg = GpuConfig::tesla_c2075();
        let mut checks = Vec::new();
        let mut digest = FNV_OFFSET;
        for ((level, report), name) in LEVELS.iter().zip(&reports).zip(CHECKS) {
            let oracle = self
                .oracle
                .iter()
                .find(|(v, _)| *v == level.cpu_variant())
                .map(|(_, m)| m);
            checks.push((name, oracle == Some(&report.masks)));
            digest = fnv1a(digest, &report.kernel_time_total.to_bits().to_le_bytes());
            for m in &report.masks {
                digest = fnv1a(digest, m.as_slice());
            }
        }
        let level_c = &reports[2];
        let serial_hd =
            CpuModel::default().serial_time(&level_c.stats) / level_c.frames as f64 * pixel_scale();
        let e2e_f = full_hd_e2e_s(&reports[5], OptLevel::F, &cfg);
        let e2e_w8 = full_hd_e2e_s(&reports[6], LEVELS[6], &cfg);
        Round {
            checks,
            outputs: vec![
                ("model_fps_F", 1.0 / e2e_f),
                ("model_speedup_W8", serial_hd / e2e_w8),
            ],
            digest,
        }
    }
}
