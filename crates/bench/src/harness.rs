//! Shared experiment machinery: the standard workload, level runners, and
//! the full-HD projection.

use mogpu_core::{DeviceReal, GpuMog, OptLevel, ProfileMode, ProfileReport, RunReport};
use mogpu_frame::{Frame, Resolution, Scene, SceneBuilder};
use mogpu_mog::MogParams;
use mogpu_sim::cpu::CpuModel;
use mogpu_sim::dma::{pipeline_time, transfer_time};
use mogpu_sim::GpuConfig;
use serde::{Deserialize, Serialize};

/// Resolution the experiments simulate at. The functional simulator
/// interprets every lane of every warp, so full HD (2M threads/frame) is
/// impractical; 160x120 keeps >50 blocks per SM — deep in the saturated
/// regime where the analytic model is linear in warp count — while running
/// a whole ladder sweep in seconds.
pub const SIM_RESOLUTION: Resolution = Resolution::QQVGA;

/// Frames per experiment run (first frame seeds the model).
pub const SIM_FRAMES: usize = 33;

/// The standard surveillance workload of the experiments: multimodal
/// background (5% flicker pixels), three walkers, moderate sensor noise.
pub fn standard_scene(res: Resolution) -> Scene {
    standard_scene_seeded(res, 0x1CC_2014)
}

/// The standard workload content with a caller-chosen RNG seed — distinct
/// per-camera variants for multi-stream runs.
pub fn standard_scene_seeded(res: Resolution, seed: u64) -> Scene {
    SceneBuilder::new(res)
        .seed(seed)
        .walkers(3)
        .bimodal_fraction(0.05)
        .bimodal_contrast(60.0)
        .noise_sd(2.0)
        .build()
}

/// The paper's algorithm configuration: K components, slow adaptation.
pub fn default_params(k: usize) -> MogParams {
    MogParams::new(k)
}

/// Renders the standard frame sequence at the simulation resolution.
pub fn standard_frames(n: usize) -> Vec<Frame<u8>> {
    standard_scene(SIM_RESOLUTION)
        .render_sequence(n)
        .0
        .into_frames()
}

/// Runs one optimization level over a frame sequence.
pub fn run_level<T: DeviceReal>(
    level: OptLevel,
    params: MogParams,
    frames: &[Frame<u8>],
) -> RunReport {
    let mut gpu = GpuMog::<T>::new(
        frames[0].resolution(),
        params,
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .expect("pipeline construction");
    gpu.process_all(&frames[1..]).expect("processing")
}

/// Runs one optimization level with the source-attributed profiler on
/// and returns the full profile report — the attribution side-channel of
/// the bench gate (`mogpu diff` consumes the slimmed serialization).
pub fn profile_level<T: DeviceReal>(
    level: OptLevel,
    params: MogParams,
    frames: &[Frame<u8>],
) -> ProfileReport {
    let mut gpu = GpuMog::<T>::new(
        frames[0].resolution(),
        params,
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .expect("pipeline construction");
    gpu.set_profile_mode(ProfileMode::On);
    gpu.process_all(&frames[1..]).expect("processing");
    gpu.take_profile_report().expect("profiling was enabled")
}

/// Per-frame numbers projected from the simulation resolution to the
/// paper's full-HD 450-frame setting.
///
/// The projection multiplies per-frame kernel time and counters by the
/// pixel (= warp) ratio — exact for the analytic model once the launch
/// saturates the SMs — and re-schedules the pipeline with full-HD PCIe
/// transfer times.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HdProjection {
    /// Modelled kernel milliseconds per full-HD frame.
    pub kernel_ms: f64,
    /// Modelled end-to-end milliseconds per full-HD frame (overlap mode of
    /// the level applied).
    pub e2e_ms: f64,
    /// Modelled seconds for the paper's 450-frame run.
    pub total_450_s: f64,
    /// Store transactions per full-HD frame.
    pub store_tx_per_frame: f64,
    /// Branch slots per full-HD frame.
    pub branch_slots_per_frame: f64,
}

/// Full-HD pixels per pixel of the run's own frames: the factor its
/// per-frame figures scale by. A run of no frames has no resolution and
/// projects to zero.
fn full_hd_scale(report: &RunReport) -> f64 {
    match report.masks.first() {
        Some(mask) => Resolution::FULL_HD.pixels() as f64 / mask.len() as f64,
        None => 0.0,
    }
}

/// Projects a run, at whatever resolution it simulated, to full HD (see
/// [`HdProjection`]).
pub fn project_full_hd(report: &RunReport, level: OptLevel, cfg: &GpuConfig) -> HdProjection {
    let scale = full_hd_scale(report);
    let kernel_hd = report.kernel_time_per_frame() * scale;
    let t_h2d = transfer_time(Resolution::FULL_HD.pixels(), cfg);
    let t_d2h = t_h2d;
    let frames = 450;
    let sched = pipeline_time(frames, t_h2d, kernel_hd, t_d2h, level.overlap(), cfg);
    HdProjection {
        kernel_ms: 1e3 * kernel_hd,
        e2e_ms: 1e3 * sched.per_frame,
        total_450_s: sched.total,
        store_tx_per_frame: report.metrics.store_transactions as f64 / report.frames as f64 * scale,
        branch_slots_per_frame: report.metrics.branch_slots as f64 / report.frames as f64 * scale,
    }
}

/// Modelled full-HD serial CPU seconds per frame, derived from a run's
/// traced scalar work. Pass a *sorted-level* report (C) so the work
/// matches the serial algorithm.
pub fn cpu_serial_hd_per_frame(sorted_report: &RunReport) -> f64 {
    let scale = full_hd_scale(sorted_report);
    CpuModel::default().serial_time(&sorted_report.stats) / sorted_report.frames as f64 * scale
}

/// One row of the ladder tables the experiments print.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LadderRow {
    /// Level name ("A".."F", "W(g)").
    pub level: String,
    /// Projection to the paper's setting.
    pub hd: HdProjection,
    /// Speedup vs the modelled serial CPU.
    pub speedup: f64,
    /// Branch efficiency.
    pub branch_eff: f64,
    /// Memory access efficiency.
    pub mem_eff: f64,
    /// Theoretical SM occupancy.
    pub occupancy: f64,
    /// Declared registers per thread.
    pub registers: u32,
}

/// Runs a level and assembles its ladder row. `cpu_serial_hd` is the
/// per-frame serial reference from [`cpu_serial_hd_per_frame`].
pub fn ladder_row<T: DeviceReal>(
    level: OptLevel,
    params: MogParams,
    frames: &[Frame<u8>],
    cpu_serial_hd: f64,
) -> LadderRow {
    let cfg = GpuConfig::tesla_c2075();
    let report = run_level::<T>(level, params, frames);
    let hd = project_full_hd(&report, level, &cfg);
    LadderRow {
        level: level.name(),
        speedup: cpu_serial_hd / (hd.e2e_ms / 1e3),
        branch_eff: report.metrics.branch_efficiency,
        mem_eff: report.metrics.mem_access_efficiency,
        occupancy: report.occupancy.occupancy,
        registers: level.registers(T::BYTES, params.k),
        hd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_scales_linearly() {
        let frames = standard_frames(4);
        let report = run_level::<f64>(OptLevel::F, default_params(3), &frames);
        let cfg = GpuConfig::tesla_c2075();
        let hd = project_full_hd(&report, OptLevel::F, &cfg);
        let scale = Resolution::FULL_HD.pixels() as f64 / SIM_RESOLUTION.pixels() as f64;
        assert!((hd.kernel_ms / (1e3 * report.kernel_time_per_frame()) - scale).abs() < 1e-6);
        assert!(hd.total_450_s > 0.0);
    }

    #[test]
    fn projection_scales_by_the_runs_own_resolution() {
        // A QVGA run has 4x the pixels of the simulation resolution, so
        // it projects to full HD by 4x less, landing on the same paper
        // numbers.
        let frames = standard_scene(Resolution::QVGA)
            .render_sequence(3)
            .0
            .into_frames();
        let report = run_level::<f64>(OptLevel::C, default_params(3), &frames);
        let hd = project_full_hd(&report, OptLevel::C, &GpuConfig::tesla_c2075());
        let scale = Resolution::FULL_HD.pixels() as f64 / Resolution::QVGA.pixels() as f64;
        assert!((hd.kernel_ms / (1e3 * report.kernel_time_per_frame()) - scale).abs() < 1e-9);
        let per_frame = cpu_serial_hd_per_frame(&report);
        assert!(
            (per_frame - 0.505).abs() / 0.505 < 0.15,
            "serial full-HD frame from a QVGA run modelled at {per_frame:.3} s (paper: 0.505 s)"
        );
    }

    #[test]
    fn standard_scene_is_deterministic_across_calls() {
        let a = standard_frames(3);
        let b = standard_frames(3);
        assert_eq!(a, b);
    }

    #[test]
    fn cpu_reference_calibration_is_near_the_paper() {
        // Guards the one calibrated CPU constant: the modelled serial
        // full-HD frame must stay within 15% of the paper's 505 ms.
        let frames = standard_frames(6);
        let c = run_level::<f64>(OptLevel::C, default_params(3), &frames);
        let per_frame = cpu_serial_hd_per_frame(&c);
        assert!(
            (per_frame - 0.505).abs() / 0.505 < 0.15,
            "serial full-HD frame modelled at {per_frame:.3} s (paper: 0.505 s)"
        );
    }

    #[test]
    fn ladder_row_is_coherent() {
        let frames = standard_frames(4);
        let c = run_level::<f64>(OptLevel::C, default_params(3), &frames);
        let serial = cpu_serial_hd_per_frame(&c);
        let row = ladder_row::<f64>(OptLevel::F, default_params(3), &frames, serial);
        assert!(row.speedup > 1.0);
        assert_eq!(row.registers, 31);
        assert!(row.mem_eff > 0.5);
    }
}
