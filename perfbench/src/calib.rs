//! Fixed calibration kernels that read how fast the host runs now, and
//! a meter that refers CPU time to a reference host speed with them.
//!
//! Other guests on a shared host slow this process by up to about 2×
//! for seconds to minutes at a time, in CPU time as well as in wall
//! time. The meter samples the kernels between the benchmark's calls
//! and multiplies the CPU time between two samples by the host speed
//! the samples read: the time the same work would have taken on a host
//! on which each kernel runs at its reference time.

use crate::host::process_cpu_s;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// CPU seconds one sample of [`MogKernel`] and of [`MapKernel`] takes
/// on the reference host (a 2-vCPU Intel Xeon KVM guest) when no other
/// guest slows it.
pub const REFERENCE_S: [f64; 2] = [0.016, 0.007];

/// CPU seconds a segment of a metered phase runs, at least, before the
/// meter samples the kernels again.
const MIN_SEGMENT_S: f64 = 0.25;

const PIXELS: usize = 640 * 480;
/// Passes over the model per sample.
const PASSES: usize = 4;

/// A frozen Mixture-of-Gaussians-like update over a VGA-sized `f64`
/// model: the same mix of streaming loads and stores, compares,
/// divisions and square roots as the library's MoG, in code that no
/// change to the library can speed up or slow down.
pub struct MogKernel {
    model: Vec<[f64; 9]>,
    pixels: Vec<u8>,
    step: usize,
}

impl MogKernel {
    fn new() -> Self {
        MogKernel {
            model: vec![[0.33, 100.0, 400.0, 0.33, 50.0, 400.0, 0.34, 200.0, 400.0]; PIXELS],
            pixels: (0..PIXELS)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect(),
            step: 0,
        }
    }

    fn resident_mib(&self) -> f64 {
        let bytes = std::mem::size_of_val(self.model.as_slice()) + self.pixels.len();
        bytes as f64 / (1024.0 * 1024.0)
    }

    fn sample(&mut self) -> f64 {
        let s0 = process_cpu_s();
        for _ in 0..PASSES {
            self.pass();
        }
        process_cpu_s() - s0
    }

    fn pass(&mut self) {
        self.step += 1;
        let mut foreground = 0usize;
        for (i, (g, &p)) in self.model.iter_mut().zip(&self.pixels).enumerate() {
            let x = ((p as usize + self.step + i / 97) & 255) as f64;
            let mut matched = false;
            for c in 0..3 {
                let (w, mu, var) = (g[3 * c], g[3 * c + 1], g[3 * c + 2]);
                let d = x - mu;
                if !matched && d * d < 6.25 * var {
                    matched = true;
                    let rho = 0.01 / w.max(1e-3);
                    g[3 * c] = w + 0.01 * (1.0 - w);
                    g[3 * c + 1] = mu + rho * d;
                    g[3 * c + 2] = (var + rho * (d * d - var)).max(4.0);
                } else {
                    g[3 * c] = w * 0.99;
                }
            }
            if !matched {
                g[6] = 0.05;
                g[7] = x;
                g[8] = 900.0;
                foreground += 1;
            }
            let sum = g[0] + g[3] + g[6];
            g[0] /= sum;
            g[3] /= sum;
            g[6] /= sum;
            if g[0] / g[2].sqrt() < g[3] / g[5].sqrt() {
                g.swap(0, 3);
                g.swap(1, 4);
                g.swap(2, 5);
            }
        }
        black_box(foreground);
    }
}

/// Operations per sample of [`MapKernel`].
const MAP_OPS: u32 = 200_000;
/// Keys of [`MapKernel`]'s map.
const MAP_KEYS: u64 = 4096;

/// Frozen interpreter-like work: a data-dependent dispatch over hash-map
/// reads and writes, short-lived small allocations and integer
/// arithmetic, the kind of code the simulator spends its time in.
pub struct MapKernel {
    map: HashMap<u64, u64>,
    state: u64,
}

impl MapKernel {
    fn new() -> Self {
        MapKernel {
            map: HashMap::new(),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn sample(&mut self) -> f64 {
        let s0 = process_cpu_s();
        let mut h = self.state;
        let mut acc = 0u64;
        for i in 0..MAP_OPS {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            match h % 5 {
                0 => *self.map.entry((h >> 20) % MAP_KEYS).or_default() += u64::from(i),
                1 => {
                    let v = self.map.get(&((h >> 24) % MAP_KEYS)).copied();
                    acc = acc.wrapping_add(v.unwrap_or(0));
                }
                2 => {
                    let v: Vec<u64> = (0..h % 64).collect();
                    acc ^= v.iter().sum::<u64>();
                }
                3 => acc = acc.rotate_left(7) ^ h,
                _ => acc = acc.wrapping_mul(h | 1),
            }
        }
        self.state = h;
        black_box(acc);
        process_cpu_s() - s0
    }
}

/// Samples the calibration kernels and refers the CPU time of a metered
/// phase to the reference speed, segment by segment.
pub struct Meter {
    mog: MogKernel,
    map: MapKernel,
    /// Every sample taken: CPU seconds of each kernel.
    samples: Vec<[f64; 2]>,
    /// Wall seconds spent sampling so far.
    sampling_wall_s: f64,
    phase: Option<Phase>,
}

/// The open metered phase.
struct Phase {
    /// CPU clock where the current segment began.
    mark: f64,
    /// The sample that opened the current segment.
    last: [f64; 2],
    raw_s: f64,
    /// CPU seconds referred by each kernel alone.
    referred_s: [f64; 2],
}

impl Meter {
    pub fn new() -> Self {
        Meter {
            mog: MogKernel::new(),
            map: MapKernel::new(),
            samples: Vec::new(),
            sampling_wall_s: 0.0,
            phase: None,
        }
    }

    /// Samples both kernels; returns their CPU seconds.
    pub fn sample(&mut self) -> [f64; 2] {
        let w0 = Instant::now();
        let c = [self.mog.sample(), self.map.sample()];
        self.samples.push(c);
        self.sampling_wall_s += w0.elapsed().as_secs_f64();
        c
    }

    /// Opens a metered phase with a sample; returns the sample.
    pub fn begin(&mut self) -> [f64; 2] {
        let last = self.sample();
        self.phase = Some(Phase {
            mark: process_cpu_s(),
            last,
            raw_s: 0.0,
            referred_s: [0.0; 2],
        });
        last
    }

    /// A boundary between two calls of the open phase: ends the current
    /// segment with a sample if it has run long enough.
    pub fn boundary(&mut self) {
        self.cut(MIN_SEGMENT_S);
    }

    fn cut(&mut self, min_segment_s: f64) {
        let Some(mark) = self.phase.as_ref().map(|p| p.mark) else {
            return;
        };
        let segment = process_cpu_s() - mark;
        if segment < min_segment_s {
            return;
        }
        let c = self.sample();
        let p = self.phase.as_mut().expect("phase is open");
        p.raw_s += segment;
        for k in 0..2 {
            p.referred_s[k] += segment * REFERENCE_S[k] / (0.5 * (p.last[k] + c[k]));
        }
        p.last = c;
        p.mark = process_cpu_s();
    }

    /// Closes the open phase with a sample; returns its CPU seconds,
    /// sampling excluded, raw and referred to the reference speed (the
    /// geometric mean of what each kernel refers it to).
    pub fn end(&mut self) -> (f64, f64) {
        self.cut(0.0);
        self.phase.take().map_or((0.0, 0.0), |p| {
            (p.raw_s, (p.referred_s[0] * p.referred_s[1]).sqrt())
        })
    }

    /// Drops an open phase (after a failed call).
    pub fn abort(&mut self) {
        self.phase = None;
    }

    /// Wall seconds spent sampling so far.
    pub fn sampling_wall_s(&self) -> f64 {
        self.sampling_wall_s
    }

    /// Median CPU seconds of each kernel's samples.
    pub fn median_samples(&self) -> [f64; 2] {
        [0, 1].map(|k| crate::median(&self.samples.iter().map(|c| c[k]).collect::<Vec<_>>()))
    }

    /// MiB the kernels keep resident, to take off the process's peak.
    pub fn resident_mib(&self) -> f64 {
        self.mog.resident_mib()
    }
}

/// Host speed between two samples: the geometric mean over the kernels
/// of reference time over mean sampled time.
pub fn speed(a: [f64; 2], b: [f64; 2]) -> f64 {
    (0..2)
        .map(|k| REFERENCE_S[k] / (0.5 * (a[k] + b[k])))
        .product::<f64>()
        .sqrt()
}
