//! `quality`: Table IV on the native path — `SerialMog<f64>` Sorted
//! ground truth at VGA, `ParallelMog<f32>` in the four variants, and
//! foreground/background MS-SSIM of each against the truth. No
//! simulator code runs here.

use crate::trace::Tracer;
use crate::{fnv1a, Round, Workload, FNV_OFFSET};
use mogpu::bench::harness::{default_params, standard_scene_seeded};
use mogpu::frame::{Frame, Mask, Resolution};
use mogpu::metrics::ms_ssim;
use mogpu::mog::parallel::ParallelMog;
use mogpu::mog::{SerialMog, Variant};

const RES: Resolution = Resolution::VGA;
/// Frames processed per round (one more seeds the models).
const FRAMES: usize = 8;
/// MS-SSIM is taken over the last third, after the models settle.
const EVAL_FROM: usize = FRAMES * 2 / 3;

pub struct Quality {
    seed: u64,
}

impl Quality {
    pub fn new(seed: u64) -> Self {
        Quality { seed }
    }
}

pub struct State {
    frames: Vec<Frame<u8>>,
    truth: SerialMog<f64>,
    variants: Vec<ParallelMog<f32>>,
}

/// MS-SSIM per evaluated frame (`None` where the scales do not fit).
type Scores = Vec<Option<f64>>;

pub struct Out {
    /// Per variant: foreground and background scores.
    scores: Vec<(Scores, Scores)>,
    digest: u64,
}

/// The frame with foreground pixels blanked: what each mask keeps as
/// background.
fn background(frame: &Frame<u8>, mask: &Mask) -> Frame<u8> {
    let mut out = frame.clone();
    for (o, &m) in out.as_mut_slice().iter_mut().zip(mask.as_slice()) {
        if m != 0 {
            *o = 0;
        }
    }
    out
}

fn mean(xs: &[Option<f64>]) -> f64 {
    xs.iter().map(|x| x.unwrap_or(f64::NAN)).sum::<f64>() / xs.len() as f64
}

impl Workload for Quality {
    type State = State;
    type Out = Out;

    fn frames_per_round(&self) -> u64 {
        (FRAMES * (1 + Variant::ALL.len())) as u64
    }

    fn checks_per_round(&self) -> u64 {
        1
    }

    fn setup(&self, t: &mut Tracer) -> Result<State, String> {
        let frames = t.span("frame.render", "", || {
            standard_scene_seeded(RES, self.seed)
                .render_sequence(FRAMES + 1)
                .0
                .into_frames()
        });
        t.add("frame.render.frames", frames.len() as f64);
        let seed = frames[0].as_slice();
        let (truth, variants) = t.span("mog.new", "", || {
            let truth = SerialMog::<f64>::new(RES, default_params(3), Variant::Sorted, seed);
            let variants = Variant::ALL
                .into_iter()
                .map(|v| ParallelMog::<f32>::new(RES, default_params(3), v, seed))
                .collect::<Vec<_>>();
            (truth, variants)
        });
        t.add("mog.new.calls", 1.0 + variants.len() as f64);
        Ok(State {
            frames,
            truth,
            variants,
        })
    }

    fn timed(&self, mut st: State, t: &mut Tracer) -> Result<Out, String> {
        let inputs = &st.frames[1..];
        let truth = t.span("mog.serial", "", || st.truth.process_all(inputs));
        t.add("mog.serial.frames", inputs.len() as f64);
        let mut digest = FNV_OFFSET;
        let mut scores = Vec::with_capacity(st.variants.len());
        for cpu in &mut st.variants {
            let masks = t.span("mog.parallel", "", || cpu.process_all(inputs));
            t.add("mog.parallel.frames", inputs.len() as f64);
            let (mut fg, mut bg) = (Vec::new(), Vec::new());
            for i in EVAL_FROM..masks.len() {
                fg.push(t.span("metrics.ms_ssim", "", || ms_ssim(&masks[i], &truth[i])));
                let (ours, theirs) = (
                    background(&inputs[i], &masks[i]),
                    background(&inputs[i], &truth[i]),
                );
                bg.push(t.span("metrics.ms_ssim", "", || ms_ssim(&ours, &theirs)));
                t.add("metrics.ms_ssim.calls", 2.0);
            }
            for m in &masks {
                digest = fnv1a(digest, m.as_slice());
            }
            scores.push((fg, bg));
        }
        Ok(Out { scores, digest })
    }

    fn finish(&self, out: Out) -> Round {
        let valid = out.scores.iter().all(|(fg, bg)| {
            fg.iter()
                .chain(bg)
                .all(|s| s.is_some_and(|v| v.is_finite() && (0.0..=1.0).contains(&v)))
        });
        let fg_min = out
            .scores
            .iter()
            .map(|(fg, _)| mean(fg))
            .fold(f64::INFINITY, f64::min);
        let mut digest = out.digest;
        for (fg, bg) in &out.scores {
            for s in fg.iter().chain(bg) {
                digest = fnv1a(digest, &s.unwrap_or(f64::NAN).to_bits().to_le_bytes());
            }
        }
        Round {
            checks: vec![("msssim_finite_in_unit_interval", valid)],
            outputs: vec![("msssim_fg_min", fg_min)],
            digest,
        }
    }
}
