//! `fleet`: 16 live camera streams at TINY 64×48, level F, on a
//! `c2075,embedded,hbm` fleet, then the Prometheus exposition, the
//! JSONL event log and the canonical JSON of the report.
//!
//! Host side this is a closed loop like every workload. The modelled
//! arrivals are open loop: each stream offers a frame every
//! `1 / RATE_FPS` seconds whatever the fleet does, and end-to-end
//! latency runs from a frame's scheduled arrival (`sim::serving`). The
//! rate is high enough that admission sheds some streams.

use crate::trace::Tracer;
use crate::{fnv1a, Round, Workload, FNV_OFFSET};
use mogpu::bench::harness::{default_params, standard_scene_seeded};
use mogpu::core::{FleetPipeline, FleetRunReport, OptLevel};
use mogpu::frame::{Frame, Resolution};
use mogpu::json::Value;
use mogpu::sim::fleet::{fleet_report, prometheus_fleet, FleetOptions, FleetSpec};
use mogpu::sim::serving::events_jsonl;

const RES: Resolution = Resolution::TINY;
const STREAMS: usize = 16;
/// Frames each stream offers per round (one more seeds its model).
const FRAMES: usize = 32;
const DEVICES: [&str; 3] = ["c2075", "embedded", "hbm"];
/// Modelled arrival rate per stream, frames per second.
const RATE_FPS: f64 = 30_000.0;
const LEVEL: OptLevel = OptLevel::F;

pub struct Fleet {
    seed: u64,
}

impl Fleet {
    pub fn new(seed: u64) -> Self {
        Fleet { seed }
    }
}

pub struct Out {
    run: FleetRunReport,
    prometheus: String,
    jsonl: String,
    canonical: String,
}

/// Derives stream `i`'s scene seed from the workload seed (splitmix64
/// of `(seed, i)`).
fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sum of the `mogpu_frames_dropped_total` samples of an exposition.
fn dropped_total(exposition: &str) -> Option<u64> {
    exposition
        .lines()
        .filter(|l| l.starts_with("mogpu_frames_dropped_total{"))
        .map(|l| l.rsplit(' ').next()?.parse::<f64>().ok().map(|v| v as u64))
        .sum()
}

fn jsonl_drops(jsonl: &str) -> Option<u64> {
    let mut n = 0;
    for line in jsonl.lines() {
        let v: Value = mogpu::json::from_str(line).ok()?;
        if v["event"] == Value::String("frame_dropped".into()) {
            n += 1;
        }
    }
    Some(n)
}

impl Workload for Fleet {
    type State = (Vec<Vec<Frame<u8>>>, FleetPipeline<f64>);
    type Out = Out;

    fn frames_per_round(&self) -> u64 {
        (STREAMS * FRAMES) as u64
    }

    fn checks_per_round(&self) -> u64 {
        3
    }

    fn setup(&self, t: &mut Tracer) -> Result<Self::State, String> {
        let mut scenes = Vec::with_capacity(STREAMS);
        for s in 0..STREAMS {
            let seed = derive_seed(self.seed, s as u64);
            scenes.push(t.span("frame.render", "", || {
                standard_scene_seeded(RES, seed)
                    .render_sequence(FRAMES + 1)
                    .0
                    .into_frames()
            }));
            t.add("frame.render.frames", (FRAMES + 1) as f64);
        }
        let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
        let fleet = t.call("core.fleet.new", "", || {
            FleetPipeline::<f64>::new(RES, default_params(3), LEVEL, &seeds, &DEVICES)
                .map(|f| f.with_arrival_period(1.0 / RATE_FPS))
        })?;
        t.add("core.fleet.new.calls", 1.0);
        let frames = scenes.into_iter().map(|f| f[1..].to_vec()).collect();
        Ok((frames, fleet))
    }

    fn timed(&self, (frames, mut fleet): Self::State, t: &mut Tracer) -> Result<Out, String> {
        let run = t.call("core.fleet.process", "", || fleet.process_all(&frames))?;
        t.add("core.fleet.process.frames", (STREAMS * FRAMES) as f64);
        let prometheus = t.span("sim.fleet.prometheus_fleet", "", || {
            prometheus_fleet(&run.report, usize::MAX)
        });
        t.add("sim.fleet.prometheus_fleet.bytes", prometheus.len() as f64);
        let jsonl = t.span("sim.serving.events_jsonl", "", || {
            events_jsonl(&run.report.all_events())
        });
        t.add("sim.serving.events_jsonl.bytes", jsonl.len() as f64);
        let canonical = t.call("json.canonical", "", || {
            mogpu::json::to_string_canonical(&run.report)
        })?;
        t.add("json.canonical.bytes", canonical.len() as f64);
        Ok(Out {
            run,
            prometheus,
            jsonl,
            canonical,
        })
    }

    /// Prices dispatch, scheduling and serving synthesis on their own by
    /// replaying the report's recorded demands; the replay must
    /// reproduce the report.
    fn traced_extra(&self, out: &Out, t: &mut Tracer) -> Result<(), String> {
        let (spec, _) = FleetSpec::from_preset_keys(&DEVICES)?;
        let opts = FleetOptions {
            site: format!("level {LEVEL}"),
            ..FleetOptions::default()
        };
        let replay = t.call("sim.fleet.fleet_report", "", || {
            fleet_report(&spec, &out.run.report.demands, &opts)
        })?;
        t.add("sim.fleet.fleet_report.calls", 1.0);
        if replay != out.run.report {
            return Err("replaying the recorded demands gave a different fleet report".into());
        }
        Ok(())
    }

    fn finish(&self, out: Out) -> Round {
        let report = &out.run.report;
        let offered: usize = out.run.frames_per_stream.iter().sum();
        let dropped = report.frames_dropped();
        let within_slo: u64 = report
            .devices
            .iter()
            .flat_map(|d| &d.serving.streams)
            .map(|s| s.frames_completed.saturating_sub(s.slo_violations))
            .sum();
        let p99_ms = 1e3 * report.e2e_latency.quantile(0.99);
        let checks = vec![
            (
                "streams_admitted_plus_shed_equal_offered",
                report.streams_admitted() + report.shed.len() == STREAMS
                    && report.streams_total() == STREAMS,
            ),
            (
                "drops_agree_across_report_prometheus_jsonl",
                report.drop_events.len() as u64 == dropped
                    && dropped_total(&out.prometheus) == Some(dropped)
                    && jsonl_drops(&out.jsonl) == Some(dropped),
            ),
            ("e2e_p99_is_finite", p99_ms.is_finite()),
        ];
        let mut digest = fnv1a(FNV_OFFSET, out.canonical.as_bytes());
        digest = fnv1a(digest, out.prometheus.as_bytes());
        digest = fnv1a(digest, out.jsonl.as_bytes());
        Round {
            checks,
            outputs: vec![
                ("model_e2e_p99_ms", p99_ms),
                ("model_slo_attainment", within_slo as f64 / offered as f64),
            ],
            digest,
        }
    }
}
