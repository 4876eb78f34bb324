//! `attribution`: levels A and F at QQVGA with the profiler, the
//! sanitizer, dataflow capture and the morphology pass on, then the
//! profile reports, the dataflow graphs, a Chrome trace, the A-vs-F diff
//! and canonical JSON — the interpreter on its instrumented paths.

use crate::trace::Tracer;
use crate::{fnv1a, Round, Workload, FNV_OFFSET};
use mogpu::bench::harness::{default_params, standard_scene_seeded};
use mogpu::core::{GpuMog, OptLevel, ProfileMode, ProfileReport};
use mogpu::frame::{Frame, Resolution};
use mogpu::json::Value;
use mogpu::sim::chrome_trace::TraceBuilder;
use mogpu::sim::{diff_values, DataflowGraph, GpuConfig};

const RES: Resolution = Resolution::QQVGA;
/// Frames each level processes per round (one more seeds the model).
const FRAMES: usize = 8;
const LEVELS: [(OptLevel, &str); 2] = [(OptLevel::A, "A"), (OptLevel::F, "F")];
/// The attributed share of the A-vs-F kernel-time delta must reach this
/// (the bar `tests/diff.rs` pins).
const MIN_ATTRIBUTED: f64 = 0.9;

pub struct Attribution {
    seed: u64,
}

impl Attribution {
    pub fn new(seed: u64) -> Self {
        Attribution { seed }
    }
}

pub struct Out {
    findings: usize,
    graphs: Vec<DataflowGraph>,
    attributed_fraction: f64,
    time_delta_s: f64,
    diff_json: String,
    reports_json: String,
    trace_bytes: usize,
}

/// Byte conservation of a dataflow graph: every node's stores split
/// into consumed + dead + live-at-exit, and no edge carries more than
/// its producer stored or its consumer read.
fn conserved(g: &DataflowGraph) -> bool {
    let nodes_ok = g
        .nodes
        .iter()
        .all(|n| n.stored_bytes == n.consumed_bytes + n.dead_store_bytes + n.live_at_exit_bytes);
    let edges_ok = g.edges.iter().all(|e| {
        e.bytes <= g.nodes[e.producer].stored_bytes && e.bytes <= g.nodes[e.consumer].read_bytes
    });
    !g.nodes.is_empty() && nodes_ok && edges_ok
}

impl Workload for Attribution {
    type State = (Vec<Frame<u8>>, Vec<GpuMog<f64>>);
    type Out = Out;

    fn frames_per_round(&self) -> u64 {
        (FRAMES * LEVELS.len()) as u64
    }

    fn checks_per_round(&self) -> u64 {
        3
    }

    fn setup(&self, t: &mut Tracer) -> Result<Self::State, String> {
        let frames = t.span("frame.render", "", || {
            standard_scene_seeded(RES, self.seed)
                .render_sequence(FRAMES + 1)
                .0
                .into_frames()
        });
        t.add("frame.render.frames", frames.len() as f64);
        let mut gpus = Vec::with_capacity(LEVELS.len());
        for (level, tag) in LEVELS {
            gpus.push(t.call("core.pipeline.new", tag, || {
                let mut gpu = GpuMog::<f64>::new(
                    RES,
                    default_params(3),
                    level,
                    frames[0].as_slice(),
                    GpuConfig::tesla_c2075(),
                )?;
                gpu.set_profile_mode(ProfileMode::On);
                gpu.set_sanitize(true);
                gpu.enable_dataflow();
                gpu.enable_morphology()?;
                Ok::<_, mogpu::core::PipelineError>(gpu)
            })?);
            t.add("core.pipeline.new.calls", 1.0);
        }
        Ok((frames, gpus))
    }

    fn timed(&self, (frames, mut gpus): Self::State, t: &mut Tracer) -> Result<Out, String> {
        let mut reports: Vec<ProfileReport> = Vec::new();
        let mut graphs = Vec::new();
        let mut findings = 0;
        for (gpu, (_, tag)) in gpus.iter_mut().zip(LEVELS) {
            let run = t.call("core.pipeline.process", tag, || {
                gpu.process_all(&frames[1..])
            })?;
            t.add("core.pipeline.process.frames", run.frames as f64);
            t.add(
                "core.pipeline.process.warp_slots",
                run.stats.warp_slots as f64,
            );
            let report = t.call("core.pipeline.take_profile_report", tag, || {
                gpu.take_profile_report().ok_or("profiling was enabled")
            })?;
            t.add("core.pipeline.take_profile_report.calls", 1.0);
            findings += gpu
                .take_san_report()
                .ok_or("sanitizing was enabled")?
                .findings()
                .len();
            let graph = t.call("sim.dataflow.graph", tag, || {
                gpu.dataflow_graph().ok_or("dataflow was enabled")
            })?;
            t.add("sim.dataflow.graph.nodes", graph.nodes.len() as f64);
            reports.push(report);
            graphs.push(graph);
        }

        let trace = t.call("sim.chrome_trace", "", || {
            let mut builder = TraceBuilder::new();
            for (report, graph) in reports.iter().zip(&graphs) {
                let pid =
                    builder.add_pipeline(&format!("level {}", report.level), &report.schedule);
                builder.add_counters(pid, &report.telemetry);
                builder.add_stall_counters(pid, &report.telemetry, &report.stalls);
                builder.add_dataflow_flows(pid, &report.schedule, graph);
            }
            mogpu::json::to_string(&builder.finish())
        })?;
        t.add("sim.chrome_trace.bytes", trace.len() as f64);

        let values = t.call("json.canonical", "", || {
            reports
                .iter()
                .map(mogpu::json::to_value)
                .collect::<Result<Vec<Value>, _>>()
        })?;
        let diff = t.call("sim.diff.diff_values", "", || {
            diff_values(&values[0], &values[1], "A", "F", &GpuConfig::tesla_c2075())
        })?;
        t.add("sim.diff.diff_values.calls", 1.0);
        let (diff_json, reports_json) = t.call("json.canonical", "", || {
            Ok::<_, mogpu::json::Error>((
                mogpu::json::to_string_canonical(&diff)?,
                mogpu::json::to_string_canonical(&values)?,
            ))
        })?;
        t.add(
            "json.canonical.bytes",
            (diff_json.len() + reports_json.len()) as f64,
        );
        let kernel = diff.kernels.first().ok_or("the diff has no kernel row")?;
        Ok(Out {
            findings,
            graphs,
            attributed_fraction: kernel.attributed_fraction,
            time_delta_s: kernel.time_delta_s,
            diff_json,
            reports_json,
            trace_bytes: trace.len(),
        })
    }

    fn finish(&self, out: Out) -> Round {
        let checks = vec![
            ("zero_sanitizer_findings", out.findings == 0),
            ("dataflow_conserves_bytes", out.graphs.iter().all(conserved)),
            (
                "diff_attributes_a_vs_f",
                out.time_delta_s < 0.0 && out.attributed_fraction >= MIN_ATTRIBUTED,
            ),
        ];
        let mut digest = fnv1a(FNV_OFFSET, out.diff_json.as_bytes());
        digest = fnv1a(digest, out.reports_json.as_bytes());
        digest = fnv1a(digest, &out.trace_bytes.to_le_bytes());
        Round {
            checks,
            outputs: Vec::new(),
            digest,
        }
    }
}
