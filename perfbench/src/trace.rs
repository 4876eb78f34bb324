//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is `(layer, tag, parent, start, end, cpu)`. Spans are kept in
//! memory and reduced to per-layer metrics when the run ends. With
//! tracing off no span is kept; only the work counters are.
//!
//! A tracer may carry a calibration [`Meter`]: during a metered phase,
//! the boundaries between top-level calls are where it samples. Its
//! sampling time is kept out of the traced windows and of every span.

use crate::calib::Meter;
use crate::host::{process_cpu_s, Stamp};
use std::collections::BTreeMap;
use std::time::Instant;

/// One layer of the program, named `<module>.<function>`.
pub struct Layer {
    pub name: &'static str,
    /// Name of the layer's work counter (`frames`, `calls`, `bytes`, ...).
    pub work: &'static str,
    /// Report the CPU seconds spent inside the layer (all threads).
    pub cpu: bool,
    /// Report milliseconds per call.
    pub per_call: bool,
}

const fn layer(name: &'static str, work: &'static str, cpu: bool, per_call: bool) -> Layer {
    Layer {
        name,
        work,
        cpu,
        per_call,
    }
}

/// Every layer the benchmark times, in the order they are reported.
/// Each workload reports all of them; a layer it never calls reads 0.
pub const LAYERS: &[Layer] = &[
    layer("frame.render", "frames", false, false),
    layer("core.pipeline.new", "calls", false, false),
    layer("core.pipeline.process", "frames", true, false),
    layer("core.pipeline.take_profile_report", "calls", false, false),
    layer("core.fleet.new", "calls", false, false),
    layer("core.fleet.process", "frames", true, false),
    layer("sim.fleet.fleet_report", "calls", false, false),
    layer("sim.fleet.prometheus_fleet", "bytes", false, false),
    layer("sim.serving.events_jsonl", "bytes", false, false),
    layer("json.canonical", "bytes", false, false),
    layer("sim.dataflow.graph", "nodes", false, false),
    layer("sim.chrome_trace", "bytes", false, false),
    layer("sim.diff.diff_values", "calls", false, false),
    layer("mog.new", "calls", false, false),
    layer("mog.serial", "frames", false, true),
    layer("mog.parallel", "frames", false, true),
    layer("metrics.ms_ssim", "calls", false, true),
];

/// Level tags of `core.pipeline.process` spans, reported as
/// `core.pipeline.process.<tag>.busy_s`.
pub const LEVEL_TAGS: [&str; 7] = ["A", "B", "C", "D", "E", "F", "W8"];

struct Span {
    layer: &'static str,
    tag: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    cpu_s: f64,
}

/// Span recorder plus work and failure counters.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Start of the open window, and the meter's sampling wall time
    /// then.
    window: Option<(Instant, f64)>,
    wall_s: f64,
    /// Traced windows closed: one per measured round.
    windows: usize,
    counts: BTreeMap<&'static str, f64>,
    failed: BTreeMap<&'static str, u64>,
    meter: Option<Meter>,
}

impl Tracer {
    pub fn new(on: bool, meter: Option<Meter>) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
            window: None,
            wall_s: 0.0,
            windows: 0,
            counts: BTreeMap::new(),
            failed: BTreeMap::new(),
            meter,
        }
    }

    /// The calibration meter this tracer carries.
    pub fn meter(&mut self) -> &mut Meter {
        self.meter.as_mut().expect("this tracer carries no meter")
    }

    fn sampling_wall_s(&self) -> f64 {
        self.meter.as_ref().map_or(0.0, Meter::sampling_wall_s)
    }

    /// A boundary between top-level calls, where the meter may sample.
    fn boundary(&mut self) {
        if let Some(m) = &mut self.meter {
            m.boundary();
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        if self.open.is_empty() {
            self.boundary();
        }
        if !self.on {
            let r = f();
            self.boundary();
            return r;
        }
        let parent = self.open.last().copied();
        let start = Stamp::now();
        self.spans.push(Span {
            layer,
            tag,
            parent,
            start: start.wall,
            end: start.wall,
            cpu_s: -start.cpu_s,
        });
        self.open.push(self.spans.len() - 1);
        let r = f();
        self.close_innermost();
        r
    }

    /// A fallible call into `layer`: an `Err` counts as a failure of the
    /// layer and becomes the round's error.
    pub fn call<R, E: std::fmt::Display>(
        &mut self,
        layer: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Result<R, String> {
        self.span(layer, tag, f).map_err(|e| {
            *self.failed.entry(layer).or_default() += 1;
            format!("{layer}: {e}")
        })
    }

    fn close_innermost(&mut self) {
        if let Some(i) = self.open.pop() {
            let s = &mut self.spans[i];
            s.end = Instant::now();
            s.cpu_s += process_cpu_s();
            if self.open.is_empty() {
                self.boundary();
            }
        }
    }

    /// Adds `v` to the counter `name` (kept with tracing off too).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Opens a traced window: the wall time the layers are measured
    /// against.
    pub fn begin_window(&mut self) {
        if self.on {
            self.window = Some((Instant::now(), self.sampling_wall_s()));
        }
    }

    pub fn end_window(&mut self) {
        if let Some((start, sampling)) = self.window.take() {
            let sampling = self.sampling_wall_s() - sampling;
            self.wall_s += start.elapsed().as_secs_f64() - sampling;
            self.windows += 1;
        }
    }

    /// Closes the window after a panic: the innermost open span's layer
    /// is charged with the failure and every open span ends now.
    pub fn abort_window(&mut self) {
        if let Some(&i) = self.open.last() {
            let layer = self.spans[i].layer;
            *self.failed.entry(layer).or_default() += 1;
        }
        while !self.open.is_empty() {
            self.close_innermost();
        }
        if let Some(m) = &mut self.meter {
            m.abort();
        }
        self.end_window();
    }

    /// Drops the spans, counters and window time recorded so far (the
    /// warm-up round's); failure counts are kept.
    pub fn discard_timing(&mut self) {
        self.spans.clear();
        self.counts.clear();
        self.wall_s = 0.0;
        self.windows = 0;
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Wall seconds covered by the traced windows.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Per-layer metrics, `(name, value, unit)`: times and work counts
    /// per traced round, so runs of different lengths compare; failure
    /// counts are run totals.
    pub fn layer_metrics(&self) -> Vec<(String, f64, &'static str)> {
        let rounds = self.windows.max(1) as f64;
        let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
        let mut cpu: BTreeMap<&str, f64> = BTreeMap::new();
        let mut calls: BTreeMap<&str, f64> = BTreeMap::new();
        let mut by_tag: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += secs(s);
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let self_s = secs(s) - child_s[i];
            *busy.entry(s.layer).or_default() += self_s;
            *cpu.entry(s.layer).or_default() += s.cpu_s;
            *calls.entry(s.layer).or_default() += 1.0;
            *by_tag.entry((s.layer, s.tag)).or_default() += self_s;
        }
        let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let mut out = Vec::new();
        for l in LAYERS {
            let b = get(&busy, l.name);
            out.push((format!("{}.busy_s", l.name), b / rounds, "s"));
            if l.cpu {
                out.push((format!("{}.cpu_s", l.name), get(&cpu, l.name) / rounds, "s"));
            }
            let work_key = format!("{}.{}", l.name, l.work);
            out.push((work_key.clone(), self.count(&work_key) / rounds, "count"));
            if l.per_call {
                let n = get(&calls, l.name);
                let ms = if n > 0.0 { 1e3 * b / n } else { 0.0 };
                out.push((format!("{}.ms_per_call", l.name), ms, "ms"));
            }
            let failed = self.failed.get(l.name).copied().unwrap_or(0);
            out.push((format!("{}.failed", l.name), failed as f64, "count"));
        }
        let process = "core.pipeline.process";
        for tag in LEVEL_TAGS {
            let b = by_tag.get(&(process, tag)).copied().unwrap_or(0.0);
            out.push((format!("{process}.{tag}.busy_s"), b / rounds, "s"));
        }
        let slots = self.count("core.pipeline.process.warp_slots");
        out.push((format!("{process}.warp_slots"), slots / rounds, "count"));
        let ns = if slots > 0.0 {
            1e9 * get(&cpu, process) / slots
        } else {
            0.0
        };
        out.push((format!("{process}.ns_per_warp_slot"), ns, "ns"));
        let top: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(secs)
            .sum();
        out.push(("trace.wall_s".into(), self.wall_s / rounds, "s"));
        out.push((
            "trace.unattributed_s".into(),
            (self.wall_s - top) / rounds,
            "s",
        ));
        out.push((
            "trace.spans".into(),
            self.spans.len() as f64 / rounds,
            "count",
        ));
        out.push(("trace.rounds".into(), self.windows as f64, "count"));
        out
    }
}

fn secs(s: &Span) -> f64 {
    s.end.duration_since(s.start).as_secs_f64()
}

/// Host seconds one span costs to record, measured on empty spans.
pub fn span_cost_s() -> f64 {
    const N: usize = 2000;
    let mut t = Tracer::new(true, None);
    let start = Instant::now();
    for _ in 0..N {
        t.span("calibration", "", || ());
    }
    start.elapsed().as_secs_f64() / N as f64
}
