//! `mogpu` — command-line background subtraction on the simulated GPU.
//!
//! ```text
//! mogpu info                      # print the simulated hardware
//! mogpu demo --out demo_out       # synthetic scene -> masks (PGM + Y4M)
//! mogpu ladder --frames 24        # climb optimization levels A..F, W(8)
//! mogpu run -i in.y4m -o out.y4m  # subtract a real Y4M capture
//! ```
//!
//! Each subcommand declares its flags in [`command`]; [`Opts::parse`]
//! checks every value's type and range and rejects unknown, repeated and
//! valueless flags before any work or output starts.

use mogpu::core::{AdaptiveGpuMog, DeviceReal, PipelineError};
use mogpu::frame::{save_pgm, write_y4m};
use mogpu::json::Value;
use mogpu::prelude::*;
use mogpu::serve::MetricsServer;
use mogpu::sim::serving::{ServingEvent, SloConfig};
use mogpu::sim::DataflowGraph;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (name, rest) = match args {
        [] => ("help".to_string(), args),
        [bench, sub, rest @ ..] if bench == "bench" => (format!("bench {sub}"), rest),
        [first, rest @ ..] => (first.clone(), rest),
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let (flags, run) = command(&name).ok_or_else(|| {
        if name == "bench" || name.starts_with("bench ") {
            "usage: mogpu bench record|check (see `mogpu help`)".to_string()
        } else {
            format!("unknown command {name:?}; try `mogpu help`")
        }
    })?;
    let files = if name == "diff" { 2 } else { 0 };
    run(&Opts::parse(&name, flags, files, rest)?)
}

const HELP: &str = "mogpu — GPU-optimized MoG background subtraction (ICPP'14 reproduction)

COMMANDS:
    info      Print the simulated GPU/CPU hardware configuration
    demo      Render a synthetic scene and write input/mask clips
    ladder    Climb optimization levels A..F, W(8) and print a table
    run       Background-subtract a Y4M clip (or a synthetic scene)
    profile   Hotspot table, roofline bounds, bottleneck classification
    advise    Ranked optimization advisories from stall/roofline analysis
    diff      Differential profiling: attribute the delta between two runs
    dataflow  Cross-kernel memory-flow graph: who produces what, who reads it
    streams   Serve N camera streams from one device, CUDA-streams style
    fleet     Shard N streams across M heterogeneous simulated devices
    serve     Replay a serving report on a Prometheus scrape endpoint
    check     Sanitizer sweep over every shipped kernel
    metrics   Emit time-resolved telemetry in Prometheus text format
    bench     Record / check the performance-regression baseline
    help      Show this help

USAGE:
    mogpu info
        Print the simulated GPU/CPU hardware configuration.

    mogpu demo [--out DIR] [--frames N] [--level L]
        Render a synthetic surveillance scene, subtract its background,
        and write input/mask PGM snapshots plus Y4M clips into DIR
        (default: mogpu_demo). L is one of A B C D E F W8 (default F).

    mogpu ladder [--frames N] [--k K] [--float] [--json]
        Climb the paper's optimization ladder on a synthetic scene and
        print per-level performance (default: 24 frames, K=3, double).
        --json prints the per-level profile reports as a JSON array.

    mogpu run [--input IN.y4m] [--output OUT.y4m] [--level L] [--k K]
              [--frames N] [--float]
        Background-subtract a YUV4MPEG2 clip; writes the mask sequence
        as Y4M when --output is given, else prints per-frame stats.
        Without --input, runs on a synthetic scene of N frames
        (default 16) — handy for exercising the observability outputs.

    mogpu profile [--level L] [--frames N] [--k K] [--float] [--top N]
                  [--input IN.y4m]
        Run with the source-attributed profiler on and print the hotspot
        table, roofline bounds, and bottleneck classification (default:
        level F on a synthetic QQVGA scene, top 10 hotspots).

    mogpu advise [--level L] [--frames N] [--k K] [--float] [--tpb T]
                 [--top N] [--json]
        Analyze a profiled run with the guided-analysis advisor: decompose
        the modelled kernel time into warp stall reasons, place the kernel
        on the roofline, and print ranked advisories (finding, file:line
        evidence, recommended transform, modelled benefit). At each ladder
        level the top advisory names the paper's next optimization. --tpb
        overrides the launch block size; an unlaunchable configuration is
        reported as a structured diagnostic and exits nonzero (findings
        alone never do). Default: level A, 16 frames, K=3, double.
        With --fleet-report FILE.json (a `mogpu fleet --report-out` or
        --json document), instead replays the fleet dispatcher with one
        extra device of each class and prints which device class to add
        next, ranked by the whole-run streams-at-SLO it would buy.

    mogpu diff A.json B.json [--json] [--top N] [--out FILE.json]
               [--dot-out FILE.dot] [--metrics-out FILE.prom] [--config P]
        Differential profiling: diff two serialized reports of the same
        kind — profile reports (`--report-out`, single or ladder array),
        streams/serving reports, fleet reports, bench baselines, or
        dataflow graph JSON — and attribute the movement. For profile
        reports the kernel-time delta is decomposed through the stall
        reason buckets (the bucket deltas sum to the kernel delta
        exactly), per-site deltas carry file:line evidence, and each
        counter set is priced by a counterfactual re-run of the timing
        model (swap one counter at a time, the advisor's machinery).
        Histogram-carrying reports diff per bucket plus p50/p95/p99
        shifts; dataflow graphs get a what-changed overlay (--dot-out
        writes Graphviz DOT with grown edges red, shrunk green). --json
        prints the canonical byte-stable DiffReport, --out writes it,
        --metrics-out writes mogpu_diff_* Prometheus gauges, --top
        bounds the text tables (default 10), --config picks the device
        preset used for counterfactual re-timing (default c2075).

    mogpu dataflow [--level L] [--frames N] [--k K] [--float] [--json]
                   [--dot-out FILE.dot] [--metrics-out FILE.prom]
        Trace every global-memory access of a profiled synthetic run
        (MoG update followed by the morphology open) and stitch the
        per-launch read/write sets into a producer->consumer dataflow
        graph: nodes are launches, edges carry the bytes stored by one
        launch and loaded by the next, and every node accounts for its
        stores exactly (consumed + dead + live-at-exit). Prints
        Graphviz DOT to stdout by default; --json emits the canonical
        JSON document (byte-stable across runs), --dot-out/--metrics-out
        write the DOT and Prometheus counter forms to files. The same
        graph feeds `mogpu advise`, where the fat MoG->morphology edge
        surfaces as a kernel-fusion advisory once the per-kernel ladder
        is exhausted. Default: level F, 16 frames, K=3, double.

    mogpu streams [--streams N] [--frames M] [--level L] [--k K] [--float]
                  [--buffers B] [--fps R] [--json] [--slo-ms D]
                  [--error-budget E] [--window-ms W] [--events-out FILE.jsonl]
                  [--serve-metrics HOST:PORT] [--serve-seconds S]
                  [--replay-ms R]
        Serve N independent synthetic camera streams (distinct scenes)
        from one simulated device, CUDA-streams style: per-stream model
        state, shared compute/copy engines, B in-flight buffers per
        stream (default 2 = double buffering). --fps R paces each stream
        at R frames/s arrival (a live camera; default: offline, frames
        available up front). Prints per-stream latency (mean and exact
        p50/p95/p99 percentiles) and aggregate throughput; --json emits
        the same machine-readably, including the full serving report.
        Serving observability: every frame's end-to-end latency is
        judged against an SLO of D ms (default 40) with error budget E
        (default 0.01); the run is cut into schedule-clock windows of W
        ms (default: makespan/8) with cumulative counters monotone
        across windows. --events-out writes the JSONL event log
        (frame_admitted / launch / frame_completed / slo_violation with
        device+stream+site attribution). --serve-metrics binds a
        dependency-free HTTP endpoint and replays the window snapshots
        on /metrics (one window per --replay-ms of wall time, default
        500), for --serve-seconds S (default 0 = until interrupted).

    mogpu fleet [--devices LIST] [--streams N] [--frames M] [--level L]
                [--k K] [--float] [--buffers B] [--fps R] [--json]
                [--slo-ms D] [--error-budget E] [--window-ms W]
                [--headroom H] [--device-mem-mb MB] [--report-out FILE.json]
                [--events-out FILE.jsonl] [--serve-metrics HOST:PORT]
                [--serve-seconds S] [--replay-ms R]
        Shard N synthetic camera streams across a fleet of heterogeneous
        simulated devices. --devices is a comma-separated list of preset
        keys (c2075, c2075-l2, k20, embedded, hbm; repeat a key for more
        instances of that class; default c2075,embedded,hbm). Streams
        are priced per class (one-frame probes) and placed greedily by
        modelled load under per-device memory budgets; streams no device
        can admit are *shed* — every frame becomes an attributed
        frame_dropped event instead of an out-of-memory error.
        --device-mem-mb overrides every device's memory budget (the
        oversubscription lever), --headroom the load admission ceiling
        (default 1.0). Prints per-device load/memory/SLO attainment,
        shed streams, and the which-device-to-add-next advisory; --json
        emits the full fleet report machine-readably. --events-out
        writes the merged JSONL event log (all devices + drops).
        --serve-metrics replays the fleet on a Prometheus endpoint with
        per-device label cardinality and monotone drop counters.

    mogpu serve --report FILE.json [--addr HOST:PORT] [--serve-seconds S]
                [--replay-ms R]
        Replay a previously recorded serving report (`mogpu streams
        --report-out FILE.json`, or a bare serving report) on a
        Prometheus scrape endpoint at HOST:PORT (default
        127.0.0.1:9184), advancing one window snapshot per --replay-ms
        of wall time so scrapes see the counters grow monotonically.

    mogpu check [--frames N] [--k K] [--float] [--json]
        Run every shipped kernel (levels A..F, W8, adaptive, morph) under
        the sanitizer (memcheck / racecheck / synccheck / initcheck) on a
        synthetic scene and report findings with file:line attribution.
        Exits nonzero on any finding; --json emits machine-readable
        per-target reports (default: 8 frames, K=3, double).

    mogpu metrics [--level L] [--frames N] [--k K] [--float] [--out FILE]
        Run a profiled synthetic workload and emit its time-resolved
        telemetry (per-SM occupancy/IPC/warps, DRAM bandwidth, L2 hit
        rate, copy-engine utilization) in Prometheus text exposition
        format, to stdout or to --out FILE.prom.

    mogpu bench record [--out FILE.json] [--frames N] [--k K] [--streams S]
        Measure the ladder (A..F, W8) and a multi-stream run over the
        standard deterministic workload and write a tolerance-annotated
        performance baseline (default: results/baselines/default.json)
        plus slim per-level profile reports under reports/ next to it —
        the stored side of the drift attribution `bench check` emits.

    mogpu bench check [--baseline FILE.json] [--json] [--diff-out FILE]
        Re-measure with the baseline's recorded workload shape and diff
        against it metric by metric. Prints a table (or JSON with
        --json) and exits nonzero if any metric drifts beyond its
        tolerance — regressions and unexplained improvements both fail.
        On failure the drift is attributed through `mogpu diff`: stored
        per-level reports vs fresh profiles, stall-bucket and counter
        deltas with file:line evidence on stderr, and the canonical
        DiffReport JSON written to --diff-out (default: diff.json next
        to the baseline) for CI artifact capture.

    Observability (demo / ladder / run / profile / streams):
        --report-out FILE.json   machine-readable profile report(s),
                                 embedded time-resolved telemetry included
        --trace-out FILE.json    Chrome trace of the DMA/kernel timeline
                                 plus telemetry counter tracks (streams:
                                 one track triple per stream; load in
                                 chrome://tracing or Perfetto)
        --metrics-out FILE.prom  telemetry in Prometheus text format
                                 (ladder: all levels in one exposition)";

type Handler = fn(&Opts) -> Result<(), String>;

/// A subcommand's flag table, composed from the shared groups, and its
/// handler.
fn command(name: &str) -> Option<(Vec<Flag>, Handler)> {
    let cat = |groups: &[&[Flag]]| groups.concat();
    let baseline = mogpu::bench::baseline::DEFAULT_BASELINE_PATH;
    let streams = count("--streams", 1).or("4");
    let command: (Vec<Flag>, Handler) = match name {
        "info" => (vec![], |_| cmd_info()),
        "demo" => {
            let own = [
                text("--out").or("mogpu_demo"),
                LEVEL.or("F"),
                FRAMES.or("40"),
            ];
            (cat(&[&own, &OBS]), cmd_demo)
        }
        "ladder" => (
            cat(&[&[FRAMES.or("24"), K.or("3"), FLOAT, JSON], &OBS]),
            cmd_ladder,
        ),
        "run" => {
            let own = [text("--input"), text("--output")];
            (cat(&[&workload("16", "F"), &own, &OBS]), cmd_run)
        }
        "profile" => {
            let own = [TOP, text("--input")];
            (cat(&[&workload("16", "F"), &own, &OBS]), cmd_profile)
        }
        "advise" => {
            let own = [TPB, TOP, JSON, text("--fleet-report")];
            (cat(&[&workload("16", "A"), &own]), cmd_advise)
        }
        "diff" => {
            let own = [JSON, TOP, text("--out"), text("--dot-out")];
            let more = [text("--metrics-out"), text("--config").or("c2075")];
            (cat(&[&own, &more]), cmd_diff)
        }
        "dataflow" => {
            let own = [JSON, text("--dot-out"), text("--metrics-out")];
            (cat(&[&workload("16", "F"), &own]), cmd_dataflow)
        }
        "streams" => {
            let own = [streams, JSON];
            (
                cat(&[&workload("16", "F"), &own, &SERVING, &OBS, &SERVE]),
                cmd_streams,
            )
        }
        "fleet" => {
            let own = [
                text("--devices").or("c2075,embedded,hbm"),
                streams,
                JSON,
                real("--headroom", |x| x > 0.0, "> 0").or("1"),
                real("--device-mem-mb", |x| x >= 0.0, ">= 0"),
                text("--report-out"),
            ];
            (
                cat(&[&workload("12", "F"), &own, &SERVING, &SERVE]),
                cmd_fleet,
            )
        }
        "serve" => {
            let own = [text("--report"), text("--addr").or("127.0.0.1:9184")];
            (cat(&[&own, &SERVE[1..]]), cmd_serve)
        }
        "check" => (vec![FRAMES.or("8"), K.or("3"), FLOAT, JSON], cmd_check),
        "metrics" => (cat(&[&workload("16", "F"), &[text("--out")]]), cmd_metrics),
        "bench record" => {
            // Absent flags keep the `BenchConfig` defaults.
            let own = [FRAMES, K, count("--streams", 1)];
            (
                cat(&[&[text("--out").or(baseline)], &own]),
                cmd_bench_record,
            )
        }
        "bench check" => {
            let own = [text("--baseline").or(baseline), JSON, text("--diff-out")];
            (own.to_vec(), cmd_bench_check)
        }
        _ => return None,
    };
    Some(command)
}

/// One declared flag: its name, what its value must be, and the value
/// it takes when absent.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
}

#[derive(Clone, Copy)]
enum Kind {
    /// A bare switch: no value.
    Switch,
    /// A non-empty string: a path, an address or a list.
    Text,
    /// An integer in `min..=max`.
    Count(usize, usize),
    /// A MoG component count, as [`MogParams::validate`] bounds it.
    Components,
    /// A finite real the predicate admits, described by the text.
    Real(fn(f64) -> bool, &'static str),
    /// An optimization level: A..F or W<group>.
    Level,
}

const fn flag(name: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        kind,
        default: None,
    }
}

const fn text(name: &'static str) -> Flag {
    flag(name, Kind::Text)
}

const fn count(name: &'static str, min: usize) -> Flag {
    flag(name, Kind::Count(min, usize::MAX))
}

const fn real(name: &'static str, admits: fn(f64) -> bool, want: &'static str) -> Flag {
    flag(name, Kind::Real(admits, want))
}

/// Frame 0 seeds the model, so a run needs at least two frames.
const FRAMES: Flag = count("--frames", 2);
const LEVEL: Flag = flag("--level", Kind::Level);
const K: Flag = flag("--k", Kind::Components);
const FLOAT: Flag = flag("--float", Kind::Switch);
const JSON: Flag = flag("--json", Kind::Switch);
const TOP: Flag = count("--top", 1).or("10");
const TPB: Flag = flag("--tpb", Kind::Count(1, u32::MAX as usize));

/// The workload group: `--level --frames --k --float`.
const fn workload(frames: &'static str, level: &'static str) -> [Flag; 4] {
    [LEVEL.or(level), FRAMES.or(frames), K.or("3"), FLOAT]
}

/// The profile-artifact group of demo / ladder / run / profile / streams.
const OBS: [Flag; 3] = [
    text("--report-out"),
    text("--trace-out"),
    text("--metrics-out"),
];

/// The serving group of streams / fleet.
const SERVING: [Flag; 6] = [
    count("--buffers", 1).or("2"),
    real("--fps", |x| x >= 0.0, ">= 0").or("0"),
    real("--slo-ms", |x| x > 0.0, "> 0").or("40"),
    real("--error-budget", |x| (0.0..=1.0).contains(&x), "in [0, 1]").or("0.01"),
    real("--window-ms", |x| x >= 0.0, ">= 0").or("0"),
    text("--events-out"),
];

/// The scrape-endpoint group of streams / fleet (`serve` binds `--addr`
/// instead of `--serve-metrics`).
const SERVE: [Flag; 3] = [
    text("--serve-metrics"),
    real("--serve-seconds", |x| x >= 0.0, ">= 0").or("0"),
    real("--replay-ms", |x| x > 0.0, "> 0").or("500"),
];

impl Flag {
    /// The flag with `default` as its value when absent.
    const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    /// Checks `raw` against the flag's type and range.
    fn check(&self, raw: &str) -> Result<(), String> {
        let name = self.name;
        let fail = |want: &str| Err(format!("{name} must be {want}, got {raw:?}"));
        match self.kind {
            Kind::Switch => Ok(()),
            Kind::Text if raw.is_empty() => fail("non-empty"),
            Kind::Text => Ok(()),
            Kind::Count(min, max) => match raw.parse::<usize>() {
                Ok(n) if (min..=max).contains(&n) => Ok(()),
                _ if max == usize::MAX => fail(&format!("an integer >= {min}")),
                _ => fail(&format!("an integer in {min}..={max}")),
            },
            Kind::Components => match raw.parse::<usize>() {
                Ok(k) => MogParams::new(k)
                    .validate()
                    .map_err(|e| format!("{name}: {e}")),
                Err(_) => fail("an integer"),
            },
            Kind::Real(admits, want) => match raw.parse::<f64>() {
                Ok(x) if x.is_finite() && admits(x) => Ok(()),
                _ => fail(&format!("a finite number {want}")),
            },
            Kind::Level => parse_level(raw)
                .map(drop)
                .map_err(|e| format!("{name}: {e}")),
        }
    }
}

/// A subcommand's checked command line.
struct Opts {
    cmd: String,
    flags: Vec<Flag>,
    /// The flags given, with their checked raw values (empty for
    /// switches).
    given: Vec<(&'static str, String)>,
    files: Vec<PathBuf>,
}

impl Opts {
    /// Parses `args` against `flags`: rejects unknown, repeated and
    /// valueless flags, out-of-range values and any count of file
    /// arguments other than `files`, naming the offending argument.
    fn parse(cmd: &str, flags: Vec<Flag>, files: usize, args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            cmd: cmd.to_string(),
            flags,
            given: Vec::new(),
            files: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                opts.files.push(PathBuf::from(arg));
                continue;
            }
            let name = match arg.as_str() {
                "-i" => "--input",
                "-o" => "--output",
                other => other,
            };
            let Some(flag) = opts.flags.iter().find(|f| f.name == name).copied() else {
                let accepted: Vec<&str> = opts.flags.iter().map(|f| f.name).collect();
                return Err(format!(
                    "unknown {cmd} option {arg:?} (accepted: {accepted:?}); try `mogpu help`"
                ));
            };
            if opts.has(flag.name) {
                return Err(format!("repeated {cmd} option {:?}", flag.name));
            }
            let value = match flag.kind {
                Kind::Switch => String::new(),
                _ => match args.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("{cmd} option {} needs a value", flag.name)),
                },
            };
            flag.check(&value)?;
            opts.given.push((flag.name, value));
        }
        if opts.files.len() != files {
            return Err(format!(
                "{cmd} takes {files} file argument(s), got {:?}; try `mogpu help`",
                opts.files
            ));
        }
        Ok(opts)
    }

    /// True when `name` was given on the command line.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// `name`'s value as given, else its declared default; `None` when
    /// neither exists.
    fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = match self.given.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => v.as_str(),
            None => self.flags.iter().find(|f| f.name == name)?.default?,
        };
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => unreachable!("{name} {raw:?} passed its check"),
        }
    }

    /// `name`'s value; the table declares a default for it.
    fn req<T: FromStr>(&self, name: &str) -> T {
        match self.get(name) {
            Some(v) => v,
            None => unreachable!("{} declares no default for {name}", self.cmd),
        }
    }

    fn level(&self) -> OptLevel {
        parse_level(&self.req::<String>("--level")).expect("--level passed its check")
    }

    /// Rejects any of `flags` given alongside a mode that does not use
    /// them.
    fn unused(&self, flags: &[&str], mode: &str) -> Result<(), String> {
        match flags.iter().find(|f| self.has(f)) {
            Some(f) => Err(format!("{} option {f} is not used {mode}", self.cmd)),
            None => Ok(()),
        }
    }
}

fn parse_level(s: &str) -> Result<OptLevel, String> {
    match s.to_ascii_uppercase().as_str() {
        "A" => Ok(OptLevel::A),
        "B" => Ok(OptLevel::B),
        "C" => Ok(OptLevel::C),
        "D" => Ok(OptLevel::D),
        "E" => Ok(OptLevel::E),
        "F" => Ok(OptLevel::F),
        w if w.starts_with('W') => {
            let digits = w[1..].trim_start_matches('(').trim_end_matches(')');
            let group: usize = if digits.is_empty() {
                8 // bare "W" means the paper's default group size
            } else {
                match digits.parse() {
                    Ok(g) if g >= 1 => g,
                    _ => return Err(format!("bad windowed level {s:?}; use e.g. W8")),
                }
            };
            Ok(OptLevel::Windowed { group })
        }
        _ => Err(format!("unknown level {s:?} (A..F or W<group>)")),
    }
}

/// One synthetic run: level, frame count, component count and precision
/// from the flags; the scene's resolution, seed and walkers fixed per
/// subcommand.
#[derive(Clone, Copy)]
struct Workload {
    level: OptLevel,
    frames: usize,
    k: usize,
    float: bool,
    res: Resolution,
    seed: u64,
    walkers: usize,
}

impl Workload {
    /// The run `--frames --k --float` describe at `level`, on the scene
    /// every synthetic subcommand but `demo` renders.
    fn new(opts: &Opts, level: OptLevel) -> Workload {
        Workload {
            level,
            frames: opts.req("--frames"),
            k: opts.req("--k"),
            float: opts.has("--float"),
            res: Resolution::QQVGA,
            seed: 7,
            walkers: 3,
        }
    }

    fn precision(&self) -> &'static str {
        if self.float {
            "float"
        } else {
            "double"
        }
    }

    fn scene(&self) -> Scene {
        SceneBuilder::new(self.res)
            .seed(self.seed)
            .walkers(self.walkers)
            .build()
    }

    /// The scene's frame sequence; frame 0 seeds the model.
    fn render(&self) -> Vec<Frame<u8>> {
        self.scene().render_sequence(self.frames).0.into_frames()
    }

    /// One distinct scene per camera, for the multi-stream subcommands.
    fn cameras(&self, n: usize) -> Vec<Vec<Frame<u8>>> {
        (0..n)
            .map(|s| {
                let seed = 100 + s as u64;
                Workload {
                    seed,
                    walkers: 2 + s % 3,
                    ..*self
                }
                .render()
            })
            .collect()
    }

    /// Runs `job` at the device precision `--float` selects: the one
    /// place the CLI picks between `f32` and `f64`.
    fn try_run<J: Job>(&self, job: J) -> Result<J::Out, PipelineError> {
        if self.float {
            job.run::<f32>(self)
        } else {
            job.run::<f64>(self)
        }
    }

    fn run<J: Job>(&self, job: J) -> Result<J::Out, String> {
        self.try_run(job).map_err(|e| e.to_string())
    }
}

/// A pipeline run written once for both device precisions.
trait Job {
    type Out;
    fn run<T: DeviceReal>(self, w: &Workload) -> Result<Self::Out, PipelineError>;
}

/// What a [`Single`] run records besides its masks and counters.
#[derive(Clone, Copy, Default)]
struct Instruments {
    profile: bool,
    dataflow: bool,
    morphology: bool,
    sanitize: bool,
    tpb: Option<u32>,
}

/// The profiler plus the dataflow graph that draws the Chrome-trace flow
/// arrows (recording is transparent: bit-identical masks and counters).
fn profiled(on: bool) -> Instruments {
    Instruments {
        profile: on,
        dataflow: on,
        ..Instruments::default()
    }
}

/// One `GpuMog` over the frames (frame 0 seeds the model).
struct Single<'a>(&'a [Frame<u8>], Instruments);

/// A [`Single`] run's report and what its instruments recorded.
struct Outcome {
    run: RunReport,
    profile: Option<ProfileReport>,
    graph: Option<DataflowGraph>,
    san: Option<mogpu::sim::SanReport>,
}

impl Job for Single<'_> {
    type Out = Outcome;

    fn run<T: DeviceReal>(self, w: &Workload) -> Result<Outcome, PipelineError> {
        let Single(frames, on) = self;
        let mut gpu = GpuMog::<T>::new(
            frames[0].resolution(),
            MogParams::new(w.k),
            w.level,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )?;
        if let Some(tpb) = on.tpb {
            gpu.set_threads_per_block(tpb);
        }
        if on.profile {
            gpu.set_profile_mode(ProfileMode::On);
        }
        gpu.set_sanitize(on.sanitize);
        if on.dataflow {
            gpu.enable_dataflow();
        }
        if on.morphology {
            // Morphology gives the MoG kernel a downstream consumer, as in
            // the paper's full pipeline; per-kernel metrics are unaffected.
            gpu.enable_morphology()?;
        }
        let run = gpu.process_all(&frames[1..])?;
        Ok(Outcome {
            run,
            graph: gpu.dataflow_graph(),
            profile: gpu.take_profile_report(),
            san: gpu.take_san_report(),
        })
    }
}

/// The adaptive-K pipeline over the frames, under the sanitizer.
struct AdaptiveSanitized<'a>(&'a [Frame<u8>]);

impl Job for AdaptiveSanitized<'_> {
    type Out = mogpu::sim::SanReport;

    fn run<T: DeviceReal>(self, w: &Workload) -> Result<Self::Out, PipelineError> {
        let frames = self.0;
        let mut gpu = AdaptiveGpuMog::<T>::new(
            frames[0].resolution(),
            MogParams::new(w.k),
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )?;
        gpu.set_sanitize(true);
        gpu.process_all(&frames[1..])?;
        Ok(gpu.take_san_report().expect("sanitize was on"))
    }
}

/// Per-camera model seeds (frame 0) and the frames each camera serves.
fn split_cameras(cameras: &[Vec<Frame<u8>>]) -> (Vec<&[u8]>, Vec<Vec<Frame<u8>>>) {
    let seeds = cameras.iter().map(|f| f[0].as_slice()).collect();
    (seeds, cameras.iter().map(|f| f[1..].to_vec()).collect())
}

/// N camera streams sharing one simulated device.
struct Streams<'a>(&'a [Vec<Frame<u8>>], &'a Serving);

impl Job for Streams<'_> {
    type Out = MultiStreamReport;

    fn run<T: DeviceReal>(self, w: &Workload) -> Result<Self::Out, PipelineError> {
        let Streams(cameras, serving) = self;
        let (seeds, frames) = split_cameras(cameras);
        let mut multi = MultiGpuMog::<T>::new(
            cameras[0][0].resolution(),
            MogParams::new(w.k),
            w.level,
            &seeds,
            GpuConfig::tesla_c2075(),
        )?
        .with_buffers(serving.buffers)
        .with_slo(serving.slo)
        .with_window(serving.window_s);
        if serving.fps > 0.0 {
            multi = multi.with_arrival_period(1.0 / serving.fps);
        }
        multi.process_all(&frames)
    }
}

/// N camera streams sharded across a heterogeneous fleet.
struct Fleet<'a> {
    cameras: &'a [Vec<Frame<u8>>],
    serving: &'a Serving,
    devices: &'a [&'a str],
    headroom: f64,
    device_mem: Option<usize>,
}

impl Job for Fleet<'_> {
    type Out = FleetRunReport;

    fn run<T: DeviceReal>(self, w: &Workload) -> Result<Self::Out, PipelineError> {
        let (seeds, frames) = split_cameras(self.cameras);
        let mut fleet = FleetPipeline::<T>::new(
            self.cameras[0][0].resolution(),
            MogParams::new(w.k),
            w.level,
            &seeds,
            self.devices,
        )?
        .with_buffers(self.serving.buffers)
        .with_slo(self.serving.slo)
        .with_window(self.serving.window_s)
        .with_headroom(self.headroom);
        if self.serving.fps > 0.0 {
            fleet = fleet.with_arrival_period(1.0 / self.serving.fps);
        }
        if let Some(bytes) = self.device_mem {
            fleet = fleet.with_device_mem(bytes);
        }
        fleet.process_all(&frames)
    }
}

/// Levels A..F and W(8): the paper's ladder, as `ladder` and `check`
/// sweep it.
fn sweep() -> impl Iterator<Item = OptLevel> {
    OptLevel::LADDER
        .into_iter()
        .chain([OptLevel::Windowed { group: 8 }])
}

fn pretty<T: serde::Serialize>(value: &T) -> Result<String, String> {
    mogpu::json::to_string_pretty(value).map_err(|e| e.to_string())
}

fn canonical<T: serde::Serialize>(value: &T) -> Result<String, String> {
    mogpu::json::to_string_canonical_pretty(value).map_err(|e| e.to_string())
}

fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `frames`, all at `res`, to `path` as a 30 fps Y4M clip.
fn write_clip(path: &Path, res: Resolution, frames: &[Frame<u8>]) -> Result<(), String> {
    let named = |e: String| format!("{}: {e}", path.display());
    let mut seq = FrameSequence::new(res);
    for f in frames {
        seq.push(f.clone()).map_err(|e| named(e.to_string()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| named(e.to_string()))?;
    write_y4m(&seq, 30, file).map_err(|e| named(e.to_string()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    mogpu::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a `what` report from `path`: the `key` member of the document a
/// subcommand wrote, or a bare report.
fn read_report<T: serde::Deserialize>(path: &Path, key: &str, what: &str) -> Result<T, String> {
    let doc = read_json(path)?;
    let value = doc.get(key).unwrap_or(&doc);
    T::from_json_value(value).map_err(|e| format!("{}: not a {what} report: {e}", path.display()))
}

fn cmd_info() -> Result<(), String> {
    let gpu = GpuConfig::tesla_c2075();
    let cpu = CpuConfig::xeon_e5_2620();
    println!("simulated GPU : {}", gpu.name);
    println!("  SMs x cores : {} x {}", gpu.num_sms, gpu.cores_per_sm);
    println!("  clock       : {:.2} GHz", gpu.clock_hz / 1e9);
    println!("  peak f32    : {:.2} TFLOPS", gpu.peak_f32_flops() / 1e12);
    println!("  DRAM        : {:.0} GB/s GDDR5", gpu.dram_peak_bw / 1e9);
    println!("  shared/SM   : {} KB", gpu.shared_mem_per_sm / 1024);
    println!("modelled CPU  : {}", cpu.name);
    println!(
        "  cores       : {} @ {:.1} GHz",
        cpu.cores,
        cpu.clock_hz / 1e9
    );
    println!("  DRAM        : {:.1} GB/s DDR3", cpu.dram_bw / 1e9);
    println!(
        "device presets (mogpu fleet --devices): {}",
        GpuConfig::preset_names().join(", ")
    );
    Ok(())
}

fn cmd_demo(opts: &Opts) -> Result<(), String> {
    let out_dir: PathBuf = opts.req("--out");
    let w = Workload {
        level: opts.level(),
        frames: opts.req("--frames"),
        k: MogParams::default().k,
        float: false,
        res: Resolution::QVGA,
        seed: 2014,
        walkers: 4,
    };

    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let res = w.res;
    let frames = w.render();
    let instruments = Instruments {
        profile: profiles_wanted(opts),
        ..Instruments::default()
    };
    let out = w.run(Single(&frames, instruments))?;
    if let Some(profile) = out.profile {
        write_profiles(opts, &[profile], &[])?;
    }
    let report = out.run;

    // Snapshots of the last frame.
    let last = report.masks.len() - 1;
    save_pgm(&frames[last + 1], out_dir.join("input_last.pgm")).map_err(|e| e.to_string())?;
    save_pgm(&report.masks[last], out_dir.join("mask_last.pgm")).map_err(|e| e.to_string())?;
    write_clip(&out_dir.join("input.y4m"), res, &frames)?;
    write_clip(&out_dir.join("masks.y4m"), res, &report.masks)?;

    println!(
        "level {} on {res}, {} frames:",
        w.level.name(),
        report.frames
    );
    println!(
        "  kernel      : {:.3} ms/frame (modelled)",
        1e3 * report.kernel_time_per_frame()
    );
    println!(
        "  end-to-end  : {:.3} ms/frame",
        1e3 * report.gpu_time_per_frame()
    );
    println!("  occupancy   : {:.1}%", 100.0 * report.occupancy.occupancy);
    println!(
        "  branch eff  : {:.1}%",
        100.0 * report.metrics.branch_efficiency
    );
    println!(
        "  memory eff  : {:.1}%",
        100.0 * report.metrics.mem_access_efficiency
    );
    println!(
        "wrote {}/{{input,masks}}.y4m and *_last.pgm",
        out_dir.display()
    );
    Ok(())
}

fn cmd_ladder(opts: &Opts) -> Result<(), String> {
    let json = opts.has("--json");
    let instruments = profiled(json || profiles_wanted(opts));
    // The level is set per rung below.
    let w = Workload::new(opts, OptLevel::A);
    let frames = w.render();
    if !json {
        println!(
            "optimization ladder — {}, {} frames, K={}, {}",
            w.res,
            w.frames - 1,
            w.k,
            w.precision()
        );
        println!("level     kern ms     e2e ms     occup    memEff  bottleneck");
    }
    let mut profiles: Vec<ProfileReport> = Vec::new();
    let mut graphs: Vec<Option<DataflowGraph>> = Vec::new();
    for level in sweep() {
        let out = Workload { level, ..w }.run(Single(&frames, instruments))?;
        let report = out.run;
        let bottleneck = match &out.profile {
            Some(p) => p.bottleneck.to_string(),
            None => String::new(),
        };
        if !json {
            println!(
                "{:<6} {:>10.4} {:>10.4} {:>8.1}% {:>8.1}%  {}",
                level.name(),
                1e3 * report.kernel_time_per_frame(),
                1e3 * report.gpu_time_per_frame(),
                100.0 * report.occupancy.occupancy,
                100.0 * report.metrics.mem_access_efficiency,
                bottleneck,
            );
        }
        if let Some(profile) = out.profile {
            profiles.push(profile);
            graphs.push(out.graph);
        }
    }
    if json {
        println!("{}", pretty(&profiles)?);
    }
    write_profiles(opts, &profiles, &graphs)
}

/// True when any profile artifact (so profiling) is requested.
fn profiles_wanted(opts: &Opts) -> bool {
    OBS.iter().any(|f| opts.has(f.name))
}

/// Writes the requested profile artifacts of demo / ladder / run /
/// profile; a report's dataflow graph, when recorded, draws its
/// cross-launch edges as Chrome-trace flow arrows.
fn write_profiles(
    opts: &Opts,
    reports: &[ProfileReport],
    graphs: &[Option<DataflowGraph>],
) -> Result<(), String> {
    if let Some(path) = opts.get::<PathBuf>("--report-out") {
        let json = if reports.len() == 1 {
            pretty(&reports[0])?
        } else {
            pretty(&reports.to_vec())?
        };
        write_file(&path, json)?;
        println!("wrote profile report to {}", path.display());
    }
    if let Some(path) = opts.get::<PathBuf>("--trace-out") {
        let mut builder = mogpu::sim::chrome_trace::TraceBuilder::new();
        for (i, report) in reports.iter().enumerate() {
            let pid = builder.add_pipeline(&format!("level {}", report.level), &report.schedule);
            builder.add_counters(pid, &report.telemetry);
            builder.add_stall_counters(pid, &report.telemetry, &report.stalls);
            if let Some(Some(graph)) = graphs.get(i) {
                builder.add_dataflow_flows(pid, &report.schedule, graph);
            }
        }
        write_trace(&path, builder)?;
    }
    if let Some(path) = opts.get::<PathBuf>("--metrics-out") {
        write_file(&path, exposition(reports))?;
        println!("wrote Prometheus metrics to {}", path.display());
    }
    Ok(())
}

fn write_trace(path: &Path, builder: mogpu::sim::chrome_trace::TraceBuilder) -> Result<(), String> {
    write_file(path, pretty(&builder.finish())?)?;
    println!(
        "wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
        path.display()
    );
    Ok(())
}

/// Telemetry plus per-kernel gauges of profiled runs, one pipeline per
/// report, in Prometheus text format.
fn exposition(reports: &[ProfileReport]) -> String {
    let pipelines: Vec<(
        String,
        &mogpu::sim::PipelineTelemetry,
        Option<mogpu::sim::KernelGauges>,
    )> = reports
        .iter()
        .map(|r| {
            (
                format!("level {}", r.level),
                &r.telemetry,
                Some(mogpu::sim::KernelGauges::new(&r.metrics, &r.occupancy)),
            )
        })
        .collect();
    mogpu::sim::telemetry::prometheus(&pipelines)
}

/// The `--input` Y4M clip of `run` / `profile`, if given (`--frames` then
/// has no use).
fn read_input(opts: &Opts) -> Result<Option<Vec<Frame<u8>>>, String> {
    let Some(input) = opts.get::<String>("--input") else {
        return Ok(None);
    };
    opts.unused(&["--frames"], "with --input")?;
    let file = std::fs::File::open(&input).map_err(|e| format!("{input}: {e}"))?;
    let seq = mogpu::frame::read_y4m(file).map_err(|e| format!("{input}: {e}"))?;
    if seq.len() < 2 {
        return Err(format!(
            "{input}: need at least 2 frames (the first seeds the model)"
        ));
    }
    println!("{input}: {} frames at {}", seq.len(), seq.resolution());
    Ok(Some(seq.into_frames()))
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let w = Workload::new(opts, opts.level());
    let output = opts.get::<String>("--output");

    let frames = match read_input(opts)? {
        Some(frames) => frames,
        None => {
            // No capture given: fall back to the synthetic surveillance
            // scene so observability outputs can be exercised standalone.
            println!(
                "no --input given: synthetic scene, {} frames at {}",
                w.frames, w.res
            );
            w.render()
        }
    };
    let res = frames[0].resolution();

    let out = w.run(Single(&frames, profiled(profiles_wanted(opts))))?;
    if let Some(profile) = out.profile {
        write_profiles(opts, &[profile], &[out.graph])?;
    }
    let report = out.run;

    println!("level {} results:", w.level.name());
    println!(
        "  kernel     : {:.3} ms/frame (modelled Tesla C2075)",
        1e3 * report.kernel_time_per_frame()
    );
    println!(
        "  end-to-end : {:.3} ms/frame",
        1e3 * report.gpu_time_per_frame()
    );
    println!(
        "  foreground : {:.2}% of pixels (mean)",
        100.0 * report.masks.iter().map(|m| m.fraction_set()).sum::<f64>()
            / report.masks.len() as f64
    );

    if let Some(out) = output {
        write_clip(Path::new(&out), res, &report.masks)?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_profile(opts: &Opts) -> Result<(), String> {
    let w = Workload::new(opts, opts.level());
    let top: usize = opts.req("--top");

    let frames = match read_input(opts)? {
        Some(frames) => frames,
        None => w.render(),
    };
    let out = w.run(Single(&frames, profiled(true)))?;
    let profile = out.profile.expect("profiling was enabled");
    print!("{}", profile.text(top));
    write_profiles(opts, &[profile], &[out.graph])
}

fn cmd_advise(opts: &Opts) -> Result<(), String> {
    let json = opts.has("--json");
    if let Some(path) = opts.get::<PathBuf>("--fleet-report") {
        let workload = ["--level", "--frames", "--k", "--float", "--tpb", "--top"];
        opts.unused(&workload, "with --fleet-report")?;
        return cmd_advise_fleet(&path, json);
    }
    let w = Workload::new(opts, opts.level());
    let top: usize = opts.req("--top");
    let level = w.level;

    let frames = w.render();
    // The dataflow graph lets the advisor see producer->consumer byte
    // overlap (the kernel-fusion rule).
    let instruments = Instruments {
        morphology: true,
        tpb: opts.get("--tpb"),
        ..profiled(true)
    };
    let profile = match w.try_run(Single(&frames, instruments)) {
        Ok(out) => out.profile.expect("profiling was enabled"),
        Err(PipelineError::Launch(e)) => {
            // The kernel never became resident: emit the structured
            // diagnostic the rules engine defines for this case, then
            // exit nonzero (invalid input, not a finding).
            let advisory = mogpu::sim::advisor::unlaunchable_advisory(&e.to_string());
            if json {
                let doc = mogpu::json::json!({
                    "level": level.name(),
                    "launchable": false,
                    "error": e.to_string(),
                    "advisories": [advisory],
                });
                println!("{}", pretty(&doc)?);
            } else {
                println!("advisor — level {}: kernel is unlaunchable", level.name());
                print_advisory(1, &advisory);
            }
            return Err(format!("kernel launch rejected: {e}"));
        }
        Err(e) => return Err(e.to_string()),
    };

    if json {
        let advisories = &profile.advisories[..top.min(profile.advisories.len())];
        let doc = mogpu::json::json!({
            "level": level.name(),
            "launchable": true,
            "frames": profile.frames,
            "bottleneck": profile.bottleneck.to_string(),
            "kernel_time_s": profile.timing.total,
            "roofline": profile.roofline,
            "stalls": profile.stalls,
            "dma_starvation_s": profile.dma_starvation,
            "advisories": advisories,
        });
        println!("{}", pretty(&doc)?);
        return Ok(());
    }

    println!(
        "advisor — level {}, {} frames, K={}, {}",
        level.name(),
        profile.frames,
        w.k,
        w.precision()
    );
    println!("  bottleneck : {}", profile.bottleneck);
    let roof = &profile.roofline;
    println!(
        "  roofline   : {:.3} FLOP/B, {:.2} GFLOP/s of {:.2} GFLOP/s {} ceiling",
        roof.arithmetic_intensity,
        roof.achieved_flops / 1e9,
        roof.ceiling_flops / 1e9,
        if roof.compute_bound {
            "compute"
        } else {
            "memory"
        },
    );
    let (reason, secs) = profile.stalls.dominant();
    println!(
        "  stalls     : {reason} dominates at {:.3} ms of {:.3} ms kernel time",
        1e3 * secs,
        1e3 * profile.stalls.sum(),
    );
    if profile.dma_starvation > 0.0 {
        println!(
            "  starvation : compute engine idle {:.3} ms waiting on DMA",
            1e3 * profile.dma_starvation
        );
    }
    if profile.advisories.is_empty() {
        println!("no advisories: the profiled run is at the modelled optimum");
        return Ok(());
    }
    for (i, advisory) in profile.advisories.iter().take(top).enumerate() {
        print_advisory(i + 1, advisory);
    }
    Ok(())
}

/// `mogpu advise --fleet-report FILE.json`: replay the fleet dispatcher
/// from a recorded report and rank the device classes to add next.
fn cmd_advise_fleet(path: &Path, json: bool) -> Result<(), String> {
    // A `mogpu fleet --report-out` document or a bare fleet report.
    let report: mogpu::sim::fleet::FleetReport = read_report(path, "report", "fleet")?;
    let advisories = mogpu::sim::fleet::advise_fleet(&report);
    if json {
        let doc = mogpu::json::json!({
            "devices": report.devices.len(),
            "streams_total": report.streams_total(),
            "streams_admitted": report.streams_admitted(),
            "streams_at_slo": report.streams_at_slo(),
            "frames_dropped": report.frames_dropped(),
            "advisories": advisories,
        });
        println!("{}", pretty(&doc)?);
        return Ok(());
    }
    println!(
        "fleet advisor — {} device(s), {}/{} streams admitted, {} at SLO, {} frame(s) dropped",
        report.devices.len(),
        report.streams_admitted(),
        report.streams_total(),
        report.streams_at_slo(),
        report.frames_dropped(),
    );
    if advisories.is_empty() {
        println!("no device classes to evaluate");
        return Ok(());
    }
    for (i, a) in advisories.iter().enumerate() {
        print_fleet_advisory(i + 1, a);
    }
    Ok(())
}

fn print_advisory(rank: usize, a: &mogpu::sim::Advisory) {
    println!(
        "\n#{rank} {} -> {:?}: est. {:.3} ms saved ({:.2}x)",
        a.rule,
        a.transform,
        1e3 * a.estimated_benefit_s,
        a.estimated_speedup,
    );
    println!("   {}", a.finding);
    if !a.evidence.is_empty() {
        let ev: Vec<String> = a
            .evidence
            .iter()
            .map(|e| {
                if e.value.abs() >= 1000.0 && e.value.fract() == 0.0 {
                    format!("{}={:.0}", e.metric, e.value)
                } else {
                    format!("{}={:.4}", e.metric, e.value)
                }
            })
            .collect();
        println!("   evidence: {}", ev.join(", "));
    }
    for site in &a.sites {
        println!("   site: {site}");
    }
}

fn cmd_diff(opts: &Opts) -> Result<(), String> {
    let [a_path, b_path] = opts.files.as_slice() else {
        unreachable!("diff takes exactly two files")
    };
    let top: usize = opts.req("--top");
    let config: String = opts.req("--config");
    let cfg = GpuConfig::preset(&config).ok_or_else(|| {
        format!(
            "unknown --config {config:?}; presets: {}",
            GpuConfig::preset_names().join(", ")
        )
    })?;

    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let (a_label, b_label) = (a_path.display().to_string(), b_path.display().to_string());
    let report = mogpu::sim::diff_values(&a, &b, &a_label, &b_label, &cfg)
        .map_err(|e| format!("diff {a_label} {b_label}: {e}"))?;
    let dot_out = opts.get::<PathBuf>("--dot-out");
    if dot_out.is_some() && report.dataflow.is_none() {
        return Err(
            "--dot-out needs two dataflow graph documents (`mogpu dataflow --json`)".into(),
        );
    }

    if let Some(path) = opts.get::<PathBuf>("--out") {
        write_file(&path, canonical(&report)? + "\n")?;
        eprintln!("wrote diff report to {}", path.display());
    }
    if let (Some(path), Some(df)) = (dot_out, &report.dataflow) {
        write_file(&path, df.to_dot())?;
        eprintln!("wrote dataflow diff overlay to {}", path.display());
    }
    if let Some(path) = opts.get::<PathBuf>("--metrics-out") {
        write_file(&path, report.prometheus(top))?;
        eprintln!("wrote diff metrics to {}", path.display());
    }
    if opts.has("--json") {
        println!("{}", canonical(&report)?);
    } else {
        print!("{}", report.text(top));
    }
    Ok(())
}

fn cmd_dataflow(opts: &Opts) -> Result<(), String> {
    let w = Workload::new(opts, opts.level());
    let dot_out = opts.get::<PathBuf>("--dot-out");
    let metrics_out = opts.get::<PathBuf>("--metrics-out");

    let frames = w.render();
    let instruments = Instruments {
        dataflow: true,
        morphology: true,
        ..Instruments::default()
    };
    let out = w.run(Single(&frames, instruments))?;
    let graph = out.graph.expect("dataflow was enabled");

    if let Some(path) = &dot_out {
        write_file(path, graph.to_dot())?;
        println!("wrote dataflow DOT to {}", path.display());
    }
    if let Some(path) = &metrics_out {
        write_file(path, graph.prometheus())?;
        println!("wrote dataflow Prometheus counters to {}", path.display());
    }
    if opts.has("--json") {
        println!("{}", canonical(&graph.to_json())?);
    } else if dot_out.is_none() {
        print!("{}", graph.to_dot());
    }
    Ok(())
}

/// The serving flags `streams` and `fleet` share.
struct Serving {
    buffers: usize,
    fps: f64,
    slo: SloConfig,
    window_s: f64,
    events_out: Option<PathBuf>,
    /// The `--serve-metrics` address; the replay flags need one.
    serve_addr: Option<String>,
}

impl Serving {
    fn new(opts: &Opts) -> Result<Serving, String> {
        let serve_addr = opts.get("--serve-metrics");
        if serve_addr.is_none() {
            let replay = ["--serve-seconds", "--replay-ms"];
            opts.unused(&replay, "without --serve-metrics")?;
        }
        Ok(Serving {
            buffers: opts.req("--buffers"),
            fps: opts.req("--fps"),
            slo: SloConfig {
                deadline_s: opts.req::<f64>("--slo-ms") / 1e3,
                error_budget: opts.req("--error-budget"),
            },
            window_s: opts.req::<f64>("--window-ms") / 1e3,
            events_out: opts.get("--events-out"),
            serve_addr,
        })
    }

    fn arrivals(&self) -> String {
        if self.fps > 0.0 {
            format!(", arrivals at {:.0} fps", self.fps)
        } else {
            ", offline".into()
        }
    }

    /// A `streams` / `fleet` JSON document: the run-shape header both
    /// share, then `body`'s fields.
    fn document(&self, w: &Workload, streams: usize, body: Value) -> Value {
        let header = mogpu::json::json!({
            "streams": streams,
            "frames_per_stream": w.frames - 1,
            "level": w.level.name(),
            "buffers_per_stream": self.buffers,
            "arrival_fps": self.fps,
            "slo_deadline_ms": 1e3 * self.slo.deadline_s,
            "slo_error_budget": self.slo.error_budget,
        });
        match (header, body) {
            (Value::Object(mut fields), Value::Object(rest)) => {
                fields.extend(rest);
                Value::Object(fields)
            }
            _ => unreachable!("json! objects are objects"),
        }
    }

    /// Writes the JSONL event log when `--events-out` asks for it.
    fn write_events(&self, events: &[ServingEvent]) -> Result<(), String> {
        let Some(path) = &self.events_out else {
            return Ok(());
        };
        let mut writer = mogpu::sim::serving::EventLogWriter::create(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writer
            .write_events(events)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} serving events to {}",
            events.len(),
            path.display()
        );
        Ok(())
    }
}

/// Binds the scrape endpoint with `bind(addr, replay interval)` and
/// serves snapshot replays for `--serve-seconds` (0 = forever).
fn serve(
    opts: &Opts,
    addr: &str,
    bind: impl FnOnce(&str, f64) -> std::io::Result<MetricsServer>,
) -> Result<(), String> {
    let seconds: f64 = opts.req("--serve-seconds");
    let server = bind(addr, opts.req::<f64>("--replay-ms") / 1e3)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "serving /metrics on http://{} ({})",
        server.local_addr(),
        if seconds > 0.0 {
            format!("for {seconds:.0} s")
        } else {
            "until interrupted".into()
        }
    );
    let handled = server
        .serve_for(seconds)
        .map_err(|e| format!("serve: {e}"))?;
    println!("served {handled} request(s)");
    Ok(())
}

fn cmd_streams(opts: &Opts) -> Result<(), String> {
    let n_streams: usize = opts.req("--streams");
    let w = Workload::new(opts, opts.level());
    let serving = Serving::new(opts)?;

    let cameras = w.cameras(n_streams);
    let report = w.run(Streams(&cameras, &serving))?;
    let per_stream: Vec<Value> = report
        .per_stream
        .iter()
        .enumerate()
        .map(|(s, r)| {
            mogpu::json::json!({
                "stream": s,
                "frames": r.frames,
                "kernel_s": r.kernel_time_total,
                "latency_mean_ms": 1e3 * r.latency.mean,
                "latency_p50_ms": 1e3 * r.latency.p50,
                "latency_p95_ms": 1e3 * r.latency.p95,
                "latency_p99_ms": 1e3 * r.latency.p99,
                "latency_p999_ms": 1e3 * r.latency.p999,
                "latency_max_ms": 1e3 * r.latency.max,
                "slo_violations": report.serving.streams[s].slo_violations,
                "completion_s": r.completion,
                "fps": r.fps,
            })
        })
        .collect();
    // Aggregate and per-stream latency summaries (exact percentiles) and
    // the full serving report (SLO accounting, windowed snapshots, events).
    let doc = serving.document(
        &w,
        n_streams,
        mogpu::json::json!({
            "total_frames": report.total_frames,
            "makespan_s": report.makespan,
            "aggregate_fps": report.aggregate_fps,
            "kernel_utilization": report.kernel_utilization,
            "streams_at_slo": report.serving.streams_at_slo(),
            "slo_violations_total": report.serving.total_violations(),
            "per_stream": per_stream,
            "serving": report.serving,
        }),
    );
    if opts.has("--json") {
        println!("{}", pretty(&doc)?);
    } else {
        println!(
            "{n_streams} streams x {} frames, level {}, {} buffers/stream{}",
            w.frames - 1,
            w.level.name(),
            serving.buffers,
            serving.arrivals()
        );
        println!("stream    frames    mean ms    p50 ms    p95 ms    p99 ms    max ms   viol     done s       fps");
        for (s, r) in report.per_stream.iter().enumerate() {
            println!(
                "{:<8} {:>7} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6} {:>10.4} {:>9.1}",
                format!("s{s}"),
                r.frames,
                1e3 * r.latency.mean,
                1e3 * r.latency.p50,
                1e3 * r.latency.p95,
                1e3 * r.latency.p99,
                1e3 * r.latency.max,
                report.serving.streams[s].slo_violations,
                r.completion,
                r.fps
            );
        }
        println!(
            "aggregate: {} frames in {:.4} s = {:.1} fps, compute engine {:.1}% busy",
            report.total_frames,
            report.makespan,
            report.aggregate_fps,
            100.0 * report.kernel_utilization
        );
        println!(
            "slo: {:.1} ms deadline, {}/{} streams at SLO, {} violation(s), {} windows of {:.1} ms",
            1e3 * serving.slo.deadline_s,
            report.serving.streams_at_slo(),
            n_streams,
            report.serving.total_violations(),
            report.serving.snapshots.len(),
            1e3 * report.serving.window_s,
        );
    }

    serving.write_events(&report.serving.events)?;
    if let Some(path) = opts.get::<PathBuf>("--report-out") {
        write_file(&path, pretty(&doc)?)?;
        println!("wrote multi-stream report to {}", path.display());
    }
    // Stream aggregates have no single-kernel identity, so no kernel gauges.
    let label = format!("{n_streams} streams, level {}", w.level.name());
    if let Some(path) = opts.get::<PathBuf>("--trace-out") {
        let mut builder = mogpu::sim::chrome_trace::TraceBuilder::new();
        let pid = builder.add_multi_stream(&label, &report.schedule);
        builder.add_counters(pid, &report.telemetry);
        write_trace(&path, builder)?;
    }
    let telemetry =
        || mogpu::sim::telemetry::prometheus(&[(label.clone(), &report.telemetry, None)]);
    if let Some(path) = opts.get::<PathBuf>("--metrics-out") {
        write_file(&path, telemetry())?;
        println!("wrote Prometheus metrics to {}", path.display());
    }
    if let Some(addr) = &serving.serve_addr {
        let extra = telemetry();
        serve(opts, addr, |addr, replay_s| {
            Ok(MetricsServer::bind(addr, report.serving, replay_s)?.with_extra_exposition(extra))
        })?;
    }
    Ok(())
}

fn cmd_fleet(opts: &Opts) -> Result<(), String> {
    let devices: String = opts.req("--devices");
    let keys: Vec<&str> = devices
        .split(',')
        .map(str::trim)
        .filter(|k| !k.is_empty())
        .collect();
    if keys.is_empty() {
        return Err(format!(
            "--devices needs at least one preset key (one of: {})",
            GpuConfig::preset_names().join(", ")
        ));
    }
    let n_streams: usize = opts.req("--streams");
    let w = Workload::new(opts, opts.level());
    let serving = Serving::new(opts)?;
    let report_out = opts.get::<PathBuf>("--report-out");

    let cameras = w.cameras(n_streams);
    let run = w.run(Fleet {
        cameras: &cameras,
        serving: &serving,
        devices: &keys,
        headroom: opts.req("--headroom"),
        device_mem: opts
            .get::<f64>("--device-mem-mb")
            .map(|mb| (mb * 1024.0 * 1024.0) as usize),
    })?;
    let report = &run.report;

    let doc = serving.document(
        &w,
        n_streams,
        mogpu::json::json!({
            "streams_admitted": report.streams_admitted(),
            "streams_shed": report.shed.len(),
            "streams_at_slo": report.streams_at_slo(),
            "frames_dropped": report.frames_dropped(),
            "makespan_s": report.makespan_s,
            "report": report,
            "advisories": run.advisories,
        }),
    );
    if opts.has("--json") {
        println!("{}", pretty(&doc)?);
    } else {
        println!(
            "fleet: {} device(s), {n_streams} streams x {} frames, level {}{}",
            report.devices.len(),
            w.frames - 1,
            w.level.name(),
            serving.arrivals()
        );
        println!("device       class      streams   load         mem MB  at-SLO makespan s");
        for d in &report.devices {
            println!(
                "{:<12} {:<10} {:>7} {:>6.2} {:>7.1}/{:<6.0} {:>4}/{:<2} {:>10.4}",
                d.label,
                report.classes[d.class].key,
                d.admitted.len(),
                d.load,
                d.mem_used as f64 / (1024.0 * 1024.0),
                d.mem_budget as f64 / (1024.0 * 1024.0),
                d.serving.streams_at_slo(),
                d.admitted.len(),
                d.serving.makespan_s,
            );
        }
        for s in &report.shed {
            println!(
                "shed: stream {} ({}; nearest miss {}), {} frame(s) dropped",
                s.stream, s.reason, report.devices[s.device].label, s.frames
            );
        }
        println!(
            "fleet: {}/{} streams admitted, {} at SLO ({:.1} ms deadline), {} frame(s) dropped, makespan {:.4} s",
            report.streams_admitted(),
            report.streams_total(),
            report.streams_at_slo(),
            1e3 * serving.slo.deadline_s,
            report.frames_dropped(),
            report.makespan_s,
        );
        if run.advisories.is_empty() {
            println!("advisor: no device classes to evaluate");
        } else {
            for (i, a) in run.advisories.iter().enumerate() {
                print_fleet_advisory(i + 1, a);
            }
        }
    }

    serving.write_events(&report.all_events())?;
    if let Some(path) = &report_out {
        write_file(path, pretty(&doc)?)?;
        println!("wrote fleet report to {}", path.display());
    }
    if let Some(addr) = &serving.serve_addr {
        serve(opts, addr, |addr, replay_s| {
            MetricsServer::bind_fleet(addr, run.report, replay_s)
        })?;
    }
    Ok(())
}

fn print_fleet_advisory(rank: usize, a: &mogpu::sim::fleet::FleetAdvisory) {
    println!(
        "advisor #{rank} add {:?}: {:+} stream(s) at SLO (-> {}), {:+} dropped frame(s) (-> {})",
        a.class,
        a.streams_at_slo_gain,
        a.streams_at_slo_after,
        -a.frames_dropped_cut,
        a.frames_dropped_after,
    );
    println!("   {}", a.finding);
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let report_path: PathBuf = opts.get("--report").ok_or(
        "usage: mogpu serve --report FILE.json [--addr HOST:PORT] [--serve-seconds N] [--replay-ms N]",
    )?;
    let addr: String = opts.req("--addr");

    // A `mogpu streams --report-out` document or a bare serving report.
    let serving: mogpu::sim::serving::ServingReport =
        read_report(&report_path, "serving", "serving")?;
    println!(
        "replaying {}: device {:?}, {} stream(s), {} snapshot(s), {:.4} s makespan",
        report_path.display(),
        serving.device,
        serving.streams.len(),
        serving.snapshots.len(),
        serving.makespan_s
    );
    serve(opts, &addr, |addr, replay_s| {
        MetricsServer::bind(addr, serving, replay_s)
    })
}

fn cmd_metrics(opts: &Opts) -> Result<(), String> {
    let w = Workload::new(opts, opts.level());
    let out = opts.get::<PathBuf>("--out");

    let frames = w.render();
    let run = w.run(Single(&frames, profiled(true)))?;
    let text = exposition(&[run.profile.expect("profiling was enabled")]);
    match out {
        Some(path) => {
            write_file(&path, text)?;
            println!("wrote Prometheus metrics to {}", path.display());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_bench_record(opts: &Opts) -> Result<(), String> {
    let out: PathBuf = opts.req("--out");
    let mut cfg = mogpu::bench::BenchConfig::default();
    if let Some(frames) = opts.get("--frames") {
        cfg.frames = frames;
    }
    if let Some(k) = opts.get("--k") {
        cfg.k = k;
    }
    if let Some(streams) = opts.get("--streams") {
        cfg.streams = streams;
    }

    let mut baseline = mogpu::bench::baseline::measure(&cfg, mogpu::bench::Tolerances::default());
    // Per-level slim profile reports next to the baseline: the stored
    // side of the attribution a failing `bench check` emits.
    mogpu::bench::baseline::attach_reports(&mut baseline, &out)?;
    mogpu::bench::baseline::write_baseline(&baseline, &out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "recorded baseline ({} ladder levels + {}-stream run, {} frames, K={}) to {}",
        baseline.levels.len(),
        cfg.streams,
        cfg.frames - 1,
        cfg.k,
        out.display()
    );
    println!(
        "recorded {} per-level profile reports under {}",
        baseline.reports.len(),
        out.with_file_name("reports").display()
    );
    Ok(())
}

fn cmd_bench_check(opts: &Opts) -> Result<(), String> {
    let path: PathBuf = opts.req("--baseline");

    let baseline = mogpu::bench::baseline::read_baseline(&path)?;
    // Re-measure with the *baseline's* recorded workload shape so the
    // comparison is apples to apples even if the defaults have moved.
    let current = mogpu::bench::baseline::measure(&baseline.config, baseline.tolerances);
    let report = mogpu::bench::baseline::check(&baseline, &current);
    if opts.has("--json") {
        println!("{}", pretty(&report)?);
    } else {
        println!("{}", mogpu::bench::baseline::render_table(&report));
    }
    if !report.pass {
        // Attribute the drift before failing: stored per-level reports
        // vs fresh profiles, through the differential engine. The text
        // goes to stderr (CI logs), the canonical JSON next to the
        // baseline (CI artifacts).
        match mogpu::bench::baseline::attribute_failures(&baseline, &report, &path) {
            Ok(Some(diff_report)) => {
                let diff_path = match opts.get::<PathBuf>("--diff-out") {
                    Some(p) => p,
                    None => path.with_file_name("diff.json"),
                };
                let text = canonical(&diff_report)?;
                if let Err(e) = std::fs::write(&diff_path, text + "\n") {
                    eprintln!("warning: cannot write {}: {e}", diff_path.display());
                } else {
                    eprintln!("wrote drift attribution to {}", diff_path.display());
                }
                eprint!("{}", diff_report.text(10));
            }
            Ok(None) => {}
            Err(e) => eprintln!("warning: drift attribution failed: {e}"),
        }
        return Err(format!(
            "performance drifted beyond tolerance of {}",
            path.display()
        ));
    }
    Ok(())
}

fn cmd_check(opts: &Opts) -> Result<(), String> {
    let json = opts.has("--json");
    // The level is set per target below.
    let w = Workload::new(opts, OptLevel::A);
    let scene = w.scene();
    let frames = scene.render_sequence(w.frames).0.into_frames();
    let (_, truth_mask) = scene.render(w.frames / 2);

    let mut results: Vec<(String, mogpu::sim::SanReport)> = Vec::new();
    let sanitized = Instruments {
        sanitize: true,
        ..Instruments::default()
    };
    for level in sweep() {
        let out = Workload { level, ..w }.run(Single(&frames, sanitized))?;
        let report = out.san.expect("sanitize was on");
        results.push((format!("level {}", level.name()), report));
    }
    let adaptive = w.run(AdaptiveSanitized(&frames))?;
    results.push(("adaptive".into(), adaptive));
    for (name, op) in [
        ("morph erode", mogpu::core::kernels::MorphOp::Erode),
        ("morph dilate", mogpu::core::kernels::MorphOp::Dilate),
    ] {
        let (_, report) = mogpu::core::kernels::gpu_morph_with(
            &truth_mask,
            op,
            &GpuConfig::tesla_c2075(),
            mogpu::sim::LaunchOptions {
                sanitize: true,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
        results.push((
            name.into(),
            report.sanitizer.expect("sanitize was requested"),
        ));
    }

    let total: usize = results.iter().map(|(_, r)| r.len()).sum();
    if json {
        let targets: Vec<Value> = results
            .iter()
            .map(|(name, report)| {
                mogpu::json::json!({
                    "target": name.as_str(),
                    "report": report,
                })
            })
            .collect();
        let doc = mogpu::json::json!({
            "frames": w.frames - 1,
            "k": w.k,
            "clean": total == 0,
            "findings": total as u64,
            "targets": targets,
        });
        println!("{}", pretty(&doc)?);
    } else {
        println!(
            "sanitizer sweep — {}, {} frames, K={}, {}",
            w.res,
            w.frames - 1,
            w.k,
            w.precision()
        );
        for (name, report) in &results {
            if report.is_clean() {
                println!("{name:<14} clean");
            } else {
                println!("{name:<14} {} finding(s):", report.len());
                print!("{}", report.table());
            }
        }
    }
    if total > 0 {
        return Err(format!("sanitizer reported {total} finding(s)"));
    }
    Ok(())
}
