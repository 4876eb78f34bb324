//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ladder|fleet|attribution|quality> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload through the public `mogpu` library API
//! as a closed loop on one CPU: a round sets the workload up (scene
//! render and pipeline construction), then makes its timed calls, each
//! issued after the previous one returns, and its outputs are checked
//! outside the timed phase. Rounds repeat while they fit in `--seconds`:
//! a warm-up round, then at least two more, each of which must
//! reproduce the warm-up's outputs bit for bit (the same seed twice).
//! Calibration kernels sampled between the benchmark's calls refer its
//! host CPU times to a reference host speed (`calib`). The last line of
//! standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for every metric's clock.

mod attribution;
mod calib;
mod fleet;
mod host;
mod ladder;
mod quality;
mod trace;

use calib::Meter;
use host::Stamp;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;

/// Rounds per run, at least: a warm-up round, then two more whose
/// outputs must equal the warm-up's.
const MIN_ROUNDS: usize = 3;
/// Set-up samples per run; `setup_s` is their median.
const MIN_SETUPS: usize = 7;

/// Every deterministic output a workload can produce, with its unit and
/// clock: `modelled` is the simulator's GPU clock, `output` a quality
/// score of the results. Equal seeds must reproduce each bit for bit.
/// They are printed by every run and carried in the JSON line of the
/// traced run, where a workload that has no such output reports 0.
const OUTPUTS: [(&str, &str, &str); 5] = [
    ("model_fps_F", "fps", "modelled"),
    ("model_speedup_W8", "x", "modelled"),
    ("model_e2e_p99_ms", "ms", "modelled"),
    ("model_slo_attainment", "ratio", "modelled"),
    ("msssim_fg_min", "ratio", "output"),
];

/// Names of the calibration kernels' median samples, as printed.
const CALIBRATION: [&str; 2] = ["host.calibration.mog_s", "host.calibration.map_s"];

/// The checked result of one round.
pub struct Round {
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Values of [`OUTPUTS`] entries, by name.
    pub outputs: Vec<(&'static str, f64)>,
    /// Digest of the round's bulk outputs (masks, serialized reports).
    pub digest: u64,
}

/// One benchmark workload.
pub trait Workload {
    type State;
    type Out;
    /// Frames pushed through a pipeline per round (the `host_fps_*`
    /// numerator).
    fn frames_per_round(&self) -> u64;
    /// Correctness checks per round.
    fn checks_per_round(&self) -> u64;
    /// Everything before the first timed call.
    fn setup(&self, t: &mut Tracer) -> Result<Self::State, String>;
    /// The timed calls.
    fn timed(&self, st: Self::State, t: &mut Tracer) -> Result<Self::Out, String>;
    /// Layers priced only in the traced run, after the timed phase.
    fn traced_extra(&self, _out: &Self::Out, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Correctness checks and deterministic outputs (untimed).
    fn finish(&self, out: Self::Out) -> Round;
}

/// FNV-1a, for digests of outputs that must repeat exactly.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ladder|fleet|attribution|quality> \
                 --seed <n> --seconds <s> [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    // One thread on one CPU: no thread spawns or migrations in what is
    // timed, and no second thread contending for the same core.
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let prepared = catch_unwind(|| {
        match args.workload.as_str() {
            "ladder" => run(&ladder::Ladder::new(args.seed), &args),
            "fleet" => run(&fleet::Fleet::new(args.seed), &args),
            "attribution" => run(&attribution::Attribution::new(args.seed), &args),
            "quality" => run(&quality::Quality::new(args.seed), &args),
            other => return Err(format!("unknown workload {other:?}")),
        }
        Ok(())
    });
    match prepared {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        Err(_) => {
            eprintln!("perfbench: the workload panicked outside a measured round");
            std::process::exit(1);
        }
    }
}

/// What a run accumulates over its rounds.
#[derive(Default)]
struct Tally {
    rounds: usize,
    attempted: u64,
    failed: u64,
    /// Per set-up: CPU seconds, raw and referred to the reference
    /// speed.
    setup_cpu_s: Vec<f64>,
    setup_ref_s: Vec<f64>,
    /// Per measured round: frames per CPU second, raw and referred to
    /// the reference speed, and frames per wall second.
    fps_cpu_raw: Vec<f64>,
    fps_cpu_ref: Vec<f64>,
    fps_wall: Vec<f64>,
    peak_rss_mib: Option<f64>,
    reference: Option<(Vec<u64>, u64)>,
    outputs: Vec<(&'static str, f64)>,
    digest: u64,
}

impl Tally {
    fn fail(&mut self, n: u64, why: &str) {
        self.attempted += n;
        self.failed += n;
        eprintln!("perfbench: round {} failed: {why}", self.rounds);
    }

    /// Folds a round's checks in and compares its outputs with the
    /// first round's (the same seed must give identical outputs).
    fn absorb(&mut self, round: Round) {
        for (name, ok) in &round.checks {
            self.attempted += 1;
            if !ok {
                self.failed += 1;
                eprintln!("perfbench: round {}: check {name} failed", self.rounds);
            }
        }
        let bits: Vec<u64> = round.outputs.iter().map(|(_, v)| v.to_bits()).collect();
        match &self.reference {
            None => {
                self.reference = Some((bits, round.digest));
                self.outputs = round.outputs;
                self.digest = round.digest;
            }
            Some(reference) => {
                self.attempted += 1;
                if *reference != (bits, round.digest) {
                    self.failed += 1;
                    eprintln!(
                        "perfbench: round {}: outputs differ from round 1 on the same seed",
                        self.rounds
                    );
                }
            }
        }
    }
}

fn run<W: Workload>(w: &W, args: &Args) {
    let mut t = Tracer::new(args.trace, Some(Meter::new()));
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut round_wall = Vec::new();
    loop {
        // A round starts only if it is expected to end within
        // `--seconds`, judged by the median round so far.
        let left = args.seconds - start.elapsed().as_secs_f64();
        if tally.rounds >= MIN_ROUNDS && left < median(&round_wall) {
            break;
        }
        tally.rounds += 1;
        let r0 = Instant::now();
        let cal_before = t.meter().sample();
        let result = catch_unwind(AssertUnwindSafe(|| {
            t.begin_window();
            let s0 = Stamp::now();
            let state = w.setup(&mut t)?;
            let (_, setup_cpu) = s0.elapsed();
            let cal_setup = t.meter().begin();
            let setup_speed = calib::speed(cal_before, cal_setup);
            let (s1, sampled) = (Instant::now(), t.meter().sampling_wall_s());
            let out = w.timed(state, &mut t)?;
            let (timed_cpu, timed_ref) = t.meter().end();
            let sampled = t.meter().sampling_wall_s() - sampled;
            let timed_wall = s1.elapsed().as_secs_f64() - sampled;
            if t.on() {
                w.traced_extra(&out, &mut t)?;
            }
            t.end_window();
            let setup = (setup_cpu, setup_cpu * setup_speed);
            Ok::<_, String>((setup, timed_wall, timed_cpu, timed_ref, out))
        }));
        match result {
            Ok(Ok(((setup_cpu, setup_ref), timed_wall, timed_cpu, timed_ref, out))) => {
                eprintln!(
                    "perfbench: round {}: set-up {setup_cpu:.4} CPU-s, timed {timed_cpu:.4} CPU-s \
                     {timed_wall:.4} wall-s, {timed_ref:.4} CPU-s at reference speed",
                    tally.rounds
                );
                tally.setup_cpu_s.push(setup_cpu);
                tally.setup_ref_s.push(setup_ref);
                // Round 1 warms allocator arenas and page mappings up; it
                // is checked but not timed.
                if tally.rounds > 1 {
                    let frames = w.frames_per_round() as f64;
                    tally.fps_cpu_raw.push(frames / timed_cpu);
                    tally.fps_cpu_ref.push(frames / timed_ref);
                    tally.fps_wall.push(frames / timed_wall);
                }
                match catch_unwind(AssertUnwindSafe(|| w.finish(out))) {
                    Ok(round) => tally.absorb(round),
                    Err(_) => tally.fail(w.checks_per_round(), "panic in the checks"),
                }
            }
            Ok(Err(e)) => {
                t.abort_window();
                tally.fail(w.checks_per_round(), &e);
            }
            Err(_) => {
                t.abort_window();
                tally.fail(w.checks_per_round(), "panic");
            }
        }
        round_wall.push(r0.elapsed().as_secs_f64());
        if tally.rounds == 1 {
            t.discard_timing();
        }
        // The high-water mark is read at a fixed point, after the
        // warm-up and one measured round: later rounds only add
        // allocator fragmentation that varies with run length.
        if tally.rounds == 2 {
            match host::peak_rss_mib() {
                Ok(mib) => tally.peak_rss_mib = Some(mib - t.meter().resident_mib()),
                Err(e) => tally.fail(1, &e),
            }
        }
    }
    // Short runs take extra set-up samples so `setup_s` is a median.
    let mut spare = Tracer::new(false, None);
    for _ in tally.setup_cpu_s.len()..MIN_SETUPS {
        let cal_before = t.meter().sample();
        let s0 = Stamp::now();
        let state = catch_unwind(AssertUnwindSafe(|| w.setup(&mut spare)));
        let setup_cpu = s0.elapsed().1;
        let cal_after = t.meter().sample();
        match state {
            Ok(Ok(state)) => {
                let speed = calib::speed(cal_before, cal_after);
                tally.setup_cpu_s.push(setup_cpu);
                tally.setup_ref_s.push(setup_cpu * speed);
                drop(state);
            }
            Ok(Err(e)) => tally.fail(1, &e),
            Err(_) => tally.fail(1, "panic in set-up"),
        }
    }
    let calibration = t.meter().median_samples();
    report(w, args, &t, &tally, calibration);
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn report<W: Workload>(w: &W, args: &Args, t: &Tracer, tally: &Tally, calibration_s: [f64; 2]) {
    let failed_frac = ratio(tally.failed as f64, tally.attempted as f64);
    let host_fps_cpu = median(&tally.fps_cpu_ref);
    let host_fps_wall = median(&tally.fps_wall);
    // (name, value, unit, clock, better)
    let mut rows: Vec<(String, f64, &str, &str, &str)> = Vec::new();
    if !args.trace {
        rows.push((
            "setup_s".into(),
            median(&tally.setup_ref_s),
            "s",
            "host CPU at reference speed",
            "lower",
        ));
        rows.push((
            "host_fps_cpu".into(),
            host_fps_cpu,
            "frames/cpu-s",
            "host CPU at reference speed",
            "higher",
        ));
        let peak_rss = tally.peak_rss_mib.unwrap_or(0.0);
        rows.push(("peak_rss_mb".into(), peak_rss, "MiB", "host", "lower"));
    } else {
        for (name, value, unit) in t.layer_metrics() {
            rows.push((name, value, unit, "host", ""));
        }
        let overhead = ratio(t.span_count() as f64 * trace::span_cost_s(), t.wall_s());
        rows.push((
            "trace.overhead_frac".into(),
            overhead,
            "ratio",
            "host wall",
            "",
        ));
        rows.push((
            "trace.host_fps_cpu".into(),
            host_fps_cpu,
            "frames/cpu-s",
            "host CPU at reference speed",
            "",
        ));
        for (name, value) in CALIBRATION.into_iter().zip(calibration_s) {
            rows.push((name.into(), value, "s", "host CPU", ""));
        }
        for (name, unit, clock) in OUTPUTS {
            let value = tally
                .outputs
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            rows.push((name.into(), value, unit, clock, ""));
        }
        rows.push(("failed_frac".into(), failed_frac, "ratio", "count", ""));
    }

    println!(
        "workload {} seed {} trace {}: {} rounds (1 warm-up), {} frames/round, host threads {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        tally.rounds,
        w.frames_per_round(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if !args.trace {
        // Outputs and failures are printed with every run; only the
        // traced run carries them in its JSON line.
        for (name, unit, clock) in OUTPUTS {
            if let Some((_, value)) = tally.outputs.iter().find(|(n, _)| *n == name) {
                println!("  {name:<44} {value:>18} {unit:<14} {clock}");
            }
        }
        println!(
            "  {:<44} {:>18} {:<14} count",
            "failed_frac", failed_frac, "ratio"
        );
        // Steal time on shared hosts spreads wall-clock rates too widely
        // to gate on; the rate is printed, not reported. So are the raw
        // CPU figures the gated ones are referred from.
        println!(
            "  {:<44} {:>18} {:<14} host wall",
            "host_fps_wall", host_fps_wall, "frames/s"
        );
        println!(
            "  {:<44} {:>18} {:<14} host CPU",
            "host_fps_cpu_raw",
            median(&tally.fps_cpu_raw),
            "frames/cpu-s"
        );
        println!(
            "  {:<44} {:>18} {:<14} host CPU",
            "setup_s_raw",
            median(&tally.setup_cpu_s),
            "s"
        );
        for (name, value) in CALIBRATION.into_iter().zip(calibration_s) {
            println!("  {name:<44} {value:>18} {:<14} host CPU", "s");
        }
        println!("  {:<44} {:>18x}", "output_digest", tally.digest);
    }
    for (name, value, unit, clock, better) in &rows {
        println!("  {name:<44} {value:>18} {unit:<14} {clock} {better}");
    }

    let mut correct = tally.failed == 0 && tally.attempted > 0;
    let mut metrics = Vec::new();
    for (name, value, unit, _, _) in &rows {
        let value = if value.is_finite() {
            *value
        } else {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
            0.0
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
}
