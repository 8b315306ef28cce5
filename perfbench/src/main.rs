//! `perfbench`: the end-to-end and per-layer benchmark of the PUFFER flow
//! and the `puffer-serve` engine.
//!
//! ```text
//! perfbench --workload <or1200_t1|media_t2|serve_small> [--seed <n>]
//!           [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it measures the workload untraced for `--seconds` and
//! prints the end-to-end metrics; with `--trace 1` it replays one job
//! through each layer's public calls and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `perfbench/README.md` describes the workloads and metrics.

#![forbid(unsafe_code)]

mod flow;
mod kernels;
mod serve;
mod spans;
mod stats;

use flow::{
    check_job, congestion_reuse, prepare_design, replay, replay_mismatches, router_config, run_job,
    shadow_congestion, JobOutput,
};
use puffer_db::design::Design;
use puffer_gen::{presets, GeneratorConfig};
use spans::Spans;
use stats::{median, tail, Outcome, Tally};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per flow run; `setup_s` is their median. An
/// untraced run takes half of them before the timed window and half after
/// it: set-up times drift over tens of seconds, and two moments 40 s apart
/// give a steadier median than one.
const SETUP_REPS: usize = 32;
/// Set-up repetitions per serve run, each about 4 ms, split the same way.
const SERVE_SETUP_REPS: usize = 500;
/// Jobs per untraced flow run, at least: `flow_s` is their median.
const MIN_FLOW_JOBS: usize = 3;
/// Serve jobs in the traced run.
const SERVE_TRACED_JOBS: usize = 12;

/// What a workload runs.
#[derive(Clone, Copy)]
enum Kind {
    /// place → refine → evaluate in-process, every layer at `threads`.
    Flow { threads: usize },
    /// The serve engine under a closed loop of place jobs.
    Serve,
}

struct Workload {
    name: &'static str,
    preset: &'static str,
    scale: f64,
    kind: Kind,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "or1200_t1",
        preset: "OR1200",
        scale: 0.05,
        kind: Kind::Flow { threads: 1 },
    },
    Workload {
        name: "media_t2",
        preset: "MEDIA_SUBSYS",
        scale: 0.01,
        kind: Kind::Flow { threads: 2 },
    },
    Workload {
        name: "serve_small",
        preset: "OR1200",
        scale: 0.003,
        kind: Kind::Serve,
    },
];

impl Workload {
    fn threads(&self) -> usize {
        match self.kind {
            Kind::Flow { threads } => threads,
            Kind::Serve => serve::JOB_THREADS,
        }
    }

    /// The generator configuration of the workload's design: the preset
    /// with the workload seed (the preset's own when none is given).
    fn design_config(&self, seed: Option<u64>) -> Result<GeneratorConfig, String> {
        let mut cfg = presets::by_name(self.preset, self.scale)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no preset {}", self.preset))?;
        cfg.seed = seed.unwrap_or(cfg.seed);
        Ok(cfg)
    }
}

struct Args {
    workload: &'static Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 36.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One run's verdict and metrics, plus notes printed before the JSON.
#[derive(Default)]
struct Report {
    tally: Tally,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one unit of work with the failures its checks found.
    fn record(&mut self, outcome: Outcome, failures: Vec<String>) {
        let outcome = if outcome == Outcome::Ok && !failures.is_empty() {
            Outcome::CheckFailed
        } else {
            outcome
        };
        self.tally.record(outcome);
        self.failures.extend(failures);
    }

    fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<24} {value:>16.6} {unit}");
        }
        let correct = self.tally.attempted > 0
            && self.tally.failed == 0
            && self.failures.is_empty()
            && finite;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The run's scratch directory inside the checkout; removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_build")
            .join("perfbench-work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(args.workload.name) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", fingerprint(&args, &work.0));
    let run = match (args.trace, args.workload.kind) {
        (false, Kind::Flow { threads }) => flow_untraced(&args, threads, &work.0),
        (false, Kind::Serve) => serve_untraced(&args, &work.0),
        (true, _) => traced(&args, &work.0),
    };
    match run {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Machine, toolchain, source and input identity, printed with every result.
fn fingerprint(args: &Args, work: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cmd = |prog: &str, argv: &[&str]| {
        std::process::Command::new(prog)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = cmd("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit =
        cmd("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none (not a git checkout)".into());
    let w = args.workload;
    let seed = w
        .design_config(args.seed)
        .map_or_else(|_| "?".into(), |c| c.seed.to_string());
    let threads = match w.kind {
        Kind::Flow { threads } => format!(
            "placer={threads} estimator={threads} router={threads} (flow workload: no serve workers)"
        ),
        Kind::Serve => format!(
            "serve.workers={} job.threads={t} (placer={t} estimator={t}; place jobs do not route)",
            serve::WORKERS,
            t = serve::JOB_THREADS
        ),
    };
    format!(
        "fingerprint: workload={} seed={seed} nproc={nproc} rustc=\"{rustc}\" commit={commit} \
         journal_fs={}\nthreads: {threads}",
        w.name,
        filesystem_of(work)
    )
}

/// Filesystem type and mount point holding `path`, from
/// `/proc/self/mountinfo` (fields: ... mount-point ... - fstype source ...).
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            abs.starts_with(mount)
                .then(|| (mount.len(), format!("{fstype} on {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// Runs the set-up `reps` times; returns the last design read back and
/// the set-up times.
fn setup_flow_design(
    cfg: &GeneratorConfig,
    path: &Path,
    reps: usize,
    spans: &mut Spans,
) -> Result<(Design, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut design = None;
    for _ in 0..reps {
        let t = Instant::now();
        design = Some(spans.span("setup", |s| prepare_design(cfg, path, s))?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((design.ok_or("no set-up ran")?, times))
}

fn peak_rss_mb() -> f64 {
    puffer_budget::mem::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// Reports the job-latency metrics of `times`, with the tail's percentile
/// and sample count printed beside it. With fewer than 20 jobs no
/// percentile has enough jobs beyond it: the tail is then not applicable,
/// and `job_tail_s` carries the median, since every end-to-end metric
/// needs a value on every workload.
fn latency_metrics(report: &mut Report, times: &[f64], wall_s: f64) {
    let (q1, q2, q3) = stats::quartiles(times);
    report.note(format!(
        "job latency quartiles: {q1:.4} / {q2:.4} / {q3:.4} s"
    ));
    report.metric("jobs_per_s", times.len() as f64 / wall_s, "1/s");
    report.metric("job_p50_s", median(times), "s");
    let tail_s = match tail(times) {
        Some(t) => {
            report.note(format!(
                "job_tail_s is p{} of {} jobs ({} beyond it)",
                f64::from(t.permille) / 10.0,
                t.samples,
                t.beyond
            ));
            t.value
        }
        None => {
            report.note(format!(
                "job_tail_s n/a: no percentile of {} jobs has {} beyond it; it carries the median",
                times.len(),
                stats::MIN_BEYOND
            ));
            median(times)
        }
    };
    report.metric("job_tail_s", tail_s, "s");
}

fn flow_untraced(args: &Args, threads: usize, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let cfg = args.workload.design_config(args.seed)?;
    let path = work.join("design.pd");
    let (design, mut setup_times) =
        setup_flow_design(&cfg, &path, SETUP_REPS / 2, &mut Spans::default())?;

    // Timed window: at least MIN_FLOW_JOBS jobs back to back, then more
    // until the next one would end nearer the far side of `--seconds`
    // than this side.
    let mut times = Vec::new();
    let mut outputs: Vec<JobOutput> = Vec::new();
    let mut errors = Vec::new();
    // A user runs one job per process, so peak memory is read after the
    // first job; later jobs only add allocator growth, and how many run
    // depends on the machine's speed.
    let mut rss = f64::NAN;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        match run_job(&design, threads) {
            Ok(out) => {
                times.push(t0.elapsed().as_secs_f64());
                outputs.push(out);
            }
            Err(e) => errors.push(e),
        }
        if rss.is_nan() {
            rss = peak_rss_mb();
        }
        let done = outputs.len() + errors.len();
        let elapsed = start.elapsed().as_secs_f64();
        if done >= MIN_FLOW_JOBS && elapsed + elapsed / done as f64 / 2.0 >= args.seconds {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (_, after) = setup_flow_design(&cfg, &path, SETUP_REPS / 2, &mut Spans::default())?;
    setup_times.extend(after);

    // Checks, after the window.
    for e in errors {
        report.record(Outcome::Error, vec![e]);
    }
    for (i, out) in outputs.iter().enumerate() {
        let mut failures = check_job(&design, out);
        let first = &outputs[0];
        if out.refined.placement != first.refined.placement
            || out.route.wirelength.to_bits() != first.route.wirelength.to_bits()
        {
            failures.push(format!("job {} output differs from job 1's", i + 1));
        }
        report.record(Outcome::Ok, failures);
    }
    let (hpwl, routed_wl) = outputs.first().map_or((f64::NAN, f64::NAN), |o| {
        report.note(format!(
            "design {} ({} cells), gp_iterations {}, pad_rounds {}, HOF {:.3}% VOF {:.3}% \
             ({} overflowed Gcells), failed_frac {}",
            design.name(),
            design.netlist().num_cells(),
            o.place.gp_iterations,
            o.place.pad_rounds,
            o.route.hof_pct,
            o.route.vof_pct,
            o.route.overflow_gcells,
            report.tally.failed_frac()
        ));
        (o.hpwl(&design), o.route.wirelength)
    });
    for (i, t) in times.iter().enumerate() {
        report.note(format!("job {}: {t:.4} s", i + 1));
    }

    report.metric("setup_s", median(&setup_times), "s");
    report.metric("flow_s", median(&times), "s");
    latency_metrics(&mut report, &times, wall_s);
    report.metric("hpwl", hpwl, "dbu");
    report.metric("routed_wl", routed_wl, "dbu");
    report.metric("peak_rss_mb", rss, "MiB");
    Ok(report)
}

fn serve_untraced(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let (design, path, mut setup_times) = serve_setup(args, work)?;

    let journal = work.join("journal");
    let res = serve::closed_loop(&journal, &path, args.seconds, 1, None, &mut Vec::new())?;
    let rss = peak_rss_mb();
    setup_times.extend(serve_setup(args, work)?.2);

    // Checks, after the window: every result against a direct run.
    let (hpwl, routed_wl) = check_serve(&mut report, &design, &res);
    let latencies: Vec<f64> = res.samples.iter().map(|s| s.latency_s).collect();
    let runtimes: Vec<f64> = res.samples.iter().filter_map(|s| s.runtime_s).collect();
    report.note(format!(
        "{} jobs on design {} ({} cells); {} rejected, {} lost; failed_frac {}",
        res.samples.len(),
        design.name(),
        design.netlist().num_cells(),
        res.rejected,
        res.lost,
        report.tally.failed_frac()
    ));

    report.metric("setup_s", median(&setup_times), "s");
    report.metric("flow_s", median(&runtimes), "s");
    latency_metrics(&mut report, &latencies, res.wall_s);
    report.metric("hpwl", hpwl, "dbu");
    report.metric("routed_wl", routed_wl, "dbu");
    report.metric("peak_rss_mb", rss, "MiB");
    Ok(report)
}

/// The serve set-up, half of `SERVE_SETUP_REPS` times: prepare the design
/// the client submits (as a flow set-up does), then start an engine and
/// time it until the first submission is accepted. Engine start alone
/// takes 0.3–2 ms, mostly `fsync` latency, which moves 3x between runs;
/// the design's preparation makes the time mostly CPU work.
/// Returns the design as read back, its path and the set-up times.
fn serve_setup(args: &Args, work: &Path) -> Result<(Design, PathBuf, Vec<f64>), String> {
    let cfg = args.workload.design_config(args.seed)?;
    let path = work.join("design.pd");
    let mut times = Vec::with_capacity(SERVE_SETUP_REPS / 2);
    let mut design = None;
    for r in 0..SERVE_SETUP_REPS / 2 {
        let t = Instant::now();
        design = Some(prepare_design(&cfg, &path, &mut Spans::default())?);
        let prepare_s = t.elapsed().as_secs_f64();
        let dir = work.join(format!("setup-{r}"));
        // The cancelled job and the engine's shutdown are not set-up.
        let accept_s = serve::time_first_accept(&dir, &path, &dir.join("out.pl"))?;
        times.push(prepare_s + accept_s);
        // Keeps hundreds of set-up journals from piling up in the run.
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok((design.ok_or("no set-up ran")?, path, times))
}

/// Checks every serve result against a direct run of its spec and counts
/// the outcomes, rejects and lost jobs; returns the HPWL and routed
/// wirelength of the placement every job outputs.
fn check_serve(report: &mut Report, design: &Design, res: &serve::LoopResult) -> (f64, f64) {
    for _ in 0..res.rejected {
        report.record(Outcome::Rejected, vec!["submission rejected".into()]);
    }
    for _ in 0..res.lost {
        report.record(Outcome::Error, vec!["result never arrived".into()]);
    }
    let reference = match serve::reference(design) {
        Ok(r) => r,
        Err(e) => {
            for s in &res.samples {
                report.record(Outcome::Error, vec![format!("job {}: {e}", s.id)]);
            }
            return (f64::NAN, f64::NAN);
        }
    };
    // A result that matches the reference byte for byte is checked by
    // checking the reference.
    let legal = flow::check_placement(design, &reference.placement);
    for s in &res.samples {
        let (outcome, mut failures) = serve::check_sample(s, &reference);
        failures.extend(legal.iter().map(|f| format!("job {}: {f}", s.id)));
        report.record(outcome, failures);
    }
    let route = puffer::evaluate_with(
        design,
        &reference.placement,
        &router_config(serve::JOB_THREADS),
    );
    report.failures.extend(flow::check_route(&route));
    (reference.hpwl, route.wirelength)
}

/// The traced run: set-up and one job replayed with a span per layer
/// call, checked bit-identical against an untraced run of the same job,
/// then the kernels on the replay's snapshots (and, for the serve
/// workload, a short traced closed loop).
fn traced(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let threads = w.threads();
    let mut report = Report::default();
    let mut spans = Spans::default();
    let cfg = w.design_config(args.seed)?;
    let design_path = work.join("design.pd");
    let (design, _) = setup_flow_design(&cfg, &design_path, SETUP_REPS, &mut spans)?;

    let t0 = Instant::now();
    let job = run_job(&design, threads);
    let job_s = t0.elapsed().as_secs_f64();
    let job = match job {
        Ok(j) => j,
        Err(e) => {
            report.record(Outcome::Error, vec![e]);
            return Ok(report);
        }
    };
    report.record(Outcome::Ok, check_job(&design, &job));
    spans.set_job(1);
    let rep = match replay(&design, threads, &mut spans) {
        Ok(rep) => rep,
        Err(e) => {
            report.record(Outcome::Error, vec![format!("replay: {e}")]);
            return Ok(report);
        }
    };
    let diffs = replay_mismatches(&design, &rep, &job);
    report.record(Outcome::Ok, diffs);

    let reps = if matches!(w.kind, Kind::Serve) { 20 } else { 3 };
    spans.set_job(0);
    kernels::time_kernels(&design, &rep.snapshots, rep.density_dims, reps, &mut spans);
    shadow_congestion(&design, threads, &rep.snapshots, &mut spans);
    let reuse = congestion_reuse(
        &design,
        threads,
        &rep.snapshots,
        &work.join("congest.jsonl"),
    )?;

    // serve.submit_s, serve.overhead_s, fsx.journal_lines,
    // fsx.journal_bytes, trace.records
    let mut serve_layer = [0.0; 5];
    if matches!(w.kind, Kind::Serve) {
        let mut counts = Vec::new();
        let res = serve::closed_loop(
            &work.join("journal"),
            &design_path,
            0.0,
            SERVE_TRACED_JOBS,
            Some(&mut spans),
            &mut counts,
        )?;
        check_serve(&mut report, &design, &res);
        let overhead: Vec<f64> = res
            .samples
            .iter()
            .filter_map(|s| s.runtime_s.map(|r| s.latency_s - r))
            .collect();
        let per_job = |f: fn(&serve::JournalCounts) -> usize| {
            median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
        };
        serve_layer = [
            spans.median_s("serve.submit"),
            median(&overhead),
            per_job(|c| c.journal_lines),
            per_job(|c| c.journal_bytes),
            per_job(|c| c.trace_records),
        ];
    } else {
        report.note(
            "n/a on flow workloads: serve.submit_s, serve.overhead_s (no daemon), \
             fsx.journal_lines, fsx.journal_bytes, trace.records (flow jobs write no journal \
             or telemetry); reported as 0"
                .into(),
        );
    }

    let flow_s = spans.durations("flow").first().copied().unwrap_or(f64::NAN);
    // A kernel's time at the workload's thread count, and its 2-thread
    // speed-up.
    let ti = kernels::THREADS
        .iter()
        .position(|&n| n == threads)
        .unwrap_or(0);
    let kernel = |names: &[&str; 2]| {
        let at = |i: usize| spans.median_s(names[i]);
        (at(ti), at(0) / at(1))
    };
    let (wa_s, wa_speedup) = kernel(&kernels::WA);
    let (density_s, density_speedup) = kernel(&kernels::DENSITY);
    let (dct_s, _) = kernel(&kernels::DCT2D);
    let step_s = spans.median_s("place.step");
    let refined = &rep.refined;

    report.note(format!(
        "replay: {} steps, {} pad rounds, flow span {flow_s:.4} s against {job_s:.4} s untraced; \
         {} snapshots, density grid {}x{}; failed_frac {}",
        rep.gp_iterations,
        rep.pad_rounds,
        rep.snapshots.len(),
        rep.density_dims.0,
        rep.density_dims.1,
        report.tally.failed_frac()
    ));
    report.note(
        "place.evals_per_step is derived: place.step_s / (place.wa_grad_s + place.density_s)"
            .into(),
    );
    report.metric("gen.generate_s", spans.median_s("gen.generate"), "s");
    report.metric("db.parse_s", spans.median_s("db.parse"), "s");
    report.metric("place.steps", spans.count("place.step") as f64, "count");
    report.metric("place.step_s", step_s, "s");
    report.metric("place.gp_s", spans.self_total_s("place.step"), "s");
    report.metric("place.wa_grad_s", wa_s, "s");
    report.metric("place.density_s", density_s, "s");
    report.metric("fft.dct2d_s", dct_s, "s");
    report.metric("place.evals_per_step", step_s / (wa_s + density_s), "ratio");
    report.metric("par.speedup_wa", wa_speedup, "ratio");
    report.metric("par.speedup_density", density_speedup, "ratio");
    report.metric("pad.rounds", spans.count("pad.optimize") as f64, "count");
    report.metric("pad.round_s", spans.median_s("pad.optimize"), "s");
    report.metric(
        "congest.estimate_s",
        spans.median_s("congest.estimate"),
        "s",
    );
    report.metric(
        "congest.reuse",
        reuse.iter().sum::<f64>() / reuse.len().max(1) as f64,
        "ratio",
    );
    report.metric(
        "legal.legalize_s",
        spans.self_total_s("legal.legalize"),
        "s",
    );
    report.metric("legal.avg_disp", rep.avg_displacement, "dbu");
    report.metric("dp.refine_s", spans.self_total_s("dp.refine"), "s");
    report.metric("dp.moves", refined.moves as f64, "count");
    report.metric(
        "dp.hpwl_gain_pct",
        100.0 * (refined.hpwl_before - refined.hpwl_after) / refined.hpwl_before,
        "%",
    );
    report.metric("route.route_s", spans.self_total_s("route.route"), "s");
    report.metric("route.rounds", rep.route.rounds as f64, "count");
    report.metric(
        "route.overflow_gcells",
        rep.route.overflow_gcells as f64,
        "count",
    );
    report.metric("route.hof_pct", rep.route.hof_pct, "%");
    report.metric("route.vof_pct", rep.route.vof_pct, "%");
    report.metric("serve.submit_s", serve_layer[0], "s");
    report.metric("serve.overhead_s", serve_layer[1], "s");
    report.metric("fsx.journal_lines", serve_layer[2], "count");
    report.metric("fsx.journal_bytes", serve_layer[3], "bytes");
    report.metric("trace.records", serve_layer[4], "count");
    report.metric("trace.overhead_pct", 100.0 * (flow_s - job_s) / job_s, "%");
    report.metric("failed_frac", report.tally.failed_frac(), "ratio");

    let spans_dir = Path::new(".bench_build").join("perfbench-spans");
    let spans_file = spans_dir.join(format!("{}-seed{}.jsonl", w.name, cfg.seed));
    std::fs::create_dir_all(&spans_dir)
        .and_then(|()| std::fs::write(&spans_file, spans.to_jsonl()))
        .map_err(|e| format!("write {}: {e}", spans_file.display()))?;
    report.note(format!(
        "{} spans written to {}",
        spans.all().len(),
        spans_file.display()
    ));
    Ok(report)
}
