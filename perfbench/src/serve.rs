//! The `serve_small` workload: the in-process `puffer-serve` engine with
//! one worker under a closed loop. One client submits a place job, waits
//! for its result, and only then submits the next.

use crate::flow::flow_config;
use crate::spans::Spans;
use crate::stats::Outcome;
use puffer::PufferPlacer;
use puffer_db::design::{Design, Placement};
use puffer_db::io::write_placement;
use puffer_serve::{Engine, EngineHandle, JobKind, JobSpec, ServeConfig};
use puffer_trace::parse_record;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine workers.
pub const WORKERS: usize = 1;
/// Threads of each job's flow.
pub const JOB_THREADS: usize = 1;
/// How long the client waits for one result before counting an error;
/// short enough that a stuck job still lets the run end in time.
const WAIT: Duration = Duration::from_secs(60);

/// The engine configuration: the defaults (queue, checkpoint cadence,
/// retries) with the worker count and journal directory set.
pub fn serve_config(journal_dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        journal_dir: journal_dir.to_path_buf(),
        ..ServeConfig::default()
    }
}

/// The place job for the design file at `design`.
pub fn place_spec(design: &Path, out: &Path) -> JobSpec {
    JobSpec {
        kind: JobKind::Place,
        design: Some(design.to_string_lossy().into_owned()),
        out: Some(out.to_string_lossy().into_owned()),
        threads: Some(JOB_THREADS),
        ..JobSpec::default()
    }
}

/// One completed round trip of the closed loop.
pub struct Sample {
    /// Engine job id.
    pub id: u64,
    /// Submit to result, seconds.
    pub latency_s: f64,
    /// The job's own flow time (`runtime_s` of the result), when it has one.
    pub runtime_s: Option<f64>,
    /// The terminal record.
    pub record: String,
    /// Where the job wrote its placement.
    pub out: PathBuf,
}

/// What the closed loop saw.
#[derive(Default)]
pub struct LoopResult {
    /// Jobs that reached a terminal record.
    pub samples: Vec<Sample>,
    /// Submissions the engine refused.
    pub rejected: usize,
    /// Submissions whose result never arrived.
    pub lost: usize,
    /// Wall time of the loop, seconds.
    pub wall_s: f64,
}

/// Per-job counts read from the job directory after the job finished.
pub struct JournalCounts {
    /// Lines of `run.pj`, the checkpoint journal.
    pub journal_lines: usize,
    /// Bytes of `run.pj`.
    pub journal_bytes: usize,
    /// Lines of `run.jsonl`, the job's telemetry.
    pub trace_records: usize,
}

/// Starts an engine, submits the first job and reports how long the
/// engine took to accept it; the job is then cancelled and the engine
/// stopped.
pub fn time_first_accept(journal_dir: &Path, design: &Path, out: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let accepted = Engine::run(serve_config(journal_dir), |h| {
        let r = h.submit(place_spec(design, out));
        let t = start.elapsed().as_secs_f64();
        if let Ok((id, _)) = &r {
            let _ = h.cancel(*id);
            let _ = h.wait(*id, Some(WAIT));
        }
        r.map(|_| t)
            .map_err(|rej| format!("{}: {}", rej.reason, rej.detail))
    })
    .map_err(|e| format!("engine: {e:?}"))?;
    accepted
}

/// Runs the closed loop for `seconds` (at least `min_jobs` jobs), each job
/// placing the design file at `design`. With `spans`, each submit and wait
/// is a span, and each job's journal is counted once it finishes.
pub fn closed_loop(
    journal_dir: &Path,
    design: &Path,
    seconds: f64,
    min_jobs: usize,
    mut spans: Option<&mut Spans>,
    counts: &mut Vec<JournalCounts>,
) -> Result<LoopResult, String> {
    Engine::run(serve_config(journal_dir), |h: &EngineHandle<'_>| {
        let mut res = LoopResult::default();
        let loop_start = Instant::now();
        let mut n = 0usize;
        while n < min_jobs || loop_start.elapsed().as_secs_f64() < seconds {
            let out = journal_dir.join(format!("out-{n}.pl"));
            let spec = place_spec(design, &out);
            let t0 = Instant::now();
            let submitted = match spans.as_deref_mut() {
                Some(s) => {
                    s.set_job(n as u64 + 1);
                    s.span("serve.submit", |_| h.submit(spec))
                }
                None => h.submit(spec),
            };
            n += 1;
            let id = match submitted {
                Ok((id, _)) => id,
                Err(rej) => {
                    eprintln!("serve: job {n} rejected: {}: {}", rej.reason, rej.detail);
                    res.rejected += 1;
                    continue;
                }
            };
            let waited = match spans.as_deref_mut() {
                Some(s) => s.span("serve.wait", |_| h.wait(id, Some(WAIT))),
                None => h.wait(id, Some(WAIT)),
            };
            let latency_s = t0.elapsed().as_secs_f64();
            let Ok(record) = waited else {
                eprintln!("serve: job {id} lost: {waited:?}");
                res.lost += 1;
                continue;
            };
            if spans.is_some() {
                counts.push(journal_counts(&journal_dir.join(format!("job-{id}"))));
            }
            let runtime_s = parse_record(&record).ok().and_then(|r| r.num("runtime_s"));
            res.samples.push(Sample {
                id,
                latency_s,
                runtime_s,
                record,
                out,
            });
        }
        res.wall_s = loop_start.elapsed().as_secs_f64();
        res
    })
    .map_err(|e| format!("engine: {e:?}"))
}

fn journal_counts(dir: &Path) -> JournalCounts {
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
    let pj = read("run.pj");
    JournalCounts {
        journal_lines: pj.lines().count(),
        journal_bytes: pj.len(),
        trace_records: read("run.jsonl").lines().count(),
    }
}

/// A direct in-process run of a job's spec: the reference every serve
/// result must equal.
pub struct Reference {
    /// The flow's legal placement.
    pub placement: Placement,
    /// Its `write_placement` rendering (what the job writes to `out`).
    pub rendered: Vec<u8>,
    /// The flow's HPWL.
    pub hpwl: f64,
    /// Global-placement iterations.
    pub gp_iterations: usize,
    /// Padding rounds.
    pub pad_rounds: usize,
}

/// Runs the flow a place job runs, directly.
pub fn reference(design: &Design) -> Result<Reference, String> {
    let r = PufferPlacer::new(flow_config(JOB_THREADS))
        .place(design)
        .map_err(|e| format!("reference place: {e}"))?;
    let mut rendered = Vec::new();
    write_placement(&r.placement, &mut rendered).map_err(|e| format!("render: {e}"))?;
    Ok(Reference {
        placement: r.placement,
        rendered,
        hpwl: r.hpwl,
        gp_iterations: r.gp_iterations,
        pad_rounds: r.pad_rounds,
    })
}

/// Checks one serve result against the direct run of its spec: the same
/// HPWL bits, iterations and padding rounds, and the same placement file
/// bytes. Returns the outcome and a message per difference.
pub fn check_sample(sample: &Sample, reference: &Reference) -> (Outcome, Vec<String>) {
    let rec = match parse_record(&sample.record) {
        Ok(r) => r,
        Err(e) => {
            return (
                Outcome::Error,
                vec![format!("job {}: bad record: {e}", sample.id)],
            )
        }
    };
    if rec.kind() != Some("serve.result") || rec.str_field("state") != Some("done") {
        return (
            Outcome::Error,
            vec![format!("job {}: {}", sample.id, sample.record)],
        );
    }
    let mut failures = Vec::new();
    let mut expect = |what: &str, same: bool| {
        if !same {
            failures.push(format!(
                "job {}: {what} differs from the direct run",
                sample.id
            ));
        }
    };
    expect(
        "hpwl",
        rec.num("hpwl").map(f64::to_bits) == Some(reference.hpwl.to_bits()),
    );
    expect(
        "gp_iterations",
        rec.num("gp_iterations") == Some(reference.gp_iterations as f64),
    );
    expect(
        "pad_rounds",
        rec.num("pad_rounds") == Some(reference.pad_rounds as f64),
    );
    expect("cancelled flag", rec.num("cancelled") == Some(0.0));
    match std::fs::read(&sample.out) {
        Ok(bytes) => expect("placement", bytes == reference.rendered),
        Err(e) => failures.push(format!(
            "job {}: read {}: {e}",
            sample.id,
            sample.out.display()
        )),
    }
    (Outcome::Ok, failures)
}
