//! The flow layers as the benchmark drives them: design set-up, the job
//! (place → refine → evaluate, the calls `puffer place`, `puffer refine`
//! and `puffer eval` make), output checks, and the traced replay.

use crate::spans::Spans;
use puffer::{evaluate_with, FlowResult, Job, PufferConfig, ScaleClass};
use puffer_audit::{PlacementAudit, PlacementStage, Validate};
use puffer_budget::fsx;
use puffer_congest::CongestionEstimator;
use puffer_db::design::{Design, Placement};
use puffer_db::hpwl::total_hpwl;
use puffer_db::io::{read_design, write_design};
use puffer_dp::{refine, DetailedConfig, DetailedOutcome};
use puffer_gen::{generate, GeneratorConfig};
use puffer_legal::{check_legal, discretize_padding, enforce_budget, legalize};
use puffer_pad::RoutabilityOptimizer;
use puffer_place::{GlobalPlacer, IterationStats};
use puffer_route::{GlobalRouter, RouteReport, RouterConfig};
use std::path::Path;

/// The flow configuration of a workload: every thread count is set.
pub fn flow_config(threads: usize) -> PufferConfig {
    let mut cfg = PufferConfig::default();
    cfg.placer.threads = threads;
    cfg.estimator.threads = threads;
    cfg
}

/// The router configuration of `puffer eval --threads <threads>`.
pub fn router_config(threads: usize) -> RouterConfig {
    RouterConfig {
        threads,
        ..RouterConfig::default()
    }
}

/// The detailed-placement configuration `puffer refine` derives from the
/// design's size class.
pub fn dp_config(design: &Design) -> DetailedConfig {
    let class = ScaleClass::classify(design.netlist().num_cells());
    DetailedConfig {
        window: class.dp_window(),
        max_passes: class.dp_passes(),
        ..DetailedConfig::default()
    }
}

/// Generates a design, writes it through `puffer_db::io` the way
/// `puffer gen` does, and reads it back the way `puffer place` does. The
/// design the flow sees is the one read back.
pub fn prepare_design(
    cfg: &GeneratorConfig,
    path: &Path,
    spans: &mut Spans,
) -> Result<Design, String> {
    let design = spans
        .span("gen.generate", |_| generate(cfg))
        .map_err(|e| format!("generate {}: {e}", cfg.name))?;
    spans.span("db.write", |_| {
        let mut buf = Vec::new();
        write_design(&design, &mut buf).map_err(|e| format!("write design: {e}"))?;
        fsx::atomic_write(path, &buf).map_err(|e| format!("write {}: {e}", path.display()))
    })?;
    spans.span("db.parse", |_| {
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        read_design(file).map_err(|e| format!("parse {}: {e}", path.display()))
    })
}

/// Everything one job outputs.
pub struct JobOutput {
    /// `puffer place`: the legal placement and flow statistics.
    pub place: FlowResult,
    /// `puffer refine`: the detailed-placement outcome.
    pub refined: DetailedOutcome,
    /// `puffer eval` of the refined placement.
    pub route: RouteReport,
}

impl JobOutput {
    /// HPWL of the final, refined placement.
    pub fn hpwl(&self, design: &Design) -> f64 {
        total_hpwl(design.netlist(), &self.refined.placement)
    }
}

/// One job: place → refine → evaluate, untraced.
pub fn run_job(design: &Design, threads: usize) -> Result<JobOutput, String> {
    let place = Job::new(flow_config(threads))
        .run(design)
        .map_err(|e| format!("place: {e}"))?;
    let zeros = vec![0u32; design.netlist().num_cells()];
    let refined = refine(design, &place.placement, &zeros, &dp_config(design))
        .map_err(|e| format!("refine: {e}"))?;
    let route = evaluate_with(design, &refined.placement, &router_config(threads));
    Ok(JobOutput {
        place,
        refined,
        route,
    })
}

/// Checks a final placement: legal (`check_legal`) and valid for the
/// audit's placement validator. Returns one message per failed check.
pub fn check_placement(design: &Design, placement: &Placement) -> Vec<String> {
    let mut failures = Vec::new();
    let zeros = vec![0u32; design.netlist().num_cells()];
    if let Err(e) = check_legal(design, placement, &zeros) {
        failures.push(format!("check_legal: {e}"));
    }
    let audit = PlacementAudit {
        design,
        placement,
        stage: PlacementStage::Legal,
    };
    if let Err(report) = audit.validate() {
        failures.push(format!(
            "placement audit: {}",
            report.to_string().trim_end()
        ));
    }
    failures
}

/// Checks a route report: every Table II quantity is finite and not
/// negative. Returns one message per failed check.
pub fn check_route(report: &RouteReport) -> Vec<String> {
    [
        ("hof_pct", report.hof_pct),
        ("vof_pct", report.vof_pct),
        ("wirelength", report.wirelength),
    ]
    .iter()
    .filter(|(_, v)| !(v.is_finite() && *v >= 0.0))
    .map(|(k, v)| format!("route report {k} = {v}"))
    .collect()
}

/// Checks every output of one job.
pub fn check_job(design: &Design, out: &JobOutput) -> Vec<String> {
    let mut failures = check_placement(design, &out.place.placement);
    failures.extend(check_placement(design, &out.refined.placement));
    failures.extend(check_route(&out.route));
    failures
}

/// A placement the replay passed through, kept for the kernel timings.
pub struct Snapshot {
    /// Cell positions.
    pub placement: Placement,
    /// Per-cell padding applied at that point.
    pub padding: Vec<f64>,
    /// Density overflow of the step that produced it.
    pub overflow: f64,
    /// Whether a padding round estimated congestion on it.
    pub pad_round: bool,
}

/// What the traced replay produced.
pub struct Replay {
    /// Legalized placement (`puffer place` output).
    pub legal: Placement,
    /// HPWL of `legal`.
    pub hpwl: f64,
    /// Global-placement iterations.
    pub gp_iterations: usize,
    /// Padding rounds.
    pub pad_rounds: usize,
    /// Average legalization displacement.
    pub avg_displacement: f64,
    /// Detailed placement of `legal`.
    pub refined: DetailedOutcome,
    /// Route report of the refined placement.
    pub route: RouteReport,
    /// Placements at the first step, before every padding round, and at
    /// the end of global placement.
    pub snapshots: Vec<Snapshot>,
    /// The placer's density bin grid.
    pub density_dims: (usize, usize),
}

/// Replays one job through each layer's public calls, one span per call:
/// the global-placement loop with its padding rounds exactly as
/// `PufferPlacer` runs it (no budget, ladder, watchdog or journal), then
/// legalization with inherited padding, `refine` and `route`.
pub fn replay(design: &Design, threads: usize, spans: &mut Spans) -> Result<Replay, String> {
    let cfg = flow_config(threads);
    spans.span("flow", |spans| {
        let class = ScaleClass::classify(design.netlist().num_cells());
        let mut optimizer = spans.span("pad.new", |_| {
            let mut opt =
                RoutabilityOptimizer::new(design, cfg.estimator.clone(), cfg.strategy.clone())
                    .with_feature_config(cfg.features.clone());
            if let Some(factor) = class.congestion_coarsen_factor() {
                opt.coarsen_estimator(design, factor);
            }
            opt
        });
        let mut placer = spans
            .span("place.new", |_| {
                GlobalPlacer::new(design, cfg.placer.clone())
            })
            .map_err(|e| format!("place: {e}"))?;
        let mut snapshots = Vec::new();
        let mut last: IterationStats = spans.span("place.step", |_| placer.step());
        snapshots.push(Snapshot {
            placement: placer.placement().clone(),
            padding: placer.padding().to_vec(),
            overflow: last.overflow,
            pad_round: false,
        });
        spans.span("gp", |spans| loop {
            if spans.span("pad.trigger", |_| optimizer.should_trigger(last.overflow)) {
                let snapshot = placer.placement().clone();
                snapshots.push(Snapshot {
                    placement: snapshot.clone(),
                    padding: placer.padding().to_vec(),
                    overflow: last.overflow,
                    pad_round: true,
                });
                spans.span("pad.optimize", |_| optimizer.optimize(design, &snapshot));
                spans.span("place.set_padding", |_| {
                    placer.set_padding(optimizer.padding().to_vec())
                });
            }
            if last.iter >= cfg.placer.max_iters || last.overflow <= cfg.placer.stop_overflow {
                break;
            }
            last = spans.span("place.step", |_| placer.step());
        });
        let global = placer.placement().clone();
        snapshots.push(Snapshot {
            placement: global.clone(),
            padding: placer.padding().to_vec(),
            overflow: placer.overflow(),
            pad_round: false,
        });

        let cells = design.netlist().num_cells();
        let zeros = vec![0u32; cells];
        let discrete = if cfg.inherit_padding {
            let continuous = optimizer.padding().to_vec();
            let mut d = spans.span("legal.discretize", |_| {
                discretize_padding(&continuous, cfg.strategy.theta)
            });
            spans.span("legal.enforce_budget", |_| {
                enforce_budget(
                    design.netlist(),
                    &continuous,
                    &mut d,
                    design.tech().site_width,
                    cfg.strategy.legal_budget,
                )
            });
            d
        } else {
            zeros.clone()
        };
        let outcome = match spans.span("legal.legalize", |_| legalize(design, &global, &discrete)) {
            Ok(o) => o,
            Err(_) if cfg.inherit_padding => spans
                .span("legal.legalize", |_| legalize(design, &global, &zeros))
                .map_err(|e| format!("legalize: {e}"))?,
            Err(e) => return Err(format!("legalize: {e}")),
        };
        spans
            .span("legal.check", |_| {
                check_legal(design, &outcome.placement, &zeros)
            })
            .map_err(|e| format!("check_legal: {e}"))?;
        let refined = spans
            .span("dp.refine", |_| {
                refine(design, &outcome.placement, &zeros, &dp_config(design))
            })
            .map_err(|e| format!("refine: {e}"))?;
        let route = spans.span("route.route", |_| {
            GlobalRouter::new(design, router_config(threads)).route(design, &refined.placement)
        });
        Ok(Replay {
            hpwl: total_hpwl(design.netlist(), &outcome.placement),
            legal: outcome.placement,
            gp_iterations: placer.iterations(),
            pad_rounds: optimizer.state().round,
            avg_displacement: outcome.avg_displacement,
            refined,
            route,
            snapshots,
            density_dims: placer.density_dims(),
        })
    })
}

/// Differences between the replay and the untraced job; empty when the
/// replay is bit-identical (same HPWL bits, GP iterations, padding rounds
/// and placements).
pub fn replay_mismatches(design: &Design, replay: &Replay, job: &JobOutput) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut differ = |what: &str, same: bool, detail: String| {
        if !same {
            diffs.push(format!("replay {what} differs: {detail}"));
        }
    };
    differ(
        "hpwl",
        replay.hpwl.to_bits() == job.place.hpwl.to_bits(),
        format!("{:?} vs {:?}", replay.hpwl, job.place.hpwl),
    );
    differ(
        "gp iterations",
        replay.gp_iterations == job.place.gp_iterations,
        format!("{} vs {}", replay.gp_iterations, job.place.gp_iterations),
    );
    differ(
        "pad rounds",
        replay.pad_rounds == job.place.pad_rounds,
        format!("{} vs {}", replay.pad_rounds, job.place.pad_rounds),
    );
    differ(
        "legal placement",
        replay.legal == job.place.placement,
        String::new(),
    );
    differ(
        "refined placement",
        replay.refined.placement == job.refined.placement,
        String::new(),
    );
    let (a, b) = (
        total_hpwl(design.netlist(), &replay.refined.placement),
        job.hpwl(design),
    );
    differ(
        "refined hpwl",
        a.to_bits() == b.to_bits(),
        format!("{a:?} vs {b:?}"),
    );
    differ(
        "routed wirelength",
        replay.route.wirelength.to_bits() == job.route.wirelength.to_bits(),
        format!(
            "{:?} vs {:?}",
            replay.route.wirelength, job.route.wirelength
        ),
    );
    diffs
}

/// Replays the padding rounds' congestion estimates on a second estimator
/// built like the flow's, one `congest.estimate` span per call. The
/// estimator sees the same snapshots in the same order, so its dirty-net
/// reuse matches the flow's.
pub fn shadow_congestion(
    design: &Design,
    threads: usize,
    snapshots: &[Snapshot],
    spans: &mut Spans,
) {
    let mut est = estimator(design, threads);
    for s in snapshots.iter().filter(|s| s.pad_round) {
        spans.span("congest.estimate", |_| {
            std::hint::black_box(est.estimate_incremental(design, &s.placement))
        });
    }
}

/// The reuse rate of each incremental estimate over `snapshots`, from the
/// `congest.dirty` records the estimator writes to the trace at `sink`.
pub fn congestion_reuse(
    design: &Design,
    threads: usize,
    snapshots: &[Snapshot],
    sink: &Path,
) -> Result<Vec<f64>, String> {
    let trace = puffer_trace::Trace::with_sink(sink).map_err(|e| format!("trace sink: {e}"))?;
    let mut est = estimator(design, threads);
    est.set_trace(trace.clone());
    for s in snapshots.iter().filter(|s| s.pad_round) {
        est.estimate_incremental(design, &s.placement);
    }
    trace.flush().map_err(|e| format!("trace flush: {e}"))?;
    let records = puffer_trace::read_jsonl(sink).map_err(|e| format!("read trace: {e}"))?;
    Ok(records
        .iter()
        .filter(|r| r.kind() == Some("congest.dirty"))
        .filter_map(|r| r.num("reuse"))
        .collect())
}

fn estimator(design: &Design, threads: usize) -> CongestionEstimator {
    let mut est = CongestionEstimator::new(design, flow_config(threads).estimator);
    let class = ScaleClass::classify(design.netlist().num_cells());
    if let Some(factor) = class.congestion_coarsen_factor() {
        est.coarsen(design, factor);
    }
    est
}
