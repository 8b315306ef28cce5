//! GP kernel timings on the replay's snapshot placements: the WA
//! wirelength gradient, the density evaluation and the 2-D DCT, each at 1
//! and at 2 threads. The 1- and 2-thread calls alternate, so drift in the
//! machine's speed hits both sides alike.

use crate::flow::Snapshot;
use crate::spans::Spans;
use puffer_db::design::Design;
use puffer_fft::{dct2, transform2d_threaded};
use puffer_place::wirelength::wa_wirelength_grad_threaded;
use puffer_place::{DensityModel, PlacerConfig};
use std::hint::black_box;

/// Thread counts the kernels are timed at.
pub const THREADS: [usize; 2] = [1, 2];

/// Span names per kernel, indexed like [`THREADS`].
pub const WA: [&str; 2] = ["place.wa_grad.t1", "place.wa_grad.t2"];
/// See [`WA`].
pub const DENSITY: [&str; 2] = ["place.density.t1", "place.density.t2"];
/// See [`WA`].
pub const DCT2D: [&str; 2] = ["fft.dct2d.t1", "fft.dct2d.t2"];

/// Times every kernel `reps` times per snapshot and thread count.
pub fn time_kernels(
    design: &Design,
    snapshots: &[Snapshot],
    dims: (usize, usize),
    reps: usize,
    spans: &mut Spans,
) {
    let netlist = design.netlist();
    let placer = PlacerConfig::default();
    let model = DensityModel::new(design, dims.0, dims.1);
    let bin = model.bin_w().min(model.bin_h());
    for snap in snapshots {
        // The placer's annealed γ and padded widths at that point.
        let gamma = bin * placer.gamma_factor * (1.0 + 19.0 * snap.overflow.clamp(0.0, 1.0));
        let eff: Vec<f64> = netlist
            .cells()
            .iter()
            .zip(&snap.padding)
            .map(|(c, p)| c.width + p)
            .collect();
        for _ in 0..reps {
            for (i, &t) in THREADS.iter().enumerate() {
                spans.span(WA[i], |_| {
                    black_box(wa_wirelength_grad_threaded(
                        netlist,
                        black_box(&snap.placement),
                        gamma,
                        t,
                    ))
                });
                spans.span(DENSITY[i], |_| {
                    black_box(model.evaluate_threaded(
                        netlist,
                        black_box(&snap.placement),
                        &eff,
                        placer.target_density,
                        t,
                    ))
                });
            }
        }
    }
    // A deterministic, non-trivial grid at the placer's bin dimensions.
    let (nx, ny) = dims;
    let data: Vec<f64> = (0..nx * ny)
        .map(|i| ((i * 7919) % 1009) as f64 / 1009.0)
        .collect();
    for _ in 0..reps * snapshots.len().max(1) {
        for (i, &t) in THREADS.iter().enumerate() {
            spans.span(DCT2D[i], |_| {
                black_box(transform2d_threaded(black_box(&data), nx, ny, dct2, t))
            });
        }
    }
}
