//! Head-to-head benchmarks of the batched loop kernels: the SoA
//! [`BatchLoop`] against one-lane-at-a-time [`DiscreteLoop`] runs, and the
//! blocked lane-block engine against the scalar SoA path. These are the
//! criterion counterparts of the `repro bench` cases that feed the
//! committed `BENCH_*.json` trajectory.

use adaptive_clock::batch::BatchLoop;
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use experiments::bench::{lane_specs, scaling_specs};
use experiments::config::PaperParams;
use std::hint::black_box;

fn bench_loop_batching(c: &mut Criterion) {
    let params = PaperParams::default();
    let setpoint = params.setpoint;
    let steps = 10_000usize;
    let lanes = lane_specs(setpoint).len();
    let cs = constant(setpoint as f64);
    let zero = constant(0.0);
    let amp = params.amplitude();
    let e_fn = move |n: i64| amp * (std::f64::consts::TAU * n as f64 / 37.5).sin();

    let mut g = c.benchmark_group("loop-batching");
    g.throughput(Throughput::Elements((lanes * steps) as u64));
    g.bench_function("sequential-lanes", |b| {
        b.iter(|| {
            for (m, ctrl, q) in lane_specs(setpoint) {
                let mut dl = DiscreteLoop::new(m, ctrl, q);
                black_box(dl.run(
                    &LoopInputs {
                        setpoint: &cs,
                        homogeneous: &e_fn,
                        heterogeneous: &zero,
                    },
                    steps,
                ));
            }
        })
    });
    g.bench_function("batched-lanes", |b| {
        let mut batch = BatchLoop::new();
        for (m, ctrl, q) in lane_specs(setpoint) {
            batch.push(m, ctrl, q);
        }
        let inputs: Vec<LoopInputs<'_>> = (0..lanes)
            .map(|_| LoopInputs {
                setpoint: &cs,
                homogeneous: &e_fn,
                heterogeneous: &zero,
            })
            .collect();
        b.iter(|| {
            batch.reset();
            black_box(batch.run(&inputs, steps))
        })
    });
    g.finish();
}

fn bench_lane_blocks(c: &mut Criterion) {
    let params = PaperParams::default();
    let setpoint = params.setpoint;
    let steps = 2_000usize;
    let lanes = 64usize;
    let cs = constant(setpoint as f64);
    let zero = constant(0.0);
    let amp = params.amplitude();
    let e_fn = move |n: i64| amp * (std::f64::consts::TAU * n as f64 / 37.5).sin();
    let inputs: Vec<LoopInputs<'_>> = (0..lanes)
        .map(|_| LoopInputs {
            setpoint: &cs,
            homogeneous: &e_fn,
            heterogeneous: &zero,
        })
        .collect();

    let mut g = c.benchmark_group("lane-blocks");
    g.throughput(Throughput::Elements((lanes * steps) as u64));
    g.bench_function("scalar-soa-64", |b| {
        let mut soa = BatchLoop::new();
        for (m, ctrl, q) in scaling_specs(setpoint, 0..lanes) {
            soa.push(m, ctrl, q);
        }
        b.iter(|| {
            soa.reset();
            black_box(soa.run_scalar(&inputs, steps))
        })
    });
    g.bench_function("blocked-64", |b| {
        let mut blk = BatchLoop::new();
        for (m, ctrl, q) in scaling_specs(setpoint, 0..lanes) {
            blk.push(m, ctrl, q);
        }
        b.iter(|| {
            blk.reset();
            black_box(blk.run(&inputs, steps))
        })
    });
    g.finish();
}

criterion_group!(compiled, bench_loop_batching, bench_lane_blocks);
criterion_main!(compiled);
