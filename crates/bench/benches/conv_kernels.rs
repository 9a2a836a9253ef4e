//! Convolution kernel throughput: f32 vs Q20, thread scaling of both, and
//! the three offloadable layer geometries of Table 2.

use bench::random_tensor;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qfixed::Q20;
use std::time::Duration;
use tensor::conv::{conv2d, Conv2dParams};
use tensor::{par, Shape4, Tensor};

fn layer_shapes() -> Vec<(&'static str, Shape4, Shape4)> {
    vec![
        // (name, input, weights) — data channels + 1 time channel.
        (
            "layer1",
            Shape4::new(1, 17, 32, 32),
            Shape4::new(16, 17, 3, 3),
        ),
        (
            "layer2_2",
            Shape4::new(1, 33, 16, 16),
            Shape4::new(32, 33, 3, 3),
        ),
        (
            "layer3_2",
            Shape4::new(1, 65, 8, 8),
            Shape4::new(64, 65, 3, 3),
        ),
    ]
}

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    for (name, xs, ws) in layer_shapes() {
        let macs = (xs.c * ws.n * 9 * xs.h * xs.w) as u64;
        g.throughput(Throughput::Elements(macs));
        let x = random_tensor(xs, 1);
        let w = random_tensor(ws, 2);
        g.bench_with_input(BenchmarkId::new("f32", name), &(), |b, _| {
            b.iter(|| black_box(conv2d(&x, &w, Conv2dParams::same_3x3())))
        });
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let wq: Tensor<Q20> = Tensor::from_f32_tensor(&w);
        g.bench_with_input(BenchmarkId::new("q20", name), &(), |b, _| {
            b.iter(|| black_box(conv2d(&xq, &wq, Conv2dParams::same_3x3())))
        });
    }
    g.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    // Layer1 geometry at batch 4, in f32 (K-ordered GEMM) and Q20
    // (offset-binary GEMM); both split output-channel blocks over threads.
    let x = random_tensor(Shape4::new(4, 17, 32, 32), 3);
    let w = random_tensor(Shape4::new(16, 17, 3, 3), 4);
    let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
    let wq: Tensor<Q20> = Tensor::from_f32_tensor(&w);
    let mut g = c.benchmark_group("conv2d_threads");
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    for threads in [1usize, 2] {
        g.bench_with_input(BenchmarkId::new("f32", threads), &threads, |b, &t| {
            par::set_threads(t);
            b.iter(|| black_box(conv2d(&x, &w, Conv2dParams::same_3x3())));
        });
        g.bench_with_input(BenchmarkId::new("q20", threads), &threads, |b, &t| {
            par::set_threads(t);
            b.iter(|| black_box(conv2d(&xq, &wq, Conv2dParams::same_3x3())));
        });
    }
    par::set_threads(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    g.finish();
}

criterion_group!(benches, bench_conv, bench_thread_scaling);
criterion_main!(benches);
