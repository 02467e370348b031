//! Criterion: throughput of the three convolution algorithms on a
//! VGG-shaped layer slice (the numeric substrate itself, not the FPGA
//! model). Winograd should need ~4x fewer multiplies than direct; im2col
//! trades memory movement for GEMM regularity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use winofuse_conv::cook_toom::f23;
use winofuse_conv::tensor::random_tensor;
use winofuse_conv::{direct, im2col, winograd, ConvGeometry};

fn bench_conv_algorithms(c: &mut Criterion) {
    // A slice of a VGG-like layer: 8 channels of 32x32, 8 output maps.
    let geom = ConvGeometry::new(32, 32, 3, 1, 1).unwrap();
    let x = random_tensor(1, 8, 32, 32, 1);
    let k = random_tensor(8, 8, 3, 3, 2);
    let macs = (8 * 32 * 32 * 8 * 9) as u64;

    let mut group = c.benchmark_group("conv2d_32x32x8");
    group.throughput(Throughput::Elements(macs));
    group.bench_function("direct", |b| {
        b.iter(|| direct::conv2d(&x, &k, geom).unwrap())
    });
    group.bench_function("im2col_gemm", |b| {
        b.iter(|| im2col::conv2d(&x, &k, geom).unwrap())
    });
    group.bench_function("winograd_f43", |b| {
        b.iter(|| winograd::conv2d_f43(&x, &k, geom).unwrap())
    });
    group.bench_function("winograd_f23", |b| {
        b.iter(|| winograd::conv2d_with(&x, &k, geom, &f23()).unwrap())
    });
    group.finish();
}

fn bench_pretransformed_filters(c: &mut Criterion) {
    // Offline filter transform vs reusing a transformed bank — the reason
    // hardware ships transformed weights.
    let geom = ConvGeometry::new(16, 16, 3, 1, 1).unwrap();
    let x = random_tensor(1, 4, 16, 16, 3);
    let k = random_tensor(4, 4, 3, 3, 4);
    let t = winofuse_conv::cook_toom::f43();
    let bank = winograd::TransformedFilters::new(&k, &t).unwrap();

    let mut group = c.benchmark_group("winograd_filter_reuse");
    group.bench_function("transform_every_call", |b| {
        b.iter(|| winograd::conv2d_with(&x, &k, geom, &t).unwrap())
    });
    group.bench_function("pretransformed_bank", |b| {
        b.iter(|| winograd::conv2d_pretransformed(&x, &bank, geom, &t).unwrap())
    });
    group.finish();
}

fn bench_fixed_point(c: &mut Criterion) {
    let geom = ConvGeometry::new(16, 16, 3, 1, 1).unwrap();
    let xf = random_tensor(1, 4, 16, 16, 5);
    let kf = random_tensor(4, 4, 3, 3, 6);
    let xq = xf.cast::<winofuse_conv::fixed::Fix16>();
    let kq = kf.cast::<winofuse_conv::fixed::Fix16>();

    let mut group = c.benchmark_group("datapath");
    group.bench_function("f32_direct", |b| {
        b.iter(|| direct::conv2d(&xf, &kf, geom).unwrap())
    });
    group.bench_function("fix16_wide_accumulator", |b| {
        b.iter(|| direct::conv2d_fix16(&xq, &kq, geom).unwrap())
    });
    group.finish();

    // Scaling with channel count.
    let mut group = c.benchmark_group("direct_channel_scaling");
    for ch in [1usize, 4, 16] {
        let x = random_tensor(1, ch, 16, 16, ch as u64);
        let k = random_tensor(4, ch, 3, 3, ch as u64 + 1);
        group.bench_with_input(BenchmarkId::from_parameter(ch), &ch, |b, _| {
            b.iter(|| direct::conv2d(&x, &k, geom).unwrap())
        });
    }
    group.finish();
}

fn bench_fixed_winograd(c: &mut Criterion) {
    let geom = ConvGeometry::new(16, 16, 3, 1, 1).unwrap();
    let x = random_tensor(1, 4, 16, 16, 11).cast::<winofuse_conv::fixed::Fix16>();
    let k = random_tensor(4, 4, 3, 3, 12).cast::<winofuse_conv::fixed::Fix16>();
    let t = winofuse_conv::cook_toom::f43();
    c.bench_function("winograd_fix16_f43", |b| {
        b.iter(|| winograd::conv2d_fix16_with(&x, &k, geom, &t).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conv_algorithms, bench_pretransformed_filters, bench_fixed_point,
              bench_fixed_winograd
}
criterion_main!(benches);
