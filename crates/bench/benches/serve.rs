//! Online-serving benches: what the serving simulator itself costs.
//!
//! * `serve_dispatch/*` — the micro-batcher's release planning over a
//!   256-image Poisson stream on the prebuilt 2-board plan timeline:
//!   the zero-deadline fast path (never consults the pipeline), the
//!   deadline policy (one resumable event sim, advanced dispatch by
//!   dispatch), and fixed-batch-32 — plus the deadline policy over a
//!   16 384-image stream, where cost must grow linearly with length.
//!   Dispatch is the per-request hot path of a real serving loop, so
//!   its cost must stay far below one bottleneck interval.
//! * `serve_sweep/*` — the full 12-point `sweep_timeline` load/latency
//!   curve end to end, the artifact `repro -- serve` and CI regenerate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rodenet::{BnMode, NetSpec, Variant};
use std::time::Duration;
use zynq_sim::engine::Offload;
use zynq_sim::plan::PlFormat;
use zynq_sim::serve::{sweep_timeline, ArrivalProcess, Dispatch, LoadSweep, MicroBatcher};
use zynq_sim::timing::{PlModel, PsModel};
use zynq_sim::{
    plan_cluster, Cluster, ClusterPlan, ClusterRequest, Interconnect, Partitioner, Replication,
    Schedule, ARTY_Z7_20,
};

const IMAGES: usize = 256;
/// The long stream the deadline policy must plan in linear time.
const LONG: usize = 16_384;

fn rack_plan() -> ClusterPlan {
    let spec = NetSpec::new(Variant::OdeNet, 20);
    plan_cluster(
        &spec,
        &ClusterRequest {
            cluster: Cluster::homogeneous(&ARTY_Z7_20, 2, Interconnect::GIGABIT_ETHERNET),
            offload: Offload::Auto,
            bn: BnMode::OnTheFly,
            ps: PsModel::Calibrated,
            pl: PlModel::default(),
            precision: PlFormat::Q20.into(),
            schedule: Schedule::Pipelined,
            partitioner: Partitioner::FirstFit,
            replication: Replication::None,
        },
    )
    .expect("two XC7Z020s carry ODENet-20 at Q20")
}

fn bench_dispatch(c: &mut Criterion) {
    let plan = rack_plan();
    let timeline = plan.timeline().to_vec();
    // Half the pipelined ceiling: the moderate-load regime where the
    // deadline policy actually consults head-idle.
    let rate = 0.5 / plan.bottleneck_seconds();
    let arrivals = ArrivalProcess::Poisson { rate }.arrivals(IMAGES, 42);

    let mut g = c.benchmark_group("serve_dispatch");
    g.measurement_time(Duration::from_secs(4));
    g.throughput(Throughput::Elements(IMAGES as u64));
    let policies: [(&str, Dispatch); 3] = [
        ("admit-on-arrival", Dispatch::Deadline { deadline: 0.0 }),
        ("deadline-50ms", Dispatch::Deadline { deadline: 0.05 }),
        ("fixed-batch-32", Dispatch::FixedBatch { size: 32 }),
    ];
    for (name, dispatch) in policies {
        g.bench_with_input(BenchmarkId::new(name, IMAGES), &(), |b, _| {
            b.iter(|| black_box(MicroBatcher::new(dispatch).release_plan(&timeline, &arrivals)))
        });
    }
    let long = ArrivalProcess::Poisson { rate }.arrivals(LONG, 42);
    g.throughput(Throughput::Elements(LONG as u64));
    g.bench_with_input(BenchmarkId::new("deadline-50ms", LONG), &(), |b, _| {
        let dispatch = Dispatch::Deadline { deadline: 0.05 };
        b.iter(|| black_box(MicroBatcher::new(dispatch).release_plan(&timeline, &long)))
    });
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let plan = rack_plan();
    let timeline = plan.timeline().to_vec();
    let sweep = LoadSweep::default();
    let mut g = c.benchmark_group("serve_sweep");
    g.measurement_time(Duration::from_secs(6));
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        (sweep.fractions.len() * IMAGES) as u64,
    ));
    g.bench_with_input(BenchmarkId::new("poisson-12pt", IMAGES), &(), |b, _| {
        b.iter(|| black_box(sweep_timeline(&timeline, &sweep).expect("valid sweep")))
    });
    g.finish();
}

criterion_group!(benches, bench_dispatch, bench_sweep);
criterion_main!(benches);
