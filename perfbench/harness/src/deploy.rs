//! The deployments the workloads run: networks, engine configurations,
//! serve requests and the fault plan. Everything here goes through the
//! library's public API only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rodenet::{NetSpec, Network, Variant};
use tensor::{Shape4, Tensor};
use zynq_sim::cluster::{Cluster, ClusterPlan, Interconnect, Schedule};
use zynq_sim::engine::{BackendKind, Engine, EngineBuilder, Offload};
use zynq_sim::fault::{FaultEvent, FaultPlan};
use zynq_sim::partition::Partitioner;
use zynq_sim::plan::PlFormat;
use zynq_sim::planner::OffloadTarget;
use zynq_sim::replica::Replication;
use zynq_sim::serve::{ArrivalProcess, Dispatch, ServeRequest, Window};
use zynq_sim::timing::PlModel;
use zynq_sim::{ARTY_Z7_10, ARTY_Z7_20};

/// Weights are part of the program under test, not of its input, so
/// they stay fixed across seeds; only the images and arrival streams
/// come from `--seed`.
const WEIGHT_SEED: u64 = 42;
const CLASSES: usize = 100;

/// Images in one `Engine::infer_batch` op of `infer_ps`.
pub const PS_BATCH: usize = 32;
/// Images in one `Engine::infer_batch` op of `infer_hybrid`. The Q20
/// circuits cost about three times the f32 path per image, so a batch of
/// 32 would leave only about ten ops in a run, too few for a steady
/// `op_s_tail`; a batch of 8 leaves about as many ops as `infer_ps` has.
pub const HYBRID_BATCH: usize = 8;
/// Images in one served stream.
pub const STREAM: usize = 512;
/// Offered load as a fraction of the pipelined ceiling.
const LOAD: f64 = 0.8;

pub fn odenet(n: usize) -> Network {
    Network::new(
        NetSpec::new(Variant::OdeNet, n).with_classes(CLASSES),
        WEIGHT_SEED,
    )
}

/// `count` seeded 1×3×32×32 images in [-1, 1).
pub fn images(seed: u64, count: usize) -> Vec<Tensor<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            Tensor::from_fn(Shape4::new(1, 3, 32, 32), |_, _, _, _| {
                rng.random::<f32>() * 2.0 - 1.0
            })
        })
        .collect()
}

/// ODENet-56 on the PYNQ-Z2, all in f32 software on the PS.
pub fn ps_engine(net: &Network) -> EngineBuilder<'_> {
    Engine::builder(net).offload(Offload::Target(OffloadTarget::None))
}

/// ODENet-56 on the PYNQ-Z2 with the planner's Q20 placement.
pub fn hybrid_engine(net: &Network) -> EngineBuilder<'_> {
    Engine::builder(net)
        .backend(BackendKind::Hybrid)
        .offload(Offload::Auto)
}

/// The `online_serving` rack: ODENet-56 at Q5.10 on an Arty Z7-20 next
/// to an Arty Z7-10 over gigabit Ethernet.
pub fn serve_engine(net: &Network) -> EngineBuilder<'_> {
    Engine::builder(net)
        .cluster(Cluster::new(
            vec![ARTY_Z7_20, ARTY_Z7_10],
            Interconnect::GIGABIT_ETHERNET,
        ))
        .precision(PlFormat::Q16 { frac: 10 })
        .schedule(Schedule::Pipelined)
        .partitioner(Partitioner::BalancedMakespan)
}

/// Boards in the failover rack, and the one the fault plan crashes.
pub const RACK: usize = 6;
const CRASHED: usize = 2;

/// ODENet-20 at Q20 with conv_x8 circuits on `boards` Arty Z7-20s, with
/// the placement and replication searches on. With `RACK - 1` boards it
/// is the search a failover runs over the survivors.
pub fn rack_engine(net: &Network, boards: usize) -> EngineBuilder<'_> {
    Engine::builder(net)
        .cluster(Cluster::homogeneous(
            &ARTY_Z7_20,
            boards,
            Interconnect::GIGABIT_ETHERNET,
        ))
        .precision(PlFormat::Q20)
        .pl_model(PlModel { parallelism: 8 })
        .schedule(Schedule::Pipelined)
        .partitioner(Partitioner::BalancedMakespan)
        .replication(Replication::Auto)
}

/// A Poisson stream of `images` at [`LOAD`] × the plan's ceiling.
pub fn stream(plan: &ClusterPlan, images: usize, dispatch: Dispatch, seed: u64) -> ServeRequest {
    ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: LOAD / plan.bottleneck_seconds(),
        },
        images,
        dispatch,
        seed,
        window: Window::default(),
    }
}

/// Admit every image on arrival.
pub const ADMIT_ON_ARRIVAL: Dispatch = Dispatch::Deadline { deadline: 0.0 };

/// Board 1 runs at half speed from 10% to 40% of the stream's nominal
/// duration, then board [`CRASHED`] dies at 50%.
pub fn fault_plan(plan: &ClusterPlan) -> FaultPlan {
    let nominal = STREAM as f64 * plan.bottleneck_seconds() / LOAD;
    FaultPlan::new(vec![
        FaultEvent::BoardSlowdown {
            board: 1,
            at: 0.1 * nominal,
            factor: 2.0,
            duration: 0.3 * nominal,
        },
        FaultEvent::BoardCrash {
            board: CRASHED,
            at: 0.5 * nominal,
        },
    ])
}
