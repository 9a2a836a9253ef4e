//! Oracle pins for the resumable stage-head scheduler core.
//!
//! Two fast paths replaced slower code that computed the same thing:
//!
//! * the scheduler core prices only the S stage heads per step, where
//!   the loop it replaced priced every image's next stage (O(N²·S) per
//!   schedule);
//! * the deadline micro-batcher advances one resumable schedule
//!   between dispatches, where it used to replay the whole schedule
//!   from t = 0 once per dispatch (O(N³) per release plan).
//!
//! The replaced code survives here, verbatim over the public API, as
//! the oracle: on random timelines — shared PS, replicated stages,
//! zero-length hand-offs, tied releases — and every dispatch policy,
//! the fast paths must agree with it bit for bit.

use proptest::prelude::*;
use zynq_sim::cluster::{
    bottleneck_seconds, pipelined_schedule_released, ServedRun, StageResource, StageTiming,
};
use zynq_sim::serve::{AdmissionQueue, Dispatch, MicroBatcher, ReleasePlan};

/// The all-images scan with the nominal placement rule: every step
/// prices every image whose next stage the FIFO gate admits, and the
/// earliest start commits (ties to the oldest image).
fn naive_schedule(timeline: &[StageTiming], releases: &[f64]) -> ServedRun {
    let images = releases.len();
    let slots = timeline
        .iter()
        .flat_map(|s| s.resources())
        .map(|r| r.slot())
        .max()
        .map_or(1, |m| m + 1);
    let mut free = vec![0.0f64; slots];
    let mut next = vec![0usize; images];
    let mut ready = releases.to_vec();
    let mut starts = vec![0.0f64; images];
    let mut finishes = vec![0.0f64; images];
    let mut started = vec![0usize; timeline.len()];
    let mut makespan = 0.0f64;
    for _ in 0..images * timeline.len() {
        let mut best: Option<(usize, (f64, f64, f64))> = None;
        for i in 0..images {
            let Some(stage) = timeline.get(next[i]) else {
                continue;
            };
            if started[next[i]] != i {
                continue;
            }
            let start = (ready[i] + stage.transfer_in).max(free[stage.resource_for(i).slot()]);
            let placed = (stage.transfer_in, start, stage.seconds);
            if best.is_none_or(|(_, (_, b, _))| placed.1 < b) {
                best = Some((i, placed));
            }
        }
        let (i, (t_in, start, duration)) = best.expect("pending stages remain");
        let stage = &timeline[next[i]];
        let done = start + duration;
        free[stage.resource_for(i).slot()] = done;
        started[next[i]] += 1;
        if next[i] == 0 {
            starts[i] = start - t_in;
        }
        ready[i] = done;
        next[i] += 1;
        if next[i] == timeline.len() {
            finishes[i] = done;
            makespan = makespan.max(done);
        }
    }
    let head_idle = timeline.first().map_or(0.0, |s| {
        s.resources()
            .iter()
            .map(|r| free[r.slot()])
            .fold(f64::INFINITY, f64::min)
    });
    ServedRun {
        makespan,
        starts,
        finishes,
        head_idle,
    }
}

/// The replay-per-dispatch micro-batcher: after every dispatch the
/// whole release-aware schedule re-runs from t = 0 for `head_idle`.
fn replay_release_plan(
    dispatch: Dispatch,
    timeline: &[StageTiming],
    arrivals: &[f64],
) -> ReleasePlan {
    let n = arrivals.len();
    let mut releases = Vec::with_capacity(n);
    let mut queue = AdmissionQueue::new();
    let mut batches = 0usize;
    let mut idx = 0usize;
    let mut head_idle = 0.0f64;
    let consults_pipeline = matches!(dispatch, Dispatch::Deadline { deadline } if deadline > 0.0);
    while idx < n {
        let oldest = arrivals[idx];
        let t = match dispatch {
            Dispatch::Deadline { deadline } => oldest.max(head_idle.min(oldest + deadline)),
            Dispatch::FixedBatch { size } => arrivals[(idx + size - 1).min(n - 1)],
        };
        let mut count = 0usize;
        while idx + count < n && arrivals[idx + count] <= t {
            queue.push(arrivals[idx + count]);
            count += 1;
        }
        queue.drain();
        releases.extend(std::iter::repeat_n(t, count));
        idx += count;
        batches += 1;
        if consults_pipeline && idx < n {
            head_idle = pipelined_schedule_released(timeline, &releases).head_idle;
        }
    }
    ReleasePlan {
        releases,
        batches,
        queue_peak: queue.peak(),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Random pipelines: stages on the head PS or one of three fabrics (so
/// resources are shared), about half of them with a zero-length
/// hand-off, and some replicated round-robin onto extra fabrics.
fn any_timeline() -> impl Strategy<Value = Vec<StageTiming>> {
    prop::collection::vec(
        (
            0usize..4,
            0.001f64..0.3,
            (0usize..2, 0.0f64..0.01),
            0usize..4,
        ),
        1..7,
    )
    .prop_map(|stages| {
        stages
            .into_iter()
            .enumerate()
            .map(|(j, (r, seconds, (hand_off, transfer), copies))| {
                let resource = if r == 0 {
                    StageResource::Ps
                } else {
                    StageResource::Pl(r - 1)
                };
                // Three in four stages stay unreplicated; the rest get
                // one or two extra fabrics of their own.
                let replicas = if copies < 3 {
                    Vec::new()
                } else {
                    std::iter::once(resource)
                        .chain((0..1 + j % 2).map(|k| StageResource::Pl(4 + 2 * j + k)))
                        .collect()
                };
                StageTiming {
                    resource,
                    layer: None,
                    seconds,
                    transfer_in: if hand_off == 0 { 0.0 } else { transfer },
                    replicas,
                }
            })
            .collect()
    })
}

/// Ascending, finite instants in units of the pipeline's bottleneck
/// interval, where about a third of the gaps are zero (tied releases /
/// simultaneous arrivals). Mean gaps near one interval keep the stream
/// around the pipelined ceiling, where head-idle and deadline compete.
fn any_instants() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0usize..3, 0.0f64..2.5), 1..60).prop_map(|gaps| {
        let mut t = 0.0f64;
        gaps.into_iter()
            .map(|(tie, gap)| {
                if tie > 0 {
                    t += gap;
                }
                t
            })
            .collect()
    })
}

/// Scale unit instants to seconds on `timeline`.
fn seconds(timeline: &[StageTiming], instants: &[f64]) -> Vec<f64> {
    let unit = bottleneck_seconds(timeline);
    instants.iter().map(|x| x * unit).collect()
}

/// A dispatch policy: admit on arrival, a deadline of 0.2, 1 or 3
/// bottleneck intervals, head-idle alone, or a fixed batch.
fn any_dispatch() -> impl Strategy<Value = (usize, usize)> {
    (0usize..6, 1usize..9)
}

fn dispatch(timeline: &[StageTiming], (kind, size): (usize, usize)) -> Dispatch {
    let unit = bottleneck_seconds(timeline);
    match kind {
        0 => Dispatch::Deadline { deadline: 0.0 },
        1 => Dispatch::Deadline {
            deadline: 0.2 * unit,
        },
        2 => Dispatch::Deadline { deadline: unit },
        3 => Dispatch::Deadline {
            deadline: 3.0 * unit,
        },
        4 => Dispatch::Deadline {
            deadline: f64::INFINITY,
        },
        _ => Dispatch::FixedBatch { size },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The stage-head core reproduces the all-images scan exactly.
    #[test]
    fn stage_head_schedule_matches_all_images_scan(
        timeline in any_timeline(),
        instants in any_instants(),
    ) {
        let releases = seconds(&timeline, &instants);
        let fast = pipelined_schedule_released(&timeline, &releases);
        let naive = naive_schedule(&timeline, &releases);
        prop_assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
        prop_assert_eq!(bits(&fast.starts), bits(&naive.starts));
        prop_assert_eq!(bits(&fast.finishes), bits(&naive.finishes));
        prop_assert_eq!(fast.head_idle.to_bits(), naive.head_idle.to_bits());
    }

    /// The resumable micro-batcher reproduces the replay-per-dispatch
    /// one exactly, under every dispatch policy.
    #[test]
    fn resumable_release_plan_matches_replay_per_dispatch(
        timeline in any_timeline(),
        instants in any_instants(),
        policy in any_dispatch(),
    ) {
        let arrivals = seconds(&timeline, &instants);
        let dispatch = dispatch(&timeline, policy);
        let fast = MicroBatcher::new(dispatch).release_plan(&timeline, &arrivals);
        let replay = replay_release_plan(dispatch, &timeline, &arrivals);
        prop_assert_eq!(bits(&fast.releases), bits(&replay.releases));
        prop_assert_eq!(fast.batches, replay.batches);
        prop_assert_eq!(fast.queue_peak, replay.queue_peak);
        // The schedule the serve path runs on those releases agrees too.
        let run = pipelined_schedule_released(&timeline, &fast.releases);
        let naive = naive_schedule(&timeline, &replay.releases);
        prop_assert_eq!(run.makespan.to_bits(), naive.makespan.to_bits());
        prop_assert_eq!(bits(&run.finishes), bits(&naive.finishes));
        prop_assert_eq!(run.head_idle.to_bits(), naive.head_idle.to_bits());
    }
}
