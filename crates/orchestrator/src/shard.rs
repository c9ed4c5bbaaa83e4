//! Per-device-group shard state of the sharded engine: each
//! [`DeviceShard`] owns a disjoint subset of the fleet (devices are routed
//! by `device % shard_count`) and a local inbox of the hoistable
//! lease-completion work the current virtual-time barrier routed to it.
//!
//! A shard never touches global state. The executor
//! ([`crate::exec::ShardedExecutor`]) fills every shard's inbox from one
//! barrier's event batch, drains the inboxes on worker threads (each shard
//! advances its tasks sequentially, in event-sequence order), and merges
//! the completed tasks back in `(time, seq)` order — which is what keeps
//! the trace stream, telemetry, and calibration history byte-identical to
//! the sequential engine. Note the two meanings of "shard" in this crate:
//! a [`DeviceShard`] is a *device group* of the engine's executor, while a
//! *job shard* is one device serving one rung of a job's ladder (one per
//! rung unsplit; [`crate::split`] widens rungs onto twin devices).

use crate::driver::{BatchResult, JobDriver};

/// A batch of deferred lease compute hoisted out of one barrier event: the
/// job's driver travels to the shard's worker, runs its pending batch for
/// `job_shard`, and returns home before the barrier's events replay.
pub(crate) struct ShardTask {
    /// Position of the originating event in the barrier's `(time, seq)`
    /// batch — the merge key that pins the sequential order.
    pub pos: usize,
    /// Engine job index (owner of the runner).
    pub job: usize,
    /// The job shard whose batch completed (always 0 for unsplit jobs);
    /// see module docs for the job-shard vs device-shard distinction.
    pub job_shard: usize,
    /// Fleet device whose lease completed.
    pub device: usize,
    /// The runner, taken from the engine's driver table for the duration
    /// of the barrier.
    pub runner: JobDriver,
}

/// A [`ShardTask`] after its shard executed the pending batch.
pub(crate) struct CompletedTask {
    /// Merge key: the originating event's position in the barrier batch.
    pub pos: usize,
    /// Engine job index, for restoring the runner.
    pub job: usize,
    /// The advanced runner, returned to the engine's driver table.
    pub runner: JobDriver,
    /// What [`JobDriver::execute_batch`] produced — spliced into the
    /// engine's lease-completion bookkeeping in place of the inline call.
    pub result: BatchResult,
}

/// One device group of the sharded engine: the devices it owns and the
/// current barrier's inbox of hoisted lease completions on them.
pub(crate) struct DeviceShard {
    /// This shard's index among its executor's shards.
    id: usize,
    /// Total shard count of the owning executor (the routing modulus).
    modulus: usize,
    /// Hoisted tasks of the current barrier, in event-sequence order
    /// (tasks are pushed while scanning the batch in `seq` order).
    inbox: Vec<ShardTask>,
}

impl DeviceShard {
    /// Creates shard `id` of `modulus` total; it owns every fleet device
    /// `d` with `d % modulus == id`.
    pub(crate) fn new(id: usize, modulus: usize) -> Self {
        assert!(id < modulus, "shard id must be below the shard count");
        DeviceShard {
            id,
            modulus,
            inbox: Vec::new(),
        }
    }

    /// Whether this shard owns fleet device `device`.
    pub(crate) fn owns(&self, device: usize) -> bool {
        device % self.modulus == self.id
    }

    /// Queues a hoisted task on this shard for the current barrier.
    pub(crate) fn push(&mut self, task: ShardTask) {
        debug_assert!(
            self.owns(task.device),
            "task routed to a shard that does not own its device"
        );
        self.inbox.push(task);
    }

    /// Drains the current barrier's inbox (event-sequence order).
    pub(crate) fn take_inbox(&mut self) -> Vec<ShardTask> {
        std::mem::take(&mut self.inbox)
    }

    /// Runs every task of `inbox` in order — the shard's sequential
    /// advance between two barriers. Runs on a worker thread when the
    /// executor is parallel; the engine's global state is untouched.
    pub(crate) fn run(inbox: Vec<ShardTask>) -> Vec<CompletedTask> {
        inbox
            .into_iter()
            .map(|mut task| {
                let result = task.runner.execute_batch(task.job_shard);
                CompletedTask {
                    pos: task.pos,
                    job: task.job,
                    runner: task.runner,
                    result,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_partitions_devices() {
        let shards: Vec<DeviceShard> = (0..3).map(|i| DeviceShard::new(i, 3)).collect();
        for device in 0..10 {
            let owners = shards.iter().filter(|s| s.owns(device)).count();
            assert_eq!(owners, 1, "device {device} must have exactly one owner");
        }
    }
}
