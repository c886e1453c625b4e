//! A small multi-threaded offloading executor with CUDA-stream-like semantics.
//!
//! Four worker threads model the four lanes of the paper's pipeline — the
//! [`moe_sim::Lane`]s GPU compute, CPU compute, host→device and device→host copies.
//! Jobs submitted to a lane execute strictly in submission order (FIFO), and a job
//! may additionally declare dependencies on jobs from other lanes; the worker blocks
//! until those have completed. This is exactly the execution model the simulator
//! gives a [`TaskGraph`], so [`OffloadExecutor::play`] runs a schedule's graph as is
//! (Algorithm 1: "all the tasks are executed asynchronously, and necessary
//! synchronization primitives are added to each task").

use moe_sim::{Lane, Task, TaskGraph};
use std::any::Any;
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

struct Job {
    id: JobId,
    deps: Vec<JobId>,
    work: Box<dyn FnOnce() + Send + 'static>,
}

#[derive(Default)]
struct Progress {
    completed: HashSet<u64>,
    submitted: u64,
    /// Messages of jobs that panicked since the last [`OffloadExecutor::wait_all`].
    panics: Vec<String>,
}

struct Shared {
    progress: Mutex<Progress>,
    condvar: Condvar,
}

impl Shared {
    /// Locks `progress`, recovering the guard if a panic poisoned it:
    /// [`OffloadExecutor::submit`] asserts under this lock before it updates
    /// anything, and a caller that catches that panic must still be able to
    /// submit, wait and drop.
    fn progress(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks `progress` once `blocked` no longer holds.
    fn wait_while(&self, blocked: impl FnMut(&mut Progress) -> bool) -> MutexGuard<'_, Progress> {
        self.condvar
            .wait_while(self.progress(), blocked)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The offloading executor. Dropping it shuts the workers down after they drain
/// their queues.
pub struct OffloadExecutor {
    /// One sender per lane, indexed by `Lane as usize` (the order of [`Lane::all`]).
    senders: Vec<Sender<Job>>,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl fmt::Debug for OffloadExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.shared.progress();
        write!(
            f,
            "OffloadExecutor(submitted: {}, completed: {})",
            p.submitted,
            p.completed.len()
        )
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".to_owned())
}

impl OffloadExecutor {
    /// Spawns the four lane workers.
    pub fn new() -> Self {
        let shared = Arc::new(Shared {
            progress: Mutex::new(Progress::default()),
            condvar: Condvar::new(),
        });
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for lane in Lane::all() {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("moe-lane-{lane}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // Wait for cross-lane dependencies.
                        let blocked =
                            |p: &mut Progress| !job.deps.iter().all(|d| p.completed.contains(&d.0));
                        drop(worker_shared.wait_while(blocked));
                        // A panicking job still completes, so its dependents and
                        // `wait_all` go on; the panic is reported by `wait_all`.
                        let outcome = catch_unwind(AssertUnwindSafe(job.work));
                        let mut progress = worker_shared.progress();
                        if let Err(payload) = outcome {
                            progress.panics.push(panic_message(payload.as_ref()));
                        }
                        progress.completed.insert(job.id.0);
                        worker_shared.condvar.notify_all();
                    }
                })
                .expect("failed to spawn lane worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        OffloadExecutor {
            senders,
            shared,
            handles,
        }
    }

    /// Submits a job to `lane`.
    ///
    /// Dependencies must refer to previously submitted jobs; this keeps the system
    /// deadlock-free under the per-lane FIFO execution order.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id refers to a job that has not been submitted yet.
    pub fn submit(
        &self,
        lane: Lane,
        deps: &[JobId],
        work: impl FnOnce() + Send + 'static,
    ) -> JobId {
        let id = {
            let mut progress = self.shared.progress();
            for dep in deps {
                assert!(
                    dep.0 < progress.submitted,
                    "dependency {dep:?} has not been submitted yet (forward dependencies deadlock)"
                );
            }
            let id = JobId(progress.submitted);
            progress.submitted += 1;
            id
        };
        let job = Job {
            id,
            deps: deps.to_vec(),
            work: Box::new(work),
        };
        self.senders[lane as usize]
            .send(job)
            .expect("lane worker terminated unexpectedly");
        id
    }

    /// Submits every task of `graph` in insertion order, each on its own lane with
    /// the graph's own dependencies, as a job that runs `kernel` on the task. Task
    /// durations are ignored: a job takes as long as its kernel.
    pub fn play<K>(&self, graph: &TaskGraph, kernel: &Arc<K>)
    where
        K: Fn(&Task) + Send + Sync + 'static,
    {
        let mut jobs: Vec<JobId> = Vec::with_capacity(graph.len());
        for task in graph.tasks() {
            let deps: Vec<JobId> = graph.deps(task).iter().map(|d| jobs[d.0]).collect();
            let (kernel, owned) = (Arc::clone(kernel), task.clone());
            jobs.push(self.submit(task.lane, &deps, move || kernel(&owned)));
        }
    }

    /// Blocks until every job submitted so far has completed.
    ///
    /// # Errors
    ///
    /// Returns the messages of the jobs that panicked since the last call.
    pub fn wait_all(&self) -> Result<(), Vec<String>> {
        let mut progress = self
            .shared
            .wait_while(|p| (p.completed.len() as u64) < p.submitted);
        match std::mem::take(&mut progress.panics) {
            panics if panics.is_empty() => Ok(()),
            panics => Err(panics),
        }
    }

    /// Number of submitted jobs.
    pub fn submitted(&self) -> u64 {
        self.shared.progress().submitted
    }
}

impl Default for OffloadExecutor {
    fn default() -> Self {
        OffloadExecutor::new()
    }
}

impl Drop for OffloadExecutor {
    fn drop(&mut self) {
        // Close the channels; workers drain their queues and exit. Joining here keeps
        // destruction deterministic for tests.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::Seconds;
    use moe_sim::{TaskId, TaskKind, TaskSink};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_on_one_lane_run_in_fifo_order() {
        let exec = OffloadExecutor::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..16 {
            let order = Arc::clone(&order);
            exec.submit(Lane::GpuCompute, &[], move || order.lock().unwrap().push(i));
        }
        exec.wait_all().unwrap();
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn dependencies_across_lanes_are_honoured() {
        let exec = OffloadExecutor::new();
        let value = Arc::new(AtomicUsize::new(0));
        let v1 = Arc::clone(&value);
        let a = exec.submit(Lane::HostToDevice, &[], move || {
            std::thread::sleep(Duration::from_millis(20));
            v1.store(7, Ordering::SeqCst);
        });
        let v2 = Arc::clone(&value);
        let observed = Arc::new(AtomicUsize::new(0));
        let o2 = Arc::clone(&observed);
        exec.submit(Lane::GpuCompute, &[a], move || {
            o2.store(v2.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        exec.wait_all().unwrap();
        assert_eq!(
            observed.load(Ordering::SeqCst),
            7,
            "GPU job must see the transfer's effect"
        );
    }

    #[test]
    fn independent_lanes_run_concurrently() {
        // Two long jobs on different lanes should overlap: total wall time must be
        // well below the sum of their durations.
        let exec = OffloadExecutor::new();
        let start = std::time::Instant::now();
        for lane in Lane::all() {
            exec.submit(lane, &[], || std::thread::sleep(Duration::from_millis(50)));
        }
        exec.wait_all().unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_millis() < 160,
            "lanes did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn wait_all_counts_every_job() {
        let exec = OffloadExecutor::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let lane = Lane::all()[i % 4];
            let c = Arc::clone(&counter);
            exec.submit(lane, &[], move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        exec.wait_all().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(exec.submitted(), 100);
        assert!(format!("{exec:?}").contains("submitted: 100, completed: 100"));
    }

    #[test]
    #[should_panic(expected = "forward dependencies")]
    fn forward_dependency_panics() {
        let exec = OffloadExecutor::new();
        exec.submit(Lane::GpuCompute, &[JobId(99)], || {});
    }

    #[test]
    fn a_caught_submit_panic_leaves_the_executor_usable() {
        // `submit` asserts while it holds the progress lock, so the panic poisons
        // it; later submits, `wait_all` and the drop must recover the lock.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let exec = OffloadExecutor::new();
            let forward = catch_unwind(AssertUnwindSafe(|| {
                exec.submit(Lane::GpuCompute, &[JobId(99)], || {});
            }));
            assert!(forward.is_err(), "a forward dependency must panic");
            let ran = Arc::new(AtomicUsize::new(0));
            let r = Arc::clone(&ran);
            exec.submit(Lane::CpuCompute, &[], move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            let outcome = exec.wait_all();
            drop(exec);
            tx.send((outcome, ran.load(Ordering::SeqCst))).unwrap();
        });
        let (outcome, ran) = rx
            .recv_timeout(Duration::from_secs(3))
            .expect("the executor must submit, wait and drop after a caught submit panic");
        assert_eq!(outcome, Ok(()));
        assert_eq!(ran, 1);
    }

    #[test]
    fn a_panicking_job_completes_and_is_reported_by_wait_all() {
        let exec = Arc::new(OffloadExecutor::new());
        let first = exec.submit(Lane::CpuCompute, &[], || panic!("kernel exploded"));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        exec.submit(Lane::GpuCompute, &[first], move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        let (tx, rx) = mpsc::channel();
        let waiter = Arc::clone(&exec);
        std::thread::spawn(move || tx.send(waiter.wait_all()));
        let outcome = rx
            .recv_timeout(Duration::from_secs(3))
            .expect("wait_all must return after a job panics");
        assert_eq!(outcome, Err(vec!["kernel exploded".to_owned()]));
        assert_eq!(ran.load(Ordering::SeqCst), 1, "dependents still run");
        assert_eq!(exec.wait_all(), Ok(()), "a panic is reported once");
    }

    #[test]
    fn play_runs_a_graph_on_its_lanes_in_dependency_order() {
        // A chain that hops across every lane, plus one independent task: each
        // chained task must see its predecessor's effect.
        let mut graph = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for (i, lane) in Lane::all().into_iter().cycle().take(9).enumerate() {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let label = moe_sim::TaskLabel::layer("T", i as u64);
            prev = Some(
                graph
                    .add_task(lane, Seconds::ZERO, TaskKind::Other, label, &deps)
                    .unwrap(),
            );
        }
        graph
            .add_task(
                Lane::CpuCompute,
                Seconds::ZERO,
                TaskKind::Other,
                "free",
                &[],
            )
            .unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let kernel = Arc::new(move |task: &Task| {
            std::thread::sleep(Duration::from_millis(2));
            sink.lock().unwrap().push(task.label.indices().to_vec());
        });
        let exec = OffloadExecutor::new();
        exec.play(&graph, &kernel);
        exec.play(&graph, &kernel);
        exec.wait_all().unwrap();
        assert_eq!(exec.submitted(), 2 * graph.len() as u64);
        // The second pass's first task queues behind the first pass's GPU tasks,
        // so the two chains run back to back, each in order.
        let chained: Vec<Vec<u64>> = log
            .lock()
            .unwrap()
            .iter()
            .filter(|ix| !ix.is_empty())
            .cloned()
            .collect();
        let expected: Vec<Vec<u64>> = (0..18).map(|i| vec![i % 9]).collect();
        assert_eq!(chained, expected);
    }
}
