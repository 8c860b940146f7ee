//! Deterministic parallel execution of many independent runs.
//!
//! [`BatchRunner`] is the one pool every fan-out in the workspace sits
//! on: the sweep pool ([`parallel_map`](crate::sweep::parallel_map) and
//! friends delegate here), the confirm rungs of `plc-jobs`, replication
//! batches, and multi-cell runs, which run one engine per contention
//! domain.
//!
//! * **Self-scheduling** — every worker takes the next item from one
//!   shared queue, so a worker that finishes early (a cheap item, a
//!   faster core) takes more items instead of idling. Which worker runs
//!   which item depends on timing.
//! * **Input-order results** — results are reassembled by input index,
//!   so the output is bit-identical for 1 worker or 64, whatever the OS
//!   scheduler does (provided the work function is deterministic in
//!   `(index, item)`).
//! * **One registry** — every work item receives the attached
//!   [`Registry`] itself and records straight into
//!   it from its worker. Counters and span-timer counts are exact sums
//!   for any worker count (timer durations are wall clock, never
//!   deterministic). A histogram or gauge value recorded inside a work
//!   item would depend on the schedule — float sums accumulate in
//!   arrival order, a gauge keeps its last writer — and no work
//!   function in the workspace records one.

use crate::runner::{SimReport, Simulation};
use parking_lot::Mutex;
use plc_core::CancelToken;
use plc_obs::Registry;
use std::sync::mpsc;

/// A self-scheduling pool for many independent work items.
///
/// ```
/// use plc_sim::batch::BatchRunner;
///
/// let squares = BatchRunner::new()
///     .workers(4)
///     .run((0u64..100).collect(), |_, x, _| x * x);
/// assert_eq!(squares[7], 49);
/// ```
#[derive(Clone, Default)]
pub struct BatchRunner {
    workers: Option<usize>,
    registry: Option<Registry>,
}

impl std::fmt::Debug for BatchRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("workers", &self.workers)
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

impl BatchRunner {
    /// A runner sized to the machine's available parallelism, which is
    /// read when a batch runs unless [`workers`](BatchRunner::workers)
    /// fixes the count first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixed worker count. Results are identical for any value ≥ 1;
    /// only wall-clock time changes.
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = Some(w.max(1));
        self
    }

    /// Attach a registry: every work item receives it and records into
    /// it directly.
    pub fn registry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// The worker count: the fixed one, or the machine's available
    /// parallelism.
    pub fn num_workers(&self) -> usize {
        self.workers.unwrap_or_else(crate::sweep::default_workers)
    }

    /// Evaluate `f(index, item, registry)` for every item and return the
    /// results in input order.
    ///
    /// The registry argument is the attached registry, or a disabled
    /// no-op registry when none is attached — work functions can
    /// instrument unconditionally.
    pub fn run<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &Registry) -> T + Sync,
    {
        self.run_observed(items, f, |_, _| {})
    }

    /// [`run`](BatchRunner::run) with a result hook: `on_result(index,
    /// &result)` is invoked from the **calling thread** as each item
    /// completes, in completion order. The hook receives only a shared
    /// reference, so it can persist or count results (checkpointers,
    /// progress bars) without being able to perturb the returned
    /// vector, which stays bit-identical for any worker count.
    pub fn run_observed<I, T, F, P>(&self, items: Vec<I>, f: F, on_result: P) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &Registry) -> T + Sync,
        P: FnMut(usize, &T),
    {
        self.run_cancellable(&CancelToken::new(), items, f, on_result)
            .into_iter()
            .map(|r| r.expect("a token that never fires skips no item"))
            .collect()
    }

    /// [`run_observed`](BatchRunner::run_observed) with cooperative
    /// cancellation: each worker checks `token` **before it takes an
    /// item** and takes no more once it fires (an item already running
    /// completes — per-item interruption is the engine's own
    /// [`cancel`](crate::Simulation::cancel) hook). Results come back
    /// in input order as `Some` for items that ran and `None` for items
    /// skipped after cancellation; a token that never fires yields all
    /// `Some`, bit-identical to [`run`](BatchRunner::run).
    pub fn run_cancellable<I, T, F, P>(
        &self,
        token: &CancelToken,
        items: Vec<I>,
        f: F,
        mut on_result: P,
    ) -> Vec<Option<T>>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &Registry) -> T + Sync,
        P: FnMut(usize, &T),
    {
        let registry = self.registry.clone().unwrap_or_else(Registry::disabled);
        let total = items.len();
        let mut out: Vec<Option<T>> = Vec::with_capacity(total);
        out.resize_with(total, || None);
        let workers = self.num_workers().min(total);
        if workers <= 1 {
            // Run inline: same results as the pool, no threads.
            for (i, item) in items.into_iter().enumerate() {
                if token.is_cancelled() {
                    break;
                }
                let r = f(i, item, &registry);
                on_result(i, &r);
                out[i] = Some(r);
            }
            return out;
        }
        let queue = Mutex::new(items.into_iter().enumerate());
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (f, queue, registry) = (&f, &queue, &registry);
                scope.spawn(move || {
                    while !token.is_cancelled() {
                        let next = queue.lock().next();
                        let Some((i, item)) = next else { break };
                        // A send fails only if the collector hung up,
                        // which cannot happen while items remain.
                        if tx.send((i, f(i, item, registry))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (i, result) in rx {
                on_result(i, &result);
                out[i] = Some(result);
            }
        });
        out
    }

    /// Run many independent simulations and return their reports in
    /// input order. With a registry attached, every engine instruments
    /// into it — `engine.steps` across the whole batch ends up in one
    /// counter no matter how many workers ran.
    ///
    /// # Panics
    ///
    /// On invalid simulation configurations (see [`Simulation::run`]),
    /// including an attached registry that already holds one of the
    /// engine's metric names as another kind.
    pub fn run_sims(&self, sims: Vec<Simulation>) -> Vec<SimReport> {
        let instrument = self.registry.is_some();
        self.run(sims, move |_, sim, reg| {
            if instrument {
                sim.registry(reg).run()
            } else {
                sim.run()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order() {
        let out = BatchRunner::new()
            .workers(3)
            .run((0..50u64).collect(), |i, x, _| {
                assert_eq!(i as u64, x);
                x * 2
            });
        assert_eq!(out, (0..50u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u64> = BatchRunner::new().workers(4).run(Vec::new(), |_, x, _| x);
        assert!(empty.is_empty());
        let one = BatchRunner::new()
            .workers(4)
            .run(vec![7u64], |_, x, _| x + 1);
        assert_eq!(one, vec![8]);
    }

    /// Item 0 blocks until every other item has run. A static split
    /// would queue items W, 2W, … behind it on its own worker, so the
    /// batch completes only if the other workers take them from the
    /// shared queue.
    #[test]
    fn a_blocked_item_holds_back_no_other_item() {
        const ITEMS: usize = 12;
        for workers in [2, 3] {
            let others = (std::sync::Mutex::new(0usize), std::sync::Condvar::new());
            let mut seen = [0u32; ITEMS];
            let out = BatchRunner::new().workers(workers).run_observed(
                (0..ITEMS as u64).collect(),
                |i, x, _| {
                    let (done, ran) = &others;
                    if i == 0 {
                        let done = done.lock().unwrap();
                        let stuck = ran
                            .wait_timeout_while(done, Duration::from_secs(10), |n| *n < ITEMS - 1)
                            .unwrap()
                            .1
                            .timed_out();
                        assert!(!stuck, "{workers} workers: items stuck behind item 0");
                    } else {
                        *done.lock().unwrap() += 1;
                        ran.notify_all();
                    }
                    x * 2
                },
                |i, &r| {
                    assert_eq!(r, 2 * i as u64);
                    seen[i] += 1;
                },
            );
            assert_eq!(out, (0..ITEMS as u64).map(|x| x * 2).collect::<Vec<_>>());
            assert!(seen.iter().all(|&c| c == 1), "{workers} workers: {seen:?}");
        }
    }

    #[test]
    fn worker_count_does_not_change_sim_reports() {
        let sims: Vec<Simulation> = (0..6)
            .map(|k| Simulation::ieee1901(2).horizon_us(2e5).seed(k))
            .collect();
        let serial = BatchRunner::new().workers(1).run_sims(sims.clone());
        let pooled = BatchRunner::new().workers(4).run_sims(sims.clone());
        assert_eq!(serial, pooled);
        // And each report equals its standalone run.
        for (sim, report) in sims.iter().zip(&serial) {
            assert_eq!(&sim.run(), report);
        }
    }

    #[test]
    fn attached_registry_counts_are_exact_for_any_worker_count() {
        let count_steps = |workers: usize| {
            let registry = Registry::new();
            let sims: Vec<Simulation> = (0..5)
                .map(|k| Simulation::ieee1901(2).horizon_us(2e5).seed(k))
                .collect();
            BatchRunner::new()
                .workers(workers)
                .registry(&registry)
                .run_sims(sims);
            let snap = registry.snapshot();
            (
                snap.counter("engine.steps").expect("instrumented"),
                snap.timer("engine.step").map(|t| t.count),
            )
        };
        let (serial_steps, serial_spans) = count_steps(1);
        let (pooled_steps, pooled_spans) = count_steps(3);
        assert!(serial_steps > 0);
        // Counters are atomic sums: the total step count is identical
        // for any worker count and schedule.
        assert_eq!(serial_steps, pooled_steps);
        assert_eq!(serial_spans, pooled_spans);
    }

    #[test]
    fn work_items_record_straight_into_the_attached_registry() {
        for workers in [1, 2] {
            let registry = Registry::new();
            let token = plc_core::CancelToken::new();
            let mut seen = 0;
            BatchRunner::new()
                .workers(workers)
                .registry(&registry)
                .run_cancellable(
                    &token,
                    (0..6u64).collect(),
                    |_, _, reg| reg.counter("items").inc(),
                    |_, _| {
                        // Recorded straight into the registry, so
                        // visible while the batch still runs.
                        seen += 1;
                        assert!(registry.snapshot().counter("items") >= Some(seen));
                    },
                );
            assert_eq!(registry.snapshot().counter("items"), Some(6));
        }
    }

    #[test]
    fn without_registry_work_fn_sees_disabled_registry() {
        let out = BatchRunner::new()
            .workers(2)
            .run(vec![1, 2, 3], |_, x, reg| {
                let c = reg.counter("n");
                c.inc();
                (x, c.get())
            });
        assert!(
            out.iter().all(|&(_, c)| c == 0),
            "disabled registry records"
        );
    }

    #[test]
    fn on_result_sees_every_index_once() {
        let mut seen = [0u32; 20];
        BatchRunner::new().workers(3).run_observed(
            (0..20u64).collect(),
            |_, x, _| x,
            |i, &r| {
                assert_eq!(i as u64, r);
                seen[i] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn run_cancellable_with_idle_token_matches_run() {
        let token = plc_core::CancelToken::new();
        let out = BatchRunner::new().workers(3).run_cancellable(
            &token,
            (0..30u64).collect(),
            |_, x, _| x * 3,
            |_, _| {},
        );
        let plain = BatchRunner::new()
            .workers(3)
            .run((0..30u64).collect(), |_, x, _| x * 3);
        assert_eq!(
            out.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            plain
        );
    }

    #[test]
    fn pre_cancelled_token_runs_nothing() {
        for workers in [1, 4] {
            let token = plc_core::CancelToken::new();
            token.cancel();
            let mut observed = 0;
            let out = BatchRunner::new().workers(workers).run_cancellable(
                &token,
                (0..20u64).collect(),
                |_, x, _| x,
                |_, _| observed += 1,
            );
            assert_eq!(out.len(), 20);
            assert!(out.iter().all(Option::is_none), "workers={workers}");
            assert_eq!(observed, 0);
        }
    }

    #[test]
    fn cancelling_mid_batch_skips_the_tail() {
        // Inline path: the token is checked before every item, so a
        // cancel from the first result hook leaves exactly one Some.
        let token = plc_core::CancelToken::new();
        let out = BatchRunner::new().workers(1).run_cancellable(
            &token,
            (0..10u64).collect(),
            |_, x, _| x,
            |_, _| token.cancel(),
        );
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 1);
        assert_eq!(out[0], Some(0));
    }

    #[test]
    fn cancelling_mid_batch_stops_every_worker() {
        // A worker checks the token before it takes an item, so once the
        // first result fires it, each worker finishes at most the item
        // it holds.
        for workers in [2, 3] {
            let token = plc_core::CancelToken::new();
            let out = BatchRunner::new().workers(workers).run_cancellable(
                &token,
                (0..40u64).collect(),
                |_, x, _| {
                    std::thread::sleep(Duration::from_millis(2));
                    x * 3
                },
                |_, _| token.cancel(),
            );
            let ran: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_some()).collect();
            assert!(
                !ran.is_empty() && ran.len() <= 2 * workers,
                "{workers} workers: {} items ran",
                ran.len()
            );
            for i in ran {
                assert_eq!(out[i], Some(3 * i as u64), "{workers} workers, item {i}");
            }
        }
    }

    #[test]
    fn kind_clash_surfaces_as_the_engines_typed_error() {
        let registry = Registry::new();
        registry.gauge("engine.steps").set(1.0); // clashes with the counter
        let sims = vec![Simulation::ieee1901(1).horizon_us(1e5)];
        let out = BatchRunner::new()
            .workers(1)
            .registry(&registry)
            .run(sims, |_, sim, reg| sim.registry(reg).try_run());
        let err = out
            .into_iter()
            .next()
            .expect("one result")
            .expect_err("the engine's counter clashes with the gauge");
        assert!(err.to_string().contains("engine.steps"), "{err}");
    }
}
