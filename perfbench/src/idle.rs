//! Keeps the machine's CPUs from going idle while serve-zipf runs.
//!
//! The benchmark's reference machine is a virtual machine on a shared
//! host. When one of its CPUs has nothing to run it halts, and the host
//! takes the physical CPU back; the next wake-up waits for the host
//! scheduler, which may also move the virtual CPU to another physical
//! one. How long that takes follows the load of the host's other tenants,
//! not the program. serve-zipf sleeps and wakes thousands of times a
//! second — the daemon between requests, the load generator between sends
//! — and paid it on every wake-up: its latencies moved by 30% between runs
//! of one seed minutes apart.
//!
//! [`IdlePoll`] runs one thread per CPU at `SCHED_IDLE`, the lowest
//! scheduling class, each spinning on a flag — the effect of booting the
//! kernel with `idle=poll`. A `SCHED_IDLE` thread runs only when its CPU
//! has nothing else to run and is preempted as soon as any other thread
//! wakes, so the program's threads run when they would have run anyway.
//! If the class cannot be set, the thread exits rather than compete at
//! normal priority.
//!
//! The batch workloads do without it: they keep both CPUs busy anyway, and
//! there the polling threads cost more than they saved (cold solves about
//! 20% slower and no steadier in runs alternated with and without them).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

/// Linux's `SCHED_IDLE` policy number.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn lowest_priority() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // Safety: pid 0 names the calling thread and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The polling threads; they stop and are joined on drop.
pub struct IdlePoll {
    stop: Arc<AtomicBool>,
    running: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl IdlePoll {
    /// Starts one polling thread per CPU; returns once each has taken the
    /// `SCHED_IDLE` class or given up.
    pub fn start() -> IdlePoll {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(Barrier::new(cpus + 1));
        let threads = (0..cpus)
            .map(|_| {
                let (stop, running) = (Arc::clone(&stop), Arc::clone(&running));
                let ready = Arc::clone(&ready);
                std::thread::spawn(move || {
                    let polling = lowest_priority();
                    if polling {
                        running.fetch_add(1, Ordering::Relaxed);
                    }
                    ready.wait();
                    if !polling {
                        return;
                    }
                    // A plain load, no pause hint: a virtual CPU that keeps
                    // executing pause can be descheduled by the host as a
                    // suspected lock spinner.
                    while !stop.load(Ordering::Relaxed) {}
                })
            })
            .collect();
        ready.wait();
        IdlePoll { stop, running, threads }
    }

    /// How many threads are polling (0 if the kernel refused `SCHED_IDLE`).
    pub fn running(&self) -> usize {
        self.running.load(Ordering::Relaxed)
    }
}

impl Drop for IdlePoll {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
