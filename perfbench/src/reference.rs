//! The reference kernel: a fixed piece of host work, timed just before
//! every operation and around every set-up, so that host times can be
//! stated in units of it.
//!
//! On a shared host the simulator's speed swings by up to about 2x in
//! phases that can cover whole runs, set by neighbouring load on the same
//! machine (processor time swings with wall time, so it is not
//! preemption). In 30 runs of 30 s on a 2-vCPU Xeon VM (three workloads
//! at a time, five seeds each, at two different times), the median
//! operation time of a workload spread by 0.07 to 0.43 between runs
//! (quartile distance over median). Three candidate kernels were timed
//! just before every operation. Dividing each operation by its kernel run
//! left spreads of 0.004 to 0.12 with this kernel, random updates to a
//! hash map that fits in the core's L2; 0.05 to 0.23 with a hash map of
//! 8 MB, which slowed more than the simulator in busy phases; and 0.02 to
//! 0.17 with both together. A time divided by the kernel time measured
//! next to it is thus mostly a property of the program, and the benchmark
//! reports it in reference time: the time the work would take on a host
//! where the kernel takes exactly 1 ms. The kernel depends neither on the
//! seed nor on the program under test.
//!
//! A parallel operation is measured against the kernel run on as many
//! threads at once, so that load on every core it uses shows in both.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Distinct keys the updates draw from (a table of about 200 KB).
const KEYS: u64 = 8_192;
/// Updates one kernel makes (about 1 ms on an uncontended 2-vCPU Xeon VM).
const UPDATES: u64 = 50_000;

/// A fixed hasher, so every process probes the table the same way.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

thread_local! {
    /// Allocated once per thread, so a kernel run times only the updates.
    static TABLE: RefCell<Table> = RefCell::new(Table::with_capacity_and_hasher(
        KEYS as usize,
        Default::default(),
    ));
}

/// One kernel: clears the table and adds xorshift-drawn keys into it.
fn kernel() -> usize {
    TABLE.with_borrow_mut(|table| {
        table.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *table.entry(black_box(x) % KEYS).or_insert(0) += i;
        }
        table.len()
    })
}

/// Host seconds of one kernel run on the calling thread.
fn timed_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// A helper thread that runs one timed kernel per request.
struct Helper {
    go: Sender<()>,
    took: Receiver<f64>,
    thread: JoinHandle<()>,
}

/// The kernel on a fixed number of threads: the caller's and helpers that
/// live as long as this value. Dropping it stops and joins the helpers.
pub struct Reference {
    helpers: Vec<Helper>,
}

impl Reference {
    /// A kernel that runs on `threads` threads at once (at least one).
    pub fn new(threads: usize) -> Self {
        let helpers = (1..threads.max(1))
            .map(|_| {
                let (go, requests) = channel::<()>();
                let (reply, took) = channel();
                let thread = std::thread::spawn(move || {
                    while requests.recv().is_ok() {
                        if reply.send(timed_kernel()).is_err() {
                            break;
                        }
                    }
                });
                Helper { go, took, thread }
            })
            .collect();
        let r = Reference { helpers };
        // The first run allocates every thread's table.
        r.seconds();
        r
    }

    /// Host seconds of one kernel run: the mean over the threads, each of
    /// which times its own run.
    pub fn seconds(&self) -> f64 {
        for h in &self.helpers {
            h.go.send(()).expect("a reference helper is running");
        }
        let mine = timed_kernel();
        let theirs: f64 = self
            .helpers
            .iter()
            .map(|h| h.took.recv().expect("a reference helper replies"))
            .sum();
        (mine + theirs) / (self.helpers.len() + 1) as f64
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        for h in self.helpers.drain(..) {
            drop(h.go);
            let _ = h.thread.join();
        }
    }
}

/// `host_s` of work measured next to a kernel run of `kernel_s`, in
/// reference seconds.
pub fn scale(host_s: f64, kernel_s: f64) -> f64 {
    host_s / kernel_s * 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let first = kernel();
        assert!(first > 8_000, "50k draws land on nearly all 8192 keys");
        assert_eq!(kernel(), first);
    }

    #[test]
    fn parallel_kernels_run_and_stop() {
        for threads in [0, 1, 2, 3] {
            let r = Reference::new(threads);
            assert!(r.seconds() > 0.0);
        }
    }

    #[test]
    fn a_kernel_long_piece_of_work_takes_one_reference_millisecond() {
        assert_eq!(scale(0.5, 0.5), 1e-3);
        assert_eq!(scale(3.0, 0.5), 6e-3);
    }
}
