//! The host's current speed, read from a fixed reference loop.
//!
//! A shared host runs the same program at different speeds for tens of
//! seconds at a time: a whole 30 s run can land in a phase 1.2–1.4× slower
//! than the next. The reference loop is fixed work that uses no code of
//! the program (hash-map and B-tree churn in under 1 MiB, the kind of
//! allocation and cache traffic the simulator makes), so its time moves
//! with the host and never with a change to the program. Throughput in
//! reference seconds divides that phase out.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::derive_seed;

/// What one run of the reference loop counts as, in reference seconds.
pub const REF_LOOP_SECS: f64 = 0.1;

const OPS: u64 = 400_000;
const HASH_KEYS: u64 = 4_096;
const TREE_KEYS: u64 = 16_384;
/// Longest list before it is dropped and started again.
const LIST_LEN: usize = 8;

/// Runs the reference loop once on each of `threads` threads at the same
/// time, the way the workload's own jobs use the host; returns the host
/// seconds until the last one ends.
pub fn reference(threads: usize) -> f64 {
    let start = Instant::now();
    if threads == 1 {
        reference_loop();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(reference_loop);
            }
        });
    }
    start.elapsed().as_secs_f64()
}

/// Runs the reference loop once on this thread.
fn reference_loop() {
    // Fixed hash keys, so every run does the same work.
    let mut lists: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut tree = BTreeMap::new();
    for i in 0..OPS {
        let list = lists.entry(derive_seed(7, i) % HASH_KEYS).or_default();
        if list.len() == LIST_LEN {
            *list = Vec::new();
        }
        list.push(i);
        tree.insert(derive_seed(8, i) % TREE_KEYS, i);
        if i % 3 == 0 {
            tree.remove(&(derive_seed(9, i) % TREE_KEYS));
        }
    }
    black_box((lists.len(), tree.len()));
}
