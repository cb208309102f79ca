//! The single-flight memo under the engine's content-keyed stores: the
//! [`EvalCache`](crate::EvalCache) and the
//! [`TraceStore`](crate::TraceStore) are each one of these plus their own
//! counters.
//!
//! The first caller of a key marks it in flight and computes outside the
//! lock; concurrent callers of that key wait instead of duplicating the
//! work. A value is published before its marker is released, so a woken
//! waiter always finds it. A computation that fails or panics stores
//! nothing and still releases its marker, so one waiter takes over. A
//! bounded memo evicts the least-recently used entry once a store
//! exceeds its capacity.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// How [`Memo::get_or_compute`] obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The value was already stored.
    Stored,
    /// Another caller's in-flight computation published it while this
    /// caller waited.
    Awaited,
    /// This caller computed it.
    Computed,
}

/// A thread-safe, content-keyed memo with single-flight computation.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    slots: Mutex<Slots<K, V>>,
    /// Signaled whenever an in-flight marker is released.
    released: Condvar,
}

#[derive(Debug)]
struct Slots<K, V> {
    entries: HashMap<K, V>,
    /// Keys some caller is computing.
    in_flight: HashSet<K>,
    /// Maximum number of stored entries (at least 1); `None` is
    /// unbounded.
    capacity: Option<usize>,
    /// Under a capacity bound, the logical tick of each entry's last use
    /// (store or lookup); eviction removes the smallest. An unbounded
    /// memo keeps no recency.
    used: HashMap<K, u64>,
    /// Logical recency clock.
    clock: u64,
    /// Entries the capacity bound has evicted.
    evicted: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Slots<K, V> {
    /// The stored value of `key`, refreshing its recency.
    fn get(&mut self, key: &K) -> Option<V> {
        let value = self.entries.get(key)?.clone();
        self.touch(key);
        Some(value)
    }

    /// Marks `key` used now (bounded memos only).
    fn touch(&mut self, key: &K) {
        if self.capacity.is_some() {
            self.clock += 1;
            self.used.insert(key.clone(), self.clock);
        }
    }

    /// Stores `value` under `key`, then evicts the least-recently used
    /// entry if the store exceeded the capacity. The new entry holds the
    /// newest tick, so it is never the victim. (An O(n) scan: the map
    /// holds at most `capacity + 1` entries, far below where a recency
    /// list would pay off.)
    fn store(&mut self, key: K, value: V) {
        self.touch(&key);
        self.entries.insert(key, value);
        if self.capacity.is_some_and(|capacity| self.entries.len() > capacity) {
            let victim = self
                .used
                .iter()
                .min_by_key(|(_, used)| **used)
                .map(|(key, _)| key.clone())
                .expect("an over-full memo has entries");
            self.entries.remove(&victim);
            self.used.remove(&victim);
            self.evicted += 1;
        }
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            slots: Mutex::new(Slots {
                entries: HashMap::new(),
                in_flight: HashSet::new(),
                capacity: None,
                used: HashMap::new(),
                clock: 0,
                evicted: 0,
            }),
            released: Condvar::new(),
        }
    }
}

/// Releases an in-flight marker when dropped — on success, on error and
/// while unwinding from a panicking computation alike — and wakes the
/// waiters.
struct Release<'a, K: Eq + Hash + Clone, V: Clone> {
    memo: &'a Memo<K, V>,
    key: &'a K,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for Release<'_, K, V> {
    fn drop(&mut self) {
        self.memo.lock().in_flight.remove(self.key);
        self.memo.released.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// A memo holding at most `capacity` entries (clamped to at least 1).
    pub(crate) fn bounded(capacity: usize) -> Self {
        let memo = Memo::default();
        memo.lock().capacity = Some(capacity.max(1));
        memo
    }

    /// The capacity bound; `None` for an unbounded memo.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.lock().capacity
    }

    /// The slots. Computations run outside the lock and every update
    /// under it leaves the slots valid at each step, so a poisoned lock
    /// still guards consistent slots.
    fn lock(&self) -> MutexGuard<'_, Slots<K, V>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Entries the capacity bound has evicted so far.
    pub(crate) fn evicted(&self) -> u64 {
        self.lock().evicted
    }

    /// The value stored under `key`, if any (refreshes its recency).
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key)
    }

    /// Stores `value` under `key`, replacing any stored value.
    pub(crate) fn insert(&self, key: K, value: V) {
        self.lock().store(key, value);
    }

    /// Stores `value` unless `key` already holds one: the first writer
    /// wins. Returns the stored value and whether it was already there.
    pub(crate) fn publish(&self, key: K, value: V) -> (V, bool) {
        let mut slots = self.lock();
        match slots.get(&key) {
            Some(stored) => (stored, true),
            None => {
                slots.store(key, value.clone());
                (value, false)
            }
        }
    }

    /// Every stored entry, in no particular order.
    pub(crate) fn entries(&self) -> Vec<(K, V)> {
        self.lock().entries.iter().map(|(key, value)| (key.clone(), value.clone())).collect()
    }

    /// The value under `key`, computing and storing it with `compute` if
    /// none is stored. Concurrent callers of one key compute it once: the
    /// others wait and take the published value ([`Source::Awaited`]).
    /// If the computation fails or panics, nothing is stored and one
    /// waiter computes the key itself.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error.
    pub(crate) fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Source), E> {
        let mut waited = false;
        let mut slots = self.lock();
        loop {
            if let Some(value) = slots.get(&key) {
                return Ok((value, if waited { Source::Awaited } else { Source::Stored }));
            }
            if slots.in_flight.insert(key.clone()) {
                break; // this caller computes the key
            }
            waited = true;
            while slots.in_flight.contains(&key) {
                slots = self.released.wait(slots).unwrap_or_else(PoisonError::into_inner);
            }
        }
        drop(slots);
        let release = Release { memo: self, key: &key };
        let value = compute()?;
        self.insert(key.clone(), value.clone());
        drop(release);
        Ok((value, Source::Computed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn a_panicking_computation_stores_nothing_and_the_next_caller_computes() {
        let memo: Arc<Memo<u32, u32>> = Arc::new(Memo::default());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (panic_tx, panic_rx) = mpsc::channel::<()>();
        let owner = {
            let memo = Arc::clone(&memo);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_compute(7, || -> Result<u32, ()> {
                        entered_tx.send(()).expect("entered signal");
                        panic_rx.recv().expect("panic signal");
                        panic!("synthetic evaluation panic")
                    })
                }))
                .is_err()
            })
        };
        entered_rx.recv().expect("the owner holds the in-flight marker");
        // The next caller starts while the owner holds the marker, and
        // answers through a channel: if the panic leaked the marker, it
        // would block forever, and the bounded receive below fails the
        // test instead of hanging it (its thread is joined only once it
        // has answered).
        let (result_tx, result_rx) = mpsc::channel();
        let next = {
            let memo = Arc::clone(&memo);
            std::thread::spawn(move || {
                result_tx.send(memo.get_or_compute(7, || Ok::<_, ()>(70))).expect("answer");
            })
        };
        panic_tx.send(()).expect("the owner is waiting");
        assert!(owner.join().expect("the panic is caught"), "the computation panicked");
        let answer = result_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a panicking computation must release its in-flight marker");
        next.join().expect("the next caller finishes");
        assert_eq!(answer, Ok((70, Source::Computed)), "nothing was stored, so it computes");
        assert_eq!(memo.get(&7), Some(70));
    }
}
