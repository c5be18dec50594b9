//! A bounded last-N ring buffer with total/evicted accounting.
//!
//! The flight recorder's storage primitive: a fixed capacity,
//! push-evicts-oldest, and a monotone `total_recorded` so
//! consumers can tell "ring is short because the run was short" apart from
//! "ring is short because it wrapped".

use std::collections::VecDeque;

/// A bounded ring keeping the last `capacity` items pushed.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    total: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` items.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// Appends `item`, evicting the oldest retained item if full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(item);
        self.total += 1;
    }

    /// Items currently retained (`<= capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items ever pushed, including evicted ones (monotone).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Items lost to eviction (`total_recorded - len`).
    pub fn evicted(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// The most recently pushed item.
    pub fn last(&self) -> Option<&T> {
        self.buf.back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_last_capacity_items() {
        let mut r = Ring::new(3);
        for i in 0..10u32 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.evicted(), 7);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(r.last(), Some(&9));

        // Against a `VecDeque` capped to the same capacity, after every
        // push: the retained tail is exactly the last min(pushed, capacity)
        // items in order, and the lifetime count never misses a push.
        for capacity in 1..=8 {
            let mut r = Ring::new(capacity);
            let mut model = VecDeque::new();
            for i in 0..3 * capacity as u64 + 2 {
                r.push(i);
                model.push_back(i);
                if model.len() > capacity {
                    model.pop_front();
                }
                assert_eq!(r.total_recorded(), i + 1);
                assert_eq!(r.len(), model.len());
                assert_eq!(r.evicted(), i + 1 - model.len() as u64);
                assert!(r.iter().eq(model.iter()), "capacity {capacity}, push {i}");
                assert_eq!(r.last(), model.back());
                assert_eq!(r.is_empty(), model.is_empty());
            }
        }
    }

    #[test]
    fn short_runs_do_not_evict() {
        let mut r = Ring::new(8);
        r.push('a');
        r.push('b');
        assert_eq!(r.len(), 2);
        assert_eq!(r.evicted(), 0);
        assert!(!r.is_empty());
        assert_eq!(r.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Ring::<u8>::new(0);
    }
}
