//! Typed extension blackboard.
//!
//! Higher layers (the virtualization substrate, HDFS, vRead) need shared
//! mutable state that several actors consult synchronously — page caches,
//! guest filesystems, mount tables. Making each of those an actor would
//! force an asynchronous round-trip for what is logically a function call,
//! so instead the world carries a type-indexed table: each crate stores
//! its own state struct and retrieves it by type.
//!
//! A world holds a handful of extension types, so the table is a short
//! `Vec` of `(TypeId, box)` slots probed linearly — cheaper than hashing
//! the `TypeId` on every one of the tens of thousands of lookups a run
//! makes. [`Extensions::take_box`] and [`Extensions::put_box`] move a
//! state out and back in its original box, so a borrow-out round trip
//! (see `vread_host::cluster::with_cluster`) allocates nothing.

use std::any::{Any, TypeId};

/// A type-indexed table of singleton extension states.
#[derive(Default)]
pub struct Extensions {
    slots: Vec<(TypeId, Box<dyn Any>)>,
}

impl std::fmt::Debug for Extensions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Extensions({} entries)", self.slots.len())
    }
}

impl Extensions {
    /// Creates an empty blackboard.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot<T: 'static>(&self) -> Option<usize> {
        let id = TypeId::of::<T>();
        self.slots.iter().position(|(t, _)| *t == id)
    }

    /// Stores `value`, replacing and returning any previous value of the
    /// same type.
    pub fn insert<T: 'static>(&mut self, value: T) -> Option<T> {
        self.put_box(Box::new(value)).map(|old| *old)
    }

    /// Stores an already boxed `value` without re-allocating, replacing
    /// and returning any previous value of the same type.
    pub fn put_box<T: 'static>(&mut self, value: Box<T>) -> Option<Box<T>> {
        match self.slot::<T>() {
            Some(i) => {
                let old = std::mem::replace(&mut self.slots[i].1, value);
                Some(old.downcast::<T>().expect("typeid collision"))
            }
            None => {
                self.slots.push((TypeId::of::<T>(), value));
                None
            }
        }
    }

    /// Shared access to the stored `T`, if present.
    pub fn get<T: 'static>(&self) -> Option<&T> {
        self.slots[self.slot::<T>()?].1.downcast_ref()
    }

    /// Exclusive access to the stored `T`, if present.
    pub fn get_mut<T: 'static>(&mut self) -> Option<&mut T> {
        let i = self.slot::<T>()?;
        self.slots[i].1.downcast_mut()
    }

    /// Removes and returns the stored `T`.
    pub fn remove<T: 'static>(&mut self) -> Option<T> {
        self.take_box::<T>().map(|b| *b)
    }

    /// Removes and returns the stored `T` in the box it lives in; give
    /// it back with [`Extensions::put_box`].
    pub fn take_box<T: 'static>(&mut self) -> Option<Box<T>> {
        let i = self.slot::<T>()?;
        let (_, value) = self.slots.swap_remove(i);
        Some(value.downcast::<T>().expect("typeid collision"))
    }

    /// Number of stored extension states.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, Debug, PartialEq)]
    struct CacheState {
        hits: u32,
    }

    #[derive(Default, Debug, PartialEq)]
    struct Other(u8);

    #[test]
    fn insert_get_mutate() {
        let mut e = Extensions::new();
        assert!(e.get::<CacheState>().is_none());
        e.insert(CacheState { hits: 1 });
        e.get_mut::<CacheState>().unwrap().hits += 1;
        assert_eq!(e.get::<CacheState>().unwrap().hits, 2);
    }

    #[test]
    fn replace_returns_old() {
        let mut e = Extensions::new();
        assert_eq!(e.insert(CacheState { hits: 1 }), None);
        let old = e.insert(CacheState { hits: 9 });
        assert_eq!(old, Some(CacheState { hits: 1 }));
        assert_eq!(e.remove::<CacheState>(), Some(CacheState { hits: 9 }));
        assert!(e.is_empty());
    }

    #[test]
    fn take_and_put_back_reuse_the_box() {
        let mut e = Extensions::new();
        e.insert(CacheState { hits: 3 });
        e.insert(Other(7));
        let b = e.take_box::<CacheState>().unwrap();
        let addr: *const CacheState = &*b;
        assert!(e.get::<CacheState>().is_none());
        assert_eq!(e.get::<Other>(), Some(&Other(7)));
        assert!(e.put_box(b).is_none());
        assert!(std::ptr::eq(e.get::<CacheState>().unwrap(), addr));
        assert_eq!(e.len(), 2);
        assert_eq!(e.take_box::<u64>(), None);
    }
}
