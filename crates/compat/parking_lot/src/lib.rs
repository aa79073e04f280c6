//! Offline stand-in for `parking_lot`: wraps `std::sync` primitives behind
//! parking_lot's non-poisoning API (`lock()`/`read()`/`write()` return
//! guards directly). Poisoning is ignored, as in parking_lot: after a
//! panic while a guard was held, every accessor still hands out the guard
//! (or the value) instead of panicking, and the data is left as the
//! panicking thread left it.

use std::sync::{Mutex as StdMutex, RwLock as StdRwLock};

/// Guard types, nameable by callers that store a guard in a struct.
pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Non-poisoning mutex (API subset of `parking_lot::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Non-poisoning reader-writer lock (API subset of `parking_lot::RwLock`).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(StdRwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(StdRwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_rwlock_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);

        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_across_threads() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }
}
