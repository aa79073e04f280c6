//! Catalog-wide string interner.
//!
//! All string columns of all tables in one [`crate::Catalog`] share a single
//! interner, so string equality anywhere in the system — unary predicates,
//! equality join predicates, hash-index keys — reduces to a `u32` code
//! comparison. This is what lets the multi-way join engine canonicalize every
//! equality key into a `u64` (see `skinner-core`).
//!
//! The interner is append-only: codes, once handed out, never change, so
//! readers may cache codes freely. Interning is guarded by a `parking_lot`
//! lock; reads of already-interned strings take the read path only.

use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// Append-only string interner. Thread-safe; cheap to share via `Arc`.
#[derive(Debug, Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    strings: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its stable code. Idempotent.
    pub fn intern(&self, s: &str) -> u32 {
        self.assert_not_held();
        if let Some(&c) = self.inner.read().codes.get(s) {
            return c;
        }
        let mut inner = self.inner.write();
        if let Some(&c) = inner.codes.get(s) {
            return c;
        }
        let code = u32::try_from(inner.strings.len()).expect("interner overflow");
        let arc: Arc<str> = Arc::from(s);
        inner.strings.push(arc.clone());
        inner.codes.insert(arc, code);
        code
    }

    /// Look up the code for `s` without interning. `None` if never seen.
    ///
    /// Useful at bind time: a string literal that was never loaded into any
    /// table cannot match any row, so the binder can fold the predicate to
    /// a comparison against an impossible code.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.assert_not_held();
        self.inner.read().codes.get(s).copied()
    }

    /// Resolve a code back to its string. Panics on an unknown code, which
    /// indicates a cross-catalog mixup (a bug, not a user error).
    pub fn resolve(&self, code: u32) -> Arc<str> {
        self.assert_not_held();
        self.inner.read().strings[code as usize].clone()
    }

    /// A held read for `skinner_exec`'s post-processing kernel, which looks
    /// up a run of codes without a lock round-trip or an `Arc` clone per
    /// string. Not general API: interning blocks while a guard is alive,
    /// and the holding thread must not call [`Interner::resolve`] or
    /// [`Interner::intern`] (the lock is not re-entrant once a writer
    /// waits) — the kernel gives the guard back before it evaluates any
    /// expression and at least every 1024 tuples. Debug builds assert
    /// that rule.
    #[doc(hidden)]
    pub fn read(&self) -> InternerRead<'_> {
        self.assert_not_held();
        #[cfg(debug_assertions)]
        HELD.with(|held| held.borrow_mut().push(self.id()));
        InternerRead {
            guard: self.inner.read(),
            #[cfg(debug_assertions)]
            owner: self.id(),
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.assert_not_held();
        self.inner.read().strings.len()
    }

    /// True if no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Debug builds: this thread must not hold an [`InternerRead`] of this
    /// interner, or the call deadlocks as soon as a writer waits.
    fn assert_not_held(&self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| debug_assert!(!held.borrow().contains(&self.id()), "interner re-entered"));
    }

    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        self as *const Interner as usize
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// The interners whose [`InternerRead`] this thread holds.
    static HELD: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A held read of an [`Interner`]; see [`Interner::read`].
#[doc(hidden)]
pub struct InternerRead<'a> {
    guard: RwLockReadGuard<'a, Inner>,
    #[cfg(debug_assertions)]
    owner: usize,
}

impl InternerRead<'_> {
    /// The string with code `code`. Panics on unknown codes.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.guard.strings[code as usize]
    }
}

#[cfg(debug_assertions)]
impl Drop for InternerRead<'_> {
    fn drop(&mut self) {
        // `try_with`: a drop during thread teardown must not panic.
        let _ = HELD.try_with(|held| held.borrow_mut().retain(|&id| id != self.owner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("hello");
        let b = i.intern("hello");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn codes_are_dense_and_resolvable() {
        let i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(&*i.resolve(a), "a");
        assert_eq!(&*i.resolve(b), "b");
    }

    #[test]
    fn held_read_resolves_without_cloning() {
        let i = Interner::new();
        let (a, b) = (i.intern("a"), i.intern("b"));
        let resolved = i.resolve(b);
        let r = i.read();
        assert_eq!(&**r.get(a), "a");
        assert!(r.get(a) < r.get(b));
        assert!(Arc::ptr_eq(r.get(b), &resolved));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-entered")]
    fn resolving_under_a_held_read_asserts() {
        let i = Interner::new();
        let a = i.intern("a");
        let _r = i.read();
        i.resolve(a);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_dropped_read_and_other_interners_do_not_assert() {
        let (i, j) = (Interner::new(), Interner::new());
        let a = i.intern("a");
        drop(i.read());
        let _r = i.read();
        assert_eq!(j.intern("b"), 0);
        assert_eq!(
            &*std::thread::scope(|s| s.spawn(|| i.resolve(a)).join().unwrap()),
            "a"
        );
    }

    #[test]
    fn lookup_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.lookup("ghost"), None);
        assert_eq!(i.len(), 0);
        i.intern("ghost");
        assert_eq!(i.lookup("ghost"), Some(0));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let i = Arc::new(Interner::new());
        let mut handles = vec![];
        for t in 0..4 {
            let i = i.clone();
            handles.push(std::thread::spawn(move || {
                let mut codes = vec![];
                for k in 0..100 {
                    codes.push(i.intern(&format!("s{}", (k + t) % 50)));
                }
                codes
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 50 distinct strings regardless of interleaving.
        assert_eq!(i.len(), 50);
        // Every code resolves back to a string that re-interns to itself.
        for c in 0..50u32 {
            let s = i.resolve(c);
            assert_eq!(i.intern(&s), c);
        }
    }
}
