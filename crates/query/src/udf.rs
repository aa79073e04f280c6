//! User-defined function registry.
//!
//! UDF predicates are first-class in the SkinnerDB evaluation: the *UDF
//! Torture* benchmark and the TPC-H UDF variant replace ordinary predicates
//! with opaque functions that the traditional optimizer cannot estimate
//! (it falls back to a default selectivity), while SkinnerDB's learning
//! strategies handle them like any other predicate.
//!
//! UDFs are plain Rust closures over [`Value`] arguments. A call costs the
//! function and the building of its arguments, nothing shared. At a call
//! site whose arguments are all bare int or float columns (arity 1 to 4,
//! as in `udf_eq(t0.b, t1.a)`) the building is a column read per argument,
//! written straight into the array the function gets (see [`crate::pred`]),
//! so the `Value` signature costs next to nothing there. The registry keeps
//! no call counter, so a UDF that wants to be counted counts itself (its
//! closure captures its own counter, as `crates/query/tests/pred_model.rs`
//! and `tests/udf_calls_golden.rs` do).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use skinner_storage::Value;

/// Stable identifier of a registered UDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdfId(pub u32);

/// The function type: pure, thread-safe, `Value`s in, `Value` out.
pub type UdfFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

struct UdfEntry {
    name: String,
    func: UdfFn,
    ret: skinner_storage::DataType,
}

#[derive(Default)]
struct Inner {
    by_name: HashMap<String, UdfId>,
    entries: Vec<UdfEntry>,
}

/// Registry of UDFs, shared by the binder and all engines.
///
/// Internally synchronized: registration takes `&self`, so a registry
/// behind an `Arc` (as in the `Database` facade) accepts new UDFs from any
/// thread while sessions are running.
#[derive(Default)]
pub struct UdfRegistry {
    inner: RwLock<Inner>,
}

impl UdfRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a boolean/integer-valued `func` under `name`
    /// (case-insensitive). Re-registering a name replaces the function but
    /// keeps the id, so bound queries keep working.
    pub fn register(
        &self,
        name: &str,
        func: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> UdfId {
        self.register_typed(name, skinner_storage::DataType::Int, func)
    }

    /// Register a UDF with an explicit return type (binder uses it for type
    /// checks around the call site).
    pub fn register_typed(
        &self,
        name: &str,
        ret: skinner_storage::DataType,
        func: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> UdfId {
        let key = name.to_ascii_lowercase();
        let mut inner = self.inner.write();
        match inner.by_name.get(&key) {
            Some(&id) => {
                let e = &mut inner.entries[id.0 as usize];
                e.func = Arc::new(func);
                e.ret = ret;
                id
            }
            None => {
                let id = UdfId(inner.entries.len() as u32);
                inner.entries.push(UdfEntry {
                    name: key.clone(),
                    func: Arc::new(func),
                    ret,
                });
                inner.by_name.insert(key, id);
                id
            }
        }
    }

    /// Declared return type of `id`.
    pub fn return_type(&self, id: UdfId) -> skinner_storage::DataType {
        self.inner.read().entries[id.0 as usize].ret
    }

    /// Look up a UDF by name.
    pub fn lookup(&self, name: &str) -> Option<UdfId> {
        self.inner
            .read()
            .by_name
            .get(&name.to_ascii_lowercase())
            .copied()
    }

    /// The function behind `id` (cheap Arc clone).
    pub fn func(&self, id: UdfId) -> UdfFn {
        self.inner.read().entries[id.0 as usize].func.clone()
    }

    /// The (lowercased) registered name of `id`.
    pub fn name(&self, id: UdfId) -> String {
        self.inner.read().entries[id.0 as usize].name.clone()
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdfRegistry")
            .field(
                "udfs",
                &self
                    .inner
                    .read()
                    .entries
                    .iter()
                    .map(|e| e.name.clone())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let r = UdfRegistry::new();
        let id = r.register("double_it", |args| {
            Value::Int(args[0].as_i64().unwrap() * 2)
        });
        let f = r.func(id);
        assert_eq!(f(&[Value::Int(21)]).as_i64(), Some(42));
        assert_eq!(r.lookup("DOUBLE_IT"), Some(id));
        assert_eq!(r.name(id), "double_it");
    }

    #[test]
    fn reregistering_keeps_id() {
        let r = UdfRegistry::new();
        let id1 = r.register("f", |_| Value::Int(1));
        let id2 = r.register("f", |_| Value::Int(2));
        assert_eq!(id1, id2);
        assert_eq!(r.func(id1)(&[]).as_i64(), Some(2));
    }
}
