//! Shim synchronisation primitives.
//!
//! Stand-ins for `std::sync::{Mutex, Condvar}` and `std::sync::atomic::*`
//! that dispatch at construction time: created on a plain thread they wrap
//! the std primitive (a passthrough — one enum discriminant per call),
//! created inside a model-checked body (under [`crate::explore`]) they
//! become virtual objects whose every operation is a scheduling decision of
//! the virtual scheduler.
//!
//! Unlike std, [`Mutex::lock`] and [`Condvar::wait`] return the guard
//! itself, never a poison error: the shim owns the poison policy. On the
//! std path a lock poisoned by a thread that panicked while holding it is
//! recovered with `unwrap_or_else(PoisonError::into_inner)`, so the guard
//! sees whatever that thread left behind. Model mutexes never poison — a
//! panicking virtual thread fails the whole execution instead.
//!
//! Rules for checked bodies:
//! - construct every primitive *inside* the body closure (a std-backed
//!   primitive used under the model would block the real OS thread and hang
//!   the scheduler; debug builds assert against it);
//! - model atomics are sequentially consistent regardless of the `Ordering`
//!   argument (the scheduler serialises every access), so the checker can
//!   miss relaxed-memory bugs; orderings are still type-checked and linted.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, PoisonError};

use crate::runtime::{self, Exec, ObjId, ObjState, Op};

enum MutexImpl<T> {
    Std(std::sync::Mutex<T>),
    // The model variant still stores its data behind a *real* mutex: the
    // virtual scheduler already guarantees exclusivity (exactly one virtual
    // thread runs between yield points, and ownership is tracked at the
    // `MutexLock` decision), so the real lock is always uncontended during
    // exploration — but it keeps concurrently-unwinding threads memory-safe
    // during teardown, when destructors bypass the scheduler entirely.
    Model {
        exec: Arc<Exec>,
        id: ObjId,
        data: std::sync::Mutex<T>,
    },
}

/// Mutual exclusion primitive; see the module docs for dispatch rules.
pub struct Mutex<T> {
    inner: MutexImpl<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        let inner = match runtime::current() {
            Some((exec, _)) => {
                let id = exec.new_object(ObjState::Mutex { owner: None });
                MutexImpl::Model {
                    exec,
                    id,
                    data: std::sync::Mutex::new(value),
                }
            }
            None => MutexImpl::Std(std::sync::Mutex::new(value)),
        };
        Mutex { inner }
    }

    /// Acquire the mutex, recovering a poisoned lock (see the module docs).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match &self.inner {
            MutexImpl::Std(m) => {
                debug_assert!(
                    runtime::current().is_none(),
                    "std-backed Mutex used under the model checker; construct it inside the checked body"
                );
                let g = m.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard {
                    inner: Some(GuardImpl::Std(g)),
                }
            }
            MutexImpl::Model { exec, id, data } => {
                let (_, tid) =
                    runtime::current().expect("model Mutex locked outside a model-checked thread");
                runtime::yield_point(exec, tid, Op::MutexLock(*id));
                // Uncontended while the scheduler runs; a panicking virtual
                // thread may have poisoned it, which the model ignores (the
                // execution as a whole already failed or is being torn down).
                let g = data.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard {
                    inner: Some(GuardImpl::Model { m: self, g }),
                }
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            MutexImpl::Std(m) => m.fmt(f),
            MutexImpl::Model { id, .. } => write!(f, "Mutex(model #{id})"),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

enum GuardImpl<'a, T> {
    Std(std::sync::MutexGuard<'a, T>),
    Model {
        m: &'a Mutex<T>,
        g: std::sync::MutexGuard<'a, T>,
    },
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    inner: Option<GuardImpl<'a, T>>,
}

impl<'a, T> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self.inner.as_ref().expect("guard accessed after release") {
            GuardImpl::Std(g) => g,
            GuardImpl::Model { g, .. } => g,
        }
    }
}

impl<'a, T> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.inner.as_mut().expect("guard accessed after release") {
            GuardImpl::Std(g) => g,
            GuardImpl::Model { g, .. } => g,
        }
    }
}

impl<'a, T> Drop for MutexGuard<'a, T> {
    fn drop(&mut self) {
        if let Some(GuardImpl::Model { m, g }) = self.inner.take() {
            // Release the real backing lock first (no other virtual thread
            // can attempt it until the scheduler executes our MutexUnlock),
            // then yield the release decision — unless this thread is
            // unwinding, in which case the scheduler is bypassed.
            drop(g);
            if std::thread::panicking() {
                return;
            }
            if let MutexImpl::Model { exec, id, .. } = &m.inner {
                let (_, tid) =
                    runtime::current().expect("model guard dropped outside a model-checked thread");
                runtime::yield_point(exec, tid, Op::MutexUnlock(*id));
            }
        }
    }
}

enum CondvarImpl {
    Std(std::sync::Condvar),
    Model { exec: Arc<Exec>, id: ObjId },
}

/// Condition variable; must be paired with a [`Mutex`] from the same world.
pub struct Condvar {
    inner: CondvarImpl,
}

impl Condvar {
    pub fn new() -> Self {
        let inner = match runtime::current() {
            Some((exec, _)) => {
                let id = exec.new_object(ObjState::Cond {
                    waiters: std::collections::VecDeque::new(),
                });
                CondvarImpl::Model { exec, id }
            }
            None => CondvarImpl::Std(std::sync::Condvar::new()),
        };
        Condvar { inner }
    }

    /// Release `guard`'s mutex, park until notified, then re-acquire it,
    /// recovering a poisoned lock as [`Mutex::lock`] does.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match (&self.inner, guard.inner.take()) {
            (CondvarImpl::Std(cv), Some(GuardImpl::Std(g))) => {
                // lint:allow(C1): the shim forwards exactly one wait; the
                // predicate recheck loop belongs to (and is linted at) the
                // call site, same as with a bare std Condvar.
                let g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                MutexGuard {
                    inner: Some(GuardImpl::Std(g)),
                }
            }
            (CondvarImpl::Model { exec, id }, Some(GuardImpl::Model { m, g })) => {
                let (mid, data) = match &m.inner {
                    MutexImpl::Model { id, data, .. } => (*id, data),
                    MutexImpl::Std(_) => unreachable!("model guard over std mutex"),
                };
                // Release the real backing lock before parking (mirrors the
                // CondWait decision, which releases model ownership).
                drop(g);
                let (_, tid) = runtime::current()
                    .expect("model Condvar waited outside a model-checked thread");
                runtime::yield_point(
                    exec,
                    tid,
                    Op::CondWait {
                        cv: *id,
                        mutex: mid,
                    },
                );
                runtime::yield_point(
                    exec,
                    tid,
                    Op::CondReacquire {
                        cv: *id,
                        mutex: mid,
                    },
                );
                let g = data.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard {
                    inner: Some(GuardImpl::Model { m, g }),
                }
            }
            _ => panic!(
                "Condvar::wait: condvar and mutex guard from different worlds (std vs model)"
            ),
        }
    }

    pub fn notify_one(&self) {
        match &self.inner {
            CondvarImpl::Std(cv) => cv.notify_one(),
            CondvarImpl::Model { exec, id } => {
                let (_, tid) = runtime::current()
                    .expect("model Condvar notified outside a model-checked thread");
                runtime::yield_point(exec, tid, Op::NotifyOne(*id));
            }
        }
    }

    pub fn notify_all(&self) {
        match &self.inner {
            CondvarImpl::Std(cv) => cv.notify_all(),
            CondvarImpl::Model { exec, id } => {
                let (_, tid) = runtime::current()
                    .expect("model Condvar notified outside a model-checked thread");
                runtime::yield_point(exec, tid, Op::NotifyAll(*id));
            }
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            CondvarImpl::Std(_) => write!(f, "Condvar"),
            CondvarImpl::Model { id, .. } => write!(f, "Condvar(model #{id})"),
        }
    }
}

/// Shim atomics. Under the model every operation (including plain loads) is
/// one scheduling decision and is sequentially consistent; the `Ordering`
/// argument is honoured only on the std path.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use std::sync::Arc;

    use crate::runtime::{self, Exec, ObjId, ObjState};

    enum AtomicImpl<S> {
        Std(S),
        Model { exec: Arc<Exec>, id: ObjId },
    }

    impl<S> AtomicImpl<S> {
        fn new_with(value: u64, make_std: impl FnOnce() -> S) -> Self {
            match runtime::current() {
                Some((exec, _)) => {
                    let id = exec.new_object(ObjState::Atomic { value });
                    AtomicImpl::Model { exec, id }
                }
                None => AtomicImpl::Std(make_std()),
            }
        }

        fn model_access<R>(exec: &Arc<Exec>, id: ObjId, f: impl FnOnce(&mut u64) -> R) -> R {
            let (_, tid) =
                runtime::current().expect("model atomic accessed outside a model-checked thread");
            runtime::atomic_access(exec, tid, id, f)
        }
    }

    macro_rules! shim_atomic_int {
        ($name:ident, $std:ty, $ty:ty) => {
            pub struct $name {
                inner: AtomicImpl<$std>,
            }

            impl $name {
                pub fn new(value: $ty) -> Self {
                    $name {
                        inner: AtomicImpl::new_with(value as u64, || <$std>::new(value)),
                    }
                }

                pub fn load(&self, order: Ordering) -> $ty {
                    match &self.inner {
                        AtomicImpl::Std(a) => a.load(order),
                        AtomicImpl::Model { exec, id } => {
                            AtomicImpl::<$std>::model_access(exec, *id, |v| *v as $ty)
                        }
                    }
                }

                pub fn store(&self, value: $ty, order: Ordering) {
                    match &self.inner {
                        AtomicImpl::Std(a) => a.store(value, order),
                        AtomicImpl::Model { exec, id } => {
                            AtomicImpl::<$std>::model_access(exec, *id, |v| *v = value as u64)
                        }
                    }
                }

                pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                    match &self.inner {
                        AtomicImpl::Std(a) => a.swap(value, order),
                        AtomicImpl::Model { exec, id } => {
                            AtomicImpl::<$std>::model_access(exec, *id, |v| {
                                let old = *v as $ty;
                                *v = value as u64;
                                old
                            })
                        }
                    }
                }

                pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                    match &self.inner {
                        AtomicImpl::Std(a) => a.fetch_add(value, order),
                        AtomicImpl::Model { exec, id } => {
                            AtomicImpl::<$std>::model_access(exec, *id, |v| {
                                let old = *v as $ty;
                                *v = old.wrapping_add(value) as u64;
                                old
                            })
                        }
                    }
                }

                pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                    match &self.inner {
                        AtomicImpl::Std(a) => a.fetch_sub(value, order),
                        AtomicImpl::Model { exec, id } => {
                            AtomicImpl::<$std>::model_access(exec, *id, |v| {
                                let old = *v as $ty;
                                *v = old.wrapping_sub(value) as u64;
                                old
                            })
                        }
                    }
                }

                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    mut f: F,
                ) -> Result<$ty, $ty>
                where
                    F: FnMut($ty) -> Option<$ty>,
                {
                    match &self.inner {
                        AtomicImpl::Std(a) => a.fetch_update(set_order, fetch_order, f),
                        AtomicImpl::Model { exec, id } => {
                            AtomicImpl::<$std>::model_access(exec, *id, |v| {
                                let old = *v as $ty;
                                match f(old) {
                                    Some(new) => {
                                        *v = new as u64;
                                        Ok(old)
                                    }
                                    None => Err(old),
                                }
                            })
                        }
                    }
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(0)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    match &self.inner {
                        AtomicImpl::Std(a) => a.fmt(f),
                        AtomicImpl::Model { id, .. } => {
                            write!(f, concat!(stringify!($name), "(model #{})"), id)
                        }
                    }
                }
            }
        };
    }

    shim_atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    shim_atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    pub struct AtomicBool {
        inner: AtomicImpl<std::sync::atomic::AtomicBool>,
    }

    impl AtomicBool {
        pub fn new(value: bool) -> Self {
            AtomicBool {
                inner: AtomicImpl::new_with(value as u64, || {
                    std::sync::atomic::AtomicBool::new(value)
                }),
            }
        }

        pub fn load(&self, order: Ordering) -> bool {
            match &self.inner {
                AtomicImpl::Std(a) => a.load(order),
                AtomicImpl::Model { exec, id } => {
                    AtomicImpl::<std::sync::atomic::AtomicBool>::model_access(exec, *id, |v| {
                        *v != 0
                    })
                }
            }
        }

        pub fn store(&self, value: bool, order: Ordering) {
            match &self.inner {
                AtomicImpl::Std(a) => a.store(value, order),
                AtomicImpl::Model { exec, id } => {
                    AtomicImpl::<std::sync::atomic::AtomicBool>::model_access(exec, *id, |v| {
                        *v = value as u64
                    })
                }
            }
        }

        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            match &self.inner {
                AtomicImpl::Std(a) => a.swap(value, order),
                AtomicImpl::Model { exec, id } => {
                    AtomicImpl::<std::sync::atomic::AtomicBool>::model_access(exec, *id, |v| {
                        let old = *v != 0;
                        *v = value as u64;
                        old
                    })
                }
            }
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match &self.inner {
                AtomicImpl::Std(a) => a.fmt(f),
                AtomicImpl::Model { id, .. } => write!(f, "AtomicBool(model #{id})"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::spawn_named;

    #[test]
    fn poisoned_lock_and_wait_return_the_guard() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p = Arc::clone(&pair);
        let writer = spawn_named("poisoner", move || {
            let mut g = p.0.lock();
            *g = 7;
            panic!("panic while holding the lock, poisoning it");
        });
        assert!(writer.join().is_err(), "the writer panicked");
        let (m, cv) = &*pair;
        match &m.inner {
            MutexImpl::Std(std_m) => assert!(std_m.is_poisoned()),
            MutexImpl::Model { .. } => unreachable!("built on a plain thread"),
        }

        let mut g = m.lock();
        assert_eq!(*g, 7, "the guard sees the write made before the panic");

        // The notifier cannot lock until `wait` releases `g`, so at least
        // one wait re-acquires the (still) poisoned mutex.
        let p = Arc::clone(&pair);
        let notifier = spawn_named("notifier", move || {
            *p.0.lock() = 8;
            p.1.notify_one();
        });
        while *g != 8 {
            g = cv.wait(g);
        }
        drop(g);
        assert!(notifier.join().is_ok());
    }
}
