//! Shim thread spawning; every thread it creates is named.
//!
//! [`spawn_named`] is the repo-wide entry point for creating threads (lint
//! rule C4 enforces it in the serving crates): on a plain thread it is
//! `std::thread::Builder::new().name(..).spawn(..)`, inside a model-checked
//! body it registers a virtual thread with the scheduler. Scoped threads
//! ([`spawn_scoped_named`]) are std-only — the model checker does not
//! support borrowed closures.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::runtime::{self, Exec, Op, TaskId};

enum JoinImpl<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        exec: Arc<Exec>,
        id: TaskId,
        _t: PhantomData<T>,
    },
}

/// Handle to a spawned (real or virtual) thread.
pub struct JoinHandle<T> {
    inner: JoinImpl<T>,
}

impl<T: 'static> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            JoinImpl::Std(h) => h.join(),
            JoinImpl::Model { exec, id, .. } => {
                let (_, tid) = runtime::current()
                    .expect("model JoinHandle joined outside a model-checked thread");
                runtime::yield_point(&exec, tid, Op::Join(id));
                let boxed = {
                    let mut g = runtime::lock_inner(&exec);
                    g.threads[id]
                        .result
                        .take()
                        .expect("internal: joined virtual thread has no result")
                };
                Ok(*boxed
                    .downcast::<T>()
                    .expect("internal: virtual thread result type mismatch"))
            }
        }
    }
}

/// Spawn a thread with an explicit name (visible in panics and `/proc`).
pub fn spawn_named<F, T>(name: impl Into<String>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let name = name.into();
    match runtime::current() {
        None => {
            let h = std::thread::Builder::new()
                .name(name.clone())
                .spawn(f)
                .unwrap_or_else(|e| panic!("failed to spawn thread {name:?}: {e}"));
            JoinHandle {
                inner: JoinImpl::Std(h),
            }
        }
        Some((exec, tid)) => {
            let id = runtime::register_thread(
                &exec,
                name,
                Box::new(move || Box::new(f()) as Box<dyn Any + Send>),
            );
            runtime::yield_point(&exec, tid, Op::Spawn);
            JoinHandle {
                inner: JoinImpl::Model {
                    exec,
                    id,
                    _t: PhantomData,
                },
            }
        }
    }
}

/// Named scoped spawn (std passthrough only; panics under the model).
pub fn spawn_scoped_named<'scope, 'env, F, T>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    name: impl Into<String>,
    f: F,
) -> std::thread::ScopedJoinHandle<'scope, T>
where
    F: FnOnce() -> T + Send + 'scope,
    T: Send + 'scope,
{
    assert!(
        runtime::current().is_none(),
        "scoped threads are not supported under the model checker"
    );
    let name = name.into();
    std::thread::Builder::new()
        .name(name.clone())
        .spawn_scoped(scope, f)
        .unwrap_or_else(|e| panic!("failed to spawn scoped thread {name:?}: {e}"))
}
