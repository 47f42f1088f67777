//! Virtual-scheduler core of the model checker.
//!
//! Every shim primitive (`sync::Mutex`, `sync::Condvar`, `sync::atomic`,
//! `thread::spawn_named`) funnels into [`yield_point`]: the calling virtual
//! thread announces its pending [`Op`], parks itself, and the scheduler picks
//! which announced op runs next. Exactly one virtual thread executes at a
//! time (baton passing over one std mutex/condvar pair), so user code between
//! yield points runs atomically and data owned by shim mutexes needs no
//! additional synchronisation.
//!
//! Exploration state lives in the persistent [`Node`] stack: each scheduling
//! decision records the chosen thread, the candidate set it was chosen from,
//! a DPOR-style sleep set, and the pending op of every candidate. The
//! explorer replays a prefix by feeding the node stack back in and
//! backtracking the deepest node with an unexplored, non-sleeping candidate.
//!
//! Condvar waits are modelled in two phases — [`Op::CondWait`] (release the
//! mutex, enqueue as a waiter) followed by [`Op::CondReacquire`] (runnable
//! once notified, or via the bounded spurious-wakeup budget, and the mutex is
//! free). A dropped notification therefore shows up as a detected deadlock in
//! the schedules where no spurious wakeup is injected, while the spurious
//! branch catches `if`-instead-of-`while` wait loops.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
};

/// Index of a virtual thread within an execution.
pub type TaskId = usize;
/// Index of a modelled synchronisation object (mutex, condvar, atomic).
pub type ObjId = usize;

/// The visible operation a virtual thread is about to perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// First scheduling of a freshly spawned thread.
    Start,
    /// The parent's side of a `spawn` (the child is already registered).
    Spawn,
    MutexLock(ObjId),
    MutexUnlock(ObjId),
    /// Phase one of `Condvar::wait`: release the mutex and enqueue.
    CondWait {
        cv: ObjId,
        mutex: ObjId,
    },
    /// Phase two: wake (notified or spurious) and reacquire the mutex.
    CondReacquire {
        cv: ObjId,
        mutex: ObjId,
    },
    NotifyOne(ObjId),
    NotifyAll(ObjId),
    /// Any read-modify-write on a modelled atomic.
    Atomic(ObjId),
    /// Wait for the target thread to finish.
    Join(TaskId),
}

impl Op {
    /// Objects this op touches, or `None` for "global" ops that are
    /// conservatively dependent on everything (spawn/join/start).
    fn footprint(&self) -> Option<(ObjId, Option<ObjId>)> {
        match *self {
            Op::Start | Op::Spawn | Op::Join(_) => None,
            Op::MutexLock(m) | Op::MutexUnlock(m) => Some((m, None)),
            Op::NotifyOne(c) | Op::NotifyAll(c) => Some((c, None)),
            Op::Atomic(o) => Some((o, None)),
            Op::CondWait { cv, mutex } | Op::CondReacquire { cv, mutex } => Some((cv, Some(mutex))),
        }
    }

    /// Two ops are independent when they touch disjoint object sets; used to
    /// propagate sleep sets (a sleeping transition stays asleep only while
    /// the executed op cannot affect it).
    pub fn independent(&self, other: &Op) -> bool {
        let (Some(a), Some(b)) = (self.footprint(), other.footprint()) else {
            return false;
        };
        let touches = |f: (ObjId, Option<ObjId>), o: ObjId| f.0 == o || f.1 == Some(o);
        !(touches(b, a.0) || a.1.is_some_and(|x| touches(b, x)))
    }
}

/// Exploration bounds. Defaults are sized for CI smoke runs of small
/// fixtures (2–3 threads, ring capacities 1–2).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum number of times the scheduler may switch away from a thread
    /// that is still runnable. Most concurrency bugs need very few
    /// preemptions (CHESS observation); 2 is a good default.
    pub preemption_bound: usize,
    /// Per-execution budget of injected spurious condvar wakeups.
    pub spurious_wakeups: usize,
    /// Upper bound on explored executions (schedules + pruned); exceeding it
    /// marks the report truncated rather than failing.
    pub max_schedules: usize,
    /// Per-execution bound on scheduling decisions (runaway guard).
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            spurious_wakeups: 1,
            max_schedules: 200_000,
            max_steps: 50_000,
        }
    }
}

pub(crate) enum ObjState {
    Mutex { owner: Option<TaskId> },
    Cond { waiters: VecDeque<TaskId> },
    Atomic { value: u64 },
}

pub(crate) struct VThread {
    pub name: String,
    pub pending: Op,
    /// Set by notify_one/notify_all when this thread is popped off a condvar
    /// waiter queue; consumed by its CondReacquire.
    pub notified: bool,
    pub finished: bool,
    pub result: Option<Box<dyn Any + Send>>,
}

impl VThread {
    fn new(name: String) -> Self {
        VThread {
            name,
            pending: Op::Start,
            notified: false,
            finished: false,
            result: None,
        }
    }
}

/// One recorded scheduling decision, persistent across executions.
#[derive(Clone, Debug)]
pub struct Node {
    pub chosen: TaskId,
    /// Candidate set the choice was made from (after preemption bounding).
    pub candidates: Vec<TaskId>,
    /// Sleep set: candidates proven redundant here (explored siblings plus
    /// inherited sleepers), never re-chosen.
    pub sleep: BTreeSet<TaskId>,
    /// Pending op of every candidate at decision time (for independence).
    pub ops: BTreeMap<TaskId, Op>,
}

impl Node {
    /// Move to the next unexplored candidate; returns false when exhausted.
    pub fn advance(&mut self) -> bool {
        self.sleep.insert(self.chosen);
        for &c in &self.candidates {
            if !self.sleep.contains(&c) {
                self.chosen = c;
                return true;
            }
        }
        false
    }
}

pub(crate) struct ExecInner {
    pub threads: Vec<VThread>,
    pub objects: Vec<ObjState>,
    /// Schedule script: prefix replayed from the previous execution, extended
    /// with fresh nodes past its end.
    pub nodes: Vec<Node>,
    pub depth: usize,
    pub active: Option<TaskId>,
    pub last_running: Option<TaskId>,
    pub preemptions: usize,
    pub spurious_left: usize,
    /// Sleep set inherited by the next decision from its parent.
    pub inherited_sleep: BTreeSet<TaskId>,
    pub trace: Vec<String>,
    pub failure: Option<String>,
    /// All candidates at a fresh node were asleep: execution is redundant.
    pub sleep_blocked: bool,
    pub abort: bool,
    pub complete: bool,
    pub handles: Vec<std::thread::JoinHandle<()>>,
    pub steps: usize,
}

pub(crate) struct Exec {
    pub(crate) inner: StdMutex<ExecInner>,
    pub(crate) cv: StdCondvar,
    pub(crate) cfg: Config,
}

/// Panic payload used to unwind parked threads when an execution ends early
/// (failure, prune). Caught and swallowed by `vthread_main`.
pub(crate) struct Teardown;

thread_local! {
    static CTX: RefCell<Option<(Arc<Exec>, TaskId)>> = const { RefCell::new(None) };
}

/// The model-checker context of the calling OS thread, if it is a virtual
/// thread of a running execution.
pub(crate) fn current() -> Option<(Arc<Exec>, TaskId)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(v: Option<(Arc<Exec>, TaskId)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

pub(crate) fn lock_inner(exec: &Exec) -> StdMutexGuard<'_, ExecInner> {
    exec.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cv_wait<'a>(exec: &'a Exec, g: StdMutexGuard<'a, ExecInner>) -> StdMutexGuard<'a, ExecInner> {
    // lint:allow(C1): poison-recovery helper; every caller loops on its
    // own predicate (`active == Some(tid)` / `complete || abort`).
    exec.cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

impl Exec {
    pub(crate) fn new_object(self: &Arc<Self>, st: ObjState) -> ObjId {
        let mut g = lock_inner(self);
        g.objects.push(st);
        g.objects.len() - 1
    }
}

fn mutex_owner(objects: &mut [ObjState], m: ObjId) -> &mut Option<TaskId> {
    match &mut objects[m] {
        ObjState::Mutex { owner } => owner,
        _ => panic!("model object {m} is not a mutex"),
    }
}

fn cond_waiters(objects: &mut [ObjState], c: ObjId) -> &mut VecDeque<TaskId> {
    match &mut objects[c] {
        ObjState::Cond { waiters } => waiters,
        _ => panic!("model object {c} is not a condvar"),
    }
}

/// Whether `tid` can be scheduled. A non-notified condvar waiter is only
/// runnable via the spurious-wakeup budget, and only when `allow_spurious` —
/// the scheduler grants that solely while some thread is *genuinely*
/// runnable, so a quiescent state whose only way forward is a spurious
/// wakeup is reported as a (lost-wakeup) deadlock instead of papered over.
fn is_executable(g: &ExecInner, tid: TaskId, allow_spurious: bool) -> bool {
    let t = &g.threads[tid];
    if t.finished {
        return false;
    }
    let owner_free = |m: ObjId| match &g.objects[m] {
        ObjState::Mutex { owner } => owner.is_none(),
        _ => false,
    };
    match t.pending {
        Op::MutexLock(m) => owner_free(m),
        Op::CondReacquire { mutex, .. } => {
            (t.notified || (allow_spurious && g.spurious_left > 0)) && owner_free(mutex)
        }
        Op::Join(target) => g.threads[target].finished,
        _ => true,
    }
}

/// Apply the effects of `tid`'s pending op. Called exactly once, when the
/// scheduler hands `tid` the baton.
fn execute(g: &mut ExecInner, tid: TaskId) {
    let op = g.threads[tid].pending;
    match op {
        Op::Start | Op::Spawn | Op::Join(_) | Op::Atomic(_) => {}
        Op::MutexLock(m) => {
            let owner = mutex_owner(&mut g.objects, m);
            debug_assert!(owner.is_none(), "lock of held mutex scheduled");
            *owner = Some(tid);
        }
        Op::MutexUnlock(m) => {
            let owner = mutex_owner(&mut g.objects, m);
            debug_assert_eq!(*owner, Some(tid), "unlock by non-owner scheduled");
            *owner = None;
        }
        Op::CondWait { cv, mutex } => {
            *mutex_owner(&mut g.objects, mutex) = None;
            cond_waiters(&mut g.objects, cv).push_back(tid);
            g.threads[tid].notified = false;
        }
        Op::CondReacquire { cv, mutex } => {
            if !g.threads[tid].notified {
                debug_assert!(
                    g.spurious_left > 0,
                    "spurious wakeup scheduled without budget"
                );
                g.spurious_left -= 1;
                cond_waiters(&mut g.objects, cv).retain(|&w| w != tid);
                let name = g.threads[tid].name.clone();
                g.trace
                    .push(format!("t{tid} {name}: spurious wakeup from cv#{cv}"));
            }
            g.threads[tid].notified = false;
            *mutex_owner(&mut g.objects, mutex) = Some(tid);
        }
        Op::NotifyOne(cv) => {
            if let Some(w) = cond_waiters(&mut g.objects, cv).pop_front() {
                g.threads[w].notified = true;
            }
        }
        Op::NotifyAll(cv) => {
            while let Some(w) = cond_waiters(&mut g.objects, cv).pop_front() {
                g.threads[w].notified = true;
            }
        }
    }
}

/// Pick the next thread to run. Called with `active == None` after a thread
/// announced its pending op (or finished). Sets `active`, or marks the
/// execution complete / deadlocked / pruned, and always wakes everyone.
pub(crate) fn schedule(exec: &Exec, g: &mut ExecInner) {
    if g.abort || g.complete {
        exec.cv.notify_all();
        return;
    }
    g.steps += 1;
    if g.steps > exec.cfg.max_steps {
        g.failure = Some(format!(
            "step budget exceeded ({} scheduling decisions); raise Config::max_steps or shrink the fixture",
            exec.cfg.max_steps
        ));
        g.abort = true;
        exec.cv.notify_all();
        return;
    }
    let genuine: Vec<TaskId> = (0..g.threads.len())
        .filter(|&t| is_executable(g, t, false))
        .collect();
    if genuine.is_empty() {
        if g.threads.iter().all(|t| t.finished) {
            g.complete = true;
        } else {
            let mut msg = String::from("deadlock: no genuinely runnable thread\n");
            for (i, t) in g.threads.iter().enumerate() {
                if t.finished {
                    continue;
                }
                let note = match t.pending {
                    Op::CondReacquire { .. } if !t.notified => {
                        " (lost wakeup: waiting with no pending notification)"
                    }
                    _ => "",
                };
                msg.push_str(&format!(
                    "  t{i} {}: blocked at {:?}{note}\n",
                    t.name, t.pending
                ));
            }
            g.failure = Some(msg);
            g.abort = true;
        }
        exec.cv.notify_all();
        return;
    }
    let allow_spurious = g.spurious_left > 0;
    let executable: Vec<TaskId> = (0..g.threads.len())
        .filter(|&t| is_executable(g, t, allow_spurious))
        .collect();

    // Preemption bound: once spent, a still-runnable previous thread keeps
    // the baton.
    let mut candidates = executable.clone();
    if let Some(prev) = g.last_running {
        if executable.contains(&prev) && g.preemptions >= exec.cfg.preemption_bound {
            candidates = vec![prev];
        }
    }

    let chosen;
    let exec_op;
    if g.depth < g.nodes.len() {
        // Replay the scripted prefix from the previous execution.
        let node = &g.nodes[g.depth];
        if !candidates.contains(&node.chosen) {
            g.failure = Some(format!(
                "internal: replay diverged at depth {} (scripted t{} not in candidates {:?}) — checked body is nondeterministic",
                g.depth, node.chosen, candidates
            ));
            g.abort = true;
            exec.cv.notify_all();
            return;
        }
        chosen = node.chosen;
        exec_op = g.threads[chosen].pending;
        // Recompute the child sleep set from the *updated* node (its sleep
        // now contains siblings explored since this node was created).
        g.inherited_sleep = node
            .sleep
            .iter()
            .copied()
            .filter(|&s| s != chosen && node.ops.get(&s).is_some_and(|o| o.independent(&exec_op)))
            .collect();
    } else {
        let sleep: BTreeSet<TaskId> = g
            .inherited_sleep
            .iter()
            .copied()
            .filter(|s| candidates.contains(s))
            .collect();
        let Some(&first) = candidates.iter().find(|c| !sleep.contains(c)) else {
            // Everything runnable here is provably redundant: prune.
            g.sleep_blocked = true;
            g.abort = true;
            exec.cv.notify_all();
            return;
        };
        chosen = first;
        exec_op = g.threads[chosen].pending;
        let ops: BTreeMap<TaskId, Op> = candidates
            .iter()
            .map(|&c| (c, g.threads[c].pending))
            .collect();
        g.inherited_sleep = sleep
            .iter()
            .copied()
            .filter(|&s| s != chosen && ops[&s].independent(&exec_op))
            .collect();
        g.nodes.push(Node {
            chosen,
            candidates: candidates.clone(),
            sleep,
            ops,
        });
    }

    if let Some(prev) = g.last_running {
        if prev != chosen && executable.contains(&prev) {
            g.preemptions += 1;
        }
    }
    g.depth += 1;
    g.last_running = Some(chosen);
    let name = g.threads[chosen].name.clone();
    g.trace.push(format!("t{chosen} {name}: {exec_op:?}"));
    g.active = Some(chosen);
    exec.cv.notify_all();
}

/// Announce `op`, hand the baton to the scheduler, park until chosen, then
/// apply the op's effects. The single yield point of the whole shim layer.
///
/// No-op while the calling thread is unwinding: destructors that run
/// during a panic (or a teardown) must not re-enter the scheduler — their
/// shim operations fall through to the real backing locks, which keeps
/// concurrently-unwinding threads memory-safe without scheduling them.
pub(crate) fn yield_point(exec: &Arc<Exec>, tid: TaskId, op: Op) {
    if std::thread::panicking() {
        return;
    }
    let mut g = lock_inner(exec);
    if g.abort {
        drop(g);
        std::panic::panic_any(Teardown);
    }
    g.threads[tid].pending = op;
    g.active = None;
    schedule(exec, &mut g);
    loop {
        if g.abort {
            drop(g);
            std::panic::panic_any(Teardown);
        }
        if g.active == Some(tid) {
            break;
        }
        g = cv_wait(exec, g);
    }
    execute(&mut g, tid);
}

/// Perform an atomic read-modify-write on a modelled atomic cell: one yield
/// (the whole RMW is a single visible step), then the mutation under a short
/// scheduler lock while this thread holds the baton.
pub(crate) fn atomic_access<R>(
    exec: &Arc<Exec>,
    tid: TaskId,
    id: ObjId,
    f: impl FnOnce(&mut u64) -> R,
) -> R {
    yield_point(exec, tid, Op::Atomic(id));
    let mut g = lock_inner(exec);
    match &mut g.objects[id] {
        ObjState::Atomic { value } => f(value),
        _ => panic!("model object {id} is not an atomic"),
    }
}

/// Register a child virtual thread and its OS carrier; the caller then
/// yields `Op::Spawn` so the scheduler sees the new candidate.
pub(crate) fn register_thread(
    exec: &Arc<Exec>,
    name: String,
    body: Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>,
) -> TaskId {
    let child = {
        let mut g = lock_inner(exec);
        g.threads.push(VThread::new(name));
        g.threads.len() - 1
    };
    let e2 = Arc::clone(exec);
    let os = std::thread::Builder::new()
        .name(format!("wmlp-check-t{child}"))
        .spawn(move || vthread_main(e2, child, body))
        .expect("spawn model carrier thread");
    lock_inner(exec).handles.push(os);
    child
}

fn panic_message(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn finish(exec: &Arc<Exec>, tid: TaskId, val: Box<dyn Any + Send>) {
    let mut g = lock_inner(exec);
    g.threads[tid].finished = true;
    g.threads[tid].result = Some(val);
    let name = g.threads[tid].name.clone();
    g.trace.push(format!("t{tid} {name}: Finish"));
    g.active = None;
    schedule(exec, &mut g);
}

fn record_failure(exec: &Arc<Exec>, tid: TaskId, msg: String) {
    let mut g = lock_inner(exec);
    if g.failure.is_none() {
        let name = g.threads[tid].name.clone();
        g.failure = Some(format!("t{tid} {name} panicked: {msg}"));
    }
    g.abort = true;
    exec.cv.notify_all();
}

/// Entry point of every virtual thread's OS carrier.
fn vthread_main(
    exec: Arc<Exec>,
    tid: TaskId,
    body: Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>,
) {
    set_ctx(Some((Arc::clone(&exec), tid)));
    let e2 = Arc::clone(&exec);
    let res = catch_unwind(AssertUnwindSafe(move || {
        // Await the first baton (pending == Start, announced at registration).
        let mut g = lock_inner(&e2);
        loop {
            if g.abort {
                drop(g);
                std::panic::panic_any(Teardown);
            }
            if g.active == Some(tid) {
                break;
            }
            g = cv_wait(&e2, g);
        }
        execute(&mut g, tid);
        drop(g);
        body()
    }));
    set_ctx(None);
    match res {
        Ok(val) => finish(&exec, tid, val),
        Err(p) => {
            if p.is::<Teardown>() {
                return;
            }
            record_failure(&exec, tid, panic_message(p));
        }
    }
}

pub(crate) struct RunOutcome {
    pub nodes: Vec<Node>,
    pub failure: Option<String>,
    pub trace: Vec<String>,
    pub sleep_blocked: bool,
}

/// Run the body once under the scripted prefix `nodes`, extending the script
/// with fresh decisions past its end. Returns the (possibly grown) script.
pub(crate) fn run_once(
    cfg: Config,
    nodes: Vec<Node>,
    body: &Arc<dyn Fn() + Send + Sync>,
) -> RunOutcome {
    let exec = Arc::new(Exec {
        inner: StdMutex::new(ExecInner {
            threads: vec![VThread::new("main".to_string())],
            objects: Vec::new(),
            nodes,
            depth: 0,
            active: None,
            last_running: None,
            preemptions: 0,
            spurious_left: cfg.spurious_wakeups,
            inherited_sleep: BTreeSet::new(),
            trace: Vec::new(),
            failure: None,
            sleep_blocked: false,
            abort: false,
            complete: false,
            handles: Vec::new(),
            steps: 0,
        }),
        cv: StdCondvar::new(),
        cfg,
    });
    let e2 = Arc::clone(&exec);
    let b = Arc::clone(body);
    let t0 = std::thread::Builder::new()
        .name("wmlp-check-t0".to_string())
        .spawn(move || {
            vthread_main(
                e2,
                0,
                Box::new(move || {
                    b();
                    Box::new(()) as Box<dyn Any + Send>
                }),
            )
        })
        .expect("spawn model root thread");
    {
        let mut g = lock_inner(&exec);
        schedule(&exec, &mut g);
        while !(g.complete || g.abort) {
            g = cv_wait(&exec, g);
        }
    }
    let mut handles = std::mem::take(&mut lock_inner(&exec).handles);
    handles.push(t0);
    for h in handles {
        let _ = h.join();
    }
    let mut g = lock_inner(&exec);
    RunOutcome {
        nodes: std::mem::take(&mut g.nodes),
        failure: g.failure.take(),
        trace: std::mem::take(&mut g.trace),
        sleep_blocked: g.sleep_blocked,
    }
}
