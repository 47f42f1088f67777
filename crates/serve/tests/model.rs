//! Model-checked properties of the serving stack's concurrency primitives.
//!
//! Every test runs the *real* production code (`spsc`, `run_shard`,
//! `Router`, `CompletionQueue`) under the `wmlp-check` exhaustive
//! interleaving explorer. The checked properties:
//!
//! 1. no lost wakeups   — every blocking handoff completes in every schedule
//! 2. no deadlock       — detected automatically by the explorer
//! 3. close drains all items
//! 4. `recv_batch` ≡ sequential `recv` × n
//! 5. shutdown never drops an accepted request (ring drain through the
//!    real `run_shard` worker)
//! 6. the migration drain handshake (the real `Router::dispatch` with a
//!    real `Partitioner` re-homing a key, + two shard workers through
//!    `DrainGate` markers) preserves per-key ordering in every schedule
//!    and never deadlocks — and the seeded mutant that bumps the epoch
//!    *without* draining is caught by the checker
//! 7. the event loops' eventfd wakeup handshake: the real
//!    `CompletionQueue` over a model doorbell with eventfd *counting*
//!    semantics loses no wakeup in any schedule, a completion racing a
//!    shutdown ring is never stranded, and the seeded dropped-notify
//!    mutant (a bell that publishes its count but never notifies) is
//!    caught as a deadlock
//! 8. two event loops sharing the router lock, dispatching into
//!    capacity-1 rings through a plan change, never deadlock and keep
//!    each connection's order
//!
//! Fixtures are deliberately tiny (ring capacities 1–2, ≤ 4 threads,
//! 2–4 items) — exhaustive exploration is exponential in yield points —
//! and each test also asserts determinism where the schedule count is part
//! of the contract.

// lint:orderings(SeqCst): the shutdown-race fixture publishes a flag
// before ringing its bell; the strongest ordering keeps the model's
// publish-then-ring story identical to production's.

use std::sync::{mpsc, Arc};

use wmlp_check::sync::atomic::AtomicBool;
use wmlp_check::sync::{Condvar, Mutex};
use wmlp_check::{explore, Config};
use wmlp_router::{PartitionMode, PartitionSpec};
use wmlp_serve::notify::{CompletionQueue, Doorbell};
use wmlp_serve::server::Router;
use wmlp_serve::shard::{run_shard, CompletionSink, ReplyTo, ShardJob, ShardMsg, ShardStats};
use wmlp_serve::spsc;

use wmlp_check::thread::{spawn_named, JoinHandle};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::storage::SimStorage;
use wmlp_core::wire::Frame;

/// Channel-backed sink standing in for an event loop: `(conn, seq)` of
/// every reply lands on an mpsc (which never blocks, so it adds no yield
/// points) the test drains.
struct ChanSink(mpsc::Sender<(u64, u64)>);

impl CompletionSink for ChanSink {
    fn complete(&self, conn: u64, seq: u64, _frame: Frame) {
        let _ = self.0.send((conn, seq));
    }
}

fn chan_sink() -> (Arc<dyn CompletionSink>, mpsc::Receiver<(u64, u64)>) {
    let (tx, rx) = mpsc::channel();
    (Arc::new(ChanSink(tx)), rx)
}

fn cfg() -> Config {
    Config::default()
}

/// Properties 1 + 2: a capacity-1 ring forces strict producer/consumer
/// alternation through both condvars; any lost wakeup or deadlock in the
/// notify protocol fails some schedule.
#[test]
fn spsc_capacity_one_handoff_never_loses_a_wakeup() {
    let report = explore(cfg(), || {
        let (tx, rx) = spsc::channel::<u32>(1);
        let producer = spawn_named("producer", move || {
            for i in 0..3u32 {
                assert!(tx.send(i).is_ok(), "receiver alive during send");
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2], "items in order, none lost");
        producer.join().expect("join producer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 3: dropping the sender closes the ring, and the receiver still
/// sees every item that was accepted before the close.
#[test]
fn spsc_close_drains_all_accepted_items() {
    let report = explore(cfg(), || {
        let (tx, rx) = spsc::channel::<u32>(4);
        let producer = spawn_named("producer", move || {
            for i in 0..3u32 {
                assert!(tx.send(i).is_ok());
            }
            // tx drops here: the ring closes with items possibly queued.
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2], "close must drain, not drop");
        producer.join().expect("join producer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// Property 4: under every interleaving, draining via `recv_batch` yields
/// exactly the sequence sequential `recv` calls would — the batch API is
/// an amortization, not a semantic change.
#[test]
fn spsc_recv_batch_equals_sequential_recv() {
    let run = |batched: bool| {
        explore(cfg(), move || {
            let (tx, rx) = spsc::channel::<u32>(2);
            let producer = spawn_named("producer", move || {
                for i in 0..3u32 {
                    assert!(tx.send(i).is_ok());
                }
            });
            let mut got = Vec::new();
            if batched {
                let mut batch = Vec::new();
                loop {
                    batch.clear();
                    let n = rx.recv_batch(&mut batch, 2);
                    if n == 0 {
                        break;
                    }
                    assert!(n <= 2, "batch respects max");
                    got.extend_from_slice(&batch);
                }
            } else {
                while let Some(v) = rx.recv() {
                    got.push(v);
                }
            }
            assert_eq!(got, vec![0, 1, 2], "same drain order either way");
            producer.join().expect("join producer");
        })
    };
    let batched = run(true);
    let sequential = run(false);
    assert!(batched.failure.is_none(), "{}", batched.failure.unwrap());
    assert!(
        sequential.failure.is_none(),
        "{}",
        sequential.failure.unwrap()
    );
    assert!(!batched.truncated && !sequential.truncated);
}

/// Property 5: graceful shutdown through the *real* shard worker — every
/// job accepted into the ring before close is answered exactly once, and
/// the queue gauge returns to zero. `run_shard` runs as a checked virtual
/// thread (its engine work is pure compute; the reply mpsc never blocks).
#[test]
fn shutdown_never_drops_an_accepted_request() {
    let report = explore(cfg(), || {
        let inst =
            MlInstance::from_rows(2, (0..3).map(|p| vec![10 + p as u64]).collect()).expect("inst");
        let stats = Arc::new(ShardStats::default());
        let (tx, rx) = spsc::channel::<ShardMsg>(2);
        let (sink, reply_rx) = chan_sink();
        let st2 = Arc::clone(&stats);
        let inst2 = inst.clone();
        let worker = spawn_named("shard-0", move || {
            let mut policy = wmlp_algos::PolicyRegistry::standard()
                .build("lru", &inst2, 0)
                .expect("build lru");
            let mut store = SimStorage::new(inst2.n(), inst2.max_levels(), 8);
            run_shard(&inst2, policy.as_mut(), rx, &st2, 2, &mut store);
        });
        for (seq, page) in [0u32, 1, 0].into_iter().enumerate() {
            stats.note_enqueued();
            assert!(
                tx.send(ShardMsg::Job(ShardJob {
                    req: Request::top(page),
                    put: None,
                    seq: seq as u64,
                    reply: ReplyTo::Sink {
                        sink: Arc::clone(&sink),
                        conn: 0,
                    },
                }))
                .is_ok(),
                "worker alive during send"
            );
        }
        drop(tx); // close: the worker must drain, then exit
        worker.join().expect("join shard worker");
        let replies: Vec<u64> = reply_rx.try_iter().map(|(_, seq)| seq).collect();
        assert_eq!(
            replies,
            vec![0, 1, 2],
            "every accepted request answered once, in order"
        );
        assert_eq!(stats.load().queue_depth, 0, "queue gauge back to zero");
        assert_eq!(stats.snapshot().requests, 3);
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// Two real `run_shard` workers: the rings' producer ends, the shards'
/// stats and the worker handles.
struct Shards {
    rings: Vec<spsc::Sender<ShardMsg>>,
    stats: Vec<Arc<ShardStats>>,
    workers: Vec<JoinHandle<()>>,
}

/// [`Shards`] over a 3-page instance, one ring of capacity `cap` each.
fn spawn_shards(cap: usize) -> Shards {
    let inst =
        MlInstance::from_rows(2, (0..3).map(|p| vec![10 + p as u64]).collect()).expect("inst");
    let mut rings = Vec::new();
    let mut stats = Vec::new();
    let mut workers = Vec::new();
    for s in 0..2 {
        let (tx, rx) = spsc::channel::<ShardMsg>(cap);
        rings.push(tx);
        let st = Arc::new(ShardStats::default());
        stats.push(Arc::clone(&st));
        let inst2 = inst.clone();
        workers.push(spawn_named(format!("shard-{s}"), move || {
            let mut policy = wmlp_algos::PolicyRegistry::standard()
                .build("lru", &inst2, 0)
                .expect("build lru");
            let mut store = SimStorage::new(inst2.n(), inst2.max_levels(), 8);
            run_shard(&inst2, policy.as_mut(), rx, &st, 2, &mut store);
        }));
    }
    Shards {
        rings,
        stats,
        workers,
    }
}

/// A migrate plan over 2 shards that re-homes page 0 at its first epoch
/// boundary. After routing pages 2 and 0 (both hash-homed on shard 0),
/// `hot_k = 1` keeps page 0 as the one hot key (ties break toward the
/// smaller id) and page 2 stays background load on shard 0, so LPT moves
/// page 0 to shard 1 — halving the estimated max load, which the
/// adoption hysteresis accepts.
fn rehoming_router(rings: Vec<spsc::Sender<ShardMsg>>, stats: Vec<Arc<ShardStats>>) -> Router {
    let spec = PartitionSpec {
        mode: PartitionMode::Migrate,
        shards: 2,
        detector_capacity: 4,
        hot_k: 1,
        epoch_len: 2,
        sample_every: 1,
    };
    Router::new(spec, rings, stats)
}

/// Property 6 (correct protocol): the real [`Router::dispatch`] routes
/// pages 2, 0, 0 into two real `run_shard` workers; the epoch boundary
/// before the third request re-homes page 0 from shard 0 to shard 1,
/// through the production drain handshake. Page 0's completions match
/// its route order in *every* schedule, and the handshake itself never
/// loses a wakeup or deadlocks.
#[test]
fn migration_drain_preserves_per_key_ordering() {
    let report = explore(cfg(), || {
        let Shards {
            rings,
            stats,
            workers,
        } = spawn_shards(2);
        let router = rehoming_router(rings, stats.clone());
        let (sink, reply_rx) = chan_sink();
        for (seq, page) in [2u32, 0, 0].into_iter().enumerate() {
            let routed = router.dispatch(Request::top(page), None, seq as u64, &sink, 0);
            assert!(routed.is_ok(), "workers alive during dispatch");
        }
        drop(router); // closes the rings: the workers drain, then exit
        for w in workers {
            w.join().expect("join shard worker");
        }
        let page0: Vec<u64> = reply_rx
            .try_iter()
            .map(|(_, seq)| seq)
            .filter(|&seq| seq != 0)
            .collect();
        assert_eq!(
            page0,
            vec![1, 2],
            "page 0's requests must complete in route order across the re-homing"
        );
        assert_eq!(
            stats[1].snapshot().requests,
            1,
            "the plan change re-homed page 0 onto shard 1"
        );
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 6 (seeded mutant): a hand-rolled router that bumps the epoch
/// *without* draining — page 0 goes to shard 0 under the old plan, then
/// straight to shard 1 under the new one. Shard 1 can answer the
/// re-homed request before shard 0 answers the old-plan one; the checker
/// must find that schedule.
#[test]
fn epoch_bump_without_drain_is_caught() {
    let report = explore(cfg(), || {
        let Shards {
            rings,
            stats,
            workers,
        } = spawn_shards(2);
        let (sink, reply_rx) = chan_sink();
        for (seq, shard) in [0usize, 1].into_iter().enumerate() {
            stats[shard].note_enqueued();
            let job = ShardMsg::Job(ShardJob {
                req: Request::top(0),
                put: None,
                seq: seq as u64,
                reply: ReplyTo::Sink {
                    sink: Arc::clone(&sink),
                    conn: 0,
                },
            });
            assert!(rings[shard].send(job).is_ok());
        }
        drop(rings);
        for w in workers {
            w.join().expect("join shard worker");
        }
        let order: Vec<u64> = reply_rx.try_iter().map(|(_, seq)| seq).collect();
        assert_eq!(order, vec![0, 1], "page 0 reordered across the re-homing");
    });
    assert!(
        report.failure.is_some(),
        "the undrained mutant must reorder page 0 in some schedule"
    );
}

/// Property 8: two event loops dispatch through the one shared router
/// lock into capacity-1 rings drained by real `run_shard` workers. Loop
/// 0 routes page 0 twice on connection 0, loop 1 page 2 once on
/// connection 1; whenever page 2 is routed before page 0's second
/// request, the epoch boundary re-homes page 0 — a drain run by one loop
/// while the other may be contending for the lock. No schedule
/// deadlocks (a loop blocked on a full ring or in a drain never waits on
/// a loop), and every connection's replies arrive in dispatch order.
#[test]
fn two_loops_share_the_router_without_deadlock_or_reordering() {
    // Four virtual threads: one preemption keeps the search exhaustive
    // (~19 K schedules). Switching away from a thread blocked on the
    // router lock, a full ring or the drain gate is not a preemption, so
    // every contention shape is still explored.
    let bounds = Config {
        preemption_bound: 1,
        ..cfg()
    };
    let report = explore(bounds, || {
        let Shards {
            rings,
            stats,
            workers,
        } = spawn_shards(1);
        let router = Arc::new(rehoming_router(rings, stats));
        let (sink, reply_rx) = chan_sink();
        let (r1, s1) = (Arc::clone(&router), Arc::clone(&sink));
        let loop1 = spawn_named("io-1", move || {
            assert!(r1.dispatch(Request::top(2), None, 0, &s1, 1).is_ok());
        });
        for seq in 0..2 {
            assert!(router
                .dispatch(Request::top(0), None, seq, &sink, 0)
                .is_ok());
        }
        loop1.join().expect("join io-1");
        drop(router); // the last reference: closes the rings
        for w in workers {
            w.join().expect("join shard worker");
        }
        let replies: Vec<(u64, u64)> = reply_rx.try_iter().collect();
        let conn0: Vec<u64> = replies
            .iter()
            .filter(|(conn, _)| *conn == 0)
            .map(|(_, seq)| *seq)
            .collect();
        assert_eq!(conn0, vec![0, 1], "connection 0 reordered");
        assert_eq!(replies.len(), 3, "every dispatched request answered once");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// A model doorbell with `eventfd` counting semantics: each ring bumps a
/// counter, and a wait blocks until the counter is nonzero then consumes
/// it whole — exactly what `epoll_wait` + `EventFd::drain` do in the
/// production event loop. With `drop_notify` it becomes the seeded
/// mutant: the count is still published, but the sleeping consumer is
/// never woken — the dropped-notification bug the counting contract is
/// supposed to make impossible.
struct ModelBell {
    count: Mutex<u64>,
    ready: Condvar,
    drop_notify: bool,
}

impl ModelBell {
    fn new(drop_notify: bool) -> Self {
        ModelBell {
            count: Mutex::new(0),
            ready: Condvar::new(),
            drop_notify,
        }
    }

    /// Block until at least one ring has landed, then consume all of
    /// them — the model analogue of one `epoll_wait` wakeup followed by
    /// `EventFd::drain`.
    fn wait(&self) {
        let mut g = match self.count.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        while *g == 0 {
            g = match self.ready.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        *g = 0;
    }
}

impl Doorbell for ModelBell {
    fn ring(&self) {
        let mut g = match self.count.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *g += 1;
        if !self.drop_notify {
            self.ready.notify_one();
        }
    }
}

/// Property 7 (no lost wakeup): two shard workers push completions onto
/// the real [`CompletionQueue`] while the event loop waits on the model
/// bell. In every schedule the loop collects both completions — a ring
/// landing between the loop's drain and its next wait is accumulated by
/// the counter, never lost.
#[test]
fn eventfd_handshake_never_loses_a_wakeup() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(false));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let workers: Vec<_> = [0u64, 1]
            .into_iter()
            .map(|seq| {
                let q2 = Arc::clone(&q);
                spawn_named(format!("shard-{seq}"), move || q2.push(seq))
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            bell.wait();
            q.drain_into(&mut got);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "every published completion surfaces");
        for w in workers {
            w.join().expect("join shard worker");
        }
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 7 (concurrent close): a shard completion races
/// `trigger_shutdown`'s ring. The loop keeps waiting until it has seen
/// *both* the shutdown flag and the in-flight completion — mirroring the
/// production loop, which only exits once its connections have drained.
/// No schedule strands the completion in the queue or wedges the loop.
#[test]
fn completion_racing_a_shutdown_ring_is_never_stranded() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(false));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let worker = spawn_named("shard-0", move || q2.push(7));
        let (b2, s2) = (Arc::clone(&bell), Arc::clone(&shutdown));
        let closer = spawn_named("closer", move || {
            // trigger_shutdown's discipline: publish the flag, then ring.
            s2.store(true, std::sync::atomic::Ordering::SeqCst);
            b2.ring();
        });
        let mut got = Vec::new();
        while !shutdown.load(std::sync::atomic::Ordering::SeqCst) || got.is_empty() {
            bell.wait();
            q.drain_into(&mut got);
        }
        assert_eq!(got, vec![7], "the in-flight completion survives the race");
        worker.join().expect("join shard worker");
        closer.join().expect("join closer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// Property 7 (seeded mutant): a bell that publishes its count but never
/// notifies. The checker must find the schedule where the loop parks on
/// the condvar *before* the worker rings — a consumer asleep with work
/// published and nobody left to wake it, reported as a deadlock.
#[test]
fn dropped_notify_mutant_is_caught() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(true));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let q2 = Arc::clone(&q);
        let worker = spawn_named("shard-0", move || q2.push(0));
        let mut got = Vec::new();
        while got.is_empty() {
            bell.wait();
            q.drain_into(&mut got);
        }
        worker.join().expect("join shard worker");
    });
    assert!(
        report.failure.is_some(),
        "the dropped-notify mutant must deadlock in some schedule"
    );
}

/// The explorer itself is deterministic on production code: the same
/// fixture and bounds give the same schedule and prune counts.
#[test]
fn exploration_of_production_code_is_deterministic() {
    let body = || {
        let (tx, rx) = spsc::channel::<u32>(1);
        let producer = spawn_named("producer", move || {
            for i in 0..2u32 {
                assert!(tx.send(i).is_ok());
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1]);
        producer.join().expect("join producer");
    };
    let r1 = explore(cfg(), body);
    let r2 = explore(cfg(), body);
    assert!(r1.failure.is_none(), "{}", r1.failure.unwrap());
    assert_eq!(
        (r1.schedules, r1.pruned, r1.truncated),
        (r2.schedules, r2.pruned, r2.truncated),
        "same bounds must reproduce the same exploration"
    );
}
